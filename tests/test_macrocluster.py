"""Ward linkage, dendrogram cuts and unit weighting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from somcat.errors import ConfigError
from somcat.macrocluster import (
    WARD_MAX_BYTES,
    Dendrogram,
    MacroClassing,
    check_ward_size,
    cut,
    unit_weights,
    ward_cluster,
    ward_linkage,
)
from somcat.som import Topology, TrainConfig, init_model


def ward_oracle(vectors, weights):
    """Exhaustive agglomeration oracle: clusters kept as explicit member
    lists, every merge cost recomputed from scratch with weighted centroids."""
    vectors = np.asarray(vectors, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(vectors)
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                wa = weights[clusters[a]].sum()
                wb = weights[clusters[b]].sum()
                ca = np.average(vectors[clusters[a]], axis=0,
                                weights=weights[clusters[a]])
                cb = np.average(vectors[clusters[b]], axis=0,
                                weights=weights[clusters[b]])
                d = ca - cb
                cost = wa * wb / (wa + wb) * float(d @ d)
                if best is None or cost < best[2]:
                    best = (a, b, cost)
        a, b, cost = best
        merges.append((a, b, cost))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


def make_model(topology, vectors):
    model = init_model(
        topology, vectors.shape[1], TrainConfig(t_max=1, seed=0),
        data=np.zeros((2, vectors.shape[1])),
    )
    model.code_vectors[:] = vectors
    return model


# --------------------------------------------------------------- ward linkage

def test_ward_two_points_hand_computed():
    merges = ward_linkage(np.array([[0.0], [3.0]]), np.array([1.0, 2.0]))
    # cost = w_a*w_b/(w_a+w_b) * 9 = 2/3 * 9
    assert merges == [(0, 1, pytest.approx(6.0))]


def test_ward_three_points_hand_computed():
    merges = ward_linkage(
        np.array([[0.0], [1.0], [10.0]]), np.array([1.0, 1.0, 1.0])
    )
    (a1, b1, c1), (a2, b2, c2) = merges
    assert (a1, b1) == (0, 1)
    assert c1 == pytest.approx(0.5)
    # merged centroid 0.5 with weight 2 against point 10
    assert (a2, b2) == (2, 3)
    assert c2 == pytest.approx(2.0 / 3.0 * 9.5**2)


def test_ward_weight_equals_duplicated_point():
    a = ward_linkage(np.array([[0.0], [0.0], [9.0]]), np.ones(3))
    b = ward_linkage(np.array([[0.0], [9.0]]), np.array([2.0, 1.0]))
    assert a[1][2] == pytest.approx(b[0][2])


def test_ward_matches_exhaustive_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 4))
        vectors = rng.normal(size=(n, dim))
        weights = rng.uniform(0.5, 3.0, size=n)
        got = ward_linkage(vectors, weights)
        want = ward_oracle(vectors, weights)
        assert len(got) == len(want) == n - 1
        for (ga, gb, gc), (wa, wb, wc) in zip(got, want):
            assert (ga, gb) == (wa, wb)
            assert gc == pytest.approx(wc, abs=1e-9)


def test_ward_costs_monotone_nondecreasing():
    rng = np.random.default_rng(32)
    vectors = rng.normal(size=(8, 3))
    merges = ward_linkage(vectors, np.ones(8))
    costs = [c for _, _, c in merges]
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))


def test_ward_merges_do_not_depend_on_blas_threads():
    # OpenBLAS splits dot products of rows wider than about 10^4 over its
    # threads, which reorders the sum; Ward's costs must not go through it.
    script = (
        "import numpy as np\n"
        "from somcat.macrocluster import ward_linkage\n"
        "x = np.random.default_rng(33).normal(size=(64, 12000))\n"
        "print(ward_linkage(x, np.ones(64)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_ward_input_validation():
    with pytest.raises(ConfigError):
        ward_linkage(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ConfigError):
        ward_linkage(np.zeros((1, 2)), np.ones(1))



def test_ward_size_limit_is_the_cost_matrix_bytes():
    check_ward_size(5793)                 # 11,585^2 float64 fit in 1 GiB
    assert 8 * (2 * 5793 - 1) ** 2 <= WARD_MAX_BYTES < 8 * (2 * 5794 - 1) ** 2
    with pytest.raises(ConfigError, match="cost matrix"):
        check_ward_size(5794)


def test_oversized_ward_fails_as_config_error_under_an_address_space_limit(tmp_path):
    # A 100x100 map clustered with uniform weights needs a 3.0 GiB cost
    # matrix: under a 3 GiB address-space limit the CLI must fail as a
    # config error before training (no artifact written), and ward_linkage
    # before allocating.  Without uniform weights kmca's leaves are at most
    # its 12 modalities, so the same map clusters.
    script = (
        "import contextlib, io, json, resource, sys\n"
        "limit = 3 * 2**30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "import numpy as np\n"
        "from somcat.cli import main\n"
        "from somcat.errors import ConfigError\n"
        "from somcat.macrocluster import ward_linkage\n"
        "out, argv = sys.argv[1], ['kmca', '--grid', '100x100', '--iters', '10',\n"
        "                          '--macro', '4', '--render', 'none']\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "    big = main([*argv, '--uniform-weights', '--out', out + '/big'])\n"
        "    small = main([*argv, '--out', out + '/small'])\n"
        "try:\n"
        "    ward_linkage(np.zeros((10000, 1)), np.ones(10000))\n"
        "    linkage = 'no error'\n"
        "except ConfigError as exc:\n"
        "    linkage = exc.category\n"
        "print(json.dumps({'big': big, 'small': small, 'stderr': err.getvalue(),\n"
        "                  'linkage': linkage}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["big"] == 1
    assert got["stderr"].startswith("error:config: Ward clustering of 10000 units")
    assert got["stderr"].count("\n") == 1
    assert list((tmp_path / "big").iterdir()) == []
    assert got["small"] == 0
    assert (tmp_path / "small" / "marriages.kmca.0.macro.json").exists()
    assert got["linkage"] == "config"


# ----------------------------------------------------------------------- cuts

def test_cut_extremes_and_validation():
    rng = np.random.default_rng(33)
    topo = Topology.grid(2, 3)
    model = make_model(topo, rng.normal(size=(6, 2)))
    dendro = ward_cluster(model)
    assert cut(dendro, 6).k == 6
    assert all(len(c) == 1 for c in cut(dendro, 6).classes)
    one = cut(dendro, 1)
    assert one.classes == [[0, 1, 2, 3, 4, 5]]
    assert one.connected == [True]
    with pytest.raises(ConfigError):
        cut(dendro, 0)
    with pytest.raises(ConfigError):
        cut(dendro, 7)


def test_cut_refinement_chain():
    """cut(k) merges exactly two classes of cut(k+1), for every k."""
    rng = np.random.default_rng(34)
    topo = Topology.grid(3, 3)
    model = make_model(topo, rng.normal(size=(9, 4)))
    dendro = ward_cluster(model)

    def blocks(mc):
        return {frozenset(c) for c in mc.classes}

    for k in range(1, 9):
        fine = blocks(cut(dendro, k + 1))
        coarse = blocks(cut(dendro, k))
        merged = coarse - fine
        gone = fine - coarse
        assert len(merged) == 1
        assert len(gone) == 2
        assert set().union(*gone) == next(iter(merged))


def test_cut_class_numbering_by_smallest_unit():
    rng = np.random.default_rng(35)
    topo = Topology.grid(2, 2)
    model = make_model(topo, rng.normal(size=(4, 2)))
    mc = cut(ward_cluster(model), 2)
    assert mc.class_of(0) == 0
    assert min(mc.classes[0]) < min(mc.classes[1])


def test_cut_orphans_inherit_nearest_class():
    topo = Topology.grid(1, 4)
    vectors = np.array([[0.0], [0.2], [10.0], [10.3]])
    model = make_model(topo, vectors)
    weights = np.array([1.0, 0.0, 0.0, 1.0])  # units 1 and 2 sit out
    dendro = ward_cluster(model, weights=weights)
    assert dendro.leaves == (0, 3)
    mc = cut(dendro, 2)
    assert mc.labels.tolist() == [0, 0, 1, 1]


def test_cut_without_vectors_needs_no_orphans():
    rng = np.random.default_rng(36)
    topo = Topology.grid(2, 2)
    model = make_model(topo, rng.normal(size=(4, 2)))
    blob = ward_cluster(model).to_json()
    revived = Dendrogram.from_json(blob)
    assert cut(revived, 2).k == 2  # all units clustered: vectors not needed

    weights = np.array([1.0, 1.0, 0.0, 1.0])
    partial = Dendrogram.from_json(ward_cluster(model, weights=weights).to_json())
    with pytest.raises(ConfigError):
        cut(partial, 2)


def test_connected_flag_detects_split_class():
    # force two distant grid corners into one class: 4 units on a string,
    # outer pair similar, inner pair similar
    topo = Topology.grid(1, 4)
    vectors = np.array([[0.0], [5.0], [5.1], [0.1]])
    model = make_model(topo, vectors)
    mc = cut(ward_cluster(model), 2)
    by_units = {tuple(c): conn for c, conn in zip(mc.classes, mc.connected)}
    assert by_units[(0, 3)] is False
    assert by_units[(1, 2)] is True


def test_macro_classing_json_round_trip():
    rng = np.random.default_rng(37)
    model = make_model(Topology.grid(2, 3), rng.normal(size=(6, 3)))
    mc = cut(ward_cluster(model), 3)
    clone = MacroClassing.from_json(mc.to_json())
    assert clone.k == mc.k
    assert np.array_equal(clone.labels, mc.labels)
    assert clone.classes == mc.classes
    assert clone.connected == mc.connected


# -------------------------------------------------------------------- weights

def test_unit_weights_prefer_individuals(marriage):
    from somcat.analyses import kdisj, kmca

    topo = Topology.grid(3, 3)
    cfg = TrainConfig(seed=0, t_max=200)
    res = kdisj(marriage, topo, cfg)
    w = unit_weights(res)
    assert w.sum() == 270  # individuals counts, not modalities
    res2 = kmca(marriage, topo, cfg)
    w2 = unit_weights(res2)
    assert w2.sum() == 12
    assert np.array_equal(unit_weights(res, uniform=True), np.ones(9))
