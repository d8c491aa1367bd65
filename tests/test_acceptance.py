"""Numbered acceptance checks over the whole pipeline.

Each test prints one scoreboard line ("criterion N: PASS/FAIL - detail")
before asserting, so every criterion reports even when one fails; the -rA
summary collects the lines of the passing ones.  Tolerances, seeds and
draw budgets are pinned inside the tests.
"""

import json
import math
import re
import time

import numpy as np

from conftest import random_dataset
from somcat import (
    DistanceMask,
    MapAssignment,
    PieGrid,
    SomModel,
    Topology,
    TrainConfig,
    assign,
    corrected_burt,
    corrected_disjunctive,
    cross,
    cut,
    deviations,
    external_from_dataset,
    kdisj,
    kdisj_associate,
    kmca,
    marriage_counts,
    modality_mean_vectors,
    neighbor_distance_stats,
    render_map,
    render_pies,
    to_disjunctive,
    total_inertia,
    unit_weights,
    ward_cluster,
    ward_linkage,
)
from somcat.som import _squared_distances

GRID = Topology.grid(4, 4)

WEDGE = re.compile(
    r'<path d="M (?P<cx>[-\d.e]+) (?P<cy>[-\d.e]+) '
    r"L (?P<x0>[-\d.e]+) (?P<y0>[-\d.e]+) "
    r"A [-\d.e]+ [-\d.e]+ 0 (?P<large>[01]) 1 "
    r'(?P<x1>[-\d.e]+) (?P<y1>[-\d.e]+) Z"'
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def bare(names):
    """Index modality labels with their variable prefix stripped."""
    return {n.split(".", 1)[1]: i for i, n in enumerate(names)}


def pearson_chi_square(counts):
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    chi2 = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            expected = rows[i] * cols[j] / total
            chi2 += (counts[i, j] - expected) ** 2 / expected
    return chi2


def wedge_angles(svg):
    """Recover (start, span) degrees of every pie wedge from the raw paths."""
    out = []
    for m in WEDGE.finditer(svg):
        cx, cy = float(m["cx"]), float(m["cy"])
        x0, y0 = float(m["x0"]), float(m["y0"])
        x1, y1 = float(m["x1"]), float(m["y1"])
        a0 = math.degrees(math.atan2(x0 - cx, cy - y0)) % 360.0
        a1 = math.degrees(math.atan2(x1 - cx, cy - y1)) % 360.0
        span = (a1 - a0) % 360.0
        if span == 0.0:
            span = 360.0
        out.append((a0, span))
    return out


def test_criterion_01_burt_identities(marriage, marriage_disj, marriage_burt):
    t0 = time.perf_counter()
    table = marriage_burt
    idx = bare(marriage.global_modality_names)
    ok = (
        table[idx["MFARM"], idx["FFARM"]] == 16
        and table[idx["MWORK"], idx["FCLER"]] == 60
        and np.array_equal(table.sum(axis=1), 2 * marriage_disj.sum(axis=0))
        and int(table.sum()) == 1080
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, "farm couples 16, worker x clerical 60, row sums 2*b_j, "
                  f"total 1080 ({elapsed:.3f}s)")
    assert ok


def test_criterion_02_corrected_matrix_values(marriage, marriage_disj):
    bc = corrected_burt(marriage)
    idx = bare(marriage.global_modality_names)
    off_gap = abs(bc[idx["MFARM"], idx["FFARM"]] - 0.5)
    diag_gap = float(np.max(np.abs(np.diag(bc) - 0.5)))

    dc = corrected_disjunctive(marriage)
    k = marriage.n_variables
    counts = marriage_disj.sum(axis=0)
    oracle = np.empty_like(dc)
    for i in range(marriage.n_individuals):
        for j in range(marriage.n_modalities):
            oracle[i, j] = marriage_disj[i, j] / (
                math.sqrt(k) * math.sqrt(counts[j])
            )
    dc_gap = float(np.max(np.abs(dc - oracle)))

    ok = off_gap <= 1e-15 and diag_gap <= 1e-15 and dc_gap <= 1e-15
    report(2, ok, f"b^c farm couple off by {off_gap:.1e}, diagonals off by "
                  f"{diag_gap:.1e}, d^c off by {dc_gap:.1e} (tol 1e-15)")
    assert ok


def test_criterion_03_inertia_equals_chi_square_over_n():
    t0 = time.perf_counter()
    counts = marriage_counts()
    stats = total_inertia(counts)
    want = pearson_chi_square(counts) / 270.0
    rel_gap = abs(stats.total_inertia - want) / want

    rng = np.random.default_rng(3)
    worst = 0.0
    done = 0
    while done < 100:
        table = rng.integers(0, 20, size=(5, 7))
        if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
            continue
        s = total_inertia(table)
        scale = max(1.0, abs(s.total_inertia))
        worst = max(worst, abs(s.row_inertia - s.col_inertia) / scale)
        done += 1

    elapsed = time.perf_counter() - t0
    ok = rel_gap <= 1e-10 and worst <= 1e-10 and elapsed < 5.0
    report(3, ok, f"chi2/270 relative gap {rel_gap:.1e}, worst row/col "
                  f"profile gap {worst:.1e} over 100 random 5x7 tables "
                  f"({elapsed:.2f}s, tol 1e-10)")
    assert ok


def test_criterion_04_rarest_modality_oracle(marriage):
    dc = corrected_disjunctive(marriage)
    rng = np.random.default_rng(4)
    matches = 0
    for i in range(dc.shape[0]):
        ties = np.flatnonzero(dc[i] == dc[i].max())
        got = kdisj_associate(dc[i], rng)
        if len(ties) == 1:
            matches += got == int(np.argmax(dc[i]))
        else:
            matches += got in ties

    row = dc[marriage.individuals.index("MFARM:FFARM:1")]
    ties = np.flatnonzero(row == row.max())
    draws = np.array([kdisj_associate(row, rng) for _ in range(10_000)])
    freqs = [float((draws == t).mean()) for t in ties]

    ok = (
        matches == dc.shape[0]
        and len(ties) == 2
        and all(abs(f - 0.5) <= 0.03 for f in freqs)
    )
    report(4, ok, f"argmax match on all {dc.shape[0]} rows, farm-couple tie "
                  f"split {freqs[0]:.3f}/{freqs[1]:.3f} over 10000 draws "
                  "(0.5 +/- 0.03)")
    assert ok


def test_criterion_05_mean_vector_identity(marriage):
    def direct(ds):
        dc = corrected_disjunctive(ds)
        d = to_disjunctive(ds)
        out = np.empty((ds.n_modalities, ds.n_modalities))
        for j in range(ds.n_modalities):
            out[j] = dc[d[:, j] == 1].mean(axis=0)
        return out

    worst = float(np.max(np.abs(
        modality_mean_vectors(marriage) - direct(marriage)
    )))
    rng = np.random.default_rng(5)
    for _ in range(50):
        sizes = tuple(int(s) for s in rng.integers(2, 5, size=rng.integers(2, 4)))
        ds = random_dataset(rng, n=int(rng.integers(15, 40)), sizes=sizes)
        worst = max(worst, float(np.max(np.abs(
            modality_mean_vectors(ds) - direct(ds)
        ))))

    ok = worst <= 1e-12
    report(5, ok, f"closed form vs direct averaging, max abs gap {worst:.1e} "
                  "on marriage + 50 random datasets (tol 1e-12)")
    assert ok


def test_criterion_06_farm_couple_shares_macro_class(marriage):
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        res = kmca(marriage, GRID, TrainConfig(t_max=200, seed=seed))
        macro = cut(ward_cluster(res.unit_distances, unit_weights(res), GRID), 6)
        a = macro.class_of(res.modalities.unit_of("husband.MFARM"))
        b = macro.class_of(res.modalities.unit_of("wife.FFARM"))
        hits += a == b
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 10.0
    report(6, ok, f"MFARM and FFARM share a macro-class in {hits}/10 seeds "
                  f"(need >= 8) in {elapsed:.2f}s")
    assert ok


def test_criterion_07_own_class_deviations_all_positive(marriage):
    """Stochastic attraction target; the line also lists each seed's misses,
    negative and exactly zero (a unit without individuals), see README."""
    hits, negative, zero = 0, [], []
    for seed in range(10):
        res = kdisj(marriage, GRID, TrainConfig(seed=seed))
        dev = deviations(res, marriage)
        hits += bool(np.all(dev.own_deviation > 0))
        negative.append(int(np.sum(dev.own_deviation < 0)))
        zero.append(int(np.sum(dev.own_deviation == 0)))
    ok = hits >= 8
    report(7, ok, f"every modality's own-class deviation positive in "
                  f"{hits}/10 seeds (need >= 8); misses per seed: "
                  f"negative {negative}, exactly zero {zero}")
    assert ok


def test_criterion_08_modality_steps_leave_individual_block_alone(marriage):
    m = marriage.n_modalities
    seen = {"prev": None, "odd": 0, "clean": 0}

    def observer(t, x, smask, umask, model):
        block = model.code_vectors[:, :m].tobytes()
        if t % 2 == 1:
            seen["odd"] += 1
            seen["clean"] += block == seen["prev"]
        seen["prev"] = block

    res = kdisj(marriage, GRID, TrainConfig(seed=8), observer=observer)
    ok = seen["odd"] == res.model.config.t_max // 2 and seen["clean"] == seen["odd"]
    report(8, ok, f"first {m} code components bit-identical across all "
                  f"{seen['odd']} modality steps of a full run")
    assert ok


def test_criterion_09_topographic_order_and_qe_decrease(marriage):
    topo_hits, qe_hits = 0, 0
    for seed in range(10):
        res = kmca(marriage, GRID, TrainConfig(seed=seed))
        stats = neighbor_distance_stats(res.model)
        topo_hits += stats.mean_adjacent < stats.mean_non_adjacent
        qe_hits += res.qe_log[-1][1] < res.qe_log[0][1]
    ok = topo_hits >= 8 and qe_hits == 10
    report(9, ok, f"adjacent < non-adjacent code distance in {topo_hits}/10 "
                  f"seeds (need >= 8), QE drops in {qe_hits}/10 (need 10/10)")
    assert ok


def test_criterion_10_ward_matches_exhaustive_oracle():
    def oracle(vectors, weights):
        clusters = {i: [i] for i in range(len(vectors))}
        merges, next_id = [], len(vectors)
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
            merges.append(best)
            clusters[next_id] = clusters.pop(best[0]) + clusters.pop(best[1])
            next_id += 1
        return merges

    def refines(dendro):
        def blocks(mc):
            return {frozenset(c) for c in mc.classes}
        for k in range(1, dendro.n_leaves):
            fine, coarse = blocks(cut(dendro, k + 1)), blocks(cut(dendro, k))
            gone, merged = fine - coarse, coarse - fine
            if len(merged) != 1 or len(gone) != 2:
                return False
            if set().union(*gone) != next(iter(merged)):
                return False
        return True

    rng = np.random.default_rng(10)
    worst, pairs_ok, refine_ok = 0.0, True, True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        vectors = rng.normal(size=(n, int(rng.integers(1, 4))))
        weights = rng.integers(1, 5, size=n).astype(np.float64)
        d2 = _squared_distances(vectors, vectors)
        got = ward_linkage(d2, weights)
        want = oracle(vectors, weights)
        for (ga, gb, gc), (wa, wb, wc) in zip(got, want):
            pairs_ok = pairs_ok and (ga, gb) == (wa, wb)
            worst = max(worst, abs(gc - wc))
        refine_ok = refine_ok and refines(
            ward_cluster(d2, weights, Topology.grid(1, n)))

    ok = pairs_ok and worst <= 1e-9 and refine_ok
    report(10, ok, f"merge partners and costs match exhaustive search on 20 "
                   f"random sets, max cost gap {worst:.1e} (tol 1e-9); cut "
                   "refinement holds at every k")
    assert ok


def test_criterion_11_pie_geometry_and_count_reconstruction(marriage):
    pies = PieGrid(
        topology=Topology.grid(1, 2), variable="v",
        labels=("a", "b", "c"), counts=np.array([[4, 4, 4], [0, 0, 0]]),
    )
    angles = wedge_angles(render_pies(pies))
    span_gap = max(abs(s - 120.0) for _, s in angles) if len(angles) == 3 else 360.0

    wife = external_from_dataset(marriage, "wife")
    ids = tuple(marriage.individuals)
    asn = MapAssignment(
        labels=ids, units=np.arange(len(ids)) % 4, n_units=4
    )
    grid = cross(asn, wife, Topology.grid(2, 2))
    sums = grid.frequencies.sum(axis=1)
    sums_ok = all(
        abs(s - 1.0) <= 1e-12 if pop else s == 0.0
        for s, pop in zip(sums, grid.populations)
    )
    counts_ok = np.array_equal(grid.global_counts, [16, 15, 13, 50, 144, 32])

    ok = span_gap <= 1e-6 and sums_ok and counts_ok
    report(11, ok, f"three equal shares render as 120-degree wedges (max gap "
                   f"{span_gap:.1e} deg), cell frequencies sum to 1, global "
                   "wife counts reconstructed exactly")
    assert ok


def test_criterion_12_determinism_and_round_trip(marriage):
    cfg = TrainConfig(t_max=600, seed=12)
    a = kdisj(marriage, GRID, cfg)
    b = kdisj(marriage, GRID, cfg)
    json_a = json.dumps(a.to_json(), sort_keys=True).encode()
    json_b = json.dumps(b.to_json(), sort_keys=True).encode()
    svg_a, svg_b = render_map(a).encode(), render_map(b).encode()

    dc = corrected_disjunctive(marriage)
    m, n = marriage.n_modalities, marriage.n_individuals
    clone = SomModel.from_json(a.model.to_json())
    re_ind = assign(clone, dc, mask=DistanceMask(0, m), labels=marriage.individuals)
    re_mod = assign(clone, dc.T, mask=DistanceMask(m, m + n),
                    labels=marriage.global_modality_names, units=re_ind.counts > 0)
    round_trip = (
        np.array_equal(re_ind.units, a.individuals.units)
        and np.array_equal(re_mod.units, a.modalities.units)
    )

    ok = json_a == json_b and svg_a == svg_b and round_trip
    report(12, ok, "identical configs give byte-identical JSON and SVG; "
                   "reloaded model reproduces both assignments exactly")
    assert ok
