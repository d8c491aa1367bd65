"""Topology, schedules, training mechanics and persistence."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from somcat import som
from somcat.analyses import KdisjSampler, kdisj
from somcat.errors import ConfigError, DataError, DimensionError
from somcat.jsonio import dumps
from somcat.som import (
    DistanceMask,
    SomModel,
    Topology,
    TrainConfig,
    UniformRowSampler,
    assign,
    bmu,
    init_model,
    neighbor_distance_stats,
    quantization_error,
    train,
    train_step,
)
from somcat.tables import corrected_disjunctive, disjunctive_index

from conftest import random_dataset


# ------------------------------------------------------------------- topology


def chebyshev_distances(topo: Topology) -> np.ndarray:
    """Oracle: U x U Chebyshev distances between unit grid positions."""
    r, c = np.divmod(np.arange(topo.n_units), topo.cols)
    dr = np.abs(r[:, np.newaxis] - r[np.newaxis, :])
    dc = np.abs(c[:, np.newaxis] - c[np.newaxis, :])
    return np.maximum(dr, dc)


def position(topo: Topology, unit: int) -> tuple[int, int]:
    """(row, col) of a unit; units are numbered row-major."""
    if not 0 <= unit < topo.n_units:
        raise DimensionError(f"unit {unit} out of range")
    return divmod(unit, topo.cols)


def test_grid_positions_row_major():
    topo = Topology.grid(3, 4)
    assert topo.n_units == 12
    assert position(topo, 0) == (0, 0)
    assert position(topo, 5) == (1, 1)
    assert position(topo, 11) == (2, 3)
    assert topo.side == 4


def test_topology_distances_are_chebyshev():
    topo = Topology.grid(3, 3)
    d = chebyshev_distances(topo)
    for a in range(9):
        for b in range(9):
            ra, ca = position(topo, a)
            rb, cb = position(topo, b)
            assert d[a, b] == max(abs(ra - rb), abs(ca - cb))


def test_string_topology_is_one_row():
    topo = Topology.string(5)
    assert (topo.rows, topo.cols) == (1, 5)
    assert topo.side == 5


def test_topology_needs_two_units():
    with pytest.raises(ConfigError):
        Topology.grid(1, 1)
    with pytest.raises(ConfigError):
        Topology.grid(0, 4)


def test_topology_json_round_trip():
    topo = Topology.grid(4, 3)
    assert Topology.from_json(topo.to_json()) == topo
    s = Topology.string(7)
    assert Topology.from_json(s.to_json()) == s


# ------------------------------------------------------------------ schedules

def test_epsilon_schedule_formula():
    cfg = TrainConfig(epsilon0=0.5, c0=1.0, t_max=100, seed=0)
    assert cfg.epsilon(0, 16) == pytest.approx(0.5)
    assert cfg.epsilon(16, 16) == pytest.approx(0.25)
    assert cfg.epsilon(48, 16) == pytest.approx(0.125)
    # strictly decreasing
    eps = [cfg.epsilon(t, 16) for t in range(100)]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_radius_schedule_piecewise():
    cfg = TrainConfig(t_max=1000, seed=0)
    side = 4
    assert cfg.radius(0, side) == 2
    # floor((side/2) / (1 + t*(2*side-4)/t_max)) against a literal evaluation
    for t in (0, 1, 100, 250, 251, 500, 999):
        expect = math.floor((side / 2) / (1 + t * (2 * side - 4) / 1000))
        assert cfg.radius(t, side) == expect
    # zero from one quarter of the budget onward
    assert cfg.radius(251, side) == 0
    assert cfg.radius(999, side) == 0


def test_radius_stays_one_on_two_unit_side():
    cfg = TrainConfig(t_max=50, seed=0)
    assert all(cfg.radius(t, 2) == 1 for t in range(50))


def test_radius_requires_resolved_t_max():
    cfg = TrainConfig(seed=0)
    with pytest.raises(ConfigError):
        cfg.radius(0, 4)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epsilon0=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epsilon0=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(c0=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(c0=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(t_max=0)
    for c0 in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            TrainConfig(c0=c0)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)


def test_config_json_round_trip():
    cfg = TrainConfig(epsilon0=0.7, c0=2.0, t_max=123, seed=9)
    assert TrainConfig.from_json(cfg.to_json()) == cfg


def test_a_stored_config_may_hold_integral_rates_and_a_null_t_max():
    unresolved = TrainConfig.from_json({"epsilon0": 1, "c0": 2, "t_max": None, "seed": 4})
    assert unresolved == TrainConfig(epsilon0=1.0, c0=2.0, t_max=None, seed=4)
    assert type(unresolved.epsilon0) is float and type(unresolved.seed) is int


@pytest.mark.parametrize("key, value", [
    ("epsilon0", "0.5"), ("epsilon0", True), ("epsilon0", None), ("epsilon0", [0.5]),
    ("epsilon0", 1.5), ("c0", "1"), ("c0", -1.0), ("c0", 0), ("t_max", 2.5),
    ("t_max", "100"), ("t_max", True), ("t_max", 0), ("seed", True), ("seed", 1.0),
    ("seed", "3"), ("seed", None), ("seed", -1),
])
def test_a_stored_config_holds_only_values_trainconfig_takes(key, value):
    """A stored config's values are read as every stored number is, and a
    value TrainConfig refuses is bad data too; either error names the key."""
    data = {**TrainConfig(t_max=100, seed=3).to_json(), key: value}
    with pytest.raises(DataError, match=f"not a training config: {key}"):
        TrainConfig.from_json(data)


# ----------------------------------------------------------------------- init

def init_on(topology, config, data):
    """A fresh model drawn over the per-component range of ``data``'s rows,
    as kmca and kmca-ind draw theirs."""
    data = np.asarray(data, dtype=np.float64)
    return init_model(topology, config, data.min(axis=0), data.max(axis=0))


def test_init_uniform_respects_data_ranges():
    topo = Topology.grid(3, 3)
    cfg = TrainConfig(t_max=10, seed=4)
    data = np.array([[0.0, 10.0], [2.0, 20.0], [1.0, 12.0]])
    model = init_on(topo, cfg, data)
    assert model.code_vectors.shape == (9, 2)
    assert np.all(model.code_vectors[:, 0] >= 0.0)
    assert np.all(model.code_vectors[:, 0] <= 2.0)
    assert np.all(model.code_vectors[:, 1] >= 10.0)
    assert np.all(model.code_vectors[:, 1] <= 20.0)


def test_init_same_seed_same_vectors():
    topo = Topology.grid(2, 2)
    data = np.random.default_rng(0).normal(size=(5, 3))
    a = init_on(topo, TrainConfig(t_max=10, seed=7), data)
    b = init_on(topo, TrainConfig(t_max=10, seed=7), data)
    assert np.array_equal(a.code_vectors, b.code_vectors)
    c = init_on(topo, TrainConfig(t_max=10, seed=8), data)
    assert not np.array_equal(a.code_vectors, c.code_vectors)


def test_init_explicit_ranges_override_data():
    """The explicit ranges alone bound the draw: one uniform draw of U x dim
    from the config's seed, whatever data the map is later trained on; bad
    ranges fail before any draw."""
    topo = Topology.grid(2, 2)
    cfg = TrainConfig(t_max=10, seed=2)
    lo, hi = np.array([5.0, 5.0]), np.array([6.0, 6.0])
    model = init_model(topo, cfg, lo, hi)
    assert np.all(model.code_vectors >= 5.0)
    assert np.all(model.code_vectors <= 6.0)
    want = np.random.default_rng(2).uniform(lo, hi, size=(4, 2))
    assert np.array_equal(model.code_vectors, want)
    with pytest.raises(ConfigError):
        init_model(topo, cfg, hi, lo)
    with pytest.raises(DimensionError):
        init_model(topo, cfg, lo, hi[:1])


# ------------------------------------------------------------------ bmu/steps

def test_bmu_matches_brute_force():
    rng = np.random.default_rng(21)
    topo = Topology.grid(3, 4)
    model = init_on(topo, TrainConfig(t_max=10, seed=3), rng.normal(size=(20, 5)))
    for _ in range(50):
        x = rng.normal(size=5)
        dists = [np.sum((c - x) ** 2) for c in model.code_vectors]
        assert bmu(model, x) == int(np.argmin(dists))


def test_bmu_tie_breaks_to_lowest_index():
    topo = Topology.grid(2, 2)
    model = init_on(topo, TrainConfig(t_max=10, seed=0), np.zeros((2, 2)))
    model.code_vectors[:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
    # units 0 and 2 are equidistant from x; the lower index wins
    assert bmu(model, np.array([1.0, 0.0])) == 0


def test_bmu_masked_search():
    topo = Topology.grid(2, 2)
    model = init_on(topo, TrainConfig(t_max=10, seed=0), np.zeros((2, 4)))
    model.code_vectors[:] = 9.0
    model.code_vectors[3, 2:] = 0.0
    mask = DistanceMask(2, 4)
    assert bmu(model, np.zeros(2), mask) == 3
    # the input holds exactly the mask's components
    for bad in (np.zeros(3), np.zeros(4), np.zeros((1, 2))):
        with pytest.raises(DimensionError):
            bmu(model, bad, mask)


def test_train_step_update_arithmetic():
    topo = Topology.grid(1, 3)  # string of 3; side 3
    cfg = TrainConfig(epsilon0=0.5, c0=1.0, t_max=100, seed=0)
    model = init_on(topo, cfg, np.zeros((2, 2)))
    model.code_vectors[:] = [[0.0, 0.0], [4.0, 4.0], [9.0, 9.0]]
    before = model.code_vectors.copy()
    x = np.array([1.0, 1.0])
    t = 0
    winner = train_step(model, x, t)
    assert winner == 0
    rho = cfg.radius(t, topo.side)
    eps = cfg.epsilon(t, topo.n_units)
    assert rho == 1
    # units 0 and 1 move by eps toward x, unit 2 stays
    assert np.allclose(model.code_vectors[0], before[0] + eps * (x - before[0]))
    assert np.allclose(model.code_vectors[1], before[1] + eps * (x - before[1]))
    assert np.array_equal(model.code_vectors[2], before[2])
    assert model.trained_steps == 1


def test_train_step_masked_update_leaves_rest_untouched():
    topo = Topology.grid(2, 2)
    cfg = TrainConfig(t_max=100, seed=0)
    model = init_on(topo, cfg, np.zeros((2, 4)))
    model.code_vectors[:] = np.arange(16.0).reshape(4, 4)
    before = model.code_vectors.copy()
    x = np.array([0.0, 0.0, 3.5, 3.5])
    train_step(model, x, 0, search_mask=DistanceMask(2, 4),
               update_mask=DistanceMask(2, 4))
    assert np.array_equal(model.code_vectors[:, :2], before[:, :2])
    assert not np.array_equal(model.code_vectors[:, 2:], before[:, 2:])


@pytest.mark.parametrize("topo, winners", [
    # corners, edge middles and the centre of a 3 x 5 grid
    (Topology.grid(3, 5), (0, 4, 10, 14, 2, 5, 9, 12, 7)),
    # both ends, a unit next to an end and the centre of a string of 7
    (Topology.string(7), (0, 6, 1, 3)),
], ids=["grid3x5", "string7"])
@pytest.mark.parametrize("update_mask", [None, DistanceMask(2, 5)], ids=["full", "2:5"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_train_step_moves_exactly_the_chebyshev_ball(monkeypatch, topo, winners,
                                                     update_mask, order):
    rng = np.random.default_rng(17)
    dim, t = 6, 3
    model = init_on(topo, TrainConfig(t_max=10, seed=2), rng.normal(size=(5, dim)))
    model.code_vectors = np.asarray(model.code_vectors, order=order)
    eps = model.config.epsilon(t, topo.n_units)
    lo, hi = (0, dim) if update_mask is None else (update_mask.lo, update_mask.hi)
    for winner in winners:
        only = np.arange(topo.n_units) == winner
        for rho in range(topo.side + 1):
            monkeypatch.setattr(TrainConfig, "radius", lambda self, t, side: rho)
            x = rng.normal(size=dim)
            before = model.code_vectors.copy()
            won = train_step(model, x, t, update_mask=update_mask, units=only)
            assert won == winner
            hood = chebyshev_distances(topo)[winner] <= rho
            block = before[hood, lo:hi]
            expected = before.copy()
            expected[hood, lo:hi] = block + eps * (x[lo:hi] - block)
            assert model.code_vectors.tobytes() == expected.tobytes()
            assert np.array_equal((model.code_vectors != before).any(axis=1), hood)


def test_checks_hold_without_masks():
    rows = np.random.default_rng(5).normal(size=(6, 3))
    rows[:, 1] = np.nan
    model = init_model(Topology.grid(2, 2), TrainConfig(t_max=20, seed=0),
                       np.zeros(3), np.ones(3))
    with pytest.raises(DimensionError):
        train(model, UniformRowSampler(rows))
    model = init_model(Topology.grid(2, 2), TrainConfig(t_max=20, seed=0),
                       np.zeros(3), np.ones(3))
    for bad in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
        with pytest.raises(DimensionError):
            train_step(model, bad, 0, search_mask=None)
        with pytest.raises(DimensionError):
            bmu(model, bad, mask=None)
    assert model.trained_steps == 0


def test_train_step_rejects_out_of_schedule_time():
    topo = Topology.grid(2, 2)
    model = init_on(topo, TrainConfig(t_max=5, seed=0), np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        train_step(model, np.zeros(2), 5)
    with pytest.raises(ConfigError):
        train_step(model, np.zeros(2), -1)


def test_quantization_error_is_mean_squared_distance():
    topo = Topology.grid(2, 2)
    model = init_on(topo, TrainConfig(t_max=5, seed=0), np.zeros((2, 2)))
    model.code_vectors[:] = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
    rows = np.array([[1.0, 0.0], [10.0, 2.0]])
    # squared distances to the nearest unit: 1 and 4
    assert quantization_error(model, rows) == pytest.approx(2.5)


# ---------------------------------------------------------------------- train

def test_train_runs_schedule_and_logs_qe():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(30, 3))
    topo = Topology.grid(3, 3)
    model = init_on(topo, TrainConfig(t_max=40, seed=5), rows)
    model, qe_log = train(model, UniformRowSampler(rows))
    assert model.trained_steps == 40
    steps = [s for s, _ in qe_log]
    assert steps[0] == 0 and steps[-1] == 40
    assert all(b > a for a, b in zip(steps, steps[1:]))


def test_train_calls_observer_every_step():
    rows = np.random.default_rng(3).normal(size=(10, 2))
    model = init_on(Topology.grid(2, 2), TrainConfig(t_max=25, seed=0), rows)
    seen = []
    train(model, UniformRowSampler(rows), observer=lambda t, *rest: seen.append(t))
    assert seen == list(range(25))


def test_train_rejects_reuse():
    rows = np.random.default_rng(4).normal(size=(10, 2))
    model = init_on(Topology.grid(2, 2), TrainConfig(t_max=5, seed=0), rows)
    train(model, UniformRowSampler(rows))
    with pytest.raises(ConfigError):
        train(model, UniformRowSampler(rows))


def test_same_seed_reproduces_training_exactly():
    rows = np.random.default_rng(6).normal(size=(40, 4))
    out = []
    for _ in range(2):
        model = init_on(Topology.grid(3, 3), TrainConfig(t_max=200, seed=11), rows)
        model, _ = train(model, UniformRowSampler(rows))
        out.append(model.code_vectors.copy())
    assert np.array_equal(out[0], out[1])


# --------------------------------------------------------------------- assign

def test_assign_matches_per_row_bmu(marriage):
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(50, 3))
    model = init_on(Topology.grid(3, 3), TrainConfig(t_max=10, seed=0), rows)
    # kdisj's placement: its modality columns on the individual-space block
    # (a strided view of the code vectors), among the units holding someone
    res = kdisj(marriage, Topology.grid(4, 4), TrainConfig(t_max=2000, seed=3))
    held = res.individuals.counts > 0
    assert 0 < held.sum() < 16
    cases = [(model, rows, None, None),
             (res.model, KdisjSampler(marriage).columns, DistanceMask(12, 282), held)]
    for model, rows, mask, units in cases:
        a = assign(model, rows, mask, units=units)
        for i, row in enumerate(rows):
            assert a.units[i] == bmu(model, row, mask, units)
        assert a.counts.sum() == len(rows)
        assert len(a.labels) == len(rows)


def test_assign_respects_mask_and_labels():
    rows = np.array([[0.0, 5.0], [0.0, -5.0]])
    model = init_on(Topology.grid(2, 2), TrainConfig(t_max=10, seed=0), rows)
    model.code_vectors[:] = [[9.0, 4.9], [9.0, -4.9], [9.0, 0.0], [9.0, 1.0]]
    a = assign(model, rows[:, 1:], mask=DistanceMask(1, 2), labels=["up", "down"])
    with pytest.raises(DimensionError):
        assign(model, rows, mask=DistanceMask(1, 2))
    assert a.unit_of("up") == 0
    assert a.unit_of("down") == 1
    assert a.members_by_unit()[0] == ["up"]
    with pytest.raises(DimensionError):
        a.unit_of("sideways")


SHAPES = [(61, 16, 60), (9, 16, 2048)]
BLOCKS = [1, 4000, 3 * 2 * 2048, 1 << 16, 1 << 40]


@pytest.mark.parametrize("n, units, width", SHAPES)
@pytest.mark.parametrize("block", BLOCKS)
def test_distance_blocks_give_the_bits_of_one_block(
    n, units, width, block, monkeypatch
):
    rng = np.random.default_rng(21)
    rows = rng.random((n, width))
    code = rng.random((units, width + 3))[:, 3:]  # a strided mask view
    diff = rows[:, np.newaxis, :] - code[np.newaxis, :, :]
    whole = np.einsum("nuw,nuw->nu", diff, diff)
    monkeypatch.setattr(som, "DISTANCE_BLOCK", block)
    assert np.array_equal(som._squared_distances(rows, code), whole)


def k_hot_rows(rng, n, sizes):
    """Corrected disjunctive rows: one 1 per question, each column scaled by
    1/sqrt(K * b_j) as tables.corrected_disjunctive does."""
    offsets = np.cumsum((0,) + sizes[:-1])
    ones = np.zeros((n, sum(sizes)))
    for off, size in zip(offsets, sizes):
        ones[np.arange(n), off + rng.integers(0, size, n)] = 1.0
    counts = np.maximum(ones.sum(axis=0), 1.0)
    return ones / np.sqrt(len(sizes) * counts)


def expanded_distance_blocks(rows, code):
    """Oracle of OneHotRows.distance_blocks: the squared distance from every
    dense row to every code vector as ||x||^2 - 2<x, w> + ||w||^2, yielded
    as (row span, block of rows x U) for som.DISTANCE_BLOCK // U rows at a
    time.  ||x||^2 and the cross term add one component of every row at a
    time in column order (a zero adds an exact zero), ||w||^2 is one einsum
    per unit, and nothing calls BLAS, so a row's distances have the same
    bits whatever rows or units share the call, whatever the block, and
    whether the rows are a view or a copy."""
    w2 = np.einsum("uw,uw->u", code, code)
    step = max(1, som.DISTANCE_BLOCK // len(w2))
    for span in (slice(i, i + step) for i in range(0, rows.shape[0], step)):
        block = np.zeros((len(rows[span]), len(w2)))
        x2 = np.zeros(len(block))
        for c in range(rows.shape[1]):
            x = rows[span, c]
            x2 += x * x
            block += code[:, c] * x[:, np.newaxis]
        block *= -2.0
        block += x2[:, np.newaxis]
        block += w2
        yield span, block


def matrix_of(blocks, n, n_units):
    """The n x U matrix of a kernel's (row span, block) pairs."""
    out = np.empty((n, n_units))
    for span, block in blocks:
        out[span] = block
    return out


def expanded_distances(rows, code):
    return matrix_of(expanded_distance_blocks(rows, code), rows.shape[0], code.shape[0])


def one_hot_distances(index, code):
    return matrix_of(index.distance_blocks(code), len(index), code.shape[0])


def row_distance_cases():
    rng = np.random.default_rng(23)
    k_hot = k_hot_rows(rng, 300, (6,) * 10)
    return {
        "dense": (rng.normal(size=(50, 7)), rng.normal(size=(9, 7))),
        "k-hot": (k_hot, rng.random((16, 60)) * k_hot.max(axis=0)),
        "wide": (rng.random((12, 4000)), rng.random((8, 4000))),
        "zero": (np.zeros((5, 30)), rng.normal(size=(6, 30))),
    }


@pytest.mark.parametrize("case", ["dense", "k-hot", "wide", "zero"])
def test_row_distances_agree_with_the_difference_form(case):
    rows, code = row_distance_cases()[case]
    got = expanded_distances(rows, code)
    want = som._squared_distances(rows, code)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, units, width", SHAPES)
@pytest.mark.parametrize("block", BLOCKS)
def test_row_distances_ignore_blocks_and_call_partners(
    n, units, width, block, monkeypatch
):
    rng = np.random.default_rng(24)
    rows = rng.random((n, width))
    rows[rows < 0.7] = 0.0  # rows with different nonzero counts
    rows[::4] = 0.0  # and all-zero rows between them
    code = rng.random((units, width + 3))[:, 3:]  # a strided mask view
    whole = expanded_distances(rows, code)
    monkeypatch.setattr(som, "DISTANCE_BLOCK", block)
    assert np.array_equal(expanded_distances(rows, code), whole)
    for pick in (slice(None, None, -1), slice(1, None, 3), slice(n // 2, n // 2 + 1)):
        assert np.array_equal(expanded_distances(rows[pick], code), whole[pick])
    for pick in (slice(None, None, 2), slice(units - 1, None), slice(3, 7)):
        assert np.array_equal(expanded_distances(rows, code[pick]), whole[:, pick])


def test_row_distances_of_a_strided_view_equal_those_of_its_copy():
    rng = np.random.default_rng(25)
    dc = k_hot_rows(rng, 400, (5, 4, 3))
    code = rng.random((16, 400 + 12))
    view, copy = dc.T, np.ascontiguousarray(dc.T)  # kdisj's modality rows
    got = expanded_distances(view, code[:, 12:])
    assert np.array_equal(got, expanded_distances(copy, code[:, 12:]))
    assert np.array_equal(got, expanded_distances(copy, code[:, 12:].copy()))


@pytest.mark.parametrize("block", BLOCKS)
def test_one_hot_distances_equal_the_dense_kernel(block, monkeypatch):
    rng = np.random.default_rng(27)
    ds = random_dataset(rng, n=1200, sizes=(6,) * 10)
    index, rows = disjunctive_index(ds), corrected_disjunctive(ds)
    m = rows.shape[1]
    # kdisj's search mask: the first M components of wider code vectors
    code = (rng.random((64, m + 40)) * rows.max())[:, :m]
    want = expanded_distances(rows, code)
    monkeypatch.setattr(som, "DISTANCE_BLOCK", block)
    assert np.array_equal(one_hot_distances(index, code), want)
    assert np.array_equal(one_hot_distances(index, code.copy()), want)
    for pick in (slice(None, None, -1), slice(1, None, 3), slice(600, 601)):
        part = som.OneHotRows(index.cols[:, pick], index.scale)
        assert np.array_equal(one_hot_distances(part, code), want[pick])
        assert np.array_equal(one_hot_distances(part, code[5:9]), want[pick, 5:9])


def test_quantization_error_reads_one_hot_rows_as_their_dense_form():
    rng = np.random.default_rng(29)
    ds = random_dataset(rng, n=300, sizes=(5, 4, 3))
    index, rows = disjunctive_index(ds), corrected_disjunctive(ds)
    model = init_on(Topology.grid(4, 4), TrainConfig(t_max=10, seed=0),
                    np.hstack([rows, rng.random((300, 30))]))
    mask = DistanceMask(0, 12)
    got = np.empty(300, dtype=np.int64)
    d2 = expanded_distances(rows, model.code_vectors[:, :12])
    assert quantization_error(model, index, mask, got) == float(
        np.mean(np.maximum(d2.min(axis=1), 0.0)))
    assert np.array_equal(got, d2.argmin(axis=1))
    with pytest.raises(DimensionError):
        quantization_error(model, index, DistanceMask(0, 13))
    sampler = UniformRowSampler(index)
    assert sampler.qe_rows is index and np.array_equal(sampler.rows, rows)


@pytest.mark.parametrize("form", ["dense", "index"])
def test_a_checkpoint_never_holds_rows_times_units(form):
    """A checkpoint of 10^4 rows on 400 units keeps each row's minimum
    only, not the N x U distances (32 MB), and gives the whole matrix's
    quantization error and units."""
    rng = np.random.default_rng(31)
    cols = rng.integers(0, 5, size=(3, 10_000)) + 5 * np.arange(3)[:, None]
    index = som.OneHotRows(cols, rng.uniform(0.2, 1.0, size=15))
    rows = index if form == "index" else index.dense()
    model = init_on(Topology.grid(20, 20), TrainConfig(t_max=10, seed=0), index.dense())
    bmus = np.empty(10_000, dtype=np.int64)
    tracemalloc.start()
    try:
        qe = quantization_error(model, rows, None, bmus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000 * 400 * 8
    kernel = expanded_distances if form == "index" else som._squared_distances
    d2 = kernel(index.dense(), model.code_vectors)
    assert qe == float(np.mean(np.maximum(d2.min(axis=1), 0.0)))
    assert np.array_equal(bmus, d2.argmin(axis=1))


def test_one_hot_distances_do_not_depend_on_blas_threads():
    script = (
        "import hashlib, numpy as np\n"
        "from somcat import som\n"
        "rng = np.random.default_rng(30)\n"
        "cols = rng.integers(0, 6, size=(10, 20000)) + 6 * np.arange(10)[:, None]\n"
        "scale = 1 / np.sqrt(10.0 * np.bincount(cols.ravel(), minlength=60))\n"
        "rows = som.OneHotRows(cols, scale)\n"
        "model = som.init_model(som.Topology.grid(8, 8), som.TrainConfig(),\n"
        "                       np.zeros(60), scale)\n"
        "bmus = np.empty(20000, dtype=np.int64)\n"
        "qe = som.quantization_error(model, rows, None, bmus)\n"
        "d2 = np.empty((20000, 64))\n"
        "for span, block in rows.distance_blocks(model.code_vectors):\n"
        "    d2[span] = block\n"
        "print(repr(qe), hashlib.sha256(d2.tobytes() + bmus.tobytes()).hexdigest())\n"
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


def test_distance_blocks_hold_no_lone_item():
    for size, step in ((1, 2), (2, 2), (5, 2), (16, 3), (61, 4)):
        spans = [range(size)[s] for s in som._blocks(size, step)]
        assert all(min(2, size) <= len(r) <= step for r in spans)
        assert sorted(set().union(*spans)) == list(range(size))


def test_gram_table_search_picks_the_winner_of_the_difference_form():
    """A search through a GramTable on K-hot corrected columns picks the
    difference form's winner, with and without a limit on the units, while
    clipped grid squares move toward the drawn columns between searches."""
    rng = np.random.default_rng(26)
    columns = k_hot_rows(rng, 1200, (6,) * 10).T  # 60 modality columns
    model = init_on(Topology.grid(8, 8), TrainConfig(t_max=10, seed=0), columns[:2])
    # Units near mixtures of a few columns, as training leaves them.
    mix = rng.random((64, 60)) ** 8
    model.code_vectors[:] = mix / mix.sum(axis=1, keepdims=True) @ columns
    model.code_vectors += rng.normal(scale=1e-3, size=model.code_vectors.shape)
    mask = DistanceMask(0, 1200)
    gram = np.einsum("jn,ln->jl", columns, columns)
    rows = som.OneHotRows(np.nonzero(columns.T)[1].reshape(1200, 10).T, columns.max(axis=1))
    table = model._table = som.GramTable(model, mask, columns, rows, gram)  # as train() does
    grid = model.code_vectors.reshape(8, 8, 1200)
    for draw in range(1200):
        table.column = int(rng.integers(0, 60))
        x = columns[table.column]
        units = None if draw % 2 else rng.random(64) < 0.3
        d2 = np.einsum("uw,uw->u", model.code_vectors - x, model.code_vectors - x)
        want = np.argmin(d2 if units is None else np.where(units, d2, np.inf))
        assert bmu(model, x, mask, units=units) == want
        r, c, rho = *rng.integers(0, 8, size=2), int(rng.integers(0, 3))
        rows = slice(max(r - rho, 0), r + rho + 1)
        cols = slice(max(c - rho, 0), c + rho + 1)
        eps = float(rng.uniform(0.0, 0.1))
        grid[rows, cols] += eps * (x - grid[rows, cols])
        table.move(rows, cols, eps)


def test_wide_assign_keeps_its_temporaries_small():
    rng = np.random.default_rng(22)
    rows = rng.random((40, 4000))  # a whole-input temporary: 82 MB
    model = init_on(Topology.grid(8, 8), TrainConfig(t_max=10, seed=0), rows[:2])
    tracemalloc.start()
    try:
        a = assign(model, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.array_equal(a.units, [bmu(model, row) for row in rows])


def test_bmu_and_assign_search_only_marked_units():
    rows = np.array([[0.0], [2.0]])
    model = init_on(Topology.grid(1, 3), TrainConfig(t_max=10, seed=0), rows)
    model.code_vectors[:, 0] = [0.0, 1.0, 3.0]
    units = np.array([False, True, True])
    # row 0 loses its exact match at unit 0; row 1 ties units 1 and 2
    assert assign(model, rows, units=units).units.tolist() == [1, 1]
    assert [bmu(model, r, units=units) for r in rows] == [1, 1]
    assert bmu(model, rows[0], units=np.array([False, False, True])) == 2
    for bad in (units[:2], np.zeros(3, dtype=bool)):
        with pytest.raises(DimensionError):
            bmu(model, rows[0], units=bad)
        with pytest.raises(DimensionError):
            assign(model, rows, units=bad)


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])


@NON_FINITE
def test_bmu_rejects_a_non_finite_input_before_its_units(bad):
    """A non-finite component fails the search, masked or not, whatever
    ``units`` marks: an input that is not finite is reported before a
    ``units`` that marks nothing.  A step with such an input moves nothing."""
    model = init_model(Topology.grid(2, 3), TrainConfig(t_max=20, seed=0),
                       np.zeros(4), np.ones(4))
    before = model.code_vectors.copy()
    some, none = np.array([False, True, False, True, False, False]), np.zeros(6, bool)
    mask = DistanceMask(1, 4)
    for k in range(4):
        x = np.full(4, 0.5)
        x[k] = bad
        cases = [(x, None)] + ([(x[mask.lo:mask.hi], mask)] if k >= mask.lo else [])
        for xm, m in cases:
            for units in (None, some, none):
                with pytest.raises(DimensionError, match="non-finite"):
                    bmu(model, xm, m, units)
                with pytest.raises(DimensionError, match="non-finite"):
                    train_step(model, x, 15, m, None, units)
    assert np.array_equal(model.code_vectors, before) and model.trained_steps == 0
    with pytest.raises(DimensionError, match="mark at least one"):
        bmu(model, np.full(3, 0.5), mask, none)


@NON_FINITE
def test_bmu_rejects_a_non_finite_input_through_a_gram_table(bad):
    """A GramTable's search never reads ``x``, yet a non-finite ``x`` fails
    it as it fails the difference form, before a ``units`` that marks
    nothing."""
    rng = np.random.default_rng(27)
    columns = k_hot_rows(rng, 40, (4,) * 3).T  # 12 modality columns
    model = init_on(Topology.grid(2, 3), TrainConfig(t_max=10, seed=0), columns[:2])
    mask = DistanceMask(0, 40)
    gram = np.einsum("jn,ln->jl", columns, columns)
    rows = som.OneHotRows(np.nonzero(columns.T)[1].reshape(40, 3).T, columns.max(axis=1))
    table = model._table = som.GramTable(model, mask, columns, rows, gram)
    table.column = 5
    some, none = np.array([False, True, False, True, False, False]), np.zeros(6, bool)
    x = columns[table.column].copy()
    assert bmu(model, x, mask, some) in (1, 3)
    for k in (0, 17, 39):
        x = columns[table.column].copy()
        x[k] = bad
        for units in (None, some, none):
            with pytest.raises(DimensionError, match="non-finite"):
                bmu(model, x, mask, units)


def test_bmu_searches_a_finite_input_whose_distances_overflow():
    """Squared distances past the float range are inf, not a bad input: the
    search runs, and the first least distance wins as it always has."""
    model = init_model(Topology.grid(2, 3), TrainConfig(t_max=20, seed=0),
                       np.zeros(3), np.ones(3))
    x = np.array([0.5, 1e200, 0.5])
    mask = DistanceMask(1, 3)
    marked = np.array([True, False, False, True, True, False])
    # every distance is inf: the first unit the search may take
    assert bmu(model, x) == 0
    assert bmu(model, x[1:], mask) == 0
    assert bmu(model, x, units=marked) == 0
    model.code_vectors[4, 1] = 1e200  # unit 4 alone lies at a finite distance
    assert bmu(model, x) == 4
    assert bmu(model, x[1:], mask, marked) == 4
    assert train_step(model, x, 15, units=marked) == 4


def test_an_input_whose_marked_distances_overflow_goes_to_the_first_marked_unit():
    """When every marked unit lies at an infinite distance, the tie goes to
    the lowest marked unit, in bmu, train_step and assign alike.  A
    ``units`` that marks nothing still fails, after a non-finite input."""
    model = init_model(Topology.grid(2, 3), TrainConfig(t_max=20, seed=0),
                       np.zeros(3), np.ones(3))
    x = np.array([0.5, 1e200, 0.5])
    rows = np.array([x, [0.5, 0.5, 0.5], x])
    mask = DistanceMask(1, 3)
    marked, none = np.array([False, True, True, False, False, False]), np.zeros(6, bool)
    assert bmu(model, x, units=marked) == 1
    assert bmu(model, x[1:], mask, marked) == 1
    near = bmu(model, rows[1], units=marked)
    assert near in (1, 2)
    assert assign(model, rows, units=marked).units.tolist() == [1, near, 1]
    assert assign(model, rows[:, 1:], mask, units=marked).units.tolist()[::2] == [1, 1]
    for units in (none, none.tolist()):
        with pytest.raises(DimensionError, match="mark at least one"):
            bmu(model, x, units=units)
        with pytest.raises(DimensionError, match="mark at least one"):
            assign(model, rows, units=units)
    with pytest.raises(DimensionError, match="non-finite"):
        bmu(model, np.array([0.5, math.inf, 0.5]), units=none)
    assert train_step(model, x, 15, units=marked) == 1


def marked_oracle(d2: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The least of each row of ``d2`` (rows x U, to every unit) among the
    marked units, as argmin takes it (a NaN wins); a row whose every
    marked distance is inf goes to the lowest marked unit."""
    best = np.where(units, d2, np.inf).argmin(axis=1)
    return np.where(units[best], best, units.argmax())


MARKS = {"one": [5], "two": [2, 6], "several": [1, 3, 6, 8, 11], "all": range(12)}


@pytest.mark.parametrize("marks", MARKS.values(), ids=MARKS.keys())
@pytest.mark.parametrize("code_vectors", ["tied", "overflowing", "nan"])
def test_a_marked_search_matches_the_full_search_masked(marks, code_vectors):
    """bmu (dense, and through a GramTable) and assign, which measure only
    the marked units, pick what the full difference form picks among them:
    on duplicated code vectors (ties), code vectors and rows whose marked
    distances overflow, and NaN code vectors."""
    rng = np.random.default_rng(31)
    columns = k_hot_rows(rng, 30, (4,) * 3).T  # 12 modality columns, 30 wide
    model = init_on(Topology.grid(3, 4), TrainConfig(t_max=10, seed=0), columns)
    code = model.code_vectors
    rows = columns
    if code_vectors == "tied":  # units u, u + 4 and u + 8 share a code vector
        code[:] = code[np.arange(12) % 4]
    elif code_vectors == "overflowing":  # every marked distance of "two" is inf
        code[[1, 2, 6], 0] = 1e200
        rows = np.vstack([columns, np.full((2, 30), 1e200)])  # every distance is inf
    else:
        code[[0, 6]] = np.nan
    units = np.zeros(12, dtype=bool)
    units[list(marks)] = True
    d2 = np.array([np.einsum("uw,uw->u", code - x, code - x) for x in rows])
    want = marked_oracle(d2, units)
    assert [bmu(model, x, units=units) for x in rows] == want.tolist()
    assert assign(model, rows, units=units).units.tolist() == want.tolist()
    mask, gram = DistanceMask(0, 30), np.einsum("jn,ln->jl", columns, columns)
    one_hot = som.OneHotRows(np.nonzero(columns.T)[1].reshape(30, 3).T, columns.max(axis=1))
    table = model._table = som.GramTable(model, mask, columns, one_hot, gram)
    for j, x in enumerate(columns):
        table.column = j
        assert bmu(model, x, mask, units) == want[j]


def test_train_step_limits_only_the_search():
    model = init_on(Topology.grid(1, 3), TrainConfig(t_max=10, seed=0),
                    np.zeros((2, 1)))
    model.code_vectors[:, 0] = [0.0, 1.0, 3.0]
    # t = 9: radius 0, so only the winner moves; unit 0 is nearest but barred
    won = train_step(model, np.array([0.0]), 9, units=np.array([False, True, True]))
    assert won == 1
    assert model.code_vectors[0, 0] == 0.0 and model.code_vectors[1, 0] < 1.0


def test_train_locates_qe_rows_at_every_checkpoint():
    rows = np.random.default_rng(8).normal(size=(20, 2))
    model = init_on(Topology.grid(2, 3), TrainConfig(t_max=30, seed=1), rows)

    class Recorder(UniformRowSampler):
        def __init__(self, rows):
            super().__init__(rows)
            self.located = []

        def locate(self, bmus, n_units):
            self.located.append((bmus.copy(), n_units))

    sampler = Recorder(rows)
    model, qe_log = train(model, sampler)
    assert [s for s, _ in qe_log] == list(range(0, 31, 3))
    assert len(sampler.located) == 11
    last, n_units = sampler.located[-1]
    assert n_units == 6
    assert np.array_equal(last, assign(model, rows).units)


def test_neighbor_distance_stats_small_case():
    model = init_on(Topology.grid(1, 3), TrainConfig(t_max=5, seed=0), np.zeros((2, 1)))
    model.code_vectors[:, 0] = [0.0, 1.0, 10.0]
    stats = neighbor_distance_stats(model)
    # adjacent pairs (0,1), (1,2): mean of 1 and 9; non-adjacent (0,2): 10
    assert stats.mean_adjacent == pytest.approx(5.0)
    assert stats.mean_non_adjacent == pytest.approx(10.0)


# ---------------------------------------------------------------- persistence

def test_model_json_round_trip_bytes_and_assignments():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(30, 3))
    model = init_on(Topology.grid(3, 3), TrainConfig(t_max=60, seed=2), rows)
    model, _ = train(model, UniformRowSampler(rows))
    blob = dumps(model.to_json())
    clone = SomModel.from_json(model.to_json())
    assert dumps(clone.to_json()) == blob
    before = assign(model, rows).units
    after = assign(clone, rows).units
    assert np.array_equal(before, after)


@pytest.mark.parametrize("entry", [[0.0, 1.0], [0.0, 1.0, 2.0, "0.5"]],
                         ids=["ragged-row", "numeric-string"])
def test_a_model_whose_code_vectors_are_not_rows_of_numbers_is_a_data_error(entry):
    """A short row or a numeric string among the code vectors is no map, though
    numpy reads the string as a number."""
    model = init_model(Topology.grid(2, 2), TrainConfig(t_max=10), [0.0] * 4, [1.0] * 4)
    data = model.to_json()
    data["code_vectors"][1] = entry
    with pytest.raises(DataError, match="not a map model: its code_vectors"):
        SomModel.from_json(data)
