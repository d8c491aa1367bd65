"""The three training pipelines and the attraction diagnostic."""

import numpy as np
import pytest

import somcat
from somcat import som
from somcat.analyses import (
    AnalysisResult,
    KdisjSampler,
    default_iterations,
    deviations,
    kdisj,
    kdisj_associate,
    kmca,
    kmca_ind,
    modality_mean_vectors,
    run_analysis,
)
from somcat.dataset import CategoricalDataset, VariableSpec, to_disjunctive
from somcat.errors import ConfigError, DataError, ZeroModalityError
from somcat.jsonio import dumps
from somcat.som import (
    DistanceMask,
    MapAssignment,
    Topology,
    TrainConfig,
    assign,
    init_model,
)
from somcat.tables import corrected_disjunctive

from conftest import random_dataset

TOPO = Topology.grid(4, 4)


def small_cfg(seed=0, t_max=300):
    return TrainConfig(seed=seed, t_max=t_max)


# ------------------------------------------------------------------ schedules

def test_default_iteration_budgets_for_marriage():
    assert default_iterations("kmca", 270, 12, 2) == 500
    assert default_iterations("kmca-ind", 270, 12, 2) == 10800
    assert default_iterations("kdisj", 270, 12, 2) == 5640
    assert default_iterations("kdisj", 90_000, 12, 2) == 100_000
    with pytest.raises(ConfigError):
        default_iterations("bogus", 1, 1, 1)


# ----------------------------------------------------------------- mean vectors

def test_mean_vectors_match_direct_averaging(marriage_disj):
    means = modality_mean_vectors(marriage_disj)
    dc = corrected_disjunctive(marriage_disj).entries
    d = marriage_disj.entries
    for j in range(marriage_disj.n_modalities):
        adopters = np.flatnonzero(d[:, j])
        direct = dc[adopters].mean(axis=0)
        assert np.max(np.abs(means[j] - direct)) <= 1e-12


def test_mean_vectors_match_direct_averaging_random():
    rng = np.random.default_rng(42)
    for _ in range(10):
        ds = random_dataset(rng, n=30, sizes=(3, 2, 4))
        disj = to_disjunctive(ds)
        means = modality_mean_vectors(disj)
        dc = corrected_disjunctive(disj).entries
        for j in range(disj.n_modalities):
            adopters = np.flatnonzero(disj.entries[:, j])
            direct = dc[adopters].mean(axis=0)
            assert np.max(np.abs(means[j] - direct)) <= 1e-12


def test_mean_vectors_reject_a_modality_without_adopters():
    ds = CategoricalDataset(
        individuals=["a", "b"],
        variables=[VariableSpec(name="v", modalities=("x", "y", "z"))],
        cells=np.array([[0], [1]]),
    )
    with pytest.raises(ZeroModalityError, match="'v.z'"):
        modality_mean_vectors(to_disjunctive(ds))


# ---------------------------------------------------------------- j(i) choice

def test_kdisj_associate_matches_brute_force(marriage_disj):
    dc = corrected_disjunctive(marriage_disj).entries
    for i in range(270):
        j = kdisj_associate(dc[i])
        best = np.flatnonzero(dc[i] == dc[i].max())
        assert j == best[0]  # deterministic without an rng


def test_kdisj_associate_picks_rarest_modality(marriage_disj):
    dc = corrected_disjunctive(marriage_disj).entries
    d = marriage_disj.entries
    counts = marriage_disj.counts
    for i in range(0, 270, 7):
        chosen = set(np.flatnonzero(d[i]))
        rare = min(chosen, key=lambda j: counts[j])
        if len({counts[j] for j in chosen}) == len(chosen):  # no tie
            assert kdisj_associate(dc[i]) == rare


def test_kdisj_associate_tie_frequencies(marriage_disj):
    # the farm couples adopt two modalities of identical count 16
    dc = corrected_disjunctive(marriage_disj).entries
    i = marriage_disj.individuals.index("MFARM:FFARM:1")
    ties = np.flatnonzero(dc[i] == dc[i].max())
    assert len(ties) == 2
    rng = np.random.default_rng(123)
    draws = np.array([kdisj_associate(dc[i], rng) for _ in range(10_000)])
    for j in ties:
        assert abs(np.mean(draws == j) - 0.5) <= 0.03


# -------------------------------------------------------------------- sampler

def test_kdisj_sampler_alternates_phases(marriage_disj):
    dc = corrected_disjunctive(marriage_disj).entries
    n, m = dc.shape
    sampler = KdisjSampler(dc)
    rng = np.random.default_rng(0)

    x, smask, umask = sampler.draw(0, rng)  # even: individual step
    assert smask == DistanceMask(0, m)
    assert umask == DistanceMask(0, m + n)
    # first half is some corrected row, second half some corrected column
    assert any(np.array_equal(x[:m], dc[i]) for i in range(n))
    assert any(np.array_equal(x[m:], dc[:, j]) for j in range(m))

    y, smask2, umask2 = sampler.draw(1, rng)  # odd: modality step
    assert smask2 == DistanceMask(m, m + n)
    assert umask2 == DistanceMask(m, m + n)
    assert any(np.array_equal(y[m:], dc[:, j]) for j in range(m))


def test_kdisj_sampler_even_pairs_row_with_its_rarest_column(marriage_disj):
    dc = corrected_disjunctive(marriage_disj).entries
    n, m = dc.shape
    sampler = KdisjSampler(dc)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, _, _ = sampler.draw(0, rng)
        i = next(k for k in range(n) if np.array_equal(x[:m], dc[k]))
        ties = np.flatnonzero(dc[i] == dc[i].max())
        assert any(np.array_equal(x[m:], dc[:, j]) for j in ties)


# ------------------------------------------------------------------ pipelines

def test_kmca_maps_modalities_only(marriage):
    res = kmca(marriage, TOPO, small_cfg())
    assert res.algorithm == "kmca"
    assert res.individuals is None
    assert len(res.modalities.labels) == 12
    assert res.model.dim == 12
    assert res.model.trained_steps == 300
    assert res.provenance["dataset_sha256"] == marriage.sha256()


def test_kmca_colocates_identical_burt_rows(marriage):
    # MFARM and FFARM have identical corrected rows, so always the same unit
    for seed in range(3):
        res = kmca(marriage, TOPO, small_cfg(seed=seed))
        assert res.modalities.unit_of("husband.MFARM") == res.modalities.unit_of(
            "wife.FFARM"
        )


def test_kmca_ind_assigns_both_families(marriage):
    res = kmca_ind(marriage, TOPO, small_cfg())
    assert res.individuals is not None
    assert len(res.individuals.labels) == 270
    assert res.model.dim == 12
    # modalities are placed by their mean vectors, not trained directly
    disj = to_disjunctive(marriage)
    means = modality_mean_vectors(disj)
    expect = assign(res.model, means, labels=disj.names)
    assert np.array_equal(res.modalities.units, expect.units)


def test_kdisj_dimensions_and_masks(marriage):
    res = kdisj(marriage, TOPO, small_cfg())
    assert res.model.dim == 12 + 270
    assert len(res.modalities.labels) == 12
    assert len(res.individuals.labels) == 270
    # identical columns always land together
    assert res.modalities.unit_of("husband.MFARM") == res.modalities.unit_of(
        "wife.FFARM"
    )


def test_kdisj_modality_steps_never_touch_first_block(marriage):
    """Instrumented full run: the individual half of every code vector is
    bit-identical across each modality-only step."""
    state = {}
    bad = []

    def observer(t, x, smask, umask, model):
        if t % 2 == 0:
            state["before"] = model.code_vectors[:, :12].copy()
        else:
            if not np.array_equal(state["before"], model.code_vectors[:, :12]):
                bad.append(t)

    kdisj(marriage, TOPO, small_cfg(t_max=400), observer=observer)
    assert bad == []


def test_kdisj_sampler_modality_steps_search_units_holding_adopters():
    """Odd steps may win only the units that hold an adopter of the drawn
    modality, as last located; even steps and steps before any location
    search every unit."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        ds = random_dataset(rng, n=12, sizes=(2, 3))
        dc = corrected_disjunctive(to_disjunctive(ds)).entries
        n, m = dc.shape
        sampler = KdisjSampler(dc)
        sampler.draw(1, rng)
        assert sampler.candidates(1) is None
        bmus = rng.integers(0, 4, size=n)  # units 4 and 5 hold nobody
        sampler.locate(bmus, 6)
        for t in range(40):
            x, _, _ = sampler.draw(t, rng)
            got = sampler.candidates(t)
            if t % 2 == 0:
                assert got is None
                continue
            j = next(k for k in range(m) if np.array_equal(x[m:], dc[:, k]))
            held = {int(bmus[i]) for i in np.flatnonzero(dc[:, j])}
            assert got.tolist() == [u in held for u in range(6)]


def test_kdisj_modality_steps_win_only_units_holding_adopters(marriage,
                                                             marriage_disj):
    """Instrumented default run: once the radius is 0, every modality step
    moves one unit, and that unit held an adopter of the drawn modality at
    the latest checkpoint."""
    dc = corrected_disjunctive(marriage_disj).entries
    n, m = dc.shape
    t_max = default_iterations("kdisj", n, m, 2)
    marks = {round(t_max * i / 10) for i in range(1, 10)}
    state = {"held": None, "before": None}
    bad = []

    def observer(t, x, smask, umask, model):
        if t % 2 == 1 and t >= t_max // 4 and state["held"] is not None:
            moved = np.flatnonzero(np.any(
                model.code_vectors[:, m:] != state["before"], axis=1))
            j = next(k for k in range(m) if np.array_equal(x[m:], dc[:, k]))
            if len(moved) != 1 or moved[0] not in state["held"][j]:
                bad.append(t)
        if t + 1 in marks:
            units = assign(model, dc, mask=DistanceMask(0, m)).units
            state["held"] = [set(units[dc[:, k] > 0].tolist()) for k in range(m)]
        state["before"] = model.code_vectors[:, m:].copy()

    kdisj(marriage, TOPO, TrainConfig(seed=0), observer=observer)
    assert state["held"] is not None and bad == []


def test_run_analysis_dispatch(marriage):
    res = run_analysis("kmca", marriage, TOPO, small_cfg())
    assert res.algorithm == "kmca"
    with pytest.raises(ConfigError):
        run_analysis("nope", marriage, TOPO, small_cfg())


def test_pipelines_are_seed_deterministic(marriage):
    a = kdisj(marriage, TOPO, small_cfg(seed=5))
    b = kdisj(marriage, TOPO, small_cfg(seed=5))
    assert np.array_equal(a.model.code_vectors, b.model.code_vectors)
    assert np.array_equal(a.modalities.units, b.modalities.units)
    assert np.array_equal(a.individuals.units, b.individuals.units)


@pytest.mark.parametrize("algorithm", ["kmca-ind", "kdisj"])
def test_every_step_calls_train_step_then_bmu_once(monkeypatch, marriage, algorithm):
    calls = {"train_step": 0, "bmu": 0}
    for name in calls:
        original = getattr(som, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(som, name, counted)
    run_analysis(algorithm, marriage, TOPO, small_cfg(t_max=40))
    assert calls == {"train_step": 40, "bmu": 40}


def test_kdisj_golden_digests_hold_with_the_cached_search_forced_on(monkeypatch,
                                                                    tmp_path):
    """With the size gate open to every search, the cached-norm search
    reproduces every pinned kdisj artifact of the marriage runs."""
    import test_golden

    blocks = set()
    original = som._norm_distances

    def recorded(norms, key, code, xm):
        blocks.add(key)
        return original(norms, key, code, xm)

    monkeypatch.setattr(som, "_norm_distances", recorded)
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1)
    got = test_golden.digests("kdisj", tmp_path)
    assert got == {k: v for k, v in test_golden.GOLDEN.items() if ".kdisj." in k}
    assert blocks == {(0, 12), (12, 282)}


def gated_kdisj_model(marriage, t_max=400):
    """A fresh kdisj model on the marriage data and its sampler; under a
    DISTANCE_BLOCK of 1000 its modality steps (16 units x 270 components)
    search above the size gate and its individual steps (16 x 12) below."""
    sampler = KdisjSampler(corrected_disjunctive(to_disjunctive(marriage)).entries)
    return init_model(TOPO, 282, small_cfg(t_max=t_max)), sampler


def test_cached_norms_match_their_units_after_every_step(monkeypatch, marriage):
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1000)
    checked = []

    def observer(t, x, smask, umask, model):
        assert set(model._norms) == ({(12, 282)} if t else set())
        for (lo, hi), (w2, stale) in model._norms.items():
            block = model.code_vectors[:, lo:hi]
            fresh = np.array([np.einsum("w,w->", w, w) for w in block])
            np.testing.assert_allclose(w2[~stale], fresh[~stale], rtol=1e-12, atol=0)
            checked.append(int(np.sum(~stale)))

    som.train(*gated_kdisj_model(marriage), observer=observer)
    assert len(checked) == 399 and min(checked) > 0


def test_bmu_after_training_uses_the_difference_form(monkeypatch, marriage):
    """Once train() has returned or raised, no search reads its cached norms,
    even on a model whose code vectors were edited since."""
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1000)

    def stop(t, x, smask, umask, model):
        if t == 201:
            raise RuntimeError("stop mid-schedule")

    raised, sampler = gated_kdisj_model(marriage)
    with pytest.raises(RuntimeError):
        som.train(raised, sampler, observer=stop)
    finished, _ = som.train(*gated_kdisj_model(marriage))

    def fail(*args):
        raise AssertionError("a search read the cached norms after training")

    monkeypatch.setattr(som, "_norm_distances", fail)
    rng = np.random.default_rng(9)
    for model in (raised, finished):
        assert model._norms is None
        model.code_vectors[:, 12:] = rng.random((16, 270)) * 0.1
        for x in sampler.columns:
            d2 = np.einsum("uw,uw->u", model.code_vectors[:, 12:] - x,
                           model.code_vectors[:, 12:] - x)
            assert som.bmu(model, x, DistanceMask(12, 282)) == np.argmin(d2)


def test_analysis_result_json_round_trip(marriage):
    res = kmca_ind(marriage, TOPO, small_cfg())
    blob = res.to_json(model_file="m.json")
    clone = AnalysisResult.from_json(blob, model=res.model)
    assert clone.algorithm == res.algorithm
    assert clone.topology == res.topology
    assert np.array_equal(clone.modalities.units, res.modalities.units)
    assert np.array_equal(clone.individuals.units, res.individuals.units)
    assert dumps(clone.to_json(model_file="m.json")) == dumps(blob)


# ------------------------------------------------------------------ deviations

def fake_result(ds, ind_units, mod_units, n_units=4):
    """Assemble a result with hand-picked unit assignments."""
    disj = to_disjunctive(ds)
    topo = Topology.grid(2, n_units // 2)
    model = init_model(
        topo, 2, TrainConfig(t_max=1, seed=0), data=np.zeros((2, 2))
    )
    return AnalysisResult(
        algorithm="kdisj",
        topology=topo,
        model=model,
        modalities=MapAssignment(
            labels=disj.names, units=np.asarray(mod_units), n_units=n_units
        ),
        individuals=MapAssignment(
            labels=disj.individuals, units=np.asarray(ind_units), n_units=n_units
        ),
        provenance={},
        qe_log=[],
    )


def test_deviation_row_sums_are_exact(marriage):
    res = kdisj(marriage, TOPO, small_cfg())
    table = deviations(res, marriage)
    disj = to_disjunctive(marriage)
    assert np.array_equal(table.observed.sum(axis=1), disj.counts)
    # expected counts also resum to the modality counts
    assert np.allclose(table.expected.sum(axis=1), disj.counts)
    # and deviations cancel across units
    assert np.allclose(table.deviation.sum(axis=1), 0.0)


def test_deviation_requires_individuals(marriage):
    res = kmca(marriage, TOPO, small_cfg())
    with pytest.raises(ConfigError):
        deviations(res, marriage)


def test_deviation_universal_modality_is_flat():
    # one modality held by every individual: observed == expected everywhere
    rng = np.random.default_rng(1)
    n = 24
    cells = np.column_stack(
        [np.zeros(n, dtype=np.int64), rng.integers(0, 3, size=n)]
    )
    from somcat.dataset import CategoricalDataset, VariableSpec

    ds = CategoricalDataset(
        individuals=[f"i{k}" for k in range(n)],
        variables=[
            VariableSpec(name="u", modalities=("all", "unused")),
            VariableSpec(name="v", modalities=("a", "b", "c")),
        ],
        cells=cells,
    )
    ind_units = rng.integers(0, 4, size=n)
    res = fake_result(ds, ind_units, mod_units=[0, 1, 2, 3, 0])
    table = deviations(res, ds)
    j = list(table.modalities).index("u.all")
    assert np.allclose(table.deviation[j], 0.0)


def test_deviation_mean_zero_under_permutation_null():
    """Uniform random balanced assignment: mean deviation per cell stays
    within 3 sigma of the hypergeometric null."""
    rng = np.random.default_rng(7)
    n, u = 60, 4
    ds = random_dataset(rng, n=n, sizes=(3, 2))
    disj = to_disjunctive(ds)
    reps = 300
    acc = np.zeros((disj.n_modalities, u))
    base = np.repeat(np.arange(u), n // u)
    for _ in range(reps):
        ind_units = rng.permutation(base)
        res = fake_result(ds, ind_units, mod_units=np.zeros(5, dtype=np.int64))
        acc += deviations(res, ds).deviation
    mean = acc / reps
    nk = n // u
    for j, b in enumerate(disj.counts):
        var = nk * (b / n) * (1 - b / n) * (n - nk) / (n - 1)
        bound = 3.0 * np.sqrt(var / reps)
        assert np.all(np.abs(mean[j]) <= bound + 1e-12)


def test_deviation_rejects_mismatched_dataset(marriage):
    res = kdisj(marriage, TOPO, small_cfg())
    other = somcat.marriage_dataset()
    trimmed = somcat.CategoricalDataset(
        individuals=other.individuals[:-1],
        variables=list(other.variables),
        cells=other.cells[:-1],
    )
    with pytest.raises(DataError):
        deviations(res, trimmed)
