"""The three training pipelines and the attraction diagnostic."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import somcat
from somcat import analyses, som
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
from somcat.dataset import CategoricalDataset, VariableSpec, ingest_csv, to_disjunctive
from somcat.errors import ConfigError, DataError, DimensionError, ZeroModalityError
from somcat.jsonio import dumps
from somcat.som import (
    DistanceMask,
    MapAssignment,
    SomModel,
    Topology,
    TrainConfig,
    assign,
    init_model,
)
from somcat.tables import corrected_burt, corrected_disjunctive, disjunctive_index

from conftest import random_dataset, uniform_survey_csv

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

def test_mean_vectors_match_direct_averaging(marriage, marriage_disj):
    means = modality_mean_vectors(marriage)
    dc = corrected_disjunctive(marriage)
    d = marriage_disj
    for j in range(marriage.n_modalities):
        adopters = np.flatnonzero(d[:, j])
        direct = dc[adopters].mean(axis=0)
        assert np.max(np.abs(means[j] - direct)) <= 1e-12


def test_mean_vectors_match_direct_averaging_random():
    rng = np.random.default_rng(42)
    for _ in range(10):
        ds = random_dataset(rng, n=30, sizes=(3, 2, 4))
        d = to_disjunctive(ds)
        means = modality_mean_vectors(ds)
        dc = corrected_disjunctive(ds)
        for j in range(ds.n_modalities):
            adopters = np.flatnonzero(d[:, j])
            direct = dc[adopters].mean(axis=0)
            assert np.max(np.abs(means[j] - direct)) <= 1e-12


def test_mean_vectors_reject_a_modality_without_adopters():
    ds = CategoricalDataset(
        individuals=["a", "b"],
        variables=[VariableSpec(name="v", modalities=("x", "y", "z"))],
        cells=np.array([[0], [1]]),
    )
    with pytest.raises(ZeroModalityError, match="'v.z'"):
        modality_mean_vectors(ds)


# ---------------------------------------------------------------- j(i) choice

def test_kdisj_associate_matches_brute_force(marriage):
    dc = corrected_disjunctive(marriage)
    rng = np.random.default_rng(0)
    for i in range(270):
        j = kdisj_associate(dc[i], rng)
        best = np.flatnonzero(dc[i] == dc[i].max())
        assert j in best  # the only choice when there is no tie


def test_kdisj_associate_picks_rarest_modality(marriage, marriage_disj):
    dc = corrected_disjunctive(marriage)
    d = marriage_disj
    counts = d.sum(axis=0)
    for i in range(0, 270, 7):
        chosen = set(np.flatnonzero(d[i]))
        rare = min(chosen, key=lambda j: counts[j])
        if len({counts[j] for j in chosen}) == len(chosen):  # no tie
            assert kdisj_associate(dc[i], np.random.default_rng(i)) == rare


def test_kdisj_associate_tie_frequencies(marriage):
    # the farm couples adopt two modalities of identical count 16
    dc = corrected_disjunctive(marriage)
    i = marriage.individuals.index("MFARM:FFARM:1")
    ties = np.flatnonzero(dc[i] == dc[i].max())
    assert len(ties) == 2
    rng = np.random.default_rng(123)
    draws = np.array([kdisj_associate(dc[i], rng) for _ in range(10_000)])
    for j in ties:
        assert abs(np.mean(draws == j) - 0.5) <= 0.03


# -------------------------------------------------------------------- sampler

def test_kdisj_sampler_alternates_phases(marriage):
    dc = corrected_disjunctive(marriage)
    n, m = dc.shape
    sampler = KdisjSampler(marriage)
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
    assert not y[:m].any()  # the buffer's individual half is cleared


def test_kdisj_sampler_even_pairs_row_with_its_rarest_column(marriage):
    dc = corrected_disjunctive(marriage)
    n, m = dc.shape
    sampler = KdisjSampler(marriage)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, _, _ = sampler.draw(0, rng)
        i = next(k for k in range(n) if np.array_equal(x[:m], dc[k]))
        ties = np.flatnonzero(dc[i] == dc[i].max())
        assert any(np.array_equal(x[m:], dc[:, j]) for j in ties)


@pytest.mark.parametrize("which", ["marriage", "random"])
def test_kdisj_sampler_draws_what_kdisj_associate_draws(which, marriage):
    """Even steps look up the rarest column of rows without a tie and call
    kdisj_associate only on ties: the same columns and the same RNG stream
    as calling it on every drawn row."""
    ds = marriage if which == "marriage" else random_dataset(
        np.random.default_rng(31), n=40, sizes=(2, 3, 2, 4))
    sampler = KdisjSampler(ds)
    dc = corrected_disjunctive(ds)
    assert sampler._tied.any() and not sampler._tied.all()
    ours, theirs = np.random.default_rng(32), np.random.default_rng(32)
    for t in range(0, 4000, 2):
        sampler.draw(t, ours)
        i = int(theirs.integers(0, ds.n_individuals))
        assert sampler.column == kdisj_associate(dc[i], theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


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
    means = modality_mean_vectors(marriage)
    expect = assign(res.model, means, labels=marriage.global_modality_names)
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
        dc = corrected_disjunctive(ds)
        n, m = dc.shape
        sampler = KdisjSampler(ds)
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


def test_kdisj_modality_steps_win_only_units_holding_adopters(marriage):
    """Instrumented default run: once the radius is 0, every modality step
    moves one unit, and that unit held an adopter of the drawn modality at
    the latest checkpoint."""
    dc = corrected_disjunctive(marriage)
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


@pytest.mark.parametrize("algorithm", ["kdisj"])
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


def test_a_kdisj_sweep_builds_one_sampler_and_hashes_the_dataset_once(monkeypatch,
                                                                      marriage):
    """Its seeds share the sampler's tables and the dataset's hash, and each
    run is the run kdisj() makes of its seed alone."""
    counts = {"sampler": 0, "sha256": 0}

    class Counted(KdisjSampler):
        def __init__(self, ds):
            counts["sampler"] += 1
            super().__init__(ds)

    sha256 = CategoricalDataset.sha256

    def hashed(ds):
        counts["sha256"] += 1
        return sha256(ds)

    monkeypatch.setattr(analyses, "KdisjSampler", Counted)
    monkeypatch.setattr(CategoricalDataset, "sha256", hashed)
    configs = [small_cfg(seed=seed) for seed in range(3)]
    results = analyses.sweep("kdisj", marriage, TOPO, configs)
    assert counts == {"sampler": 1, "sha256": 1}
    for config, result in zip(configs, results):
        alone = kdisj(marriage, TOPO, config)
        assert np.array_equal(result.model.code_vectors, alone.model.code_vectors)
        assert result.qe_log == alone.qe_log
        assert np.array_equal(result.individuals.units, alone.individuals.units)
        assert np.array_equal(result.modalities.units, alone.modalities.units)
        assert result.provenance == alone.provenance


class Located(som.UniformRowSampler):
    """Keeps a copy of every checkpoint's units, in the order located."""

    def __init__(self, rows):
        super().__init__(rows)
        self.located = []

    def locate(self, bmus, n_units):
        super().locate(bmus, n_units)
        self.located.append(bmus.copy())


def survey(seed=3, n=150):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        path.write_text(uniform_survey_csv(seed, n, 4, 3))
        return ingest_csv(path)


@pytest.mark.parametrize("algorithm", ["kmca", "kmca-ind"])
@pytest.mark.parametrize("data, topo, t_max", [
    ("marriage", TOPO, None), ("survey", Topology.grid(3, 5), 1500),
], ids=["marriage", "survey"])
def test_lockstep_reproduces_train_on_every_seed(marriage, algorithm, data, topo, t_max):
    """Five seeds trained together match five runs of train(), which steps
    through train_step and bmu: code vectors, QE logs, every checkpoint's
    units, step counts and the state each RNG is left in."""
    check_lockstep(marriage if data == "marriage" else survey(), algorithm, topo, t_max, 5)


@pytest.mark.parametrize("algorithm", ["kmca", "kmca-ind"])
@pytest.mark.parametrize("topo, n_seeds", [
    (Topology.string(8), 5), (Topology.string(8), 1), (Topology.grid(2, 7), 5),
    (Topology.grid(2, 7), 1), (Topology.grid(3, 5), 1),
], ids=["string-5", "string-1", "wide-5", "wide-1", "grid-1"])
def test_lockstep_reproduces_train_on_any_map_and_seed_count(algorithm, topo, n_seeds):
    """The same on a string, on a grid whose squares clip on a side of 2,
    and on a sweep of one seed, over the wide radii and radius 0 alike."""
    check_lockstep(survey(), algorithm, topo, 1500, n_seeds)


def check_lockstep(ds, algorithm, topo, t_max, n_seeds):
    rows = corrected_burt(ds) if algorithm == "kmca" else disjunctive_index(ds)
    dense = Located(rows).rows
    lo, hi = dense.min(axis=0), dense.max(axis=0)
    configs = [analyses._resolved(algorithm, ds, TrainConfig(seed=s, t_max=t_max))
               for s in range(n_seeds)]
    together, models = Located(rows), [init_model(topo, c, lo, hi) for c in configs]
    trained = som._train_lockstep(models, together)
    for s, (config, model, (qe_log, bmus)) in enumerate(zip(configs, models, trained)):
        alone = Located(rows)
        reference, reference_log = som.train(init_model(topo, config, lo, hi), alone)
        assert np.array_equal(model.code_vectors, reference.code_vectors)
        assert qe_log == reference_log and len(qe_log) == 11
        assert model.trained_steps == reference.trained_steps == config.t_max
        located = together.located[s::len(models)]
        assert len(located) == len(alone.located) == 11
        assert all(np.array_equal(a, b) for a, b in zip(located, alone.located))
        assert np.array_equal(bmus, alone.located[-1])
        assert model.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("block", ["default", 1])
@pytest.mark.parametrize("data", ["marriage", "survey"])
def test_kmca_places_its_modalities_as_bmu_does(marriage, monkeypatch, data, block):
    """kmca's modalities take their units and its log its last QE from the
    final checkpoint, which measures the Burt rows in the difference form
    that bmu searches: the units are assign's, and the QE has the bits of
    _squared_distances over all the rows at once, whatever the blocks."""
    if block != "default":
        monkeypatch.setattr(som, "DISTANCE_BLOCK", block)
    ds, topo, t_max = ((marriage, TOPO, None) if data == "marriage"
                       else (survey(), Topology.grid(3, 5), 1500))
    rows = corrected_burt(ds)
    configs = [TrainConfig(seed=seed, t_max=t_max) for seed in range(10)]
    for result in analyses.sweep("kmca", ds, topo, configs):
        assert np.array_equal(result.modalities.units, assign(result.model, rows).units)
        d2 = som._squared_distances(rows, result.model.code_vectors)
        assert result.qe_log[-1][1] == float(np.mean(np.maximum(d2.min(axis=1), 0.0)))


def test_lockstep_checks_its_inputs_once(marriage):
    rows = corrected_burt(marriage)
    lo, hi = rows.min(axis=0), rows.max(axis=0)

    def fresh(**changes):
        return init_model(TOPO, TrainConfig(**{"t_max": 50, **changes}), lo, hi)

    for models in ([fresh(), fresh(t_max=60)], [fresh(), fresh(c0=2.0)],
                   [fresh(), init_model(Topology.grid(2, 8), small_cfg(), lo, hi)],
                   [fresh(t_max=None)]):
        with pytest.raises(ConfigError):
            som._train_lockstep(models, som.UniformRowSampler(rows))
    used = fresh()
    som._train_lockstep([used], som.UniformRowSampler(rows))
    with pytest.raises(ConfigError):
        som._train_lockstep([fresh(), used], som.UniformRowSampler(rows))
    bad = rows.copy()
    bad[3, 4] = np.nan
    with pytest.raises(DimensionError):
        som._train_lockstep([fresh()], som.UniformRowSampler(bad))
    with pytest.raises(DimensionError):
        som._train_lockstep([fresh()], som.UniformRowSampler(rows[:, :-1]))


def test_kdisj_golden_digests_hold_with_the_gram_table_forced_on(monkeypatch,
                                                                 tmp_path):
    """With the width gate open, every marriage kdisj run searches its
    modality steps through the Gram table and reproduces every pinned kdisj
    artifact but its model and result, whose individual-space blocks the
    table sums in coefficient form: those six files have pins of their own."""
    import test_golden

    built = []

    class Recorded(som.GramTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.mask)

    monkeypatch.setattr(som, "GramTable", Recorded)
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1)
    got = test_golden.digests("kdisj", tmp_path)
    want = {k: v for k, v in test_golden.GOLDEN.items() if ".kdisj." in k}
    assert got == {**want, **test_golden.GRAM_GOLDEN}
    assert built == [DistanceMask(12, 282)] * test_golden.SEEDS


def gated_kdisj_model(marriage, t_max=400):
    """A fresh kdisj model on the marriage data and its sampler; under a
    DISTANCE_BLOCK of 1000 its modality steps (16 units x 270 individuals)
    pass the width gate and search through the Gram table."""
    sampler = KdisjSampler(marriage)
    model = init_model(TOPO, small_cfg(t_max=t_max), np.zeros(282), np.ones(282))
    return model, sampler


def test_gram_table_matches_its_units_after_every_step(monkeypatch, marriage):
    """After every step of both phases, the table's inner products and norms
    equal a fresh sum over the individual-space block the table settles."""
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1000)
    model, sampler = gated_kdisj_model(marriage)
    checked = []

    def observer(t, x, smask, umask, model):
        table = model._table
        assert table.mask == DistanceMask(12, 282)
        block = np.empty((16, 270))
        table.settle(block)
        fresh = np.einsum("uw,lw->ul", block, sampler.columns)
        np.testing.assert_allclose(table.proj.reshape(16, 12), fresh, rtol=1e-12, atol=0)
        fresh = np.array([np.einsum("w,w->", w, w) for w in block])
        np.testing.assert_allclose(table.norms.ravel(), fresh, rtol=1e-12, atol=0)
        checked.append(t)

    som.train(model, sampler, observer=observer)
    assert checked == list(range(400))


def stopped_kdisj_block(marriage, seed):
    """The individual-space block of a marriage kdisj run that an observer
    stops after step 201."""
    held = []

    def stop(t, x, smask, umask, model):
        if t == 201:
            held.append(model)
            raise RuntimeError("stop mid-schedule")

    with pytest.raises(RuntimeError):
        kdisj(marriage, TOPO, TrainConfig(seed=seed), observer=stop)
    return held[0].code_vectors[:, 12:]


@pytest.mark.parametrize("seed", range(10))
def test_the_gram_tables_block_is_the_dense_block(monkeypatch, marriage, seed):
    """With the Gram table forced on, a marriage kdisj run keeps the QE log,
    both assignments and the modality-space components of the dense run bit
    for bit, and its individual-space block agrees with the dense block
    within 1e-13 of the block's largest magnitude, at the end of the
    schedule and in a run stopped after step 201."""
    dense = kdisj(marriage, TOPO, TrainConfig(seed=seed))
    dense_stopped = stopped_kdisj_block(marriage, seed)
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1)
    table = kdisj(marriage, TOPO, TrainConfig(seed=seed))
    assert table.qe_log == dense.qe_log
    assert np.array_equal(table.modalities.units, dense.modalities.units)
    assert np.array_equal(table.individuals.units, dense.individuals.units)
    got, want = table.model.code_vectors, dense.model.code_vectors
    assert np.array_equal(got[:, :12], want[:, :12])
    for got, want in ((got[:, 12:], want[:, 12:]),
                      (stopped_kdisj_block(marriage, seed), dense_stopped)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_no_search_reads_the_gram_table_after_training(monkeypatch, marriage):
    """Once train() has returned or raised, the model holds no table and no
    search reads one, even on a model whose code vectors were edited since."""
    monkeypatch.setattr(som, "DISTANCE_BLOCK", 1000)
    tables = set()

    def keep(t, x, smask, umask, model):
        tables.add(model._table)

    def stop(t, x, smask, umask, model):
        keep(t, x, smask, umask, model)
        if t == 201:
            raise RuntimeError("stop mid-schedule")

    raised, sampler = gated_kdisj_model(marriage)
    with pytest.raises(RuntimeError):
        som.train(raised, sampler, observer=stop)
    finished, _ = som.train(*gated_kdisj_model(marriage), observer=keep)
    assert len(tables) == 2 and None not in tables
    for table in tables:
        vars(table).clear()  # a search that read this table would raise
    rng = np.random.default_rng(9)
    for model in (raised, finished):
        assert model._table is None
        model.code_vectors[:, 12:] = rng.random((16, 270)) * 0.1
        for x in sampler.columns:
            d2 = np.einsum("uw,uw->u", model.code_vectors[:, 12:] - x,
                           model.code_vectors[:, 12:] - x)
            assert som.bmu(model, x, DistanceMask(12, 282)) == np.argmin(d2)


def test_four_copies_of_every_individual_leave_kmca_bit_identical(marriage):
    """Metamorphic check of the table-to-map path.  Four copies of every
    individual multiply the Burt table and every modality count by 4, and
    the correction divides entry (j, l) by K * sqrt(4 b_j) * sqrt(4 b_l).
    The factor is 4 because sqrt(4) = 2 is exact in floating point and
    scaling by a power of two loses no bit, so the corrected Burt table,
    and with it the whole seeded kmca run, is unchanged bit for bit.  A
    factor of 2 or 3 gives no such identity: sqrt(2) and sqrt(3) round, and
    their corrected tables differ in the last bits (15 and 19 of the 144
    entries here).  The factor follows from the arithmetic; it is not chosen
    to hide a defect."""
    copies = CategoricalDataset(
        individuals=[f"{i}#{c}" for c in range(4) for i in marriage.individuals],
        variables=marriage.variables,
        cells=np.tile(marriage.cells, (4, 1)),
    )
    assert np.array_equal(corrected_burt(copies), corrected_burt(marriage))
    cfg = TrainConfig(seed=3)
    once, four = kmca(marriage, TOPO, cfg), kmca(copies, TOPO, cfg)
    assert once.model.code_vectors.tobytes() == four.model.code_vectors.tobytes()
    assert np.array_equal(once.modalities.units, four.modalities.units)
    assert once.unit_distances.tobytes() == four.unit_distances.tobytes()


def test_analysis_result_json_round_trip(marriage):
    res = kmca_ind(marriage, TOPO, small_cfg())
    blob = res.to_json()
    clone = AnalysisResult.from_json(blob)
    assert clone.algorithm == res.algorithm
    assert clone.topology == res.topology
    assert np.array_equal(clone.modalities.units, res.modalities.units)
    assert np.array_equal(clone.individuals.units, res.individuals.units)
    assert np.array_equal(clone.unit_distances, res.unit_distances)
    assert dumps(clone.to_json()) == dumps(blob)


def test_the_unit_distances_of_a_full_map_copy_no_code_vectors():
    """When every unit holds weight, _result measures the unit distances on
    the code vectors themselves: its peak stays far below one U x dim copy
    (64 x 10,060 numbers, 5.2 MB, a kdisj map of 10^4 individuals)."""
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n=128)
    model = SomModel(Topology.grid(8, 8), 10_060, small_cfg(), rng.random((64, 10_060)))
    individuals = MapAssignment(tuple(ds.individuals), np.arange(128) % 64, 64)
    modalities = MapAssignment(ds.global_modality_names, np.arange(ds.n_modalities), 64)
    tracemalloc.start()
    try:
        res = analyses._result("kdisj", ds, model, [(0, 1.0)], modalities, individuals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    code = model.code_vectors
    assert res.unit_distances.tobytes() == som._squared_distances(code, code.copy()).tobytes()


def test_assign_over_every_unit_copies_no_code_vectors():
    """assign with every unit marked, as kdisj places its modalities on a
    map whose every unit holds an individual, measures the code vectors
    themselves: its peak stays far below one copy of the U x N block (64 x
    10,000 numbers, 5.1 MB)."""
    rng = np.random.default_rng(6)
    model = SomModel(Topology.grid(8, 8), 10_060, small_cfg(), rng.random((64, 10_060)))
    columns, mask = rng.random((60, 10_000)), DistanceMask(60, 10_060)
    tracemalloc.start()
    try:
        placed = assign(model, columns, mask=mask, units=np.ones(64, dtype=bool))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert np.array_equal(placed.units, assign(model, columns, mask=mask).units)


# ------------------------------------------------------------------ deviations

def fake_result(ds, ind_units, mod_units, n_units=4):
    """Assemble a result with hand-picked unit assignments."""
    topo = Topology.grid(2, n_units // 2)
    return AnalysisResult(
        algorithm="kdisj",
        topology=topo,
        model=None,
        modalities=MapAssignment(
            labels=ds.global_modality_names, units=np.asarray(mod_units),
            n_units=n_units,
        ),
        individuals=MapAssignment(
            labels=tuple(ds.individuals), units=np.asarray(ind_units),
            n_units=n_units,
        ),
        provenance={},
        qe_log=[],
        unit_distances=np.zeros((n_units, n_units)),
    )


def test_deviation_row_sums_are_exact(marriage):
    res = kdisj(marriage, TOPO, small_cfg())
    table = deviations(res, marriage)
    counts = to_disjunctive(marriage).sum(axis=0)
    assert np.array_equal(table.observed.sum(axis=1), counts)
    # expected counts also resum to the modality counts
    assert np.allclose(table.expected.sum(axis=1), counts)
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
    reps = 300
    acc = np.zeros((ds.n_modalities, u))
    base = np.repeat(np.arange(u), n // u)
    for _ in range(reps):
        ind_units = rng.permutation(base)
        res = fake_result(ds, ind_units, mod_units=np.zeros(5, dtype=np.int64))
        acc += deviations(res, ds).deviation
    mean = acc / reps
    nk = n // u
    for j, b in enumerate(to_disjunctive(ds).sum(axis=0)):
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
