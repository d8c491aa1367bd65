"""End-to-end runs of the command line interface."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import random_dataset
from somcat import analyses
from somcat.analyses import AnalysisResult
from somcat.cli import main, stability_report
from somcat.jsonio import load
from somcat.macrocluster import cut, ward_cluster
from somcat.som import MapAssignment, Topology, _squared_distances

MARRIAGE = ["--data", "builtin:marriages"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# --------------------------------------------------------------------- ingest

def test_ingest_builtin(tmp_path, capsys):
    summary = run_json(capsys, "ingest", *MARRIAGE, "--out", str(tmp_path))
    assert summary["individuals"] == 270
    assert summary["modalities"] == 12
    ds_file = tmp_path / "marriages.dataset.json"
    assert ds_file.exists()
    blob = load(ds_file)
    assert len(blob["individuals"]) == 270


def test_ingest_csv_with_schema(tmp_path, capsys):
    csv_path = tmp_path / "poll.csv"
    csv_path.write_text(
        "id,age,vote\np1,25,yes\np2,64,no\np3,41,yes\n", encoding="utf-8"
    )
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps(
            {
                "variables": [
                    {
                        "name": "age",
                        "modalities": ["young", "old"],
                        "breaks": [45.0],
                    },
                    {"name": "vote", "modalities": ["yes", "no"]},
                ]
            }
        ),
        encoding="utf-8",
    )
    summary = run_json(
        capsys,
        "ingest",
        "--data", str(csv_path),
        "--schema", str(schema_path),
        "--out", str(tmp_path),
    )
    assert summary["individuals"] == 3
    blob = load(tmp_path / "poll.dataset.json")
    assert blob["cells"] == [[0, 0], [1, 1], [0, 0]]


def test_ingest_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--data", str(tmp_path / "missing.csv"))
    assert code == 1
    assert err.startswith("error:")


def test_bad_grid_argument_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kmca", *MARRIAGE, "--grid", "0x4", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["kmca", "--cell-size", "10"], 2),
    (["kmca", "--macro", "0"], 2),
    (["kmca", "--macro", "-1"], 2),
    (["kmca", "--macro", "17"], 1),
    (["kmca-ind", "--macro", "17"], 1),
    (["report", "--algorithms", "kmca-ind,kmca", "--macro", "13"], 1),
    (["kmca", "--seeds", "2", "--workers", "0"], 2),
    (["kmca", "--seeds", "2", "--workers", "-1"], 2),
], ids=["cell-size-10", "macro-0", "macro-minus-1", "kmca-macro-17",
        "kmca-ind-macro-17", "report-macro-13", "workers-0", "workers-minus-1"])
def test_bad_map_values_fail_before_training(tmp_path, capsys, argv, code):
    """A 4x4 map: a cell under 40 pixels, a cut under 1 class or fewer than
    one worker is a bad flag; a cut into more classes than the units that
    can hold weight (16 for individuals, kmca's 12 modalities) is a config
    error before any algorithm trains."""
    try:
        got = main([*argv, *MARRIAGE, "--grid", "4x4", "--out", str(tmp_path)])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert err.startswith("error:config:") if code == 1 else "minimum" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, filled", [
    (["kmca", "--macro", "12"], 6),
    (["kmca-ind", "--macro", "16"], 9),
    (["kdisj", "--macro", "16"], 11),
    (["report", "--algorithms", "kmca-ind,kmca", "--macro", "7"], 6),
], ids=["kmca-macro-12", "kmca-ind-macro-16", "kdisj-macro-16", "report-macro-7"])
def test_a_cut_above_the_filled_units_writes_nothing(tmp_path, capsys, argv, filled):
    """Seed 0 on a 4x4 map fills 6 units with kmca, 9 with kmca-ind and 11
    with kdisj: each cut passes the check before training and fails on the
    trained map, before any file of any algorithm is written."""
    code, _, err = run(capsys, *argv, *MARRIAGE, "--out", str(tmp_path))
    assert code == 1
    k = argv[argv.index("--macro") + 1]
    assert err.startswith(f"error:config: --macro {k} exceeds the {filled} units"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 1.07 GiB for an array with shape (10000, 14400)",
     "error:memory: Unable to allocate 1.07 GiB for an array with shape (10000, 14400)"),
    ("", "error:memory: out of memory"),
], ids=["numpy-message", "bare"])
def test_a_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, message, line):
    """An allocation that fails in training (here the code vectors') ends the
    command with one error line and exit 1, no traceback, no file written."""
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(analyses, "init_model", fail)
    code, out, err = run(capsys, "kdisj", *MARRIAGE, "--out", str(tmp_path))
    assert (code, out, err.splitlines()) == (1, "", [line])
    assert list(tmp_path.iterdir()) == []


class SerialPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps
    in this process, so no test starts a worker."""

    started: list[int] = []

    def __init__(self, max_workers):
        SerialPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, seeds, cpus, started", [
    (["--workers", "1000"], "2", 8, [2]),
    (["--workers", "1000"], "3", 2, [2]),
    ([], "3", 8, [3]),
    ([], "6", 8, [4]),
    (["--workers", "1"], "3", 8, []),
    (["--workers", "5"], "1", 8, []),
], ids=["seeds-bound", "cpus-bound", "default", "default-cap", "one-worker", "one-seed"])
def test_workers_never_exceed_seeds_or_cpus(tmp_path, capsys, monkeypatch,
                                            workers, seeds, cpus, started):
    monkeypatch.setattr("somcat.cli.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("somcat.cli.os.cpu_count", lambda: cpus)
    monkeypatch.setattr(SerialPool, "started", [])
    summary = run_json(capsys, "kmca", *MARRIAGE, "--grid", "2x2", "--iters", "50",
                       "--render", "none", "--seeds", seeds, *workers,
                       "--out", str(tmp_path))
    assert len(summary["runs"]) == int(seeds)
    assert SerialPool.started == started


# --------------------------------------------------------------------- tables

def test_tables_outputs_burt_identities(tmp_path, capsys):
    summary = run_json(capsys, "tables", *MARRIAGE, "--out", str(tmp_path))
    assert summary["burt_total"] == 1080
    assert summary["expected_burt_total"] == 1080
    blob = load(tmp_path / "marriages.tables.json")
    burt = np.array(blob["burt"]["entries"])
    assert burt.sum() == 1080
    corrected = np.array(blob["burt_corrected"])
    assert np.all(np.abs(np.diag(corrected) - 0.5) < 1e-12)


# ---------------------------------------------------------------------- train

def test_kdisj_run_writes_artifacts(tmp_path, capsys):
    summary = run_json(
        capsys,
        "kdisj", *MARRIAGE,
        "--grid", "3x3", "--iters", "300", "--seed", "0",
        "--macro", "4", "--render", "both",
        "--out", str(tmp_path),
    )
    runs = summary["runs"]
    assert len(runs) == 1
    base = runs[0]["base"]
    for suffix in (
        ".model.json", ".result.json", ".macro.json", ".deviations.json",
        ".svg", ".txt",
    ):
        assert (tmp_path / f"{base}{suffix}").exists(), suffix
    assert runs[0]["qe_final"] < runs[0]["qe_initial"]
    result = load(tmp_path / f"{base}.result.json")
    assert result["algorithm"] == "kdisj"
    assert "model_file" not in result
    occupied = np.unique(result["individuals"]["units"]).size
    assert np.asarray(result["unit_distances"]).shape == (9, occupied)
    assert runs[0]["occupied_units"] == occupied


def test_kmca_run_has_no_individuals(tmp_path, capsys):
    summary = run_json(
        capsys,
        "kmca", *MARRIAGE,
        "--grid", "3x3", "--iters", "200",
        "--out", str(tmp_path),
    )
    base = summary["runs"][0]["base"]
    result = load(tmp_path / f"{base}.result.json")
    assert result["individuals"] is None
    assert not (tmp_path / f"{base}.deviations.json").exists()


def test_seed_sweep_writes_stability(tmp_path, capsys):
    summary = run_json(
        capsys,
        "kdisj", *MARRIAGE,
        "--grid", "3x3", "--iters", "300",
        "--seeds", "3", "--workers", "1",
        "--out", str(tmp_path),
    )
    assert len(summary["runs"]) == 3
    stability = load(tmp_path / "marriages.kdisj.stability.json")
    freq = np.array(stability["co_unit_frequency"])
    assert freq.shape == (12, 12)
    assert np.allclose(np.diag(freq), 1.0)
    # perfectly correlated labels always share a unit
    names = stability["modalities"]
    i, j = names.index("husband.MFARM"), names.index("wife.FFARM")
    assert freq[i, j] == pytest.approx(1.0)
    # identical-pattern individuals collapse to the 12 observed couple types
    assert len(stability["individual_groups"]) == 12
    assert sum(stability["individual_groups"].values()) == 270


def random_runs(rng, ds, n_runs, n_units):
    """Individual-mapping results that place every item on a random unit."""
    names = ds.global_modality_names
    return [
        AnalysisResult(
            algorithm="kmca-ind",
            topology=Topology.grid(1, n_units),
            model=None,
            modalities=MapAssignment(
                names, rng.integers(0, n_units, len(names)), n_units
            ),
            individuals=MapAssignment(
                tuple(ds.individuals), rng.integers(0, n_units, ds.n_individuals),
                n_units,
            ),
            provenance={"dataset_sha256": "x", "config": {}},
            qe_log=[],
            unit_distances=np.zeros((n_units, n_units)),
        )
        for _ in range(n_runs)
    ]


def test_stability_pairs_match_dense_co_assignment():
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, n=300, sizes=(3, 4, 2, 5))
    runs = random_runs(rng, ds, n_runs=3, n_units=12)
    report = stability_report(runs, None, ds)
    groups = list(report["individual_groups"])
    _, rep = np.unique(ds.cells, axis=0, return_index=True)
    rep = np.sort(rep)
    co = sum(
        r.individuals.units[rep][:, np.newaxis] == r.individuals.units[rep]
        for r in runs
    )
    want = [
        (f"{groups[a]}|{groups[b]}", co[a, b] / 3)
        for a, b in zip(*np.nonzero(np.triu(co, 1)))
    ]
    assert len(groups) == len(rep) > 100
    assert list(report["individual_pair_co_unit"].items()) == want


def test_stability_of_many_patterns_needs_no_group_matrix():
    # about 3,000 answer patterns: a dense pattern x pattern matrix takes 72 MB
    rng = np.random.default_rng(42)
    ds = random_dataset(rng, n=3000, sizes=(8,) * 6)
    runs = random_runs(rng, ds, n_runs=2, n_units=400)
    tracemalloc.start()
    try:
        report = stability_report(runs, None, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report["individual_groups"]) > 2900
    assert peak < 20e6


def test_parallel_workers_match_serial(tmp_path, capsys):
    a = tmp_path / "serial"
    b = tmp_path / "parallel"
    for out, workers in ((a, "1"), (b, "2")):
        run_json(
            capsys,
            "kdisj", *MARRIAGE,
            "--grid", "3x3", "--iters", "200",
            "--seeds", "2", "--workers", workers,
            "--out", str(out),
        )
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


@pytest.mark.parametrize("algorithm", ["kmca", "kmca-ind"])
def test_lockstep_sweeps_match_single_seed_runs_on_any_worker_count(
        tmp_path, capsys, monkeypatch, algorithm):
    """Five seeds in one lockstep sweep, in 2 and in 4 uneven chunks of
    seeds (worker processes), and one seed at a time write the same bytes."""
    monkeypatch.setattr("somcat.cli.os.cpu_count", lambda: 8)
    flags = ["--grid", "3x3", "--iters", "300", "--macro", "3", "--render", "both"]
    outs = {}
    for workers in ("1", "2", "4"):
        outs[workers] = tmp_path / workers
        run_json(capsys, algorithm, *MARRIAGE, *flags, "--seeds", "5",
                 "--workers", workers, "--out", str(outs[workers]))
    for seed in range(5):
        run_json(capsys, algorithm, *MARRIAGE, *flags, "--seed", str(seed),
                 "--out", str(tmp_path / "alone"))
    names = sorted(p.name for p in outs["1"].iterdir())
    assert len(names) == 5 * (5 if algorithm == "kmca" else 6) + 1  # + stability
    for out in (outs["2"], outs["4"]):
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs["1"] / name).read_bytes(), name
    alone = sorted(p.name for p in (tmp_path / "alone").iterdir())
    assert alone == [n for n in names if not n.endswith("stability.json")]
    for name in alone:
        assert (tmp_path / "alone" / name).read_bytes() == (outs["1"] / name).read_bytes()


def test_string_topology_flag(tmp_path, capsys):
    summary = run_json(
        capsys,
        "kmca", *MARRIAGE,
        "--string", "6", "--iters", "200",
        "--out", str(tmp_path),
    )
    base = summary["runs"][0]["base"]
    model = load(tmp_path / f"{base}.model.json")
    assert model["topology"]["kind"] == "string"
    assert model["topology"]["cols"] == 6


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 150, "grid": "2x3"}), encoding="utf-8")
    summary = run_json(
        capsys,
        "kmca", *MARRIAGE,
        "--iters", "999", "--grid", "4x4",
        "--config", str(cfg),
        "--out", str(tmp_path),
    )
    run_info = summary["runs"][0]
    assert run_info["t_max"] == 150
    model = load(tmp_path / f"{run_info['base']}.model.json")
    assert (model["topology"]["rows"], model["topology"]["cols"]) == (2, 3)


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"itres": 10}), encoding="utf-8")
    code, _, err = run(
        capsys, "kmca", *MARRIAGE, "--config", str(cfg), "--out", str(tmp_path)
    )
    assert code == 1
    assert "error:config" in err
    assert str(cfg) in err


@pytest.mark.parametrize("key, value", [
    ("seeds", "two"), ("iters", "many"), ("macro", "few"), ("workers", "all"),
    ("string", "long"), ("eps0", "fast"), ("render", "bogus"), ("iters", 2.7),
    ("uniform_weights", "no"), ("cell_size", 10), ("macro", 0), ("workers", 0),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out"
    try:
        code = main(["kmca", *MARRIAGE, "--iters", "50", "--config", str(cfg),
                     "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code != 0
    assert key in err.replace("-", "_"), err
    assert str(cfg) in err
    assert not out.exists()


def test_outdir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOMCAT_OUTDIR", str(tmp_path))
    run_json(capsys, "ingest", *MARRIAGE)
    assert (tmp_path / "marriages.dataset.json").exists()


# ------------------------------------------------------- downstream commands

@pytest.fixture()
def trained(tmp_path, capsys):
    run_json(
        capsys,
        "kdisj", *MARRIAGE,
        "--grid", "3x3", "--iters", "300",
        "--out", str(tmp_path),
    )
    return tmp_path, tmp_path / "marriages.kdisj.0.result.json"


def test_macro_command(trained, capsys):
    outdir, result = trained
    summary = run_json(
        capsys, "macro", "--result", str(result), "--macro", "4", "--render", "text"
    )
    assert summary["k"] == 4
    base = summary["base"]
    assert (outdir / f"{base}.macro.json").exists()
    assert (outdir / f"{base}.dendrogram.json").exists()
    assert (outdir / f"{base}.txt").exists()


def test_pies_command(trained, capsys):
    outdir, result = trained
    summary = run_json(
        capsys,
        "pies", "--result", str(result), *MARRIAGE, "--variable", "wife",
    )
    assert summary["global_counts"] == [16, 15, 13, 50, 144, 32]
    base = summary["base"]
    assert (outdir / f"{base}.pies.wife.json").exists()
    assert (outdir / f"{base}.pies.wife.svg").exists()


def test_pies_external_csv(trained, capsys, tmp_path):
    import somcat

    outdir, result = trained
    lines = ["id,flag"]
    for i, ident in enumerate(somcat.marriage_dataset().individuals):
        lines.append(f"{ident},{'even' if i % 2 == 0 else 'odd'}")
    ext = tmp_path / "flag.csv"
    ext.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = run_json(
        capsys,
        "pies", "--result", str(result),
        "--external", str(ext), "--column", "flag",
    )
    assert sorted(summary["labels"]) == ["even", "odd"]
    assert sum(summary["global_counts"]) == 270


def test_pies_rejects_wrong_dataset(trained, capsys, tmp_path):
    _, result = trained
    other = tmp_path / "other.csv"
    other.write_text("id,a,b\nx,1,2\ny,2,1\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        "pies", "--result", str(result),
        "--data", str(other), "--variable", "a",
    )
    assert code == 1
    assert "error:" in err


def test_render_command_reads_result_without_model(trained, capsys):
    outdir, result = trained
    summary = run_json(capsys, "render", "--result", str(result), "--render", "both")
    base = summary["base"]
    assert (outdir / f"{base}.svg").exists()
    assert (outdir / f"{base}.txt").exists()


def test_result_with_members_key_loads_and_renders_as_before(trained, capsys):
    """Results written before the ``members`` key was dropped still load, and
    the key plays no part in what they draw."""
    outdir, result = trained
    blob = load(result)
    legacy_dir = outdir / "legacy"
    legacy_dir.mkdir()
    for family in ("modalities", "individuals"):
        packed = blob[family]
        assert set(packed) == {"items", "units"}
        members = {}
        for item, unit in zip(packed["items"], packed["units"]):
            members.setdefault(str(unit), []).append(item)
        packed["members"] = dict(sorted(members.items(), key=lambda kv: int(kv[0])))
    legacy = legacy_dir / result.name
    legacy.write_text(json.dumps(blob, indent=2), encoding="utf-8")

    old = AnalysisResult.from_json(load(legacy))
    new = AnalysisResult.from_json(load(result))
    for family in ("modalities", "individuals"):
        a, b = getattr(old, family), getattr(new, family)
        assert a.labels == b.labels and np.array_equal(a.units, b.units)
    drawn = {}
    for path in (result, legacy):
        summary = run_json(capsys, "render", "--result", str(path), "--render", "both")
        names = [f"{summary['base']}.{ext}" for ext in ("svg", "txt")]
        drawn[path] = [(path.parent / name).read_bytes() for name in names]
    assert drawn[result] == drawn[legacy]


def test_pies_and_render_read_only_the_result(trained, capsys):
    outdir, result = trained
    (outdir / "marriages.kdisj.0.model.json").write_text("{not json", encoding="utf-8")
    run_json(capsys, "pies", "--result", str(result), *MARRIAGE, "--variable", "wife")
    run_json(capsys, "render", "--result", str(result), "--render", "both")
    run_json(capsys, "macro", "--result", str(result), "--macro", "3")


@pytest.mark.parametrize("algorithm", ["kmca", "kmca-ind", "kdisj"])
def test_macro_reads_the_result_alone(tmp_path, capsys, algorithm):
    """``macro`` on a stored result whose model file is gone writes the cut
    the training run wrote, byte for byte; the result's unit distances are
    those from the saved model's code vectors to the occupied units' (the
    individuals' units when mapped, else the modalities'), bit for bit."""
    trained, recut = tmp_path / "trained", tmp_path / "recut"
    run_json(capsys, algorithm, *MARRIAGE, "--grid", "3x3", "--iters", "300",
             "--macro", "4", "--render", "none", "--out", str(trained))
    base = trained / f"marriages.{algorithm}.0"
    code = np.asarray(load(f"{base}.model.json")["code_vectors"])
    result = load(f"{base}.result.json")
    held = np.unique((result["individuals"] or result["modalities"])["units"])
    stored = np.asarray(result["unit_distances"])
    assert np.array_equal(stored, _squared_distances(code, code[held]))
    os.remove(f"{base}.model.json")
    run_json(capsys, "macro", "--result", f"{base}.result.json", "--macro", "4",
             "--out", str(recut))
    written = recut / f"marriages.{algorithm}.0.macro.json"
    assert written.read_bytes() == (trained / written.name).read_bytes()


def test_render_with_macro_file(trained, capsys):
    outdir, result = trained
    macro_summary = run_json(
        capsys, "macro", "--result", str(result), "--macro", "3", "--render", "none"
    )
    macro_file = outdir / f"{macro_summary['base']}.macro.json"
    summary = run_json(
        capsys,
        "render", "--result", str(result),
        "--macro-file", str(macro_file), "--render", "svg",
    )
    svg = (outdir / f"{summary['base']}.svg").read_text(encoding="utf-8")
    assert "class 0" in svg  # macro legend present


def test_render_rejects_a_model_file_given_as_result(trained, capsys):
    outdir, _ = trained
    model = outdir / "marriages.kdisj.0.model.json"
    code, _, err = run(capsys, "render", "--result", str(model))
    assert code == 1
    assert err.startswith("error:data:")


def test_a_result_stores_distances_to_its_occupied_units_only(tmp_path, capsys):
    """On a map of 100 units kmca's 12 modalities occupy at most 12, and
    the result holds the distances from every unit to those alone: U x L,
    not U x U.  ``macro`` re-cuts it byte for byte.  A uniform-weight cut
    clusters every unit, so only the training run, which still holds the
    code vectors, makes it; ``macro`` has no such flag."""
    run_json(capsys, "kmca", *MARRIAGE, "--grid", "10x10", "--iters", "200",
             "--macro", "3", "--render", "none", "--out", str(tmp_path))
    base = tmp_path / "marriages.kmca.0"
    stored = load(f"{base}.result.json")
    held = np.unique(stored["modalities"]["units"])
    vectors = np.asarray(load(f"{base}.model.json")["code_vectors"])
    assert held.size <= 12
    assert np.array_equal(np.asarray(stored["unit_distances"]),
                          _squared_distances(vectors, vectors[held]))
    recut = tmp_path / "recut"
    run_json(capsys, "macro", "--result", f"{base}.result.json", "--macro", "3",
             "--out", str(recut))
    name = "marriages.kmca.0.macro.json"
    assert (recut / name).read_bytes() == (tmp_path / name).read_bytes()

    uniform = tmp_path / "uniform"
    run_json(capsys, "kmca", *MARRIAGE, "--grid", "10x10", "--iters", "200",
             "--macro", "3", "--uniform-weights", "--render", "none",
             "--out", str(uniform))
    want = cut(ward_cluster(_squared_distances(vectors, vectors), np.ones(100),
                            Topology.grid(10, 10)), 3)
    assert load(uniform / name) == want.to_json()
    with pytest.raises(SystemExit) as exc:
        main(["macro", "--result", f"{base}.result.json", "--macro", "3",
              "--uniform-weights"])
    assert exc.value.code == 2


def without(path, *keys):
    """The JSON file at ``path`` with its entry at ``keys`` deleted."""
    data = load(path)
    node = data
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    return json.dumps(data)


def a_cut(label=1, **changes):
    """A 3-class cut of the 3x3 map whose unit 4 carries ``label``, with
    ``changes`` to its other keys."""
    labels = [0, 0, 0, 1, label, 1, 2, 2, 2]
    return json.dumps({"k": 3, "labels": labels,
                       "classes": [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
                       "connected": [True, True, True], **changes})


def with_entry(path, value, *keys):
    """The JSON file at ``path`` with its entry at ``keys`` set to ``value``
    (a NaN is written as json writes it, ``NaN``)."""
    data = load(path)
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(data)


def a_dataset(cells=((0, 1), (1, 0)), modalities=("x", "y"), individuals=("a", "b")):
    """A dataset of two individuals and two variables, with ``cells``, the
    first variable's ``modalities`` and ``individuals`` as given."""
    return json.dumps({"individuals": individuals, "cells": cells,
                       "variables": [{"name": "v", "modalities": modalities},
                                     {"name": "w", "modalities": ["x", "y"]}]})


def with_distances_cut(path):
    """The result at ``path`` with the last row of its unit distances cut."""
    data = load(path)
    data["unit_distances"] = data["unit_distances"][:-1]
    return json.dumps(data)


# Malformed entries of a stored result and of a dataset, each with the key
# its error names.
RESULT_KEYS = {"qe-log-str": "qe_log", "qe-log-entry-str": "qe_log",
               "topology-rows-str": "rows", "topology-rows-float": "rows",
               "packed-items-int": "items"}
DATASET_KEYS = {"dataset-cell-str": "cells", "dataset-row-short": "cells",
                "dataset-cell-float": "cells", "dataset-cell-bool": "cells",
                "dataset-modalities-str": "modalities",
                "dataset-individuals-str": "individuals"}


@pytest.mark.parametrize("case", ["macro-list", "render-macro-file", "train-data",
                                  "pies-data", "result-no-distances",
                                  "unnamed-variable", "topology-kind",
                                  "provenance-qe-log", "packed-units",
                                  "result-distances-shape",
                                  "result-distances-negative", "result-distances-nan",
                                  "result-distances-null", "packed-units-range",
                                  "packed-units-str", "macro-label-above-k",
                                  "macro-label-negative", "macro-label-list",
                                  "macro-label-float", "macro-k-float",
                                  "macro-connected-number", *RESULT_KEYS,
                                  *DATASET_KEYS])
def test_a_file_of_the_wrong_kind_is_a_data_error(trained, capsys, case):
    outdir, result = trained
    listing = outdir / "list.json"
    listing.write_text("[1, 2]\n", encoding="utf-8")
    unnamed = outdir / "unnamed.dataset.json"
    unnamed.write_text(json.dumps({"individuals": ["a"], "cells": [[0]],
                                   "variables": [{"modalities": ["x", "y"]}]}))
    broken = outdir / "broken.json"
    broken.write_text({
        "topology-kind": without(result, "topology", "kind"),
        "provenance-qe-log": without(result, "provenance", "qe_log"),
        "packed-units": without(result, "modalities", "units"),
        "result-no-distances": without(result, "unit_distances"),
        "result-distances-shape": with_distances_cut(result),
        "result-distances-negative": with_entry(result, -1.0, "unit_distances", 0, 1),
        "result-distances-nan": with_entry(result, float("nan"), "unit_distances", 0, 1),
        "result-distances-null": with_entry(result, None, "unit_distances", 0, 1),
        "packed-units-range": with_entry(result, 99, "individuals", "units", 0),
        "packed-units-str": with_entry(result, "0", "individuals", "units", 0),
        "macro-label-above-k": a_cut(7),
        "macro-label-negative": a_cut(-1),
        "macro-label-list": a_cut([1]),
        "macro-label-float": a_cut(1.5),
        "macro-k-float": a_cut(k=2.9),
        "macro-connected-number": a_cut(connected=[True, 1, True]),
        "qe-log-str": with_entry(result, "x", "provenance", "qe_log"),
        "qe-log-entry-str": with_entry(result, [[0, "a"]], "provenance", "qe_log"),
        "topology-rows-str": with_entry(result, "4", "topology", "rows"),
        "topology-rows-float": with_entry(result, 4.0, "topology", "rows"),
        "packed-items-int": with_entry(result, 5, "modalities", "items"),
        "dataset-cell-str": a_dataset(cells=[[0, "a"], [1, 0]]),
        "dataset-row-short": a_dataset(cells=[[0, 1], [0]]),
        "dataset-cell-float": a_dataset(cells=[[0, 1], [0.5, 0]]),
        "dataset-cell-bool": a_dataset(cells=[[0, 1], [True, 0]]),
        "dataset-modalities-str": a_dataset(modalities="abcdef"),
        "dataset-individuals-str": a_dataset(individuals="ab"),
    }.get(case, ""), encoding="utf-8")
    before = sorted(outdir.iterdir())
    argv = {
        "macro-list": ["macro", "--result", str(listing), "--macro", "2"],
        "render-macro-file": ["render", "--result", str(result),
                              "--macro-file", str(result)],
        "train-data": ["kmca", "--data", str(result), "--out", str(outdir)],
        "pies-data": ["pies", "--result", str(result), "--variable", "wife",
                      "--data", str(result)],
        "result-no-distances": ["macro", "--result", str(broken), "--macro", "2"],
        "unnamed-variable": ["kmca", "--data", str(unnamed), "--out", str(outdir)],
        "topology-kind": ["render", "--result", str(broken)],
        "provenance-qe-log": ["render", "--result", str(broken)],
        "packed-units": ["render", "--result", str(broken)],
        "result-distances-shape": ["macro", "--result", str(broken), "--macro", "2"],
        "result-distances-negative": ["macro", "--result", str(broken), "--macro", "2"],
        "result-distances-nan": ["macro", "--result", str(broken), "--macro", "2"],
        "result-distances-null": ["macro", "--result", str(broken), "--macro", "2"],
        "packed-units-range": ["render", "--result", str(broken)],
        "packed-units-str": ["render", "--result", str(broken)],
        **{key: ["render", "--result", str(broken)] for key in RESULT_KEYS},
        **{key: ["kmca", "--data", str(broken), "--out", str(outdir)]
           for key in DATASET_KEYS},
    }.get(case, ["render", "--result", str(result), "--macro-file", str(broken)])
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:data: not a"), err
    if case.startswith("result-"):
        assert "unit_distances" in err
    assert RESULT_KEYS.get(case, DATASET_KEYS.get(case, "")) in err
    assert sorted(outdir.iterdir()) == before


def test_render_rejects_a_macro_file_of_a_smaller_map(trained, capsys):
    outdir, result = trained
    small = outdir / "small"
    run_json(capsys, "kmca", *MARRIAGE, "--grid", "2x2", "--iters", "50",
             "--macro", "2", "--render", "none", "--out", str(small))
    code, _, err = run(
        capsys, "render", "--result", str(result),
        "--macro-file", str(small / "marriages.kmca.0.macro.json"),
    )
    assert code == 1
    assert err.startswith("error:config:")


# --------------------------------------------------------------------- report

def test_report_runs_all_algorithms(tmp_path, capsys):
    summary = run_json(
        capsys,
        "report", *MARRIAGE,
        "--grid", "3x3", "--iters", "250",
        "--seeds", "2", "--workers", "1",
        "--out", str(tmp_path),
    )
    report = load(tmp_path / "marriages.report.json")
    assert set(report["algorithms"]) == {"kmca", "kmca-ind", "kdisj"}
    for algo, block in report["algorithms"].items():
        assert len(block["runs"]) == 2
        assert block["stability"] is not None
    csv_text = (tmp_path / "marriages.report.csv").read_text(encoding="utf-8")
    lines = [l for l in csv_text.strip().splitlines() if l]
    assert lines[0].startswith("algorithm,seed,")
    assert len(lines) == 1 + 6  # header + 3 algorithms x 2 seeds


def test_report_without_algorithms_is_a_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "report", *MARRIAGE, "--algorithms", ",", "--out", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error:config:")


def test_report_with_a_repeated_algorithm_is_a_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "report", *MARRIAGE, "--algorithms", "kmca,kdisj,kmca",
                       "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:config:") and "'kmca'" in err, err
    assert list(tmp_path.iterdir()) == []


def test_report_with_zero_seeds_is_a_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "report", *MARRIAGE, "--seeds", "0", "--out", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error:config:")


def test_train_with_zero_seeds_is_a_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "kmca", *MARRIAGE, "--seeds", "0", "--out", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error:config:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--c0", "inf"), ("--c0", "nan"), ("--string", "0"),
])
def test_train_with_a_bad_schedule_value_is_a_config_error(tmp_path, capsys,
                                                           flag, value):
    code, _, err = run(capsys, "kmca", *MARRIAGE, flag, value, "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:config:")
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- determinism

def test_identical_cli_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = [
        "kdisj", *MARRIAGE,
        "--grid", "3x3", "--iters", "300",
        "--macro", "3", "--render", "both",
    ]
    run_json(capsys, *argv, "--out", str(a))
    run_json(capsys, *argv, "--out", str(b))
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
