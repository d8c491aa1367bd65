"""End-to-end runs of the command line interface."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import random_dataset
from somcat.analyses import AnalysisResult
from somcat.cli import main, stability_report
from somcat.jsonio import load
from somcat.som import MapAssignment, Topology

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
    assert result["model_file"] == f"{base}.model.json"


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
        )
        for _ in range(n_runs)
    ]


def test_stability_pairs_match_dense_co_assignment():
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, n=300, sizes=(3, 4, 2, 5))
    runs = random_runs(rng, ds, n_runs=3, n_units=12)
    report = stability_report(runs, ds=ds)
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
        report = stability_report(runs, ds=ds)
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
    code, _, err = run(capsys, "macro", "--result", str(result), "--macro", "3")
    assert code == 1
    assert err.startswith("error:io:")


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
