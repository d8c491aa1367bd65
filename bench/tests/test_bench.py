"""Tests of the benchmark itself (not of somcat).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import somcat.cli  # noqa: E402,F401  (the tracer patches every loaded somcat module)
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny-survey", why="smoke", source="uniform", grid="3x3", seeds=2,
    iters=60, n_individuals=40, n_questions=3, n_choices=3,
)


def _namespaces() -> dict:
    """Every attribute of every somcat module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "somcat" or name.startswith("somcat.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("somcat"):
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


def test_tracer_wraps_every_namespace_and_restores_all():
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _namespaces()
        assert during[("somcat.som", "train")] is not before[("somcat.som", "train")]
        assert during[("somcat.analyses", "train")] is during[("somcat.som", "train")]
        assert during[("somcat.cli", "to_disjunctive")] is not before[
            ("somcat.cli", "to_disjunctive")]
        assert during[("somcat.dataset", "CategoricalDataset", "from_json")] is not before[
            ("somcat.dataset", "CategoricalDataset", "from_json")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _tiny_config(tmp_path: Path) -> tuple[dict, Path, "checks.Facts"]:
    csv_path = tmp_path / "survey.csv"
    workloads.write_survey_csv(TINY, workloads.survey_answers(TINY, 3), csv_path)
    child.ingest(str(csv_path), tmp_path / "data")
    (ds_json,) = (tmp_path / "data").glob("*.dataset.json")
    facts = checks.Facts(ds_json, TINY.grid, [3, 4])
    cfg = {"grid": TINY.grid, "iters": TINY.iters, "seed": 3, "seeds": TINY.seeds,
           "name": facts.name, "variable": facts.variables[0]}
    return cfg, ds_json, facts


def _checker(cfg, keep: Path) -> "child.Checker":
    return child.Checker(cfg["name"], child.seed_list(cfg), cfg["variable"], keep)


def _commands(cfg, ds_json, rdir):
    return [cmd for step in child.steps(cfg, ds_json, rdir) for cmd in step]


def _round(cfg, ds_json, rdir, checker, tracer=None):
    out = {}
    for label, argv, outdir in _commands(cfg, ds_json, rdir):
        res = child.call_cli(argv, tracer)
        assert res["error"] is None, res["error"]
        reason, hashes = checker.check(label, outdir)
        assert reason is None, reason
        out[label] = (hashes, res["trace"])
    return out


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    cfg, ds_json, facts = _tiny_config(tmp_path)
    checker = _checker(cfg, tmp_path / "keep")
    plain = _round(cfg, ds_json, tmp_path / "plain", checker)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _round(cfg, ds_json, tmp_path / "traced", checker, tracer)
    finally:
        tracer.uninstall()
    assert {k: v[0] for k, v in traced.items()} == {k: v[0] for k, v in plain.items()}
    for label, (_, summary) in traced.items():
        assert sum(summary["self_wall"].values()) == pytest.approx(summary["wall"], abs=1e-6)
    reason, quality = checks.invariants(facts, "kdisj", tmp_path / "keep" / "kdisj")
    assert reason is None, reason
    kdisj_trace = traced["kdisj"][1]
    assert kdisj_trace["calls"]["train_step"][0] == sum(quality["t_max"])
    assert kdisj_trace["calls"]["bmu"][0] == sum(quality["t_max"])
    assert kdisj_trace["calls"]["quantization_error"][0] == 11 * len(facts.seeds)
    # kdisj's modality assignment: M rows x U units x N wide, in one chunk.
    assert kdisj_trace["counters"]["distance_temp_bytes"] == facts.m * 9 * facts.n * 8


def test_checker_flags_changed_bytes(tmp_path):
    cfg, ds_json, _ = _tiny_config(tmp_path)
    checker = _checker(cfg, tmp_path / "keep")
    _round(cfg, ds_json, tmp_path / "a", checker)
    rdir = tmp_path / "b"
    for label, argv, outdir in _commands(cfg, ds_json, rdir):
        assert child.call_cli(argv)["error"] is None
        if label == "render":
            (victim,) = outdir.glob("*.txt")
            victim.write_text(victim.read_text() + " ")
            assert "byte-identical" in checker.check(label, outdir)[0]
            victim.unlink()
            assert "missing" in checker.check(label, outdir)[0]


def test_broken_invariant_fails_every_execution_that_reproduced_it(tmp_path):
    cfg, ds_json, facts = _tiny_config(tmp_path)
    checker = _checker(cfg, tmp_path / "keep")
    _round(cfg, ds_json, tmp_path / "a", checker)
    _round(cfg, ds_json, tmp_path / "b", checker)
    macro = tmp_path / "keep" / "macro" / f"{facts.name}.kdisj.3.macro.json"
    data = json.loads(macro.read_text())
    data["labels"] = [0] * len(data["labels"])
    macro.write_text(json.dumps(data))
    res = {"kept": {k: str(tmp_path / "keep" / k) for k in checker.reference},
           "repeats": checker.repeats, "failed": 0, "failures": []}
    run.verify(res, facts)
    assert res["failed"] == 2
    assert [f["command"] for f in res["failures"]] == ["macro"]
    assert set(res["quality"]) == set(checks.ALGORITHMS)


def test_calibration_measures_a_positive_wrapper_cost():
    cal = spans.Tracer().calibrate(calls=200, reps=3)
    for kind in ("plain", "bmu"):
        assert cal[kind]["inner"] + cal[kind]["outer"] > 0


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(monkeypatch, trace, kind):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", TINY.name, "--seed", "5", "--seconds", "0.1",
                       "--trace", str(trace)])
    assert rc == 0
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 12
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    assert got == _declared(kind)
    # Every timing sample carries the host reference it is scaled by.
    full = json.loads((ROOT / ".bench_out" / f"{TINY.name}-seed5-trace{trace}.json").read_text())
    for r in full["rounds"]:
        assert {k: len(v) for k, v in r["refs"].items()} == {
            k: len(v) for k, v in r["walls"].items()}
        assert all(x > 0 for v in r["refs"].values() for x in v)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "marriage-report", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
