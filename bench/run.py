"""somcat benchmark: one workload per invocation, measured end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/somcat`` beside ``bench``).  The
script generates the workload's input from the seed and runs one fresh child
process that repeats the command sequence for S seconds as a closed loop of
``somcat.cli.main`` calls; that child takes the set-up time in fresh
processes between its steps.  The script then checks the invariants of the artifacts that child kept.  It prints a report and, as its
last line, one JSON object with the correctness verdict and the metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
See bench/README.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
from checks import ALGORITHMS
from child import seed_list
from workloads import WORKLOADS, survey_answers, write_survey_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RELOAD = ("macro", "pies", "render")
# ``child.host_reference``'s median time on the baseline host (BASELINE.md).
REFERENCE_S = 0.035


def time_limit(seconds: float) -> float:
    """Seconds all child processes of one run may take together."""
    return 100 + 2 * seconds


def spawn(mode: str, cfg_path: Path, out_path: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("SOMCAT_OUTDIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, str(cfg_path), str(out_path)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(out_path.read_text())


def timing(values: list[float]) -> dict:
    """Median, sample count and, when at least ten samples lie beyond it,
    the highest such percentile."""
    out = {"median": median(values), "n": len(values)}
    if len(values) >= 20:
        q = 1.0 - 10.0 / len(values)
        ranked = sorted(values)
        out[f"p{100 * q:.0f}"] = ranked[int(q * (len(values) - 1))]
    return out


def normalised(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time scaled to the baseline host's speed.

    ``refs`` holds, for each sample, the time of ``child.host_reference``
    taken around it.  The host's speed drifts by a quarter and more over
    minutes, on every timing at once; the ratio to the reference cancels
    that drift, and a change to somcat moves it as it moves the wall time.
    """
    return [w * REFERENCE_S / r for w, r in zip(walls, refs)]


def _samples(rounds: list[dict], labels) -> tuple[float, list[float], list[float]]:
    """(first call, warm samples, their references) of a step: one command,
    or several run back to back as one unit (their walls summed per
    repetition; they share one reference)."""
    per_rep = [sum(ws) for r in rounds for ws in zip(*(r["walls"][x] for x in labels))]
    refs = [x for r in rounds for x in r["refs"][labels[0]]]
    return per_rep[0], per_rep[1:], refs[1:]


def end_to_end(res: dict) -> tuple[dict, dict]:
    """(metrics for the result line, report entries with sample counts).

    A command's timing is the median of its samples scaled by
    ``normalised``; ``wall_median`` is the median of the unscaled samples,
    ``first`` the unscaled first call.  ``setup_s`` is the median of the
    unscaled set-up samples: the reference does not track set-up (see
    README).
    """
    rounds = res["rounds"]
    report = {"setup_s": {"unit": "s", **timing(res["setup_probes"])}}
    steps = {f"{a.replace('-', '_')}_s": (a,) for a in ALGORITHMS}
    steps["reload_s"] = RELOAD
    for key, labels in steps.items():
        first, warm, refs = _samples(rounds, labels)
        report[key] = {"unit": "s", **timing(normalised(warm, refs)),
                       "wall_median": median(warm), "first": first}
    all_refs = [x for r in rounds for v in r["refs"].values() for x in v]
    report["host_speed"] = {"unit": "ratio", "median": REFERENCE_S / median(all_refs),
                            "n": len(all_refs)}
    report["peak_rss_mb"] = {"unit": "MB", "median": res["peak_rss_kb"] * 1024 / 1e6, "n": 1}
    metrics = {k: {"value": v["median"], "unit": v["unit"]}
               for k, v in report.items() if k != "host_speed"}
    return metrics, report


def _round_totals(record: dict) -> dict:
    """Sum one traced round's per-command summaries."""
    calls, self_wall, self_cpu, counters = {}, {}, {}, {}
    for t in record["traces"].values():
        for name, (n, wall, cpu, mx) in t["calls"].items():
            c = calls.setdefault(name, [0, 0.0, 0.0, 0.0])
            c[0] += n
            c[1] += wall
            c[2] += cpu
            c[3] = max(c[3], mx)
        for layer, v in t["self_wall"].items():
            self_wall[layer] = self_wall.get(layer, 0.0) + v
        for layer, v in t["self_cpu"].items():
            self_cpu[layer] = self_cpu.get(layer, 0.0) + v
        for key, v in t["counters"].items():
            if key == "distance_temp_bytes":
                counters[key] = max(counters.get(key, 0), v)
            else:
                counters[key] = counters.get(key, 0) + v
    return {"calls": calls, "self_wall": self_wall, "self_cpu": self_cpu,
            "counters": counters, "calibration": record["calibration"]}


def _layer_values(t: dict) -> dict:
    def n(*names):
        return sum(t["calls"].get(x, (0,))[0] for x in names)

    def s(*names):
        return sum(t["calls"].get(x, (0, 0.0))[1] for x in names)

    def per_call_us(total, count):
        return 1e6 * total / count if count else 0.0

    # Per-call figures without the per-step wrappers' own cost: ``inner``
    # is inside a call's recorded time, ``outer`` lands in its caller's.
    cal = t["calibration"]
    bmu_in, bmu_out = cal["bmu"]["inner"], cal["bmu"]["outer"]
    step_in, step_out = cal["plain"]["inner"], cal["plain"]["outer"]
    steps, searches = n("train_step"), n("bmu")
    draws = ("UniformRowSampler.draw", "KdisjSampler.draw")
    draw_time = (s(*draws) - n(*draws) * step_in
                 - n("kdisj_associate") * (step_in + step_out))
    out = {
        "dataset.load_s": s("ingest_csv", "marriage_dataset",
                            "CategoricalDataset.from_json"),
        "dataset.encode_calls": n("to_disjunctive"),
        "dataset.encode_s": s("to_disjunctive"),
        "dataset.from_json_calls": n("CategoricalDataset.from_json"),
        "tables.s": s("burt", "corrected_burt", "corrected_disjunctive"),
        "som.steps": steps,
        "som.step_us": per_call_us(
            s("train_step") - steps * step_in - searches * (bmu_in + bmu_out), steps),
        "som.search_us": per_call_us(s("bmu") - searches * bmu_in, searches),
        "som.update_us": per_call_us(
            s("train_step") - steps * step_in - s("bmu") - searches * bmu_out, steps),
        "som.qe_calls": n("quantization_error"),
        "som.qe_s": s("quantization_error"),
        "som.assign_s": s("assign"),
        "som.distance_evals": t["counters"].get("distance_evals", 0),
        "som.distance_temp_mb": t["counters"].get("distance_temp_bytes", 0) / 1e6,
        "som.model_json_s": s("SomModel.to_json", "SomModel.from_json"),
        "analyses.draw_us": per_call_us(draw_time, n(*draws)),
        "analyses.mean_vectors_s": s("modality_mean_vectors"),
        "analyses.deviations_s": s("deviations"),
        "macrocluster.ward_s": s("ward_cluster"),
        "macrocluster.cut_s": s("cut"),
        "render.s": s("render_map", "render_text", "render_pies"),
        "crossing.s": s("cross", "external_from_dataset", "external_from_csv"),
        "jsonio.dump_s": s("dumps"),
        "jsonio.write_s": s("write_atomic"),
        "jsonio.bytes_written": t["counters"].get("bytes_written", 0),
        "jsonio.load_s": s("load"),
        "jsonio.bytes_read": t["counters"].get("bytes_read", 0),
        "cli.stability_s": s("stability_report"),
        "trace.wrapper_us": 1e6 * (bmu_in + bmu_out),
    }
    for layer, wall in t["self_wall"].items():
        out[f"{layer}.self_s"] = wall
        out[f"{layer}.wait_s"] = wall - t["self_cpu"][layer]
    return out


UNITS = {"_s": "s", "_us": "us", "_calls": "count", "steps": "count",
         "_evals": "count", "_mb": "MB", "bytes_written": "B", "bytes_read": "B"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s" if name.endswith(".s") else "count"


def quality(res: dict) -> dict:
    """Map quality read from the artifacts: deterministic for a given seed."""
    out = {}
    for algo, q in res["quality"].items():
        out[f"som.qe_final.{algo}"] = {"unit": "sq_dist", "median": q["qe_final"], "n": 1}
        if algo != "kmca":
            out[f"analyses.own_positive_share.{algo}"] = {
                "unit": "share", "median": q["own_positive_share"], "n": 1}
    return out


def per_layer(res: dict) -> tuple[dict, dict]:
    rounds = res["rounds"]
    traced = [r for r in rounds if r["traced"]]
    warm_traced = [r for r in traced if r["index"] > 0]
    warm_plain = [r for r in rounds if not r["traced"] and r["index"] > 0]
    per_round = [_layer_values(_round_totals(r)) for r in warm_traced]
    report = {}
    for name in per_round[0]:
        report[name] = {"unit": unit_of(name), **timing([v[name] for v in per_round])}
    first_ward = rounds[0]["traces"]["kdisj"]["first"]["ward_cluster"]
    report["macrocluster.ward_first_s"] = {"unit": "s", "median": first_ward[0], "n": 1}
    report["macrocluster.ward_wait_s"] = {
        "unit": "s", "median": first_ward[0] - first_ward[1], "n": 1}
    report["cli.reload_s"] = {"unit": "s", **timing(
        [sum(r["walls"][c][0] for c in RELOAD) for r in warm_traced])}
    first_cmd = rounds[0]["walls"][ALGORITHMS[0]][0]
    report["cli.first_command_s"] = {"unit": "s", "median": first_cmd, "n": 1}
    traced_wall = median(sum(map(sum, r["walls"].values())) for r in warm_traced)
    plain_wall = median(sum(map(sum, r["walls"].values())) for r in warm_plain)
    report["trace.overhead_s"] = {"unit": "s", "median": traced_wall - plain_wall,
                                  "n": len(warm_traced), "untraced_round_s": plain_wall}
    report.update(quality(res))
    # Reported, but not on the result line: it is exactly 0 on the one-seed
    # workloads, which never build a stability report.
    metrics = {k: {"value": v["median"], "unit": v["unit"]}
               for k, v in report.items() if k != "cli.stability_s"}
    return metrics, report


def verify(res: dict, facts: checks.Facts) -> None:
    """Check the invariants of each command's kept first artifacts.

    A broken invariant fails that execution and every later one that
    reproduced its bytes.  Adds the map quality of the training commands.
    """
    res["quality"] = {}
    for label, kept in res["kept"].items():
        reason, quality = checks.invariants(facts, label, Path(kept))
        if reason is not None:
            count = 1 + res["repeats"][label]
            res["failed"] += count
            res["failures"].append({"command": label, "executions": count,
                                    "reason": reason})
        elif quality is not None:
            res["quality"][label] = quality


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "somcat" / "__init__.py").is_file():
        print(f"error: no somcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        if w.source == "marriages":
            source = "builtin:marriages"
        else:
            source = str(work / "survey.csv")
            write_survey_csv(w, survey_answers(w, args.seed), Path(source))
        cfg = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
               "trace": bool(args.trace), "source": source, "grid": w.grid,
               "seeds": w.seeds, "iters": w.iters, "work": str(work),
               "spans": str(outdir / f"{tag}.spans.jsonl")}
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        limit = time_limit(args.seconds)

        # A first set-up process warms the file cache for the imports and
        # ingests the input for the checks; it is not a set-up sample.
        warm = spawn("setup", cfg_path, work / "setup-warm.json", limit)
        facts = checks.Facts(Path(warm["dataset"]), w.grid, seed_list(cfg))
        cfg.update(name=facts.name, variable=facts.variables[0])
        cfg_path.write_text(json.dumps(cfg))
        res = spawn("run", cfg_path, work / "run.json",
                    limit - (time.monotonic() - started))
        verify(res, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, report = per_layer(res)
    else:
        metrics, report = end_to_end(res)
    correct = res["failed"] == 0 and not res["trace_inconsistent"]
    full = {
        "workload": w.name, "why": w.why, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "failed_share": res["failed"] / res["attempted"],
        "failures": res["failures"], "trace_inconsistent": res["trace_inconsistent"],
        "rounds": [{k: r[k] for k in ("index", "traced", "walls", "cpu", "refs")}
                   for r in res["rounds"]],
        "loop_s": res["loop_s"],
        "setup_samples_s": res["setup_probes"], "child_setup": res["setup"],
        "input": {"individuals": facts.n, "variables": facts.k,
                  "modalities": facts.m, "units": facts.units,
                  "distinct_pattern_share": facts.distinct_share},
        "environment": res["environment"],
        "quality": quality(res), "metrics": report,
        "artifact_sha256": res["artifact_sha256"],
    }
    (outdir / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    shown = {k: v for k, v in full.items() if k not in ("rounds", "artifact_sha256")}
    print(json.dumps(shown, indent=1))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
