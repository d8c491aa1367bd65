"""One fresh process of the benchmark: set up, then a closed loop of rounds.

Run as ``python3 bench/child.py MODE CONFIG RESULT`` with ``src`` on
``PYTHONPATH``.  MODE ``setup`` only imports somcat and ingests the input
(one set-up sample); ``run.py`` starts one such process before the run, and
the ``run`` process starts more between its steps.  MODE ``run`` then
repeats the command sequence, one ``somcat.cli.main`` call at a time, until
the configured seconds are spent.  It checks that every command wrote exactly its expected
files, keeps a copy of each command's first artifacts for ``run.py`` to
check in full, and requires every later execution to reproduce their bytes.
The result is written as JSON to RESULT.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from checks import ALGORITHMS, RELOAD_MACRO_K, TRAIN_MACRO_K

REPEAT_S = 1.0
MAX_REPEATS = 10
MIN_ROUNDS = 3
PROBE_EVERY_S = 3.0
PROBE_TIMEOUT_S = 30
REF_SHARE = 0.05


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def call_cli(argv: list[str], tracer=None) -> dict:
    """Run one command in-process; time it and catch every way it can fail."""
    import somcat.cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.begin_command()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = somcat.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    trace = tracer.end_command() if tracer is not None else None
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[-500:]}"
    return {"wall": wall, "cpu": cpu, "error": error, "trace": trace}


def ingest(source: str, outdir: Path) -> dict:
    res = call_cli(["ingest", "--data", source, "--out", str(outdir), "--json"])
    if res["error"] is not None:
        raise RuntimeError(f"ingest failed: {res['error']}")
    return res


class Checker:
    """Expected files and byte-identity of each command's artifacts.

    The first execution's artifacts of each command are copied to ``keep``;
    ``run.py`` checks their invariants after this process has ended, so the
    check's memory never counts in this process's peak RSS.  Every later
    execution must reproduce their bytes; ``repeats`` counts those that did.
    """

    def __init__(self, name: str, seeds: list[int], variable: str, keep: Path):
        self.name, self.seeds, self.variable = name, seeds, variable
        self.keep = keep
        self.reference: dict[str, dict[str, str]] = {}
        self.repeats: dict[str, int] = {}

    def check(self, label: str, outdir: Path) -> tuple[str | None, dict[str, str]]:
        """Return (failure reason or None, sha256 by file name)."""
        present = set(os.listdir(outdir)) if outdir.is_dir() else set()
        expected = checks.expected_files(self.name, self.seeds, self.variable, label)
        if present != expected:
            missing = sorted(expected - present)[:3]
            extra = sorted(present - expected)[:3]
            return f"artifacts differ (missing {missing}, extra {extra})", {}
        hashes = {name: _sha256(outdir / name) for name in sorted(present)}
        ref = self.reference.get(label)
        if ref is None:
            shutil.copytree(outdir, self.keep / label)
            self.reference[label] = hashes
            self.repeats[label] = 0
            return None, hashes
        changed = sorted(n for n in hashes if hashes[n] != ref[n])
        if changed:
            return f"artifacts not byte-identical to the first run: {changed[:3]}", hashes
        self.repeats[label] += 1
        return None, hashes


def seed_list(cfg: dict) -> list[int]:
    return [cfg["seed"] + i for i in range(cfg["seeds"])]


def steps(cfg: dict, ds_json: Path, rdir: Path) -> list[list[tuple]]:
    """One pass over the command sequence, in order; a step is a list of
    (label, argv, out dir).

    The three training commands are a step each; the read path on the stored
    kdisj result (macro, pies, render) is one step.
    """
    flags = ["--grid", cfg["grid"], "--seed", str(cfg["seed"]),
             "--seeds", str(cfg["seeds"]), "--workers", "1",
             "--macro", str(TRAIN_MACRO_K), "--render", "both", "--json"]
    if cfg["iters"] is not None:
        flags += ["--iters", str(cfg["iters"])]
    out = [[(algo, [algo, "--data", str(ds_json), *flags, "--out", str(rdir / algo)],
             rdir / algo)] for algo in ALGORITHMS]
    kb = f"{cfg['name']}.kdisj.{cfg['seed']}"
    kres = str(rdir / "kdisj" / f"{kb}.result.json")
    out.append([
        ("macro", ["macro", "--result", kres, "--macro", str(RELOAD_MACRO_K),
                   "--render", "both", "--json", "--out", str(rdir / "macro")],
         rdir / "macro"),
        ("pies", ["pies", "--result", kres, "--data", str(ds_json),
                  "--variable", cfg["variable"], "--json",
                  "--out", str(rdir / "pies")], rdir / "pies"),
        ("render", ["render", "--result", kres, "--macro-file",
                    str(rdir / "macro" / f"{kb}.macro.json"),
                    "--render", "both", "--json", "--out", str(rdir / "render")],
         rdir / "render"),
    ])
    return out


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        env["blas_config"] = blas.get("openblas configuration")
    except (KeyError, TypeError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (
                Path(index, f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    env["caches"] = caches
    return env


def host_reference(at_least: float = 0.0) -> float:
    """Wall time of a fixed piece of work that runs no somcat code.

    A Python integer loop, then a loop of small-array numpy calls shaped
    like one SOM step (distances to 16 units, argmin, one row update): the
    two kinds of work the measured commands spend their time in.  It runs
    between the steps of a round, so each timing sample can be scaled by
    the host's speed at the time it was taken (see ``run.normalised``).
    The work repeats until ``at_least`` seconds have passed, at least once;
    the result is the mean time of one repetition.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    units, rows = rng.random((16, 30)), rng.random((64, 30))
    t0 = time.perf_counter()
    reps = 0
    while reps == 0 or time.perf_counter() - t0 < at_least:
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        for i in range(1500):
            x = rows[i % 64]
            j = int(np.argmin(((units - x) ** 2).sum(axis=1)))
            units[j] += 0.01 * (x - units[j])
        reps += 1
    return (time.perf_counter() - t0) / reps


def setup_probe(cfg_path: Path, out_path: Path) -> float:
    """Set-up time of a fresh ``child.py setup`` process, which inherits
    this one's environment."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", str(cfg_path), str(out_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out_path.read_text())["setup"]["setup_s"]


def run(cfg: dict, cfg_path: Path, ds_json: Path, setup: dict) -> dict:
    """Closed loop of rounds until ``cfg["seconds"]`` are spent.

    A round runs the steps once, in order.  Untraced, each step repeats in
    place until it has taken REPEAT_S, at most MAX_REPEATS times, so cheap
    steps gather as many samples as dear ones; kmca, the cheapest, runs in
    three slots of REPEAT_S / 3 (before kmca-ind, before kdisj, before the
    read path), so its samples spread over the round rather than bunching
    in one phase of the host's drifting speed.  Traced, the rounds
    alternate traced and untraced, one pass each, so a traced round's
    totals count exactly one pass over the sequence.  There are at least
    MIN_ROUNDS rounds, so every step has at least two warm samples.
    Between steps, after the first and then every PROBE_EVERY_S of run
    time, a fresh process takes one set-up sample; the time spent on it is
    left out of the run time.  The reference work is timed before the first
    step and after every step; each sample is stored with the geometric
    mean of the two reference times around it.
    """
    import spans

    work = Path(cfg["work"])
    checker = Checker(cfg["name"], seed_list(cfg), cfg["variable"], work / "keep")
    tracer = spans.Tracer() if cfg["trace"] else None
    rounds, failures, inconsistent = [], [], []
    attempted = 0

    def execute(record: dict, label: str, argv: list[str], outdir: Path) -> float:
        nonlocal attempted
        res = call_cli(argv, tracer if record["traced"] else None)
        attempted += 1
        reason = res["error"] or checker.check(label, outdir)[0]
        if reason is not None:
            failures.append({"round": record["index"], "command": label, "reason": reason})
        wall = res["wall"]
        if record["traced"]:
            t = res["trace"]
            wall = t["wall"]
            gap = abs(sum(t["self_wall"].values()) - wall)
            if gap > 1e-6 * max(wall, 1.0):
                inconsistent.append({"round": record["index"], "command": label, "gap": gap})
            record["traces"][label] = t
        record["walls"].setdefault(label, []).append(wall)
        record["cpu"].setdefault(label, []).append(res["cpu"])
        return wall

    probes: list[float] = []
    paused = last_probe = 0.0
    start = time.perf_counter()
    ref = host_reference()
    spent_in: dict[tuple[int, int], float] = {}

    def run_time() -> float:
        return time.perf_counter() - start - paused

    while True:
        r = len(rounds)
        rdir = work / f"round-{r}"
        record = {"index": r, "traced": tracer is not None and r % 2 == 0,
                  "walls": {}, "cpu": {}, "refs": {}, "traces": {}}
        if record["traced"]:
            tracer.install()
            record["calibration"] = tracer.calibrate()
        try:
            kmca, kmca_ind, kdisj, reload = steps(cfg, ds_json, rdir)
            if tracer:
                plan = [(step, 0.0) for step in (kmca, kmca_ind, kdisj, reload)]
            else:
                third = REPEAT_S / 3
                plan = [(kmca, third), (kmca_ind, REPEAT_S), (kmca, third),
                        (kdisj, REPEAT_S), (kmca, third), (reload, REPEAT_S)]
            for slot, (step, budget) in enumerate(plan):
                spent, repeats = 0.0, 0
                while repeats < MAX_REPEATS and (repeats == 0 or spent < budget):
                    spent += sum(execute(record, *cmd) for cmd in step)
                    repeats += 1
                spent_in[len(plan), slot] = spent
                # The next step's time in the previous round.
                upcoming = spent_in.get((len(plan), (slot + 1) % len(plan)), 0.0)
                # The host's speed around this step's samples: the geometric
                # mean of the reference times just before and just after it.
                # A long step gets long references on both sides, so that one
                # short burst of the host's speed does not stand for all of it.
                after = host_reference(REF_SHARE * max(spent, upcoming))
                for label, _, _ in step:
                    record["refs"].setdefault(label, []).extend(
                        [math.sqrt(ref * after)] * repeats)
                ref = after
                # Set-up samples between steps, every PROBE_EVERY_S of run
                # time, so they spread over the host's drifting speed; their
                # own time is not run time.
                if not probes or run_time() - last_probe >= PROBE_EVERY_S:
                    t0 = time.perf_counter()
                    out = work / f"setup-{len(probes)}.json"
                    probes.append(setup_probe(cfg_path, out))
                    paused += time.perf_counter() - t0
                    last_probe = run_time()
        finally:
            if record["traced"]:
                tracer.uninstall()
        shutil.rmtree(rdir, ignore_errors=True)
        rounds.append(record)
        elapsed = run_time()
        last = sum(map(sum, record["walls"].values()))
        if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * last >= cfg["seconds"]:
            break
    if tracer is not None:
        tracer.write_spans(cfg["spans"])
    return {
        "setup": setup,
        "setup_probes": probes,
        "rounds": rounds,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "trace_inconsistent": inconsistent,
        "artifact_sha256": checker.reference,
        "kept": {label: str(checker.keep / label) for label in checker.reference},
        "repeats": checker.repeats,
        "loop_s": run_time(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }


def main() -> int:
    mode, cfg_path, out_path = sys.argv[1:4]
    cfg = json.loads(Path(cfg_path).read_text())
    t0 = time.perf_counter()
    import somcat.cli  # noqa: F401  (the import is part of set-up time)
    import_s = time.perf_counter() - t0
    data_dir = Path(cfg["work"]) / f"data-{mode}-{os.getpid()}"
    ingest_s = ingest(cfg["source"], data_dir)["wall"]
    setup = {"import_s": import_s, "ingest_s": ingest_s,
             "setup_s": time.perf_counter() - t0}
    (ds_json,) = data_dir.glob("*.dataset.json")
    if mode == "setup":
        result = {"setup": setup, "dataset": str(ds_json)}
    else:
        result = run(cfg, Path(cfg_path), ds_json, setup)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
