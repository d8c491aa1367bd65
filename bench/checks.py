"""What each command must write, and the invariants its artifacts must hold.

``expected_files`` is used inside the measured process (``child.py``) on
every execution.  ``Facts`` and ``invariants`` read whole artifacts into
Python objects, so ``run.py`` applies them after that process has ended, to
the copies it kept of each command's first execution.
"""

from __future__ import annotations

import json
from pathlib import Path

ALGORITHMS = ("kmca", "kmca-ind", "kdisj")
TRAIN_MACRO_K = 5
RELOAD_MACRO_K = 6


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_files(name: str, seeds: list[int], variable: str, label: str) -> set[str]:
    """The files command ``label`` writes into its own output directory."""
    kb = f"{name}.kdisj.{seeds[0]}"
    if label in ALGORITHMS:
        files = set()
        for s in seeds:
            base = f"{name}.{label}.{s}"
            files |= {f"{base}.{x}" for x in
                      ("model.json", "result.json", "macro.json", "svg", "txt")}
            if label != "kmca":
                files.add(f"{base}.deviations.json")
        if len(seeds) > 1:
            files.add(f"{name}.{label}.stability.json")
        return files
    if label == "macro":
        return {f"{kb}.{x}" for x in ("macro.json", "dendrogram.json", "svg", "txt")}
    if label == "pies":
        return {f"{kb}.pies.{variable}.json", f"{kb}.pies.{variable}.svg"}
    return {f"{kb}.svg", f"{kb}.txt"}


class Facts:
    """What the checks know about the input, read from the ingested cells."""

    def __init__(self, dataset_json: Path, grid: str, seeds: list[int]):
        data = _load(dataset_json)
        self.name = Path(dataset_json).name.removesuffix(".dataset.json")
        self.variables = [v["name"] for v in data["variables"]]
        names = [
            f"{v['name']}.{m}" for v in data["variables"] for m in v["modalities"]
        ]
        cells = data["cells"]
        counts = dict.fromkeys(names, 0)
        for row in cells:
            for v, c in zip(data["variables"], row):
                counts[f"{v['name']}.{v['modalities'][c]}"] += 1
        self.counts = counts
        self.n = len(cells)
        self.m = len(names)
        self.k = len(self.variables)
        self.distinct_share = len({tuple(r) for r in cells}) / self.n
        rows, cols = (int(x) for x in grid.split("x"))
        self.units = rows * cols
        self.seeds = seeds

    def dim(self, algo: str) -> int:
        return self.m + self.n if algo == "kdisj" else self.m


def _macro(facts: Facts, path: Path, k: int) -> str | None:
    macro = _load(path)
    labels = macro["labels"]
    if macro["k"] != k or len(labels) != facts.units:
        return f"{path.name}: k={macro['k']}, {len(labels)} labels"
    if set(labels) != set(range(k)):
        return f"{path.name}: labels do not cover {k} classes"
    return None


def invariants(facts: Facts, label: str, outdir: Path) -> tuple[str | None, dict | None]:
    """(failure reason or None, map quality of a training command or None)."""
    try:
        return _invariants(facts, label, outdir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable artifact: {exc!r}", None


def _invariants(f: Facts, label: str, outdir: Path) -> tuple[str | None, dict | None]:
    kb = f"{f.name}.kdisj.{f.seeds[0]}"
    if label == "macro":
        return _macro(f, outdir / f"{kb}.macro.json", RELOAD_MACRO_K), None
    if label == "pies":
        pies = _load(outdir / f"{kb}.pies.{f.variables[0]}.json")
        total = sum(map(sum, pies["counts"]))
        return (None if total == f.n else f"pies count {total} individuals"), None
    if label == "render":
        return None, None
    qe_final, own_positive, t_max = [], 0, []
    for s in f.seeds:
        base = f"{f.name}.{label}.{s}"
        res = _load(outdir / f"{base}.result.json")
        for family, size in (("modalities", f.m), ("individuals", f.n)):
            packed = res[family]
            if packed is None:
                if family == "modalities" or label != "kmca":
                    return f"{base}: no {family} assignment", None
                continue
            units = packed["units"]
            if len(units) != size or not all(0 <= u < f.units for u in units):
                return f"{base}: {family} units outside [0, {f.units})", None
        qe = res["provenance"]["qe_log"]
        if not qe[-1][1] <= qe[0][1]:
            return f"{base}: qe_final {qe[-1][1]} > qe_initial {qe[0][1]}", None
        qe_final.append(qe[-1][1])
        t_max.append(res["provenance"]["config"]["t_max"])
        code = _load(outdir / f"{base}.model.json")["code_vectors"]
        if len(code) != f.units or {len(r) for r in code} != {f.dim(label)}:
            return f"{base}: model is not {f.units} x {f.dim(label)}", None
        reason = _macro(f, outdir / f"{base}.macro.json", TRAIN_MACRO_K)
        if reason:
            return reason, None
        if label != "kmca":
            dev = _load(outdir / f"{base}.deviations.json")
            sums = {n: sum(row) for n, row in zip(dev["modalities"], dev["observed"])}
            if sums != f.counts:
                return f"{base}: deviation row sums differ from modality counts", None
            own_positive += sum(1 for d in dev["own_deviation"] if d > 0)
    return None, {
        "qe_final": sum(qe_final) / len(qe_final),
        "own_positive_share": own_positive / (len(f.seeds) * f.m),
        "t_max": t_max,
    }
