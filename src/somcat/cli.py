"""Command-line front end.

Subcommands cover the whole pipeline: ``ingest`` and ``tables`` prepare the
data, ``kmca`` / ``kmca-ind`` / ``kdisj`` train maps, ``macro`` cuts the
second-level clustering, ``pies`` crosses a map with an external variable,
``render`` redraws stored results and ``report`` chains everything over
several seeds and summarizes the stability of the runs.

Every subcommand is one function of the parsed flags that writes its files
and returns ``(summary, outdir, files)``: its JSON summary, the output
directory and the names it wrote there, in order.  ``main`` alone prints
them, and only once the command has succeeded.  The training commands and
``report`` share one driver that checks, trains and cuts every run before
it writes any file; ``macro``, ``pies`` and ``render`` share one loader of
the stored result and, with the driver, one Ward cut.

Conventions shared by all subcommands:

* artifacts land in ``--out``, else ``$SOMCAT_OUTDIR``, else the current
  directory (for derived artifacts: next to their input);
* run artifacts are named ``<dataset>.<algorithm>.<seed>.<kind>``;
* ``--config FILE`` loads a JSON object whose keys are parsed as flags after
  the command line, so they override it and are checked like it;
* ``--json`` prints the summary as JSON to stdout, else each written file
  is printed as ``wrote <path>``;
* failures print ``error:<category>: <message>`` to stderr and exit 1
  (argparse keeps its usual exit 2 for malformed arguments).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .analyses import ALGORITHMS, AnalysisResult, deviations, sweep
from .crossing import cross, external_from_csv, external_from_dataset
from .dataset import CategoricalDataset, ingest_csv, load_schema, to_disjunctive
from .errors import ConfigError, SomcatError
from .macrocluster import (
    Dendrogram, MacroClassing, check_ward_size, cut, unit_weights, ward_cluster,
)
from .marriages import marriage_dataset
from .render import (
    CELL_SIZE, LABEL_SOURCES, MIN_CELL_SIZE, render_map, render_pies, render_text,
)
from .som import Topology, TrainConfig, _squared_distances
from .tables import burt, corrected_burt, corrected_disjunctive

ENV_OUTDIR = "SOMCAT_OUTDIR"


# ---------------------------------------------------------------- helpers


def _grid_arg(text: str) -> Topology:
    parts = text.lower().split("x")
    try:
        if len(parts) != 2:
            raise ValueError(text)
        return Topology.grid(int(parts[0]), int(parts[1]))
    except (ValueError, SomcatError):
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r} (want ROWSxCOLS with positive sides, >= 2 units)"
        ) from None


def _int_from(low: int):
    """Argument type: an integer of at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value
    return integer


def _topology(args) -> Topology:
    return args.grid if args.string is None else Topology.string(args.string)


def _apply_config(parser: argparse.ArgumentParser, argv: list[str],
                  args: argparse.Namespace) -> argparse.Namespace:
    """Parse a JSON config file's keys as flags after the command line, so
    the file wins and each value meets its flag's type and choices.  A
    true/false option (a bool in ``args``) takes only a JSON bool.  Every
    error names the file; a value its flag rejects still exits 2."""
    path = args.config
    data = jsonio.load(path)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    flags, switches = [], {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest in ("func", "command", "config") or not hasattr(args, dest):
            raise ConfigError(f"{path}: config key {key!r} does not match any option")
        switch = isinstance(getattr(args, dest), bool)
        scalar = isinstance(value, (str, int, float))
        if switch != isinstance(value, bool) or not scalar:
            want = "true or false" if switch else "a string or a number"
            raise ConfigError(f"{path}: config key {key!r} takes {want}")
        if switch:
            switches[dest] = value
        else:
            flags.append(f"--{dest.replace('_', '-')}={value}")
    try:
        args = parser.parse_args([*argv, *flags])
    except SystemExit:  # the command line alone parsed: the file holds the value
        print(f"{parser.prog}: error: the value above is from config file {path}",
              file=sys.stderr)
        raise
    for dest, value in switches.items():
        setattr(args, dest, value)
    return args


def _outdir(args, fallback: str | None = None) -> Path:
    path = Path(args.out or os.environ.get(ENV_OUTDIR) or fallback or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(args) -> tuple[str, CategoricalDataset]:
    if args.data == "builtin:marriages":
        name, ds = "marriages", marriage_dataset()
    else:
        path = Path(args.data)
        if path.suffix == ".json":
            name = path.stem.removesuffix(".dataset")
            ds = CategoricalDataset.from_json(jsonio.load(path))
        else:
            schema = load_schema(args.schema) if args.schema else "infer"
            name, ds = path.stem, ingest_csv(path, schema)
    name = getattr(args, "name", None) or name
    if {"/", os.sep, os.altsep} & set(name):
        raise ConfigError(f"--name {name!r} holds a path separator")
    return name, ds


def _load_stored(args) -> tuple[AnalysisResult, Path, str]:
    """The ``--result`` analysis, the output dir (by default the result's
    own) and the base name of what is derived from it.  The result holds
    all that ``macro``, ``pies`` and ``render`` read: none of them opens a
    model file."""
    result = AnalysisResult.from_json(jsonio.load(args.result))
    path = Path(args.result)
    base = path.name.removesuffix(".json").removesuffix(".result")
    return result, _outdir(args, str(path.parent)), base


def _write(outdir: Path, filename: str, text: str, files: list[str]) -> None:
    jsonio.write_atomic(outdir / filename, text)
    files.append(filename)


def _write_json(outdir: Path, filename: str, obj, files: list[str]) -> None:
    jsonio.write_json(outdir / filename, obj)
    files.append(filename)


def _write_maps(outdir: Path, base: str, result: AnalysisResult,
                macro: MacroClassing | None, args, files: list[str]) -> None:
    """Write the map(s) ``--render`` asks for: svg, text, both or none."""
    if args.render in ("svg", "both"):
        svg = render_map(result, macro, args.cell_size, args.labels)
        _write(outdir, f"{base}.svg", svg, files)
    if args.render in ("text", "both"):
        _write(outdir, f"{base}.txt", render_text(result, macro), files)


# ---------------------------------------------------------------- training


def _seeds(args) -> list[int]:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    return [args.seed + i for i in range(args.seeds)]


def _run_seeds(algorithm: str, ds: CategoricalDataset, topology: Topology, args,
               seeds: list[int]) -> list[AnalysisResult]:
    configs = [
        TrainConfig(epsilon0=args.eps0, c0=args.c0, t_max=args.iters, seed=seed)
        for seed in seeds
    ]
    n = len(configs)
    # the pool starts every worker at once: never more than runs or CPUs
    workers = min(args.workers or 4, n, os.cpu_count() or 1)
    if workers == 1:
        return sweep(algorithm, ds, topology, configs)
    chunks = [configs[i * n // workers:(i + 1) * n // workers] for i in range(workers)]
    from concurrent.futures import ProcessPoolExecutor  # loaded only to start a pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(sweep, [algorithm] * workers, [ds] * workers,
                         [topology] * workers, chunks)
        return [result for part in parts for result in part]


def _ward_cut(result: AnalysisResult, k,
              uniform: bool = False) -> tuple[Dendrogram, MacroClassing]:
    """Ward's tree of the trained map's units, from the result's unit
    distances, and its cut into ``k`` classes (``"auto"``: four, or one per
    leaf of a smaller tree).  A ``uniform`` cut clusters every unit, not
    only the occupied ones a result stores, so it reads the model's."""
    code = result.model.code_vectors if uniform else None
    d2 = _squared_distances(code, code) if uniform else result.unit_distances
    dendro = ward_cluster(d2, unit_weights(result, uniform=uniform), result.topology)
    if k == "auto":
        k = min(4, dendro.n_leaves)
    elif k > dendro.n_leaves:
        raise ConfigError(f"--macro {k} exceeds the {dendro.n_leaves} units the "
                          f"trained {result.algorithm} map fills")
    return dendro, cut(dendro, k)


def _write_run(outdir: Path, name: str, result: AnalysisResult,
               macro: MacroClassing | None, ds: CategoricalDataset, args) -> dict:
    """Persist one run's artifacts; returns its summary."""
    seed = result.provenance["config"]["seed"]
    base = f"{name}.{result.algorithm}.{seed}"
    files: list[str] = []
    _write_json(outdir, f"{base}.model.json", result.model.artifact(), files)
    _write_json(outdir, f"{base}.result.json", result.to_json(), files)
    if macro is not None:
        _write_json(outdir, f"{base}.macro.json", macro.to_json(), files)
    dev = None
    if result.individuals is not None:
        dev = deviations(result, ds)
        _write_json(outdir, f"{base}.deviations.json", dev.to_json(), files)
    _write_maps(outdir, base, result, macro, args, files)

    summary = {
        "base": base,
        "algorithm": result.algorithm,
        "seed": seed,
        "t_max": result.provenance["config"]["t_max"],
        "qe_initial": result.qe_log[0][1],
        "qe_final": result.qe_log[-1][1],
        "occupied_units": int(np.count_nonzero(unit_weights(result))),
        "files": files,
    }
    if macro is not None:
        summary["macro"] = {"k": macro.k, "all_connected": all(macro.connected)}
    if dev is not None:
        summary["deviations"] = {
            "own_positive": int(np.sum(dev.own_deviation > 0)),
            "modalities": len(dev.modalities),
        }
    return summary


def _check_macro(algorithm: str, ds, topology, args, macro_k) -> None:
    """Fail before training when the cut at ``macro_k`` cannot be made.
    Ward's leaves are the units that hold weight: at most one per mapped
    item (kmca maps only the modalities) unless all count."""
    if macro_k is None:
        return
    items = ds.n_modalities if algorithm == "kmca" else ds.n_individuals
    units = topology.n_units
    leaves = units if args.uniform_weights else min(units, items)
    check_ward_size(leaves)
    if macro_k != "auto" and macro_k > leaves:
        raise ConfigError(f"--macro {macro_k} exceeds the {leaves} units "
                          f"Ward can cluster for {algorithm}")


def _train(args, algorithms: list[str], macro_k):
    """Train every algorithm over the seeds and cut every run (``macro_k``
    None: no cut); only then write each run's artifacts, so a failing cut
    leaves no file behind.

    Returns the dataset's name and hash (its runs'), the output dir, the
    files written and, by algorithm, the run summaries and (for two or more
    seeds) the stability report.
    """
    seeds = _seeds(args)
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    topology = _topology(args)
    for algorithm in algorithms:
        _check_macro(algorithm, ds, topology, args, macro_k)
    trained = {}
    for algorithm in algorithms:
        results = _run_seeds(algorithm, ds, topology, args, seeds)
        macros = [None if macro_k is None
                  else _ward_cut(r, macro_k, args.uniform_weights)[1] for r in results]
        stability = None if len(results) == 1 else stability_report(
            results, None if macro_k is None else macros, ds)
        trained[algorithm] = results, macros, stability
    files: list[str] = []
    runs = {}
    for algorithm, (results, macros, stability) in trained.items():
        summaries = [_write_run(outdir, name, r, m, ds, args)
                     for r, m in zip(results, macros)]
        files += [f for s in summaries for f in s["files"]]
        runs[algorithm] = summaries, stability
    return name, results[0].provenance["dataset_sha256"], outdir, files, runs


def stability_report(
    results: list[AnalysisResult],
    macros: list[MacroClassing] | None,
    ds: CategoricalDataset,
) -> dict:
    """How stably items co-locate across several runs of one analysis.

    Modalities get dense co-location frequency matrices (same unit; same
    macro-class when cuts are given).  Individuals are first collapsed into
    groups with identical response patterns, and only group pairs that ever
    share a unit are reported.
    """
    if not results:
        raise ConfigError("stability needs at least one run")
    algo = results[0].algorithm
    sha = results[0].provenance["dataset_sha256"]
    labels = tuple(results[0].modalities.labels)
    for r in results:
        if r.algorithm != algo or r.provenance["dataset_sha256"] != sha:
            raise ConfigError("stability runs must share algorithm and dataset")
        if tuple(r.modalities.labels) != labels:
            raise ConfigError("stability runs must share the modality list")
    if macros is not None and len(macros) != len(results):
        raise ConfigError("need one macro-classing per run (or none)")

    n = len(results)
    m = len(labels)
    co_unit = np.zeros((m, m))
    co_class = np.zeros((m, m))
    for idx, r in enumerate(results):
        units = r.modalities.units
        co_unit += units[:, np.newaxis] == units[np.newaxis, :]
        if macros is not None:
            cls = macros[idx].labels[units]
            co_class += cls[:, np.newaxis] == cls[np.newaxis, :]
    out = {
        "algorithm": algo,
        "dataset_sha256": sha,
        "runs": n,
        "modalities": list(labels),
        "co_unit_frequency": (co_unit / n).tolist(),
    }
    if macros is not None:
        out["co_class_frequency"] = (co_class / n).tolist()

    if results[0].individuals is not None:
        for r in results:
            if tuple(r.individuals.labels) != tuple(ds.individuals):
                raise ConfigError("stability dataset does not match the runs")
        _, first, counts = np.unique(
            ds.cells, axis=0, return_index=True, return_counts=True
        )
        by_first = np.argsort(first)
        rep, sizes = first[by_first], counts[by_first]
        names = np.asarray(ds.global_modality_names)
        offsets = np.asarray(ds.block_offsets)
        order = ["+".join(names[offsets + ds.cells[i]]) for i in rep]
        g = len(order)
        keys = []    # a * g + b for groups a < b sharing a unit, once per run
        for r in results:
            u = r.individuals.units[rep]
            by_unit = np.argsort(u, kind="stable")
            for members in np.split(by_unit, np.flatnonzero(np.diff(u[by_unit])) + 1):
                a, b = np.triu_indices(len(members), 1)
                keys.append(members[a] * g + members[b])
        shared, runs = np.unique(np.concatenate(keys), return_counts=True)
        first, second = np.divmod(shared, g)
        out["individual_groups"] = {
            sig: int(size) for sig, size in zip(order, sizes)
        }
        out["individual_pair_co_unit"] = {
            f"{order[a]}|{order[b]}": c / n
            for a, b, c in zip(first.tolist(), second.tolist(), runs.tolist())
        }
    return out


# ------------------------------------------------------------- subcommands


def cmd_ingest(args):
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    files: list[str] = []
    _write_json(outdir, f"{name}.dataset.json", ds.artifact(), files)
    summary = {
        "dataset": name,
        "individuals": ds.n_individuals,
        "variables": ds.n_variables,
        "modalities": ds.n_modalities,
        "sha256": ds.sha256(),
        "files": files,
    }
    return summary, outdir, files


def cmd_tables(args):
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    d = to_disjunctive(ds)
    b = burt(ds)
    names, counts = list(ds.global_modality_names), d.sum(axis=0).tolist()
    files: list[str] = []
    payload = {
        "dataset": name,
        "dataset_sha256": ds.sha256(),
        "disjunctive": {
            "n_individuals": ds.n_individuals,
            "n_variables": ds.n_variables,
            "n_modalities": ds.n_modalities,
            "block_offsets": list(ds.block_offsets),
            "modality_counts": counts,
            "names": names,
            "individuals": list(ds.individuals),
            "ones": ds.cells + np.asarray(ds.block_offsets),
        },
        "burt": {"names": names, "counts": counts, "entries": b},
        "burt_corrected": corrected_burt(ds),
        "disjunctive_corrected": corrected_disjunctive(ds),
    }
    _write_json(outdir, f"{name}.tables.json", payload, files)
    k, n = ds.n_variables, ds.n_individuals
    summary = {
        "dataset": name,
        "n_individuals": n,
        "n_variables": k,
        "n_modalities": ds.n_modalities,
        "burt_total": int(b.sum()),
        "expected_burt_total": k * k * n,
        "files": files,
    }
    return summary, outdir, files


def cmd_train(args, algorithm: str):
    name, _, outdir, files, runs = _train(args, [algorithm], args.macro)
    summaries, stability = runs[algorithm]
    summary = {"dataset": name, "runs": summaries}
    if stability is not None:
        fname = f"{name}.{algorithm}.stability.json"
        _write_json(outdir, fname, stability, files)
        summary["stability_file"] = fname
    return summary, outdir, files


def cmd_macro(args):
    result, outdir, base = _load_stored(args)
    dendro, macro = _ward_cut(result, args.macro)
    files: list[str] = []
    _write_json(outdir, f"{base}.macro.json", macro.to_json(), files)
    _write_json(outdir, f"{base}.dendrogram.json", dendro.to_json(), files)
    _write_maps(outdir, base, result, macro, args, files)
    summary = {
        "base": base,
        "k": macro.k,
        "classes": macro.to_json()["classes"],
        "connected": macro.connected,
        "files": files,
    }
    return summary, outdir, files


def cmd_pies(args):
    result, outdir, base = _load_stored(args)
    if result.individuals is None:
        raise ConfigError("pies need an analysis that mapped the individuals")
    if args.external:
        if not args.column:
            raise ConfigError("--external needs --column NAME")
        external = external_from_csv(args.external, args.column)
    else:
        if not args.variable:
            raise ConfigError("pies need --variable NAME (or --external FILE)")
        _, ds = _load_dataset(args)
        if ds.sha256() != result.provenance["dataset_sha256"]:
            raise ConfigError("dataset does not match the one the map was trained on")
        external = external_from_dataset(ds, args.variable)
    pies = cross(result.individuals, external, result.topology)
    files: list[str] = []
    _write_json(outdir, f"{base}.pies.{external.name}.json", pies.to_json(), files)
    if args.render != "none":
        _write(outdir, f"{base}.pies.{external.name}.svg", render_pies(pies), files)
    summary = {
        "base": base,
        "variable": external.name,
        "labels": list(pies.labels),
        "global_counts": pies.global_counts.tolist(),
        "populations": pies.populations.tolist(),
        "files": files,
    }
    return summary, outdir, files


def cmd_render(args):
    result, outdir, base = _load_stored(args)
    macro = None
    if args.macro_file:
        macro = MacroClassing.from_json(jsonio.load(args.macro_file))
        n = result.topology.n_units
        if len(macro.labels) != n:
            raise ConfigError(
                f"{args.macro_file} classes {len(macro.labels)} units, not {n}")
    files: list[str] = []
    _write_maps(outdir, base, result, macro, args, files)
    return {"base": base, "files": files}, outdir, files


def cmd_report(args):
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ConfigError("--algorithms names no algorithm")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
        if algorithms.count(algo) > 1:
            raise ConfigError(f"--algorithms names {algo!r} more than once")
    name, sha, outdir, files, runs = _train(
        args, algorithms, "auto" if args.macro is None else args.macro)

    run_fields = (
        "algorithm", "seed", "t_max", "qe_initial", "qe_final", "occupied_units"
    )
    rows = [
        {
            **{k: run[k] for k in run_fields},
            "macro_k": run["macro"]["k"],
            "macro_all_connected": run["macro"]["all_connected"],
            "own_positive_deviations":
                run.get("deviations", {}).get("own_positive", ""),
        }
        for summaries, _ in runs.values()
        for run in summaries
    ]
    report = {
        "dataset": name,
        "dataset_sha256": sha,
        "topology": _topology(args).to_json(),
        "seeds": _seeds(args),
        "algorithms": {
            algo: {"runs": summaries, "stability": stability}
            for algo, (summaries, stability) in runs.items()
        },
    }
    _write_json(outdir, f"{name}.report.json", report, files)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(outdir, f"{name}.report.csv", buf.getvalue(), files)
    summary = {"dataset": name, "report": f"{name}.report.json", "runs": rows}
    return summary, outdir, files


# ------------------------------------------------------------------ parser


@functools.cache  # a parse reads the parser and changes nothing in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somcat",
        description="Map-based analysis of categorical survey data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    data_p = argparse.ArgumentParser(add_help=False)
    data_p.add_argument(
        "--data",
        default="builtin:marriages",
        help="CSV file, <name>.dataset.json, or builtin:marriages",
    )
    data_p.add_argument("--schema", default=None, help="schema JSON for CSV ingest")
    data_p.add_argument("--name", default=None, help="override the dataset name")

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument("--out", default=None, help=f"output dir (or ${ENV_OUTDIR})")
    io_p.add_argument("--json", action="store_true", help="print a JSON summary")
    io_p.add_argument("--config", default=None, help="JSON file overriding flags")

    result_p = argparse.ArgumentParser(add_help=False)
    result_p.add_argument("--result", required=True, help="a stored result.json")

    render_p = argparse.ArgumentParser(add_help=False)
    render_p.add_argument("--labels", choices=LABEL_SOURCES, default="auto")
    render_p.add_argument(
        "--cell-size", type=_int_from(MIN_CELL_SIZE), default=CELL_SIZE)

    train_p = argparse.ArgumentParser(add_help=False)
    train_p.add_argument("--grid", type=_grid_arg, default="4x4", help="ROWSxCOLS")
    train_p.add_argument("--string", type=int, default=None, help="1-d map length")
    train_p.add_argument("--iters", type=int, default=None, help="training steps")
    train_p.add_argument("--eps0", type=float, default=0.5)
    train_p.add_argument("--c0", type=float, default=1.0)
    train_p.add_argument("--seed", type=int, default=0)
    train_p.add_argument("--seeds", type=int, default=1, help="run seed..seed+N-1")
    train_p.add_argument("--workers", type=_int_from(1), default=None)
    train_p.add_argument("--macro", type=_int_from(1), default=None,
                         help="macro-class count")
    train_p.add_argument("--uniform-weights", action="store_true")
    train_p.add_argument(
        "--render", choices=("svg", "text", "both", "none"), default="svg"
    )

    p = sub.add_parser("ingest", parents=[data_p, io_p], help="normalize a dataset")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "tables", parents=[data_p, io_p], help="disjunctive/Burt/corrected tables"
    )
    p.set_defaults(func=cmd_tables)

    for algo, blurb in (
        ("kmca", "map the modalities (corrected co-occurrence rows)"),
        ("kmca-ind", "map the individuals, place modalities by mean vector"),
        ("kdisj", "map individuals and modalities simultaneously"),
    ):
        p = sub.add_parser(algo, parents=[data_p, io_p, train_p, render_p], help=blurb)
        p.set_defaults(func=lambda a, _algo=algo: cmd_train(a, _algo))

    p = sub.add_parser("macro", parents=[result_p, io_p, render_p],
                       help="cut the code-vector clustering")
    p.add_argument(
        "--macro", type=_int_from(1), required=True, help="number of classes")
    p.add_argument(
        "--render", choices=("svg", "text", "both", "none"), default="none"
    )
    p.set_defaults(func=cmd_macro)

    p = sub.add_parser(
        "pies", parents=[result_p, data_p, io_p], help="cross the map with a variable"
    )
    p.add_argument("--variable", default=None, help="dataset variable to cross")
    p.add_argument("--external", default=None, help="CSV with an external column")
    p.add_argument("--column", default=None, help="column name in --external")
    p.add_argument("--render", choices=("svg", "none"), default="svg")
    p.set_defaults(func=cmd_pies)

    p = sub.add_parser(
        "render", parents=[result_p, io_p, render_p], help="redraw a stored result"
    )
    p.add_argument("--macro-file", default=None)
    p.add_argument(
        "--render", choices=("svg", "text", "both"), default="svg"
    )
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "report",
        parents=[data_p, io_p, train_p, render_p],
        help="full pipeline over several seeds",
    )
    p.add_argument(
        "--algorithms", default="kmca,kmca-ind,kdisj", help="comma-separated"
    )
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, argv, args)
        summary, outdir, files = args.func(args)
    except SomcatError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an allocation past what the machine gives
        print(f"error:memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(jsonio.dumps(summary))
    else:
        for name in files:
            print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
