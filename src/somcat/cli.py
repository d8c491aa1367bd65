"""Command-line front end.

Subcommands cover the whole pipeline: ``ingest`` and ``tables`` prepare the
data, ``kmca`` / ``kmca-ind`` / ``kdisj`` train maps, ``macro`` cuts the
second-level clustering, ``pies`` crosses a map with an external variable,
``render`` redraws stored results and ``report`` chains everything over
several seeds and summarizes the stability of the runs.

Conventions shared by all subcommands:

* artifacts land in ``--out``, else ``$SOMCAT_OUTDIR``, else the current
  directory (for derived artifacts: next to their input);
* run artifacts are named ``<dataset>.<algorithm>.<seed>.<kind>``;
* ``--config FILE`` loads a JSON object whose keys override the flags;
* ``--json`` prints a machine-readable summary to stdout;
* failures print ``error:<category>: <message>`` to stderr and exit 1
  (argparse keeps its usual exit 2 for malformed arguments).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import jsonio
from .analyses import ALGORITHMS, AnalysisResult, deviations, run_analysis
from .crossing import cross, external_from_csv, external_from_dataset
from .dataset import CategoricalDataset, ingest_csv, load_schema, to_disjunctive
from .errors import ConfigError, SomcatError
from .macrocluster import MacroClassing, check_ward_size, cut, unit_weights, ward_cluster
from .marriages import marriage_dataset
from .render import MapRenderSpec, render_map, render_pies, render_text
from .som import SomModel, Topology, TrainConfig
from .tables import burt, corrected_burt, corrected_disjunctive

ENV_OUTDIR = "SOMCAT_OUTDIR"


# ---------------------------------------------------------------- helpers


def _grid_arg(text: str) -> str:
    parts = text.lower().split("x")
    try:
        if len(parts) != 2:
            raise ValueError(text)
        rows, cols = int(parts[0]), int(parts[1])
        Topology.grid(rows, cols)
    except (ValueError, SomcatError):
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r} (want ROWSxCOLS with positive sides, >= 2 units)"
        ) from None
    return f"{rows}x{cols}"


def _topology(args) -> Topology:
    if getattr(args, "string", None):
        return Topology.string(int(args.string))
    try:
        rows, cols = (int(p) for p in str(args.grid).lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad grid {args.grid!r}") from None
    return Topology.grid(rows, cols)


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Overlay a JSON config file on the parsed flags (file wins)."""
    path = getattr(args, "config", None)
    if not path:
        return args
    data = jsonio.load(path)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest in ("func", "command", "config") or not hasattr(args, dest):
            raise ConfigError(f"config key {key!r} does not match any option")
        setattr(args, dest, value)
    return args


def _outdir(args, fallback: str | None = None) -> Path:
    out = (
        getattr(args, "out", None)
        or os.environ.get(ENV_OUTDIR)
        or fallback
        or "."
    )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(args) -> tuple[str, CategoricalDataset]:
    src = args.data
    if src == "builtin:marriages":
        name, ds = "marriages", marriage_dataset()
    else:
        path = Path(src)
        if path.suffix == ".json":
            name = path.stem.removesuffix(".dataset")
            ds = CategoricalDataset.from_json(jsonio.load(path))
        else:
            schema = load_schema(args.schema) if args.schema else "infer"
            name, ds = path.stem, ingest_csv(path, schema)
    if getattr(args, "name", None):
        name = args.name
    return name, ds


def _load_result(result_path: str) -> AnalysisResult:
    """The stored result alone; only ``macro`` needs the model file."""
    return AnalysisResult.from_json(jsonio.load(result_path))


def _result_base(result_path: str) -> str:
    name = Path(result_path).name
    return name.removesuffix(".json").removesuffix(".result")


def _emit(args, summary: dict, human_lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(jsonio.dumps(summary))
    else:
        for line in human_lines:
            print(line)


def _write(outdir: Path, filename: str, text: str, files: list[str]) -> None:
    jsonio.write_atomic(outdir / filename, text)
    files.append(filename)


def _write_json(outdir: Path, filename: str, obj, files: list[str]) -> None:
    jsonio.write_json(outdir / filename, obj)
    files.append(filename)


def _write_maps(
    outdir: Path,
    base: str,
    result: AnalysisResult,
    macro: MacroClassing | None,
    args,
    files: list[str],
) -> None:
    """Write the map(s) ``--render`` asks for: svg, text, both or none."""
    if args.render in ("svg", "both"):
        spec = MapRenderSpec(cell_size=int(args.cell_size), label_source=args.labels)
        _write(outdir, f"{base}.svg", render_map(result, macro, spec), files)
    if args.render in ("text", "both"):
        _write(outdir, f"{base}.txt", render_text(result, macro), files)


# ---------------------------------------------------------------- training


def _seeds(args) -> list[int]:
    if int(args.seeds) < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    return [int(args.seed) + i for i in range(int(args.seeds))]


def _run_seeds(
    algorithm: str,
    ds: CategoricalDataset,
    topology: Topology,
    args,
    seeds: list[int],
) -> list[AnalysisResult]:
    configs = [
        TrainConfig(
            epsilon0=float(args.eps0),
            c0=float(args.c0),
            t_max=None if args.iters is None else int(args.iters),
            seed=seed,
        )
        for seed in seeds
    ]
    n = len(configs)
    workers = int(args.workers or min(n, os.cpu_count() or 1, 4))
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(
                run_analysis, [algorithm] * n, [ds] * n, [topology] * n, configs
            ))
    return [run_analysis(algorithm, ds, topology, c) for c in configs]


def _write_run(
    outdir: Path,
    name: str,
    result: AnalysisResult,
    ds: CategoricalDataset,
    args,
    macro_k,
) -> tuple[dict, MacroClassing | None]:
    """Persist one run's artifacts; returns its summary and macro-classing."""
    seed = result.provenance["config"]["seed"]
    base = f"{name}.{result.algorithm}.{seed}"
    files: list[str] = []
    model_file = f"{base}.model.json"
    _write_json(outdir, model_file, result.model.to_json(), files)
    _write_json(
        outdir, f"{base}.result.json", result.to_json(model_file=model_file), files
    )

    macro = None
    if macro_k is not None:
        weights = unit_weights(result, uniform=bool(args.uniform_weights))
        dendro = ward_cluster(result.model, weights=weights)
        k = min(4, dendro.n_leaves) if macro_k == "auto" else int(macro_k)
        macro = cut(dendro, k)
        _write_json(outdir, f"{base}.macro.json", macro.to_json(), files)

    dev = None
    if result.individuals is not None:
        dev = deviations(result, ds)
        _write_json(outdir, f"{base}.deviations.json", dev.to_json(), files)
    _write_maps(outdir, base, result, macro, args, files)

    counts = (
        result.individuals.counts
        if result.individuals is not None
        else result.modalities.counts
    )
    summary = {
        "base": base,
        "algorithm": result.algorithm,
        "seed": seed,
        "t_max": result.provenance["config"]["t_max"],
        "qe_initial": result.qe_log[0][1],
        "qe_final": result.qe_log[-1][1],
        "occupied_units": int(np.count_nonzero(counts)),
        "files": files,
    }
    if macro is not None:
        summary["macro"] = {"k": macro.k, "all_connected": all(macro.connected)}
    if dev is not None:
        summary["deviations"] = {
            "own_positive": int(np.sum(dev.own_deviation > 0)),
            "modalities": len(dev.modalities),
        }
    return summary, macro


def _train_algorithm(
    outdir: Path,
    name: str,
    algorithm: str,
    ds: CategoricalDataset,
    topology: Topology,
    args,
    seeds: list[int],
    macro_k,
) -> tuple[list[dict], list[str], dict | None]:
    """Train one algorithm over the seeds and write every run's artifacts.

    Returns the run summaries, the files written and, for two or more
    seeds, the stability report.
    """
    if macro_k is not None:
        # Ward's leaves are the units that hold weight: at most one per
        # mapped item (kmca maps only the modalities) unless all count.
        items = ds.n_modalities if algorithm == "kmca" else ds.n_individuals
        units = topology.n_units
        check_ward_size(units if args.uniform_weights else min(units, items))
    results = _run_seeds(algorithm, ds, topology, args, seeds)
    summaries, macros, files = [], [], []
    for result in results:
        summary, macro = _write_run(outdir, name, result, ds, args, macro_k)
        summaries.append(summary)
        macros.append(macro)
        files.extend(summary["files"])
    stability = None
    if len(results) > 1:
        stability = stability_report(
            results,
            macros if all(m is not None for m in macros) else None,
            ds=ds,
        )
    return summaries, files, stability


def stability_report(
    results: list[AnalysisResult],
    macros: list[MacroClassing] | None = None,
    ds: CategoricalDataset | None = None,
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

    if ds is not None and results[0].individuals is not None:
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


def cmd_ingest(args) -> int:
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    files: list[str] = []
    _write_json(outdir, f"{name}.dataset.json", ds.to_json(), files)
    summary = {
        "dataset": name,
        "individuals": ds.n_individuals,
        "variables": ds.n_variables,
        "modalities": ds.n_modalities,
        "sha256": ds.sha256(),
        "files": files,
    }
    _emit(args, summary, [f"wrote {outdir / f}" for f in files])
    return 0


def cmd_tables(args) -> int:
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    disj = to_disjunctive(ds)
    bt = burt(disj)
    bc = corrected_burt(bt)
    dc = corrected_disjunctive(disj)
    files: list[str] = []
    payload = {
        "dataset": name,
        "dataset_sha256": ds.sha256(),
        "disjunctive": disj.to_json(),
        "burt": {
            "names": list(bt.names),
            "counts": bt.counts.tolist(),
            "entries": bt.entries.tolist(),
        },
        "burt_corrected": bc.entries.tolist(),
        "disjunctive_corrected": dc.entries.tolist(),
    }
    _write_json(outdir, f"{name}.tables.json", payload, files)
    k, n = ds.n_variables, ds.n_individuals
    summary = {
        "dataset": name,
        "n_individuals": n,
        "n_variables": k,
        "n_modalities": ds.n_modalities,
        "burt_total": int(bt.entries.sum()),
        "expected_burt_total": k * k * n,
        "files": files,
    }
    _emit(args, summary, [f"wrote {outdir / f}" for f in files])
    return 0


def cmd_train(args, algorithm: str) -> int:
    seeds = _seeds(args)
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    summaries, files, stability = _train_algorithm(
        outdir, name, algorithm, ds, _topology(args), args, seeds, args.macro
    )
    summary = {"dataset": name, "runs": summaries}
    if stability is not None:
        fname = f"{name}.{algorithm}.stability.json"
        _write_json(outdir, fname, stability, files)
        summary["stability_file"] = fname
    _emit(args, summary, [f"wrote {outdir / f}" for f in files])
    return 0


def cmd_macro(args) -> int:
    data = jsonio.load(args.result)
    model_file = args.model or data.get("model_file")
    model_path = Path(args.result).parent / model_file if model_file else None
    if model_path is None or not model_path.exists():
        if args.model:
            raise ConfigError(f"model file {args.model} not found")
        raise ConfigError("macro clustering needs the trained model file")
    result = AnalysisResult.from_json(data, model=SomModel.load(model_path))
    outdir = _outdir(args, fallback=str(Path(args.result).parent))
    base = _result_base(args.result)
    weights = unit_weights(result, uniform=bool(args.uniform_weights))
    dendro = ward_cluster(result.model, weights=weights)
    macro = cut(dendro, int(args.macro))
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
    _emit(args, summary, [f"wrote {outdir / f}" for f in files])
    return 0


def cmd_pies(args) -> int:
    result = _load_result(args.result)
    if result.individuals is None:
        raise ConfigError("pies need an analysis that mapped the individuals")
    outdir = _outdir(args, fallback=str(Path(args.result).parent))
    base = _result_base(args.result)
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
    _emit(args, summary, [f"wrote {outdir / f}" for f in files])
    return 0


def cmd_render(args) -> int:
    result = _load_result(args.result)
    outdir = _outdir(args, fallback=str(Path(args.result).parent))
    base = _result_base(args.result)
    macro = None
    if args.macro_file:
        macro = MacroClassing.from_json(jsonio.load(args.macro_file))
    files: list[str] = []
    _write_maps(outdir, base, result, macro, args, files)
    _emit(
        args,
        {"base": base, "files": files},
        [f"wrote {outdir / f}" for f in files],
    )
    return 0


def cmd_report(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ConfigError("--algorithms names no algorithm")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    seeds = _seeds(args)
    name, ds = _load_dataset(args)
    outdir = _outdir(args)
    topology = _topology(args)
    macro_k = "auto" if args.macro is None else int(args.macro)

    run_fields = (
        "algorithm", "seed", "t_max", "qe_initial", "qe_final", "occupied_units"
    )
    per_algo: dict[str, dict] = {}
    rows: list[dict] = []
    files_all: list[str] = []
    for algo in algorithms:
        summaries, files, stability = _train_algorithm(
            outdir, name, algo, ds, topology, args, seeds, macro_k
        )
        per_algo[algo] = {"runs": summaries, "stability": stability}
        files_all.extend(files)
        for run in summaries:
            macro, dev = run.get("macro", {}), run.get("deviations", {})
            rows.append(
                {
                    **{k: run[k] for k in run_fields},
                    "macro_k": macro.get("k", ""),
                    "macro_all_connected": macro.get("all_connected", ""),
                    "own_positive_deviations": dev.get("own_positive", ""),
                }
            )

    report = {
        "dataset": name,
        "dataset_sha256": ds.sha256(),
        "topology": topology.to_json(),
        "seeds": seeds,
        "algorithms": per_algo,
    }
    files: list[str] = []
    _write_json(outdir, f"{name}.report.json", report, files)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(outdir, f"{name}.report.csv", buf.getvalue(), files)
    files_all.extend(files)
    summary = {"dataset": name, "report": f"{name}.report.json", "runs": rows}
    _emit(args, summary, [f"wrote {outdir / f}" for f in files_all])
    return 0


# ------------------------------------------------------------------ parser


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

    render_p = argparse.ArgumentParser(add_help=False)
    render_p.add_argument(
        "--labels",
        choices=("auto", "modalities", "modalities+counts", "none"),
        default="auto",
    )
    render_p.add_argument("--cell-size", type=int, default=120)

    train_p = argparse.ArgumentParser(add_help=False)
    train_p.add_argument("--grid", type=_grid_arg, default="4x4", help="ROWSxCOLS")
    train_p.add_argument("--string", type=int, default=None, help="1-d map length")
    train_p.add_argument("--iters", type=int, default=None, help="training steps")
    train_p.add_argument("--eps0", type=float, default=0.5)
    train_p.add_argument("--c0", type=float, default=1.0)
    train_p.add_argument("--seed", type=int, default=0)
    train_p.add_argument("--seeds", type=int, default=1, help="run seed..seed+N-1")
    train_p.add_argument("--workers", type=int, default=None)
    train_p.add_argument("--macro", type=int, default=None, help="macro-class count")
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

    p = sub.add_parser(
        "macro", parents=[io_p, render_p], help="cut the code-vector clustering"
    )
    p.add_argument("--result", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--macro", type=int, required=True, help="number of classes")
    p.add_argument("--uniform-weights", action="store_true")
    p.add_argument(
        "--render", choices=("svg", "text", "both", "none"), default="none"
    )
    p.set_defaults(func=cmd_macro)

    p = sub.add_parser(
        "pies", parents=[data_p, io_p], help="cross the map with a variable"
    )
    p.add_argument("--result", required=True)
    p.add_argument("--variable", default=None, help="dataset variable to cross")
    p.add_argument("--external", default=None, help="CSV with an external column")
    p.add_argument("--column", default=None, help="column name in --external")
    p.add_argument("--render", choices=("svg", "none"), default="svg")
    p.set_defaults(func=cmd_pies)

    p = sub.add_parser(
        "render", parents=[io_p, render_p], help="redraw a stored result"
    )
    p.add_argument("--result", required=True)
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
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config(args)
        return args.func(args)
    except SomcatError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
