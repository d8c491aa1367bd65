"""Pinned seed sweep: the bits of many seeded runs, checked in one command.

The golden digests pin a few seeds' artifact bytes; this sweep pins the
trained state of many more, through ``analyses.sweep``, the entry the CLI
trains with.  Each run is hashed over its code vectors, its ``qe_log``, its
modality units and its individual units (none for kmca).  The cases:

* the marriage data on a 4x4 map with the default budget, seeds 0-9 and
  30-229, for each of kmca, kmca-ind and kdisj;
* kdisj on the same map with the Gram table forced on
  (``som.DISTANCE_BLOCK`` at 1), seeds 0-9;
* the benchmark's survey workload (``bench/workloads.py``: seed 1's survey,
  ingested from its CSV in a temporary directory) on an 8x8 map at 4000
  steps, seeds 1-10, for each algorithm.

Two more digests pin how that survey is written and hashed: its
``sha256()``, and the sha256 of the ``dataset.json`` bytes ``somcat ingest``
writes for it.

The digests rest on the numpy version the script prints, as the golden
digests do.  Run from the repository root:

    PYTHONPATH=src python3 tests/sweep.py            # check, exit 1 on a difference
    PYTHONPATH=src python3 tests/sweep.py --write    # rewrite the table

Only a change that moves training bits on purpose rewrites the table, and
says why in CHANGES.md.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, survey_answers, write_survey_csv  # noqa: E402

from somcat import analyses, cli, som  # noqa: E402
from somcat.dataset import ingest_csv  # noqa: E402
from somcat.marriages import marriage_dataset  # noqa: E402

TABLE = Path(__file__).with_name("sweep_digests.json")
MARRIAGE_SEEDS = [*range(10), *range(30, 230)]
GRAM_SEEDS = list(range(10))
SURVEY = WORKLOADS["survey-uniform"]
SURVEY_SEEDS = list(range(1, 11))


def run_digest(result: analyses.AnalysisResult) -> str:
    """sha256 over a run's code vectors, qe_log and assigned units."""
    h = hashlib.sha256()
    h.update(result.model.code_vectors.tobytes())
    h.update(np.asarray(result.qe_log, dtype=np.float64).tobytes())
    h.update(result.modalities.units.tobytes())
    if result.individuals is not None:
        h.update(result.individuals.units.tobytes())
    return h.hexdigest()


def case_digests(case: str, algorithm: str, ds, topology, steps, seeds) -> dict:
    configs = [som.TrainConfig(t_max=steps, seed=seed) for seed in seeds]
    results = analyses.sweep(algorithm, ds, topology, configs)
    return {f"{case}/{algorithm}/{seed}": run_digest(r) for seed, r in zip(seeds, results)}


def survey_dataset(tmp: Path) -> tuple:
    """The survey as ingested, and the digests of its hash and written file."""
    path = tmp / "survey.csv"
    write_survey_csv(SURVEY, survey_answers(SURVEY, SURVEY_SEEDS[0]), path)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["ingest", "--data", str(path), "--out", str(tmp)])
    ds = ingest_csv(path)
    written = (tmp / "survey.dataset.json").read_bytes()
    return ds, {"survey/dataset/sha256": ds.sha256(),
                "survey/dataset/file": hashlib.sha256(written).hexdigest()}


def sweep_digests() -> dict:
    marriage, grid = marriage_dataset(), som.Topology.grid(4, 4)
    table = {}
    for algorithm in analyses.ALGORITHMS:
        table.update(case_digests("marriage", algorithm, marriage, grid, None,
                                  MARRIAGE_SEEDS))
    block = som.DISTANCE_BLOCK
    som.DISTANCE_BLOCK = 1
    try:
        table.update(case_digests("marriage-gram", "kdisj", marriage, grid, None,
                                  GRAM_SEEDS))
    finally:
        som.DISTANCE_BLOCK = block
    rows, cols = (int(side) for side in SURVEY.grid.split("x"))
    with tempfile.TemporaryDirectory() as tmp:
        survey, digests = survey_dataset(Path(tmp))
    table.update(digests)
    for algorithm in analyses.ALGORITHMS:
        table.update(case_digests("survey", algorithm, survey, som.Topology.grid(rows, cols),
                                  SURVEY.iters, SURVEY_SEEDS))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the digest table")
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}")
    table = sweep_digests()
    if args.write:
        TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(table)} digests to {TABLE.name}")
        return 0
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    differ = sorted(k for k in pinned.keys() | table.keys() if pinned.get(k) != table.get(k))
    for key in differ:
        print(f"differs: {key}: pinned {pinned.get(key)}, now {table.get(key)}")
    print(f"{len(table) - len(differ)} of {len(pinned)} pinned runs hold")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
