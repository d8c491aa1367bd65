"""Benchmark workloads and their seeded inputs.

Each workload fixes the data source, the map and the training budget.  The
benchmark's ``--seed`` drives the survey generator and is also the first
``--seed`` handed to the program, so one seed fixes a whole run.  The
program only ever sees the generated CSV (or the built-in marriage data),
through ``somcat ingest``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    source: str                     # "marriages" or "uniform"
    grid: str
    seeds: int
    iters: int | None = None        # None keeps the program's default budget
    n_individuals: int = 0          # survey shape (unused for marriages)
    n_questions: int = 0
    n_choices: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="marriage-report",
            why="the paper's anchor data: tiny tables, so time is per-step "
            "Python overhead in train_step/bmu and CLI orchestration",
            source="marriages",
            grid="4x4",
            seeds=5,
        ),
        Workload(
            name="survey-uniform",
            why="N=10^4 distinct answer rows: the distance layer (QE, "
            "assignment), kdisj's O(U(M+N)) steps and its large model JSON",
            source="uniform",
            grid="8x8",
            seeds=1,
            iters=4000,
            n_individuals=10_000,
            n_questions=10,
            n_choices=6,
        ),
    )
}


def survey_answers(w: Workload, seed: int) -> np.ndarray:
    """N x K matrix of answer indices for a survey workload: every answer
    independent and uniform."""
    if w.source != "uniform":
        raise ValueError(f"{w.name} has no generated survey")
    rng = np.random.default_rng([seed, 0x50CA7])
    n, k, m = w.n_individuals, w.n_questions, w.n_choices
    answers = rng.integers(0, m, size=(n, k))
    for q in range(k):
        if len(np.unique(answers[:, q])) != m:
            raise ValueError(f"seed {seed}: question {q} lacks a modality")
    return answers


def write_survey_csv(w: Workload, answers: np.ndarray, path: Path) -> None:
    """Questions Q01..QK, answers c0..c(m-1), ids p00000.."""
    labels = [f"c{c}" for c in range(w.n_choices)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["id", *(f"Q{q + 1:02d}" for q in range(w.n_questions))])
        for i, row in enumerate(answers):
            out.writerow([f"p{i:05d}", *(labels[a] for a in row)])

