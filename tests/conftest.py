"""Shared fixtures: the marriage tables and small synthetic datasets."""

import numpy as np
import pytest

import somcat
from somcat.dataset import CategoricalDataset, VariableSpec, to_disjunctive


@pytest.fixture(scope="session")
def marriage():
    return somcat.marriage_dataset()


@pytest.fixture(scope="session")
def marriage_disj(marriage):
    return to_disjunctive(marriage)


@pytest.fixture(scope="session")
def marriage_burt(marriage):
    return somcat.burt(marriage)


def random_dataset(rng, n=40, sizes=(3, 4, 2)):
    """Synthetic dataset with uniform modality draws; retries until every
    modality is adopted at least once so corrected tables are defined."""
    while True:
        cells = np.column_stack([rng.integers(0, s, size=n) for s in sizes])
        if all(len(np.unique(cells[:, v])) == sizes[v] for v in range(len(sizes))):
            break
    variables = [
        VariableSpec(name=f"v{v}", modalities=tuple(f"m{v}_{c}" for c in range(s)))
        for v, s in enumerate(sizes)
    ]
    ids = [f"ind{i:03d}" for i in range(n)]
    return CategoricalDataset(individuals=ids, variables=variables, cells=cells)


def uniform_survey_csv(seed, n, questions, answers):
    """CSV text of a survey with every answer independent and uniform, drawn
    as the benchmark's survey workload draws it: ids p00000.., questions
    Q01.., answers c0.."""
    rng = np.random.default_rng([seed, 0x50CA7])
    cells = rng.integers(0, answers, size=(n, questions))
    if any(len(np.unique(cells[:, q])) != answers for q in range(questions)):
        raise ValueError(f"seed {seed}: a question lacks an answer")
    header = ",".join(["id", *(f"Q{q + 1:02d}" for q in range(questions))])
    lines = [f"p{i:05d}," + ",".join(f"c{a}" for a in row) for i, row in enumerate(cells)]
    return "\n".join([header, *lines]) + "\n"
