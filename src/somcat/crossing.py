"""Crossing a trained map with an external qualitative variable.

Given the unit of every individual and an external column (one modality per
individual), each map unit gets the frequency distribution of the external
variable among its individuals.  Rendered as pies, this shows how the
external variable spreads over the map without having taken part in
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import CategoricalDataset, VariableSpec, _encode_column, _read_csv
from .errors import DataError, DimensionError
from .som import MapAssignment, Topology


@dataclass(eq=False)
class ExternalColumn:
    """One qualitative value per individual id."""

    name: str
    modalities: tuple[str, ...]
    values: dict[str, int]

    def __post_init__(self):
        m = len(self.modalities)
        for ident, v in self.values.items():
            if not 0 <= v < m:
                raise DataError(
                    f"external value for {ident!r} out of range for {self.name!r}"
                )


def external_from_dataset(ds: CategoricalDataset, variable: str) -> ExternalColumn:
    """Lift one of the dataset's own variables into an external column."""
    k = ds.variable_index(variable)
    var = ds.variables[k]
    return ExternalColumn(
        name=var.name,
        modalities=var.modalities,
        values={ident: int(ds.cells[i, k]) for i, ident in enumerate(ds.individuals)},
    )


def external_from_csv(
    path: str | Path, column: str, spec: VariableSpec | None = None
) -> ExternalColumn:
    """Read an external column from a CSV (header; first column = id).

    The column is read by :func:`~somcat.dataset.ingest_csv`'s rules:
    without a spec, labels become modalities in first-appearance order; with
    a binned spec, numeric values are discretized.
    """
    header, ids, body = _read_csv(path)
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate individual ids")
    labels, codes = _encode_column(path, header, body, column, spec)
    return ExternalColumn(
        name=column if spec is None else spec.name,
        modalities=labels,
        values=dict(zip(ids, codes)),
    )


@dataclass(eq=False)
class PieGrid:
    """Per-unit counts of an external variable over the map."""

    topology: Topology
    variable: str
    labels: tuple[str, ...]
    counts: np.ndarray            # U x m

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.topology.n_units, len(self.labels)):
            raise DimensionError("pie counts do not match units x modalities")
        if np.any(self.counts < 0):
            raise DataError("pie counts must be nonnegative")

    @property
    def populations(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def frequencies(self) -> np.ndarray:
        """Row-normalized counts; unpopulated units stay all-zero."""
        pop = self.populations.astype(np.float64)
        out = np.zeros_like(self.counts, dtype=np.float64)
        mask = pop > 0
        out[mask] = self.counts[mask] / pop[mask, np.newaxis]
        return out

    @property
    def global_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def to_json(self) -> dict:
        return {
            "topology": self.topology.to_json(),
            "variable": self.variable,
            "labels": list(self.labels),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PieGrid":
        return cls(
            topology=Topology.from_json(data["topology"]),
            variable=data["variable"],
            labels=tuple(data["labels"]),
            counts=np.asarray(data["counts"], dtype=np.int64),
        )


def cross(
    assignment: MapAssignment, external: ExternalColumn, topology: Topology
) -> PieGrid:
    """Tally the external variable per map unit.

    The assignment's individuals and the external column must cover exactly
    the same ids; partial overlap is an error, not a silent subset.
    """
    if topology.n_units != assignment.n_units:
        raise DimensionError("topology does not match the assignment's unit count")
    have = set(assignment.labels)
    want = set(external.values)
    if have != want:
        missing = sorted(have - want)[:5]
        extra = sorted(want - have)[:5]
        raise DataError(
            "external column does not cover the mapped individuals "
            f"(missing {missing}, extra {extra})"
        )
    counts = np.zeros((assignment.n_units, len(external.modalities)), dtype=np.int64)
    for ident, unit in zip(assignment.labels, assignment.units):
        counts[int(unit), external.values[ident]] += 1
    return PieGrid(
        topology=topology,
        variable=external.name,
        labels=external.modalities,
        counts=counts,
    )
