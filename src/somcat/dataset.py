"""Categorical survey data and its complete disjunctive encoding.

A dataset is N individuals answering K qualitative questions, each question
having a fixed list of modalities (possible answers).  Quantitative columns
can be discretized into modalities via break-points.  The complete
disjunctive table (``to_disjunctive``) is the N x M one-hot array (M = total
modality count) with exactly one 1 per question block in every row; its
labels are the dataset's ``individuals`` and ``global_modality_names``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsonio
from .errors import DataError


@dataclass(frozen=True)
class VariableSpec:
    """One qualitative variable: its name and ordered modality labels.

    For a discretized quantitative column, ``breaks`` holds the strictly
    increasing break-points.  Intervals are left-closed/right-open, with an
    implicit open interval below the first break and a closed-at-left
    interval above the last, so every finite value falls in exactly one bin.
    ``descending=True`` maps the first label to the highest interval (the
    convention used when labels are transcribed from a table that lists
    ">= x" first).
    """

    name: str
    modalities: tuple[str, ...]
    breaks: tuple[float, ...] | None = None
    descending: bool = False

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise DataError("not a variable: name is not a non-empty string")
        jsonio.require_utf8(self.name, "a variable: name")
        if len(self.modalities) < 2:
            raise DataError(
                f"variable {self.name!r} needs at least 2 modalities, "
                f"got {len(self.modalities)}"
            )
        if len(set(self.modalities)) != len(self.modalities):
            raise DataError(f"variable {self.name!r} has duplicate modality labels")
        if self.breaks is not None:
            if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
                raise DataError(
                    f"break-points of {self.name!r} must be strictly increasing"
                )
            if len(self.modalities) != len(self.breaks) + 1:
                raise DataError(
                    f"variable {self.name!r}: {len(self.breaks)} break-points "
                    f"need {len(self.breaks) + 1} labels, got {len(self.modalities)}"
                )

    @property
    def is_binned(self) -> bool:
        return self.breaks is not None

    def bin_value(self, value: float) -> int:
        """Modality index for a numeric value (binned variables only)."""
        if self.breaks is None:
            raise DataError(f"variable {self.name!r} is not binned")
        interval = int(np.searchsorted(self.breaks, value, side="right"))
        if self.descending:
            interval = len(self.breaks) - interval
        return interval

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "modalities": list(self.modalities)}
        if self.breaks is not None:
            out["breaks"] = list(self.breaks)
            out["order"] = "descending" if self.descending else "ascending"
        return out

    @classmethod
    def from_json(cls, data: dict) -> "VariableSpec":
        jsonio.require_keys(data, ("name", "modalities"), "a variable")
        name, breaks = data["name"], data.get("breaks")
        order = data.get("order", "ascending")
        if order not in ("ascending", "descending"):
            raise DataError(f"unknown bin order {order!r}")
        return cls(
            name=name,
            modalities=jsonio.labels(data["modalities"], "a variable: modalities"),
            breaks=None if breaks is None else tuple(jsonio.numbers(
                breaks, "f", 1, f"a variable: the breaks of {name!r}").tolist()),
            descending=order == "descending",
        )


class CategoricalDataset:
    """N individuals x K qualitative variables, cells are modality indices."""

    def __init__(
        self,
        individuals: list[str],
        variables: list[VariableSpec],
        cells: np.ndarray,
    ):
        self.individuals = list(individuals)
        self.variables = list(variables)
        self.cells = np.asarray(cells, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        n, k = len(self.individuals), len(self.variables)
        if n < 1 or k < 1:
            raise DataError("dataset needs at least one individual and one variable")
        if self.cells.shape != (n, k):
            raise DataError(
                f"cells shape {self.cells.shape} does not match "
                f"{n} individuals x {k} variables"
            )
        if len(set(self.individuals)) != n:  # name the first repeat
            seen: set[str] = set()
            for ident in self.individuals:
                if ident in seen:
                    raise DataError(f"duplicate individual id {ident!r}")
                seen.add(ident)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DataError("duplicate variable names")
        sizes = [len(v.modalities) for v in self.variables]
        out = (self.cells.min(axis=0) < 0) | (self.cells.max(axis=0) >= sizes)
        if out.any():
            raise DataError(f"cell value out of range for variable "
                            f"{names[int(out.argmax())]!r}")

    @property
    def n_individuals(self) -> int:
        return len(self.individuals)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_modalities(self) -> int:
        return sum(len(v.modalities) for v in self.variables)

    @property
    def block_offsets(self) -> tuple[int, ...]:
        """Start column of each variable's block in the disjunctive table."""
        sizes = [len(v.modalities) for v in self.variables]
        return tuple(np.cumsum([0] + sizes[:-1]).tolist())

    @property
    def global_modality_names(self) -> tuple[str, ...]:
        """Column labels 'VARIABLE.MODALITY', unique across the dataset."""
        return tuple(
            f"{var.name}.{mod}" for var in self.variables for mod in var.modalities
        )

    def variable_index(self, name: str) -> int:
        for i, var in enumerate(self.variables):
            if var.name == name:
                return i
        raise DataError(f"unknown variable {name!r}")

    def artifact(self) -> dict:
        """The dataset file's content: ``to_json()`` with the cells left an
        array, which jsonio writes and hashes a block of rows at a time."""
        return {
            "individuals": list(self.individuals),
            "variables": [v.to_json() for v in self.variables],
            "cells": self.cells,
        }

    def to_json(self) -> dict:
        return {**self.artifact(), "cells": self.cells.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "CategoricalDataset":
        jsonio.require_keys(data, ("individuals", "variables", "cells"), "a dataset")
        return cls(
            individuals=jsonio.labels(data["individuals"], "a dataset: individuals"),
            variables=_variables(data["variables"], "a dataset"),
            cells=jsonio.numbers(data["cells"], "i", 2, "a dataset: its cells"),
        )

    def sha256(self) -> str:
        """sha256 of the compact canonical JSON of ``to_json()``, streamed."""
        return jsonio.sha256_of(self.artifact())


def to_disjunctive(ds: CategoricalDataset) -> np.ndarray:
    """The N x M int64 one-hot table D: row i is ``ds.individuals[i]``, column
    j ``ds.global_modality_names[j]``; the cells are in range, so each row
    has one 1 in every variable's block."""
    n = ds.n_individuals
    entries = np.zeros((n, ds.n_modalities), dtype=np.int64)
    for j, off in enumerate(ds.block_offsets):
        entries[np.arange(n), off + ds.cells[:, j]] = 1
    return entries


def load_schema(path: str | Path) -> list[VariableSpec]:
    """Read a schema/binning config file (see README for the key layout)."""
    data = jsonio.load(path)
    jsonio.require_keys(data, ("variables",), f"a schema file {path}")
    return _variables(data["variables"], f"a schema file {path}")


def _variables(value, what: str) -> list[VariableSpec]:
    """The specs of a stored 'variables' entry, which must be a list of objects."""
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise DataError(f"not {what}: variables is not a list of objects")
    return [VariableSpec.from_json(v) for v in value]


def _read_csv(path: str | Path) -> tuple[list[str], list[str], list[list[str]]]:
    """Stripped header, stripped ids and body rows of a CSV whose first
    column holds the ids; blank lines are skipped, ragged rows and empty ids rejected."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one individual")
    header, body = rows[0], rows[1:]
    if len(header) < 2:
        raise DataError(f"{path}: need an id column plus at least one variable")
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
        if not row[0].strip():
            raise DataError(f"{path}:{lineno}: empty individual id")
    return [h.strip() for h in header], [row[0].strip() for row in body], body


def _encode_column(
    path: str | Path, header: list[str], body: list[list[str]], name: str,
    spec: VariableSpec | None,
) -> tuple[tuple[str, ...], list[int]]:
    """Labels and per-row codes of column ``name``; an empty cell is rejected.

    Without a spec the labels are the distinct cells in first-appearance
    order.  A binned spec discretizes numeric cells by its break-points; any
    other spec looks each cell up among its labels.
    """
    if name not in header[1:]:
        raise DataError(f"{path}: no column {name!r}")
    j = header.index(name, 1)
    lookup = {} if spec is None else {mod: i for i, mod in enumerate(spec.modalities)}
    codes = []
    for lineno, row in enumerate(body, start=2):
        cell = row[j].strip()
        if not cell:
            raise DataError(f"{path}:{lineno}: empty cell in column {name!r}")
        if spec is None:
            codes.append(lookup.setdefault(cell, len(lookup)))
        elif spec.is_binned:
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in binned "
                    f"column {name!r}"
                ) from None
            if not np.isfinite(value):  # float() reads nan and inf
                raise DataError(f"{path}:{lineno}: non-finite value {cell!r} in binned "
                                f"column {name!r}")
            codes.append(spec.bin_value(value))
        elif cell in lookup:
            codes.append(lookup[cell])
        else:
            raise DataError(
                f"{path}:{lineno}: unknown modality {cell!r} in column {name!r}"
            )
    return (tuple(lookup) if spec is None else spec.modalities), codes


def ingest_csv(
    path: str | Path,
    schema: list[VariableSpec] | str = "infer",
) -> CategoricalDataset:
    """Read a survey CSV (header row, first column = individual id).

    With ``schema="infer"`` every distinct cell string becomes a modality in
    first-appearance order.  With an explicit schema, the listed variables
    are matched to CSV columns by name (unlisted columns are ignored),
    unknown labels are rejected, and binned variables are discretized by
    their break-points.  Missing values in the columns read are rejected.
    """
    header, ids, body = _read_csv(path)
    specs = [None] * (len(header) - 1) if schema == "infer" else list(schema)
    names = header[1:] if schema == "infer" else [var.name for var in specs]
    variables = []
    cells = np.zeros((len(ids), len(specs)), dtype=np.int64)
    for k, (name, spec) in enumerate(zip(names, specs)):
        labels, cells[:, k] = _encode_column(path, header, body, name, spec)
        variables.append(spec or VariableSpec(name=name, modalities=labels))
    return CategoricalDataset(individuals=ids, variables=variables, cells=cells)


def expand_from_contingency(
    table,
    row_labels: list[str],
    col_labels: list[str],
    var_names: tuple[str, str] = ("row", "col"),
) -> CategoricalDataset:
    """Rebuild individuals from an I x J count table (two variables, K=2).

    Cell (i, j) with count c yields c identical individuals choosing row
    modality i and column modality j; ids are ``ROW:COL:n``.
    """
    counts = np.asarray(table)
    if counts.ndim != 2:
        raise DataError("contingency table must be 2-dimensional")
    if np.any(counts < 0) or not np.all(counts == counts.astype(np.int64)):
        raise DataError("contingency table must hold nonnegative integer counts")
    counts = counts.astype(np.int64)
    if counts.shape != (len(row_labels), len(col_labels)):
        raise DataError("contingency labels do not match the table shape")
    if counts.sum() == 0:
        raise DataError("contingency table is all zero")

    ids: list[str] = []
    cells: list[tuple[int, int]] = []
    for i, rlab in enumerate(row_labels):
        for j, clab in enumerate(col_labels):
            for t in range(int(counts[i, j])):
                ids.append(f"{rlab}:{clab}:{t + 1}")
                cells.append((i, j))
    variables = [
        VariableSpec(name=var_names[0], modalities=tuple(row_labels)),
        VariableSpec(name=var_names[1], modalities=tuple(col_labels)),
    ]
    return CategoricalDataset(
        individuals=ids, variables=variables, cells=np.array(cells, dtype=np.int64)
    )
