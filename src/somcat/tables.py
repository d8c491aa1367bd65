"""Burt table, chi-square corrections and contingency-table statistics.

The Burt table of a disjunctive table D is B = D'D: an M x M symmetric count
matrix whose (j, l) entry is the number of individuals choosing modalities j
and l together.  Dividing by functions of the modality counts turns B and D
into matrices whose ordinary Euclidean row distances equal the chi-square
distances of correspondence analysis; those corrected matrices are what the
map algorithms train on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DisjunctiveTable
from .errors import DataError, DimensionError, ZeroModalityError


@dataclass(eq=False)
class BurtTable:
    """Symmetric M x M co-occurrence count table with its block structure."""

    entries: np.ndarray
    block_offsets: tuple[int, ...]
    counts: np.ndarray            # diagonal / modality counts b_j
    names: tuple[str, ...]
    n_individuals: int
    n_variables: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        m = self.entries.shape[0]
        if self.entries.shape != (m, m):
            raise DimensionError("Burt table must be square")
        if len(self.names) != m:
            raise DimensionError("Burt table labels do not match its shape")
        if not np.array_equal(self.entries, self.entries.T):
            raise DataError("Burt table must be symmetric")
        if not np.array_equal(np.diag(self.entries), self.counts):
            raise DataError("Burt diagonal must equal the modality counts")
        k = self.n_variables
        bounds = list(self.block_offsets) + [m]
        for blk in range(k):
            lo, hi = bounds[blk], bounds[blk + 1]
            block = self.entries[lo:hi, lo:hi]
            if not np.array_equal(block, np.diag(np.diag(block))):
                raise DataError(
                    f"diagonal block {blk} must be diagonal "
                    "(modalities of one variable never co-occur)"
                )
        if not np.array_equal(self.entries.sum(axis=1), k * self.counts):
            raise DataError("Burt row sums must equal K * modality count")
        if int(self.entries.sum()) != k * k * self.n_individuals:
            raise DataError("Burt grand total must equal K^2 * N")

    @property
    def n_modalities(self) -> int:
        return self.entries.shape[0]


def burt(disj: DisjunctiveTable) -> BurtTable:
    """B = D'D, multiplied in float64 and cast back to int64.

    numpy runs an int64 matrix product in its own loop, without BLAS.  Every
    partial sum of D'D is a count below 2**53, so the float64 products and
    their sum are exact whatever order BLAS sums in.  The rows are converted
    and multiplied in blocks of at most 2**16 entries, so no float copy of
    the whole table is made.
    """
    d = disj.entries
    n, m = d.shape
    step = max(1, (1 << 16) // m)
    entries = np.zeros((m, m))
    for start in range(0, n, step):
        block = d[start:start + step].astype(np.float64)
        entries += block.T @ block
    return BurtTable(
        entries=entries.astype(np.int64),
        block_offsets=disj.block_offsets,
        counts=disj.counts.copy(),
        names=disj.names,
        n_individuals=disj.n_individuals,
        n_variables=disj.n_variables,
    )


@dataclass(eq=False)
class CorrectedMatrix:
    """A count matrix rescaled so Euclidean row distance = chi-square distance."""

    entries: np.ndarray
    row_labels: tuple[str, ...]

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if len(self.row_labels) != self.entries.shape[0]:
            raise DimensionError("corrected matrix labels do not match its shape")


def _check_positive_counts(counts: np.ndarray, names) -> None:
    for j, c in enumerate(counts):
        if c == 0:
            raise ZeroModalityError(names[j] if names is not None else f"#{j}")


def corrected_burt(table, k: int | None = None, names=None) -> CorrectedMatrix:
    """Burt correction: entry (j, l) becomes b_jl / (K * sqrt(b_j) * sqrt(b_l)).

    Accepts a :class:`BurtTable` (K and labels taken from it) or a raw square
    array with ``k`` given.  Every diagonal entry of the result is 1/K up to
    rounding, a useful sanity anchor.
    """
    if isinstance(table, BurtTable):
        entries, counts, names, k = (
            table.entries, table.counts, table.names, table.n_variables,
        )
    else:
        entries = np.asarray(table, dtype=np.int64)
        if k is None:
            raise DimensionError("k (number of variables) required for raw input")
        counts = np.diag(entries)
        if names is None:
            names = tuple(f"m{j}" for j in range(entries.shape[0]))
    _check_positive_counts(counts, names)
    root = np.sqrt(counts.astype(np.float64))
    scaled = entries / (k * np.outer(root, root))
    return CorrectedMatrix(entries=scaled, row_labels=tuple(names))


def corrected_disjunctive(disj: DisjunctiveTable) -> CorrectedMatrix:
    """Disjunctive correction: entry (i, j) becomes d_ij / (sqrt(K) * sqrt(b_j))."""
    _check_positive_counts(disj.counts, disj.names)
    k = disj.n_variables
    root = np.sqrt(disj.counts.astype(np.float64))
    scaled = disj.entries / (np.sqrt(float(k)) * root)[np.newaxis, :]
    return CorrectedMatrix(entries=scaled, row_labels=tuple(disj.individuals))


def corrected_frequency(table, row_labels=None) -> CorrectedMatrix:
    """General contingency correction: f_ij / sqrt(f_i. * f_.j) on frequencies."""
    counts = np.asarray(table, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise DataError("contingency table must have a positive total")
    f = counts / total
    fr, fc = f.sum(axis=1), f.sum(axis=0)
    if np.any(fr == 0) or np.any(fc == 0):
        raise DataError("corrected frequency table requires nonzero margins")
    scaled = f / np.sqrt(np.outer(fr, fc))
    labels = row_labels or [f"r{i}" for i in range(f.shape[0])]
    return CorrectedMatrix(entries=scaled, row_labels=tuple(labels))


@dataclass(eq=False)
class Profiles:
    """Row and column profiles of a contingency table, with their margins."""

    row_profiles: np.ndarray     # each row sums to 1
    col_profiles: np.ndarray     # each column sums to 1
    row_margins: np.ndarray      # f_i.
    col_margins: np.ndarray      # f_.j


def profiles(table) -> Profiles:
    counts = np.asarray(table, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise DataError("contingency table must have a positive total")
    f = counts / total
    fr, fc = f.sum(axis=1), f.sum(axis=0)
    if np.any(fr == 0) or np.any(fc == 0):
        raise DataError("profiles require nonzero margins")
    return Profiles(
        row_profiles=f / fr[:, np.newaxis],
        col_profiles=f / fc[np.newaxis, :],
        row_margins=fr,
        col_margins=fc,
    )


def chi2_distance(table, a: int, b: int, axis: str = "rows") -> float:
    """Chi-square distance between two rows (or columns) of a count table.

    Rows are compared as profiles, each squared difference weighted by the
    reciprocal of the opposite margin.
    """
    p = profiles(table)
    if axis == "rows":
        diff = p.row_profiles[a] - p.row_profiles[b]
        return float(np.sum(diff * diff / p.col_margins))
    if axis == "cols":
        diff = p.col_profiles[:, a] - p.col_profiles[:, b]
        return float(np.sum(diff * diff / p.row_margins))
    raise DimensionError(f"axis must be 'rows' or 'cols', got {axis!r}")


@dataclass(frozen=True)
class ContingencyStats:
    total_inertia: float
    chi_square: float
    grand_total: float
    row_inertia: float
    col_inertia: float


def total_inertia(table) -> ContingencyStats:
    """Total inertia of a contingency table, equal to chi-square / grand total.

    Computed three ways (deviation form, and weighted distances of row and of
    column profiles to their centroid); the internal agreement of the row and
    column decompositions to 1e-10 guards the arithmetic.
    """
    counts = np.asarray(table, dtype=np.float64)
    total = counts.sum()
    p = profiles(counts)
    f = counts / total
    expected = np.outer(p.row_margins, p.col_margins)
    inertia = float(np.sum((f - expected) ** 2 / expected))

    # Weighted squared chi-square distance of each row profile to the centroid.
    row_dev = p.row_profiles - p.col_margins[np.newaxis, :]
    row_inertia = float(np.sum(p.row_margins * np.sum(row_dev**2 / p.col_margins, axis=1)))
    col_dev = p.col_profiles - p.row_margins[:, np.newaxis]
    col_inertia = float(np.sum(p.col_margins * np.sum(col_dev**2 / p.row_margins[:, np.newaxis], axis=0)))
    if abs(row_inertia - col_inertia) > 1e-10 * max(1.0, abs(inertia)):
        raise DataError(
            "row and column inertia decompositions disagree beyond tolerance"
        )
    return ContingencyStats(
        total_inertia=inertia,
        chi_square=inertia * total,
        grand_total=float(total),
        row_inertia=row_inertia,
        col_inertia=col_inertia,
    )
