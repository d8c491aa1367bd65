"""Burt table, chi-square corrections and contingency-table statistics.

The Burt table of a dataset's disjunctive table D is B = D'D: an M x M
symmetric count matrix whose (j, l) entry is the number of individuals
choosing modalities j and l together.  Dividing by functions of the modality
counts gives the corrected tables the map algorithms train on; all are plain
arrays computed from the ``CategoricalDataset``.  For N individuals, N
times the squared Euclidean distance between rows of the corrected
disjunctive table C is the chi-square distance between those rows of D, and
likewise for the modality mean vectors (``analyses.modality_mean_vectors``)
and rows of B.  The corrected Burt table C'C has no such row identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset
from .errors import DataError, DimensionError, ZeroModalityError
from .som import OneHotRows


def burt(ds: CategoricalDataset) -> np.ndarray:
    """B = D'D for D = to_disjunctive(ds), the M x M int64 count table.

    Row and column j are modality ``ds.global_modality_names[j]``.  B is
    symmetric with the modality counts b_j (the column sums of D) on its
    diagonal and zeros elsewhere in its diagonal blocks; row j sums to
    K * b_j, and the whole table to K^2 * N.  Entry (j, l) counts the
    individuals whose columns ``ds.cells + ds.block_offsets`` hold j and l:
    one integer bincount of column pairs per variable, without D itself.
    """
    cols, m = ds.cells + np.asarray(ds.block_offsets), ds.n_modalities
    pairs = (np.bincount((col[:, None] * m + cols).ravel(), minlength=m * m) for col in cols.T)
    return sum(pairs).reshape(m, m)


def _checked_counts(counts: np.ndarray, ds: CategoricalDataset) -> np.ndarray:
    """The modality counts as float64; a modality nobody chose is an error."""
    zero = np.flatnonzero(counts == 0)
    if len(zero):
        raise ZeroModalityError(ds.global_modality_names[zero[0]])
    return counts.astype(np.float64)


def corrected_burt(ds: CategoricalDataset) -> np.ndarray:
    """Burt correction: entry (j, l) of burt(ds) over K * sqrt(b_j) * sqrt(b_l).

    Row j is modality ``ds.global_modality_names[j]``.  Every diagonal entry
    of the result is 1/K up to rounding, a useful sanity anchor.
    """
    b = burt(ds)
    root = np.sqrt(_checked_counts(np.diag(b), ds))
    return b / (ds.n_variables * np.outer(root, root))


def disjunctive_index(ds: CategoricalDataset) -> OneHotRows:
    """The corrected disjunctive table in index form: individual i's K
    columns ``ds.cells[i] + ds.block_offsets``, and 1 / (sqrt(K) * sqrt(b_j))
    for each column j, from the counts b_j of those columns."""
    cols = np.ascontiguousarray((ds.cells + np.asarray(ds.block_offsets)).T, dtype=np.intp)
    counts = _checked_counts(np.bincount(cols.ravel(), minlength=ds.n_modalities), ds)
    return OneHotRows(cols, 1.0 / (np.sqrt(float(ds.n_variables)) * np.sqrt(counts)))


def corrected_disjunctive(ds: CategoricalDataset) -> np.ndarray:
    """Disjunctive correction: entry (i, j) becomes d_ij / (sqrt(K) * sqrt(b_j)).

    Row i is individual ``ds.individuals[i]``, column j modality
    ``ds.global_modality_names[j]``: the dense expansion of
    ``disjunctive_index(ds)``.
    """
    return disjunctive_index(ds).dense()


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
