"""Burt table, corrected matrices, profiles and inertia."""

import numpy as np
import pytest

from somcat.dataset import to_disjunctive
from somcat.errors import DataError, ZeroModalityError
from somcat.marriages import marriage_counts
from somcat.tables import (
    burt,
    chi2_distance,
    corrected_burt,
    corrected_disjunctive,
    corrected_frequency,
    profiles,
    total_inertia,
)

from conftest import random_dataset


def pearson_chi_square(counts):
    """Independent chi-square oracle written directly from observed/expected."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    chi2 = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            exp = counts[i].sum() * counts[:, j].sum() / total
            chi2 += (counts[i, j] - exp) ** 2 / exp
    return chi2


# ----------------------------------------------------------------------- Burt

def test_burt_is_symmetric_with_count_diagonal(marriage_disj, marriage_burt):
    b = marriage_burt.entries
    assert np.array_equal(b, b.T)
    assert np.array_equal(np.diag(b), marriage_disj.counts)


def test_burt_known_cells(marriage_disj, marriage_burt):
    b = marriage_burt.entries
    idx = marriage_disj.column_index
    assert b[idx("MFARM"), idx("FFARM")] == 16
    assert b[idx("MWORK"), idx("FCLER")] == 60
    assert b[idx("MINTO"), idx("FCLER")] == 35


def test_burt_within_block_off_diagonal_zero(marriage_burt):
    b = marriage_burt.entries
    for lo, hi in ((0, 6), (6, 12)):
        block = b[lo:hi, lo:hi]
        assert np.array_equal(block, np.diag(np.diag(block)))


def test_burt_row_sums_and_total(marriage_disj, marriage_burt):
    b = marriage_burt.entries
    assert np.array_equal(b.sum(axis=1), 2 * marriage_disj.counts)
    assert b.sum() == 4 * 270  # K^2 * N


def test_burt_equals_cross_products_on_random_data():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ds = random_dataset(rng, n=25, sizes=(3, 2, 4))
        disj = to_disjunctive(ds)
        expect = disj.entries.T @ disj.entries
        assert np.array_equal(burt(disj).entries, expect)


def test_burt_float_product_equals_the_int64_product():
    rng = np.random.default_rng(12)
    for n, sizes in ((40, (3, 4, 2)), (3000, (6,) * 10), (500, (2, 9, 5, 3))):
        disj = to_disjunctive(random_dataset(rng, n=n, sizes=sizes))
        entries = burt(disj).entries
        assert entries.dtype == np.int64
        assert np.array_equal(entries, disj.entries.T @ disj.entries)


# ----------------------------------------------------------- corrected tables

def test_corrected_burt_direct_formula(marriage_disj, marriage_burt):
    bc = corrected_burt(marriage_burt)
    b = marriage_burt.entries
    counts = marriage_disj.counts
    k = 2
    for j in range(12):
        for l in range(12):
            expect = b[j, l] / (k * np.sqrt(counts[j]) * np.sqrt(counts[l]))
            assert bc.entries[j, l] == pytest.approx(expect, abs=1e-15)


def test_corrected_burt_diagonal_is_half(marriage_burt):
    bc = corrected_burt(marriage_burt)
    assert np.all(np.abs(np.diag(bc.entries) - 0.5) <= 1e-15)


def test_corrected_burt_exclusive_pair_is_half(marriage_disj, marriage_burt):
    bc = corrected_burt(marriage_burt)
    idx = marriage_disj.column_index
    assert bc.entries[idx("MFARM"), idx("FFARM")] == pytest.approx(0.5, abs=1e-15)


def test_corrected_disjunctive_direct_formula(marriage_disj):
    dc = corrected_disjunctive(marriage_disj)
    d = marriage_disj.entries
    counts = marriage_disj.counts
    for i in range(270):
        for j in range(12):
            expect = d[i, j] / (np.sqrt(2.0) * np.sqrt(counts[j]))
            assert dc.entries[i, j] == pytest.approx(expect, abs=1e-15)


def test_corrected_rejects_zero_modality():
    entries = np.array([[4, 0], [0, 0]])
    with pytest.raises(ZeroModalityError):
        corrected_burt(entries, k=1)


def test_corrected_frequency_matches_formula():
    counts = np.array([[3.0, 1.0, 4.0], [1.0, 5.0, 9.0]])
    fc = corrected_frequency(counts)
    total = counts.sum()
    f = counts / total
    for i in range(2):
        for j in range(3):
            expect = f[i, j] / np.sqrt(f[i].sum() * f[:, j].sum())
            assert fc.entries[i, j] == pytest.approx(expect, abs=1e-15)


def test_corrected_frequency_identity_diagonal():
    # a diagonal table concentrates each row on its own column
    fc = corrected_frequency(np.diag([2.0, 3.0, 5.0]))
    assert np.allclose(fc.entries, np.eye(3))


# ------------------------------------------------------- profiles and inertia

def test_profiles_sum_to_one():
    rng = np.random.default_rng(5)
    counts = rng.integers(1, 30, size=(4, 6))
    p = profiles(counts)
    assert np.allclose(p.row_profiles.sum(axis=1), 1.0)
    assert np.allclose(p.col_profiles.sum(axis=0), 1.0)
    assert p.row_margins.sum() == pytest.approx(1.0)


def test_profiles_reject_zero_margin():
    with pytest.raises(DataError):
        profiles(np.array([[1, 0], [2, 0]]))


def test_chi2_distance_zero_for_proportional_rows():
    counts = np.array([[2, 4, 6], [3, 6, 9], [1, 7, 2]])
    assert chi2_distance(counts, 0, 1) == pytest.approx(0.0, abs=1e-15)
    assert chi2_distance(counts, 0, 2) > 0


def test_chi2_distance_matches_hand_formula():
    counts = np.array([[5, 1, 2], [2, 8, 3], [4, 4, 4]], dtype=float)
    total = counts.sum()
    fr = counts.sum(axis=1) / total
    fc = counts.sum(axis=0) / total
    f = counts / total
    a, b = 0, 2
    expect = sum(
        (f[a, j] / fr[a] - f[b, j] / fr[b]) ** 2 / fc[j] for j in range(3)
    )
    assert chi2_distance(counts, a, b) == pytest.approx(expect, rel=1e-12)
    expect_c = sum(
        (f[i, 0] / fc[0] - f[i, 1] / fc[1]) ** 2 / fr[i] for i in range(3)
    )
    assert chi2_distance(counts, 0, 1, axis="cols") == pytest.approx(
        expect_c, rel=1e-12
    )


def test_total_inertia_matches_chi_square_oracle_on_marriage():
    counts = np.array(marriage_counts())
    stats = total_inertia(counts)
    chi2 = pearson_chi_square(counts)
    assert stats.chi_square == pytest.approx(chi2, rel=1e-10)
    assert stats.total_inertia == pytest.approx(chi2 / 270.0, rel=1e-10)


def test_total_inertia_row_and_column_views_agree():
    rng = np.random.default_rng(17)
    for _ in range(20):
        counts = rng.integers(1, 40, size=(5, 7))
        stats = total_inertia(counts)
        assert stats.row_inertia == pytest.approx(stats.col_inertia, rel=1e-10)
        assert stats.total_inertia == pytest.approx(stats.row_inertia, rel=1e-10)


def test_total_inertia_zero_for_independent_table():
    counts = np.outer([2, 3, 5], [1, 4, 2, 3])
    stats = total_inertia(counts)
    assert stats.total_inertia == pytest.approx(0.0, abs=1e-15)
