"""Burt table, corrected matrices, profiles and inertia."""

import numpy as np
import pytest

from somcat.analyses import modality_mean_vectors
from somcat.dataset import CategoricalDataset, VariableSpec, to_disjunctive
from somcat.errors import DataError, ZeroModalityError
from somcat.marriages import marriage_counts, marriage_dataset
from somcat.tables import (
    burt,
    chi2_distance,
    corrected_burt,
    corrected_disjunctive,
    disjunctive_index,
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


def bare_index(names):
    """Column of a modality label with its variable prefix stripped."""
    return [n.split(".", 1)[1] for n in names].index


# ----------------------------------------------------------------------- Burt

def test_burt_is_symmetric_with_count_diagonal(marriage_disj, marriage_burt):
    b = marriage_burt
    assert np.array_equal(b, b.T)
    assert np.array_equal(np.diag(b), marriage_disj.sum(axis=0))


def test_burt_known_cells(marriage, marriage_burt):
    b = marriage_burt
    idx = bare_index(marriage.global_modality_names)
    assert b[idx("MFARM"), idx("FFARM")] == 16
    assert b[idx("MWORK"), idx("FCLER")] == 60
    assert b[idx("MINTO"), idx("FCLER")] == 35


def test_burt_within_block_off_diagonal_zero(marriage_burt):
    b = marriage_burt
    for lo, hi in ((0, 6), (6, 12)):
        block = b[lo:hi, lo:hi]
        assert np.array_equal(block, np.diag(np.diag(block)))


def test_burt_row_sums_and_total(marriage_disj, marriage_burt):
    b = marriage_burt
    assert np.array_equal(b.sum(axis=1), 2 * marriage_disj.sum(axis=0))
    assert b.sum() == 4 * 270  # K^2 * N


def test_burt_equals_cross_products_on_random_data():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ds = random_dataset(rng, n=25, sizes=(3, 2, 4))
        d = to_disjunctive(ds)
        expect = d.T @ d
        assert np.array_equal(burt(ds), expect)


def test_burt_float_product_equals_the_int64_product():
    rng = np.random.default_rng(12)
    for n, sizes in ((40, (3, 4, 2)), (3000, (6,) * 10), (500, (2, 9, 5, 3))):
        ds = random_dataset(rng, n=n, sizes=sizes)
        d = to_disjunctive(ds)
        entries = burt(ds)
        assert entries.dtype == np.int64
        assert np.array_equal(entries, d.T @ d)


# ----------------------------------------------------------- corrected tables

def test_corrected_burt_direct_formula(marriage, marriage_disj, marriage_burt):
    bc = corrected_burt(marriage)
    b = marriage_burt
    counts = marriage_disj.sum(axis=0)
    k = 2
    for j in range(12):
        for l in range(12):
            expect = b[j, l] / (k * np.sqrt(counts[j]) * np.sqrt(counts[l]))
            assert bc[j, l] == pytest.approx(expect, abs=1e-15)


def test_corrected_burt_diagonal_is_half(marriage):
    bc = corrected_burt(marriage)
    assert np.all(np.abs(np.diag(bc) - 0.5) <= 1e-15)


def test_corrected_burt_exclusive_pair_is_half(marriage):
    bc = corrected_burt(marriage)
    idx = bare_index(marriage.global_modality_names)
    assert bc[idx("MFARM"), idx("FFARM")] == pytest.approx(0.5, abs=1e-15)


def test_corrected_disjunctive_direct_formula(marriage, marriage_disj):
    dc = corrected_disjunctive(marriage)
    d = marriage_disj
    counts = d.sum(axis=0)
    for i in range(270):
        for j in range(12):
            expect = d[i, j] / (np.sqrt(2.0) * np.sqrt(counts[j]))
            assert dc[i, j] == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("which", ["marriage", "survey"])
def test_disjunctive_index_is_the_corrected_table_bit_for_bit(which):
    ds = (marriage_dataset() if which == "marriage"
          else random_dataset(np.random.default_rng(18), n=1200, sizes=(6,) * 10))
    n, k = ds.n_individuals, ds.n_variables
    d = to_disjunctive(ds)
    want = d / (np.sqrt(float(k)) * np.sqrt(d.sum(axis=0).astype(np.float64)))
    index = disjunctive_index(ds)
    assert index.cols.shape == (k, n) and len(index) == n
    assert np.all(np.diff(index.cols, axis=0) > 0)  # column order down each row
    assert np.array_equal(index.cols.T, np.nonzero(d)[1].reshape(n, k))
    assert np.array_equal(index.dense(), want)
    assert np.array_equal(corrected_disjunctive(ds), want)
    assert np.all(np.count_nonzero(want, axis=1) == k)


def chi2_case(which):
    """The marriage data, or a random dataset drawn from seed ``which``."""
    if which == "marriage":
        return marriage_dataset()
    rng = np.random.default_rng(which)
    return random_dataset(rng, n=30, sizes=(3, 2, 4))


def scaled_squared_distance(rows, a, b, n):
    diff = rows[a] - rows[b]
    return n * float(diff @ diff)


@pytest.mark.parametrize("which", ["marriage", 21, 22])
def test_corrected_disjunctive_rows_give_chi_square_distance(which):
    # N * ||dc_a - dc_b||^2 is the chi-square distance between rows a, b of D
    ds = chi2_case(which)
    dc = corrected_disjunctive(ds)
    n = ds.n_individuals
    rng = np.random.default_rng(5)
    for a, b in rng.integers(0, n, size=(60, 2)):
        expect = chi2_distance(to_disjunctive(ds), a, b)
        got = scaled_squared_distance(dc, a, b, n)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("which", ["marriage", 21, 22])
def test_modality_mean_vectors_give_chi_square_distance(which):
    # N * ||mean_j - mean_l||^2 is the chi-square distance between rows j, l of B
    ds = chi2_case(which)
    means = modality_mean_vectors(ds)
    b = burt(ds)
    n, m = ds.n_individuals, ds.n_modalities
    for j in range(m):
        for l in range(j + 1, m):
            expect = chi2_distance(b, j, l)
            got = scaled_squared_distance(means, j, l, n)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_corrected_burt_is_the_gram_matrix_of_corrected_columns(marriage):
    dc = corrected_disjunctive(marriage)
    assert np.allclose(corrected_burt(marriage), dc.T @ dc, rtol=0, atol=1e-15)


def test_corrected_rejects_zero_modality():
    ds = CategoricalDataset(
        individuals=["a", "b"],
        variables=[VariableSpec(name="v", modalities=("x", "y", "z"))],
        cells=np.array([[0], [1]]),
    )
    with pytest.raises(ZeroModalityError, match="'v.z'"):
        corrected_burt(ds)
    with pytest.raises(ZeroModalityError, match="'v.z'"):
        corrected_disjunctive(ds)


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
