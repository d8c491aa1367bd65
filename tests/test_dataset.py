"""Dataset construction, CSV ingestion and the disjunctive encoding."""

import hashlib
import json

import numpy as np
import pytest

from conftest import uniform_survey_csv

from somcat.dataset import (
    CategoricalDataset,
    VariableSpec,
    expand_from_contingency,
    ingest_csv,
    load_schema,
)
from somcat.errors import DataError
from somcat.marriages import HUSBAND, WIFE, marriage_counts

# The sha256 of the compact canonical text of the marriage data and of the
# benchmark's seed-1 survey, as json.dumps of the whole text gave them.
MARRIAGE_SHA256 = "00c27533a91df44d4c1efe2ce51e284669e691d33db30684d3c9c7a719ffb9a1"
SURVEY_SHA256 = "e9bae13bf859e88dd7857c3a2cf2a8da7d1aa12a5f8d7125596fbc8ef45a1a38"


# ---------------------------------------------------------------- VariableSpec

def test_variable_spec_requires_two_modalities():
    with pytest.raises(DataError):
        VariableSpec(name="x", modalities=("only",))


def test_variable_spec_breaks_must_increase():
    with pytest.raises(DataError):
        VariableSpec(name="x", modalities=("a", "b", "c"), breaks=(2.0, 2.0))
    with pytest.raises(DataError):
        VariableSpec(name="x", modalities=("a", "b", "c"), breaks=(3.0, 1.0))


def test_variable_spec_breaks_count_matches_modalities():
    # k modalities need k - 1 break points
    with pytest.raises(DataError):
        VariableSpec(name="x", modalities=("a", "b", "c"), breaks=(1.0,))


def test_bin_value_edges():
    spec = VariableSpec(name="age", modalities=("lo", "mid", "hi"), breaks=(10.0, 20.0))
    assert spec.bin_value(5.0) == 0
    assert spec.bin_value(10.0) == 1  # intervals are left-closed/right-open
    assert spec.bin_value(10.5) == 1
    assert spec.bin_value(20.0) == 2
    assert spec.bin_value(25.0) == 2


def test_bin_value_ascending_label_order():
    # labels listed lowest interval first
    spec = VariableSpec(
        name="school", modalities=("SCHO3", "SCHO2", "SCHO1"), breaks=(40.0, 80.0)
    )
    assert spec.modalities[spec.bin_value(85.0)] == "SCHO1"
    assert spec.modalities[spec.bin_value(80.0)] == "SCHO1"
    assert spec.modalities[spec.bin_value(10.0)] == "SCHO3"


def test_bin_value_descending_flag():
    # first label covers the highest interval, as in a table that prints
    # the ">= x" row first
    spec = VariableSpec(
        name="school",
        modalities=("SCHO1", "SCHO2", "SCHO3"),
        breaks=(40.0, 80.0),
        descending=True,
    )
    assert spec.modalities[spec.bin_value(85.0)] == "SCHO1"
    assert spec.modalities[spec.bin_value(50.0)] == "SCHO2"
    assert spec.modalities[spec.bin_value(10.0)] == "SCHO3"


# ---------------------------------------------------------- CategoricalDataset

def test_dataset_basic_shape(marriage):
    assert marriage.n_individuals == 270
    assert marriage.n_variables == 2
    assert marriage.n_modalities == 12
    assert marriage.block_offsets == (0, 6)


def test_dataset_rejects_duplicate_ids():
    v = VariableSpec(name="v", modalities=("a", "b"))
    with pytest.raises(DataError):
        CategoricalDataset(
            individuals=["x", "x"], variables=[v], cells=np.array([[0], [1]])
        )
    with pytest.raises(DataError, match="^duplicate individual id 'y'$"):  # first repeat
        CategoricalDataset(individuals=["x", "y", "y", "x"], variables=[v],
                           cells=np.zeros((4, 1)))


def test_dataset_rejects_out_of_range_cell():
    v = VariableSpec(name="v", modalities=("a", "b"))
    with pytest.raises(DataError):
        CategoricalDataset(
            individuals=["x", "y"], variables=[v], cells=np.array([[0], [2]])
        )
    names = [VariableSpec(name=n, modalities=("a", "b", "c")) for n in "uvwz"]
    for cells, bad in [([[0, 0, 3, -1], [0, 2, 0, 0]], "w"), ([[0, -1, 0, 0]], "v"),
                       ([[0, 0, 0, 0], [0, 0, 0, 3]], "z")]:
        with pytest.raises(DataError, match=f"^cell value out of range for variable '{bad}'$"):
            CategoricalDataset(individuals=[f"i{i}" for i in range(len(cells))],
                               variables=names, cells=np.array(cells))


def test_dataset_global_names_are_prefixed(marriage):
    names = marriage.global_modality_names
    assert names[0] == "husband.MFARM"
    assert names[6] == "wife.FFARM"
    assert len(set(names)) == 12


def test_dataset_json_round_trip(marriage):
    clone = CategoricalDataset.from_json(marriage.to_json())
    assert clone.individuals == marriage.individuals
    assert np.array_equal(clone.cells, marriage.cells)
    assert clone.sha256() == marriage.sha256()


def canonical_sha256(ds):
    """The dataset hash as one compact json text of ``to_json()``."""
    text = json.dumps(ds.to_json(), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_the_dataset_hash_is_the_canonical_digest(marriage, tmp_path):
    """The streamed hash keeps the digest of the whole compact text: the
    marriage data's and the benchmark survey's as pinned, and non-ASCII ids,
    names and labels, over several blocks of cells and of ids."""
    assert marriage.sha256() == MARRIAGE_SHA256 == canonical_sha256(marriage)
    (tmp_path / "survey.csv").write_text(uniform_survey_csv(1, 10_000, 10, 6))
    survey = ingest_csv(tmp_path / "survey.csv")
    assert survey.sha256() == SURVEY_SHA256 == canonical_sha256(survey)
    rng = np.random.default_rng(4)
    variables = [VariableSpec(name=name, modalities=("oui", "non", "peut-être", "☃"))
                 for name in ("âge", "中文", "🙂", "q\"\n")]
    wide = CategoricalDataset([f"é{i}中" for i in range(20_000)], variables,
                              rng.integers(0, 4, (20_000, 4)))
    assert wide.sha256() == canonical_sha256(wide)


@pytest.mark.parametrize("flag", [True, False])
def test_a_json_boolean_among_the_cells_is_a_data_error(marriage, flag):
    """A JSON true or false is no modality index, though numpy reads one
    among integers as 1 or 0."""
    data = json.loads(json.dumps(marriage.to_json()))
    data["cells"][0][0] = flag
    with pytest.raises(DataError, match="not a dataset: its cells"):
        CategoricalDataset.from_json(data)


# ------------------------------------------------------ disjunctive encoding

def test_disjunctive_one_hot_block_structure(marriage, marriage_disj):
    d = marriage_disj
    assert d.shape == (270, 12)
    # exactly one 1 inside every variable block of every row
    bounds = marriage.block_offsets + (marriage.n_modalities,)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert np.array_equal(
            d[:, lo:hi].sum(axis=1), np.ones(270, dtype=np.int64)
        )
    assert d.sum() == 270 * 2


def test_marriage_modality_counts(marriage, marriage_disj):
    names, counts = marriage.global_modality_names, marriage_disj.sum(axis=0)
    husband = dict(zip(names[:6], counts[:6]))
    wife = dict(zip(names[6:], counts[6:]))
    assert husband == {
        "husband.MFARM": 16,
        "husband.MCRAF": 27,
        "husband.MMANA": 40,
        "husband.MINTO": 60,
        "husband.MCLER": 25,
        "husband.MWORK": 102,
    }
    assert wife == {
        "wife.FFARM": 16,
        "wife.FCRAF": 15,
        "wife.FMANA": 13,
        "wife.FINTO": 50,
        "wife.FCLER": 144,
        "wife.FWORK": 32,
    }


# -------------------------------------------------------------------- ingest

def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_infer(tmp_path):
    p = write_csv(
        tmp_path / "toy.csv",
        "id,color,size\n" "i1,red,small\n" "i2,blue,large\n" "i3,red,large\n",
    )
    ds = ingest_csv(p)
    assert ds.n_individuals == 3
    assert ds.variables[0].modalities == ("red", "blue")
    assert ds.variables[1].modalities == ("small", "large")
    assert ds.cells.tolist() == [[0, 0], [1, 1], [0, 1]]


def test_ingest_with_schema_subset_and_binning(tmp_path):
    p = write_csv(
        tmp_path / "toy.csv",
        "id,age,color,junk\n" "i1,12,red,zzz\n" "i2,30,blue,zzz\n" "i3,51,red,zzz\n",
    )
    schema = [
        VariableSpec(name="age", modalities=("young", "mid", "old"), breaks=(18.0, 45.0)),
        VariableSpec(name="color", modalities=("red", "blue")),
    ]
    ds = ingest_csv(p, schema=schema)
    assert ds.n_variables == 2  # junk column ignored
    assert ds.cells.tolist() == [[0, 0], [1, 1], [2, 0]]


def test_ingest_rejects_unknown_label(tmp_path):
    p = write_csv(tmp_path / "toy.csv", "id,color\ni1,red\ni2,green\n")
    schema = [VariableSpec(name="color", modalities=("red", "blue"))]
    with pytest.raises(DataError, match="green"):
        ingest_csv(p, schema=schema)


def test_ingest_rejects_missing_value(tmp_path):
    p = write_csv(tmp_path / "toy.csv", "id,color,size\ni1,red,\ni2,blue,large\n")
    with pytest.raises(DataError):
        ingest_csv(p)


def test_ingest_rejects_non_numeric_for_binned(tmp_path):
    p = write_csv(tmp_path / "toy.csv", "id,age\ni1,twelve\n")
    schema = [VariableSpec(name="age", modalities=("lo", "hi"), breaks=(18.0,))]
    with pytest.raises(DataError):
        ingest_csv(p, schema=schema)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_ingest_rejects_a_non_finite_binned_cell(tmp_path, cell):
    """float() reads these, and no break-point places them."""
    p = write_csv(tmp_path / "toy.csv", f"id,age\ni1,23\ni2,{cell}\ni3,52\n")
    schema = [VariableSpec(name="age", modalities=("lo", "mid", "hi"), breaks=(30.0, 50.0))]
    with pytest.raises(DataError, match=rf"toy.csv:3: non-finite value '{cell}' .*'age'"):
        ingest_csv(p, schema=schema)


def test_ingest_rejects_ragged_row(tmp_path):
    p = write_csv(tmp_path / "toy.csv", "id,a,b\ni1,x,y\ni2,x\n")
    with pytest.raises(DataError, match="expected 3 fields"):
        ingest_csv(p)


def test_load_schema_round_trip(tmp_path):
    schema = [
        VariableSpec(name="age", modalities=("lo", "hi"), breaks=(18.0,)),
        VariableSpec(name="color", modalities=("red", "blue")),
    ]
    path = tmp_path / "schema.json"
    path.write_text(
        json.dumps({"variables": [v.to_json() for v in schema]}), encoding="utf-8"
    )
    loaded = load_schema(path)
    assert loaded == schema


# ------------------------------------------------------- contingency expansion

def cross_tabulate(ds: CategoricalDataset, var_a: int, var_b: int) -> np.ndarray:
    """Count matrix of variable pair (a, b); inverse check for expansion."""
    ma = len(ds.variables[var_a].modalities)
    mb = len(ds.variables[var_b].modalities)
    out = np.zeros((ma, mb), dtype=np.int64)
    np.add.at(out, (ds.cells[:, var_a], ds.cells[:, var_b]), 1)
    return out


def test_expand_marriage_round_trips_to_table4(marriage):
    counts = cross_tabulate(marriage, 0, 1)
    assert np.array_equal(counts, np.array(marriage_counts()))
    assert counts.sum() == 270


def test_expand_rejects_all_zero():
    with pytest.raises(DataError):
        expand_from_contingency([[0, 0], [0, 0]], ["r1", "r2"], ["c1", "c2"])


def test_expand_rejects_negative_and_fractional():
    with pytest.raises(DataError):
        expand_from_contingency([[1, -1]], ["r"], ["c1", "c2"])
    with pytest.raises(DataError):
        expand_from_contingency([[1.5, 0]], ["r"], ["c1", "c2"])


def test_marriage_labels():
    assert HUSBAND == ("MFARM", "MCRAF", "MMANA", "MINTO", "MCLER", "MWORK")
    assert WIFE == ("FFARM", "FCRAF", "FMANA", "FINTO", "FCLER", "FWORK")
