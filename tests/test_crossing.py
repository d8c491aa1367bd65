"""Crossing an external qualitative column with the trained map."""

import numpy as np
import pytest

from somcat.analyses import kdisj
from somcat.crossing import (
    ExternalColumn,
    PieGrid,
    cross,
    external_from_csv,
    external_from_dataset,
)
from somcat.dataset import VariableSpec, ingest_csv
from somcat.errors import DataError, DimensionError
from somcat.som import MapAssignment, Topology, TrainConfig

TOPO = Topology.grid(3, 3)


@pytest.fixture(scope="module")
def marriage_run(marriage):
    return kdisj(marriage, TOPO, TrainConfig(seed=0, t_max=400))


def test_external_from_dataset_lifts_variable(marriage):
    col = external_from_dataset(marriage, "wife")
    assert col.name == "wife"
    assert col.modalities == ("FFARM", "FCRAF", "FMANA", "FINTO", "FCLER", "FWORK")
    assert len(col.values) == 270
    assert col.values["MFARM:FFARM:1"] == 0


def test_external_column_rejects_out_of_range():
    with pytest.raises(DataError):
        ExternalColumn(name="x", modalities=("a", "b"), values={"i": 2})


def test_cross_reconstructs_global_counts(marriage, marriage_run):
    col = external_from_dataset(marriage, "wife")
    pies = cross(marriage_run.individuals, col, TOPO)
    assert pies.global_counts.tolist() == [16, 15, 13, 50, 144, 32]
    assert pies.populations.sum() == 270


def test_cross_counts_match_brute_force(marriage, marriage_run):
    col = external_from_dataset(marriage, "husband")
    pies = cross(marriage_run.individuals, col, TOPO)
    a = marriage_run.individuals
    for u in range(TOPO.n_units):
        for m, label in enumerate(col.modalities):
            expect = sum(
                1
                for ident, unit in zip(a.labels, a.units)
                if unit == u and col.values[ident] == m
            )
            assert pies.counts[u, m] == expect


def test_cross_rejects_partial_overlap(marriage, marriage_run):
    col = external_from_dataset(marriage, "wife")
    values = dict(col.values)
    values.pop("MFARM:FFARM:1")
    clipped = ExternalColumn(name="wife", modalities=col.modalities, values=values)
    with pytest.raises(DataError, match="MFARM:FFARM:1"):
        cross(marriage_run.individuals, clipped, TOPO)


def test_cross_rejects_wrong_topology(marriage, marriage_run):
    col = external_from_dataset(marriage, "wife")
    with pytest.raises(DimensionError):
        cross(marriage_run.individuals, col, Topology.grid(2, 2))


def test_frequencies_rows_sum_to_one_or_zero():
    counts = np.array([[2, 2], [0, 0], [3, 1], [0, 4]])
    pies = PieGrid(
        topology=Topology.grid(2, 2), variable="v", labels=("a", "b"), counts=counts
    )
    freq = pies.frequencies
    sums = freq.sum(axis=1)
    assert sums[0] == pytest.approx(1.0)
    assert sums[1] == 0.0
    assert np.all(freq >= 0)


def test_pie_grid_json_round_trip():
    counts = np.array([[1, 0], [2, 3], [0, 0], [4, 1]])
    pies = PieGrid(
        topology=Topology.grid(2, 2), variable="v", labels=("a", "b"), counts=counts
    )
    clone = PieGrid.from_json(pies.to_json())
    assert clone.variable == "v"
    assert np.array_equal(clone.counts, counts)
    assert clone.topology == pies.topology


def test_external_from_csv_inferred(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("id,region\ni1,north\ni2,south\ni3,north\n", encoding="utf-8")
    col = external_from_csv(p, "region")
    assert col.modalities == ("north", "south")
    assert col.values == {"i1": 0, "i2": 1, "i3": 0}


def test_external_from_csv_binned(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("id,age\ni1,12\ni2,40\ni3,77\n", encoding="utf-8")
    spec = VariableSpec(name="age", modalities=("lo", "mid", "hi"), breaks=(18.0, 65.0))
    col = external_from_csv(p, "age", spec=spec)
    assert col.values == {"i1": 0, "i2": 1, "i3": 2}


def test_external_from_csv_rejects_duplicate_ids(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("id,region\ni1,north\ni1,south\n", encoding="utf-8")
    with pytest.raises(DataError):
        external_from_csv(p, "region")


def test_external_from_csv_missing_column(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("id,region\ni1,north\n", encoding="utf-8")
    with pytest.raises(DataError, match="nope"):
        external_from_csv(p, "nope")


def random_survey_csv(path, rng, n=60):
    """Seeded CSV: three labelled columns (some cells padded) and a numeric
    one; every label of a column occurs."""
    pools = {"region": ["north", "south", "east"], "tier": ["a", "b"],
             "pet": ["cat", "dog", "fish", "none"]}
    while True:
        cols = {name: rng.choice(pool, size=n) for name, pool in pools.items()}
        if all(len(set(cols[k])) == len(v) for k, v in pools.items()):
            break
    ages = rng.uniform(0, 90, size=n).round(1)
    lines = ["id,region,tier,age,pet"]
    for i in range(n):
        pad = " " if rng.random() < 0.3 else ""
        lines.append(f"i{i:03d},{pad}{cols['region'][i]},{cols['tier'][i]}{pad},"
                     f"{ages[i]},{cols['pet'][i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_external_from_csv_reads_columns_like_ingest(tmp_path):
    p = random_survey_csv(tmp_path / "survey.csv", np.random.default_rng(17))
    ds = ingest_csv(p)
    for k, var in enumerate(ds.variables):
        col = external_from_csv(p, var.name)
        assert col.name == var.name
        assert col.modalities == var.modalities
        assert [col.values[i] for i in ds.individuals] == ds.cells[:, k].tolist()
    specs = [
        VariableSpec(name="age", modalities=("child", "adult", "senior"),
                     breaks=(18.0, 65.0)),
        VariableSpec(name="pet", modalities=("none", "fish", "dog", "cat")),
    ]
    ds = ingest_csv(p, schema=specs)
    for k, spec in enumerate(specs):
        col = external_from_csv(p, spec.name, spec=spec)
        assert col.modalities == spec.modalities
        assert [col.values[i] for i in ds.individuals] == ds.cells[:, k].tolist()


def test_empty_cells_are_checked_only_in_the_columns_read(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("id,color,note\ni1,red,x\ni2,blue,\ni3,,y\n", encoding="utf-8")
    schema = [VariableSpec(name="note", modalities=("x", "y"))]
    with pytest.raises(DataError, match=r"gaps\.csv:3: empty cell in column 'note'"):
        ingest_csv(p, schema=schema)
    with pytest.raises(DataError, match=r"gaps\.csv:4: empty cell in column 'color'"):
        ingest_csv(p)
    with pytest.raises(DataError, match=r"gaps\.csv:4: empty cell in column 'color'"):
        external_from_csv(p, "color")
    # A column the schema leaves out may hold empty cells.
    p.write_text("id,color,note\ni1,red,x\ni2,blue,\ni3,red,y\n", encoding="utf-8")
    ds = ingest_csv(p, schema=[VariableSpec(name="color", modalities=("red", "blue"))])
    assert ds.cells[:, 0].tolist() == [0, 1, 0]
    assert external_from_csv(p, "color").values == {"i1": 0, "i2": 1, "i3": 0}


def test_cross_with_synthetic_assignment():
    # hand-checkable 4-unit case
    topo = Topology.grid(2, 2)
    assignment = MapAssignment(
        labels=("a", "b", "c", "d"), units=np.array([0, 0, 3, 1]), n_units=4
    )
    col = ExternalColumn(
        name="flag", modalities=("yes", "no"),
        values={"a": 0, "b": 1, "c": 0, "d": 0},
    )
    pies = cross(assignment, col, topo)
    assert pies.counts.tolist() == [[1, 1], [1, 0], [0, 0], [1, 0]]
    assert pies.populations.tolist() == [2, 1, 0, 1]
