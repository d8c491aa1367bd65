"""The artifact encoder: the same bytes as json's indented encoder, streamed
to the file with bounded memory, and atomic writes that leave nothing behind
on failure; and the reader of every stored number."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from somcat import jsonio
from somcat.analyses import AnalysisResult
from somcat.cli import _write_run, main
from somcat.dataset import CategoricalDataset, VariableSpec
from somcat.errors import DataError, IOErrorCategory
from somcat.som import MapAssignment, SomModel, Topology, TrainConfig


def reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


CORPUS = [
    0, -7, 1.5, "x", None, True, False,
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[]], [{}]],
    [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300, 5e-324],
    {"nan": float("nan"), "inf": math.inf, "-inf": -math.inf},
    {1: "a", 2.5: "b", True: 1, None: 2, float("nan"): 3, -math.inf: 4},
    {1: [1], 2.5: {"x": 1}, False: [], None: {}},
    {"é": "ünï☃\n\"\\\t", "\x00": "\x7f", "中文": ["日本", "🙂"]},
    (1, (2, 3), [4, (5,)], ()),
    {"t": (1.0, 2.0), "u": ((1,), ())},
    [np.float64(1.1), np.float64(float("nan")), np.float64(-0.0)],
    {"a": [1, 2, [3, {"b": [np.float64(2.0)]}]], "c": {"d": {"e": [[1.0, 2.0], [3.0]]}}},
    [[1, 2], 3, "s", None, [None], {"k": None}],
    {"deep": [[[[[[1]]]]]], "mixed": [1, [2, [3, [4]]], {"x": [5, {"y": 6}]}]},
]


@pytest.mark.parametrize("obj", CORPUS, ids=range(len(CORPUS)))
def test_dumps_matches_json_indent_2(obj):
    assert jsonio.dumps(obj) == reference(obj)


def random_value(rng, depth):
    kind = rng.integers(0, 9 if depth < 4 else 5)
    if kind == 0:
        return float(rng.normal() * 10.0 ** rng.integers(-5, 6))
    if kind == 1:
        return int(rng.integers(-1000, 1000))
    if kind == 2:
        return ["", "a", "ß", "\n", "\"q\""][rng.integers(0, 5)]
    if kind == 3:
        return [None, True, False][rng.integers(0, 3)]
    if kind == 4:
        return np.float64(rng.random())
    size = int(rng.integers(0, 4))
    if kind in (5, 6):
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 7:
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    return {f"k{i}": random_value(rng, depth + 1) for i in range(size)}


def test_dumps_matches_json_indent_2_on_random_nestings():
    rng = np.random.default_rng(7)
    for _ in range(500):
        obj = random_value(rng, 0)
        assert jsonio.dumps(obj) == reference(obj)


@pytest.mark.parametrize("bad", [
    [set()], {"a": [1, np.int64(3)]}, {"a": {"b": [1.0, {2, 3}]}}, {(1, 2): 1},
    {"a": [1, {(1,): 2}]},
])
def test_unencodable_values_raise_like_json(bad):
    with pytest.raises(TypeError) as want:
        reference(bad)
    with pytest.raises(TypeError) as got:
        jsonio.dumps(bad)
    assert str(got.value) == str(want.value)


ARRAYS = {
    "1-d": np.linspace(-1.0, 1.0, 7),
    "2-d": np.arange(12.0).reshape(3, 4) / 7.0,
    "3-d": np.arange(24.0).reshape(2, 3, 4) * 0.1,
    "(0,)": np.empty(0),
    "(2, 0)": np.empty((2, 0)),
    "(0, 3)": np.empty((0, 3)),
    "int": np.arange(-6, 6).reshape(3, 4),
    "int32": np.arange(5, dtype=np.int32),
    "bool": np.array([[True, False], [False, True]]),
    "float32": np.array([0.1, 1e-30], dtype=np.float32),
    "nan-inf-negzero": np.array([[math.nan, math.inf], [-math.inf, -0.0], [0.0, 1e300]]),
    "0-d": np.array(2.5),
}


@pytest.mark.parametrize("arr", ARRAYS.values(), ids=ARRAYS.keys())
def test_an_array_is_written_as_its_tolist(tmp_path, arr):
    want = reference(arr.tolist())
    assert jsonio.dumps(arr) == want
    jsonio.write_json(tmp_path / "a.json", arr)
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == want
    nested = {"a": arr, "b": [1, arr, {"c": (arr, "x")}], "d": [[arr], {}]}
    plain = {"a": arr.tolist(), "b": [1, arr.tolist(), {"c": [arr.tolist(), "x"]}],
             "d": [[arr.tolist()], {}]}
    assert jsonio.dumps(nested) == reference(plain)


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
              np.uint64)


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("block", [5, jsonio._BLOCK_CELLS], ids=["block-5", "block"])
@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda t: np.dtype(t).name)
def test_an_integer_matrix_is_written_and_hashed_as_its_tolist(monkeypatch, dtype, block):
    """The integer kernel gives json's text of ``.tolist()``, compact and
    indented at depths 0-2: over empty, single-cell and multi-block shapes,
    each dtype's extremes, negative values and every digit count."""
    monkeypatch.setattr(jsonio, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(11)
    info = np.iinfo(dtype)
    for shape in [(0, 3), (3, 0), (1, 1), (2, 1), (9, 4), (40, 7)]:
        arr = rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
        arr >>= rng.integers(0, info.bits, shape).astype(dtype)  # every magnitude
        arr.flat[:3] = [info.min, info.max, 0][:arr.size]
        compact = json.dumps(arr.tolist(), separators=(",", ":"))
        assert "".join(jsonio._int_matrix(arr, None)) == compact
        want = hashlib.sha256(('{"a":' + compact + "}").encode()).hexdigest()
        assert jsonio.sha256_of({"a": arr}) == want
        for depth in range(3):
            assert jsonio.dumps(nested(arr, depth)) == reference(nested(arr.tolist(), depth))


SMALL = np.arange(-20, 20).reshape(8, 5)
TEXTS = {"ids": ["a", "é", "中"] * 7, "n": [[1, 2]] * 9, "x": [0.5, None, True]}


@pytest.mark.parametrize("obj, plain", [
    ({}, {}), (TEXTS, TEXTS),
    ({"a": {"b": SMALL}, "c": list(range(11)), 2: []},
     {"a": {"b": SMALL.tolist()}, "c": list(range(11)), 2: []}),
], ids=range(3))
def test_the_hash_streams_the_compact_canonical_text(monkeypatch, obj, plain):
    """Dicts, lists longer than a block, nested arrays and non-ASCII text
    hash as json's compact text of the same values with lists for arrays."""
    monkeypatch.setattr(jsonio, "_BLOCK_CELLS", 4)
    text = json.dumps(plain, separators=(",", ":"), ensure_ascii=False)
    assert jsonio.sha256_of(obj) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_a_large_dataset_is_hashed_and_written_without_its_whole_text(tmp_path):
    """10^5 individuals: the hash and the file take under two thirds of the
    memory of their text, where a whole-text string, its bytes and a list of
    the cells took 6.7 and 1.7 times it."""
    rng = np.random.default_rng(2)
    n, k = 100_000, 10
    ds = CategoricalDataset([f"p{i:06d}" for i in range(n)],
                            [VariableSpec(f"v{j}", ("a", "b", "c")) for j in range(k)],
                            rng.integers(0, 3, (n, k)))
    compact = json.dumps(ds.to_json(), separators=(",", ":"), ensure_ascii=False)
    path = tmp_path / "d.dataset.json"
    tracemalloc.start()
    try:
        digest = ds.sha256()
        _, hash_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        jsonio.write_json(path, ds.artifact())
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(compact.encode("utf-8")).hexdigest()
    assert jsonio.load(path) == ds.to_json()
    assert hash_peak < len(compact) * 2 / 3
    assert write_peak < path.stat().st_size * 2 / 3


@pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), np.float32(0.5), {1, 2}],
                         ids=["int64", "bool_", "float32", "set"])
def test_unencodable_values_beside_arrays_raise_like_json(bad):
    with pytest.raises(TypeError) as want:
        reference({"rows": [[0.5, 1.5], [2.5, 3.5]], "bad": [bad]})
    with pytest.raises(TypeError) as got:
        jsonio.dumps({"rows": np.arange(0.5, 4.0).reshape(2, 2), "bad": [bad]})
    assert str(got.value) == str(want.value)


def native(obj):
    """``obj`` with every numpy array replaced by its ``.tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: native(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [native(value) for value in obj]
    return obj


def test_every_cli_json_artifact_matches_json_indent_2(tmp_path, monkeypatch):
    written = []
    write_json = jsonio.write_json

    def recording(path, obj):
        out = write_json(path, obj)
        written.append((out.name, out.read_text(encoding="utf-8"), reference(native(obj))))
        return out

    monkeypatch.setattr(jsonio, "write_json", recording)
    data = ["--data", "builtin:marriages", "--out", str(tmp_path)]
    commands = [
        ["ingest", *data],
        ["tables", *data],
        ["report", *data, "--seeds", "2", "--workers", "1", "--grid", "3x3",
         "--iters", "250", "--render", "none"],
        ["kmca", *data, "--seeds", "2", "--workers", "1", "--macro", "3",
         "--render", "none"],
        ["macro", "--result", str(tmp_path / "marriages.kdisj.0.result.json"),
         "--macro", "3", "--out", str(tmp_path)],
        ["pies", *data, "--result", str(tmp_path / "marriages.kdisj.0.result.json"),
         "--variable", "wife", "--render", "none"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    runs = {
        f"marriages.{algo}.{seed}.{kind}.json"
        for algo in ("kmca", "kmca-ind", "kdisj")
        for seed in (0, 1)
        for kind in ("result", "model", "macro")
    }
    expected = runs | {
        "marriages.dataset.json", "marriages.tables.json", "marriages.report.json",
        "marriages.kmca.stability.json", "marriages.kdisj.1.deviations.json",
        "marriages.kdisj.0.dendrogram.json", "marriages.kdisj.0.pies.wife.json",
    }
    assert expected <= {name for name, _, _ in written}
    for name, text, want in written:
        assert text == want, name


def test_model_write_streams_in_bounded_memory(tmp_path):
    # The kdisj model of a 10^4-individual survey: 64 units x (60 + 10,000)
    rng = np.random.default_rng(3)
    model = SomModel(Topology.grid(8, 8), 10_060, TrainConfig(seed=0),
                     rng.random((64, 10_060)))
    blob = model.to_json()
    tracemalloc.start()
    try:
        jsonio.write_json(tmp_path / "model.json", blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == reference(blob)


def test_a_run_writes_its_model_in_bounded_memory(tmp_path):
    """A model as wide as a kdisj map of 10^4 individuals, written as a run
    writes it: its dict is built and written inside the traced window, and
    no list of its 643,840 numbers is made."""
    rng = np.random.default_rng(3)
    topo, n, m = Topology.grid(8, 8), 10_000, 60
    model = SomModel(topo, m + n, TrainConfig(t_max=10, seed=0), rng.random((64, m + n)))
    result = AnalysisResult(
        algorithm="kmca", topology=topo, model=model,
        modalities=MapAssignment(tuple(f"q.{j}" for j in range(m)), np.arange(m), 64),
        individuals=None, provenance={"dataset_sha256": "0" * 64,
                                      "config": model.config.to_json()},
        qe_log=[(0, 1.0), (10, 0.5)], unit_distances=rng.random((64, m)))
    args = argparse.Namespace(render="none")
    tracemalloc.start()
    try:
        summary = _write_run(tmp_path, "survey", result, None, None, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert summary["files"] == ["survey.kmca.0.model.json", "survey.kmca.0.result.json"]
    text = (tmp_path / "survey.kmca.0.model.json").read_text(encoding="utf-8")
    assert text == reference(model.to_json())


@pytest.mark.parametrize("bad", [set(), np.int64(3)])
def test_failed_stream_leaves_no_temp_file_and_target_untouched(tmp_path, bad):
    target = tmp_path / "artifact.json"
    target.write_text("old\n", encoding="utf-8")
    obj = {"rows": [[0.5] * 1000 for _ in range(50)] + [[1.0, bad]]}
    with pytest.raises(TypeError):
        jsonio.write_json(target, obj)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]
    assert target.read_text(encoding="utf-8") == "old\n"


def test_write_atomic_takes_text_or_chunks_and_returns_the_path(tmp_path):
    assert jsonio.write_atomic(tmp_path / "a.txt", "one\n") == tmp_path / "a.txt"
    assert jsonio.write_atomic(tmp_path / "b.txt", iter(["o", "ne\n"])) == tmp_path / "b.txt"
    assert jsonio.write_json(tmp_path / "c.json", {"k": [1]}) == tmp_path / "c.json"
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "c.json"]


def test_failed_write_is_an_io_error_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "dir-in-the-way"
    target.mkdir()
    with pytest.raises(IOErrorCategory):
        jsonio.write_json(target, {"k": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["dir-in-the-way"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x\n")
        (tmp_path / "b.json").write_text("old\n", encoding="utf-8")
        os.chmod(tmp_path / "b.json", 0o600)
        jsonio.write_atomic(tmp_path / "a.txt", "one\n")
        jsonio.write_json(tmp_path / "b.json", {"k": [1]})
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    modes = {
        p.name: stat.S_IMODE(p.stat().st_mode)
        for p in [*tmp_path.iterdir(), *(tmp_path / "out").iterdir()]
        if p.is_file()
    }
    assert modes == {
        "plain.txt": mode, "a.txt": mode, "b.json": mode,
        "marriages.dataset.json": mode,
    }


@pytest.mark.parametrize("value, kind, ndim, want", [
    (3, "i", 0, np.int64(3)),
    (0.5, "f", 0, np.float64(0.5)),
    ([2, 0], "i", 1, np.array([2, 0])),
    ([1, 0.5], "f", 1, np.array([1.0, 0.5])),
    ([], "i", 1, np.empty(0, dtype=np.int64)),
    ([[1, 2], [3, 4]], "i", 2, np.array([[1, 2], [3, 4]])),
    ([[]], "f", 2, np.empty((1, 0))),
])
def test_numbers_reads_stored_numbers_as_arrays(value, kind, ndim, want):
    got = jsonio.numbers(value, kind, ndim, "a file: x")
    assert got.dtype == (np.int64 if kind == "i" else np.float64)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("value, kind, ndim", [
    (True, "i", 0), ("3", "i", 0), (None, "f", 0), (1.0, "i", 0), ([3], "i", 0),
    ([0, True], "i", 1), ([0.5, False], "f", 1), (["0.5"], "f", 1), ([1, None], "f", 1),
    ([1.5], "i", 1), ([float("nan")], "f", 1), ([float("inf")], "f", 1),
    ([2 ** 63], "i", 1), ([10 ** 400], "f", 1), ({"a": 1}, "i", 1), ("12", "i", 1),
    (3, "i", 1), ([[1]], "i", 1), ([], "i", 2), ([1, 2], "f", 2), ([[1, 2], [3]], "i", 2),
    ([[1], 2], "i", 2), ([[1, True]], "i", 2), ([["1"]], "f", 2), ([[[1]]], "f", 2),
])
def test_numbers_refuses_anything_but_integers_or_finite_numbers(value, kind, ndim):
    """A bool, a string, a null, a fraction where an integer belongs, a value
    out of range, a ragged row or the wrong depth is no stored number; numpy
    alone would read several of them."""
    with pytest.raises(DataError, match="^not a file: x (is|are) not "):
        jsonio.numbers(value, kind, ndim, "a file: x")
