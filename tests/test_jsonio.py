"""The artifact encoder: the same bytes as json's indented encoder, streamed
to the file with bounded memory, and atomic writes that leave nothing behind
on failure."""

import contextlib
import io
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from somcat import jsonio
from somcat.cli import main
from somcat.errors import IOErrorCategory
from somcat.som import SomModel, Topology, TrainConfig


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


def test_every_cli_json_artifact_matches_json_indent_2(tmp_path, monkeypatch):
    written = []
    write_json = jsonio.write_json

    def recording(path, obj):
        out = write_json(path, obj)
        written.append((out.name, out.read_text(encoding="utf-8"), reference(obj)))
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
