"""The error contract over every dataset file one edit away from a valid one.

Each key path of a small valid dataset JSON (lists capped to their first,
second and last items) takes each value of one fixed set in turn, or is
deleted.  Every mutant goes through ``ingest`` and through a small ``kmca``
run.  Each command exits 0, or exits 1 with exactly one stderr line, which
starts ``error:``; it never raises, and a failing command leaves its output
directory as it found it.
"""

import json

from somcat.cli import main

VALUES = (None, True, False, 0, -1, 1.5, 2 ** 70, "", "x", [], {}, [[]], "\ud800")
DELETE = object()
DATASET = {
    "individuals": ["a", "b", "c", "d"],
    "variables": [
        {"name": "v", "modalities": ["x", "y"]},
        {"name": "w", "modalities": ["p", "q", "r"], "breaks": [1, 2],
         "order": "descending"},
    ],
    "cells": [[0, 1], [1, 0], [0, 2], [1, 1]],
}
COMMANDS = (("ingest",), ("kmca", "--grid", "2x2", "--iters", "20"))


def key_paths(node, path=()):
    """Every key path of ``node``, itself first; a list's first, second and
    last items only."""
    yield path
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, 1, len(node) - 1} & set(range(len(node))))
    else:
        return
    for key in keys:
        yield from key_paths(node[key], (*path, key))


def mutant(path, value):
    """A copy of DATASET with ``value`` at ``path``, or that entry deleted."""
    if not path:
        return value
    data = json.loads(json.dumps(DATASET))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def snapshot(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_every_dataset_mutant_meets_the_error_contract(tmp_path, capsys):
    data, outdir = tmp_path / "m.dataset.json", tmp_path / "out"
    outdir.mkdir()
    (outdir / "kept.txt").write_text("kept\n", encoding="utf-8")
    kept = snapshot(outdir)
    paths = list(key_paths(DATASET))
    cases = [(path, value) for path in paths for value in (*VALUES, DELETE)
             if path or value is not DELETE]
    broken, exits = [], {0: 0, 1: 0}
    for path, value in cases:
        data.write_text(json.dumps(mutant(path, value)), encoding="utf-8")
        for command in COMMANDS:
            where = f"{command[0]} at {list(path)} = {'deleted' if value is DELETE else repr(value)}"
            try:
                code = main([*command, "--data", str(data), "--out", str(outdir)])
            except Exception as exc:  # a traceback: the contract is broken
                broken.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err.splitlines()
            if code == 1 and not (len(err) == 1 and err[0].startswith("error:")):
                broken.append(f"{where}: stderr {err}")
            elif code == 1 and snapshot(outdir) != kept:
                broken.append(f"{where}: the output directory changed")
            elif code not in (0, 1):
                broken.append(f"{where}: exit {code}")
            exits[code] = exits.get(code, 0) + 1
            for name in set(snapshot(outdir)) - set(kept):
                (outdir / name).unlink()
    assert broken == []
    assert len(paths) == 31 and exits[0] and exits[1]  # both outcomes happen
