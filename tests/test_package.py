"""The package as shipped: its only runtime dependency, and the README's code."""

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from somcat.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "somcat"


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {r}" for r in roots if r not in allowed]
    assert foreign == []


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("somcat ")]
    assert lines
    for line in lines:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
