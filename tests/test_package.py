"""The package as shipped: its only runtime dependency, its settable values,
its size and the README's code."""

import ast
import contextlib
import io
import re
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from somcat.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "somcat"
# Every settable value is one more configuration to test and measure; a change
# may lower this ceiling, and raises it only with the reason in CHANGES.md.
SETTABLE_VALUES_CEILING = 89
# Physical lines of src/somcat/*.py, under the same rule.
SRC_LINES_CEILING = 3473


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def settable_values() -> list[str]:
    """Dataclass fields other than ``field(init=False)`` ones, and the
    defaulted parameters of public functions, methods and ``__init__``s."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [
                    f"{path.stem}.{node.name}.{st.target.id}" for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                    and not _init_false(st.value)
                ]
            elif isinstance(node, ast.FunctionDef) and (
                node.name == "__init__" or not node.name.startswith("_")
            ):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                found += [f"{path.stem}.{node.name}({a.arg})" for a in defaulted]
    return found


def test_settable_values_do_not_exceed_the_ceiling():
    found = settable_values()
    assert len(found) <= SETTABLE_VALUES_CEILING, "\n".join(found)


def test_source_lines_do_not_exceed_the_ceiling():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(lines.values()) <= SRC_LINES_CEILING, lines


def _name_read(node: ast.AST) -> str | None:
    """The name a Name or Attribute node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_private_function_is_used_by_the_package():
    """A private function or method (``_name``, not a dunder) that nothing
    in src/somcat refers to outside its own body serves only the tests, and
    belongs there."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = Counter(_name_read(node) for tree in trees.values() for node in ast.walk(tree))
    unused = [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.endswith("__")
        and used[node.name] == sum(_name_read(n) == node.name for n in ast.walk(node))
    ]
    assert unused == []


def test_no_from_json_converts_a_stored_value_with_numpy():
    """A ``from_json`` reads stored numbers with ``jsonio.numbers``, which
    refuses a bool or a string where ``np.asarray`` would read one as a
    number."""
    found = [
        f"{path.name}:{call.lineno} {cls.name}.from_json"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "from_json"
        for call in ast.walk(method)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr in ("asarray", "array") and _name_read(call.func.value) == "np"
    ]
    assert found == []


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


def test_importing_the_cli_loads_no_network_modules():
    """The CLI's import stays clear of urllib, http, ssl and email, which an
    XML escape helper of the standard library would pull in, and of the
    process pool and multiprocessing, which only a run of several workers
    starts."""
    script = ("import sys, somcat.cli\n"
              "print(sorted({'urllib.request', 'http.client', 'ssl', 'email',"
              " 'concurrent.futures.process', 'multiprocessing'}"
              " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
