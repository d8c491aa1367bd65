"""JSON helpers: deterministic dumps, atomic writes, content hashing.

All artifacts are serialized with insertion-ordered keys and the default
float repr (shortest round-trip decimal), so identical inputs produce
byte-identical files.  One encoder produces them: ``chunks`` yields pieces
whose join is exactly what ``json.dumps`` writes with ``indent=2`` and
``ensure_ascii=False``.  It hands every container whose values are all
scalars to json's C encoder in one call, with the indentation folded into
the item separator, so the large numeric rows of a model are formatted in C
and streamed to the file one row at a time rather than joined in memory.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import NoneType

from .errors import IOErrorCategory

_INDENT = "  "
_SCALARS = (str, int, float, NoneType)


@functools.lru_cache(maxsize=None)
def _leaf_encoder(depth: int):
    """C-encoder ``encode`` for a container of scalars whose items sit at
    ``depth`` levels of indentation."""
    separators = (",\n" + _INDENT * depth, ": ")
    return json.JSONEncoder(ensure_ascii=False, separators=separators).encode


def _all_scalars(values) -> bool:
    return all(issubclass(t, _SCALARS) for t in set(map(type, values)))


def _key(key) -> str:
    """An object key as json writes it: a non-str scalar by its JSON text."""
    if not isinstance(key, _SCALARS):
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    if not isinstance(key, str):
        key = _leaf_encoder(0)(key)
    return _leaf_encoder(0)(key)


def chunks(obj, depth: int = 0) -> Iterator[str]:
    """Pieces of the artifact text of ``obj`` (json's two-space indented
    format, non-ASCII kept), in order; ``depth`` is the indentation level of
    ``obj`` itself."""
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        yield _leaf_encoder(0)(obj)
        return
    if not obj:
        yield "{}" if is_dict else "[]"
        return
    pad = _INDENT * (depth + 1)
    if _all_scalars(obj.values() if is_dict else obj):
        text = _leaf_encoder(depth + 1)(obj)
        yield text[0] + "\n" + pad + text[1:-1] + "\n" + _INDENT * depth + text[-1]
        return
    yield ("{" if is_dict else "[") + "\n" + pad
    for i, item in enumerate(obj.items() if is_dict else obj):
        if i:
            yield ",\n" + pad
        if is_dict:
            key, item = item
            yield _key(key) + ": "
        yield from chunks(item, depth + 1)
    yield "\n" + _INDENT * depth + ("}" if is_dict else "]")


def dumps(obj) -> str:
    """The artifact text of ``obj``, for summaries printed to stdout."""
    return "".join(chunks(obj)) + "\n"


def canonical(obj) -> str:
    """Compact form used for hashing."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def write_atomic(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write ``text`` (a str or an iterable of str) to ``path`` via a temp
    file + rename in the same dir.  The file gets the mode ``open`` would
    give it (0o666 less the umask).  On any failure the temp file is removed
    and an existing ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)  # mkstemp always creates 0o600: read the umask back
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IOErrorCategory(f"cannot write {path}: {exc}") from exc
        raise
    return path


def write_json(path: str | Path, obj) -> Path:
    """Stream the artifact text of ``obj`` into ``path`` atomically."""
    return write_atomic(path, itertools.chain(chunks(obj), ("\n",)))


def load(path: str | Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOErrorCategory(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IOErrorCategory(f"invalid JSON in {path}: {exc}") from exc
