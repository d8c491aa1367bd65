"""JSON helpers: deterministic dumps, atomic writes, hashing and the stored-value readers.

All artifacts are serialized with insertion-ordered keys and the default
float repr (shortest round-trip decimal), so identical inputs produce
byte-identical files.  One encoder produces them: ``chunks`` yields pieces
whose join is exactly what ``json.dumps`` writes with ``indent=2`` and
``ensure_ascii=False``.  It hands every container whose values are all
scalars to json's C encoder in one call, with the indentation folded into
the item separator, so the large numeric rows of a model are formatted in C
and streamed to the file one row at a time rather than joined in memory.
A numpy array is written as the nested list ``.tolist()`` gives, with the
same bytes, so a writer passes its matrices as arrays and no whole-matrix
list is built: a 2-D integer array is formatted in numpy a block of rows at
a time (also for ``sha256_of``), any other one innermost row at a time.
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

import numpy as np

from .errors import DataError, IOErrorCategory

_INDENT = "  "
_SCALARS = (str, int, float, NoneType)
_BLOCK_CELLS = 1 << 13  # cells (or list items) formatted or hashed at a time


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


def _is_int_matrix(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "iu"


def _decimal(block: np.ndarray) -> np.ndarray:
    """The decimal text of each integer of ``block`` as a (rows, cols,
    width) uint8 array of ASCII bytes: a sign slot, then the digits
    right-aligned, with NULs where either is absent."""
    neg, mag = block < 0, block.astype(np.uint64)  # a negative cast wraps
    mag = np.where(neg, ~mag + np.uint64(1), mag)    # |x|, int64's minimum too
    planes, present = [], np.ones(block.shape, bool)  # the units digit, 0 too
    while present.any():
        tens = mag // 10
        planes.append(np.where(present, mag - tens * 10 + ord("0"), 0))
        mag, present = tens, tens > 0
    planes.append(np.where(neg, ord("-"), 0))
    return np.stack(planes[::-1], axis=-1, dtype=np.uint8, casting="unsafe")


def _int_matrix(array: np.ndarray, depth: int | None) -> Iterator[str]:
    """Pieces of json's text of ``array.tolist()``, a 2-D integer array: the
    artifact format at indentation level ``depth``, else (None) the compact
    one.  A block of rows is a piece, built with no Python object per cell:
    a row template's NUL slots take the digits, and leftover NULs drop."""
    n, k = array.shape
    if not n:
        yield "[]"
        return
    nl = ["" if depth is None else "\n" + _INDENT * (depth + i) for i in range(3)]
    yield "[" + nl[1]
    step = max(1, _BLOCK_CELLS // max(k, 1))
    for start in range(0, n, step):
        digits = _decimal(array[start:start + step])
        rows, width = digits.shape[0], digits.shape[2]
        row = "[" + nl[2] + ("," + nl[2]).join(["\0" * width] * k) + nl[1] + "]"
        template = np.frombuffer(((row if k else "[]") + "," + nl[1]).encode(), np.uint8)
        text = np.tile(template, (rows, 1))
        text[:, template == 0] = digits.reshape(rows, -1)
        if start + step >= n:  # no separator after the last row
            text[-1, -len(nl[1]) - 1:] = 0
        yield text[text != 0].tobytes().decode("ascii")
    yield nl[0] + "]"


def chunks(obj, depth: int = 0) -> Iterator[str]:
    """Pieces of the artifact text of ``obj`` (json's two-space indented
    format, non-ASCII kept), in order; ``depth`` is the indentation level of
    ``obj`` itself.  An array of two or more dimensions is a list of its
    rows, and a row (or a 0-d array) is what its ``.tolist()`` gives."""
    if _is_int_matrix(obj):
        yield from _int_matrix(obj, depth)
        return
    if isinstance(obj, np.ndarray) and obj.ndim < 2:
        obj = obj.tolist()
    is_dict, is_array = isinstance(obj, dict), isinstance(obj, np.ndarray)
    if not (is_dict or is_array or isinstance(obj, (list, tuple))):
        yield _leaf_encoder(0)(obj)
        return
    if not len(obj):
        yield "{}" if is_dict else "[]"
        return
    pad = _INDENT * (depth + 1)
    if not is_array and _all_scalars(obj.values() if is_dict else obj):
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


def _compact(obj) -> Iterator[str]:
    """Pieces of the compact canonical text of ``obj`` (non-ASCII kept): a
    dict's values one at a time, a long list a block of items at a time, a
    2-D integer array as its ``.tolist()``."""
    if _is_int_matrix(obj):
        yield from _int_matrix(obj, None)
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "") + _key(key) + ":"
            yield from _compact(value)
        yield "}"
    elif isinstance(obj, list) and len(obj) > _BLOCK_CELLS:
        for start in range(0, len(obj), _BLOCK_CELLS):
            block = "".join(_compact(obj[start:start + _BLOCK_CELLS]))
            yield ("," if start else "[") + block[1:-1]
        yield "]"
    else:
        yield json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def sha256_of(obj) -> str:
    """sha256 of the UTF-8 compact canonical text of ``obj``, streamed, so
    that text is never held whole."""
    digest = hashlib.sha256()
    for piece in _compact(obj):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


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


def require_keys(data, keys: tuple[str, ...], what: str) -> None:
    """Raise a DataError unless ``data`` is a JSON object with all ``keys``."""
    missing = [k for k in keys if k not in data] if isinstance(data, dict) else keys
    if missing:
        raise DataError(f"not {what}: no {', '.join(missing)}")


def require_utf8(text: str, what: str) -> None:
    """Raise a DataError naming ``what`` unless UTF-8 can encode ``text``, as
    it cannot a lone surrogate, which json reads from ``"\\ud800"``."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"not {what} holds a lone surrogate, not UTF-8") from None


def labels(value, what: str) -> tuple[str, ...]:
    """A stored list of strings as a tuple, else a DataError naming ``what``."""
    if not (isinstance(value, list) and set(map(type, value)) <= {str}):
        raise DataError(f"not {what} is not a list of strings")
    require_utf8("".join(value), what)
    return tuple(value)


def numbers(value, kind: str, ndim: int, what: str) -> np.ndarray:
    """A stored JSON integer (``kind`` "i") or finite number ("f"), or an
    ``ndim``-deep (at most 2) rectangular list of them, as an int64 or
    float64 array.  A bool, a string, a null, a ragged row or the wrong depth
    raises a DataError naming ``what``, where numpy would read true as 1."""
    try:
        array = np.array(value, dtype=np.int64 if kind == "i" else np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, or out of range
        array = None
    leaves = [value]
    for _ in range(ndim):  # all lists, once the array has shown the depth
        leaves = itertools.chain.from_iterable(leaves)
    if (array is None or array.ndim != ndim or not np.isfinite(array).all()
            or not set(map(type, leaves)) <= ({int} if kind == "i" else {int, float})):
        form = ("is not a single {}", "are not a list of {}s", "are not equal rows of {}s")
        raise DataError(f"not {what} " + form[ndim].format(
            "integer" if kind == "i" else "finite number"))
    return array
