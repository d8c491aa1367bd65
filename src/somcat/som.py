"""Core self-organizing map engine.

A map is a small grid (or string) of units, each carrying a code vector in
data space.  Training repeatedly draws an input vector, finds the best
matching unit by masked Euclidean distance, and pulls the code vectors of
the winner's grid neighborhood toward the input.  The neighborhood of
radius rho is every unit within Chebyshev distance rho of the winner: on the
row-major grid, the square of side 2 rho + 1 around it clipped to the map,
which the step updates in place.  Both the learning rate and the
neighborhood radius shrink over time:

    epsilon(t) = epsilon0 / (1 + c0 * t / U)          U = number of units
    radius(t)  = floor((n/2) / (1 + t * (2n - 4) / t_max))   n = longer side

so the radius starts at floor(n/2) and reaches 0 after a quarter of the
schedule (for n >= 3), after which only the winner itself moves.

Component masks let different input families live in different slices of
one code vector: the search mask picks which components define the match,
the update mask picks which components move.  A vector or block of rows
handed over with a mask holds exactly the mask's components (all ``dim``
of them when the mask is None).  A sampler may also limit the units a step
can win; the neighborhood update around the winner is the same.  A
GramTable searches a wide block that every step moves toward fixed columns
and moves it as coefficients of those columns, writing the block back into
the model when training ends.

train() runs one model through train_step and bmu, step by step.  Maps
that draw plain rows of one shared sampler (every seed of a kmca or
kmca-ind sweep) train in lockstep instead, _train_lockstep: one search per
step covers every map, with train()'s arithmetic, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonio
from .errors import ConfigError, DataError, DimensionError


@dataclass(frozen=True)
class Topology:
    """Rectangular unit layout; a string is stored as a 1 x length grid."""

    kind: str
    rows: int
    cols: int

    def __post_init__(self):
        if self.kind not in ("grid", "string"):
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("topology sides must be positive")
        if self.kind == "string" and self.rows != 1:
            raise ConfigError("string topology must have a single row")
        if self.n_units < 2:
            raise ConfigError("a map needs at least 2 units")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        return cls(kind="grid", rows=rows, cols=cols)

    @classmethod
    def string(cls, length: int) -> "Topology":
        return cls(kind="string", rows=1, cols=length)

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def side(self) -> int:
        return max(self.rows, self.cols)

    def to_json(self) -> dict:
        return {"kind": self.kind, "rows": self.rows, "cols": self.cols}

    @classmethod
    def from_json(cls, data: dict) -> "Topology":
        jsonio.require_keys(data, ("kind", "rows", "cols"), "a map topology")
        if not all(type(data[key]) is int for key in ("rows", "cols")):
            raise DataError("not a map topology: its rows and cols are not integers")
        return cls(kind=data["kind"], rows=data["rows"], cols=data["cols"])


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule parameters; ``t_max`` may stay None until resolved
    by the calling analysis (which knows the dataset size)."""

    epsilon0: float = 0.5
    c0: float = 1.0
    t_max: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon0 <= 1.0:
            raise ConfigError("epsilon0 must lie in (0, 1]")
        if not (math.isfinite(self.c0) and self.c0 > 0.0):
            raise ConfigError("c0 must be positive and finite")
        if self.t_max is not None and self.t_max < 1:
            raise ConfigError("t_max must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def epsilon(self, t: int, n_units: int) -> float:
        return self.epsilon0 / (1.0 + self.c0 * t / n_units)

    def radius(self, t: int, side: int) -> int:
        if self.t_max is None:
            raise ConfigError("radius schedule needs a resolved t_max")
        slope = max(2 * side - 4, 0)
        return int(math.floor((side / 2.0) / (1.0 + t * slope / self.t_max)))

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        keys = ("epsilon0", "c0", "t_max", "seed")
        jsonio.require_keys(data, keys, "a training config")
        return cls(**{key: data[key] for key in keys})


@dataclass(frozen=True)
class DistanceMask:
    """Half-open component slice [lo, hi) of the code vector."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi <= self.lo:
            raise DimensionError(f"bad mask [{self.lo}, {self.hi})")

    @property
    def width(self) -> int:
        return self.hi - self.lo


@dataclass(eq=False)
class SomModel:
    topology: Topology
    dim: int
    config: TrainConfig
    code_vectors: np.ndarray          # U x dim
    trained_steps: int = 0
    rng: np.random.Generator = None   # type: ignore[assignment]
    _table: GramTable | None = field(default=None, init=False, repr=False)  # in train()

    def __post_init__(self):
        self.code_vectors = np.ascontiguousarray(self.code_vectors, dtype=np.float64)
        if self.code_vectors.shape != (self.topology.n_units, self.dim):
            raise DimensionError(
                f"code vectors shape {self.code_vectors.shape} does not match "
                f"{self.topology.n_units} units x dim {self.dim}"
            )
        if self.rng is None:
            self.rng = np.random.default_rng(self.config.seed)

    def to_json(self) -> dict:
        return {
            "topology": self.topology.to_json(),
            "dim": self.dim,
            "config": self.config.to_json(),
            "trained_steps": self.trained_steps,
            "code_vectors": self.code_vectors.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SomModel":
        keys = ("topology", "dim", "config", "code_vectors", "trained_steps")
        jsonio.require_keys(data, keys, "a map model")
        return cls(
            topology=Topology.from_json(data["topology"]),
            dim=data["dim"],
            config=TrainConfig.from_json(data["config"]),
            code_vectors=np.asarray(data["code_vectors"], dtype=np.float64),
            trained_steps=data["trained_steps"],
        )


def init_model(topology: Topology, config: TrainConfig, lo, hi) -> SomModel:
    """Create a model whose code vectors are drawn uniformly over the
    per-component range [lo, hi] (one bound per component, so ``lo`` fixes
    the width).

    The model's RNG is seeded from the config and used first for this draw,
    then handed to training, so a (config, ranges) pair fixes the whole run.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim != 1 or hi.shape != lo.shape:
        raise DimensionError("init ranges must have one (lo, hi) per component")
    if np.any(hi < lo):
        raise ConfigError("init ranges must satisfy lo <= hi")
    rng = np.random.default_rng(config.seed)
    code = rng.uniform(lo, hi, size=(topology.n_units, lo.size))
    return SomModel(
        topology=topology, dim=lo.size, config=config, code_vectors=code, rng=rng
    )


def _masked_code(model: SomModel, mask: DistanceMask | None) -> np.ndarray:
    """The code vectors' masked components; a None mask is the whole vector."""
    code = model.code_vectors
    return code if mask is None else code[:, mask.lo:mask.hi]


def _masked_input(data, mask: DistanceMask | None, dim: int, ndim: int) -> np.ndarray:
    """``data`` as float64, checked to be a vector (``ndim`` 1) or a block of
    rows (``ndim`` 2) of exactly the mask's width, ``dim`` for a None mask."""
    data = np.asarray(data, dtype=np.float64)
    width = dim if mask is None else mask.width
    if data.ndim != ndim or data.shape[-1] != width:
        raise DimensionError(f"input shape {data.shape} is not {width} components wide")
    return data


def _best_among(d2: np.ndarray, units) -> np.ndarray:
    """Argmin over the last axis of ``d2`` (distances to each unit), taken
    only over the units marked True in the boolean mask ``units``."""
    units = np.asarray(units, dtype=bool)
    if units.shape != d2.shape[-1:]:
        raise DimensionError("units must hold one flag per map unit")
    best = np.where(units, d2, np.inf).argmin(axis=-1)
    if not (units[best] if d2.ndim == 1 else units[best].all()):  # nothing marked
        raise DimensionError("units must mark at least one of the map's units")
    return best


def bmu(
    model: SomModel,
    x: np.ndarray,
    mask: DistanceMask | None = None,
    units: np.ndarray | None = None,
) -> int:
    """Best matching unit: least squared distance on the masked components.

    ``x`` holds the masked components only.  ``units`` (one boolean per
    unit) limits the search to the units marked True.  Ties resolve to the
    lowest unit index.  This is every training step's search, in the
    difference form sum((x - w)**2), except on the block of a GramTable
    that train() holds: there ``x`` is the table's column c_j, searched as
    ||w||^2 - 2<w, c_j>, whose last bits differ, so a near tie can resolve
    otherwise.  An ``x`` that is not finite fails, before a bad ``units``
    does.  It makes every difference-form distance NaN or inf, so ``x`` is
    tested only when the winning distance is not finite (a finite ``x``
    whose distances overflow is then searched as usual) and on a GramTable.
    """
    xm, table = _masked_input(x, mask, model.dim, 1), model._table
    tabled = table is not None and mask == table.mask
    if tabled:
        d2 = (table.norms - 2.0 * table.proj[..., table.column]).ravel()
    else:
        diff = _masked_code(model, mask) - xm
        d2 = np.einsum("ij,ij->i", diff, diff)
    try:
        best = d2.argmin() if units is None else _best_among(d2, units)
    except DimensionError:  # a bad ``units``, reported after a non-finite input
        _require_finite(xm)
        raise
    if tabled or not math.isfinite(d2[best]):
        _require_finite(xm)
    return int(best)


def _require_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise DimensionError("input contains non-finite values")


class GramTable:
    """The search and the ``mask`` block of a run whose every step moves
    that block toward c_j, number ``column`` of fixed ``columns`` (L x
    width, in index form ``rows``: ``rows.dense()`` is ``columns.T``) whose
    inner products are ``gram``.  Per grid unit it holds P[u, l] = <w_u,
    c_l> and ||w_u||^2, summed once and then updated by recurrence, so a
    search takes ||w_u||^2 - 2 P[u, j], the squared distance less
    ||c_j||^2: U numbers instead of U x width.  It holds the block as w_u =
    sum_l coef[u, l] c_l + coef[u, L] w_u(0), moved with P, so the model's
    block stays w(0) until settle() writes it, which train() does when it
    returns or raises: an observer during train() reads w(0) there."""

    def __init__(self, model: SomModel, mask: DistanceMask, columns, rows, gram):
        block, topo, n = _masked_code(model, mask), model.topology, len(gram)
        self.mask, self.rows, self.start, self.column = mask, rows, block, 0
        # P[u, :], then coef[u, :]; a step scales both and adds row j of [G | I | 0].
        self.state = np.zeros((topo.rows, topo.cols, 2 * n + 1))
        self.proj, self.coef = self.state[..., :n], self.state[..., n:]
        self.proj[:] = np.einsum("uw,lw->ul", block, columns).reshape(self.proj.shape)
        self.coef[..., n] = 1.0
        self.norms = np.einsum("uw,uw->u", block, block).reshape(topo.rows, topo.cols)
        self.toward = np.hstack([gram, np.eye(n), np.zeros((n, 1))])

    def move(self, rows: slice, cols: slice, eps: float) -> None:  # eps toward c_j
        j, state, norms = self.column, self.state[rows, cols], self.norms[rows, cols]
        norms *= (1.0 - eps) ** 2
        norms += 2.0 * eps * (1.0 - eps) * state[..., j]  # P[u, j]
        norms += eps * eps * self.toward[j, j]  # G[j, j]
        state *= 1.0 - eps
        state += eps * self.toward[j]

    def settle(self, out: np.ndarray) -> None:
        """Write the block as the steps so far moved it into ``out`` (U x
        width, the model's block included), gathering coef[:, :L] * scale
        over ``rows`` DISTANCE_BLOCK elements at a time."""
        coef = self.coef.reshape(-1, self.coef.shape[-1])
        keep, table = coef[:, -1:], (coef[:, :-1] * self.rows.scale).T
        step = max(1, DISTANCE_BLOCK // len(coef))
        for span in (slice(i, i + step) for i in range(0, out.shape[1], step)):
            out[:, span] = keep * self.start[:, span] + self.rows._gather(table, span).T


def train_step(
    model: SomModel,
    x: np.ndarray,
    t: int,
    search_mask: DistanceMask | None = None,
    update_mask: DistanceMask | None = None,
    units: np.ndarray | None = None,
) -> int:
    """One training step at schedule time t; returns the winning unit.

    The input is full-dim: the search reads its search-mask components and
    the update its update-mask components.  ``units`` limits the winner
    search as in ``bmu``; the neighborhood update is not limited.
    """
    cfg, topo = model.config, model.topology
    if cfg.t_max is None or not 0 <= t < cfg.t_max:
        raise ConfigError(f"step time {t} outside schedule [0, {cfg.t_max})")
    x = _masked_input(x, None, model.dim, 1)
    xs = x if search_mask is None else x[search_mask.lo:search_mask.hi]
    winner = bmu(model, xs, search_mask, units)
    model.trained_steps += 1
    rho = cfg.radius(t, topo.side)
    eps = cfg.epsilon(t, topo.n_units)
    lo, hi = (0, model.dim) if update_mask is None else (update_mask.lo, update_mask.hi)
    table = model._table
    if rho == 0 and table is None:  # the winner's row alone, as _train_lockstep moves it
        block = model.code_vectors[winner, lo:hi]
        block += eps * (x[lo:hi] - block)
        return winner
    r, c = divmod(winner, topo.cols)
    rows, cols = slice(max(r - rho, 0), r + rho + 1), slice(max(c - rho, 0), c + rho + 1)
    # Splitting the unit axis is a view for any strides, so the update lands
    # in the model's own array.
    grid, spans = model.code_vectors.reshape(topo.rows, topo.cols, model.dim), ((lo, hi),)
    if table is not None:  # the table moves its own block, and the rest moves densely
        table.move(rows, cols, eps)
        spans = (lo, table.mask.lo), (table.mask.hi, hi)
    for a, b in spans:
        if a < b:
            block = grid[rows, cols, a:b]
            block += eps * (x[a:b] - block)
    return winner


# Elements of one distance block: 2**16 float64 is 512 KiB, about the size
# of an L2 cache.
DISTANCE_BLOCK = 1 << 16


def _blocks(size: int, step: int):
    """Slices of at most ``step`` (>= 2) items covering range(size).  The
    last one starts early when it would hold a lone item of several."""
    for start in range(0, size, step):
        yield slice(min(start, max(size - 2, 0)), start + step)


def _squared_distances(rows: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Squared distance from every row to every code vector, n x U, in the
    difference form sum((x - w)**2).

    This kernel serves code-vs-code distances (a result's unit distances,
    which Ward and orphan placement read, and neighbour statistics), where
    two code vectors can lie far closer together than their norms, and the
    pinned dendrogram bytes rest on its arithmetic.  assign() places data
    rows with it, as bmu() searches one; the checkpoints read them through
    _row_distance_blocks or OneHotRows.distance_blocks.

    The difference and its einsum reduction run one block at a time: as
    many rows as fit DISTANCE_BLOCK elements with all units, and when two rows
    do not fit, two rows and as many units as fit.  So no temporary grows
    with the product of rows, units and width.  A block never holds a lone
    row or unit of several: einsum reduces one wide row against one unit
    through another loop, whose last bits differ.  Blocks of two or more
    give the bits of one block over everything, so the blocking never shows
    in the result.
    """
    n, width = rows.shape
    u = code.shape[0]
    row_step = max(2, DISTANCE_BLOCK // (u * width))
    unit_step = max(2, DISTANCE_BLOCK // (row_step * width))
    out = np.empty((n, u))
    for r in _blocks(n, row_step):
        for c in _blocks(u, unit_step):
            diff = rows[r, np.newaxis, :] - code[np.newaxis, c, :]
            out[r, c] = np.einsum("nuw,nuw->nu", diff, diff)
    return out


def _row_distance_blocks(rows: np.ndarray, code: np.ndarray):
    """Squared distance from every data row to every code vector, as
    ||x||^2 - 2<x, w> + ||w||^2, yielded as (row span, block of rows x U)
    for DISTANCE_BLOCK // U rows at a time: kmca's checkpoints over the
    Burt rows, and the bit oracle of OneHotRows's kernel.  ||x||^2 and the
    cross term add one component at a time in column order (a zero adds an
    exact zero), ||w||^2 is one einsum per unit, and nothing calls BLAS.  So
    a row's distances have the same bits whatever rows or units share the
    call, whatever the block, and whether the rows are a view or a copy.  A
    distance far below the norms can round to a small negative.
    """
    w2 = np.einsum("uw,uw->u", code, code)
    step = max(1, DISTANCE_BLOCK // len(w2))
    for span in (slice(i, i + step) for i in range(0, rows.shape[0], step)):
        block = np.zeros((len(rows[span]), len(w2)))
        x2 = np.zeros(len(block))
        for c in range(rows.shape[1]):
            x = rows[span, c]
            x2 += x * x
            block += code[:, c] * x[:, np.newaxis]
        block *= -2.0
        block += x2[:, np.newaxis]
        block += w2
        yield span, block


def _whole(blocks, n: int, n_units: int) -> np.ndarray:
    """The n x U matrix of a kernel's (row span, block) pairs."""
    out = np.empty((n, n_units))
    for span, block in blocks:
        out[span] = block
    return out


def _row_distances(rows: np.ndarray, code: np.ndarray) -> np.ndarray:
    """_row_distance_blocks as one n x U matrix."""
    return _whole(_row_distance_blocks(rows, code), rows.shape[0], code.shape[0])


class OneHotRows:
    """n rows of M values in index form, as corrected disjunctive rows are:
    row i holds ``scale[c]`` at the K columns c = ``cols[:, i]`` (K x n,
    increasing down each column) and zeros elsewhere."""

    def __init__(self, cols: np.ndarray, scale: np.ndarray):
        self.cols, self.scale = cols, scale

    def __len__(self) -> int:
        return self.cols.shape[1]

    def dense(self) -> np.ndarray:
        out = np.zeros((len(self), len(self.scale)))
        out[np.arange(len(self)), self.cols] = self.scale[self.cols]
        return out

    def _gather(self, table: np.ndarray, span: slice) -> np.ndarray:
        """Per row of ``span``, the sum of rows cols[k] of ``table`` (M x
        width), added in column order."""
        cols = self.cols[:, span]
        out = np.zeros((cols.shape[1], table.shape[1]))
        for c in cols:
            out += table[c]
        return out

    def distance_blocks(self, code: np.ndarray):
        """_row_distance_blocks(self.dense(), code) bit for bit, reading only
        the K nonzero columns of each row: the cross term adds rows cols[k]
        of the C-ordered M x U table code.T * scale (each product the one
        _row_distance_blocks forms, as IEEE multiplication commutes) and
        ||x||^2 the squares of scale[cols[k]], both in column order, and the
        rest keeps its order, a gather within DISTANCE_BLOCK elements at a
        time."""
        table = np.multiply(code.T, self.scale[:, np.newaxis], order="C")
        w2 = np.einsum("uw,uw->u", code, code)
        squares = (self.scale * self.scale)[:, np.newaxis]
        step = max(1, DISTANCE_BLOCK // len(w2))
        for span in (slice(i, i + step) for i in range(0, len(self), step)):
            block = self._gather(table, span)
            block *= -2.0
            block += self._gather(squares, span)
            block += w2
            yield span, block

    def distances(self, code: np.ndarray) -> np.ndarray:
        return _whole(self.distance_blocks(code), len(self), code.shape[0])


def quantization_error(
    model: SomModel,
    rows: np.ndarray | OneHotRows,
    mask: DistanceMask | None = None,
    bmus: np.ndarray | None = None,
) -> float:
    """Mean squared distance from each row to its best matching unit.

    ``rows`` is an array, measured by _row_distance_blocks, or a OneHotRows,
    measured by its own kernel with the same bits as its dense form, one
    block of rows at a time: only the rows' minima outlive their block.
    ``bmus``, an integer array with one slot per row, receives each row's
    best matching unit from the same distances.
    """
    code = _masked_code(model, mask)
    if isinstance(rows, OneHotRows):
        _masked_input(rows.scale, mask, model.dim, 1)  # one scale per column
        blocks = rows.distance_blocks(code)
    else:
        blocks = _row_distance_blocks(_masked_input(rows, mask, model.dim, 2), code)
    minima = np.empty(len(rows))
    for span, d2 in blocks:
        best = np.argmin(d2, axis=1)
        minima[span] = d2[np.arange(len(best)), best]
        if bmus is not None:
            bmus[span] = best
    return float(np.mean(np.maximum(minima, 0.0)))


class UniformRowSampler:
    """Draws data rows uniformly; the plain sampler for single-family maps.
    Rows given as OneHotRows are drawn dense and checkpointed as given.
    train() draws one row per step through ``draw``; _train_lockstep reads
    ``rows`` and draws each model's rows of a checkpoint interval at once."""

    def __init__(self, rows: np.ndarray | OneHotRows):
        one_hot = isinstance(rows, OneHotRows)
        self.rows = rows.dense() if one_hot else np.asarray(rows, dtype=np.float64)
        self.qe_rows = rows if one_hot else self.rows
        self.qe_mask = None  # rows are searched and updated on every component
        self.bmus: np.ndarray | None = None  # each row's unit, as last located

    def draw(self, t: int, rng: np.random.Generator):
        i = int(rng.integers(0, self.rows.shape[0]))
        return self.rows[i], None, None

    def candidates(self, t: int) -> None:
        return None

    def gram_table(self, model: SomModel) -> None:
        return None

    def locate(self, bmus: np.ndarray, n_units: int) -> None:
        self.bmus = bmus


def _checkpoint(model: SomModel, sampler, steps: int, qe_log: list) -> np.ndarray:
    """Log the quantization error of ``sampler.qe_rows`` after ``steps`` and
    hand ``sampler.locate`` the rows' best matching units, also returned."""
    bmus = np.empty(len(sampler.qe_rows), dtype=np.int64)
    qe = quantization_error(model, sampler.qe_rows, sampler.qe_mask, bmus)
    qe_log.append((steps, qe))
    sampler.locate(bmus, model.topology.n_units)
    return bmus


def _marks(t_max: int) -> list[int]:
    """Step 0 and every tenth of t_max: the steps after which a run checkpoints."""
    return sorted({0} | {round(t_max * i / 10) for i in range(1, 11)})


def train(model, sampler, observer=None):
    """Run the full schedule on a fresh model, one train_step at a time.

    ``sampler.draw(t, rng)`` supplies (input, search mask, update mask) per
    step from the model's own RNG stream, and ``sampler.candidates(t)`` the
    units that step may win (one boolean per unit, or None for all).  At
    step 0 and every tenth of t_max the quantization error of
    ``sampler.qe_rows`` (an array, or a OneHotRows of the same rows, as
    quantization_error takes them) on ``sampler.qe_mask`` is logged, and
    ``sampler.locate(bmus, n_units)`` receives a new array of each of those
    rows' best matching unit from the same pass; the last, at t_max, holds
    their units on the trained map.  Until train() returns or raises, the
    model holds the GramTable ``sampler.gram_table(model)`` may hand over,
    its column ``sampler.column`` after each draw, and the table's block
    of ``code_vectors`` is current only once train() has returned or
    raised (GramTable.settle computes it).  Returns the model and the log
    of (steps done, quantization error).  ``observer`` is called as
    observer(t, x, search_mask, update_mask, model) after each step, for
    instrumentation; it copies ``x`` to keep it past the step.
    """
    if model.trained_steps != 0:
        raise ConfigError("train() expects a freshly initialized model")
    t_max = model.config.t_max
    if t_max is None:
        raise ConfigError("train() needs a resolved t_max")
    marks = set(_marks(t_max))
    qe_log: list[tuple[int, float]] = []
    table = model._table = sampler.gram_table(model)
    try:
        _checkpoint(model, sampler, 0, qe_log)
        for t in range(t_max):
            x, smask, umask = sampler.draw(t, model.rng)
            if table is not None:
                table.column = sampler.column
            train_step(model, x, t, smask, umask, sampler.candidates(t))
            if observer is not None:
                observer(t, x, smask, umask, model)
            if (t + 1) in marks:
                _checkpoint(model, sampler, t + 1, qe_log)
    finally:
        if table is not None:
            table.settle(table.start)
        model._table = None  # no search after the run reads the table
    return model, qe_log


def _train_lockstep(models: list[SomModel], sampler: UniformRowSampler):
    """train(model, sampler) for every model, bit for bit, all at once.

    The models are fresh and share their topology, width and schedule
    (epsilon0, c0, t_max); each keeps its own RNG.  Inputs are checked once,
    here.  Each model draws its rows with one ``rng.integers`` call per
    checkpoint interval, which yields the values and leaves the state of
    that many scalar draws.  Each model's code vectors become its view of
    one S x U x dim array, so one einsum of differences searches every
    model, as bmu does one.  Each model's clipped Chebyshev square moves as
    train_step moves it, except at radius 0: there one update gathers the S
    winners' rows, moves them with train_step's elementwise operations and
    writes them back.  Every model checkpoints as train() does.  Returns
    each model's QE log and its rows' units at t_max.
    """
    cfg, topo, dim = models[0].config, models[0].topology, models[0].dim
    shared = {(m.topology, m.dim, m.config.epsilon0, m.config.c0, m.config.t_max) for m in models}
    if len(shared) > 1 or any(m.trained_steps != 0 for m in models):
        raise ConfigError("lockstep training takes fresh models of one map and schedule")
    if cfg.t_max is None:
        raise ConfigError("train() needs a resolved t_max")
    rows = _masked_input(sampler.rows, None, dim, 2)
    _require_finite(rows)
    code, seeds = np.stack([model.code_vectors for model in models]), np.arange(len(models))
    grids = code.reshape(len(models), topo.rows, topo.cols, dim)
    for model, own in zip(models, code):
        model.code_vectors = own
    logs: list[list[tuple[int, float]]] = [[] for _ in models]
    bmus = [_checkpoint(m, sampler, 0, log) for m, log in zip(models, logs)]
    marks = _marks(cfg.t_max)
    for begin, end in zip(marks, marks[1:]):
        picks = [m.rng.integers(0, len(rows), size=end - begin) for m in models]
        for t, drawn in zip(range(begin, end), np.stack(picks, axis=1)):
            xs = rows[drawn]
            diff = code - xs[:, np.newaxis, :]
            winners = np.einsum("suw,suw->su", diff, diff).argmin(axis=1)
            rho, eps = cfg.radius(t, topo.side), cfg.epsilon(t, topo.n_units)
            if rho == 0:  # block += eps * (x - block) on each winner's row alone
                won = code[seeds, winners]
                won += eps * (xs - won)
                code[seeds, winners] = won
                continue
            for grid, x, winner in zip(grids, xs, winners.tolist()):
                r, c = divmod(winner, topo.cols)
                block = grid[max(r - rho, 0):r + rho + 1, max(c - rho, 0):c + rho + 1]
                block += eps * (x - block)
        for i, model in enumerate(models):
            model.trained_steps = end
            bmus[i] = _checkpoint(model, sampler, end, logs[i])
    return list(zip(logs, bmus))


@dataclass(eq=False)
class MapAssignment:
    """Each labelled item mapped to its best matching unit."""

    labels: tuple[str, ...]
    units: np.ndarray
    n_units: int

    def __post_init__(self):
        self.units = np.asarray(self.units, dtype=np.int64)
        if len(self.labels) != self.units.shape[0]:
            raise DimensionError("assignment labels do not match unit array")

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.units, minlength=self.n_units)

    def members_by_unit(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {u: [] for u in range(self.n_units)}
        for label, u in zip(self.labels, self.units):
            out[int(u)].append(label)
        return out

    def unit_of(self, label: str) -> int:
        try:
            return int(self.units[self.labels.index(label)])
        except ValueError:
            raise DimensionError(f"unknown item {label!r}") from None


def assign(
    model: SomModel,
    rows: np.ndarray,
    mask: DistanceMask | None = None,
    labels: tuple[str, ...] | list[str] = (),
    units: np.ndarray | None = None,
) -> MapAssignment:
    """Map every row to its best matching unit (deterministic, no learning).

    ``units`` limits every row's search as in ``bmu``.  Distances come from
    _squared_distances, the difference form that ``bmu`` searches.
    """
    rows = _masked_input(rows, mask, model.dim, 2)
    d2 = _squared_distances(rows, _masked_code(model, mask))
    best = np.argmin(d2, axis=1) if units is None else _best_among(d2, units)
    labels = tuple(labels) or tuple(str(i) for i in range(len(rows)))
    return MapAssignment(labels=labels, units=best, n_units=model.topology.n_units)


@dataclass(frozen=True)
class NeighborStats:
    mean_adjacent: float
    mean_non_adjacent: float


def neighbor_distance_stats(model: SomModel) -> NeighborStats:
    """Mean code-vector distance over grid-adjacent vs all other unit pairs.

    On a well-ordered map the adjacent mean is the smaller one.
    """
    code = model.code_vectors
    u = model.topology.n_units
    upper = np.triu_indices(u, 1)
    dist = np.sqrt(_squared_distances(code, code)[upper])
    r, c = np.divmod(np.arange(u), model.topology.cols)
    adjacent = (np.abs(r[:, np.newaxis] - r) + np.abs(c[:, np.newaxis] - c) == 1)[upper]
    adj, non = dist[adjacent], dist[~adjacent]
    if not adj.size or not non.size:
        raise ConfigError("topology too small to split adjacent/non-adjacent pairs")
    return NeighborStats(float(np.mean(adj)), float(np.mean(non)))
