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
the update mask picks which components move.  A sampler may also limit the
units a step can win; the neighborhood update around the winner is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import ConfigError, DimensionError


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

    def position(self, unit: int) -> tuple[int, int]:
        """(row, col) of a unit; units are numbered row-major."""
        if not 0 <= unit < self.n_units:
            raise DimensionError(f"unit {unit} out of range")
        return divmod(unit, self.cols)

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """Horizontally or vertically touching unit pairs, each once (a < b)."""
        pairs = []
        for u in range(self.n_units):
            r, c = divmod(u, self.cols)
            if c + 1 < self.cols:
                pairs.append((u, u + 1))
            if r + 1 < self.rows:
                pairs.append((u, u + self.cols))
        return pairs

    def to_json(self) -> dict:
        return {"kind": self.kind, "rows": self.rows, "cols": self.cols}

    @classmethod
    def from_json(cls, data: dict) -> "Topology":
        return cls(kind=data["kind"], rows=data["rows"], cols=data["cols"])


@dataclass(frozen=True)
class InitSpec:
    """How to draw initial code vectors.

    "random-uniform" draws each component uniformly over the data's
    per-component range (or an explicit one); "sample-rows" copies randomly
    chosen data rows.
    """

    kind: str = "random-uniform"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("random-uniform", "sample-rows"):
            raise ConfigError(f"unknown init kind {self.kind!r}")
        if self.hi < self.lo:
            raise ConfigError("init range must satisfy lo <= hi")

    def to_json(self) -> dict:
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, data: dict) -> "InitSpec":
        return cls(kind=data["kind"], lo=data["lo"], hi=data["hi"])


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule parameters; ``t_max`` may stay None until resolved
    by the calling analysis (which knows the dataset size)."""

    epsilon0: float = 0.5
    c0: float = 1.0
    t_max: int | None = None
    seed: int = 0
    init: InitSpec = field(default_factory=InitSpec)

    def __post_init__(self):
        if not 0.0 < self.epsilon0 <= 1.0:
            raise ConfigError("epsilon0 must lie in (0, 1]")
        if self.c0 <= 0.0:
            raise ConfigError("c0 must be positive")
        if self.t_max is not None and self.t_max < 1:
            raise ConfigError("t_max must be at least 1")

    def epsilon(self, t: int, n_units: int) -> float:
        return self.epsilon0 / (1.0 + self.c0 * t / n_units)

    def radius(self, t: int, side: int) -> int:
        if self.t_max is None:
            raise ConfigError("radius schedule needs a resolved t_max")
        slope = max(2 * side - 4, 0)
        return int(math.floor((side / 2.0) / (1.0 + t * slope / self.t_max)))

    def to_json(self) -> dict:
        return {
            "epsilon0": self.epsilon0,
            "c0": self.c0,
            "t_max": self.t_max,
            "seed": self.seed,
            "init": self.init.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        return cls(
            epsilon0=data["epsilon0"],
            c0=data["c0"],
            t_max=data["t_max"],
            seed=data["seed"],
            init=InitSpec.from_json(data["init"]),
        )


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
    # Set by train() for the length of one run: per searched block (lo, hi),
    # each unit's ||w_u||^2 and whether an update has touched it since.
    _norms: dict | None = field(default=None, init=False, repr=False)

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
        return cls(
            topology=Topology.from_json(data["topology"]),
            dim=data["dim"],
            config=TrainConfig.from_json(data["config"]),
            code_vectors=np.asarray(data["code_vectors"], dtype=np.float64),
            trained_steps=data["trained_steps"],
        )

    def save(self, path) -> None:
        jsonio.write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "SomModel":
        return cls.from_json(jsonio.load(path))


def init_model(
    topology: Topology,
    dim: int,
    config: TrainConfig,
    data: np.ndarray | None = None,
    ranges: tuple[np.ndarray, np.ndarray] | None = None,
) -> SomModel:
    """Create a model with freshly drawn code vectors.

    The model's RNG is seeded from the config and used first for the init
    draw, then handed to training, so a (config, data) pair fixes the whole
    run.  Range precedence for uniform init: explicit ``ranges``, then the
    data's per-component min/max, then the InitSpec scalar (lo, hi).
    """
    rng = np.random.default_rng(config.seed)
    u = topology.n_units
    if config.init.kind == "sample-rows":
        if data is None:
            raise ConfigError("sample-rows init requires data")
        data = np.asarray(data, dtype=np.float64)
        if data.shape[1] != dim:
            raise DimensionError("init data width does not match dim")
        idx = rng.integers(0, data.shape[0], size=u)
        code = data[idx].copy()
    else:
        if ranges is not None:
            lo = np.asarray(ranges[0], dtype=np.float64)
            hi = np.asarray(ranges[1], dtype=np.float64)
        elif data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.shape[1] != dim:
                raise DimensionError("init data width does not match dim")
            lo, hi = data.min(axis=0), data.max(axis=0)
        else:
            lo = np.full(dim, config.init.lo)
            hi = np.full(dim, config.init.hi)
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise DimensionError("init ranges must have one (lo, hi) per component")
        if np.any(hi < lo):
            raise ConfigError("init ranges must satisfy lo <= hi")
        code = rng.uniform(lo, hi, size=(u, dim))
    model = SomModel(
        topology=topology, dim=dim, config=config, code_vectors=code, rng=rng
    )
    return model


def _masked_code(model: SomModel, mask: DistanceMask | None) -> np.ndarray:
    """The code vectors' masked components; a None mask is the whole vector."""
    code = model.code_vectors
    return code if mask is None else code[:, mask.lo:mask.hi]


def _masked_input(x: np.ndarray, mask: DistanceMask | None, dim: int) -> np.ndarray:
    """Accept a full-dim vector or one already cut to the mask width."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape == (dim,):
        return x if mask is None else x[mask.lo:mask.hi]
    if mask is not None and x.shape == (mask.width,):
        return x
    raise DimensionError(f"input shape {x.shape} fits neither dim {dim} nor the mask")


def _best_among(d2: np.ndarray, units, n_units: int) -> np.ndarray:
    """Argmin over the last axis of ``d2`` (distances to each unit), taken
    only over the units marked True in the boolean mask ``units``."""
    units = np.asarray(units, dtype=bool)
    if units.shape != (n_units,):
        raise DimensionError("units must hold one flag per map unit")
    best = np.where(units, d2, np.inf).argmin(axis=-1)
    if not units[best].all():  # nothing marked: every distance was inf
        raise DimensionError("units must mark at least one of the map's units")
    return best


def bmu(
    model: SomModel,
    x: np.ndarray,
    mask: DistanceMask | None = None,
    units: np.ndarray | None = None,
) -> int:
    """Best matching unit: least squared distance on the masked components.

    ``units`` (one boolean per unit) limits the search to the units marked
    True.  Ties resolve to the lowest unit index.  This is every training
    step's search, in the difference form sum((x - w)**2), except inside
    train() on a block of more than DISTANCE_BLOCK elements (kdisj's
    modality steps on a wide dataset): there the search is _norm_distances,
    whose last bits differ, so a near tie can resolve otherwise.  Batch
    passes over many rows use _row_distances.
    """
    xm = _masked_input(x, mask, model.dim)
    if not np.isfinite(xm).all():
        raise DimensionError("input vector contains non-finite values")
    code = _masked_code(model, mask)
    if code.size > DISTANCE_BLOCK and model._norms is not None:
        key = (0, model.dim) if mask is None else (mask.lo, mask.hi)
        d2 = _norm_distances(model._norms, key, code, xm)
    else:
        diff = code - xm
        d2 = np.einsum("ij,ij->i", diff, diff)
    if units is None:
        return int(d2.argmin())
    return int(_best_among(d2, units, model.topology.n_units))


def _norm_distances(norms: dict, key, code: np.ndarray, xm: np.ndarray) -> np.ndarray:
    """||w||^2 - 2<x, w> for every unit, the squared distance less ||x||^2.

    ``norms[key]`` holds each unit's ||w||^2 on this block and the units an
    update has touched since, which alone are summed again, one einsum each.
    The cross term gathers the units' components at the input's nonzeros (a
    corrected modality column holds b_j of N): one einsum, no BLAS.
    """
    if key not in norms:
        norms[key] = (np.empty(len(code)), np.ones(len(code), dtype=bool))
    w2, stale = norms[key]
    for u in np.flatnonzero(stale):
        w2[u] = np.einsum("w,w->", code[u], code[u])
    stale[:] = False
    nz = np.flatnonzero(xm)
    return w2 - 2.0 * np.einsum("un,n->u", code[:, nz], xm[nz])


def train_step(
    model: SomModel,
    x: np.ndarray,
    t: int,
    search_mask: DistanceMask | None = None,
    update_mask: DistanceMask | None = None,
    units: np.ndarray | None = None,
) -> int:
    """One training step at schedule time t; returns the winning unit.

    The input must be full-dim here (the update mask slices into it).
    ``units`` limits the winner search as in ``bmu``; the neighborhood
    update is not limited.
    """
    cfg, topo = model.config, model.topology
    if cfg.t_max is None or not 0 <= t < cfg.t_max:
        raise ConfigError(f"step time {t} outside schedule [0, {cfg.t_max})")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise DimensionError("train_step needs a full-dimension input vector")

    winner = bmu(model, x, search_mask, units)
    rho = cfg.radius(t, topo.side)
    eps = cfg.epsilon(t, topo.n_units)
    r, c = divmod(winner, topo.cols)
    lo, hi = (0, model.dim) if update_mask is None else (update_mask.lo, update_mask.hi)
    r0, c0 = max(r - rho, 0), max(c - rho, 0)
    # Splitting the unit axis is a view for any strides, so the update lands
    # in the model's own array.
    grid = model.code_vectors.reshape(topo.rows, topo.cols, model.dim)
    block = grid[r0:r + rho + 1, c0:c + rho + 1, lo:hi]
    block += eps * (x[lo:hi] - block)
    if model._norms:
        for (a, b), (_, stale) in model._norms.items():
            if a < hi and lo < b:  # the update moved components of a cached block
                stale.reshape(topo.rows, topo.cols)[r0:r + rho + 1, c0:c + rho + 1] = True
    model.trained_steps += 1
    return winner


def _masked_rows(model: SomModel, rows, mask: DistanceMask | None) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionError("expected a 2-d array of row vectors")
    if rows.shape[1] == model.dim:
        return rows if mask is None else rows[:, mask.lo:mask.hi]
    if mask is not None and rows.shape[1] == mask.width:
        return rows
    raise DimensionError("rows match neither full dim nor mask width")


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

    This kernel serves code-vs-code distances (Ward, neighbour statistics,
    orphan placement): both sides are dense, two code vectors can lie far
    closer together than their norms, where the expanded form would lose
    the distance to cancellation, and the pinned dendrogram bytes rest on
    this arithmetic.  Data rows go through _row_distances instead.

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


def _row_distances(rows: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Squared distance from every data row to every code vector, n x U, as
    ||x||^2 - 2<x, w> + ||w||^2 over the nonzero entries of each row.

    This kernel serves the batch passes over data: the quantization-error
    checkpoints and assign().  A corrected disjunctive row holds K nonzeros
    out of M columns, so the cross term gathers K code columns where the
    difference form would subtract across all M.  bmu() and train_step()
    keep the difference form, so training trajectories do not depend on
    this kernel (except where a checkpoint's argmin feeds a sampler).

    ||x||^2 and the cross term add the row's nonzero entries one at a time
    in column order, with element-wise numpy multiply-adds, and ||w||^2 is
    one einsum per code vector; nothing calls BLAS or starts a thread.  So
    a row's distances have the same bits whatever other rows or units
    share the call, whatever the block size, and whether the rows are a
    strided view or a contiguous copy.  The rows go one block at a time, as
    many as keep their number times the larger of the unit count and their
    largest nonzero count within DISTANCE_BLOCK, which bounds the block's
    padded arrays and gathers; rows wider than the unit count are counted
    first, DISTANCE_BLOCK elements at a time.  So no temporary grows with
    the product of rows, units and width.  A distance far below the norms
    loses relative precision to cancellation and can round to a small
    negative.
    """
    n, width = rows.shape
    u = code.shape[0]
    w2 = np.einsum("uw,uw->u", code, code)
    cost = np.full(n, u, dtype=np.intp)  # a row's nonzeros, or u if more
    if width > u:
        scan = max(1, DISTANCE_BLOCK // width)
        for s in range(0, n, scan):
            counts = np.count_nonzero(rows[s:s + scan], axis=1)
            np.maximum(counts, u, out=cost[s:s + scan])
    out = np.empty((n, u))
    start = 0
    while start < n:
        need = np.maximum.accumulate(cost[start:start + DISTANCE_BLOCK // u + 1])
        need *= np.arange(1, len(need) + 1)
        size = max(1, int(np.count_nonzero(need <= DISTANCE_BLOCK)))
        span = slice(start, start + size)
        _block_row_distances(rows[span], code.T, w2, out[span])
        start += size
    return out


def _block_row_distances(block, by_column, w2, out) -> None:
    """_row_distances of one block of rows into ``out``; ``by_column`` is
    the code transposed (a view), so row c holds component c of every unit.
    A call of its own, so the block's temporaries are freed before the next
    block's scan."""
    size = block.shape[0]
    # The k-th nonzero of each row in its column order, padded with zero
    # values at column 0 up to the block's largest count.
    r, c = np.nonzero(block != 0)
    counts = np.bincount(r, minlength=size)
    depth = int(counts.max(initial=0))
    rank = np.arange(len(r))
    rank -= (np.cumsum(counts) - counts)[r]
    vals = np.zeros((depth, size))
    vals[rank, r] = block[r, c]
    cols = np.zeros((depth, size), dtype=np.intp)
    cols[rank, r] = c
    x2 = np.zeros(size)
    out[:] = 0.0
    for k in range(depth):
        x2 += vals[k] * vals[k]
        term = by_column[cols[k]]
        term *= vals[k][:, np.newaxis]
        out += term
    out *= -2.0
    out += x2[:, np.newaxis]
    out += w2


def quantization_error(
    model: SomModel,
    rows: np.ndarray,
    mask: DistanceMask | None = None,
    bmus: np.ndarray | None = None,
) -> float:
    """Mean squared distance from each row to its best matching unit.

    ``bmus``, an integer array with one slot per row, receives each row's
    best matching unit from the same distances (_row_distances).
    """
    rows = _masked_rows(model, rows, mask)
    d2 = _row_distances(rows, _masked_code(model, mask))
    if bmus is not None:
        bmus[:] = np.argmin(d2, axis=1)
    return float(np.mean(np.maximum(d2.min(axis=1), 0.0)))


class UniformRowSampler:
    """Draws data rows uniformly; the plain sampler for single-family maps."""

    qe_mask = None  # rows are searched and updated on every component

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=np.float64)

    def draw(self, t: int, rng: np.random.Generator):
        i = int(rng.integers(0, self.rows.shape[0]))
        return self.rows[i], None, None

    def candidates(self, t: int) -> None:
        return None

    def locate(self, bmus: np.ndarray, n_units: int) -> None:
        pass

    @property
    def qe_rows(self) -> np.ndarray:
        return self.rows


def _default_checkpoints(t_max: int) -> list[int]:
    marks = {0, t_max}
    for i in range(1, 10):
        marks.add(round(t_max * i / 10))
    return sorted(marks)


def train(model, sampler, checkpoints=None, observer=None):
    """Run the full schedule on a fresh model.

    ``sampler.draw(t, rng)`` supplies (input, search mask, update mask) per
    step from the model's own RNG stream, and ``sampler.candidates(t)`` the
    units that step may win (one boolean per unit, or None for all).  At
    every checkpoint step the quantization error of ``sampler.qe_rows`` on
    ``sampler.qe_mask`` is logged, and ``sampler.locate(bmus, n_units)``
    receives the best matching unit of each of those rows from the same
    pass.  Returns the model and the log of (steps done, quantization
    error).  ``observer`` is called as observer(t, x, search_mask,
    update_mask, model) after each step, for instrumentation.
    """
    if model.trained_steps != 0:
        raise ConfigError("train() expects a freshly initialized model")
    t_max = model.config.t_max
    if t_max is None:
        raise ConfigError("train() needs a resolved t_max")
    marks = set(_default_checkpoints(t_max) if checkpoints is None else checkpoints)
    qe_log: list[tuple[int, float]] = []
    bmus = np.empty(len(sampler.qe_rows), dtype=np.int64)

    def checkpoint(steps: int) -> None:
        qe = quantization_error(model, sampler.qe_rows, sampler.qe_mask, bmus)
        qe_log.append((steps, qe))
        sampler.locate(bmus, model.topology.n_units)

    model._norms = {}
    try:
        if 0 in marks:
            checkpoint(0)
        for t in range(t_max):
            x, smask, umask = sampler.draw(t, model.rng)
            train_step(model, x, t, smask, umask, sampler.candidates(t))
            if observer is not None:
                observer(t, x, smask, umask, model)
            if (t + 1) in marks:
                checkpoint(t + 1)
    finally:
        model._norms = None  # no search after the run reads a norm it held
    return model, qe_log


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
    _row_distances, so on wide rows a near tie can resolve otherwise than
    in ``bmu``.
    """
    rows = _masked_rows(model, rows, mask)
    d2 = _row_distances(rows, _masked_code(model, mask))
    if units is None:
        best = np.argmin(d2, axis=1)
    else:
        best = _best_among(d2, units, model.topology.n_units)
    if not labels:
        labels = tuple(str(i) for i in range(rows.shape[0]))
    return MapAssignment(
        labels=tuple(labels), units=best, n_units=model.topology.n_units
    )


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
    return NeighborStats(
        mean_adjacent=float(np.mean(adj)), mean_non_adjacent=float(np.mean(non))
    )
