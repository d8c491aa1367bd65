"""Second-level clustering: Ward agglomeration of the trained code vectors.

The map gives a fine partition (one micro-class per unit); merging the code
vectors bottom-up with Ward's criterion yields a nested family of coarser
macro-classes.  Each unit is weighted by the mass it represents (individuals
mapped there, or modalities for a modality-only analysis).  Merging clusters
A and B costs

    w_A * w_B / (w_A + w_B) * ||centroid_A - centroid_B||^2

the increase in weighted within-cluster sum of squares; the pair of minimal
cost merges first, and equal costs resolve to the lexicographically smallest
node pair.  Grid adjacency is never enforced, only reported, so a cut shows
whether macro-classes happen to form connected map regions.

The costs live in one node-indexed matrix in which only entry [a, b] with
a < b of two active nodes is finite; every other entry is inf.  argmin
scans it row-major and returns the first minimum, which is the
lexicographically smallest cheapest pair, so the tie rule needs no code of
its own.  Squared distances, for the initial costs and for attaching empty
units at a cut, come from som._squared_distances, the difference-form
code-vs-code kernel; it calls no BLAS routine, so the merge costs do not
depend on how many threads a BLAS library runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .som import SomModel, Topology, _squared_distances

# Ward's (2L - 1)^2 float64 cost matrix over L leaves is the one object that
# grows with the square of the map; this caps it (L = 5,793 at most).
WARD_MAX_BYTES = 1 << 30


def check_ward_size(n_leaves: int) -> None:
    """Fail as a config error when Ward over ``n_leaves`` leaves would need
    a cost matrix larger than ``WARD_MAX_BYTES``."""
    need = 8 * (2 * n_leaves - 1) ** 2
    if need > WARD_MAX_BYTES:
        raise ConfigError(
            f"Ward clustering of {n_leaves} units needs a {need / 2**30:.1f} GiB "
            f"cost matrix, over the {WARD_MAX_BYTES / 2**30:g} GiB limit; "
            "use a smaller map"
        )


def ward_linkage(
    vectors: np.ndarray, weights: np.ndarray
) -> list[tuple[int, int, float]]:
    """Full Ward merge sequence for weighted points.

    Node ids: point i is node i; the j-th merge creates node L + j.  Returns
    (a, b, cost) triples with a < b.  Costs are maintained with the
    Lance-Williams recurrence, so they equal the direct weighted-centroid
    cost of each merge.
    """
    x = np.asarray(vectors, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or w.shape != (x.shape[0],):
        raise DimensionError("need one weight per vector")
    if np.any(w <= 0):
        raise ConfigError("ward_linkage weights must be positive")
    n = x.shape[0]
    if n < 2:
        raise ConfigError("clustering needs at least 2 points")
    check_ward_size(n)

    size = 2 * n - 1
    node_w = np.concatenate([w, np.zeros(n - 1)])
    cost = np.full((size, size), np.inf)
    upper = np.triu_indices(n, 1)
    cost[upper] = (
        np.outer(w, w) / np.add.outer(w, w) * _squared_distances(x, x)
    )[upper]
    active = np.arange(size) < n

    merges: list[tuple[int, int, float]] = []
    for new in range(n, size):
        a, b = divmod(int(cost.argmin()), size)
        best = cost[a, b]
        wa, wb = node_w[a], node_w[b]
        active[a] = active[b] = False
        c = np.flatnonzero(active)
        wc = node_w[c]
        # One of cost[a, c] and cost[c, a] is the pair's cost, the other inf.
        dac = np.minimum(cost[a, c], cost[c, a])
        dbc = np.minimum(cost[b, c], cost[c, b])
        cost[c, new] = (
            (wa + wc) * dac + (wb + wc) * dbc - wc * best
        ) / (wa + wb + wc)
        cost[[a, b]] = cost[:, [a, b]] = np.inf
        node_w[new] = wa + wb
        active[new] = True
        merges.append((a, b, float(best)))
    return merges


@dataclass(eq=False)
class Dendrogram:
    """Merge tree over the map units that carry weight.

    ``leaves`` lists those unit ids ascending; node i stands for leaves[i]
    and merge j creates node len(leaves) + j.  ``unit_vectors`` (all units,
    not just leaves) is kept for attaching empty units at cut time and is
    not serialized.
    """

    topology: Topology
    leaves: tuple[int, ...]
    weights: np.ndarray
    merges: list[tuple[int, int, float]]
    unit_vectors: np.ndarray | None = None

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def to_json(self) -> dict:
        return {
            "topology": self.topology.to_json(),
            "leaves": list(self.leaves),
            "weights": self.weights.tolist(),
            "merges": [[a, b, c] for a, b, c in self.merges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Dendrogram":
        return cls(
            topology=Topology.from_json(data["topology"]),
            leaves=tuple(data["leaves"]),
            weights=np.asarray(data["weights"], dtype=np.float64),
            merges=[(int(a), int(b), float(c)) for a, b, c in data["merges"]],
        )


def ward_cluster(model: SomModel, weights: np.ndarray | None = None) -> Dendrogram:
    """Cluster a trained map's code vectors; zero-weight units sit out."""
    code = model.code_vectors
    u = model.topology.n_units
    if weights is None:
        weights = np.ones(u)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (u,):
        raise DimensionError("need one weight per map unit")
    if np.any(weights < 0):
        raise ConfigError("unit weights must be nonnegative")
    leaves = tuple(int(i) for i in np.flatnonzero(weights > 0))
    if len(leaves) < 2:
        raise ConfigError("clustering needs at least 2 units with weight")
    leaf_w = weights[list(leaves)]
    merges = ward_linkage(code[list(leaves)], leaf_w)
    return Dendrogram(
        topology=model.topology,
        leaves=leaves,
        weights=leaf_w,
        merges=merges,
        unit_vectors=code.copy(),
    )


@dataclass(eq=False)
class MacroClassing:
    """A cut of the dendrogram: every map unit labelled with a macro-class.

    Classes are numbered by their smallest member unit.  ``connected`` says,
    per class, whether its units form one 4-connected region of the grid
    (informational; nothing enforces it).
    """

    k: int
    labels: np.ndarray
    classes: list[list[int]]
    connected: list[bool]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "labels": self.labels.tolist(),
            "classes": [list(c) for c in self.classes],
            "connected": list(self.connected),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MacroClassing":
        return cls(
            k=int(data["k"]),
            labels=np.asarray(data["labels"], dtype=np.int64),
            classes=[[int(u) for u in c] for c in data["classes"]],
            connected=[bool(b) for b in data["connected"]],
        )

    def class_of(self, unit: int) -> int:
        return int(self.labels[unit])


def _is_connected(units: list[int], topology: Topology) -> bool:
    if not units:
        return True
    members = set(units)
    seen = {units[0]}
    queue = [units[0]]
    while queue:
        u = queue.pop()
        r, c = divmod(u, topology.cols)
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < topology.rows and 0 <= cc < topology.cols:
                v = rr * topology.cols + cc
                if v in members and v not in seen:
                    seen.add(v)
                    queue.append(v)
    return len(seen) == len(members)


def cut(dendrogram: Dendrogram, k: int) -> MacroClassing:
    """Undo the last k - 1 merges, leaving k clusters of the leaves.

    Units that sat out the clustering (zero weight) inherit the class of the
    nearest clustered unit by code-vector distance, lowest unit id on ties;
    that needs the dendrogram's unit vectors, so it works on freshly built
    dendrograms, not deserialized ones.
    """
    n_leaves = dendrogram.n_leaves
    if not 1 <= k <= n_leaves:
        raise ConfigError(f"cut level {k} outside [1, {n_leaves}]")
    members: dict[int, list[int]] = {i: [i] for i in range(n_leaves)}
    for j, (a, b, _cost) in enumerate(dendrogram.merges[: n_leaves - k]):
        members[n_leaves + j] = members.pop(a) + members.pop(b)

    u = dendrogram.topology.n_units
    labels = np.full(u, -1, dtype=np.int64)
    for cluster in members.values():
        units = [dendrogram.leaves[i] for i in cluster]
        labels[units] = min(units)    # provisional tag: smallest member unit

    orphan = np.flatnonzero(labels < 0)
    if orphan.size:
        if dendrogram.unit_vectors is None:
            raise ConfigError(
                "cut with empty units needs the dendrogram's unit vectors"
            )
        code = dendrogram.unit_vectors
        clustered = np.asarray(dendrogram.leaves)
        nearest = _squared_distances(code[orphan], code[clustered]).argmin(axis=1)
        labels[orphan] = labels[clustered[nearest]]

    tags = sorted(
        set(labels.tolist()),
        key=lambda tag: int(np.flatnonzero(labels == tag).min()),
    )
    remap = {tag: i for i, tag in enumerate(tags)}
    labels = np.asarray([remap[tag] for tag in labels], dtype=np.int64)
    classes = [sorted(np.flatnonzero(labels == i).tolist()) for i in range(k)]
    connected = [_is_connected(c, dendrogram.topology) for c in classes]
    return MacroClassing(k=k, labels=labels, classes=classes, connected=connected)


def unit_weights(result, uniform: bool = False) -> np.ndarray:
    """Weights for second-level clustering from an analysis result.

    Individuals per unit when the analysis mapped individuals, modalities
    per unit otherwise; ``uniform`` forces weight 1 everywhere.
    """
    n_units = result.modalities.n_units
    if uniform:
        return np.ones(n_units)
    base = result.individuals if result.individuals is not None else result.modalities
    return base.counts.astype(np.float64)
