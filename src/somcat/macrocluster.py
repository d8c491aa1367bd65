"""Second-level clustering: Ward agglomeration of the trained map's units.

The map gives a fine partition (one micro-class per unit); merging the units
bottom-up with Ward's criterion yields a nested family of coarser
macro-classes.  Each unit is weighted by the mass it represents (individuals
mapped there, or modalities for a modality-only analysis).  Merging clusters
A and B costs

    w_A * w_B / (w_A + w_B) * ||centroid_A - centroid_B||^2

the increase in weighted within-cluster sum of squares; the pair of minimal
cost merges first, and equal costs resolve to the lexicographically smallest
node pair.  Grid adjacency is never enforced, only reported, so a cut shows
whether macro-classes happen to form connected map regions.

Ward needs only the squared distances between the units' code vectors,
never the vectors: the initial costs are those distances weighted, and the
Lance-Williams recurrence (Lance & Williams, 1967) gives every later cost
from earlier ones.  Attaching empty units at a cut reads the same
distances.  A result stores them as its ``unit_distances``, from every
unit to each unit that holds weight (U x L), computed by
som._squared_distances, the difference-form code-vs-code kernel; it calls
no BLAS routine, so the merge costs do not depend on how many threads a
BLAS library runs.

The costs live in one node-indexed matrix in which only entry [a, b] with
a < b of two active nodes is finite; every other entry is inf.  argmin
scans it row-major and returns the first minimum, which is the
lexicographically smallest cheapest pair, so the tie rule needs no code of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ConfigError, DataError, DimensionError
from .som import Topology

# Ward's (2L - 1)^2 float64 cost matrix over L leaves grows with the square
# of the map; this caps it (L = 5,793 at most).
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
    d2: np.ndarray, weights: np.ndarray
) -> list[tuple[int, int, float]]:
    """Full Ward merge sequence for L weighted points, from ``d2``, their
    L x L squared distances.

    Node ids: point i is node i; the j-th merge creates node L + j.  Returns
    (a, b, cost) triples with a < b.  Costs are maintained with the
    Lance-Williams recurrence, so they equal the direct weighted-centroid
    cost of each merge.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or d2.shape != (len(w), len(w)):
        raise DimensionError("need one weight per point and their L x L distances")
    n = len(w)
    if np.any(w <= 0):
        raise ConfigError("ward_linkage weights must be positive")
    if n < 2:
        raise ConfigError("clustering needs at least 2 points")
    check_ward_size(n)

    size = 2 * n - 1
    node_w = np.concatenate([w, np.zeros(n - 1)])
    cost = np.full((size, size), np.inf)
    upper = np.triu_indices(n, 1)
    cost[upper] = (np.outer(w, w) / np.add.outer(w, w) * d2)[upper]
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
    and merge j creates node len(leaves) + j.  ``unit_distances`` holds the
    squared distances from every unit, not just the leaves, to each leaf
    (U x L), for attaching empty units at cut time; it is not serialized.
    """

    topology: Topology
    leaves: tuple[int, ...]
    weights: np.ndarray
    merges: list[tuple[int, int, float]]
    unit_distances: np.ndarray

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


def ward_cluster(d2: np.ndarray, weights: np.ndarray,
                 topology: Topology) -> Dendrogram:
    """Cluster the units of a map of ``topology`` from ``d2``, the squared
    distances from every unit's code vector to each of positive weight
    (U x L, a result's ``unit_distances``).  Zero-weight units sit out."""
    u = topology.n_units
    d2 = np.asarray(d2, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (u,):
        raise DimensionError("need one weight per map unit")
    if np.any(weights < 0):
        raise ConfigError("unit weights must be nonnegative")
    leaves = tuple(int(i) for i in np.flatnonzero(weights > 0))
    if len(leaves) < 2:
        raise ConfigError("clustering needs at least 2 units with weight")
    check_ward_size(len(leaves))
    if d2.shape != (u, len(leaves)):
        raise DimensionError("need the distances from every unit to each unit "
                             "of positive weight")
    leaf_w = weights[list(leaves)]
    merges = ward_linkage(d2[list(leaves)], leaf_w)
    return Dendrogram(topology, leaves, leaf_w, merges, d2)


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
        """The stored cut, else a DataError: k, its labels and class members are
        integers (the labels in [0, k)), and ``classes`` and ``connected`` (true
        or false) hold k entries each."""
        jsonio.require_keys(data, ("k", "labels", "classes", "connected"),
                            "a macro-classing")
        k = jsonio.numbers(data["k"], "i", 0, "a macro-classing: k").item()
        labels = jsonio.numbers(data["labels"], "i", 1, "a macro-classing: its labels")
        classes, connected = data["classes"], data["connected"]
        if not (isinstance(classes, list) and isinstance(connected, list)
                and set(map(type, connected)) <= {bool}):
            raise DataError("not a macro-classing: classes is not a list, or "
                            "connected not a list of true or false")
        classes = [jsonio.numbers(c, "i", 1, "a macro-classing: its class members").tolist()
                   for c in classes]
        if np.any((labels < 0) | (labels >= k)):
            raise DataError(f"not a macro-classing: a label lies outside [0, {k})")
        for key, entries in (("classes", classes), ("connected", connected)):
            if len(entries) != k:
                raise DataError(f"not a macro-classing: {key} holds "
                                f"{len(entries)} entries, not k = {k}")
        return cls(k=k, labels=labels, classes=classes, connected=connected)

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
    nearest clustered unit by the dendrogram's unit distances, lowest unit
    id on ties.
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
        nearest = dendrogram.unit_distances[orphan].argmin(axis=1)
        labels[orphan] = labels[np.asarray(dendrogram.leaves)[nearest]]

    _, first, tag = np.unique(labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[tag]  # classes in order of first unit
    classes = [np.flatnonzero(labels == i).tolist() for i in range(k)]
    connected = [_is_connected(c, dendrogram.topology) for c in classes]
    return MacroClassing(k=k, labels=labels, classes=classes, connected=connected)


def unit_weights(result, uniform: bool = False) -> np.ndarray:
    """Weights for second-level clustering from an analysis result.

    Individuals per unit when the analysis mapped individuals, modalities
    per unit otherwise; a result's ``unit_distances`` hold one column per
    unit of positive weight.  ``uniform`` forces weight 1 everywhere.
    """
    n_units = result.modalities.n_units
    if uniform:
        return np.ones(n_units)
    base = result.individuals if result.individuals is not None else result.modalities
    return base.counts.astype(np.float64)
