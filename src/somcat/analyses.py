"""The three map analyses for categorical data.

* ``kmca``      trains on the corrected Burt rows; only modalities get map
                positions.
* ``kmca_ind``  trains on the corrected disjunctive rows (individuals) and
                places each modality afterwards at the best matching unit of
                the mean vector of its adopters.
* ``kdisj``     trains individuals and modalities simultaneously on an
                extended code vector: the first M components live in
                modality space, the last N in individual space.  Steps
                alternate strictly, individual steps on even t, modality
                steps on odd t.  An individual step pairs the drawn
                individual with its rarest chosen modality and updates the
                whole code vector; a modality step searches and updates the
                individual-space components only, and may only be won by a
                unit that holds at least one of its adopters.  After
                training each modality goes to the unit nearest its column
                on the individual-space block, among the units that hold
                any individual.

Each computes its table from the dataset and labels the mapped rows with
the dataset's ``individuals`` and ``global_modality_names``.  All three
consume one RNG stream per run (seeded from the config), covering
initialization, draws and tie breaks, so equal inputs give equal outputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import jsonio, som
from .dataset import CategoricalDataset
from .errors import ConfigError, DataError, DimensionError
from .macrocluster import unit_weights
from .som import (
    DistanceMask, MapAssignment, SomModel, Topology, TrainConfig, UniformRowSampler,
    assign, init_model, train,
)
from .tables import _checked_counts, burt, corrected_burt, disjunctive_index

ALGORITHMS = ("kmca", "kmca-ind", "kdisj")
ITERATION_CAP = 100_000


def default_iterations(
    algorithm: str,
    n_individuals: int,
    n_modalities: int,
    n_variables: int,
) -> int:
    """Schedule length used when the config leaves t_max unset.

    Rule of thumb: roughly 20 passes over the trained family, floored at 500
    for the (small) Burt input and capped for very large datasets.
    """
    if algorithm == "kmca":
        return max(500, 20 * n_modalities)
    if algorithm == "kmca-ind":
        return min(20 * n_individuals * n_variables, ITERATION_CAP)
    if algorithm == "kdisj":
        return min(20 * (n_individuals + n_modalities), ITERATION_CAP)
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def modality_mean_vectors(ds: CategoricalDataset) -> np.ndarray:
    """Mean corrected-disjunctive row over each modality's adopters, M x M.

    Computed in closed form from the Burt table: entry (j, l) equals
    B_jl / (b_j * sqrt(K) * sqrt(b_l)), which is exactly the average of the
    corrected rows of the individuals who chose modality j.  Row j is
    modality ``ds.global_modality_names[j]``.
    """
    b = burt(ds)
    counts = _checked_counts(np.diag(b), ds)
    k = float(ds.n_variables)
    return b / counts[:, np.newaxis] / np.sqrt(counts)[np.newaxis, :] / np.sqrt(k)


def kdisj_associate(row: np.ndarray, rng: np.random.Generator) -> int:
    """Rarest chosen modality of a corrected disjunctive row.

    The corrected value of a chosen modality is 1/sqrt(K*b_j), so the
    largest entry marks the smallest count.  Exact ties are resolved by a
    uniform draw from ``rng``, which a row without a tie leaves untouched.
    """
    row = np.asarray(row, dtype=np.float64)
    hits = np.flatnonzero(row == row.max())
    if len(hits) == 1:
        return int(hits[0])
    return int(hits[rng.integers(0, len(hits))])


class KdisjSampler:
    """Alternating input source for the simultaneous analysis of ``ds``.

    Even t: draw an individual i, pair it with column j(i), search on the
    first M components, update all M + N.  Odd t: draw a modality j, search
    and update the last N components only; the winner must be a unit that
    holds at least one adopter of j.  Either way the last N components move
    toward column j (``column``); ``draw`` refills one buffer.

    A unit holds an individual when it is the individual's best matching
    unit on the first M components.  train() reports these units (``locate``)
    before its first step and at each checkpoint; only a modality step drawn
    outside train(), before any report, searches every unit.  Modality steps
    never move the first block, so without this limit a column could settle
    on a unit that none of its adopters reach.  Above ``som.DISTANCE_BLOCK``
    units x N, modality steps search through a GramTable whose Gram matrix
    is the corrected Burt table.  ``ranges`` bounds each component (lo, hi).
    """

    def __init__(self, ds: CategoricalDataset):
        # The M x N columns, expanded from the index form in place (a copy
        # of an N x M expansion leaves a hole in the heap): row j holds
        # column j of dc contiguously, for the modality draws and the
        # modality assignment, and dc's rows are its strided view.
        index = disjunctive_index(ds)
        self.columns = np.zeros((len(index.scale), len(index)))
        self.columns[index.cols, np.arange(len(index))] = index.scale[index.cols]
        self.gram = corrected_burt(ds)  # <c_j, c_l>
        self.dc = self.columns.T
        self.n, self.m = self.dc.shape
        self.dim = self.m + self.n
        self._search_ind = DistanceMask(0, self.m)
        self._update_all = DistanceMask(0, self.dim)
        self._mod_mask = DistanceMask(self.m, self.dim)
        self.qe_rows, self.qe_mask = index, self._search_ind
        # kdisj_associate's answer for rows whose largest entry is unique.
        values = index.scale[index.cols]
        self._rarest = index.cols[values.argmax(axis=0), np.arange(self.n)]
        self._tied = np.count_nonzero(values == values.max(axis=0), axis=0) > 1
        self.ranges = (np.concatenate([self.dc.min(axis=0), self.dc.min(axis=1)]),
                       np.concatenate([self.dc.max(axis=0), self.dc.max(axis=1)]))
        self._held: np.ndarray | None = None  # M x U: j has an adopter at u
        self.bmus: np.ndarray | None = None  # each individual's unit, as last located
        self.column = 0  # modality of the last draw
        self._x = np.zeros(self.dim)

    def draw(self, t: int, rng: np.random.Generator):
        x = self._x
        if t % 2 == 0:
            i = int(rng.integers(0, self.n))
            self.column = (kdisj_associate(self.dc[i], rng) if self._tied[i]
                           else int(self._rarest[i]))
            x[: self.m] = self.dc[i]
            x[self.m:] = self.columns[self.column]
            return x, self._search_ind, self._update_all
        self.column = int(rng.integers(0, self.m))
        x[: self.m] = 0.0
        x[self.m:] = self.columns[self.column]
        return x, self._mod_mask, self._mod_mask

    def candidates(self, t: int) -> np.ndarray | None:
        """Units the step at t may win: for a modality step, the units that
        hold an adopter of the modality drawn last; None for all units."""
        if t % 2 == 0 or self._held is None:
            return None
        return self._held[self.column]

    def gram_table(self, model: SomModel) -> som.GramTable | None:
        if model.topology.n_units * self.n <= som.DISTANCE_BLOCK:
            return None
        return som.GramTable(model, self._mod_mask, self.columns, self.qe_rows, self.gram)

    def locate(self, bmus: np.ndarray, n_units: int) -> None:
        """Record each individual's unit and which units hold adopters."""
        held = np.zeros((self.m, n_units), dtype=bool)
        held[self.qe_rows.cols, bmus] = True  # modality cols[k, i] at unit bmus[i]
        self._held = held
        self.bmus = bmus


@dataclass(eq=False)
class AnalysisResult:
    """A trained model plus the map positions of modalities/individuals.

    The topology and ``unit_distances``, the squared distances between the
    code vectors (som._squared_distances) from every unit to each unit of
    positive ``unit_weights``, are kept apart from the model, so a stored
    result is all that Ward, pies and maps read: ``model`` is None after
    deserialization.  The distances grow with U times the occupied units,
    at most U times the mapped items.
    """

    algorithm: str
    topology: Topology
    model: SomModel | None
    modalities: MapAssignment
    individuals: MapAssignment | None
    provenance: dict
    qe_log: list[tuple[int, float]]
    unit_distances: np.ndarray

    @staticmethod
    def _pack(a: MapAssignment | None) -> dict | None:
        if a is None:
            return None
        return {"items": list(a.labels), "units": a.units.tolist()}

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "topology": self.topology.to_json(),
            "provenance": {
                "dataset_sha256": self.provenance["dataset_sha256"],
                "config": self.provenance["config"],
                "qe_log": [[int(t), q] for t, q in self.qe_log],
            },
            "modalities": self._pack(self.modalities),
            "individuals": self._pack(self.individuals),
            "unit_distances": self.unit_distances.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisResult":
        """The stored result, without its model (None); a DataError unless its
        unit distances are U x L nonnegative finite numbers, for the U units of
        its topology and the L units of positive ``unit_weights``."""
        keys = ("algorithm", "topology", "provenance", "modalities", "individuals",
                "unit_distances")
        jsonio.require_keys(data, keys, "an analysis result")
        topo = Topology.from_json(data["topology"])
        n_units = topo.n_units

        def unpack(packed):
            jsonio.require_keys(packed, ("items", "units"), "a packed assignment")
            units = jsonio.numbers(packed["units"], "i", 1, "an analysis result: its units")
            if units.size and not 0 <= units.min() <= units.max() < n_units:
                raise DataError(f"not an analysis result: a unit is outside [0, {n_units})")
            items = jsonio.labels(packed["items"], "an analysis result: items")
            return MapAssignment(labels=items, units=units, n_units=n_units)

        prov = data["provenance"]
        keys = ("dataset_sha256", "config", "qe_log")
        jsonio.require_keys(prov, keys, "a result provenance")
        log = jsonio.numbers(prov["qe_log"], "f", 2, "an analysis result: its qe_log pairs")
        if log.shape[1] != 2 or np.any(log[:, 0] % 1):
            raise DataError("not an analysis result: its qe_log is not [steps, qe] pairs")
        d2 = jsonio.numbers(data["unit_distances"], "f", 2,
                            "an analysis result: unit_distances")
        mapped = data["individuals"]
        result = cls(
            algorithm=data["algorithm"],
            topology=topo,
            model=None,
            modalities=unpack(data["modalities"]),
            individuals=None if mapped is None else unpack(mapped),
            provenance={
                "dataset_sha256": prov["dataset_sha256"],
                "config": TrainConfig.from_json(prov["config"]).to_json(),
            },
            qe_log=[(int(t), q) for t, q in log.tolist()],
            unit_distances=d2,
        )
        shape = (n_units, np.count_nonzero(unit_weights(result)))
        if d2.shape != shape or np.any(d2 < 0):
            raise DataError("not an analysis result: unit_distances is not "
                            "{} x {} nonnegative finite numbers for its map"
                            .format(*shape))
        return result


def _resolved(algorithm: str, ds: CategoricalDataset,
              config: TrainConfig | None) -> TrainConfig:
    """``config`` (default TrainConfig()) whose unset t_max takes the
    algorithm's default budget for ``ds``."""
    config = config or TrainConfig()
    if config.t_max is not None:
        return config
    steps = default_iterations(algorithm, ds.n_individuals, ds.n_modalities, ds.n_variables)
    return dataclasses.replace(config, t_max=steps)


def _result(algorithm: str, sha: str, model: SomModel, qe_log,
            modalities: MapAssignment, individuals=None) -> AnalysisResult:
    result = AnalysisResult(
        algorithm=algorithm,
        topology=model.topology,
        model=model,
        modalities=modalities,
        individuals=individuals,
        provenance={"dataset_sha256": sha, "config": model.config.to_json()},
        qe_log=qe_log,
        unit_distances=np.empty(0),
    )
    code, occupied = model.code_vectors, unit_weights(result) > 0
    leaves = code if occupied.all() else code[occupied]  # no U x dim copy on a full map
    result.unit_distances = som._squared_distances(code, leaves)
    return result


def _sweep(algorithm: str, ds: CategoricalDataset, topology: Topology,
           configs: list[TrainConfig | None], observer=None) -> list[AnalysisResult]:
    """``sweep``, whose ``observer`` watches each kdisj step as train() does."""
    names, labels = ds.global_modality_names, tuple(ds.individuals)
    if algorithm == "kmca":
        sampler, labels = UniformRowSampler(corrected_burt(ds)), names
    elif algorithm == "kmca-ind":
        sampler, means = UniformRowSampler(disjunctive_index(ds)), modality_mean_vectors(ds)
    elif algorithm == "kdisj":
        sampler = KdisjSampler(ds)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if not configs:
        return []
    models = [init_model(topology, _resolved(algorithm, ds, c), *sampler.ranges)
              for c in configs]
    if algorithm == "kdisj":  # each run's step-0 checkpoint locates its own individuals
        runs = [(train(model, sampler, observer)[1], sampler.bmus) for model in models]
    else:
        runs = som._train_lockstep(models, sampler)
    sha, results = ds.sha256(), []
    for model, (qe_log, bmus) in zip(models, runs):
        mapped = MapAssignment(labels=labels, units=bmus, n_units=topology.n_units)
        if algorithm == "kmca":
            modalities, mapped = mapped, None
        elif algorithm == "kmca-ind":
            modalities = assign(model, means, labels=names)
        else:  # kdisj: each column's nearest unit among those holding individuals
            modalities = assign(model, sampler.columns, mask=sampler._mod_mask, labels=names,
                                units=mapped.counts > 0)
        results.append(_result(algorithm, sha, model, qe_log, modalities, mapped))
    return results


def sweep(algorithm: str, ds: CategoricalDataset, topology: Topology,
          configs: list[TrainConfig | None]) -> list[AnalysisResult]:
    """run_analysis(algorithm, ds, topology, config) for each config, in order.

    Every algorithm builds its table and sampler once, draws each map from
    its own config's RNG over ``sampler.ranges`` and hashes the dataset once.
    kmca and kmca-ind train the maps in lockstep (som._train_lockstep), so
    the configs may differ only in their seed; kdisj trains them in turn.
    """
    return _sweep(algorithm, ds, topology, configs)


def kmca(
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
) -> AnalysisResult:
    """Train on the corrected Burt rows; map positions for modalities only."""
    return _sweep("kmca", ds, topology, [config])[0]


def kmca_ind(
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
) -> AnalysisResult:
    """Train on corrected disjunctive rows; modalities placed by mean vector."""
    return _sweep("kmca-ind", ds, topology, [config])[0]


def kdisj(
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
    observer=None,
) -> AnalysisResult:
    """Simultaneous analysis of individuals and modalities on one map."""
    return _sweep("kdisj", ds, topology, [config], observer)[0]


def run_analysis(
    algorithm: str,
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
) -> AnalysisResult:
    return _sweep(algorithm, ds, topology, [config])[0]


@dataclass(eq=False)
class DeviationTable:
    """Observed minus expected modality counts per unit.

    ``observed[j, k]`` counts individuals at unit k choosing modality j;
    ``expected`` is the independence baseline b_j * n_k / N.  The own-class
    deviation of a modality is the deviation at its own map unit, positive
    when the map pulls a modality toward the individuals who chose it.  A
    modality whose own unit holds no individuals gets exactly 0 there (0
    observed, 0 expected); acceptance criterion 7 counts that as a miss.
    """

    modalities: tuple[str, ...]
    observed: np.ndarray          # M x U
    expected: np.ndarray          # M x U
    unit_counts: np.ndarray       # individuals per unit, length U
    own_unit: np.ndarray          # unit of each modality, length M
    own_deviation: np.ndarray     # length M

    @property
    def deviation(self) -> np.ndarray:
        return self.observed - self.expected

    def to_json(self) -> dict:
        return {
            "modalities": list(self.modalities),
            "unit_counts": self.unit_counts.tolist(),
            "observed": self.observed.tolist(),
            "expected": self.expected.tolist(),
            "own_unit": self.own_unit.tolist(),
            "own_deviation": self.own_deviation.tolist(),
        }


def deviations(result: AnalysisResult, ds: CategoricalDataset) -> DeviationTable:
    """Attraction diagnostic for a result that mapped the individuals."""
    if result.individuals is None:
        raise ConfigError("deviation table needs an individuals assignment")
    names = ds.global_modality_names
    if tuple(result.individuals.labels) != tuple(ds.individuals):
        raise DataError("result individuals do not match the dataset")
    if tuple(result.modalities.labels) != names:
        raise DataError("result modalities do not match the dataset")
    m, u = ds.n_modalities, result.individuals.n_units
    mod = ds.cells + np.asarray(ds.block_offsets)    # N x K modality columns
    cell = mod * u + result.individuals.units[:, np.newaxis]
    observed = np.bincount(cell.ravel(), minlength=m * u).reshape(m, u)
    counts = np.bincount(mod.ravel(), minlength=m)
    if not np.array_equal(observed.sum(axis=1), counts):
        raise DimensionError("observed counts lost individuals")
    unit_counts = result.individuals.counts
    expected = np.outer(
        counts.astype(np.float64), unit_counts.astype(np.float64)
    ) / ds.n_individuals
    own_unit = result.modalities.units.copy()
    own_dev = (observed - expected)[np.arange(m), own_unit]
    return DeviationTable(names, observed, expected, unit_counts, own_unit, own_dev)
