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

All three consume one RNG stream per run (seeded from the config), covering
initialization, draws and tie breaks, so equal inputs give equal outputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, DisjunctiveTable, to_disjunctive
from .errors import ConfigError, DataError, DimensionError
from .som import (
    DistanceMask,
    MapAssignment,
    SomModel,
    Topology,
    TrainConfig,
    UniformRowSampler,
    assign,
    init_model,
    train,
)
from .tables import _check_positive_counts, burt, corrected_burt, corrected_disjunctive

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


def modality_mean_vectors(disj: DisjunctiveTable) -> np.ndarray:
    """Mean corrected-disjunctive row over each modality's adopters, M x M.

    Computed in closed form from the Burt table: entry (j, l) equals
    B_jl / (b_j * sqrt(K) * sqrt(b_l)), which is exactly the average of the
    corrected rows of the individuals who chose modality j.
    """
    _check_positive_counts(disj.counts, disj.names)
    counts = disj.counts.astype(np.float64)
    k = float(disj.n_variables)
    b = burt(disj).entries
    return b / counts[:, np.newaxis] / np.sqrt(counts)[np.newaxis, :] / np.sqrt(k)


def kdisj_associate(row: np.ndarray, rng: np.random.Generator | None = None) -> int:
    """Rarest chosen modality of a corrected disjunctive row.

    The corrected value of a chosen modality is 1/sqrt(K*b_j), so the
    largest entry marks the smallest count.  Exact ties are resolved by a
    uniform draw when an RNG is given, else by the lowest column index.
    """
    row = np.asarray(row, dtype=np.float64)
    hits = np.flatnonzero(row == row.max())
    if len(hits) == 1 or rng is None:
        return int(hits[0])
    return int(hits[rng.integers(0, len(hits))])


class KdisjSampler:
    """Alternating input source for the simultaneous analysis.

    Even t: draw an individual i, pair it with column j(i), search on the
    first M components, update all M + N.  Odd t: draw a modality j, search
    and update the last N components only; the winner must be a unit that
    holds at least one adopter of j.

    A unit holds an individual when it is the individual's best matching
    unit on the first M components.  Training reports these units at each
    checkpoint (``locate``); until the first report a modality step searches
    every unit.  Modality steps never move the first block, so without this
    limit a column could settle on a unit that none of its adopters reach.
    """

    def __init__(self, dc: np.ndarray):
        # One M x N copy: row j holds column j of dc contiguously, for the
        # modality draws, the adopters and the modality assignment; dc's
        # rows are its strided view.
        self.columns = np.ascontiguousarray(np.asarray(dc, dtype=np.float64).T)
        self.dc = self.columns.T
        self.n, self.m = self.dc.shape
        self.dim = self.m + self.n
        self._search_ind = DistanceMask(0, self.m)
        self._update_all = DistanceMask(0, self.dim)
        self._mod_mask = DistanceMask(self.m, self.dim)
        self._adopters = [np.flatnonzero(col > 0) for col in self.columns]
        self._held: np.ndarray | None = None  # M x U: j has an adopter at u
        self._drawn = 0  # modality of the last odd draw

    def draw(self, t: int, rng: np.random.Generator):
        x = np.zeros(self.dim)
        if t % 2 == 0:
            i = int(rng.integers(0, self.n))
            j = kdisj_associate(self.dc[i], rng)
            x[: self.m] = self.dc[i]
            x[self.m:] = self.columns[j]
            return x, self._search_ind, self._update_all
        j = int(rng.integers(0, self.m))
        x[self.m:] = self.columns[j]
        self._drawn = j
        return x, self._mod_mask, self._mod_mask

    def candidates(self, t: int) -> np.ndarray | None:
        """Units the step at t may win: for a modality step, the units that
        hold an adopter of the modality drawn last; None for all units."""
        if t % 2 == 0 or self._held is None:
            return None
        return self._held[self._drawn]

    def locate(self, bmus: np.ndarray, n_units: int) -> None:
        """Record which units hold adopters, from each individual's unit."""
        held = np.zeros((self.m, n_units), dtype=bool)
        for j, rows in enumerate(self._adopters):
            held[j, bmus[rows]] = True
        self._held = held

    @property
    def qe_rows(self) -> np.ndarray:
        return self.dc

    @property
    def qe_mask(self) -> DistanceMask:
        return self._search_ind


@dataclass(eq=False)
class AnalysisResult:
    """A trained model plus the map positions of modalities/individuals.

    The topology is duplicated out of the model so a result stays renderable
    after deserialization without its model file.
    """

    algorithm: str
    topology: Topology
    model: SomModel | None
    modalities: MapAssignment
    individuals: MapAssignment | None
    provenance: dict
    qe_log: list[tuple[int, float]]

    @staticmethod
    def _pack(a: MapAssignment | None) -> dict | None:
        if a is None:
            return None
        return {"items": list(a.labels), "units": a.units.tolist()}

    def to_json(self, model_file: str | None = None) -> dict:
        return {
            "algorithm": self.algorithm,
            "model_file": model_file,
            "topology": self.topology.to_json(),
            "provenance": {
                "dataset_sha256": self.provenance["dataset_sha256"],
                "config": self.provenance["config"],
                "qe_log": [[int(t), q] for t, q in self.qe_log],
            },
            "modalities": self._pack(self.modalities),
            "individuals": self._pack(self.individuals),
        }

    @classmethod
    def from_json(cls, data: dict, model: SomModel | None = None) -> "AnalysisResult":
        topo = Topology.from_json(data["topology"])
        n_units = topo.n_units

        def unpack(packed):
            if packed is None:
                return None
            return MapAssignment(
                labels=tuple(packed["items"]),
                units=np.asarray(packed["units"], dtype=np.int64),
                n_units=n_units,
            )

        prov = data["provenance"]
        return cls(
            algorithm=data["algorithm"],
            topology=topo,
            model=model,
            modalities=unpack(data["modalities"]),
            individuals=unpack(data["individuals"]),
            provenance={
                "dataset_sha256": prov["dataset_sha256"],
                "config": prov["config"],
            },
            qe_log=[(int(t), float(q)) for t, q in prov["qe_log"]],
        )


def _train(algorithm: str, ds: CategoricalDataset, topology: Topology,
           config: TrainConfig | None, sampler, dim: int, data=None, ranges=None,
           observer=None) -> tuple[SomModel, list[tuple[int, float]]]:
    """Initialize a map of ``dim`` components from ``data`` or ``ranges`` and
    train it on ``sampler``; an unset t_max takes the algorithm's default
    budget for ``ds``."""
    config = config or TrainConfig()
    if config.t_max is None:
        steps = default_iterations(
            algorithm, ds.n_individuals, ds.n_modalities, ds.n_variables
        )
        config = dataclasses.replace(config, t_max=steps)
    model = init_model(topology, dim, config, data=data, ranges=ranges)
    return train(model, sampler, observer=observer)


def _result(algorithm: str, ds: CategoricalDataset, model: SomModel, qe_log,
            modalities: MapAssignment, individuals=None) -> AnalysisResult:
    return AnalysisResult(
        algorithm=algorithm,
        topology=model.topology,
        model=model,
        modalities=modalities,
        individuals=individuals,
        provenance={"dataset_sha256": ds.sha256(), "config": model.config.to_json()},
        qe_log=qe_log,
    )


def kmca(
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
) -> AnalysisResult:
    """Train on the corrected Burt rows; map positions for modalities only."""
    bc = corrected_burt(burt(to_disjunctive(ds)))
    rows = bc.entries
    model, qe_log = _train(
        "kmca", ds, topology, config, UniformRowSampler(rows), rows.shape[1], data=rows
    )
    return _result("kmca", ds, model, qe_log, assign(model, rows, labels=bc.row_labels))


def kmca_ind(
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
) -> AnalysisResult:
    """Train on corrected disjunctive rows; modalities placed by mean vector."""
    disj = to_disjunctive(ds)
    dc = corrected_disjunctive(disj)
    rows = dc.entries
    model, qe_log = _train(
        "kmca-ind", ds, topology, config, UniformRowSampler(rows), rows.shape[1],
        data=rows,
    )
    individuals = assign(model, rows, labels=dc.row_labels)
    modalities = assign(model, modality_mean_vectors(disj), labels=disj.names)
    return _result("kmca-ind", ds, model, qe_log, modalities, individuals)


def kdisj(
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
    observer=None,
) -> AnalysisResult:
    """Simultaneous analysis of individuals and modalities on one map."""
    disj = to_disjunctive(ds)
    sampler = KdisjSampler(corrected_disjunctive(disj).entries)
    dc = sampler.dc
    n, m = dc.shape
    lo = np.concatenate([dc.min(axis=0), dc.min(axis=1)])
    hi = np.concatenate([dc.max(axis=0), dc.max(axis=1)])
    model, qe_log = _train(
        "kdisj", ds, topology, config, sampler, m + n, ranges=(lo, hi),
        observer=observer,
    )
    individuals = assign(model, dc, mask=DistanceMask(0, m), labels=disj.individuals)
    modalities = assign(
        model,
        sampler.columns,
        mask=DistanceMask(m, m + n),
        labels=disj.names,
        units=individuals.counts > 0,
    )
    return _result("kdisj", ds, model, qe_log, modalities, individuals)


def run_analysis(
    algorithm: str,
    ds: CategoricalDataset,
    topology: Topology,
    config: TrainConfig | None = None,
) -> AnalysisResult:
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    # Looked up at call time, so a wrapper set on the module attribute runs.
    return globals()[algorithm.replace("-", "_")](ds, topology, config)


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
    return DeviationTable(
        modalities=names,
        observed=observed,
        expected=expected,
        unit_counts=unit_counts,
        own_unit=own_unit,
        own_deviation=own_dev,
    )
