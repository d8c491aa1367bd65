"""Self-organizing-map analysis of categorical survey data.

The pipeline: encode answers as a complete disjunctive table, derive the
Burt co-occurrence table (both plain arrays computed from the dataset, which
labels their rows and columns), rescale both by the modality counts (Euclidean
distance between corrected disjunctive rows is then the chi-square distance
of correspondence analysis, up to the factor N), train a small map on the
corrected rows (three variants: modalities only, individuals with projected
modalities, or both at once), then cluster the code vectors into
macro-classes and render the result.
"""

from .analyses import (
    ALGORITHMS,
    AnalysisResult,
    DeviationTable,
    default_iterations,
    deviations,
    kdisj,
    kdisj_associate,
    kmca,
    kmca_ind,
    modality_mean_vectors,
    run_analysis,
    sweep,
)
from .crossing import (
    ExternalColumn,
    PieGrid,
    cross,
    external_from_csv,
    external_from_dataset,
)
from .dataset import (
    CategoricalDataset,
    VariableSpec,
    expand_from_contingency,
    ingest_csv,
    load_schema,
    to_disjunctive,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    RenderError,
    SomcatError,
    ZeroModalityError,
)
from .macrocluster import (
    Dendrogram,
    MacroClassing,
    cut,
    unit_weights,
    ward_cluster,
    ward_linkage,
)
from .marriages import marriage_counts, marriage_dataset
from .render import (
    grey_palette,
    render_map,
    render_pies,
    render_text,
)
from .som import (
    DistanceMask,
    MapAssignment,
    SomModel,
    Topology,
    TrainConfig,
    UniformRowSampler,
    assign,
    bmu,
    init_model,
    neighbor_distance_stats,
    quantization_error,
    train,
    train_step,
)
from .tables import (
    ContingencyStats,
    Profiles,
    burt,
    chi2_distance,
    corrected_burt,
    corrected_disjunctive,
    profiles,
    total_inertia,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AnalysisResult",
    "CategoricalDataset",
    "ConfigError",
    "ContingencyStats",
    "Dendrogram",
    "DeviationTable",
    "DistanceMask",
    "ExternalColumn",
    "MacroClassing",
    "MapAssignment",
    "PieGrid",
    "Profiles",
    "RenderError",
    "SomModel",
    "SomcatError",
    "Topology",
    "TrainConfig",
    "UniformRowSampler",
    "VariableSpec",
    "ZeroModalityError",
    "assign",
    "bmu",
    "burt",
    "chi2_distance",
    "corrected_burt",
    "corrected_disjunctive",
    "cross",
    "cut",
    "default_iterations",
    "deviations",
    "expand_from_contingency",
    "external_from_csv",
    "external_from_dataset",
    "grey_palette",
    "ingest_csv",
    "init_model",
    "kdisj",
    "kdisj_associate",
    "kmca",
    "kmca_ind",
    "load_schema",
    "marriage_counts",
    "marriage_dataset",
    "modality_mean_vectors",
    "neighbor_distance_stats",
    "profiles",
    "quantization_error",
    "render_map",
    "render_pies",
    "render_text",
    "run_analysis",
    "sweep",
    "to_disjunctive",
    "total_inertia",
    "train",
    "train_step",
    "unit_weights",
    "ward_cluster",
    "ward_linkage",
]
