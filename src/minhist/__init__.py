"""Minutiae histograms for fingerprint templates.

Fixed-length, rotation- and translation-invariant histogram descriptors of
minutiae templates, compared by an exact earth mover's distance; built on top
of them: a real-vs-synthetic classifier, a bin-intersection identification
index, population analysis tools and an EMD-guided synthetic template refiner.
"""

from .analysis import (
    BootstrapNeighborhood,
    DistanceMatrix,
    MDSResult,
    bootstrap_neighborhood,
    mds_embed,
)
from .histogram import (
    IDENTIFICATION_SPEC,
    BinSpec,
    MinutiaeHistogram,
    TooFewMinutiaeError,
    build_2dmh,
    build_4dmh,
    fold_direction_difference,
)
from .identify import (
    AccessRateReport,
    GalleryIndex,
    RankingResult,
    access_rate_report,
    bis,
    build_index,
    search,
)
from .realness import (
    ClassModel,
    EmptyClassError,
    EvaluationReport,
    RealnessScore,
    TrainConfig,
    TrainResult,
    average_histogram,
    classify_template,
    emd_difference_score,
    evaluate,
    fuse_features,
    train,
)
from .refine import (
    OrientationField,
    RefineConfig,
    RefineResult,
    assign_types,
    init_template,
    refine,
)
from .template import (
    Minutia,
    MinutiaTemplate,
    TemplateParseError,
    bifurcation_percentage,
    load_directory,
    load_template,
    parse_template,
    rescale_to_500dpi,
    save_template,
    serialize_template,
)
from .transport import (
    CostParams,
    TransportPlan,
    build_cost_matrix,
    emd,
    solve_transport,
    transport_plan,
)

__version__ = "0.1.0"
