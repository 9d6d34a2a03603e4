"""Desk-scale counting laboratory for circular Furstenberg-type point sets.

Generators for discretized circle families carrying Cantor-type angular
sets, (delta, q)-net extraction with non-concentration audits, annulus
geometry with explicit constants (three-circle confinement, two-annulus
rectangles), arc trisection with content brackets, multiplicity fields, and
box-counting dimension experiments.
"""

from .errors import (
    ConfigInvalid,
    DegenerateFit,
    DegenerateTriangle,
    EmptyInput,
    FlabError,
    HypothesisViolated,
    InsufficientContent,
    OriginInput,
    OutOfAnnulus,
)
from .fractal import (
    ContentEstimate,
    DeltaQSet,
    DiscreteMeasure,
    PointCloud,
    content_greedy,
    content_lower,
    extract_delta_q_set,
    frostman_measure,
    load_csv,
    normalize_to_unit_ball,
    save_csv,
    verify_non_concentration,
)
from .generators import (
    CantorSpec,
    DiscretizedFurstenbergSet,
    FurstenbergConfig,
    assemble_furstenberg,
    cantor_points,
    choose_cantor_base,
    generate_angular_set,
    generate_parameter_set,
    invert_points,
    invert_set,
    iter_furstenberg_points,
    linear_furstenberg,
)
from .geometry import (
    CircleParam,
    EmptyRegion,
    SeparatedRectangle,
    THREE_CIRCLE_K,
    TriangleFrame,
    WRegionBound,
    circumcenter,
    pairwise_rectangle,
    sample_two_annulus_points,
    three_circle_bound,
    w_region_diameter_within,
    w_region_grid_members,
    w_region_sample_diameter,
)
from .incidence import (
    ArcTriple,
    C0_DEFAULT,
    CoverGrid,
    LowMultiplicityStats,
    MultiplicityField,
    ThresholdParams,
    TripleIndex,
    auto_eta,
    box_count,
    box_counts_streaming,
    build_triple_index,
    dimension_slope,
    extract_three_arcs,
    low_multiplicity_subset,
    multiplicity_field,
    step4_reference_count,
    triple_upper_ratio,
)

__version__ = "0.1.0"
