"""Planar self-affine sets: construction, structure diagnostics, visible parts,
and box/Assouad dimension estimation."""

from .errors import (
    AffineVisError,
    BadSymbolError,
    BudgetError,
    DirectionInConeError,
    EmptyCylinderViewError,
    ExceptionalDirectionError,
    ImproperConeError,
    NoConeError,
    NoExitError,
    NoGapError,
    NotContractiveError,
    ParseError,
    SingularInputError,
    TooFewScalesError,
    UnknownScenarioError,
    budget_limit,
    budget_scope,
)
from .linalg2 import (
    AffineMap2,
    Direction,
    Mat2,
    ProjLine,
    SingularData,
    compose,
    singular_data,
)
from .symbolic import (
    IFS,
    Cylinder,
    PointCloud,
    Word,
    attractor_cloud,
    cylinder,
)
from .regularity import (
    Cone,
    DistortionConstants,
    DominationReport,
    distortion_check,
    distortion_constants,
    domination_report,
    invariant_cone_search,
    orientation_cover,
    strong_cone_separation_check,
)
from .geometry import (
    direction_scan,
    projection_condition_check,
)
from .visibility import (
    EnvelopeFn,
    KakeyaSet,
    OccupancyGrid,
    rasterize,
    visible_bruteforce,
    visible_envelope,
    visible_exact,
    visible_sweep,
)
from .dimension import (
    DimEstimate,
    assouad_estimate,
    box_count,
    fit_dimension,
)
from .tangent import (
    ApproxRect,
    TangentFrame,
    approx_rect,
    kakeya_extract,
    magnify,
    tangent_sequence,
)
from .scenarios import ScenarioSpec, load_ifs, scenario, scenario_names
from .pipeline import ladder_scales, set_dim, vis_dim
from .runner import run_scenario

__version__ = "0.1.0"
