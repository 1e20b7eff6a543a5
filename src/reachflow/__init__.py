"""Set-based reachability: flowpipes for linear, hybrid and nonlinear systems.

The package computes, over a bounded horizon, a sequence of sets that
provably covers every trajectory of a system under all admissible
non-deterministic inputs, and answers safety questions against that
cover.  Linear dynamics are handled directly (``reach``), mode-switching
systems through per-mode flowpipes stitched at guard crossings
(``hybrid_reach``), and nonlinear vector fields through on-the-fly
linearization with bounded residuals (``dynamic_hybridize_reach``).
"""

from .setgeom import (
    Box,
    HPolytope,
    VPolytope,
    Zonotope,
    axis_bounds,
    bloat,
    bounding_box,
    contains_set,
    hull_union,
    intersect,
    is_empty,
    linear_map,
    meets,
    member,
    minkowski_sum,
    support,
    support_batch,
    template_hull,
    translate,
)
from .linreach import (
    Flowpipe,
    LazyReachSet,
    LinearSystem,
    ReachConfig,
    Segment,
    SimTrace,
    reach,
    simulate,
    step_input_facets,
    step_input_vertices,
)
from .hybridreach import (
    HybridAutomaton,
    HybridFlowpipe,
    HybridTrace,
    Jump,
    Mode,
    ModeFlow,
    Transition,
    guard_cross,
    hybrid_reach,
    hybrid_simulate,
    mode_reach,
)
from .hybridize import (
    DynamicFlowpipe,
    Linearization,
    NonlinearSystem,
    StaticHybridization,
    dynamic_hybridize_reach,
    linearize,
    static_hybridize,
)
from .exprs import ExprError, parse_expr, parse_field
from .modelio import (
    ModelError,
    ParsedModel,
    decode_set,
    encode_set,
    load_model,
    load_result,
    model_sha256,
    parse_model,
    result_doc,
    save_model,
    save_result,
)

__version__ = "0.1.0"

__all__ = [
    "Box", "HPolytope", "VPolytope", "Zonotope",
    "axis_bounds", "bloat", "bounding_box", "contains_set", "hull_union",
    "intersect", "is_empty", "linear_map", "meets", "member", "minkowski_sum",
    "support", "support_batch", "template_hull", "translate",
    "Flowpipe", "LazyReachSet", "LinearSystem", "ReachConfig", "Segment",
    "SimTrace", "reach", "simulate", "step_input_facets",
    "step_input_vertices",
    "HybridAutomaton", "HybridFlowpipe", "HybridTrace", "Jump", "Mode",
    "ModeFlow", "Transition", "guard_cross", "hybrid_reach",
    "hybrid_simulate", "mode_reach",
    "DynamicFlowpipe", "Linearization", "NonlinearSystem",
    "StaticHybridization", "dynamic_hybridize_reach", "linearize",
    "static_hybridize",
    "ExprError", "parse_expr", "parse_field",
    "ModelError", "ParsedModel", "decode_set", "encode_set", "load_model",
    "load_result", "model_sha256", "parse_model", "result_doc",
    "save_model", "save_result",
    "__version__",
]
