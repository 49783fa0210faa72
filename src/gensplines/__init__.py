"""Exact computer algebra for generalized splines on edge-labeled graphs."""

from .rings import (
    Ideal,
    RingElement,
    RingSpec,
    gcd,
    integers,
    integers_mod,
    lcm,
    poly_rational,
)
from .graphs import (
    EdgeLabeledGraph,
    TreeSkeleton,
    build_graph,
    disjoint_union,
    erase_unit_edges,
    fundamental_cycles,
    restrict,
    spanning_tree,
    tree_path,
)
from .splines import (
    Spline,
    VerificationReport,
    decompose_at_vertex,
    direct_sum_spline,
    is_nontrivial,
    restrict_spline,
    scalar_mul,
    scaled_labeling,
    spline_add,
    spline_mul,
    transport,
    verify,
)

__all__ = [
    "EdgeLabeledGraph", "Ideal", "RingElement", "RingSpec", "Spline",
    "TreeSkeleton", "VerificationReport", "build_graph",
    "decompose_at_vertex", "direct_sum_spline", "disjoint_union",
    "erase_unit_edges", "fundamental_cycles", "gcd", "integers",
    "integers_mod", "is_nontrivial", "lcm", "poly_rational", "restrict",
    "restrict_spline", "scalar_mul", "scaled_labeling", "spanning_tree",
    "spline_add", "spline_mul", "transport", "tree_path", "verify",
]
