"""Cost models and reporting helpers for the reproduction benchmarks."""

from repro.analysis.complexity import (
    theorem1_comm_bound,
    theorem1_comp_bound,
    dual_prefix_comm_exact,
    dual_prefix_comp_exact,
    hypercube_prefix_steps,
    theorem2_comm_bound,
    theorem2_comp_bound,
    dual_sort_comm_exact,
    dual_sort_comp_exact,
    hypercube_bitonic_steps,
    sort_overhead_ratio,
    dual_cube_nodes,
    dual_cube_edges,
    dual_cube_diameter,
    hypercube_same_size_dim,
)
from repro.analysis.tables import format_table, format_markdown_table
from repro.analysis.io import collect_artifacts

__all__ = [
    "theorem1_comm_bound",
    "theorem1_comp_bound",
    "dual_prefix_comm_exact",
    "dual_prefix_comp_exact",
    "hypercube_prefix_steps",
    "theorem2_comm_bound",
    "theorem2_comp_bound",
    "dual_sort_comm_exact",
    "dual_sort_comp_exact",
    "hypercube_bitonic_steps",
    "sort_overhead_ratio",
    "dual_cube_nodes",
    "dual_cube_edges",
    "dual_cube_diameter",
    "hypercube_same_size_dim",
    "format_table",
    "format_markdown_table",
    "collect_artifacts",
]
