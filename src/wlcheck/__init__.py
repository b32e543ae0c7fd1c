"""wlcheck: color refinement, exact biconnectivity and resistance distance,
and a corpus-based expressivity checking harness."""

from .biconn import (
    BiconnectivityReport,
    biconnectivity_report,
    brute_force_cut_sets,
    per_component_forms,
)
from .distances import (
    UNREACHABLE,
    DistanceRegularProfile,
    RdMatrix,
    SpdMatrix,
    distance_regular_profile,
    hitting_time_matrix,
    rd_from_intersection_array,
    rd_matrix,
    spd_matrix,
)
from .graphs import (
    Graph,
    GraphFormatError,
    Partition,
    brute_force_isomorphic,
    connected_components,
    encode_edge_list,
    encode_graph6,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
)
from .refine import (
    AlgoResult,
    Coloring,
    SubgraphPolicy,
    distinguishable,
    run_algorithm,
)

__all__ = [
    "AlgoResult", "BiconnectivityReport", "Coloring",
    "DistanceRegularProfile", "Graph", "GraphFormatError", "Partition",
    "RdMatrix", "SpdMatrix", "SubgraphPolicy", "UNREACHABLE",
    "biconnectivity_report", "brute_force_cut_sets",
    "brute_force_isomorphic", "connected_components",
    "distance_regular_profile", "distinguishable", "encode_edge_list",
    "encode_graph6", "hitting_time_matrix", "induced_subgraph",
    "parse_edge_list", "parse_graph6", "per_component_forms",
    "rd_from_intersection_array", "rd_matrix", "run_algorithm", "spd_matrix",
]
