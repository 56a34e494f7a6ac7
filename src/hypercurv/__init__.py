"""Curvature toolkit for weighted undirected, directed, and oriented hypergraphs.

Random-walk measures, exact discrete optimal transport, Ollivier-type and
Lin-Lu-Yau curvature, and machine-checked curvature bounds, all in exact
rational arithmetic.
"""

from . import errors
from .bounds import (
    BoundVerdict,
    DirectedBoundData,
    Labels,
    check_bonnet_myers,
    check_directed_edge_bound,
    check_edge_upper_bound,
    check_pair_bound_oriented,
    check_pair_upper_bound,
    check_vertex_count,
    verdict_ledger,
    vertex_count_bound,
)
from .curvature import (
    EvalStats,
    Evaluator,
    Limit,
    curvature_pairs,
    kappa_alpha_edge_directed,
    kappa_alpha_edge_undirected,
    kappa_alpha_pair,
    lly_limit,
    well_transported_pairs,
)
from .document import ParsedDocument, load_document, parse_document, serialize_document
from .hypergraph import (
    DIRECTED,
    ORIENTED,
    UNDIRECTED,
    DirectedEdge,
    Hypergraph,
    UndirectedEdge,
    build,
    is_strongly_connected,
)
from .metric import (
    DistanceOracle,
    EdgeLength,
    NeighborhoodPartition,
    all_pairs_distances,
    edge_length,
    partition_neighborhood,
)
from .transport import TransportResult, wasserstein
from .walk import (
    ProbabilityMeasure,
    measure_directed_in,
    measure_directed_out,
    measure_oriented_pair,
    measure_set,
    measure_undirected,
)

__version__ = "0.1.0"
