"""Spectral distance-regularity certificates and a small-graph counterexample scan.

A connected graph with d+1 distinct adjacency eigenvalues and finite odd
girth at least 2d+1 must be distance-regular (a generalized odd graph).  This
package verifies that statement constructively on concrete graphs — exact
walk counts and their orthogonal-polynomial recurrence, spectrum, predistance
polynomials, certificates, with idempotents and local multiplicities as float
oracles — and scans every labeled connected graph on up to 7 vertices for
violations.
"""

from .graphs import (
    DistanceData,
    Graph,
    GraphError,
    distance_data,
    edge_pairs,
    encode_graph6,
    enumerate_connected,
    generate_family,
    graph_from_edges,
    graph_from_mask,
    graph_mask,
    mask_graph6,
    mask_orbit,
    odd_girth,
    parse_edge_list,
    parse_graph6,
    quick_reject,
)
from .predistance import (
    PredistanceError,
    PredistanceSystem,
    WalkRecurrence,
    check_parity,
    closed_walks,
    hoffman_polynomial,
    poly_eval,
    poly_eval_matrix,
    predistance_polynomials,
    recurrence_coefficients,
    spectral_inner_product,
    walk_recurrence,
)
from .spectral import (
    NumericalError,
    Spectrum,
    closed_walk_count,
    cluster_spectrum,
    idempotent_residuals,
    idempotents,
    is_walk_regular,
    jacobi_spectrum,
    local_multiplicities,
    spectrum,
    walk_regular_spread,
)
from .verify import (
    Certificate,
    Hypothesis,
    IntersectionArray,
    NotDistanceRegular,
    TheoremReport,
    Tolerances,
    check_distance_polynomial,
    check_eigenvalue_symmetry,
    check_hoffman,
    check_hypothesis,
    check_polynomial_identities,
    check_walk_regular,
    distance_matrices,
    excess_comparison,
    intersection_array,
    theorem_report,
    vandermonde_certificate,
    verify_theorem,
)

__version__ = "0.1.0"
