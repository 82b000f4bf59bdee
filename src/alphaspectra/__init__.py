"""Spectral radii of strongly connected digraphs under the convex matrix
combination alpha*D + (1-alpha)*A, with family generators, certified
enclosures, characteristic-equation roots, and verification campaigns."""

from ._backend import BACKEND, HAVE_NUMBA
from .campaigns import (
    DECISION_MARGIN,
    VerificationReport,
    decide_order,
    enumerate_sc_digraphs,
    verify_bipartite_minimum,
    verify_family_extremes,
    verify_global_minima,
    verify_transform_lemmas,
)
from .chareq import CharEquation, char_equation_for, eval_char, kpq_radius, largest_root
from .digraph import (
    CanonicalKey,
    Digraph,
    bipartition,
    canonical_key,
    contains_bidirected_kpq,
    from_dgr1,
    is_strongly_connected,
    make_digraph,
    out_degrees,
    read_dgr1,
    retarget_in_arcs,
    subdivide_arc,
    to_dgr1,
    write_dgr1,
)
from .families import (
    FamilySpec,
    format_spec,
    generate,
    list_bicyclic,
    list_compositions,
    parse_spec,
)
from .spectral import (
    Interval,
    SpectralResult,
    build_alpha_matrix,
    cw_enclosure,
    det_scan_largest_real_root,
    row_sum_bounds,
    spectral_radii,
    spectral_radius,
)

__version__ = "0.1.0"
