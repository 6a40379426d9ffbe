"""fanocalc: exact-arithmetic verification toolkit.

Coordinate models of the Grassmannian G(2,5), the degree-5 fourfold cut out
by two hyperplanes, its automorphism group and orbit stratification, the
Schubert ring of G(2,5), blow-up/flop/contraction bookkeeping on small Picard
lattices, and the quadric-net geometry of the nodal projection.  Everything
is computed over Q with no floating point anywhere.
"""

from .polynomials import (
    MultiPoly,
    normalize_projective,
    poly_gcd,
    projectively_equal,
    variables,
)
from .matrices import (
    PolyMatrix,
    kernel_over_fraction_field,
    minor_gcd,
    poly_det,
    rank_over_fraction_field,
)
from .forms import binary_form_roots_squarefree
from .grassmann import (
    SkewFormPencil,
    WedgePoint,
    canonical_pencil,
    conic_of_centers,
    grassmann_membership,
    pencil_rank_certificate,
    plucker_embed,
    sigma_plane,
    w_membership,
)
from .autw import (
    AutWElement,
    OrbitLabel,
    assemble,
    ga_element,
    group_closure_check,
    orbit_classify,
    orbit_transitivity_witness,
    preserves_P7,
    wedge_square_action,
)
from .schubert import SchubertClass, cycle_degree_report, degree_pairing, multiply, pieri_multiply
from .birational import (
    CurveData,
    FloppedCurve,
    PicardState,
    apply_flop,
    blow_up_curve,
    blow_up_node,
    change_basis,
    contract_ruled_to_curve,
    initial_state_x10,
    m_cubed_by_adjunction,
)
from .quadrics import (
    QuadricForm,
    QuadricNet,
    build_net,
    determinantal_codim,
    determinantal_septic,
    pfaffian_pencil_canonical,
    septic_split,
    vertex_curve,
)

__all__ = [
    "AutWElement",
    "CurveData",
    "FloppedCurve",
    "MultiPoly",
    "OrbitLabel",
    "PicardState",
    "PolyMatrix",
    "QuadricForm",
    "QuadricNet",
    "SchubertClass",
    "SkewFormPencil",
    "WedgePoint",
    "apply_flop",
    "assemble",
    "binary_form_roots_squarefree",
    "blow_up_curve",
    "blow_up_node",
    "build_net",
    "canonical_pencil",
    "change_basis",
    "conic_of_centers",
    "contract_ruled_to_curve",
    "cycle_degree_report",
    "degree_pairing",
    "determinantal_codim",
    "determinantal_septic",
    "ga_element",
    "grassmann_membership",
    "group_closure_check",
    "initial_state_x10",
    "kernel_over_fraction_field",
    "m_cubed_by_adjunction",
    "minor_gcd",
    "multiply",
    "normalize_projective",
    "orbit_classify",
    "orbit_transitivity_witness",
    "pencil_rank_certificate",
    "pfaffian_pencil_canonical",
    "pieri_multiply",
    "plucker_embed",
    "poly_det",
    "poly_gcd",
    "preserves_P7",
    "projectively_equal",
    "rank_over_fraction_field",
    "septic_split",
    "sigma_plane",
    "variables",
    "vertex_curve",
    "w_membership",
    "wedge_square_action",
]
