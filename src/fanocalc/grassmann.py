"""Coordinate model of G(2,5) in P^9 and the fourfold W cut out by two
hyperplanes, together with its special subvarieties.

Conventions, fixed once:

* P^4 has basis e_0..e_4; wedge coordinates are indexed by pairs (i,j) with
  i < j in lexicographic order, and the wedge of two vectors u, v has
  coordinates p_ij = u_i v_j - u_j v_i.
* The fourfold W is G intersected with the two hyperplanes
  h0 = x_03 - x_14 and h1 = x_04 - x_23.
* Membership tests on symbolic points reduce polynomials fully: "true"
  means identical vanishing, never sampled vanishing.

The canonical skew pencil is stored with the matrix entries
h_03 = t0, h_14 = -t0, h_04 = t1, h_23 = t1 (skew-extended).  Its projective
kernel line is (-t0 t1 : -t1^2 : t0^2 : 0 : 0), and the wedge of that
parametrization with its derivative satisfies x12^2 - 4 x01 x02 = 0.  Note
the asymmetry: the centers of the sigma-planes on W sweep the conic
(t0 t1 : t1^2 : t0^2 : 0 : 0) = {x0^2 = x1 x2}, which differs from the
stored pencil's kernel conic by the sign change (e0, e1) -> (-e0, -e1); the
two conics share their endpoints but not their generic points.  sigma_plane
uses the sigma-center conic (membership in W forces it); conic_of_centers
reports the kernel of whatever pencil it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegeneracyError, DomainError
from .matrices import PolyMatrix, is_nonzero_constant, kernel_over_fraction_field, linear_family, minor_gcd, rank_over_fraction_field
from .polynomials import MultiPoly, Scalar, is_zero, normalize_projective, projectively_equal, ring_elements, ring_of, to_ring

#: wedge basis order: e01, e02, e03, e04, e12, e13, e14, e23, e24, e34
WEDGE_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(5) for j in range(i + 1, 5)
)
WEDGE_INDEX = {pair: k for k, pair in enumerate(WEDGE_PAIRS)}

#: basis of the 7-space (x03 = x14, x04 = x23) inside P^9, as wedge vectors
P7_BASIS_SUPPORTS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 1),),
    ((0, 2),),
    ((1, 2),),
    ((0, 3), (1, 4)),
    ((0, 4), (2, 3)),
    ((1, 3),),
    ((2, 4),),
    ((3, 4),),
)

RHO_PLANE_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class WedgePoint:
    """A point of P^9 in wedge coordinates.

    A numeric point holds canonical ints and Fractions, a symbolic one
    MultiPolys of one ring; ``make``, ``from_pairs`` and ``basis_vector``
    bring their values into that form (``polynomials.ring_elements``), and
    the membership tests and the orbit layer read coordinates through the
    ring-element functions, so one code path serves both kinds.
    """

    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 10:
            raise DomainError("a wedge point has 10 coordinates")
        if all(is_zero(c) for c in self.coords):
            raise DomainError("all wedge coordinates are zero")

    @classmethod
    def make(cls, values: Sequence) -> "WedgePoint":
        return cls(tuple(ring_elements(values)))

    @classmethod
    def basis_vector(cls, i: int, j: int) -> "WedgePoint":
        coords = [0] * 10
        coords[WEDGE_INDEX[(i, j)]] = 1
        return cls(tuple(coords))

    @classmethod
    def from_pairs(cls, data: dict[tuple[int, int], Scalar | MultiPoly]) -> "WedgePoint":
        """Build from a sparse {(i, j): value} map; (j, i) keys flip sign."""
        coords: list = [0] * 10
        for (i, j), val in data.items():
            if i < j:
                coords[WEDGE_INDEX[(i, j)]] = coords[WEDGE_INDEX[(i, j)]] + val
            elif j < i:
                coords[WEDGE_INDEX[(j, i)]] = coords[WEDGE_INDEX[(j, i)]] - val
            else:
                raise DomainError("e_ii is zero")
        return cls.make(coords)

    def coord(self, i: int, j: int):
        """Coordinate with the sign convention e_ji = -e_ij resolved."""
        if i < j:
            return self.coords[WEDGE_INDEX[(i, j)]]
        if j < i:
            return -self.coords[WEDGE_INDEX[(j, i)]]
        raise DomainError("no diagonal wedge coordinate")

    def proj_eq(self, other: "WedgePoint") -> bool:
        return projectively_equal(self.coords, other.coords)

    def rho_plane_coords(self) -> tuple:
        return tuple(self.coords[WEDGE_INDEX[p]] for p in RHO_PLANE_PAIRS)

    def in_rho_plane_span(self) -> bool:
        return all(
            is_zero(self.coords[k])
            for pair, k in WEDGE_INDEX.items()
            if pair not in RHO_PLANE_PAIRS
        )


def plucker_embed(u: Sequence, v: Sequence) -> WedgePoint:
    """Wedge of two P^4 points: p_ij = u_i v_j - u_j v_i."""
    if len(u) != 5 or len(v) != 5:
        raise DomainError("points of P^4 have 5 coordinates")
    uv = ring_elements(tuple(u) + tuple(v))
    uu, vv = uv[:5], uv[5:]
    coords = [uu[i] * vv[j] - uu[j] * vv[i] for (i, j) in WEDGE_PAIRS]
    if all(is_zero(c) for c in coords):
        raise DegeneracyError("input vectors span no plane (proportional)")
    return WedgePoint.make(coords)


def pfaffian_relations(p: WedgePoint) -> tuple:
    """The five 4 x 4 principal Pfaffians of the skew matrix built from p."""
    out = []
    for omit in range(5):
        i, j, k, l = (x for x in range(5) if x != omit)
        out.append(
            p.coord(i, j) * p.coord(k, l)
            - p.coord(i, k) * p.coord(j, l)
            + p.coord(i, l) * p.coord(j, k)
        )
    return tuple(out)


def grassmann_membership(p: WedgePoint) -> bool:
    """True iff all five Pfaffian quadrics vanish identically at p."""
    return all(is_zero(q) for q in pfaffian_relations(p))


def p7_membership(p: WedgePoint) -> bool:
    """True iff x03 = x14 and x04 = x23 hold identically at p."""
    return is_zero(p.coord(0, 3) - p.coord(1, 4)) and is_zero(p.coord(0, 4) - p.coord(2, 3))


def w_membership(p: WedgePoint) -> bool:
    return grassmann_membership(p) and p7_membership(p)


# -- the skew pencil cutting out the 7-space -------------------------------


@dataclass(frozen=True)
class SkewFormPencil:
    """Pencil t0*H0 + t1*H1 of skew forms on C^5."""

    h0: PolyMatrix
    h1: PolyMatrix
    params: tuple[str, str] = ("t0", "t1")

    def __post_init__(self):
        for h in (self.h0, self.h1):
            if h.rows != 5 or h.cols != 5:
                raise DomainError("pencil members must be 5 x 5")
            if not h.is_skew():
                raise DomainError("pencil members must be skew-symmetric")

    def matrix(self) -> PolyMatrix:
        return linear_family(self.params, (self.h0, self.h1))


def canonical_pencil() -> SkewFormPencil:
    """The stored pencil for the 7-space x03 = x14, x04 = x23.

    Entries: h03 = t0, h14 = -t0, h04 = t1, h23 = t1, skew-extended.
    """

    def skew(entries: dict[tuple[int, int], int]) -> PolyMatrix:
        grid = [[Fraction(0)] * 5 for _ in range(5)]
        for (i, j), c in entries.items():
            grid[i][j] = Fraction(c)
            grid[j][i] = Fraction(-c)
        return PolyMatrix((), grid)

    return SkewFormPencil(
        skew({(0, 3): 1, (1, 4): -1}),
        skew({(0, 4): 1, (2, 3): 1}),
    )


def pencil_rank_certificate(pen: SkewFormPencil) -> tuple[int, bool]:
    """(generic rank over Q(t0, t1), certified rank >= 4 for every (t0:t1)).

    The certificate is the gcd of all 4 x 4 minors being a nonzero constant;
    sampling parameter values can never establish the universal claim.
    """
    m = pen.matrix()
    return rank_over_fraction_field(m), is_nonzero_constant(minor_gcd(m, 4))


def conic_of_centers(pen: SkewFormPencil) -> tuple[MultiPoly, ...]:
    """Normalized parametrized kernel of a pencil of everywhere-rank-4 skew forms."""
    generic_rank, everywhere = pencil_rank_certificate(pen)
    if generic_rank != 4 or not everywhere:
        raise DegeneracyError(
            f"pencil has generic rank {generic_rank}, everywhere-4 certificate {everywhere}"
        )
    basis = kernel_over_fraction_field(pen.matrix())
    assert len(basis) == 1
    return basis[0]


def tangent_wedge(parametrized: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    """Wedge of a P^4 point parametrized by (t0 : t1) with its derivative.

    The derivative is taken in the affine parameter t = t1/t0 and the wedge
    re-homogenized, then content-normalized.  Output is the 10 wedge
    coordinates of the tangent line's point in P^9.
    """
    vs = parametrized[0].vars
    # affine chart t0 = 1
    affine = [p.eval_some({"t0": 1}) for p in parametrized]
    deriv = [p.derivative("t1") for p in affine]
    coords = [
        affine[i] * deriv[j] - affine[j] * deriv[i] for (i, j) in WEDGE_PAIRS
    ]
    # re-homogenize to a common degree in (t0, t1)
    top = max((c.total_degree() for c in coords if not c.is_zero), default=0)
    t0 = MultiPoly.variable("t0", vs)
    rehom = []
    for c in coords:
        if c.is_zero:
            rehom.append(c)
            continue
        out = MultiPoly.zero(vs)
        for e, coeff in c.terms.items():
            d = sum(e)
            out = out + MultiPoly(vs, {e: coeff}) * t0 ** (top - d)
        rehom.append(out)
    return normalize_projective(rehom)


def dual_conic_residual(point: WedgePoint):
    """Value of x12^2 - 4 x01 x02 at a point (zero iff on that conic)."""
    x01, x02, x12 = point.rho_plane_coords()
    return x12 * x12 - 4 * (x01 * x02)


def invariant_conic_residual(point: WedgePoint):
    """Value of x12^2 + 4 x01 x02; the zero conic of this form in the rho
    plane is the one preserved by the wedge-square action of the
    automorphism group in the p_ij = u_i v_j - u_j v_i convention."""
    x01, x02, x12 = point.rho_plane_coords()
    return x12 * x12 + 4 * (x01 * x02)


# -- planes on W ------------------------------------------------------------


@dataclass(frozen=True)
class PlaneOnW:
    """A sigma plane of W: the center is a point of P^4 and the hyperplane is
    spanned by the center plane <e0, e1, e2> plus one more vector; the wedge
    image is {center ^ v : v in hyperplane}.
    """

    center: tuple[MultiPoly, ...]
    hyperplane: tuple[tuple[MultiPoly, ...], ...]

    def wedge_points(self, weights: Sequence) -> WedgePoint:
        """A point of the plane's wedge image with the given span weights."""
        total = [0] * 5
        for w, vec in zip(weights, self.hyperplane):
            total = [t + w * c for t, c in zip(total, vec)]
        return plucker_embed(self.center, total)


def sigma_center(t0, t1) -> tuple[MultiPoly, ...]:
    """Center of the sigma plane at (t0 : t1): (t0 t1 : t1^2 : t0^2 : 0 : 0).

    These are exactly the points x of <e0, e1, e2> for which the wedges
    x ^ P^3 land inside both hyperplanes of W.
    """
    return tuple(to_ring([t0 * t1, t1 * t1, t0 * t0, 0, 0]))


def sigma_plane(t0: Scalar | MultiPoly, t1: Scalar | MultiPoly) -> PlaneOnW:
    """The sigma plane with parameter (t0 : t1).

    The plane's center runs along the sigma-center conic and its 3-space is
    the member <e0, e1, e2, t1 e3 + t0 e4> of the pencil of hyperplanes
    through <e0, e1, e2>; the center always lies inside that 3-space.
    """
    vs = ring_of([t0, t1])
    t0p, t1p = to_ring([t0, t1], vs)
    if t0p.is_zero and t1p.is_zero:
        raise DomainError("(0 : 0) is not a point of the parameter line")
    center = sigma_center(t0p, t1p)
    zero = MultiPoly.zero(vs)
    one = MultiPoly.one(vs)
    e = lambda k: tuple(one if i == k else zero for i in range(5))
    extra = tuple(
        t1p if i == 3 else (t0p if i == 4 else zero) for i in range(5)
    )
    return PlaneOnW(center=center, hyperplane=(e(0), e(1), e(2), extra))
