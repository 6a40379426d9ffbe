"""The identity component of Aut(W) in block-matrix form, its wedge-square
action on P^9, and the orbit stratification of W.

An element is a 5 x 5 matrix

    A = [[lam * Symm2(G), U], [0, G]],   det(G) = 1, lam != 0,

where Symm2([[a, b], [c, d]]) has rows (ad+bc, ac, bd), (2ab, a^2, b^2),
(2cd, c^2, d^2), and the 3 x 2 block U satisfies the two linear constraints

    (1)  b*U00 - a*U01 - d*U10 + c*U11 = 0
    (2)  d*U00 - c*U01 - b*U20 + a*U21 = 0.

These constraints are exactly the conditions that the wedge square of A
keeps e34 inside the 7-space x03 = x14, x04 = x23; preserves_P7 re-derives
the full 16-equation check from scratch and is the ground truth the block
form is validated against (symbolically, on the two charts a != 0 and
b != 0 of det(G) = 1).

Because +-G give the same Symm2 block, (lam, U, G) and (-lam, -U, -G)
induce the same projective action; equality of group elements is therefore
tested on the induced action, not on the parameter triple.

A numeric element holds plain rationals (canonical ints and Fractions) and a
symbolic one holds MultiPolys of one ring; so does a WedgePoint.  The group
law, the decomposition, the inverse, the wedge square, the equality test and
the orbit classification run one code path on both kinds, through ``+ - *``
and the ring-element functions of ``polynomials`` (``is_zero``,
``div_exact``, ``plain``, ``ring_of``).  Their 5 x 5 and 10 x 10 matrices
are tuples of row tuples; a caller that needs ``==``, ``*`` or ``.apply``
wraps one as ``PolyMatrix(ring, rows)``.

Where only the projective class of an element matters, or where its
product is decomposed again (the wedge-square action, the group law,
equality), a numeric element enters through ``integer_matrix5``: its
5 x 5 matrix times a positive integer that clears every denominator, built
from the fields in integer arithmetic, so that work runs on ints.  A
product of two such matrices has det G = k^2 for an integer k > 0, which
``decompose_matrix`` divides back out exactly.  ``matrix5`` stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

from .errors import ClosureError, ConstraintError, DomainError, WitnessError
from .grassmann import (
    WEDGE_INDEX,
    WEDGE_PAIRS,
    P7_BASIS_SUPPORTS,
    WedgePoint,
    invariant_conic_residual,
    w_membership,
)
from .matrices import PolyMatrix
from .polynomials import (
    MultiPoly,
    div_exact,
    is_zero,
    normalize_projective,
    plain,
    projectively_equal,
    ring_elements,
    ring_of,
)

SL2_RING = ("a", "b", "c", "d")

Rows = tuple[tuple, ...]


def subst_linear(poly: MultiPoly, var: str, num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Clear var from poly via den * var = num: returns sum p_i num^i den^(D-i).

    The result vanishes identically iff poly vanishes on the chart den != 0
    of the hypersurface den * var - num = 0.
    """
    idx = poly.vars.index(var)
    if poly.is_zero:
        return poly
    degree = max(e[idx] for e in poly.terms)
    out = MultiPoly.zero(poly.vars)
    for e, c in poly.terms.items():
        i = e[idx]
        stripped = tuple(0 if k == idx else x for k, x in enumerate(e))
        term = MultiPoly(poly.vars, {stripped: c})
        out = out + term * num**i * den ** (degree - i)
    return out


def vanishes_mod_sl2(poly: MultiPoly) -> bool:
    """True iff poly vanishes identically on {ad - bc = 1} (both charts).

    Chart a != 0 solves d = (1 + bc)/a; chart b != 0 solves c = (ad - 1)/b.
    The two charts cover the determinant-one variety since a = b = 0 forces
    ad - bc = 0.
    """
    vs = poly.vars
    for name in SL2_RING:
        if name not in vs:
            raise ValueError(f"ring {vs} lacks SL2 variable {name!r}")
    a = MultiPoly.variable("a", vs)
    b = MultiPoly.variable("b", vs)
    c = MultiPoly.variable("c", vs)
    d = MultiPoly.variable("d", vs)
    chart1 = subst_linear(poly, "d", MultiPoly.one(vs) + b * c, a)
    chart2 = subst_linear(poly, "c", a * d - MultiPoly.one(vs), b)
    return chart1.is_zero and chart2.is_zero


def symm2(g: Sequence[Sequence]) -> list[list]:
    """The displayed 3 x 3 symmetric-square block of a 2 x 2 matrix."""
    (a, b), (c, d) = g
    return [
        [a * d + b * c, a * c, b * d],
        [2 * (a * b), a * a, b * b],
        [2 * (c * d), c * c, d * d],
    ]


def _times(f: int, values) -> list[int]:
    """f * x as ints, for plain rationals x whose denominators divide f."""
    return [x.numerator * (f // x.denominator) for x in values]


def _matmul(a: Rows, b: Rows) -> Rows:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


@dataclass(frozen=True)
class AutWElement:
    """Group element (lam, U, G): plain rationals in a numeric element,
    MultiPolys of one ring in a symbolic one.

    `symbolic_det`, when set, says that det G = 1 holds only modulo
    ad - bc - 1; validation then reduces on both SL2 charts.
    """

    lam: object
    u: tuple[tuple[object, object], ...]  # 3 rows x 2 cols
    g: tuple[tuple[object, object], ...]  # 2 rows x 2 cols
    symbolic_det: bool = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def unchecked(cls, lam, u, g, symbolic_det: bool = False) -> "AutWElement":
        if len(u) != 3 or any(len(r) != 2 for r in u):
            raise DomainError("U must be 3 x 2")
        if len(g) != 2 or any(len(r) != 2 for r in g):
            raise DomainError("G must be 2 x 2")
        lam, *x = ring_elements([lam, *u[0], *u[1], *u[2], *g[0], *g[1]])
        u = ((x[0], x[1]), (x[2], x[3]), (x[4], x[5]))
        g = ((x[6], x[7]), (x[8], x[9]))
        return cls(lam, u, g, symbolic_det)

    def _vanishes(self, poly) -> bool:
        if self.symbolic_det:
            return vanishes_mod_sl2(poly)
        return is_zero(poly)

    def constraint_values(self) -> tuple:
        (a, b), (c, d) = self.g
        u = self.u
        c1 = b * u[0][0] - a * u[0][1] - d * u[1][0] + c * u[1][1]
        c2 = d * u[0][0] - c * u[0][1] - b * u[2][0] + a * u[2][1]
        return c1, c2

    def validate(self) -> None:
        (a, b), (c, d) = self.g
        det = a * d - b * c
        if not self._vanishes(det - 1):
            raise ConstraintError(f"det G = {det} != 1")
        if is_zero(self.lam):
            raise ConstraintError("lam = 0 is not a group element")
        c1, c2 = self.constraint_values()
        if not self._vanishes(c1):
            raise ConstraintError(
                f"constraint b*U00 - a*U01 - d*U10 + c*U11 = {c1} != 0"
            )
        if not self._vanishes(c2):
            raise ConstraintError(
                f"constraint d*U00 - c*U01 - b*U20 + a*U21 = {c2} != 0"
            )

    # -- matrices -----------------------------------------------------------

    def matrix5(self) -> Rows:
        s = symm2(self.g)
        (g00, g01), (g10, g11) = self.g
        return tuple(
            tuple(self.lam * x for x in s[i]) + self.u[i] for i in range(3)
        ) + ((0, 0, 0, g00, g01), (0, 0, 0, g10, g11))

    def integer_matrix5(self) -> Rows:
        """matrix5() times a positive integer f that makes every entry an
        int, for a numeric element; matrix5() for a symbolic one.

        With G = Gi / dg for an integer matrix Gi, lam Symm2(G) =
        (lam / dg^2) Symm2(Gi), so f = lcm(den(lam) dg^2, den(U)) makes each
        block an integer multiple of Symm2(Gi), of Gi or of the numerators
        of U.
        """
        fields = (self.lam, *self.u[0], *self.u[1], *self.u[2], *self.g[0], *self.g[1])
        if ring_of(fields):
            return self.matrix5()
        lam, *u, a, b, c, d = map(plain, fields)
        dg = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        a, b, c, d = _times(dg, (a, b, c, d))
        top = lam.denominator * dg * dg
        f = lcm(top, *(x.denominator for x in u))
        s = symm2(((a, b), (c, d)))
        lam_f = f // top * lam.numerator
        u = _times(f, u)
        k = f // dg
        return tuple(
            (lam_f * s[i][0], lam_f * s[i][1], lam_f * s[i][2], u[2 * i], u[2 * i + 1]) for i in range(3)
        ) + ((0, 0, 0, k * a, k * b), (0, 0, 0, k * c, k * d))

    def wedge_matrix(self) -> Rows:
        return wedge_square_matrix(self.matrix5())

    def to_json(self) -> dict:
        from .serialize import fraction_to_json

        def num(x) -> str:
            return fraction_to_json(plain(x))

        (a, b), (c, d) = self.g
        return {
            "lambda": num(self.lam),
            "G": [num(a), num(b), num(c), num(d)],
            "U": [num(x) for row in self.u for x in row],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AutWElement":
        from .serialize import fraction_from_json, fractions_from_json

        a, b, c, d = fractions_from_json(data["G"])
        u = fractions_from_json(data["U"])
        return assemble(
            fraction_from_json(data["lambda"]),
            [[u[0], u[1]], [u[2], u[3]], [u[4], u[5]]],
            [[a, b], [c, d]],
        )


def assemble(lam, u, g, symbolic_det: bool = False) -> AutWElement:
    """Build and validate a group element; errors name the violated equation."""
    el = AutWElement.unchecked(lam, u, g, symbolic_det)
    el.validate()
    return el


def ga_element(u, v, x, y) -> AutWElement:
    """Unipotent element [u | v | x | y]."""
    return assemble(1, [[-u, -v], [v, x], [y, u]], [[1, 0], [0, 1]])


def pgl_element(g, symbolic_det: bool = False) -> AutWElement:
    return assemble(1, [[0, 0], [0, 0], [0, 0]], g, symbolic_det)


def symbolic_family() -> AutWElement:
    """The fully symbolic element (lam, T([u,v,x,y]) * G, G(a,b,c,d)).

    The unipotent parameters enter as T * G so the two U-constraints hold
    identically modulo ad - bc - 1; all identities about this element are
    checked on both SL2 charts.
    """
    ring = ("a", "b", "c", "d", "lam", "u", "v", "x", "y")
    a, b, c, d, lam, u, v, x, y = (MultiPoly.variable(n, ring) for n in ring)
    t = [[-u, -v], [v, x], [y, u]]
    g = [[a, b], [c, d]]
    tg = [
        [t[i][0] * g[0][j] + t[i][1] * g[1][j] for j in range(2)]
        for i in range(3)
    ]
    return assemble(lam, tg, g, symbolic_det=True)


# -- wedge-square action -----------------------------------------------------


def wedge_square_matrix(a: Rows) -> Rows:
    """10 x 10 matrix of the induced map on wedge coordinates:
    e_ij -> sum over k < l of (a_ki a_lj - a_li a_kj) e_kl."""
    if len(a) != 5 or any(len(row) != 5 for row in a):
        raise DomainError("wedge square of a non-5x5 matrix")
    return tuple(
        tuple(a[k][i] * a[l][j] - a[l][i] * a[k][j] for (i, j) in WEDGE_PAIRS)
        for (k, l) in WEDGE_PAIRS
    )


def _image(wedge: Rows, p: WedgePoint) -> WedgePoint:
    return WedgePoint.make([sum(x * c for x, c in zip(row, p.coords)) for row in wedge])


def wedge_square_action_raw(g: AutWElement, p: WedgePoint) -> WedgePoint:
    """Image of p under the wedge square of g, coefficients as computed."""
    return _image(g.wedge_matrix(), p)


def wedge_square_action(g: AutWElement, p: WedgePoint) -> WedgePoint:
    """Image of p under the wedge square of g, normalized (so the integer
    representative of g gives the same point)."""
    image = _image(wedge_square_matrix(g.integer_matrix5()), p)
    return WedgePoint(normalize_projective(image.coords))


def p7_defect(g: AutWElement) -> tuple[MultiPoly, ...]:
    """The 16 polynomials whose vanishing says the wedge square of g maps the
    7-space to itself (two linear conditions on the image of each of the 8
    basis vectors)."""
    rows = g.wedge_matrix()
    w = PolyMatrix(ring_of(x for row in rows for x in row), rows)
    out = []
    for support in P7_BASIS_SUPPORTS:
        vec = [0] * 10
        for pair in support:
            vec[WEDGE_INDEX[pair]] = 1
        img = w.apply(vec)
        out.append(img[WEDGE_INDEX[(0, 3)]] - img[WEDGE_INDEX[(1, 4)]])
        out.append(img[WEDGE_INDEX[(0, 4)]] - img[WEDGE_INDEX[(2, 3)]])
    return tuple(out)


def preserves_P7(g: AutWElement) -> bool:
    """Ground-truth membership check: all 16 defect polynomials vanish
    (identically, reduced on both SL2 charts when g is symbolic)."""
    return all(g._vanishes(p) for p in p7_defect(g))


# -- group law ----------------------------------------------------------------


def group_closure_check(g1: AutWElement, g2: AutWElement) -> AutWElement:
    """Multiply the 5 x 5 matrices and re-decompose into (lam, U, G) form.

    Raises ClosureError if the product leaves the family; that firing is a
    bug in the caller's inputs (the family is a group), never expected.
    The factors enter as integer representatives, so the product has
    det G = k^2 for a constant k > 0, which decompose_matrix divides out;
    under symbolic_det, where det G = 1 only modulo ad - bc - 1, they enter
    exactly.
    """
    symbolic = g1.symbolic_det or g2.symbolic_det
    a, b = (g.matrix5() if symbolic else g.integer_matrix5() for g in (g1, g2))
    return decompose_matrix(_matmul(a, b), symbolic_det=symbolic)


def decompose_matrix(m: Rows, symbolic_det: bool = False) -> AutWElement:
    if len(m) != 5 or any(len(row) != 5 for row in m):
        raise ClosureError("not a 5 x 5 matrix")
    if not all(is_zero(m[i][j]) for i in (3, 4) for j in (0, 1, 2)):
        raise ClosureError("lower-left block is not zero")
    vanishes = vanishes_mod_sl2 if symbolic_det else is_zero
    det = m[3][3] * m[4][4] - m[3][4] * m[4][3]
    if not vanishes(det - 1):
        # divide the whole matrix by the root k of det G = k^2
        try:
            val = plain(det)
        except ValueError:
            raise ClosureError(f"det G = {det} is not constant") from None
        root = _rational_sqrt(val)
        if not root:
            raise ClosureError(f"det G = {val} has no rational square root")
        m = [[div_exact(x, root) for x in row] for row in m]
    g = [[m[3][3], m[3][4]], [m[4][3], m[4][4]]]
    u = tuple((m[i][3], m[i][4]) for i in range(3))
    s = symm2(g)
    lam = None
    for i in range(3):
        for j in range(3):
            if lam is None and not is_zero(s[i][j]):
                lam = div_exact(m[i][j], s[i][j])
    if lam is None:
        raise ClosureError("cannot determine lam from the Symm2 block")
    for i in range(3):
        for j in range(3):
            if not vanishes(m[i][j] - lam * s[i][j]):
                raise ClosureError("upper-left block is not lam * Symm2(G)")
    try:
        return assemble(lam, u, g, symbolic_det)
    except ConstraintError as exc:
        raise ClosureError(f"product violates the family constraints: {exc}") from exc


def inverse(g: AutWElement) -> AutWElement:
    """Block inverse: (1/lam, -(1/lam) Symm2(G^-1) U G^-1, G^-1)."""
    (a, b), (c, d) = g.g
    if not g.symbolic_det and not is_zero(a * d - b * c - 1):
        raise ConstraintError("inverse requires det G = 1")
    ginv = ((d, -b), (-c, a))
    lam_inv = div_exact(1, plain(g.lam))
    # X^{-1} U G^{-1} with X = lam Symm2(G), X^{-1} = lam^{-1} Symm2(G^{-1})
    sug = _matmul(_matmul(symm2(ginv), g.u), ginv)
    u_inv = [[-(lam_inv * x) for x in row] for row in sug]
    return assemble(lam_inv, u_inv, ginv, g.symbolic_det)


def elements_equal(g1: AutWElement, g2: AutWElement) -> bool:
    """Equality as projective transformations of P^9 (so -G ~ G).

    The 5 x 5 matrices (integer representatives of numeric elements) are
    compared up to a scalar: for invertible A and B, the wedge squares are
    proportional iff A and B are (if every e_i ^ e_j is an eigenvector of
    the wedge square of A B^-1, that matrix is scalar).
    """
    flat1 = [x for row in g1.integer_matrix5() for x in row]
    flat2 = [x for row in g2.integer_matrix5() for x in row]
    return projectively_equal(flat1, flat2)


# -- orbit stratification ------------------------------------------------------


class OrbitLabel(Enum):
    OPEN_ORBIT = "open_orbit"
    YO_MINUS_RHO = "Yo_minus_rho"
    RHO_MINUS_QO = "rho_minus_qo"
    QO = "qo"


def orbit_formula(u, v, x, y) -> WedgePoint:
    """The image of e34 under [u | v | x | y], written out explicitly:

    (v^2 - ux) e01 + (vy - u^2) e02 + (uv - xy) e12 + v (e03 + e14)
    - u (e04 + e23) - x e13 + y e24 + e34.
    """
    return WedgePoint.from_pairs(
        {
            (0, 1): v * v - u * x,
            (0, 2): v * y - u * u,
            (1, 2): u * v - x * y,
            (0, 3): v,
            (1, 4): v,
            (0, 4): -u,
            (2, 3): -u,
            (1, 3): -x,
            (2, 4): y,
            (3, 4): 1,
        }
    )


def orbit_classify(p: WedgePoint) -> OrbitLabel:
    """Stratum of a point of W.

    The rho-plane strata are split by the conic x12^2 + 4 x01 x02 = 0, the
    unique conic preserved by the implemented wedge-square action; it passes
    through e01 and e02 and misses e12, like every sign convention of the
    stratification, but unlike x12^2 - 4 x01 x02 it makes the labels
    invariant under the group.
    """
    if not w_membership(p):
        raise DomainError("point is not on W")
    if not is_zero(p.coord(3, 4)):
        return OrbitLabel.OPEN_ORBIT
    if not p.in_rho_plane_span():
        return OrbitLabel.YO_MINUS_RHO
    if not is_zero(invariant_conic_residual(p)):
        return OrbitLabel.RHO_MINUS_QO
    return OrbitLabel.QO


# -- transitivity witnesses ---------------------------------------------------

_INF = "inf"


def _rational_sqrt(value):
    """The non-negative rational square root of a plain rational, as a
    canonical int or Fraction; None when there is none."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return div_exact(rn, rd)
    return None


def _open_orbit_params(p: WedgePoint) -> tuple:
    p34 = plain(p.coord(3, 4))
    u, v, x, y = (
        div_exact(plain(c), p34) for c in (-p.coord(0, 4), p.coord(0, 3), -p.coord(1, 3), p.coord(2, 4))
    )
    if not orbit_formula(u, v, x, y).proj_eq(p):
        raise DomainError("point is not on the open orbit of W")
    return u, v, x, y


def _invariant_conic_parameter(p: WedgePoint):
    """Parameter t (or the infinity sentinel) of a point on the invariant
    conic (-t^2 : 1 : 2t) in rho-plane coordinates."""
    x01, x02, x12 = map(plain, p.rho_plane_coords())
    if x02 == 0:
        if x12 != 0:
            raise DomainError("point is not on the invariant conic")
        return _INF
    t = div_exact(x12, 2 * x02)
    if x01 != -(t * t) * x02:
        raise DomainError("point is not on the invariant conic")
    return t


def _moebius_matrix(t_from, t_to) -> list[list[Fraction]]:
    """An SL2(Q) matrix whose action t -> (a t + b)/(c t + d) sends t_from
    to t_to."""
    one, zero = Fraction(1), Fraction(0)
    if t_from == _INF and t_to == _INF:
        return [[one, zero], [zero, one]]
    if t_from == _INF:
        return [[t_to, -one], [one, zero]]
    if t_to == _INF:
        return [[zero, -one], [one, -t_from]]
    return [[one, t_to - t_from], [zero, one]]


def _solve_e12_transport(target: tuple[Fraction, Fraction, Fraction]) -> AutWElement:
    """An element of the Symm2-action with wedge image of e12 proportional to
    target = (x01 : x02 : x12); requires the discriminant x12^2 + 4 x01 x02
    to be a rational square (the action preserves this form exactly)."""
    alpha, beta, gamma = target
    delta = gamma * gamma + 4 * alpha * beta
    root = _rational_sqrt(delta)
    if root is None or root == 0:
        raise WitnessError(
            f"no rational transport from e12: discriminant {delta} is not a nonzero square"
        )
    for mu in (div_exact(1, root), div_exact(-1, root)):
        p_ad = div_exact(mu * gamma + 1, 2)
        p_bc = div_exact(mu * gamma - 1, 2)
        p_ab = -mu * alpha
        p_cd = mu * beta
        sol = _solve_products(p_ad, p_bc, p_ab, p_cd)
        if sol is not None:
            return pgl_element([[sol[0], sol[1]], [sol[2], sol[3]]])
    raise WitnessError("inconsistent product system for e12 transport")


def _solve_products(p_ad, p_bc, p_ab, p_cd):
    """Solve a*d = p_ad, b*c = p_bc, a*b = p_ab, c*d = p_cd with ad - bc = 1."""
    if p_ad - p_bc != 1:
        return None
    if p_ab != 0 or p_ad != 0:
        a = Fraction(1)
        b, d = p_ab, p_ad
        if b != 0:
            c = div_exact(p_bc, b)
        elif d != 0:
            c = div_exact(p_cd, d)
        else:
            return None
    else:
        a = Fraction(0)
        b = Fraction(1)
        c = p_bc
        if c == 0:
            return None
        d = div_exact(p_cd, c)
    if a * d == p_ad and b * c == p_bc and a * b == p_ab and c * d == p_cd:
        return (a, b, c, d)
    return None


def orbit_transitivity_witness(p: WedgePoint, q: WedgePoint) -> Optional[AutWElement]:
    """An explicit group element with g . p = q (projectively), for points of
    the same stratum.  Returns None on the stratum Yo minus the rho plane,
    where no closed-form solver is provided; raises WitnessError when no
    rational witness exists on the rho-plane strata."""
    label_p = orbit_classify(p)
    label_q = orbit_classify(q)
    if label_p != label_q:
        raise DomainError(f"labels differ: {label_p.value} vs {label_q.value}")
    if label_p is OrbitLabel.OPEN_ORBIT:
        up, vp, xp, yp = _open_orbit_params(p)
        uq, vq, xq, yq = _open_orbit_params(q)
        return ga_element(uq - up, vq - vp, xq - xp, yq - yp)
    if label_p is OrbitLabel.QO:
        tp = _invariant_conic_parameter(p)
        tq = _invariant_conic_parameter(q)
        return pgl_element(_moebius_matrix(tp, tq))
    if label_p is OrbitLabel.RHO_MINUS_QO:
        norm_p = normalize_projective(p.rho_plane_coords())
        norm_q = normalize_projective(q.rho_plane_coords())
        gp = _solve_e12_transport(tuple(map(plain, norm_p)))
        gq = _solve_e12_transport(tuple(map(plain, norm_q)))
        return group_closure_check(gq, inverse(gp))
    return None


# -- sampling -----------------------------------------------------------------


def random_sl2(rng, size: int = 3) -> list[list[int]]:
    """A random determinant-one integer matrix (product of elementary ones)."""
    m = [[1, 0], [0, 1]]
    for _ in range(size):
        r = rng.randint(-3, 3)
        if rng.random() < 0.5:
            e = [[1, r], [0, 1]]
        else:
            e = [[1, 0], [r, 1]]
        m = [
            [
                m[0][0] * e[0][0] + m[0][1] * e[1][0],
                m[0][0] * e[0][1] + m[0][1] * e[1][1],
            ],
            [
                m[1][0] * e[0][0] + m[1][1] * e[1][0],
                m[1][0] * e[0][1] + m[1][1] * e[1][1],
            ],
        ]
    return m


def random_element(rng) -> AutWElement:
    """A random rational group element: unipotent times (lam, 0, G).

    The product [u|v|x|y] . (lam, 0, G) assembles directly as
    (lam, T * G, G) with T the unipotent block, so no decomposition runs.
    """
    g = random_sl2(rng)
    lam = Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3]))
    u, v, x, y = (rng.randint(-4, 4) for _ in range(4))
    t = [[-u, -v], [v, x], [y, u]]
    tg = [
        [t[i][0] * g[0][j] + t[i][1] * g[1][j] for j in range(2)]
        for i in range(3)
    ]
    return assemble(lam, tg, g)
