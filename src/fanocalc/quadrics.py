"""Quadric pencils and nets in the 6-space of the nodal projection.

Coordinates on P^6 are, in order,

    x01, x02, x12, x03, x04, x13, x24

(the two eliminated wedge coordinates satisfy x14 = x03 and x23 = x04).
The distinguished pencil is spanned by the two quadrics

    P_o   = x01*x24 - x02*x03 + x04*x12
    P_inf = x01*x04 - x02*x13 + x03*x12,

each of rank 6; their common 3-space is <e03, e04, e13, e24> and the
parametrized kernel of P_o + t P_inf is the twisted cubic

    e13 - t e03 + t^2 e04 - t^3 e24.

(The kernel of P_o itself is e13: the quadric omits the variable x13.)

A net adds a third, independent quadric Q; its 7 x 7 determinant is a
degree-7 plane curve in the net parameters (s0 : s1 : s2) which the pencil
line s2 = 0 divides, leaving a sextic that generically meets the line in
six distinct points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Sequence

from .errors import DegeneracyError, DomainError, SplitError
from .forms import binary_form_roots_squarefree
from .matrices import (
    PolyMatrix,
    is_nonzero_constant,
    kernel_over_fraction_field,
    linear_family,
    minor_gcd,
    poly_det,
    rank_over_fraction_field,
)
from .polynomials import MultiPoly
from .serialize import poly_to_json

P6_COORDS: tuple[str, ...] = ("x01", "x02", "x12", "x03", "x04", "x13", "x24")
P6_INDEX = {name: i for i, name in enumerate(P6_COORDS)}
NET_PARAMS: tuple[str, ...] = ("s0", "s1", "s2")


@dataclass(frozen=True)
class QuadricForm:
    """A quadric on P^6 stored as its symmetric Gram matrix over Q.

    The quadratic form is x^T M x; the coefficient of x_i x_j (i != j) is
    2 M[i][j], so off-diagonal Gram entries of displayed integer quadrics
    are half-integers.  Rank, kernel, and determinant loci are insensitive
    to that convention.
    """

    gram: PolyMatrix

    def __post_init__(self):
        if self.gram.rows != 7 or self.gram.cols != 7:
            raise DomainError("quadrics here live on P^6: need 7 x 7")
        if not self.gram.is_symmetric():
            raise DomainError("Gram matrix must be symmetric")

    @classmethod
    def from_coefficients(cls, coeffs: dict[tuple[str, str], Fraction | int]) -> "QuadricForm":
        grid = [[Fraction(0)] * 7 for _ in range(7)]
        for (ni, nj), c in coeffs.items():
            i, j = P6_INDEX[ni], P6_INDEX[nj]
            c = Fraction(c)
            if i == j:
                grid[i][i] += c
            else:
                grid[i][j] += c / 2
                grid[j][i] += c / 2
        return cls(PolyMatrix((), grid))

    @classmethod
    def from_integer_matrix(cls, rows: Sequence[Sequence[int]]) -> "QuadricForm":
        return cls(PolyMatrix((), [[Fraction(x) for x in row] for row in rows]))

    def rank(self) -> int:
        return rank_over_fraction_field(self.gram)

    def vertex(self) -> tuple[MultiPoly, ...]:
        """Singular point of a rank-6 quadric (its one-dimensional kernel)."""
        basis = kernel_over_fraction_field(self.gram)
        if len(basis) != 1:
            raise DegeneracyError(f"kernel dimension {len(basis)} != 1")
        return basis[0]

    def restrict_to_span(self, span: Sequence[Sequence]) -> MultiPoly:
        """The form pulled back to the parametrized span sum w_i * span[i];
        identically zero iff the quadric contains the subspace."""
        names = tuple(f"w{i}" for i in range(len(span)))
        ws = [MultiPoly.variable(n, names) for n in names]
        coords = []
        for pos in range(7):
            acc = MultiPoly.zero(names)
            for w, vec in zip(ws, span):
                acc = acc + w * Fraction(vec[pos])
            coords.append(acc)
        total = MultiPoly.zero(names)
        for i in range(7):
            for j in range(7):
                g = self.gram.entries[i][j].constant_value()
                if g:
                    total = total + coords[i] * coords[j] * g
        return total

    def coefficient_vector(self) -> tuple[Fraction, ...]:
        """Upper-triangle reading of the Gram matrix (28 entries)."""
        out = []
        for i in range(7):
            for j in range(i, 7):
                out.append(self.gram.entries[i][j].constant_value())
        return tuple(out)


@dataclass(frozen=True)
class QuadricPencil:
    """Pencil t0*A + t1*B of quadrics."""

    a: QuadricForm
    b: QuadricForm
    params: tuple[str, str] = ("t0", "t1")

    def matrix(self) -> PolyMatrix:
        return linear_family(self.params, (self.a.gram, self.b.gram))

    def rank_certificate(self) -> tuple[int, bool]:
        """(generic rank, certified rank >= 6 for every parameter value)."""
        m = self.matrix()
        return rank_over_fraction_field(m), is_nonzero_constant(minor_gcd(m, 6))


@dataclass(frozen=True)
class QuadricNet:
    """Net s0*A + s1*B + s2*C of quadrics; generators must be independent."""

    generators: tuple[QuadricForm, QuadricForm, QuadricForm]
    params: tuple[str, str, str] = NET_PARAMS

    def __post_init__(self):
        if len(self.generators) != 3:
            raise DomainError(f"a net has 3 generators, got {len(self.generators)}")
        vecs = [g.coefficient_vector() for g in self.generators]
        m = PolyMatrix((), [[Fraction(x) for x in v] for v in vecs])
        if rank_over_fraction_field(m) != 3:
            raise DegeneracyError("net generators are linearly dependent")

    def matrix(self) -> PolyMatrix:
        return linear_family(self.params, [g.gram for g in self.generators])


@dataclass(frozen=True)
class PlaneCurve:
    """A plane curve in the net parameters, stored as its defining form."""

    form: MultiPoly
    degree: int

    def __post_init__(self):
        if self.form.is_zero:
            raise DomainError("zero form defines no curve")
        if not self.form.is_homogeneous():
            raise DomainError("curve form must be homogeneous")
        if self.form.total_degree() != self.degree:
            raise DomainError("declared degree does not match the form")


# -- canonical data -----------------------------------------------------------


@cache
def pfaffian_pencil_canonical() -> QuadricPencil:
    """The pencil spanned by P_o and P_inf in the fixed P^6 coordinates,
    built once: it is immutable."""
    p_o = QuadricForm.from_coefficients(
        {("x01", "x24"): 1, ("x02", "x03"): -1, ("x04", "x12"): 1}
    )
    p_inf = QuadricForm.from_coefficients(
        {("x01", "x04"): 1, ("x02", "x13"): -1, ("x03", "x12"): 1}
    )
    return QuadricPencil(p_o, p_inf)


def common_subspace_p3o() -> tuple[tuple[int, ...], ...]:
    """Spanning vectors of the 3-space <e03, e04, e13, e24> in P^6 coords."""
    vecs = []
    for name in ("x03", "x04", "x13", "x24"):
        v = [0] * 7
        v[P6_INDEX[name]] = 1
        vecs.append(tuple(v))
    return tuple(vecs)


def vertex_curve(pencil: QuadricPencil) -> tuple[tuple[MultiPoly, ...], int]:
    """Parametrized kernel of an everywhere-rank-6 pencil and its degree."""
    generic_rank, everywhere = pencil.rank_certificate()
    if generic_rank != 6 or not everywhere:
        raise DegeneracyError(
            f"pencil has generic rank {generic_rank}, rank-6 certificate {everywhere}"
        )
    basis = kernel_over_fraction_field(pencil.matrix())
    assert len(basis) == 1
    vec = basis[0]
    degree = max(p.total_degree() for p in vec if not p.is_zero)
    return vec, degree


def build_net(q_extra: QuadricForm) -> QuadricNet:
    """Net spanned by the canonical pencil and one more quadric."""
    pen = pfaffian_pencil_canonical()
    return QuadricNet((pen.a, pen.b, q_extra))


def determinantal_septic(net: QuadricNet) -> PlaneCurve:
    """det of the net matrix: a degree-7 form in (s0, s1, s2)."""
    det = poly_det(net.matrix())
    if det.is_zero:
        raise DegeneracyError("identically degenerate net (vanishing determinant)")
    det = det.monic_normal()
    return PlaneCurve(det, det.total_degree())


def septic_split(curve: PlaneCurve, line: MultiPoly) -> tuple[PlaneCurve, tuple[int, bool]]:
    """Divide out a line that the curve contains exactly once and analyze the
    residual restricted to that line.

    Returns the residual curve and (number of intersection points counted
    with multiplicity, whether they are distinct), the latter via the
    squarefree test on the restricted binary form.
    """
    if line.total_degree() != 1 or not line.is_homogeneous():
        raise DomainError("the divisor must be a linear form")
    line = line.lift(curve.form.vars) if line.vars != curve.form.vars else line
    quotient = curve.form.div_exact(line)
    if quotient is None:
        raise SplitError("the line does not divide the curve")
    if quotient.div_exact(line) is not None:
        raise SplitError("the line divides the curve more than once")
    quotient = quotient.monic_normal()
    residual = PlaneCurve(quotient, quotient.total_degree())
    # parametrize the line by two points of its kernel and restrict
    coeffs = [
        line.coefficient(tuple(1 if i == k else 0 for i in range(3)))
        for k in range(3)
    ]
    kernel = kernel_over_fraction_field(PolyMatrix((), [coeffs]))
    assert len(kernel) == 2
    u, v = (
        [p.constant_value() for p in kernel[0]],
        [p.constant_value() for p in kernel[1]],
    )
    ab = ("u0", "u1")
    a = MultiPoly.variable("u0", ab)
    b = MultiPoly.variable("u1", ab)
    images = {
        name: a * u[i] + b * v[i] for i, name in enumerate(curve.form.vars)
    }
    restricted = quotient.compose(images)
    if restricted.is_zero:
        raise SplitError("residual curve contains the line entirely")
    degree, distinct = binary_form_roots_squarefree(restricted)
    return residual, (degree, distinct)


def determinantal_codim(k: int) -> int:
    """Codimension of the rank <= k locus inside all quadrics on P^6:
    (7 - k)(7 - k + 1) / 2."""
    if not 1 <= k <= 6:
        raise DomainError(f"rank bound k must be in 1..6, got {k}")
    return (7 - k) * (7 - k + 1) // 2


# -- sampling -----------------------------------------------------------------


def random_quadric(rng: random.Random, bound: int = 9) -> QuadricForm:
    """Random quadric with single-digit integer coefficients."""
    coeffs: dict[tuple[str, str], int] = {}
    for i in range(7):
        for j in range(i, 7):
            c = rng.randint(-bound, bound)
            if c:
                coeffs[(P6_COORDS[i], P6_COORDS[j])] = c
    if not coeffs:
        coeffs[("x01", "x01")] = 1
    return QuadricForm.from_coefficients(coeffs)


def sample_net_split(rng: random.Random, include_coefficients: bool = False) -> dict:
    """Build one random net through the canonical pencil and analyze it."""
    while True:
        try:
            net = build_net(random_quadric(rng))
            break
        except DegeneracyError:
            continue
    return analyze_net(net, include_coefficients)


def analyze_net(net: QuadricNet, include_coefficients: bool = False) -> dict:
    """Split the determinantal curve of a net by the pencil line s2 = 0 and
    count where the residual sextic meets it.  A vanishing determinant or a
    failed split is reported under "failure", never hidden; the report stops
    at the first stage that fails."""
    report: dict = {}
    try:
        septic = determinantal_septic(net)
    except DegeneracyError as exc:
        report["septic_degree"] = None
        report["ok"] = False
        report["failure"] = str(exc)
        return report
    report["septic_degree"] = septic.degree
    if include_coefficients:
        report["septic_coefficients"] = poly_to_json(septic.form)["terms"]
    line = MultiPoly.variable("s2", NET_PARAMS)
    try:
        residual, (count, distinct) = septic_split(septic, line)
    except SplitError as exc:
        report["ok"] = False
        report["failure"] = str(exc)
        return report
    report["sextic_degree"] = residual.degree
    report["line_intersection_count"] = count
    report["line_intersection_distinct"] = distinct
    report["ok"] = (
        septic.degree == 7 and residual.degree == 6 and count == 6 and distinct
    )
    return report
