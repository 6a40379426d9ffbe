"""Matrices over the polynomial ring: exact determinants, rank, kernels.

Determinants run through two routes:
- when there are variables and every row is homogeneous: exact
  interpolation from integer determinants at the points of a triangular
  grid, whose size the degrees fix (no step samples anything);
- fraction-free (Bareiss) elimination otherwise, and for matrices without
  variables.

One fraction-free forward elimination serves the Bareiss determinant, the
point determinants, the rank and the pivot choice of the kernel, all taken
over the fraction field Q(vars).  It runs over Z[vars], or over plain ints
when there are no variables.  "For all parameter values" rank claims are
certified separately via the gcd of all k x k minors (a sampling argument can
never certify those).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm, prod
from operator import floordiv
from typing import Sequence

from .errors import DimensionError
from .polynomials import MultiPoly, is_zero, normalize_projective, plain, poly_gcd_list, to_ring


class PolyMatrix:
    """Immutable rectangular matrix of MultiPoly entries over one ring.

    Entries are brought into the ring by ``polynomials.to_ring``."""

    __slots__ = ("rows", "cols", "vars", "entries")

    def __init__(self, vars: Sequence[str], entries: Sequence[Sequence]):
        vs = tuple(vars)
        grid = tuple(tuple(to_ring(row, vs)) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, *_args):
        raise AttributeError("PolyMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            (self.entries[i][j] - other.entries[i][j]).is_zero
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(x) for x in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.vars,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return PolyMatrix(
            self.vars,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix(
            self.vars, [[x * c for x in row] for row in self.entries]
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise DimensionError("shape mismatch in product")
        return PolyMatrix(
            self.vars,
            [
                [
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                        MultiPoly.zero(self.vars),
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
        )

    def apply(self, vector: Sequence) -> tuple[MultiPoly, ...]:
        vec = to_ring(vector, self.vars)
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(
            sum((self.entries[i][j] * vec[j] for j in range(self.cols)), MultiPoly.zero(self.vars))
            for i in range(self.rows)
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(
            self.vars,
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
        )

    def is_skew(self) -> bool:
        if not self.is_square:
            return False
        return all(
            (self.entries[i][j] + self.entries[j][i]).is_zero
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(
            (self.entries[i][j] - self.entries[j][i]).is_zero
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )


def linear_family(params: Sequence[str], members: Sequence[PolyMatrix]) -> PolyMatrix:
    """The matrix sum params[k] * members[k] over Q[params], for numeric
    members of one shape, built entry by entry from their coefficients."""
    vs = tuple(params)
    units = [tuple(int(i == k) for i in range(len(vs))) for k in range(len(vs))]
    first = members[0]
    return PolyMatrix(
        vs,
        [
            [MultiPoly(vs, {u: plain(g.entries[i][j]) for u, g in zip(units, members)}) for j in range(first.cols)]
            for i in range(first.rows)
        ],
    )


# -- determinants ----------------------------------------------------------


def _eliminate(m: PolyMatrix) -> tuple[list[int], list[int], int, MultiPoly]:
    """Fraction-free (Bareiss) forward elimination of m over Q(vars).

    Returns (pivot rows, pivot columns, swap sign, last pivot).  Row indices
    refer to m; the last pivot is the minor of m on the pivot rows and
    columns, taken in pivot order, and is 1 when there is no pivot.

    Each row is first multiplied by the lcm of its coefficient denominators,
    so the elimination runs over Z[vars] with integer coefficients, and over
    plain ints when m has no variables.  Scaling a row by a nonzero constant
    moves no pivot; it multiplies the minor by that constant, which the last
    pivot divides out again.
    """
    scales = [_row_scale(row) for row in m.entries]
    if m.vars:
        a = [[p * den for p in row] if den != 1 else list(row) for row, den in zip(m.entries, scales)]
        pivot_rows, pivot_cols, sign, last = _bareiss(a, _div_exact, MultiPoly.one(m.vars))
    else:
        # a constant of the ring () holds its value under the exponent ()
        a = [[_integral(p.terms.get((), 0), den) for p in row] for row, den in zip(m.entries, scales)]
        pivot_rows, pivot_cols, sign, last = _bareiss(a, floordiv, 1)
    scale = prod(scales[i] for i in pivot_rows)
    if not m.vars:
        last = MultiPoly.constant(Fraction(last, scale))
    elif scale != 1:
        last = last * Fraction(1, scale)
    return pivot_rows, pivot_cols, sign, last


def _row_scale(row) -> int:
    """lcm of the coefficient denominators of a row of MultiPolys."""
    return lcm(*(c.denominator for p in row for c in p.terms.values()))


def _integral(c, den: int) -> int:
    """The int c * den, for a coefficient c whose denominator divides den."""
    return c.numerator * (den // c.denominator)


def _div_exact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    q = a.div_exact(b)
    assert q is not None, "Bareiss division must be exact"
    return q


def _bareiss(a: list[list], divide, prev) -> tuple[list[int], list[int], int, object]:
    """The elimination loop of ``_eliminate``, in place on the rows a, whose
    entries lie in Z or in Z[vars]; divide is the exact division there and
    prev its one.  Every division is exact because each entry stays a minor
    of the matrix being eliminated."""
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    order = list(range(n_rows))
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    sign = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = r
        while pivot < n_rows and is_zero(a[pivot][c]):
            pivot += 1
        if pivot == n_rows:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            order[r], order[pivot] = order[pivot], order[r]
            sign = -sign
        top = a[r]
        lead = top[c]
        for i in range(r + 1, n_rows):
            row = a[i]
            f = row[c]
            row[c + 1 :] = [divide(x * lead - f * y, prev) for x, y in zip(row[c + 1 :], top[c + 1 :])]
        prev = lead
        pivot_rows.append(order[r])
        pivot_cols.append(c)
        r += 1
    return pivot_rows, pivot_cols, sign, prev


def det_bareiss(m: PolyMatrix) -> MultiPoly:
    """Determinant as the signed last pivot of fraction-free elimination."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    pivot_rows, _, sign, last = _eliminate(m)
    if len(pivot_rows) < m.rows:
        return MultiPoly.zero(m.vars)
    return -last if sign < 0 else last


def _det_by_interpolation(m: PolyMatrix, degree: int) -> MultiPoly:
    """Determinant of a square matrix over Q[v1..vk], k >= 1, whose rows are
    homogeneous with total degrees summing to ``degree``.

    The determinant is then zero or a form of that degree, so setting vk = 1
    loses no coefficient.  What is left is a polynomial f of total degree at
    most ``degree`` in v1..v(k-1), and its values on the triangular grid
    {a in N^(k-1) : sum(a) <= degree} fix it.  Each value is an integer
    determinant once every row is cleared of denominators as in
    ``_eliminate``.  The Newton forward differences of f on the grid are
    integers; the one at a, divided by prod(a_i!), is the coefficient of the
    falling factorials prod((v_i)_(a_i)).  Those are turned into monomials,
    divided by the row multipliers once and homogenised again (Zippel,
    *Effective Polynomial Computation*, 1993).
    """
    n = m.rows
    free = len(m.vars) - 1
    scale = 1
    rows = []  # per row: (exponent in v1..v(k-1), integer coefficient per column)
    for row in m.entries:
        den = _row_scale(row)
        scale *= den
        by_expo: dict[tuple[int, ...], list[int]] = {}
        for j, p in enumerate(row):
            for e, c in p.terms.items():
                by_expo.setdefault(e[:free], [0] * n)[j] = _integral(c, den)
        rows.append(list(by_expo.items()))
    grid = [a for a in product(range(degree + 1), repeat=free) if sum(a) <= degree]
    monomials = {e for terms in rows for e, _ in terms}
    values = {}
    for point in grid:
        weights = {e: prod(map(pow, point, e)) for e in monomials}
        a = []
        for terms in rows:
            acc = [0] * n
            for e, coeffs in terms:
                w = weights[e]
                if w:
                    acc = [x + w * y for x, y in zip(acc, coeffs)]
            a.append(acc)
        pivot_rows, _, sign, last = _bareiss(a, floordiv, 1)
        values[point] = sign * last if len(pivot_rows) == n else 0
    lines = [
        [base[:axis] + (t,) + base[axis + 1 :] for t in range(degree - sum(base) + 1)]
        for axis in range(free)
        for base in grid
        if base[axis] == 0
    ]
    for line in lines:
        # forward differences in place: line[t] ends up holding the t-th one at line[0]
        for j in range(1, len(line)):
            for t in range(len(line) - 1, j - 1, -1):
                values[line[t]] -= values[line[t - 1]]
    for point in grid:
        values[point] //= prod(map(factorial, point))
    for line in lines:
        # falling factorials (v)_t, nodes 0, 1, ..., to powers of v
        for j in range(len(line) - 2, 0, -1):
            for t in range(j, len(line) - 1):
                values[line[t]] -= j * values[line[t + 1]]
    terms = {}
    # leading term first (descending grlex): the gcd's content loop then meets
    # the coefficient of the top power of v1 first, which for a binary form is
    # a constant and ends the loop
    for point in reversed(grid):
        c = values[point]
        if c:
            q, r = divmod(c, scale)
            terms[point + (degree - sum(point),)] = Fraction(c, scale) if r else q
    return MultiPoly(m.vars, terms)


def poly_det(m: PolyMatrix) -> MultiPoly:
    """Exact determinant: interpolation at integer points when there are
    variables and every row is homogeneous, else Bareiss."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    if not m.vars:
        return det_bareiss(m)
    degree = 0
    for row in m.entries:
        row_degrees = {sum(e) for p in row for e in p.terms}
        if not row_degrees:
            return MultiPoly.zero(m.vars)
        if len(row_degrees) > 1:
            return det_bareiss(m)
        degree += row_degrees.pop()
    return _det_by_interpolation(m, degree)


# -- rank and kernel over the fraction field -------------------------------


def rank_over_fraction_field(m: PolyMatrix) -> int:
    """Rank of m with entries read in Q(vars)."""
    return len(_eliminate(m)[1])


def kernel_over_fraction_field(m: PolyMatrix) -> list[tuple[MultiPoly, ...]]:
    """Basis of the right kernel with polynomial entries, one vector per free
    column, computed by Cramer minors (fully fraction-free).

    Each vector is content-normalized with the first nonzero entry's leading
    coefficient positive, so projective equality of kernels is literal
    equality of the returned tuples.
    """
    pivot_rows, pivot_cols, _, _ = _eliminate(m)
    free = [c for c in range(m.cols) if c not in pivot_cols]
    square = m.submatrix(pivot_rows, pivot_cols)
    d = poly_det(square)
    basis = []
    for fc in free:
        vec = [MultiPoly.zero(m.vars) for _ in range(m.cols)]
        vec[fc] = d
        rhs = [-m.entries[i][fc] for i in pivot_rows]
        for k in range(len(pivot_cols)):
            replaced = [
                [
                    rhs[i] if j == k else square.entries[i][j]
                    for j in range(len(pivot_cols))
                ]
                for i in range(len(pivot_rows))
            ]
            vec[pivot_cols[k]] = poly_det(PolyMatrix(m.vars, replaced))
        # the Cramer minors can share a polynomial factor: strip it so the
        # entries are coprime
        content = poly_gcd_list([p for p in vec if not p.is_zero])
        if not content.is_constant:
            vec = [
                p.div_exact(content) if not p.is_zero else p for p in vec
            ]
        basis.append(normalize_projective(vec))
    return basis


# -- universal rank certificates -------------------------------------------


def minor_gcd(m: PolyMatrix, k: int) -> MultiPoly:
    """gcd of all k x k minors, content-normalized with positive lead.

    A nonzero constant certifies rank >= k at every parameter value; the
    zero polynomial means every k x k minor vanishes identically.
    """
    if k < 0 or k > min(m.rows, m.cols):
        raise DimensionError(f"no {k} x {k} minors in a {m.rows} x {m.cols} matrix")
    if k == 0:
        return MultiPoly.one(m.vars)
    minors = (
        poly_det(m.submatrix(ri, ci))
        for ri in combinations(range(m.rows), k)
        for ci in combinations(range(m.cols), k)
    )
    return poly_gcd_list(minors)


def is_nonzero_constant(p: MultiPoly) -> bool:
    return p.is_constant and not p.is_zero
