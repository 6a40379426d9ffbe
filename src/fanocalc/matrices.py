"""Matrices over the polynomial ring: exact determinants, rank, kernels.

Determinants run through two routes: cofactor expansion for small sizes and
fraction-free (Bareiss) elimination for size >= 5, where expression swell
would otherwise hurt.  One fraction-free forward elimination serves the
Bareiss determinant, the rank and the pivot choice of the kernel, all taken
over the fraction field Q(vars); "for all parameter values" rank claims are
certified separately via the gcd of all k x k minors (a sampling argument can
never certify those).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Sequence

from .errors import DimensionError
from .polynomials import MultiPoly, normalize_projective, poly_gcd_list, to_ring


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

    def __getitem__(self, ij: tuple[int, int]) -> MultiPoly:
        i, j = ij
        return self.entries[i][j]

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

    def __neg__(self) -> "PolyMatrix":
        return self.scale(-1)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

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


# -- determinants ----------------------------------------------------------


def det_cofactor(m: PolyMatrix) -> MultiPoly:
    """Determinant by cofactor expansion (memoized over column subsets)."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    zero = MultiPoly.zero(m.vars)
    if n == 0:
        return MultiPoly.one(m.vars)
    cache: dict[tuple[int, ...], MultiPoly] = {}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        # expansion along the first row not yet consumed; memoized on the
        # surviving column set
        if cols in cache:
            return cache[cols]
        row = n - len(cols)
        if len(cols) == 1:
            result = m.entries[row][cols[0]]
        else:
            result = zero
            sign = 1
            for pos, c in enumerate(cols):
                a = m.entries[row][c]
                if not a.is_zero:
                    rest = cols[:pos] + cols[pos + 1 :]
                    term = a * minor(rest)
                    result = result + (term if sign > 0 else -term)
                sign = -sign
        cache[cols] = result
        return result

    return minor(tuple(range(n)))


def _eliminate(m: PolyMatrix) -> tuple[list[int], list[int], int, MultiPoly]:
    """Fraction-free (Bareiss) forward elimination of m over Q(vars).

    Returns (pivot rows, pivot columns, swap sign, last pivot).  Row indices
    refer to m; the last pivot is the minor of m on the pivot rows and
    columns, taken in pivot order, and is 1 when there is no pivot.  Every
    division is exact because each entry stays a minor of the matrix being
    eliminated.

    Each row is first multiplied by the lcm of its coefficient denominators,
    so the elimination runs over Z[vars] with integer coefficients.  Scaling
    a row by a nonzero constant moves no pivot; it multiplies the minor by
    that constant, which the last pivot divides out again.
    """
    a = []
    scales = []
    for row in m.entries:
        den = 1
        for p in row:
            for c in p.terms.values():
                den = lcm(den, c.denominator)
        scales.append(den)
        a.append([p * den for p in row] if den != 1 else list(row))
    order = list(range(m.rows))
    prev = MultiPoly.one(m.vars)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    sign = 1
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot = next((i for i in range(r, m.rows) if not a[i][c].is_zero), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            order[r], order[pivot] = order[pivot], order[r]
            sign = -sign
        for i in range(r + 1, m.rows):
            for j in range(c + 1, m.cols):
                num = a[i][j] * a[r][c] - a[i][c] * a[r][j]
                q = num.div_exact(prev)
                assert q is not None, "Bareiss division must be exact"
                a[i][j] = q
        prev = a[r][c]
        pivot_rows.append(order[r])
        pivot_cols.append(c)
        r += 1
    scale = prod(scales[i] for i in pivot_rows)
    if scale != 1:
        prev = prev * Fraction(1, scale)
    return pivot_rows, pivot_cols, sign, prev


def det_bareiss(m: PolyMatrix) -> MultiPoly:
    """Determinant as the signed last pivot of fraction-free elimination."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    pivot_rows, _, sign, last = _eliminate(m)
    if len(pivot_rows) < m.rows:
        return MultiPoly.zero(m.vars)
    return -last if sign < 0 else last


def poly_det(m: PolyMatrix) -> MultiPoly:
    """Exact determinant; cofactors below size 5, Bareiss from 5 up."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    return det_cofactor(m) if m.rows < 5 else det_bareiss(m)


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
