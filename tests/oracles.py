"""Independent brute-force oracles used to freeze expected values.

Nothing here may call the code paths under test: determinants come from the
Leibniz sum or from cofactor expansion, Littlewood-Richardson coefficients
from explicit tableau enumeration, bivector ranks from plain rational
Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from fanocalc.errors import DimensionError
from fanocalc.matrices import PolyMatrix
from fanocalc.polynomials import MultiPoly


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_det(entries) -> MultiPoly:
    """Determinant as the full permutation sum (use only for n <= 6).

    The ring is the first non-empty ring of a MultiPoly entry; plain
    rationals and constants of other rings are lifted into it."""
    n = len(entries)
    vs = next((x.vars for row in entries for x in row if isinstance(x, MultiPoly) and x.vars), ())
    grid = [
        [x if isinstance(x, MultiPoly) else MultiPoly.constant(x, vs) for x in row]
        for row in entries
    ]
    grid = [[x.lift(vs) if x.vars != vs else x for x in row] for row in grid]
    total = MultiPoly.zero(vs)
    for perm in permutations(range(n)):
        term = MultiPoly.constant(perm_sign(perm), vs)
        for i in range(n):
            term = term * grid[i][perm[i]]
        total = total + term
    return total


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


def identity_matrix(n: int, vars=()) -> PolyMatrix:
    return PolyMatrix(vars, [[int(i == j) for j in range(n)] for i in range(n)])


def evaluate(poly: MultiPoly, values) -> Fraction:
    """Full evaluation term by term in plain Fraction arithmetic; every
    variable of the ring must receive a rational value."""
    vals = [Fraction(values[v]) for v in poly.vars]
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        term = Fraction(coeff)
        for x, v in zip(expo, vals):
            term *= v**x
        total += term
    return total


def rational_matrix_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain fraction Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


def bivector_rank(coords10: list[Fraction]) -> int:
    """Rank of the 5 x 5 skew matrix built from 10 wedge coordinates."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    grid = [[Fraction(0)] * 5 for _ in range(5)]
    for (i, j), c in zip(pairs, coords10):
        grid[i][j] = Fraction(c)
        grid[j][i] = -Fraction(c)
    return rational_matrix_rank(grid)


# -- Littlewood-Richardson via explicit tableau enumeration -----------------


def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    Enumerates every semistandard filling (weakly increasing rows, strictly
    increasing columns) and keeps those whose reverse reading word (rows top
    to bottom, each row right to left) is a lattice word.
    """
    rows = len(nu)
    lam = tuple(lam) + (0,) * (rows - len(lam))
    if any(nu[i] < lam[i] for i in range(rows)):
        return 0
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    cells = [(r, c) for r in range(rows) for c in range(lam[r], nu[r])]
    n_letters = len(mu)
    count = 0

    def lattice_ok(filling: dict) -> bool:
        seen = [0] * n_letters
        for r in range(rows):
            for c in range(nu[r] - 1, lam[r] - 1, -1):
                letter = filling[(r, c)]
                seen[letter] += 1
                if letter > 0 and seen[letter] > seen[letter - 1]:
                    return False
        return True

    def rec(idx: int, filling: dict, used: list[int]):
        nonlocal count
        if idx == len(cells):
            if lattice_ok(filling):
                count += 1
            return
        r, c = cells[idx]
        for letter in range(n_letters):
            if used[letter] >= mu[letter]:
                continue
            left = filling.get((r, c - 1))
            if left is not None and left > letter:
                continue
            above = filling.get((r - 1, c))
            if above is not None and above >= letter:
                continue
            filling[(r, c)] = letter
            used[letter] += 1
            rec(idx + 1, filling, used)
            used[letter] -= 1
            del filling[(r, c)]

    rec(0, {}, [0] * n_letters)
    return count


def lr_multiply(
    rows: int, cols: int, lam: tuple[int, ...], mu: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """sigma_lam * sigma_mu inside the rows x cols box, via lr_coefficient."""
    out: dict[tuple[int, ...], int] = {}
    target = sum(lam) + sum(mu)

    def box_partitions(prefix, bound):
        if len(prefix) == rows:
            yield tuple(prefix)
            return
        for x in range(bound, -1, -1):
            yield from box_partitions(prefix + [x], x)

    for nu in box_partitions([], cols):
        if sum(nu) != target:
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out
