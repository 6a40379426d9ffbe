import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc.errors import DimensionError
from fanocalc.matrices import (
    PolyMatrix,
    _eliminate,
    det_bareiss,
    is_nonzero_constant,
    kernel_over_fraction_field,
    minor_gcd,
    poly_det,
    rank_over_fraction_field,
)
from fanocalc.polynomials import MultiPoly, variables

from oracles import det_cofactor, evaluate, identity_matrix, leibniz_det, perm_sign, rational_matrix_rank


def random_poly_matrix(rng, n, nvars=3, max_deg=2):
    vars = ("x", "y", "z")[:nvars]
    entries = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = [0] * nvars
                for _ in range(rng.randint(0, max_deg)):
                    expo[rng.randrange(nvars)] += 1
                terms[tuple(expo)] = terms.get(tuple(expo), 0) + rng.randint(-3, 3)
            row.append(MultiPoly(vars, {e: Fraction(c) for e, c in terms.items()}))
        entries.append(row)
    return PolyMatrix(vars, entries)


def test_det_identity_and_errors():
    assert poly_det(identity_matrix(2)) == MultiPoly.one(())
    with pytest.raises(DimensionError):
        poly_det(PolyMatrix((), [[0] * 3 for _ in range(2)]))


def test_det_of_odd_skew_matrix_vanishes():
    t0, t1 = variables("t0 t1")
    z = MultiPoly.zero(("t0", "t1"))
    rows = [[z] * 5 for _ in range(5)]

    def put(i, j, v):
        rows[i][j] = v
        rows[j][i] = -v

    put(0, 3, t0)
    put(1, 4, -t0)
    put(0, 4, t1)
    put(2, 3, t1)
    assert poly_det(PolyMatrix(("t0", "t1"), rows)).is_zero


def test_det_cofactor_equals_bareiss_equals_leibniz():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = random_poly_matrix(rng, n)
        a = det_cofactor(m)
        b = det_bareiss(m)
        assert a == b
        if n <= 4:
            assert a == leibniz_det(m.entries)


def test_det_permutation_sign():
    rng = random.Random(5)
    m = random_poly_matrix(rng, 4)
    base = poly_det(m)
    for _ in range(10):
        rperm = list(range(4))
        cperm = list(range(4))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        permuted = m.submatrix(rperm, cperm)
        sign = perm_sign(tuple(rperm)) * perm_sign(tuple(cperm))
        assert poly_det(permuted) == base * sign


def test_rank_row_operation_invariance():
    rng = random.Random(7)
    for _ in range(10):
        m = random_poly_matrix(rng, 4)
        r = rank_over_fraction_field(m)
        rows = [list(row) for row in m.entries]
        # add a multiple of one row to another (unit pivot operation)
        rows[1] = [a + 2 * b for a, b in zip(rows[1], rows[0])]
        assert rank_over_fraction_field(PolyMatrix(m.vars, rows)) == r


def test_rank_of_zero_matrix():
    assert rank_over_fraction_field(PolyMatrix((), [[0] * 3 for _ in range(3)])) == 0


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    vars = ("x", "y", "z")
    for _ in range(10):
        m = random_poly_matrix(rng, 3)
        # widen to a 3 x 5 matrix with dependent columns
        wide = PolyMatrix(
            vars,
            [
                list(row) + [row[0] + row[1], row[2]]
                for row in m.entries
            ],
        )
        for vec in kernel_over_fraction_field(wide):
            image = wide.apply(vec)
            assert all(p.is_zero for p in image)


def test_kernel_of_identity_is_empty():
    assert kernel_over_fraction_field(identity_matrix(4)) == []


def test_minor_gcd_identity():
    g = minor_gcd(identity_matrix(3), 3)
    assert g == MultiPoly.one(())
    assert is_nonzero_constant(g)


def test_minor_gcd_of_zero_matrix_is_zero():
    assert minor_gcd(PolyMatrix((), [[0] * 3 for _ in range(3)]), 2).is_zero


def test_minor_gcd_detects_common_factor():
    t0, t1 = variables("t0 t1")
    m = PolyMatrix(("t0", "t1"), [[t0, MultiPoly.zero(("t0", "t1"))], [MultiPoly.zero(("t0", "t1")), t0 * t1]])
    g = minor_gcd(m, 1)
    assert g == t0


def low_rank_poly_matrix(rng, n, k, zero_col=None):
    """An n x n product of random n x k and k x n matrices, so rank <= k;
    zero_col empties one column, leaving the elimination without a pivot
    there."""
    left = random_poly_matrix(rng, max(n, k), nvars=2, max_deg=1)
    right = random_poly_matrix(rng, max(n, k), nvars=2, max_deg=1)
    a = left.submatrix(range(n), range(k))
    b = right.submatrix(range(k), range(n))
    if zero_col is not None:
        z = MultiPoly.zero(b.vars)
        b = PolyMatrix(b.vars, [[z if j == zero_col else x for j, x in enumerate(row)] for row in b.entries])
    return a * b


def test_singular_det_bareiss_matches_cofactor():
    rng = random.Random(21)
    for n in (5, 6, 7):
        for zero_col in (None, 0, n // 2):
            m = low_rank_poly_matrix(rng, n, n - 2, zero_col)
            assert det_bareiss(m).is_zero
            assert det_cofactor(m).is_zero


def test_rank_matches_rational_oracle_on_known_rank():
    rng = random.Random(22)
    for n in (5, 6, 7):
        for k in range(1, n + 1):
            for zero_col in (None, 0, n // 2):
                rows = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(n)]
                cols = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
                if zero_col is not None:
                    for row in cols:
                        row[zero_col] = Fraction(0)
                product = [
                    [sum((rows[i][t] * cols[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
                    for i in range(n)
                ]
                expected = rational_matrix_rank(product)
                assert expected <= k
                assert rank_over_fraction_field(PolyMatrix((), product)) == expected


def test_kernel_of_low_rank_matrix_annihilates():
    rng = random.Random(23)
    for n in (5, 6):
        for zero_col in (None, 0, n // 2):
            m = low_rank_poly_matrix(rng, n, 3, zero_col)
            rank = rank_over_fraction_field(m)
            basis = kernel_over_fraction_field(m)
            assert len(basis) == n - rank >= 2
            for vec in basis:
                assert all(p.is_zero for p in m.apply(vec))


def reference_eliminate(m):
    """Bareiss elimination over Q(vars) without clearing row denominators:
    the loop _eliminate ran before rows were scaled to integer coefficients."""
    a = [list(row) for row in m.entries]
    order = list(range(m.rows))
    prev = MultiPoly.one(m.vars)
    pivot_rows, pivot_cols, sign, r = [], [], 1, 0
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
                q = (a[i][j] * a[r][c] - a[i][c] * a[r][j]).div_exact(prev)
                assert q is not None
                a[i][j] = q
        prev = a[r][c]
        pivot_rows.append(order[r])
        pivot_cols.append(c)
        r += 1
    return pivot_rows, pivot_cols, sign, prev


def rational_row_matrix(rng, n, dens, nvars=2, max_deg=1):
    """An n x n polynomial matrix whose row i has coefficients over
    1/dens[i] (1 keeps the row integral, 2 makes it half-integral)."""
    base = random_poly_matrix(rng, n, nvars=nvars, max_deg=max_deg)
    return PolyMatrix(
        base.vars,
        [[x * Fraction(rng.choice((1, 3)), d) for x in row] for row, d in zip(base.entries, dens)],
    )


def with_dependent_rows(m, rng):
    """m with its last two rows replaced by rational combinations of the
    first two, so the rank drops to at most n - 2."""
    rows = [list(row) for row in m.entries]
    for k in (-1, -2):
        a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 4), 3)
        rows[k] = [a * p + b * q for p, q in zip(rows[0], rows[1])]
    return PolyMatrix(m.vars, rows)


DENOMINATOR_PATTERNS = ((2, 2, 2, 2, 2), (1, 2, 3, 4, 6), (1, 1, 1, 1, 1), (5, 1, 2, 1, 7))


def test_det_bareiss_matches_cofactor_and_leibniz_on_rational_rows():
    rng = random.Random(31)
    for dens in DENOMINATOR_PATTERNS:
        for _ in range(3):
            m = rational_row_matrix(rng, 5, dens)
            assert det_bareiss(m) == det_cofactor(m) == leibniz_det(m.entries)
            singular = with_dependent_rows(m, rng)
            assert det_bareiss(singular).is_zero and leibniz_det(singular.entries).is_zero
    # a half-integer quadric net: the shape the septic comes from
    m = rational_row_matrix(rng, 5, (2,) * 5, nvars=3)
    assert det_bareiss(m) == leibniz_det(m.entries)


def numeric_row_matrix(rng, n, dens):
    """An n x n matrix of rationals, no variables, whose row i lies over 1/dens[i]."""
    return PolyMatrix((), [[Fraction(rng.randint(-4, 4), d) for _ in range(n)] for d in dens])


def test_row_clearing_keeps_pivots_ranks_and_kernels():
    # rows over Q[x, y], then rows of plain rationals (no variables), which
    # are eliminated in ints
    for make, seed in ((rational_row_matrix, 32), (numeric_row_matrix, 33)):
        rng = random.Random(seed)
        for dens in DENOMINATOR_PATTERNS:
            for _ in range(3):
                m = make(rng, 5, dens)
                dependent = with_dependent_rows(m, rng)
                for case in (m, dependent, dependent.submatrix((0, 1, 2, 4), range(5))):
                    rows, cols, sign, last = _eliminate(case)
                    ref_rows, ref_cols, ref_sign, ref_last = reference_eliminate(case)
                    assert (rows, cols, sign) == (ref_rows, ref_cols, ref_sign)
                    assert list(last.terms.items()) == list(ref_last.terms.items())
                    assert last == det_cofactor(case.submatrix(rows, cols))
                    assert rank_over_fraction_field(case) == len(ref_cols)
                    # scaling rows by nonzero rationals changes no kernel
                    factors = [Fraction(rng.choice((-2, 1, 5)), rng.randint(1, 6)) for _ in case.entries]
                    scaled = PolyMatrix(case.vars, [[x * f for x in row] for f, row in zip(factors, case.entries)])
                    basis = kernel_over_fraction_field(case)
                    assert basis == kernel_over_fraction_field(scaled)
                    assert len(basis) == case.cols - len(ref_cols)
                    for vec in basis:
                        assert all(p.is_zero for p in case.apply(vec))


def test_kernel_with_constant_content_remainders():
    # The gcd of this kernel's Cramer minors runs a pseudo-remainder sequence
    # whose remainders have constant content; each remainder is made
    # primitive, so the integer coefficients stay small.
    rng = random.Random(32)
    m = rational_row_matrix(rng, 5, (2,) * 5)
    with_dependent_rows(m, rng)
    m = rational_row_matrix(rng, 5, (1, 2, 3, 4, 6))
    sub = m.submatrix(range(4), range(5))
    rank = rank_over_fraction_field(sub)
    points = [{"x": Fraction(x), "y": Fraction(y, 3)} for x, y in ((1, 2), (-2, 5), (3, -7))]
    assert rank == max(
        rational_matrix_rank([[evaluate(p, pt) for p in row] for row in sub.entries]) for pt in points
    )
    basis = kernel_over_fraction_field(sub)
    assert len(basis) == sub.cols - rank
    for vec in basis:
        assert all(p.is_zero for p in sub.apply(vec))


# -- determinants by interpolation at integer points ------------------------

VARS = ("x", "y", "z")


def forms(vs, degree, den):
    """Forms of one total degree over 1/den with small coefficients, zero included."""
    monos = [
        tuple(combo.count(i) for i in range(len(vs)))
        for combo in combinations_with_replacement(range(len(vs)), degree)
    ]
    return st.dictionaries(st.sampled_from(monos), st.integers(-3, 3), max_size=2).map(
        lambda terms: MultiPoly(vs, {e: Fraction(c, den) for e, c in terms.items()})
    )


@st.composite
def det_cases(draw):
    """An n x n matrix over Q[x], Q[x, y] or Q[x, y, z], n = 0 to 7, whose
    rows are forms of degree 0, 1 or 2 in each entry, over 1, 1/2 or 1/7.
    At most one row is special: the zero row, a rational combination of two
    other rows (the determinant vanishes from n = 3 up), or entries of two
    different degrees (from n = 2 up the row is not homogeneous, so Bareiss
    runs)."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 7))
    vs = VARS[:k]
    rows = []
    for _ in range(n):
        den = draw(st.sampled_from((1, 2, 7)))
        degree = draw(st.integers(0, 2 if n < 7 else 1))
        rows.append([draw(forms(vs, degree, den)) for _ in range(n)])
    if n == 0:
        return PolyMatrix(vs, rows)
    special = draw(st.sampled_from((None, "zero", "dependent", "mixed")))
    pos = draw(st.integers(0, n - 1))
    if special == "zero":
        rows[pos] = [MultiPoly.zero(vs)] * n
    elif special == "dependent":
        i, j = (pos + 1) % n, (pos + 2) % n
        a, b = Fraction(draw(st.integers(-3, 3)), 2), Fraction(draw(st.integers(-3, 3)), 7)
        rows[pos] = [a * p + b * q for p, q in zip(rows[i], rows[j])]
    elif special == "mixed":
        degree = draw(st.integers(0, 1))
        rows[pos] = [draw(forms(vs, degree + j % 2, 1)) for j in range(n)]
    return PolyMatrix(vs, rows)


@settings(max_examples=120, deadline=None)
@given(det_cases())
def test_poly_det_matches_bareiss_and_leibniz(m):
    det = poly_det(m)
    assert det == det_bareiss(m)
    if 1 <= m.rows <= 6:
        assert det == leibniz_det(m.entries)
    if m.rows <= 4:
        assert det == det_cofactor(m)


def test_leibniz_det_takes_the_ring_of_constant_entries():
    (x,) = variables("x")
    assert leibniz_det(identity_matrix(5, ("x",)).entries) == MultiPoly.one(("x",))
    assert leibniz_det([[2, x], [MultiPoly.constant(3, ()), 1]]) == 2 - 3 * x


def homogeneous_row_matrix(rng, degrees, dens, nvars=3):
    """A square matrix whose row i is a form of degree degrees[i] in every
    entry, with coefficients over 1/dens[i]."""
    vs = VARS[:nvars]
    rows = []
    for degree, den in zip(degrees, dens):
        monos = [
            tuple(combo.count(i) for i in range(nvars))
            for combo in combinations_with_replacement(range(nvars), degree)
        ]
        rows.append(
            [
                MultiPoly(vs, {rng.choice(monos): Fraction(rng.randint(1, 5), den) for _ in range(2)})
                for _ in degrees
            ]
        )
    return PolyMatrix(vs, rows)


def test_poly_det_on_homogeneous_rows():
    rng = random.Random(41)
    for degrees, dens, nvars in (
        ((0, 1, 2, 1, 0), (1, 2, 7, 1, 2), 3),
        ((1,) * 7, (2,) * 7, 3),
        ((2, 0, 1, 1, 0, 2), (7, 1, 2, 1, 7, 1), 2),
        ((1, 2, 0, 1, 1), (7, 7, 1, 2, 1), 1),
    ):
        m = homogeneous_row_matrix(rng, degrees, dens, nvars)
        det = poly_det(m)
        assert not det.is_zero and det.is_homogeneous() and det.total_degree() == sum(degrees)
        assert det == det_bareiss(m)
        rows = [list(row) for row in m.entries]
        zero_row = PolyMatrix(m.vars, rows[:-1] + [[MultiPoly.zero(m.vars)] * len(rows)])
        assert poly_det(zero_row).is_zero
        # a last row that is a multiple of a row of the same degree
        same = max(i for i in range(len(rows) - 1) if degrees[i] == degrees[-1])
        dependent = PolyMatrix(m.vars, rows[:-1] + [[p * Fraction(-3, 7) for p in rows[same]]])
        assert poly_det(dependent).is_zero and det_bareiss(dependent).is_zero
        # a row that is not homogeneous takes Bareiss
        bump = MultiPoly.variable("x", m.vars) if degrees[1] == 0 else MultiPoly.one(m.vars)
        row = [p + bump * (j % 2) for j, p in enumerate(rows[1])]
        assert len({sum(e) for p in row for e in p.terms}) == 2
        mixed = PolyMatrix(m.vars, [rows[0], row] + rows[2:])
        assert poly_det(mixed) == det_bareiss(mixed)
