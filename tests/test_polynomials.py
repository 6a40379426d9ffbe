import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc.polynomials import (
    MultiPoly,
    div_exact,
    is_zero,
    normalize_projective,
    plain,
    poly_gcd,
    poly_gcd_list,
    projectively_equal,
    ring_of,
    to_ring,
    variables,
)

from oracles import evaluate

RING = ("x", "y", "z")


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def small_polys(max_terms=4, max_total_deg=3, vars=RING, coeffs=st.integers(-5, 5).map(Fraction)):
    expo = st.tuples(*[st.integers(0, max_total_deg) for _ in vars]).filter(
        lambda e: sum(e) <= max_total_deg
    )
    term = st.tuples(expo, coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(
            (MultiPoly(vars, {e: c}) for e, c in ts),
            MultiPoly.zero(vars),
        )
    )


x, y, z = variables(RING)


def test_constructor_drops_zero_terms():
    p = MultiPoly(RING, {(1, 0, 0): Fraction(0), (0, 1, 0): 2})
    assert p == 2 * y
    assert len(p.terms) == 1


def test_arithmetic_basics():
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (p - p).is_zero


def test_constant_coercion_across_rings():
    c = MultiPoly.constant(Fraction(3, 2))
    assert (x + c) == x + Fraction(3, 2)
    with pytest.raises(ValueError):
        _ = x + MultiPoly.variable("t", ("t",))


def test_grlex_leading_term():
    p = x * y + z**3 + x
    # degree 3 beats degree 2; z^3 has exponent (0,0,3), xy has (1,1,0):
    # grlex compares degree first, then lex on the exponent vector
    expo, coeff = p.leading()
    assert expo == (0, 0, 3) or sum(expo) == 3
    q = x * y + x * z
    assert q.leading()[0] == (1, 1, 0)


def test_degree_and_homogeneity():
    assert (x * y + z * z).is_homogeneous()
    assert not (x + x * y).is_homogeneous()
    assert (x * y * z).total_degree() == 3
    assert MultiPoly.zero(RING).total_degree() == -1
    assert (x**2 * y).degree_in("x") == 2


def test_derivative_and_eval():
    p = x**2 * y + 3 * z
    assert p.derivative("x") == 2 * x * y
    assert evaluate(p, {"x": 2, "y": 3, "z": 1}) == 15
    assert p.eval_some({"x": 2}) == 4 * y + 3 * z


def test_compose():
    p = x * x - y
    t = MultiPoly.variable("t", ("t",))
    out = p.compose({"x": t, "y": t * t, "z": MultiPoly.zero(("t",))})
    assert out.is_zero


def test_exact_division():
    f = (x + y) * (x - 2 * y + z)
    assert f.div_exact(x + y) == x - 2 * y + z
    assert f.div_exact(x + z) is None
    assert (x + y).divides(f)
    b = Fraction(3, 2) * x * y - y + Fraction(1, 7)
    assert (x**2 + 1).div_exact(x + 1) is None
    assert (x * b + 1).div_exact(b) is None
    assert (x * b).div_exact(b) == x
    assert (x * b).div_exact(MultiPoly.constant(Fraction(-2, 5), RING)) == Fraction(-5, 2) * x * b
    assert MultiPoly.zero(RING).div_exact(b).is_zero
    with pytest.raises(ZeroDivisionError):
        b.div_exact(MultiPoly.zero(RING))


def reference_div_exact(a, b):
    """Division by repeated grlex-leading terms: the loop div_exact replaced."""
    quo = MultiPoly.zero(a.vars)
    rem = a
    lb_e, lb_c = b.leading()
    while not rem.is_zero:
        lr_e, lr_c = rem.leading()
        qe = tuple(x - y for x, y in zip(lr_e, lb_e))
        if any(x < 0 for x in qe):
            return None
        qt = MultiPoly.monomial(qe, Fraction(lr_c) / lb_c, a.vars)
        quo = quo + qt
        rem = rem - qt * b
    return quo


RINGS = (("x",), ("x", "y"), RING)


def rational_polys(vars):
    return small_polys(vars=vars, coeffs=RATIONALS)


def nonzero_divisors(vars):
    return st.one_of(
        RATIONALS.filter(bool).map(lambda c: MultiPoly.constant(c, vars)),
        rational_polys(vars).filter(lambda p: not p.is_zero),
    )


def ring_triples(first, second, third):
    return st.sampled_from(RINGS).flatmap(
        lambda vs: st.tuples(first(vs), second(vs), third(vs))
    )


def same_result(got, want):
    if want is None:
        return got is None
    return got is not None and list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=150, deadline=None)
@given(ring_triples(rational_polys, nonzero_divisors, rational_polys))
def test_div_exact_matches_reference_division(polys):
    q, b, a = polys
    product = q * b
    got = product.div_exact(b)
    assert got == q
    assert same_result(got, reference_div_exact(product, b))
    # a random dividend is mostly not a multiple of b: both must agree on None
    assert same_result(a.div_exact(b), reference_div_exact(a, b))
    assert same_result((product + a).div_exact(b), reference_div_exact(product + a, b))


def assert_clean(p):
    """The stored-term invariant: tuple keys of the ring's length, and every
    coefficient a nonzero int or a Fraction with denominator > 1."""
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.vars)
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert c != 0


@settings(max_examples=100, deadline=None)
@given(ring_triples(rational_polys, rational_polys, nonzero_divisors))
def test_results_store_no_zero_coefficients(polys):
    f, g, b = polys
    for p in (f + g, f - g, -f, f * g, f**2, f - f, f * b - f * b, (f * b).div_exact(b)):
        assert_clean(p)
    assert (f - f).terms == {}


# -- Fraction-only reference arithmetic on {exponent: Fraction} maps ---------


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_neg(f):
    return {e: -c for e, c in f.items()}


def ref_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_pow(f, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, f)
    return out


def ref_div(f, g):
    """Quotient by repeated grlex-leading terms, or None if not exact."""
    def lead(t):
        return max(t, key=lambda e: (sum(e), e))

    lb = lead(g)
    quo, rem = {}, dict(f)
    while rem:
        lr = lead(rem)
        qe = tuple(x - y for x, y in zip(lr, lb))
        if any(x < 0 for x in qe):
            return None
        qc = rem[lr] / g[lb]
        quo[qe] = qc
        rem = ref_add(rem, ref_neg(ref_mul({qe: qc}, g)))
    return quo


MIXED_COEFFS = st.one_of(st.integers(-6, 6), RATIONALS)


def mixed_term_maps(vars, max_terms=4, max_total_deg=3):
    """Raw term maps whose coefficients mix ints, integral Fractions and
    proper Fractions, as a caller may pass them."""
    expo = st.tuples(*[st.integers(0, max_total_deg) for _ in vars]).filter(
        lambda e: sum(e) <= max_total_deg
    )
    return st.dictionaries(expo, MIXED_COEFFS, max_size=max_terms)


def as_reference(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda vs: st.tuples(st.just(vs), *(mixed_term_maps(vs) for _ in range(3)))))
def test_arithmetic_matches_fraction_reference(data):
    vs, ft, gt, bt = data
    f, g, b = (MultiPoly(vs, t) for t in (ft, gt, bt))
    rf, rg, rb = (ref_clean({e: Fraction(c) for e, c in t.items()}) for t in (ft, gt, bt))
    assert as_reference(f) == rf
    cases = [
        (f + g, ref_add(rf, rg)),
        (f - g, ref_add(rf, ref_neg(rg))),
        (-f, ref_neg(rf)),
        (f * g, ref_mul(rf, rg)),
        (f**3, ref_pow(rf, 3, len(vs))),
        (f * Fraction(3, 2) + 1, ref_add(ref_mul(rf, {(0,) * len(vs): Fraction(3, 2)}), {(0,) * len(vs): Fraction(1)})),
    ]
    if rb:
        product = f * b
        cases.append((product.div_exact(b), ref_div(ref_mul(rf, rb), rb)))
        got, want = g.div_exact(b), ref_div(rg, rb)
        assert (got is None) == (want is None)
        if got is not None:
            cases.append((got, want))
    for got, want in cases:
        assert_clean(got)
        assert as_reference(got) == want


def test_scalars_are_canonical_and_queries_return_fractions():
    p = MultiPoly(RING, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 3), (0, 0, 0): True})
    assert p.terms == {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3), (0, 0, 0): 1}
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    assert type(p.coefficient((1, 0, 0))) is Fraction
    assert type(p.coefficient((0, 0, 5))) is Fraction
    assert type(MultiPoly.constant(Fraction(6, 3), RING).constant_value()) is Fraction
    assert 1 / MultiPoly.constant(4, ()).constant_value() == Fraction(1, 4)
    assert (Fraction(1, 2) * x * 2).terms == {(1, 0, 0): 1}
    assert type(x.terms[(1, 0, 0)]) is int
    assert (Fraction(3, 2) * x**2).derivative("x").terms == {(1, 0, 0): 3}
    assert (4 * x + 2).div_exact(MultiPoly.constant(4, RING)).terms == {(1, 0, 0): 1, (0, 0, 0): Fraction(1, 2)}
    assert (Fraction(2, 3) * x).primitive().terms == {(1, 0, 0): 1}
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            MultiPoly.constant(bad, RING)


def test_cancellation_leaves_no_terms():
    p = (x + 1) * (x - 1) - x**2 + 1
    assert p.is_zero and p.terms == {}
    for q in ((x + y) + (-x - y), (x - y) * 0, -(x - x), (x - x) ** 3, (y - y).div_exact(x)):
        assert q.terms == {}
        assert_clean(q)


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        MultiPoly(RING, {(1, -1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(RING, {(1, 0): 1})
    with pytest.raises(TypeError):
        MultiPoly(RING, {(1, 0, 0): 0.5})


def test_constants_hash_as_their_value_across_rings():
    one_x = MultiPoly.constant(1, ("x",))
    one_empty = MultiPoly.constant(1, ())
    assert one_x == one_empty and hash(one_x) == hash(one_empty)
    assert len({one_x, one_empty}) == 1
    assert one_x == 1 and hash(one_x) == hash(1)
    half = MultiPoly.constant(Fraction(1, 2), RING)
    assert hash(half) == hash(Fraction(1, 2))
    assert hash(MultiPoly.zero(RING)) == hash(0)


def test_polynomials_of_different_rings_compare_unequal():
    (u,) = variables("x")
    (v,) = variables("y")
    assert not (u == v)
    assert u != v
    assert u != x and x != u
    assert u != MultiPoly.constant(1, ("y",))


def test_content_primitive_monic():
    p = Fraction(4, 6) * x + Fraction(2, 3) * y
    assert p.content() == Fraction(2, 3)
    assert p.primitive() == x + y
    assert (-2 * x - 2 * y).monic_normal() == x + y


def test_gcd_simple():
    f = (x + y) ** 2 * (x - z)
    g = (x + y) * (x + z)
    assert poly_gcd(f, g) == x + y
    assert poly_gcd(f, MultiPoly.zero(RING)) == f.monic_normal()
    assert poly_gcd(MultiPoly.constant(6, RING), 4 * x) == MultiPoly.one(RING)


def test_gcd_list_early_exit():
    polys = [x * y, x * z, y * z]
    assert poly_gcd_list(polys) == MultiPoly.one(RING)
    assert poly_gcd_list([MultiPoly.zero(RING)] * 3).is_zero


@settings(max_examples=60, deadline=None)
@given(small_polys(max_terms=3, max_total_deg=2), small_polys(max_terms=3, max_total_deg=2), small_polys(max_terms=2, max_total_deg=1))
def test_gcd_divides_both_and_scales(f, g, h):
    d = poly_gcd(f, g)
    if not d.is_zero:
        assert d.divides(f) and d.divides(g)
    if not (f.is_zero or g.is_zero or h.is_zero):
        dh = poly_gcd(f * h, g * h)
        assert h.monic_normal().divides(dh)


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f


def test_normalize_projective_sign_and_content():
    v = normalize_projective([-2 * x * y, -2 * y * y, 2 * x * x])
    assert v == (x * y, y * y, -(x * x))
    w = normalize_projective([Fraction(1, 2) * x, Fraction(3, 2) * y])
    assert w == (x, 3 * y)


def reference_normalize_projective(coords):
    """The MultiPoly-only normalization the protocol version replaced: scale
    by the lcm of the denominators, then by 1/content, then fix the sign."""
    den = 1
    for p in coords:
        for c in p.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
    scaled = [p * den for p in coords]
    num = 0
    for p in scaled:
        for c in p.terms.values():
            num = math.gcd(num, abs(c.numerator))
    scaled = [p * Fraction(1, num) for p in scaled]
    first = next(p for p in scaled if not p.is_zero)
    return tuple(-p for p in scaled) if first.leading()[1] < 0 else tuple(scaled)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_polys(coeffs=RATIONALS), max_size=4), RATIONALS.filter(bool))
def test_normalize_projective_on_polys_matches_reference(polys, c):
    coords = polys + [c * y * z]
    out = normalize_projective(coords)
    ref = reference_normalize_projective(coords)
    assert [(p.vars, list(p.terms.items())) for p in out] == [(p.vars, list(p.terms.items())) for p in ref]


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=8).filter(any))
def test_normalize_projective_on_plain_vectors(values):
    out = normalize_projective(values)
    assert all(type(c) is int for c in out)
    assert out == normalize_projective([MultiPoly.constant(v) for v in values])
    assert math.gcd(*out) == 1 and next(c for c in out if c) > 0
    assert projectively_equal(out, values)


def test_projectively_equal():
    a = (x * y, y * y, -(x * x))
    b = (-(x * y), -(y * y), x * x)
    assert projectively_equal(a, b)
    assert not projectively_equal(a, (x * y, y * y, x * x))
    assert not projectively_equal(a, (x * y, y * y, MultiPoly.zero(RING)))


def test_str_roundtrip_readable():
    assert str(x - y) == "x - y"
    assert str(MultiPoly.zero(RING)) == "0"
    assert str(-x) == "-x"


def test_ring_element_functions_agree_on_both_kinds():
    x, y = variables("x y")
    three = MultiPoly.constant(3, ("x", "y"))
    assert is_zero(0) and is_zero(Fraction(0)) and is_zero(x - x)
    assert not is_zero(Fraction(1, 2)) and not is_zero(three)
    for value in (6, Fraction(6), MultiPoly.constant(6), MultiPoly.constant(6, ("s",))):
        assert type(plain(value)) is int and plain(value) == 6
    assert plain(MultiPoly.constant(Fraction(-3, 4), ("x",))) == Fraction(-3, 4)
    with pytest.raises(ValueError):
        plain(x)
    assert div_exact(6, 3) == 2 and type(div_exact(6, 3)) is int
    assert div_exact(Fraction(1, 2), 3) == Fraction(1, 6)
    assert div_exact(Fraction(4), Fraction(2)) == 2 and type(div_exact(Fraction(4), Fraction(2))) is int
    assert div_exact(6, three) == 2 and div_exact(6, three).vars == ("x", "y")
    assert div_exact(x * y + x, x) == y + 1 and div_exact(x * 3, 3) == x
    assert div_exact(1, x) is None and div_exact(y, x) is None
    with pytest.raises(ZeroDivisionError):
        div_exact(1, 0)


def test_to_ring_brings_constants_of_any_ring_into_the_one_ring():
    x, y = variables("x y")
    (s,) = variables("s")
    s_one = MultiPoly.one(("s",))
    assert ring_of([1, Fraction(1, 2), s_one, MultiPoly.constant(2)]) == ()
    assert ring_of([1, s_one, x]) == ("x", "y")
    out = to_ring([1, s_one, x, Fraction(1, 2)])
    assert [p.vars for p in out] == [("x", "y")] * 4
    assert out[2] is x and out[:2] == [1, 1] and out[3] == Fraction(1, 2)
    assert to_ring([s_one], ("x", "y"))[0].vars == ("x", "y")
    assert [p.vars for p in to_ring([1, s_one])] == [(), ()]
    with pytest.raises(ValueError):
        ring_of([s, x])
    with pytest.raises(ValueError):
        to_ring([s], ("x", "y"))
