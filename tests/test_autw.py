import random
from fractions import Fraction

import pytest

from fanocalc.autw import (
    AutWElement,
    OrbitLabel,
    assemble,
    decompose_matrix,
    elements_equal,
    ga_element,
    group_closure_check,
    inverse,
    orbit_classify,
    orbit_formula,
    orbit_transitivity_witness,
    p7_defect,
    pgl_element,
    preserves_P7,
    random_element,
    symbolic_family,
    symm2,
    vanishes_mod_sl2,
    wedge_square_action,
    wedge_square_action_raw,
    wedge_square_matrix,
)
from fanocalc.errors import ConstraintError, DomainError, WitnessError
from fanocalc.grassmann import WedgePoint, grassmann_membership, p7_membership, w_membership
from fanocalc.matrices import PolyMatrix
from fanocalc.polynomials import MultiPoly, is_zero, normalize_projective, plain, projectively_equal, variables

from oracles import identity_matrix


E34 = WedgePoint.basis_vector(3, 4)
ZERO_U = [[0, 0], [0, 0], [0, 0]]
ONE_G = [[1, 0], [0, 1]]


def identity_element():
    return assemble(1, ZERO_U, ONE_G)


def gm_element(lam):
    return assemble(lam, ZERO_U, ONE_G)


def test_assemble_identity():
    g = identity_element()
    assert PolyMatrix((), g.matrix5()) == identity_matrix(5)


def test_assemble_rejects_bad_det():
    with pytest.raises(ConstraintError, match="det"):
        assemble(1, [[0, 0], [0, 0], [0, 0]], [[2, 0], [0, 1]])


def test_assemble_rejects_zero_lambda():
    with pytest.raises(ConstraintError, match="lam"):
        assemble(0, [[0, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]])


def test_assemble_names_violated_constraint():
    # U = [[1,0],[0,0],[0,0]] with G = identity satisfies the first linear
    # constraint but not the second
    with pytest.raises(ConstraintError, match=r"d\*U00"):
        assemble(1, [[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]])


def test_ga_element_satisfies_constraints_symbolically():
    ring = ("u", "v", "x", "y")
    u, v, x, y = (MultiPoly.variable(n, ring) for n in ring)
    g = ga_element(u, v, x, y)
    c1, c2 = g.constraint_values()
    assert c1.is_zero and c2.is_zero


def test_symm2_of_rotation():
    rot = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    s = symm2(rot)
    expected = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert [[x for x in row] for row in s] == [
        [Fraction(v) for v in row] for row in expected
    ]


def test_wedge_action_of_identity():
    p = WedgePoint.from_pairs({(0, 1): 2, (3, 4): 3})
    assert wedge_square_action(identity_element(), p).proj_eq(p)


def test_orbit_formula_matches_action_coefficientwise():
    ring = ("u", "v", "x", "y")
    u, v, x, y = (MultiPoly.variable(n, ring) for n in ring)
    raw = wedge_square_action_raw(ga_element(u, v, x, y), E34)
    formula = orbit_formula(u, v, x, y)
    assert all((a - b).is_zero for a, b in zip(raw.coords, formula.coords))


def test_orbit_formula_specialization():
    # u = x = y = 0: e34 + v(e03 + e14) + v^2 e01
    v = Fraction(3)
    p = orbit_formula(0, v, 0, 0)
    expected = WedgePoint.from_pairs({(3, 4): 1, (0, 3): v, (1, 4): v, (0, 1): v * v})
    assert p.proj_eq(expected)
    witness = orbit_transitivity_witness(E34, p)
    assert wedge_square_action(witness, E34).proj_eq(p)


def test_symbolic_family_preserves_p7():
    family = symbolic_family()
    defects = p7_defect(family)
    assert len(defects) == 16
    assert all(vanishes_mod_sl2(d) for d in defects)
    assert preserves_P7(family)


def test_unconstrained_element_fails_p7():
    bad = AutWElement.unchecked(1, [[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]])
    assert not preserves_P7(bad)


def test_numeric_elements_preserve_p7():
    rng = random.Random(1)
    for _ in range(25):
        assert preserves_P7(random_element(rng))


def test_stabilizer_fixes_e34_symbolically():
    ring = ("a", "b", "c", "d", "lam")
    a, b, c, d, lam = (MultiPoly.variable(n, ring) for n in ring)
    stab = AutWElement.unchecked(lam, [[0, 0], [0, 0], [0, 0]], [[a, b], [c, d]], symbolic_det=True)
    image = PolyMatrix(ring, stab.wedge_matrix()).apply([MultiPoly.zero(ring)] * 9 + [MultiPoly.one(ring)])
    assert all(p.is_zero for p in image[:9])
    assert not image[9].is_zero


def test_gm_multiplication():
    g = group_closure_check(gm_element(Fraction(2)), gm_element(Fraction(3, 5)))
    assert plain(g.lam) == Fraction(6, 5)
    assert all(is_zero(x) for row in g.u for x in row)


def test_ga_composition_is_additive():
    g = group_closure_check(ga_element(1, 2, 3, 4), ga_element(-1, 1, 0, 2))
    expected = ga_element(0, 3, 3, 6)
    assert elements_equal(g, expected)


def test_gm_conjugation_scales_ga():
    lam = Fraction(3)
    conj = group_closure_check(
        group_closure_check(gm_element(lam), ga_element(1, 2, 0, -1)),
        inverse(gm_element(lam)),
    )
    assert elements_equal(conj, ga_element(3, 6, 0, -3))


def test_closure_roundtrip_on_random_pairs():
    rng = random.Random(8)
    for _ in range(500):
        g1, g2 = random_element(rng), random_element(rng)
        product = group_closure_check(g1, g2)
        product.validate()
        roundtrip = decompose_matrix(product.matrix5())
        assert elements_equal(product, roundtrip)


def test_inverse():
    rng = random.Random(9)
    for _ in range(20):
        g = random_element(rng)
        assert elements_equal(group_closure_check(g, inverse(g)), identity_element())


def test_inverse_of_symbolic_element():
    ring = ("a", "b", "c", "d")
    a, b, c, d = (MultiPoly.variable(n, ring) for n in ring)
    g = group_closure_check(pgl_element([[a, b], [c, d]], symbolic_det=True), ga_element(1, 2, 0, -1))
    h = inverse(g)
    assert h.symbolic_det
    product = PolyMatrix(ring, g.matrix5()) * PolyMatrix(ring, h.matrix5())
    identity = identity_matrix(5, ring)
    assert all(vanishes_mod_sl2(x - y) for r, s in zip(product.entries, identity.entries) for x, y in zip(r, s))


def test_symbolic_det_element_times_fractional_element():
    ring = ("a", "b", "c", "d")
    a, b, c, d = (MultiPoly.variable(n, ring) for n in ring)
    s = pgl_element([[a, b], [c, d]], symbolic_det=True)
    h = assemble(Fraction(1, 3), ZERO_U, ONE_G)
    for g1, g2 in ((s, h), (h, s)):
        product = group_closure_check(g1, g2)
        assert product.symbolic_det
        exact = PolyMatrix(ring, g1.matrix5()) * PolyMatrix(ring, g2.matrix5())
        got = PolyMatrix(ring, product.matrix5())
        assert all(vanishes_mod_sl2(x - y) for r, t in zip(got.entries, exact.entries) for x, y in zip(r, t))


def test_elements_equal_mod_global_sign():
    # scaling the 5x5 matrix by -1 sends (lam, U, G) to (-lam, -U, -G)
    g = pgl_element([[0, 1], [-1, 0]])
    h = assemble(-1, [[0, 0], [0, 0], [0, 0]], [[0, -1], [1, 0]])
    assert elements_equal(g, h)
    assert not elements_equal(g, pgl_element([[0, -1], [1, 0]]))


def wedge_squares_equal(g1, g2):
    """Reference equality: the two 10 x 10 wedge squares up to a scalar."""
    flat1 = [x for row in g1.wedge_matrix() for x in row]
    flat2 = [x for row in g2.wedge_matrix() for x in row]
    return projectively_equal(flat1, flat2)


def negated(g):
    """(-lam, -U, -G): the same projective transformation as g."""
    return AutWElement.unchecked(-g.lam, [[-x for x in row] for row in g.u], [[-x for x in row] for row in g.g])


def test_elements_equal_matches_wedge_square_reference():
    rng = random.Random(31)
    for _ in range(40):
        g1, g2 = random_element(rng), random_element(rng)
        product = group_closure_check(g1, g2)
        roundtrip = decompose_matrix(product.matrix5())
        rescaled = AutWElement.unchecked(2 * product.lam, product.u, product.g)
        for a, b in ((product, roundtrip), (product, negated(roundtrip)), (g1, negated(g1))):
            assert elements_equal(a, b) and wedge_squares_equal(a, b)
        for a, b in ((g1, g2), (product, g1), (product, rescaled)):
            assert not elements_equal(a, b) and not wedge_squares_equal(a, b)


def test_orbit_classify_examples():
    assert orbit_classify(E34) is OrbitLabel.OPEN_ORBIT
    assert orbit_classify(WedgePoint.basis_vector(1, 3)) is OrbitLabel.YO_MINUS_RHO
    assert orbit_classify(WedgePoint.basis_vector(1, 2)) is OrbitLabel.RHO_MINUS_QO
    assert orbit_classify(WedgePoint.basis_vector(0, 2)) is OrbitLabel.QO
    assert orbit_classify(WedgePoint.basis_vector(0, 1)) is OrbitLabel.QO


def test_orbit_classify_domain_error():
    with pytest.raises(DomainError):
        orbit_classify(WedgePoint.basis_vector(0, 3))


def test_orbit_invariance_on_random_pairs():
    rng = random.Random(10)
    seeds = [
        E34,
        WedgePoint.basis_vector(1, 3),
        WedgePoint.basis_vector(1, 2),
        WedgePoint.basis_vector(0, 2),
    ]
    for i in range(200):
        base = seeds[i % 4]
        point = wedge_square_action(random_element(rng), base)
        mover = random_element(rng)
        assert orbit_classify(point) is orbit_classify(wedge_square_action(mover, point))


def test_witness_identity():
    wit = orbit_transitivity_witness(E34, E34)
    assert elements_equal(wit, identity_element())


def test_witness_open_orbit():
    rng = random.Random(12)
    for _ in range(10):
        p = wedge_square_action(random_element(rng), E34)
        q = wedge_square_action(random_element(rng), E34)
        wit = orbit_transitivity_witness(p, q)
        assert wedge_square_action(wit, p).proj_eq(q)


def test_witness_qo_rotation_example():
    e02, e01 = WedgePoint.basis_vector(0, 2), WedgePoint.basis_vector(0, 1)
    wit = orbit_transitivity_witness(e02, e01)
    assert wedge_square_action(wit, e02).proj_eq(e01)
    # the quarter-turn matrix is also a valid witness
    rot = pgl_element([[0, 1], [-1, 0]])
    assert wedge_square_action(rot, e02).proj_eq(e01)


def test_witness_qo_random():
    rng = random.Random(13)
    e02 = WedgePoint.basis_vector(0, 2)
    for _ in range(10):
        p = wedge_square_action(random_element(rng), e02)
        q = wedge_square_action(random_element(rng), e02)
        wit = orbit_transitivity_witness(p, q)
        assert wedge_square_action(wit, p).proj_eq(q)


def test_witness_rho_stratum():
    rng = random.Random(14)
    e12 = WedgePoint.basis_vector(1, 2)
    for _ in range(10):
        p = wedge_square_action(random_element(rng), e12)
        q = wedge_square_action(random_element(rng), e12)
        wit = orbit_transitivity_witness(p, q)
        assert wedge_square_action(wit, p).proj_eq(q)


def test_witness_rho_obstruction():
    # (1 : 1 : 1) has discriminant 5, not a rational square: no witness
    p = WedgePoint.from_pairs({(0, 1): 1, (0, 2): 1, (1, 2): 1})
    q = WedgePoint.basis_vector(1, 2)
    with pytest.raises(WitnessError):
        orbit_transitivity_witness(p, q)


def test_witness_label_mismatch():
    with pytest.raises(DomainError):
        orbit_transitivity_witness(E34, WedgePoint.basis_vector(1, 2))


def test_witness_yo_stratum_none():
    e13 = WedgePoint.basis_vector(1, 3)
    assert orbit_transitivity_witness(e13, e13) is None


def test_action_preserves_w():
    rng = random.Random(15)
    for _ in range(20):
        g = random_element(rng)
        p = wedge_square_action(g, E34)
        assert w_membership(p)


def test_element_json_roundtrip():
    rng = random.Random(16)
    g = random_element(rng)
    data = g.to_json()
    h = AutWElement.from_json(data)
    assert elements_equal(g, h)


def test_tangent_wedge_points_classify_as_qo():
    # the conic preserved by the action is exactly the curve of tangent
    # wedges of the sigma-center conic; its rational points land in the qo
    # stratum and are reachable from e02
    from fractions import Fraction as F

    for t in (F(0), F(1), F(-2), F(3, 2)):
        point = WedgePoint.from_pairs({(0, 1): -t * t, (0, 2): 1, (1, 2): 2 * t})
        assert orbit_classify(point) is OrbitLabel.QO
        wit = orbit_transitivity_witness(WedgePoint.basis_vector(0, 2), point)
        assert wedge_square_action(wit, WedgePoint.basis_vector(0, 2)).proj_eq(point)


def wrapped(g):
    """g with every field a constant MultiPoly: the same element, taken
    through the polynomial side of every ring-element operation."""
    c = MultiPoly.constant
    return AutWElement(
        c(g.lam),
        tuple(tuple(map(c, row)) for row in g.u),
        tuple(tuple(map(c, row)) for row in g.g),
    )


def fields(g):
    return [g.lam, *g.u[0], *g.u[1], *g.u[2], *g.g[0], *g.g[1]]


def same_rows(a, b):
    return len(a) == len(b) and all(
        len(r) == len(s) and all(x == y for x, y in zip(r, s)) for r, s in zip(a, b)
    )


def test_plain_and_wrapped_elements_agree():
    rng = random.Random(41)
    points = [E34, WedgePoint.basis_vector(1, 3), WedgePoint.basis_vector(1, 2), WedgePoint.basis_vector(0, 2)]
    for i in range(30):
        g1, g2 = random_element(rng), random_element(rng)
        w1, w2 = wrapped(g1), wrapped(g2)
        assert all(type(x) is MultiPoly for x in fields(w1))
        product = group_closure_check(g1, g2)
        assert fields(product) == fields(group_closure_check(w1, w2))
        assert fields(product) == fields(group_closure_check(g1, w2))
        assert fields(decompose_matrix(product.matrix5())) == fields(decompose_matrix(wrapped(product).matrix5()))
        assert fields(inverse(g1)) == fields(inverse(w1))
        assert same_rows(g1.wedge_matrix(), w1.wedge_matrix())
        assert same_rows(wedge_square_matrix(g1.matrix5()), wedge_square_matrix(w1.matrix5()))
        assert elements_equal(g1, w1) and elements_equal(w1, g1)
        assert elements_equal(g1, g2) == elements_equal(w1, w2) == elements_equal(g1, w2)
        assert elements_equal(product, wrapped(product)) and not elements_equal(wrapped(product), w1)
        p = points[i % 4]
        assert wedge_square_action(g1, p) == wedge_square_action(w1, p)
        q = wedge_square_action(g2, p)
        assert wedge_square_action(g1, q) == wedge_square_action(w1, q)


def test_constant_of_another_ring_meets_a_polynomial():
    s_one = MultiPoly.one(("s",))
    (s,) = variables("s")
    (t,) = variables("t")
    m = PolyMatrix(("t",), [[s_one, t]])
    assert m.entries[0][0] == 1 and m.entries[0][0].vars == ("t",)
    p = WedgePoint.make([s_one, t] + [0] * 8)
    assert all(c.vars == ("t",) for c in p.coords)
    g = ga_element(s_one, t, 0, 0)
    assert all(x.vars == ("t",) for x in fields(g))
    h = AutWElement.unchecked(s_one, [[t, 0], [0, 0], [0, 0]], ONE_G)
    assert h.lam == 1 and all(x.vars == ("t",) for x in fields(h))
    with pytest.raises(ValueError):
        PolyMatrix(("t",), [[s, t]])
    with pytest.raises(ValueError):
        WedgePoint.make([s, t] + [0] * 8)
    with pytest.raises(ValueError):
        ga_element(s, t, 0, 0)
    with pytest.raises(ValueError):
        AutWElement.unchecked(s, [[t, 0], [0, 0], [0, 0]], ONE_G)


def test_numeric_elements_hold_plain_rationals():
    rng = random.Random(42)
    for _ in range(20):
        g1, g2 = random_element(rng), random_element(rng)
        for g in (g1, group_closure_check(g1, g2), inverse(g1), assemble(MultiPoly.constant(2), ZERO_U, ONE_G)):
            for x in fields(g):
                assert type(x) is int or (type(x) is Fraction and x.denominator > 1)


def wrapped_point(p):
    """p with every coordinate a constant MultiPoly (the raw constructor keeps
    them; make would bring them back to plain rationals)."""
    return WedgePoint(tuple(MultiPoly.constant(c) for c in p.coords))


def canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def sample_points(rng):
    """Points of every stratum of W, as images of the four seed points, and
    points off W: random rational points and a rank-four bivector inside
    the 7-space."""
    seeds = [E34, WedgePoint.basis_vector(1, 3), WedgePoint.basis_vector(1, 2), WedgePoint.basis_vector(0, 2)]
    on_w = [wedge_square_action(random_element(rng), seeds[i % 4]) for i in range(16)]
    off_w = [
        WedgePoint.make([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(10)]) for _ in range(8)
    ]
    off_w.append(WedgePoint.from_pairs({(0, 3): 1, (1, 4): 1}))
    return on_w, off_w


def test_plain_and_wrapped_points_agree():
    rng = random.Random(43)
    on_w, off_w = sample_points(rng)
    for p in on_w + off_w:
        w = wrapped_point(p)
        assert all(type(c) is MultiPoly for c in w.coords)
        assert grassmann_membership(p) == grassmann_membership(w)
        assert p7_membership(p) == p7_membership(w)
        assert w_membership(p) == w_membership(w)
        assert normalize_projective(p.coords) == normalize_projective(w.coords)
        assert p.proj_eq(w) and w.proj_eq(p)
        g = random_element(rng)
        assert wedge_square_action(g, p) == wedge_square_action(g, w)
        assert wedge_square_action(wrapped(g), w) == wedge_square_action(g, p)
    for i, p in enumerate(on_w):
        w = wrapped_point(p)
        assert orbit_classify(p) is orbit_classify(w)
        q = on_w[(i + 4) % len(on_w)]
        witness = orbit_transitivity_witness(p, q)
        witness_w = orbit_transitivity_witness(w, wrapped_point(q))
        if witness is None:
            assert witness_w is None
            continue
        assert fields(witness) == fields(witness_w)
        assert wedge_square_action(witness_w, w).proj_eq(q)


def exact_product(g1, g2):
    """Reference group law: the exact matrix5() of both factors multiplied in
    Fraction arithmetic, then decomposed."""
    a, b = g1.matrix5(), g2.matrix5()
    return decompose_matrix([[sum(a[i][k] * b[k][j] for k in range(5)) for j in range(5)] for i in range(5)])


def flat(rows):
    return [x for row in rows for x in row]


def sample_elements(rng):
    """Random elements, their inverses (fractional U) and elements whose G
    has fractional entries."""
    out = []
    for _ in range(20):
        g = random_element(rng)
        r = Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 3, 5]))
        diag = assemble(Fraction(rng.randint(1, 4), rng.randint(1, 3)), ZERO_U, [[r, 0], [0, 1 / r]])
        out += [g, inverse(g), group_closure_check(diag, g)]
    return out


def test_integer_representatives_match_the_exact_group_law():
    rng = random.Random(44)
    elements = sample_elements(rng)
    for i, a in enumerate(elements):
        b = elements[(i * 7 + 3) % len(elements)]
        rep, exact = flat(a.integer_matrix5()), flat(a.matrix5())
        assert all(type(x) is int for x in rep)
        ref = next(k for k, x in enumerate(exact) if x)
        scale = Fraction(rep[ref]) / exact[ref]
        assert scale > 0 and scale.denominator == 1
        assert all(x == scale * y for x, y in zip(rep, exact))
        product = group_closure_check(a, b)
        assert fields(product) == fields(exact_product(a, b))
        assert fields(decompose_matrix(product.integer_matrix5())) == fields(product)
        assert fields(decompose_matrix(product.matrix5())) == fields(product)
        scaled = [[Fraction(3, 2) * x for x in row] for row in product.matrix5()]
        assert fields(decompose_matrix(scaled)) == fields(product)
        for g, h in ((a, b), (product, exact_product(a, b)), (a, negated(a)), (product, a)):
            assert elements_equal(g, h) == projectively_equal(flat(g.matrix5()), flat(h.matrix5()))
        assert elements_equal(product, exact_product(a, b)) and elements_equal(a, negated(a))


def test_points_and_witnesses_hold_no_floats():
    rng = random.Random(45)
    on_w, off_w = sample_points(rng)
    for p in on_w + off_w:
        assert all(canonical(c) for c in p.coords)
    for p in on_w:
        assert all(type(c) is int for c in p.coords)
    for i, p in enumerate(on_w):
        witness = orbit_transitivity_witness(p, on_w[(i + 4) % len(on_w)])
        assert witness is None or all(canonical(x) for x in fields(witness))
    # coordinates whose exact quotients are not integers: 1 / x34 with
    # x34 = 2, and x12 / (2 x02) = 12 / 8 on the invariant conic
    open_point = WedgePoint.make([2 * c for c in orbit_formula(Fraction(1, 2), 3, 0, 1).coords])
    conic_point = WedgePoint.from_pairs({(0, 1): -9, (0, 2): 4, (1, 2): 12})
    rho_point = WedgePoint.from_pairs({(0, 1): 2, (0, 2): 1, (1, 2): 1})
    for p, seed in ((open_point, E34), (conic_point, WedgePoint.basis_vector(0, 2)), (rho_point, WedgePoint.basis_vector(1, 2))):
        for witness in (orbit_transitivity_witness(seed, p), orbit_transitivity_witness(p, seed)):
            assert all(canonical(x) for x in fields(witness))
        assert wedge_square_action(orbit_transitivity_witness(seed, p), seed).proj_eq(p)
    made = WedgePoint.make([Fraction(4, 2), MultiPoly.constant(3), Fraction(1, 2)] + [0] * 7)
    assert [type(c) for c in made.coords[:3]] == [int, int, Fraction]
    assert all(type(c) is int for c in WedgePoint.basis_vector(2, 4).coords)
    flipped = WedgePoint.from_pairs({(1, 0): Fraction(2, 1)}).coords
    assert flipped[0] == -2 and all(type(c) is int for c in flipped)
