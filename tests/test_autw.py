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
from fanocalc.grassmann import WedgePoint, w_membership
from fanocalc.matrices import PolyMatrix
from fanocalc.polynomials import MultiPoly, is_zero, plain, projectively_equal, variables


E34 = WedgePoint.basis_vector(3, 4)
ZERO_U = [[0, 0], [0, 0], [0, 0]]
ONE_G = [[1, 0], [0, 1]]


def identity_element():
    return assemble(1, ZERO_U, ONE_G)


def gm_element(lam):
    return assemble(lam, ZERO_U, ONE_G)


def test_assemble_identity():
    g = identity_element()
    assert PolyMatrix((), g.matrix5()) == PolyMatrix.identity(5)


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
    identity = PolyMatrix.identity(5, ring)
    assert all(vanishes_mod_sl2(x - y) for r, s in zip(product.entries, identity.entries) for x, y in zip(r, s))


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
