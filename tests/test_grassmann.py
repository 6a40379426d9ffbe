import random
from fractions import Fraction

import pytest

from fanocalc.errors import DegeneracyError, DomainError
from fanocalc.grassmann import (
    RHO_PLANE_PAIRS,
    PlaneOnW,
    SkewFormPencil,
    WedgePoint,
    canonical_pencil,
    conic_of_centers,
    dual_conic_residual,
    grassmann_membership,
    invariant_conic_residual,
    p7_membership,
    pencil_rank_certificate,
    pfaffian_relations,
    plucker_embed,
    sigma_center,
    sigma_plane,
    tangent_wedge,
    w_membership,
)
from fanocalc.matrices import PolyMatrix
from fanocalc.polynomials import MultiPoly, is_zero, plain, projectively_equal, variables

from oracles import bivector_rank


def unit(i):
    return [Fraction(1 if k == i else 0) for k in range(5)]


def test_plucker_basis_vector():
    p = plucker_embed(unit(3), unit(4))
    assert p.proj_eq(WedgePoint.basis_vector(3, 4))
    assert p.coord(3, 4) == 1 and p.coord(4, 3) == -1


def test_plucker_bilinearity():
    v = [Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    p = plucker_embed(unit(0), v)
    expected = WedgePoint.from_pairs({(0, 1): 1, (0, 2): 1})
    assert p.proj_eq(expected)


def test_plucker_degenerate_error():
    with pytest.raises(DegeneracyError):
        plucker_embed(unit(2), [2 * c for c in unit(2)])


def test_plucker_always_on_grassmannian():
    rng = random.Random(11)
    for _ in range(50):
        u = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        try:
            p = plucker_embed(u, v)
        except DegeneracyError:
            continue
        assert grassmann_membership(p)


def test_membership_examples():
    assert grassmann_membership(WedgePoint.basis_vector(3, 4))
    assert not grassmann_membership(WedgePoint.from_pairs({(0, 1): 1, (2, 3): 1}))
    assert w_membership(WedgePoint.basis_vector(3, 4))
    assert not w_membership(WedgePoint.basis_vector(0, 3))


def test_rank_four_bivector_is_not_on_w():
    # x03 = x14 and x04 = x23 hold, but the bivector has rank 4, so it fails
    # the five quadrics: the point lies in the 7-space yet off the fourfold
    p = WedgePoint.from_pairs({(0, 3): 1, (1, 4): 1})
    assert p7_membership(p)
    assert bivector_rank([plain(c) for c in p.coords]) == 4
    assert not grassmann_membership(p)
    assert not w_membership(p)


def test_pfaffian_matches_rank_oracle_on_random_points():
    # 100 points on the Grassmannian, 100 perturbed off it; membership via
    # the five quadrics must agree with the independent rank-of-skew-matrix
    # oracle on every one
    rng = random.Random(23)
    on_g = 0
    off_g = 0
    while on_g < 100 or off_g < 100:
        u = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        v = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        try:
            p = plucker_embed(u, v)
        except DegeneracyError:
            continue
        coords = [plain(c) for c in p.coords]
        if on_g < 100:
            assert grassmann_membership(p)
            assert bivector_rank(coords) <= 2
            on_g += 1
        if off_g < 100:
            bumped = list(coords)
            slot = rng.randrange(10)
            bumped[slot] = bumped[slot] + rng.choice([1, -1, 2])
            q = WedgePoint.make(bumped)
            q_coords = [plain(c) for c in q.coords]
            assert grassmann_membership(q) == (bivector_rank(q_coords) <= 2)
            off_g += 1


def test_symbolic_orbit_points_on_grassmannian():
    from fanocalc.autw import orbit_formula

    ring = ("u", "v", "x", "y")
    u, v, x, y = (MultiPoly.variable(n, ring) for n in ring)
    p = orbit_formula(u, v, x, y)
    assert all(q.is_zero for q in pfaffian_relations(p))
    assert w_membership(p)


def test_canonical_pencil_certificate():
    assert pencil_rank_certificate(canonical_pencil()) == (4, True)


def test_degenerate_pencil_certificates():
    zero5 = PolyMatrix((), [[0] * 5 for _ in range(5)])
    rank2 = [[Fraction(0)] * 5 for _ in range(5)]
    rank2[0][1], rank2[1][0] = Fraction(1), Fraction(-1)
    pen = SkewFormPencil(PolyMatrix((), rank2), zero5)
    assert pencil_rank_certificate(pen) == (2, False)
    with pytest.raises(DegeneracyError):
        conic_of_centers(pen)


def test_pencil_with_rank_drop_member():
    # generic rank 4 but one member of rank 2: certificate must refuse
    h0 = [[Fraction(0)] * 5 for _ in range(5)]
    for (i, j) in ((0, 1), (2, 3)):
        h0[i][j] = Fraction(1)
        h0[j][i] = Fraction(-1)
    h1 = [[Fraction(0)] * 5 for _ in range(5)]
    h1[2][3] = Fraction(-1)
    h1[3][2] = Fraction(1)
    # conjugate by a unimodular matrix to hide the block shape
    s = [
        [1, 2, 0, 0, 1],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 3, 0],
        [1, 0, 0, 1, 0],
        [0, 0, 1, 0, 1],
    ]
    sm = PolyMatrix((), [[Fraction(x) for x in row] for row in s])

    def conj(h):
        return sm.transpose() * PolyMatrix((), h) * sm

    pen = SkewFormPencil(conj(h0), conj(h1))
    rank, everywhere = pencil_rank_certificate(pen)
    assert rank == 4
    assert everywhere is False


def test_conic_of_centers_canonical():
    kernel = conic_of_centers(canonical_pencil())
    t0, t1 = variables("t0 t1")
    display = (-(t0 * t1), -(t1 * t1), t0 * t0, MultiPoly.zero(("t0", "t1")), MultiPoly.zero(("t0", "t1")))
    assert projectively_equal(kernel, display)
    assert max(p.total_degree() for p in kernel if not p.is_zero) == 2
    assert [i for i, p in enumerate(kernel) if not p.is_zero] == [0, 1, 2]
    # the kernel annihilates the pencil identically
    image = canonical_pencil().matrix().apply(kernel)
    assert all(p.is_zero for p in image)


def test_conic_of_centers_equivariance_under_permutation():
    pen = canonical_pencil()
    # permute e0..e4 by a cycle and conjugate both members
    perm = [1, 2, 0, 4, 3]
    p = [[Fraction(1 if perm[j] == i else 0) for j in range(5)] for i in range(5)]
    pm = PolyMatrix((), p)
    moved = SkewFormPencil(
        pm.transpose() * pen.h0 * pm, pm.transpose() * pen.h1 * pm
    )
    kernel = conic_of_centers(pen)
    moved_kernel = conic_of_centers(moved)
    # conjugating by P transports the kernel by P^{-1}: entry i moves from
    # slot perm[i]
    permuted = tuple(kernel[perm[i]] for i in range(5))
    assert projectively_equal(moved_kernel, permuted)


def test_tangent_wedge_on_dual_conic():
    kernel = conic_of_centers(canonical_pencil())
    wedge = WedgePoint(tangent_wedge(kernel))
    assert dual_conic_residual(wedge).is_zero
    assert w_membership(wedge)
    assert wedge.in_rho_plane_span()
    # and it is off the action-invariant conic except at the endpoints
    assert not invariant_conic_residual(wedge).is_zero


def test_sigma_center_is_forced_by_membership():
    # a sigma plane through any center NOT on the center conic leaves W
    ring = ("al", "be", "ga", "de")
    al, be, ga, de = (MultiPoly.variable(n, ring) for n in ring)
    bad_center = tuple(
        MultiPoly.constant(c, ring) for c in (Fraction(1), Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    )
    from fanocalc.grassmann import PlaneOnW

    one, zero = MultiPoly.one(ring), MultiPoly.zero(ring)
    e = lambda k: tuple(one if i == k else zero for i in range(5))
    extra = tuple(one if i == 3 else zero for i in range(5))
    bad = PlaneOnW(center=bad_center, hyperplane=(e(0), e(1), e(2), extra))
    pt = bad.wedge_points([al, be, ga, de])
    assert not w_membership(pt)


def test_sigma_plane_symbolic_membership():
    ring = ("al", "be", "ga", "de", "t0", "t1")
    al, be, ga, de, t0, t1 = (MultiPoly.variable(n, ring) for n in ring)
    plane = sigma_plane(t0, t1)
    point = plane.wedge_points([al, be, ga, de])
    assert w_membership(point)
    assert is_zero(point.coord(3, 4))


def test_sigma_plane_endpoints():
    c = sigma_center(
        MultiPoly.variable("t0", ("t0", "t1")), MultiPoly.variable("t1", ("t0", "t1"))
    )
    at0 = [p.eval_some({"t1": 0}).eval_some({"t0": 1}).constant_value() for p in c]
    at1 = [p.eval_some({"t0": 0}).eval_some({"t1": 1}).constant_value() for p in c]
    assert at0 == [0, 0, 1, 0, 0]
    assert at1 == [0, 1, 0, 0, 0]


def test_sigma_plane_meets_rho_plane_in_conic_tangent_line():
    ring = ("mu", "nu", "t0", "t1")
    mu, nu, t0, t1 = (MultiPoly.variable(n, ring) for n in ring)
    plane = sigma_plane(t0, t1)
    zero = MultiPoly.zero(ring)
    point = plane.wedge_points([mu, nu, zero, zero])
    # the point stays in the rho plane for all weights
    assert point.in_rho_plane_span()
    # the invariant conic restricted to this line is a perfect square:
    # discriminant in (mu, nu) vanishes identically
    res = invariant_conic_residual(point)

    def coeff(p, e_mu, e_nu):
        idx_mu, idx_nu = ring.index("mu"), ring.index("nu")
        terms = {
            tuple(0 if i in (idx_mu, idx_nu) else v for i, v in enumerate(e)): c
            for e, c in p.terms.items()
            if e[idx_mu] == e_mu and e[idx_nu] == e_nu
        }
        return MultiPoly(ring, terms)

    a2, b11, c2 = coeff(res, 2, 0), coeff(res, 1, 1), coeff(res, 0, 2)
    assert (b11 * b11 - 4 * a2 * c2).is_zero
    # ... and the double root sits exactly at the tangent-wedge point:
    # the tangent direction of the center conic at (t0 : t1) is
    # t0 e0 + 2 t1 e1, so the conic residual vanishes at (mu, nu) = (t0, 2 t1)
    at_contact = res.compose(
        {
            "mu": MultiPoly.variable("t0", ("t0", "t1")),
            "nu": 2 * MultiPoly.variable("t1", ("t0", "t1")),
            "t0": MultiPoly.variable("t0", ("t0", "t1")),
            "t1": MultiPoly.variable("t1", ("t0", "t1")),
        }
    )
    assert at_contact.is_zero


def test_rho_plane_points_on_w():
    ring = ("p", "q", "r")
    p, q, r = (MultiPoly.variable(n, ring) for n in ring)
    point = WedgePoint.from_pairs(dict(zip(RHO_PLANE_PAIRS, [p, q, r])))
    assert w_membership(point)
    assert point.in_rho_plane_span()


def test_wedge_point_validation():
    with pytest.raises(DomainError):
        WedgePoint.make([Fraction(0)] * 10)
    with pytest.raises(DomainError):
        WedgePoint.make([Fraction(1)] * 9)
    p = WedgePoint.from_pairs({(1, 0): 1})
    assert p.coord(0, 1) == -1


def test_rho_plane_pairs_constant():
    assert RHO_PLANE_PAIRS == ((0, 1), (0, 2), (1, 2))
