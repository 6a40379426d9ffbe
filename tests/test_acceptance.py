"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold (run with
`pytest tests/test_acceptance.py -v -s` to see them) and pins the stated
time budget.  All comparisons are exact: integers, booleans, or identical
polynomial vanishing; the only sampled criterion (the determinantal split)
pins its seed and its 18-of-20 success floor.
"""

import random
import time

from fanocalc import autw, birational, quadrics, schubert
from fanocalc.grassmann import (
    WedgePoint,
    canonical_pencil,
    conic_of_centers,
    dual_conic_residual,
    pencil_rank_certificate,
    tangent_wedge,
)
from fanocalc.matrices import PolyMatrix, det_bareiss
from fanocalc.polynomials import MultiPoly, projectively_equal, variables

from oracles import det_cofactor, lr_multiply
from test_matrices import random_poly_matrix


def _report(num, label, start):
    print(f"ACCEPTANCE {num} PASS: {label} ({time.time() - start:.2f}s)")


def test_criterion_1_schubert_table():
    start = time.time()
    table = schubert.sigma1_power_table()
    assert table[6].terms == {(3, 3): 5}
    assert schubert.degree_pairing(table[6].scale(2)) == 10
    s2 = schubert.SchubertClass.sigma(2)
    s11 = schubert.SchubertClass.sigma(1, 1)
    assert schubert.degree_pairing(schubert.multiply(s2, table[4]).scale(2)) == 6
    assert schubert.degree_pairing(schubert.multiply(s11, table[4]).scale(2)) == 4
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, "sigma_1^6 = 5 s(3,3); pairings 10 / 6 / 4", start)


def test_criterion_2_rank_certificates():
    start = time.time()
    assert pencil_rank_certificate(canonical_pencil()) == (4, True)
    assert quadrics.pfaffian_pencil_canonical().rank_certificate() == (6, True)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, "skew pencil rank (4, everywhere); quadric pencil rank (6, everywhere)", start)


def test_criterion_3_kernel_parametrizations():
    start = time.time()
    t0, t1 = variables("t0 t1")
    zero = MultiPoly.zero(("t0", "t1"))
    kernel = conic_of_centers(canonical_pencil())
    display = (-(t0 * t1), -(t1 * t1), t0 * t0, zero, zero)
    assert projectively_equal(kernel, display)
    vec, degree = quadrics.vertex_curve(quadrics.pfaffian_pencil_canonical())
    assert degree == 3
    cubic = [zero] * 7
    cubic[quadrics.P6_INDEX["x13"]] = t0**3
    cubic[quadrics.P6_INDEX["x03"]] = -(t0**2) * t1
    cubic[quadrics.P6_INDEX["x04"]] = t0 * t1**2
    cubic[quadrics.P6_INDEX["x24"]] = -(t1**3)
    assert projectively_equal(vec, cubic)
    _report(3, "kernel conic and vertex twisted cubic match the pinned parametrizations", start)


def test_criterion_4_dual_conic():
    start = time.time()
    kernel = conic_of_centers(canonical_pencil())
    wedge = WedgePoint(tangent_wedge(kernel))
    assert dual_conic_residual(wedge).is_zero
    _report(4, "tangent wedge satisfies x12^2 - 4 x01 x02 = 0 identically", start)


def test_criterion_5_group_verification():
    start = time.time()
    family = autw.symbolic_family()
    defects = autw.p7_defect(family)
    assert len(defects) == 16
    assert all(autw.vanishes_mod_sl2(d) for d in defects)
    ring = ("u", "v", "x", "y")
    u, v, x, y = (MultiPoly.variable(n, ring) for n in ring)
    raw = autw.wedge_square_action_raw(
        autw.ga_element(u, v, x, y), WedgePoint.basis_vector(3, 4)
    )
    formula = autw.orbit_formula(u, v, x, y)
    assert all((a - b).is_zero for a, b in zip(raw.coords, formula.coords))
    sring = ("a", "b", "c", "d", "lam")
    a, b, c, d, lam = (MultiPoly.variable(n, sring) for n in sring)
    stab = autw.AutWElement.unchecked(
        lam, [[0, 0], [0, 0], [0, 0]], [[a, b], [c, d]], symbolic_det=True
    )
    image = PolyMatrix(sring, stab.wedge_matrix()).apply(
        [MultiPoly.zero(sring)] * 9 + [MultiPoly.one(sring)]
    )
    assert all(p.is_zero for p in image[:9]) and not image[9].is_zero
    rng = random.Random(0)
    seeds = [
        WedgePoint.basis_vector(3, 4),
        WedgePoint.basis_vector(1, 3),
        WedgePoint.basis_vector(1, 2),
        WedgePoint.basis_vector(0, 2),
    ]
    for i in range(200):
        point = autw.wedge_square_action(autw.random_element(rng), seeds[i % 4])
        mover = autw.random_element(rng)
        assert autw.orbit_classify(point) is autw.orbit_classify(
            autw.wedge_square_action(mover, point)
        )
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(5, "16 polynomials vanish on both charts; orbit formula, stabilizer, 200 invariance pairs", start)


def test_criterion_6_line_pipeline():
    start = time.time()
    x = birational.initial_state_x10()
    xp = birational.blow_up_curve(x, birational.CurveData(0, 1, -1, "line"))
    assert xp.basis_table() == (10, 0, -1, 1)
    reb = birational.change_basis(xp, [[1, -1], [1, -2]], ("-K", "M"))
    assert reb.basis_table() == (6, 3, -2, -10)
    curves = [birational.FloppedCurve(f"l{i}", (0, -1)) for i in range(11)]
    flopped = birational.apply_flop(reb, curves)
    assert flopped.basis_table() == (6, 3, -2, 1)
    adjunction = birational.m_cubed_by_adjunction(flopped, (0, 1))
    assert adjunction == 1 == flopped.basis_table()[3]
    assert birational.contract_ruled_to_curve(flopped, (0, 1)) == (10, 1)
    _report(6, "line pipeline tables, deg Y = 10, deg center = 1, flop = adjunction = 1", start)


def test_criterion_7_conic_pipeline():
    start = time.time()
    x = birational.initial_state_x10()
    xp = birational.blow_up_curve(x, birational.CurveData(0, 2, -2, "conic"))
    assert xp.basis_table() == (10, 0, -2, 0)
    reb = birational.change_basis(xp, [[1, -1], [2, -3]], ("-K", "M"))
    assert reb.basis_table() == (4, 4, -2, -28)
    # validation route for M^3 is adjunction; the flop over the K-trivial
    # curves (20 lines and the involutive conic) reproduces the same table
    m3 = birational.m_cubed_by_adjunction(reb, (0, 1))
    assert m3 == 0
    flopped = birational.apply_flop(
        reb,
        [birational.FloppedCurve(f"l{i}", (0, -1)) for i in range(20)]
        + [birational.FloppedCurve("q~", (0, -2))],
    )
    assert flopped.basis_table() == (4, 4, -2, m3) == (4, 4, -2, 0)
    assert birational.contract_ruled_to_curve(flopped, (0, 1)) == (10, 2)
    _report(7, "conic pipeline tables (adjunction route), deg Y = 10, deg center = 2", start)


def test_criterion_8_node_pipeline():
    start = time.time()
    xp = birational.blow_up_node(birational.initial_state_x10())
    mk = xp.minus_k()
    assert xp.triple_product(mk, mk, mk) == 8
    assert birational.curve_divisor_intersection(4, 2, (1, 2)) == 0
    assert birational.curve_divisor_intersection(4, 2, (1, 1)) == 2
    _report(8, "nodal projection degree 8; quartic fibers meet D in 0 and -K in 2", start)


def test_criterion_9_determinantal_split():
    start = time.time()
    rng = random.Random(0)
    successes = 0
    for _ in range(20):
        run = quadrics.sample_net_split(rng)
        if (
            run["ok"]
            and run["septic_degree"] == 7
            and run["sextic_degree"] == 6
            and run["line_intersection_count"] == 6
            and run["line_intersection_distinct"]
        ):
            successes += 1
    assert successes >= 18
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, f"{successes}/20 seeded nets: septic = line + squarefree sextic (6 points)", start)


def test_criterion_10_oracle_equivalence():
    start = time.time()
    spec = schubert.G25
    for lam in spec.box_partitions():
        for mu in spec.box_partitions():
            ring = schubert.multiply(
                schubert.SchubertClass(spec, {lam: 1}),
                schubert.SchubertClass(spec, {mu: 1}),
            ).terms
            assert dict(ring) == lr_multiply(2, 3, lam, mu)
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = random_poly_matrix(rng, n)
        assert det_cofactor(m) == det_bareiss(m)
    _report(10, "Schubert multiply = LR tableaux on all pairs; cofactor = fraction-free on 50 matrices", start)
