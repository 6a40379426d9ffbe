import random
from fractions import Fraction

import pytest

from fanocalc.errors import DegeneracyError, DomainError, SplitError
from fanocalc.grassmann import SkewFormPencil
from fanocalc.matrices import PolyMatrix, det_bareiss, poly_det
from fanocalc.polynomials import MultiPoly, projectively_equal, variables
from fanocalc.quadrics import (
    NET_PARAMS,
    P6_COORDS,
    P6_INDEX,
    PlaneCurve,
    QuadricForm,
    QuadricNet,
    QuadricPencil,
    build_net,
    common_subspace_p3o,
    determinantal_codim,
    determinantal_septic,
    pfaffian_pencil_canonical,
    random_quadric,
    sample_net_split,
    septic_split,
    vertex_curve,
)
from fanocalc.scenarios import Context, load_golden, run_scenario

from oracles import evaluate


def test_pencil_ranks_and_vertices():
    pen = pfaffian_pencil_canonical()
    assert pen.a.rank() == 6
    assert pen.b.rank() == 6
    # the kernel of the first quadric is the coordinate point whose variable
    # is absent from the form (x13); of the second, x24
    v_a = pen.a.vertex()
    v_b = pen.b.vertex()
    assert [i for i, p in enumerate(v_a) if not p.is_zero] == [P6_INDEX["x13"]]
    assert [i for i, p in enumerate(v_b) if not p.is_zero] == [P6_INDEX["x24"]]


def test_vertex_index_pins_match_the_derived_vertices():
    # the golden pins name the coordinate point each quadric is singular at;
    # no scenario step reads them, so they are re-derived here
    golden = load_golden()
    pen = pfaffian_pencil_canonical()
    for form, claim in ((pen.a, "quadrics.vertex_P_o_index"), (pen.b, "quadrics.vertex_P_inf_index")):
        support = [P6_COORDS[i] for i, p in enumerate(form.vertex()) if not p.is_zero]
        assert support == [golden[claim]]


def test_pencil_certificate():
    assert pfaffian_pencil_canonical().rank_certificate() == (6, True)


def test_pencil_displayed_expansion():
    # t0*P_o + t1*P_inf == x01(t0 x24 + t1 x04) - x02(t0 x03 + t1 x13)
    #                        + x12(t0 x04 + t1 x03)
    pen = pfaffian_pencil_canonical()
    m = pen.matrix()
    ring = tuple(P6_COORDS) + ("t0", "t1")
    xs = {n: MultiPoly.variable(n, ring) for n in P6_COORDS}
    t0, t1 = MultiPoly.variable("t0", ring), MultiPoly.variable("t1", ring)
    quad = MultiPoly.zero(ring)
    for i in range(7):
        for j in range(7):
            g = m.entries[i][j]
            coeff = MultiPoly.zero(ring)
            for e, c in g.terms.items():
                coeff = coeff + MultiPoly(("t0", "t1"), {e: c}).lift(ring)
            quad = quad + coeff * xs[P6_COORDS[i]] * xs[P6_COORDS[j]]
    displayed = (
        xs["x01"] * (t0 * xs["x24"] + t1 * xs["x04"])
        - xs["x02"] * (t0 * xs["x03"] + t1 * xs["x13"])
        + xs["x12"] * (t0 * xs["x04"] + t1 * xs["x03"])
    )
    assert quad == displayed


def test_vertex_curve_is_twisted_cubic():
    vec, degree = vertex_curve(pfaffian_pencil_canonical())
    assert degree == 3
    t0, t1 = variables("t0 t1")
    zero = MultiPoly.zero(("t0", "t1"))
    display = [zero] * 7
    display[P6_INDEX["x13"]] = t0**3
    display[P6_INDEX["x03"]] = -(t0**2) * t1
    display[P6_INDEX["x04"]] = t0 * t1**2
    display[P6_INDEX["x24"]] = -(t1**3)
    assert projectively_equal(vec, display)
    # endpoints
    at0 = [p.eval_some({"t0": 1, "t1": 0}).constant_value() for p in vec]
    at1 = [p.eval_some({"t0": 0, "t1": 1}).constant_value() for p in vec]
    assert [i for i, c in enumerate(at0) if c] == [P6_INDEX["x13"]]
    assert [i for i, c in enumerate(at1) if c] == [P6_INDEX["x24"]]
    # the four coefficient forms span the full space of binary cubics, so the
    # image spans exactly the common 3-space
    support = [i for i, p in enumerate(vec) if not p.is_zero]
    assert support == sorted(P6_INDEX[n] for n in ("x03", "x04", "x13", "x24"))


def test_vertex_curve_annihilates_pencil():
    pen = pfaffian_pencil_canonical()
    vec, _ = vertex_curve(pen)
    image = pen.matrix().apply(vec)
    assert all(p.is_zero for p in image)


def test_vertex_curve_requires_rank_six():
    deg = QuadricForm.from_coefficients({("x01", "x01"): 1})
    from fanocalc.quadrics import QuadricPencil

    pen = QuadricPencil(deg, QuadricForm.from_coefficients({("x02", "x02"): 1}))
    with pytest.raises(DegeneracyError):
        vertex_curve(pen)


def test_pencil_contains_common_subspace():
    pen = pfaffian_pencil_canonical()
    span = common_subspace_p3o()
    assert pen.a.restrict_to_span(span).is_zero
    assert pen.b.restrict_to_span(span).is_zero
    # and not, say, the span enlarged by x01
    bigger = span + (tuple(1 if i == 0 else 0 for i in range(7)),)
    assert not pen.a.restrict_to_span(bigger).is_zero


def test_build_net_rejects_dependent_quadric():
    pen = pfaffian_pencil_canonical()
    with pytest.raises(DegeneracyError):
        build_net(pen.a)
    mix = QuadricForm(pen.a.gram.scale(2) + pen.b.gram.scale(-3))
    with pytest.raises(DegeneracyError):
        build_net(mix)


def test_build_net_random_is_valid():
    rng = random.Random(4)
    net = build_net(random_quadric(rng))
    assert len(net.generators) == 3


def sum_of_products(params, members):
    """sum params[k] * members[k], entry by entry in MultiPoly arithmetic: how
    the net and pencil matrices were built before they were built term by
    term."""
    gens = [MultiPoly.variable(v, params) for v in params]
    return [
        [
            sum((g.entries[i][j] * s for g, s in zip(members, gens)), MultiPoly.zero(params))
            for j in range(members[0].cols)
        ]
        for i in range(members[0].rows)
    ]


def test_net_and_pencil_matrices_equal_sums_of_products():
    rng = random.Random(12)
    assert pfaffian_pencil_canonical() is pfaffian_pencil_canonical()
    for _ in range(3):
        net = build_net(random_quadric(rng))
        pencil = QuadricPencil(random_quadric(rng), random_quadric(rng))
        skew = []
        for _ in range(2):
            grid = [[Fraction(0)] * 5 for _ in range(5)]
            for i in range(5):
                for j in range(i + 1, 5):
                    grid[i][j] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                    grid[j][i] = -grid[i][j]
            skew.append(PolyMatrix((), grid))
        skew_pencil = SkewFormPencil(*skew)
        for built, params, members in (
            (net.matrix(), net.params, [g.gram for g in net.generators]),
            (pencil.matrix(), pencil.params, [pencil.a.gram, pencil.b.gram]),
            (skew_pencil.matrix(), skew_pencil.params, skew),
        ):
            reference = sum_of_products(params, members)
            assert built.vars == params
            assert [[p.terms for p in row] for row in built.entries] == [[p.terms for p in row] for row in reference]


def test_determinantal_septic_degree():
    rng = random.Random(5)
    septic = determinantal_septic(build_net(random_quadric(rng)))
    assert septic.degree == 7


def test_diagonal_net_septic_is_product_of_lines():
    # three diagonal quadrics: the determinant is the product of the seven
    # diagonal linear forms
    rng = random.Random(6)
    diags = []
    for _ in range(3):
        diags.append([rng.randint(1, 5) for _ in range(7)])
    gens = tuple(
        QuadricForm.from_coefficients(
            {(P6_COORDS[i], P6_COORDS[i]): d[i] for i in range(7)}
        )
        for d in diags
    )
    net = QuadricNet(gens)
    septic = determinantal_septic(net)
    svars = [MultiPoly.variable(n, NET_PARAMS) for n in NET_PARAMS]
    product = MultiPoly.one(NET_PARAMS)
    for i in range(7):
        product = product * sum(
            (Fraction(d[i]) * s for d, s in zip(diags, svars)), MultiPoly.zero(NET_PARAMS)
        )
    assert septic.form == product.monic_normal()


def test_septic_split_canonical():
    rng = random.Random(7)
    septic = determinantal_septic(build_net(random_quadric(rng)))
    line = MultiPoly.variable("s2", NET_PARAMS)
    residual, (count, distinct) = septic_split(septic, line)
    assert residual.degree == 6
    assert count == 6
    assert distinct is True


def test_septic_split_errors():
    s0, s1, s2 = variables(NET_PARAMS)
    curve = PlaneCurve((s0 * s1 * s2).monic_normal(), 3)
    with pytest.raises(SplitError):
        septic_split(curve, s0 + s1)
    double = PlaneCurve((s2 * s2 * s0), 3)
    with pytest.raises(SplitError):
        septic_split(double, s2)
    with pytest.raises(DomainError):
        septic_split(curve, s0 * s1)


def test_septic_split_non_squarefree_case():
    s0, s1, s2 = variables(NET_PARAMS)
    curve = PlaneCurve(s2 * (s0 + s1) ** 6, 7)
    residual, (count, distinct) = septic_split(curve, s2)
    assert residual.degree == 6
    assert count == 6
    assert distinct is False


def test_determinantal_codim():
    assert determinantal_codim(6) == 1
    assert determinantal_codim(5) == 3
    assert determinantal_codim(5) - determinantal_codim(6) == 2
    assert determinantal_codim(1) == 21
    with pytest.raises(DomainError):
        determinantal_codim(0)
    with pytest.raises(DomainError):
        determinantal_codim(7)


def test_septic_congruence_covariance():
    # a change of coordinates on P^6 multiplies the determinant by det^2
    rng = random.Random(8)
    net = build_net(random_quadric(rng))
    septic = poly_det(net.matrix())
    p = [[Fraction(rng.randint(-2, 2)) for _ in range(7)] for _ in range(7)]
    pm = PolyMatrix((), p)
    dp = poly_det(pm).constant_value()
    if dp == 0:
        pytest.skip("singular sample transform")
    moved = QuadricNet(
        tuple(QuadricForm(pm.transpose() * g.gram * pm) for g in net.generators)
    )
    moved_septic = poly_det(moved.matrix())
    assert moved_septic == septic * (dp * dp)


def test_septic_determinant_divides_no_polynomial(monkeypatch):
    # the septic's rows are linear forms, so poly_det interpolates integer
    # point determinants and never calls MultiPoly.div_exact
    net = build_net(random_quadric(random.Random(8)))
    m = net.matrix()
    calls = []
    div_exact = MultiPoly.div_exact

    def counted(self, divisor):
        calls.append(divisor)
        return div_exact(self, divisor)

    monkeypatch.setattr(MultiPoly, "div_exact", counted)
    septic = poly_det(m)
    assert calls == []
    assert septic == det_bareiss(m) and calls


def test_septic_parameter_substitution_consistency():
    rng = random.Random(9)
    net = build_net(random_quadric(rng))
    septic = poly_det(net.matrix())
    m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    for trial in range(5):
        pt = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        moved_pt = {
            NET_PARAMS[i]: sum(Fraction(m[i][j]) * pt[j] for j in range(3))
            for i in range(3)
        }
        direct = evaluate(septic, moved_pt)
        # the net re-expressed in transformed parameters agrees pointwise
        regens = []
        for i in range(3):
            acc = net.generators[0].gram.scale(m[0][i])
            acc = acc + net.generators[1].gram.scale(m[1][i])
            acc = acc + net.generators[2].gram.scale(m[2][i])
            regens.append(acc)
        combo = regens[0].scale(pt[0]) + regens[1].scale(pt[1]) + regens[2].scale(pt[2])
        assert poly_det(combo).constant_value() == direct


def test_sample_net_split_seeded():
    rng = random.Random(0)
    report = sample_net_split(rng)
    assert report["ok"]
    assert report["septic_degree"] == 7
    assert report["sextic_degree"] == 6


def test_node_projection_scenario_summary():
    report = run_scenario("node-projection", Context(seed=0, samples=5))
    steps = {s.claim: s for s in report.steps}
    assert steps["quadrics.vertex_curve_degree"].computed == 3
    assert steps["quadrics.projected_degree"].computed == 8
    assert steps["quadrics.pencil_contains_p3o"].computed is True
    successes = int(steps["node.net_success_threshold"].note.split("/")[0])
    assert successes >= 4
