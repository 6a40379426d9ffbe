import pytest

from fanocalc import birational
from fanocalc.birational import (
    CurveData,
    FloppedCurve,
    PicardState,
    apply_flop,
    blow_up_curve,
    blow_up_node,
    change_basis,
    contract_ruled_to_curve,
    curve_divisor_intersection,
    genus_from_anticanonical_cube,
    initial_state_x10,
    k_degree_of_curve,
    m_cubed_by_adjunction,
)
from fanocalc.errors import DimensionError, DomainError, NotAFlopError
from fanocalc.scenarios import Context, run_scenario

LINE = CurveData(genus=0, h_degree=1, k_degree=-1, label="line")
CONIC = CurveData(genus=0, h_degree=2, k_degree=-2, label="conic")


def test_initial_state():
    x = initial_state_x10()
    assert x.basis_table() == (10,)
    mk = x.minus_k()
    assert x.triple_product(mk, mk, mk) == 10
    assert genus_from_anticanonical_cube(x) == 6


def test_blow_up_line_table():
    xp = blow_up_curve(initial_state_x10(), LINE)
    assert xp.basis_table() == (10, 0, -1, 1)
    assert xp.canonical == (-1, 1)


def test_blow_up_conic_table():
    xp = blow_up_curve(initial_state_x10(), CONIC)
    assert xp.basis_table() == (10, 0, -2, 0)


def test_blow_up_requires_rank_one():
    xp = blow_up_curve(initial_state_x10(), LINE)
    with pytest.raises(DimensionError):
        blow_up_curve(xp, LINE)
    with pytest.raises(DimensionError):
        blow_up_node(xp)


def test_blow_up_node_and_degree_eight():
    xp = blow_up_node(initial_state_x10())
    assert xp.basis_table() == (10, 0, 0, 2)
    mk = xp.minus_k()
    assert xp.triple_product(mk, mk, mk) == 8
    # E^3 is forced: 10 - E^3 = 8
    assert 10 - xp.basis_table()[3] == 8


def test_change_basis_identity_and_rebase():
    xp = blow_up_curve(initial_state_x10(), LINE)
    same = change_basis(xp, [[1, 0], [0, 1]], ("H*", "E"))
    assert same.basis_table() == xp.basis_table()
    reb = change_basis(xp, [[1, -1], [1, -2]], ("-K", "M"))
    assert reb.basis_table() == (6, 3, -2, -10)
    assert reb.canonical == (-1, 0)
    conic_reb = change_basis(
        blow_up_curve(initial_state_x10(), CONIC), [[1, -1], [2, -3]], ("-K", "M")
    )
    assert conic_reb.basis_table() == (4, 4, -2, -28)


def test_change_basis_requires_unimodular():
    xp = blow_up_curve(initial_state_x10(), LINE)
    with pytest.raises(DomainError):
        change_basis(xp, [[2, 0], [0, 1]], ("A", "B"))


def test_triple_form_symmetry_everywhere():
    xp = blow_up_curve(initial_state_x10(), LINE)
    reb = change_basis(xp, [[1, -1], [1, -2]], ("-K", "M"))
    flopped = apply_flop(reb, [FloppedCurve("l", (0, -1))] * 11)
    for state in (xp, reb, flopped):
        d1, d2, d3 = (1, 0), (0, 1), (2, -1)
        assert state.triple_product(d1, d2, d3) == state.triple_product(d3, d1, d2)
        assert state.triple_product(d1, d2, d3) == state.triple_product(d2, d3, d1)


def test_flop_corrects_m_cubed():
    reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    curves = [FloppedCurve(f"l{i}", (0, -1)) for i in range(11)]
    flopped = apply_flop(reb, curves)
    assert flopped.basis_table() == (6, 3, -2, 1)
    # mixed products with -K unchanged
    assert flopped.basis_table()[:3] == reb.basis_table()[:3]


def test_flop_empty_list_is_identity():
    reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    assert apply_flop(reb, []).basis_table() == reb.basis_table()


def test_flop_rejects_non_k_trivial_curve():
    xp = blow_up_curve(initial_state_x10(), LINE)
    with pytest.raises(NotAFlopError):
        apply_flop(xp, [FloppedCurve("bad", (1, 0))])


def test_flop_multiplicity_counts():
    reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    once = apply_flop(reb, [FloppedCurve(f"l{i}", (0, -1)) for i in range(11)])
    bulk = apply_flop(reb, [FloppedCurve("l", (0, -1), multiplicity=11)])
    assert once.basis_table() == bulk.basis_table()


def test_flop_involution_with_negated_intersections():
    reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    curves = [FloppedCurve(f"l{i}", (0, -1)) for i in range(11)]
    forward = apply_flop(reb, curves)
    negated = [FloppedCurve(c.label, (0, 1)) for c in curves]
    back = apply_flop(forward, negated)
    assert back.basis_table() == reb.basis_table()


def test_k_is_fixed_by_flop():
    reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    flopped = apply_flop(reb, [FloppedCurve("l", (0, -1), multiplicity=11)])
    assert flopped.canonical == reb.canonical
    mk = flopped.minus_k()
    assert flopped.triple_product(mk, mk, mk) == 6


def test_adjunction_route():
    line_reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    assert m_cubed_by_adjunction(line_reb, (0, 1)) == 1
    conic_reb = change_basis(
        blow_up_curve(initial_state_x10(), CONIC), [[1, -1], [2, -3]], ("-K", "M")
    )
    assert m_cubed_by_adjunction(conic_reb, (0, 1)) == 0


def test_contraction_degrees():
    line_reb = change_basis(
        blow_up_curve(initial_state_x10(), LINE), [[1, -1], [1, -2]], ("-K", "M")
    )
    flopped = apply_flop(line_reb, [FloppedCurve("l", (0, -1), multiplicity=11)])
    assert contract_ruled_to_curve(flopped, (0, 1)) == (10, 1)
    conic_reb = change_basis(
        blow_up_curve(initial_state_x10(), CONIC), [[1, -1], [2, -3]], ("-K", "M")
    )
    conic_flopped = apply_flop(
        conic_reb,
        [FloppedCurve(f"l{i}", (0, -1)) for i in range(20)]
        + [FloppedCurve("q~", (0, -2))],
    )
    assert contract_ruled_to_curve(conic_flopped, (0, 1)) == (10, 2)


def test_curve_divisor_intersections():
    assert curve_divisor_intersection(3, 2, (1, 2)) == -1
    assert curve_divisor_intersection(4, 3, (3, 4)) == 0
    assert curve_divisor_intersection(4, 2, (1, 2)) == 0
    assert curve_divisor_intersection(2, 0, (1, 1)) == 2


def test_k_degree_of_curve():
    xp = blow_up_curve(initial_state_x10(), LINE)
    assert k_degree_of_curve(xp, FloppedCurve("l", (1, 1))) == 0
    assert k_degree_of_curve(xp, FloppedCurve("q", (2, 1))) == -1


def test_scenarios_run_green():
    ctx = Context()
    for name in ("line-transform", "conic-transform", "node-projection"):
        report = run_scenario(name, ctx)
        assert report.steps
        assert all(s.passed for s in report.steps if not s.soft), report.steps


#: (count constant, scenario, step reporting it) of each flop pipeline.
FLOP_COUNTS = [
    ("LINES_MEETING_A_LINE", "line-transform", "line.curve_count"),
    ("LINES_MEETING_A_CONIC", "conic-transform", "conic.curve_count_lines"),
    ("LINES_THROUGH_THE_NODE", "node-projection", "node.line_count"),
]


@pytest.mark.parametrize("constant, scenario, claim", FLOP_COUNTS)
def test_count_step_reports_the_curves_the_pipeline_flops(constant, scenario, claim, monkeypatch):
    # flopping two more lines than the pinned count must fail the count step
    value = getattr(birational, constant) + 2
    monkeypatch.setattr(birational, constant, value)
    report = run_scenario(scenario, Context(samples=1))
    step = next(s for s in report.steps if s.claim == claim)
    assert (step.computed, step.expected, step.passed) == (value, value - 2, False)
    assert report.status == "fail"


def test_curve_data_validation():
    with pytest.raises(DomainError):
        CurveData(genus=-1, h_degree=1, k_degree=0)
    with pytest.raises(DomainError):
        CurveData(genus=0, h_degree=0, k_degree=0)
    with pytest.raises(DomainError):
        FloppedCurve("c", (0, 1), multiplicity=0)


def test_state_rank_limits():
    with pytest.raises(DimensionError):
        PicardState(basis=("A", "B", "C"), triple=(), canonical=(0, 0, 0))
