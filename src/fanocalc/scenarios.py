"""Named verification scenarios and their reports.

Every scenario executes a batch of exact computations and compares each
result against the pinned value in the golden file (override the location
with the FANO10_GOLDEN_PATH environment variable).  A step marked soft is
informational: it records known caveats (for instance the naive flop count
over curve lists containing non-K-trivial members) without failing the run.

Each scenario is a module-level function ``fn(ctx, check)`` that returns
None.  ``run_scenario`` builds the report, named by the scenario's REGISTRY
key, and passes ``check``: ``Context.check`` bound to that report, called as
check(claim, computed, [expected], note="", soft=False).  Without an expected
value the claim's golden pin is the reference.

Reports are deterministic given (scenario, seed).
"""

from __future__ import annotations

import functools
import json
import os
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import autw, birational, quadrics, schubert
from .errors import ClosureError, ConstraintError, DomainError, WitnessError
from .grassmann import (
    WedgePoint,
    canonical_pencil,
    conic_of_centers,
    dual_conic_residual,
    grassmann_membership,
    invariant_conic_residual,
    p7_membership,
    pencil_rank_certificate,
    sigma_center,
    sigma_plane,
    tangent_wedge,
    w_membership,
)
from .matrices import PolyMatrix
from .polynomials import MultiPoly, projectively_equal
from .serialize import fractions_from_json, vector_from_json

GOLDEN_ENV = "FANO10_GOLDEN_PATH"


def load_golden(path: str | None = None) -> dict:
    """The versioned claim store: {claim id: pinned value}.  A golden file
    that cannot be read or holds no "claims" object is a DomainError."""
    if path is None:
        path = os.environ.get(GOLDEN_ENV)
    if path is not None:
        try:
            with open(path, "rb") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read golden file {path}: {exc}") from exc
    else:
        data = json.loads(
            resources.files("fanocalc").joinpath("data/golden.json").read_text()
        )
    claims = data.get("claims") if isinstance(data, dict) else None
    if not isinstance(claims, dict):
        raise DomainError(f'golden file {path} has no "claims" object')
    return claims


@dataclass(frozen=True)
class Step:
    claim: str
    expected: object
    computed: object
    passed: bool
    note: str = ""
    soft: bool = False


@dataclass
class Report:
    scenario: str
    seed: int
    samples: int
    steps: list[Step] = field(default_factory=list)

    @property
    def status(self) -> str:
        hard_fail = any(not s.passed and not s.soft for s in self.steps)
        soft_fail = any(not s.passed and s.soft for s in self.steps)
        if hard_fail:
            return "fail"
        return "partial" if soft_fail else "pass"

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "samples": self.samples,
            "status": self.status,
            "steps": [asdict(s) for s in self.steps],
        }


_PINNED = object()


@contextmanager
def _reading_input():
    """Turn errors raised while an input descriptor is read into DomainError."""
    try:
        yield
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed input descriptor: {type(exc).__name__}: {exc}") from exc


def _nonempty_list(value, key: str) -> list:
    """value, if a non-empty list: an input that checks nothing is malformed."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key!r} must be a non-empty list, got {value!r}")
    return value


class Context:
    """Execution context: seed, sample count, golden store, optional input."""

    def __init__(self, seed: int = 0, samples: int = 20, golden: dict | None = None, input_data: dict | None = None):
        if samples < 1:
            raise DomainError(f"samples must be at least 1, got {samples}")
        self.seed = seed
        self.samples = samples
        self.golden = golden if golden is not None else load_golden()
        self.input_data = input_data

    @functools.cached_property
    def seeded_nets(self) -> list[dict]:
        """Reports of the samples seeded random nets, drawn once per context
        and shared by the scenarios that read them."""
        rng = random.Random(self.seed)
        return [quadrics.sample_net_split(rng) for _ in range(self.samples)]

    def check(self, report: Report, claim: str, computed, expected=_PINNED, note: str = "", soft: bool = False):
        """Append one step comparing computed with expected, which defaults
        to the claim's golden pin; returns computed."""
        if expected is _PINNED:
            expected = self.pinned(claim)
        computed_json = _jsonable(computed)
        expected_json = _jsonable(expected)
        report.steps.append(Step(claim, expected_json, computed_json, computed_json == expected_json, note, soft))
        return computed

    def pinned(self, claim: str):
        """The golden pin of claim; a claim missing from the store is a DomainError."""
        try:
            return self.golden[claim]
        except KeyError:
            raise DomainError(f"claim {claim!r} missing from the golden store") from None


Check = Callable[..., object]


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, MultiPoly):
        return str(value)
    return value


# -- individual scenarios -----------------------------------------------------


def scenario_schubert_table(ctx: Context, check: Check) -> None:
    table = schubert.sigma1_power_table()
    check("schubert.sigma1_powers", [c.to_json() for c in table])
    s1 = schubert.SchubertClass.sigma(1)
    s2 = schubert.SchubertClass.sigma(2)
    s11 = schubert.SchubertClass.sigma(1, 1)
    check("schubert.deg_G", schubert.degree_pairing(table[6]))
    check("schubert.pairing_2s1_6", schubert.degree_pairing(table[6].scale(2)))
    check(
        "schubert.pairing_2s2_s1_4",
        schubert.degree_pairing(schubert.multiply(s2, table[4]).scale(2)),
    )
    check(
        "schubert.pairing_2s11_s1_4",
        schubert.degree_pairing(schubert.multiply(s11, table[4]).scale(2)),
    )
    check("schubert.cycle_report", schubert.cycle_degree_report())
    spec = schubert.G25
    dual_hits = 0
    for lam in spec.box_partitions():
        mu = schubert.complement(spec, lam)
        prod = schubert.multiply(
            schubert.SchubertClass(spec, {lam: 1}), schubert.SchubertClass(spec, {mu: 1})
        )
        if schubert.degree_pairing(prod) == 1:
            dual_hits += 1
    check("schubert.poincare_duality_pairs", dual_hits)


def scenario_rank_certificates(ctx: Context, check: Check) -> None:
    h_rank, h_cert = pencil_rank_certificate(canonical_pencil())
    check("pencil.h_generic_rank", h_rank)
    check("pencil.h_everywhere_ge_4", h_cert)
    p_rank, p_cert = quadrics.pfaffian_pencil_canonical().rank_certificate()
    check("pencil.p_generic_rank", p_rank)
    check("pencil.p_everywhere_ge_6", p_cert)


def _pinned_vector(ctx: Context, claim: str) -> tuple[MultiPoly, ...]:
    """The golden pin of claim read as a polynomial vector; a malformed pin
    is a DomainError."""
    value = ctx.pinned(claim)
    try:
        return vector_from_json(value)
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DomainError(f"golden claim {claim!r} is malformed: {exc}") from exc


def scenario_conic_of_centers(ctx: Context, check: Check) -> None:
    kernel = conic_of_centers(canonical_pencil())
    display = _pinned_vector(ctx, "conic_of_centers.kernel_display")
    check(
        "conic_of_centers.kernel_display",
        projectively_equal(kernel, display),
        True,
        note="projective comparison against the pinned parametrization",
    )
    degree = max(p.total_degree() for p in kernel if not p.is_zero)
    check("conic_of_centers.degree", degree)
    span = [i for i, p in enumerate(kernel) if not p.is_zero]
    check("conic_of_centers.span_indices", span)


def scenario_dual_conic(ctx: Context, check: Check) -> None:
    kernel = conic_of_centers(canonical_pencil())
    wedge = WedgePoint(tangent_wedge(kernel))
    check("dual_conic.residual_is_zero", dual_conic_residual(wedge).is_zero)
    check("dual_conic.point_on_W", w_membership(wedge))


def scenario_sigma_planes(ctx: Context, check: Check) -> None:
    ring = ("al", "be", "ga", "de", "t0", "t1")
    al, be, ga, de, t0, t1 = (MultiPoly.variable(n, ring) for n in ring)
    plane = sigma_plane(t0, t1)
    point = plane.wedge_points([al, be, ga, de])
    check("sigma_plane.symbolic_on_W", w_membership(point))
    check("sigma_plane.symbolic_in_Yo", point.coord(3, 4).is_zero)
    at_t0 = [p.eval_some({"t0": 1, "t1": 0}).constant_value() for p in sigma_center(t0, t1)]
    at_t1 = [p.eval_some({"t0": 0, "t1": 1}).constant_value() for p in sigma_center(t0, t1)]
    check("sigma_plane.center_endpoint_t0", at_t0)
    check("sigma_plane.center_endpoint_t1", at_t1)
    # the intersection with the rho plane is the tangent line of the
    # invariant conic at the tangent-wedge point: restrict the conic to the
    # line {x(t) ^ (mu e0 + nu e1)} and demand a double root
    lring = ("mu", "nu", "t0", "t1")
    mu, nu, lt0, lt1 = (MultiPoly.variable(n, lring) for n in lring)
    lplane = sigma_plane(lt0, lt1)
    zero = MultiPoly.zero(lring)
    line_pt = lplane.wedge_points([mu, nu, zero, zero])
    residual = invariant_conic_residual(line_pt)
    # double root iff residual = c * (linear form)^2: the discriminant of the
    # binary quadratic a mu^2 + b mu nu + c nu^2 vanishes identically; its
    # Hessian f_mn^2 - f_mm f_nn is exactly b^2 - 4ac
    f_m, f_n = residual.derivative("mu"), residual.derivative("nu")
    f_mn = f_m.derivative("nu")
    disc = f_mn * f_mn - f_m.derivative("mu") * f_n.derivative("nu")
    check("sigma_plane.meets_rho_in_tangent_line", disc.is_zero)


def scenario_autw_p7(ctx: Context, check: Check) -> None:
    family = autw.symbolic_family()
    defects = autw.p7_defect(family)
    check("autw.p7_defect_count", len(defects))
    check(
        "autw.p7_defects_vanish_both_charts",
        all(autw.vanishes_mod_sl2(d) for d in defects),
    )
    try:
        autw.assemble(1, [[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]])
        rejected = False
    except ConstraintError:
        rejected = True
    check("autw.violating_element_rejected", rejected)
    if ctx.input_data and "elements" in ctx.input_data:
        with _reading_input():
            elements = [
                autw.AutWElement.from_json(e) for e in _nonempty_list(ctx.input_data["elements"], "elements")
            ]
        for i, element in enumerate(elements):
            check(
                f"autw.input_element_{i}_preserves_p7",
                autw.preserves_P7(element),
                True,
            )


def scenario_autw_orbit_formula(ctx: Context, check: Check) -> None:
    ring = ("u", "v", "x", "y")
    u, v, x, y = (MultiPoly.variable(n, ring) for n in ring)
    raw = autw.wedge_square_action_raw(autw.ga_element(u, v, x, y), WedgePoint.basis_vector(3, 4))
    formula = autw.orbit_formula(u, v, x, y)
    check(
        "autw.orbit_formula_matches_action",
        all((a - b).is_zero for a, b in zip(raw.coords, formula.coords)),
    )
    sring = ("a", "b", "c", "d", "lam")
    a, b, c, d, lam = (MultiPoly.variable(n, sring) for n in sring)
    stab = autw.AutWElement.unchecked(
        lam, [[0, 0], [0, 0], [0, 0]], [[a, b], [c, d]], symbolic_det=True
    )
    image = PolyMatrix(sring, stab.wedge_matrix()).apply([0] * 9 + [1])
    fixes = all(p.is_zero for p in image[:9]) and not image[9].is_zero
    check("autw.stabilizer_fixes_e34", fixes)
    seeds = {
        "e34": WedgePoint.basis_vector(3, 4),
        "e13": WedgePoint.basis_vector(1, 3),
        "e12": WedgePoint.basis_vector(1, 2),
        "e02": WedgePoint.basis_vector(0, 2),
    }
    labels = {name: autw.orbit_classify(p).value for name, p in seeds.items()}
    check("orbit.seed_labels", labels)


def _sampled_note(note: str, failed: list[tuple[int, str]]) -> str:
    """The note of a sampled step, extended by the index and cause of its
    first failing sample so that (scenario, seed, index) reproduces it."""
    if not failed:
        return note
    index, cause = failed[0]
    return f"{note}; first failure: sample {index} ({cause})"


def _ga_matrix(ring: tuple[str, ...], *params) -> PolyMatrix:
    """The 5 x 5 matrix of the unipotent element [u | v | x | y] over ring."""
    return PolyMatrix(ring, autw.ga_element(*params).matrix5())


def scenario_autw_closure(ctx: Context, check: Check) -> None:
    rng = random.Random(ctx.seed)
    pair_count = max(500, ctx.samples)
    failed: list[tuple[int, str]] = []
    for index in range(pair_count):
        g1 = autw.random_element(rng)
        g2 = autw.random_element(rng)
        try:
            product = autw.group_closure_check(g1, g2)
            roundtrip = autw.decompose_matrix(product.matrix5())
            cause = None if autw.elements_equal(product, roundtrip) else "round trip differs"
        except ClosureError as exc:
            cause = type(exc).__name__
        if cause is not None:
            failed.append((index, cause))
    check(
        "autw.closure_failures",
        len(failed),
        note=_sampled_note(f"{pair_count} random pairs", failed),
    )
    ring = tuple(f"{n}{i}" for i in (1, 2) for n in ("u", "v", "x", "y"))
    gens1 = [MultiPoly.variable(f"{n}1", ring) for n in ("u", "v", "x", "y")]
    gens2 = [MultiPoly.variable(f"{n}2", ring) for n in ("u", "v", "x", "y")]
    lhs = _ga_matrix(ring, *gens1) * _ga_matrix(ring, *gens2)
    sums = _ga_matrix(ring, *(p + q for p, q in zip(gens1, gens2)))
    prods = _ga_matrix(ring, *(p * q for p, q in zip(gens1, gens2)))
    law = "sums" if lhs == sums else ("products" if lhs == prods else "neither")
    check(
        "autw.ga_composition_law",
        law,
        note="block multiplication composes the unipotent parameters additively",
    )
    check(
        "autw.ga_multiplicative_table_matches",
        lhs == prods,
        note="the parameter-wise product table does not match block multiplication",
        soft=True,
    )
    cring = ("lam", "u", "v", "x", "y")
    lam, cu, cv, cx, cy = (MultiPoly.variable(n, cring) for n in cring)
    gm = autw.AutWElement.unchecked(lam, [[0, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]])
    gm = PolyMatrix(cring, gm.matrix5())
    scaled = _ga_matrix(cring, lam * cu, lam * cv, lam * cx, lam * cy)
    lhs2 = gm * _ga_matrix(cring, cu, cv, cx, cy)
    rhs2 = scaled * gm
    check(
        "autw.gm_conjugation_scaling",
        lhs2 == rhs2,
        note="conjugation by the scaling subgroup multiplies the parameters by lam",
    )
    check(
        "autw.gm_left_multiplication_matches",
        lhs2 == scaled,
        note="plain left multiplication does not land back in the unipotent subgroup",
        soft=True,
    )


def scenario_orbit_invariance(ctx: Context, check: Check) -> None:
    rng = random.Random(ctx.seed)
    seeds = [
        WedgePoint.basis_vector(3, 4),
        WedgePoint.basis_vector(1, 3),
        WedgePoint.basis_vector(1, 2),
        WedgePoint.basis_vector(0, 2),
    ]
    failures = 0
    for index in range(200):
        base = seeds[index % 4]
        mover = autw.random_element(rng)
        point = autw.wedge_square_action(autw.random_element(rng), base)
        if autw.orbit_classify(point) != autw.orbit_classify(
            autw.wedge_square_action(mover, point)
        ):
            failures += 1
    check("orbit.invariance_failures", failures, note="200 random (element, point) pairs")


def scenario_orbit_witnesses(ctx: Context, check: Check) -> None:
    rng = random.Random(ctx.seed)
    failed: list[tuple[int, str]] = []
    trials = 0
    for seed_point, stratum in (
        (WedgePoint.basis_vector(3, 4), autw.OrbitLabel.OPEN_ORBIT),
        (WedgePoint.basis_vector(1, 2), autw.OrbitLabel.RHO_MINUS_QO),
        (WedgePoint.basis_vector(0, 2), autw.OrbitLabel.QO),
    ):
        for _ in range(20):
            p = autw.wedge_square_action(autw.random_element(rng), seed_point)
            q = autw.wedge_square_action(autw.random_element(rng), seed_point)
            try:
                witness = autw.orbit_transitivity_witness(p, q)
                ok = witness is not None and autw.wedge_square_action(witness, p).proj_eq(q)
                cause = None if ok else "no valid witness"
            except (ClosureError, ConstraintError, DomainError, WitnessError) as exc:
                cause = type(exc).__name__
            if cause is not None:
                failed.append((trials, cause))
            trials += 1
    check(
        "orbit.witness_failures",
        len(failed),
        note=_sampled_note(f"{trials} transported pairs", failed),
    )


def scenario_line_transform(ctx: Context, check: Check) -> None:
    birational.scenario_line_transform(check)


def scenario_conic_transform(ctx: Context, check: Check) -> None:
    birational.scenario_conic_transform(check)


def _min_success_fraction(ctx: Context):
    value = ctx.pinned("split.min_success_fraction")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"golden claim 'split.min_success_fraction' must be a number, got {value!r}")
    return value


def scenario_node_projection(ctx: Context, check: Check) -> None:
    birational.scenario_node_projection(check)
    pen = quadrics.pfaffian_pencil_canonical()
    check("quadrics.rank_P_o", pen.a.rank())
    check("quadrics.rank_P_inf", pen.b.rank())
    span = quadrics.common_subspace_p3o()
    check(
        "quadrics.pencil_contains_p3o",
        all(g.restrict_to_span(span).is_zero for g in (pen.a, pen.b)),
    )
    state = birational.blow_up_node(birational.initial_state_x10())
    mk = state.minus_k()
    check("quadrics.projected_degree", state.triple_product(mk, mk, mk))
    curve, degree = quadrics.vertex_curve(pen)
    check("quadrics.vertex_curve_degree", degree)
    check(
        "quadrics.vertex_curve_display",
        projectively_equal(curve, _pinned_vector(ctx, "quadrics.vertex_curve_display")),
        True,
        note="projective comparison against the pinned twisted cubic",
    )
    codims = {str(k): quadrics.determinantal_codim(k) for k in range(1, 7)}
    check("quadrics.codim_table", codims)
    successes = sum(1 for r in ctx.seeded_nets if r["ok"])
    check(
        "node.net_success_threshold",
        successes >= _min_success_fraction(ctx) * ctx.samples,
        True,
        note=f"{successes}/{ctx.samples} seeded nets split cleanly",
    )


#: (claim, net report field) of each stage of the determinantal split.
_SPLIT_STAGES = (
    ("split.septic_degree", "septic_degree"),
    ("split.sextic_degree", "sextic_degree"),
    ("split.line_points", "line_intersection_count"),
)


def scenario_determinantal_split(ctx: Context, check: Check) -> None:
    if ctx.input_data and "net" in ctx.input_data:
        with _reading_input():
            gens = [
                quadrics.QuadricForm.from_integer_matrix([fractions_from_json(row, integer=True) for row in m])
                for m in ctx.input_data["net"]
            ]
            net = quadrics.QuadricNet(tuple(gens))
        result = quadrics.analyze_net(net, include_coefficients=True)
        # the septic coefficients annotate the first stage only
        note = f"net from input descriptor; septic coefficients {result.get('septic_coefficients')}"
        for claim, field_name in _SPLIT_STAGES:
            if result.get(field_name) is None:
                check(claim, None, note=result["failure"])
                return
            check(claim, result[field_name], note=note)
            note = ""
        check("split.line_points_distinct", result["line_intersection_distinct"], True, soft=True)
        return
    runs = ctx.seeded_nets
    successes = sum(1 for r in runs if r["ok"])
    degenerate = [i for i, r in enumerate(runs) if not r["ok"]]
    check(
        "split.success_threshold",
        successes >= _min_success_fraction(ctx) * ctx.samples,
        True,
        note=f"{successes}/{ctx.samples} nets; degenerate samples {degenerate}",
    )
    check(
        "split.all_samples_clean",
        successes == ctx.samples,
        True,
        note="informational: whether every sample was nondegenerate",
        soft=True,
    )
    for claim, field_name in _SPLIT_STAGES:
        values = {r.get(field_name) for r in runs if r["ok"]}
        check(claim + "_uniform", values, {ctx.pinned(claim)})


#: (descriptor key, membership test) of each expectation a point may carry.
_MEMBERSHIP_TESTS = (("grassmann", grassmann_membership), ("p7", p7_membership), ("w", w_membership))


def scenario_membership_checks(ctx: Context, check: Check) -> None:
    """Membership/certificate checks driven by a JSON descriptor.

    Descriptor format: {"points": [{"coords": ["0", "1", ...10 rationals as
    strings or integers], "grassmann": bool, "p7": bool, "w": bool}, ...]}.
    The list must be non-empty and each point must carry at least one of
    the three expectations.  Without input a bundled set of characteristic
    points is used.
    """
    default_points = [
        {"coords": ["0", "0", "0", "0", "0", "0", "0", "0", "0", "1"], "grassmann": True, "p7": True, "w": True},
        {"coords": ["0", "0", "1", "0", "0", "0", "0", "0", "0", "0"], "grassmann": True, "p7": False, "w": False},
        {"coords": ["1", "0", "0", "0", "0", "0", "0", "1", "0", "0"], "grassmann": False, "p7": False, "w": False},
        {"coords": ["0", "0", "1", "0", "0", "0", "1", "0", "0", "0"], "grassmann": False, "p7": True, "w": False},
        {"coords": ["0", "1", "0", "0", "0", "0", "0", "0", "0", "0"], "grassmann": True, "p7": True, "w": True},
    ]
    spec = (ctx.input_data or {}).get("points", default_points)
    with _reading_input():
        points = [WedgePoint.make(fractions_from_json(entry["coords"])) for entry in _nonempty_list(spec, "points")]
        for entry in spec:
            expected = [entry[key] for key, _ in _MEMBERSHIP_TESTS if key in entry]
            if not expected or not all(isinstance(value, bool) for value in expected):
                raise ValueError(f"a point needs grassmann, p7 or w expectations that are bools, got {entry!r}")
    for i, (entry, point) in enumerate(zip(spec, points)):
        for key, fn in _MEMBERSHIP_TESTS:
            if key in entry:
                check(f"membership.point{i}.{key}", fn(point), entry[key])


REGISTRY: dict[str, tuple[Callable[[Context, Check], None], str]] = {
    "schubert-table": (scenario_schubert_table, "Schubert ring of G(2,5): powers of the hyperplane class and degree pairings"),
    "rank-certificates": (scenario_rank_certificates, "universal rank certificates for the two distinguished pencils"),
    "conic-of-centers": (scenario_conic_of_centers, "kernel parametrization of the skew pencil"),
    "dual-conic": (scenario_dual_conic, "tangent-wedge conic of the kernel parametrization"),
    "sigma-planes": (scenario_sigma_planes, "one-parameter family of planes on the fourfold"),
    "aut-w-p7": (scenario_autw_p7, "symbolic verification that the group preserves the 7-space"),
    "aut-w-orbit-formula": (scenario_autw_orbit_formula, "orbit formula, stabilizer, and stratum labels"),
    "aut-w-closure": (scenario_autw_closure, "group closure on random pairs and composition laws"),
    "orbit-invariance": (scenario_orbit_invariance, "stratum labels are constant along group motions"),
    "orbit-witnesses": (scenario_orbit_witnesses, "explicit transport witnesses inside each stratum"),
    "line-transform": (scenario_line_transform, "line blow-up, flop, and contraction bookkeeping"),
    "conic-transform": (scenario_conic_transform, "conic blow-up, flop, and contraction bookkeeping"),
    "node-projection": (scenario_node_projection, "nodal projection: degree 8, vertex cubic, seeded net splitting"),
    "determinantal-split": (scenario_determinantal_split, "determinantal septic of nets through the distinguished pencil"),
    "membership-checks": (scenario_membership_checks, "point membership battery (descriptor-driven)"),
}


def run_scenario(name: str, ctx: Context) -> Report:
    """Run the REGISTRY scenario name into a fresh report of that name."""
    if name not in REGISTRY:
        raise DomainError(f"unknown scenario {name!r}")
    fn, _ = REGISTRY[name]
    report = Report(name, ctx.seed, ctx.samples)
    fn(ctx, functools.partial(ctx.check, report))
    return report


def catalog() -> list[tuple[str, str]]:
    return [(name, desc) for name, (_, desc) in sorted(REGISTRY.items())]
