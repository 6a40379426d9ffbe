import hashlib
import inspect
import json
import random

import pytest

from fanocalc import autw, quadrics
from fanocalc.cli import main
from fanocalc.errors import ClosureError, DomainError, WitnessError
from fanocalc.serialize import poly_to_json
from fanocalc.scenarios import (
    REGISTRY,
    Context,
    Report,
    catalog,
    load_golden,
    run_scenario,
)


FAST_SCENARIOS = [
    "schubert-table",
    "rank-certificates",
    "conic-of-centers",
    "dual-conic",
    "sigma-planes",
    "aut-w-p7",
    "aut-w-orbit-formula",
    "membership-checks",
    "line-transform",
    "conic-transform",
]


def test_catalog_size_and_entries():
    names = [name for name, _ in catalog()]
    assert len(names) >= 10
    assert "line-transform" in names
    assert "node-projection" in names
    assert "schubert-table" in names


@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_fast_scenarios_pass(name):
    report = run_scenario(name, Context(seed=0, samples=5))
    assert report.status == "pass", [s for s in report.steps if not s.passed]


def test_unknown_scenario_raises():
    with pytest.raises(DomainError):
        run_scenario("nonexistent", Context())


def test_reports_deterministic_for_fixed_seed():
    a = run_scenario("determinantal-split", Context(seed=3, samples=4)).to_json()
    b = run_scenario("determinantal-split", Context(seed=3, samples=4)).to_json()
    assert a == b


def test_golden_env_override(tmp_path, monkeypatch):
    golden = load_golden()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"version": 1, "claims": golden}))
    monkeypatch.setenv("FANO10_GOLDEN_PATH", str(path))
    assert load_golden() == golden
    # a tampered pin must flip the scenario to fail
    tampered = dict(golden)
    tampered["schubert.deg_G"] = 6
    path.write_text(json.dumps({"version": 1, "claims": tampered}))
    report = run_scenario("schubert-table", Context(golden=load_golden()))
    assert report.status == "fail"


def test_cli_list_and_exit_codes(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "schubert-table" in out
    assert main(["run", "nonexistent"]) == 2
    assert main([]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["report-all", "--parallel"])
    assert exc.value.code == 2


def test_cli_run_text_and_json(capsys):
    assert main(["run", "rank-certificates"]) == 0
    text = capsys.readouterr().out
    assert "pass" in text
    assert main(["run", "rank-certificates", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scenario"] == "rank-certificates"
    assert data["status"] == "pass"


POINTS_DESCRIPTOR = {
    "points": [
        {
            "coords": ["0", "0", "0", "0", "0", "0", "0", "0", "0", "1"],
            "grassmann": True,
            "p7": True,
            "w": True,
        }
    ]
}

ELEMENTS_DESCRIPTOR = {
    "elements": [
        {"lambda": "2", "G": ["1", "0", "0", "1"], "U": ["0", "0", "0", "0", "0", "0"]}
    ]
}


def test_cli_membership_input_descriptor(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(POINTS_DESCRIPTOR))
    assert main(["run", "membership-checks", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "membership.point0.w" in out


def doubled(q):
    """The Gram matrix of q times two: an integer matrix."""
    return [[int(2 * q.gram.entries[i][j].constant_value()) for j in range(7)] for i in range(7)]


def diagonal(*d):
    return [[d[i] if i == j else 0 for j in range(7)] for i in range(7)]


def run_net_descriptor(tmp_path, capsys, net, fmt="json") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of determinantal-split on one net."""
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"net": net}))
    code = main(["run", "determinantal-split", "--input", str(path), "--format", fmt])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def valid_net():
    """The canonical pencil and a random quadric: a net that splits."""
    pen = quadrics.pfaffian_pencil_canonical()
    return [doubled(pen.a), doubled(pen.b), doubled(quadrics.random_quadric(random.Random(2)))]


def test_cli_net_input_descriptor(tmp_path, capsys):
    net = valid_net()
    code, out, _ = run_net_descriptor(tmp_path, capsys, net)
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [(s["claim"], s["computed"]) for s in steps] == [
        ("split.septic_degree", 7),
        ("split.sextic_degree", 6),
        ("split.line_points", 6),
        ("split.line_points_distinct", True),
    ]
    septic = quadrics.determinantal_septic(
        quadrics.QuadricNet(tuple(quadrics.QuadricForm.from_integer_matrix(m) for m in net))
    )
    assert str(poly_to_json(septic.form)["terms"]) in steps[0]["note"]


def _pencil_and(coeffs):
    """The canonical pencil and one more quadric, as integer matrices."""
    pen = quadrics.pfaffian_pencil_canonical()
    return [doubled(pen.a), doubled(pen.b), doubled(quadrics.QuadricForm.from_coefficients(coeffs))]


@pytest.mark.parametrize(
    "net, claim, failure",
    [
        (
            [diagonal(1, 1, 1, 1, 1, 1, 1), diagonal(1, 2, 3, 4, 5, 6, 7), diagonal(1, -1, 2, -2, 3, -3, 4)],
            "split.sextic_degree",
            "the line does not divide the curve",
        ),
        (
            # the third quadric contains the vertex twisted cubic
            _pencil_and(
                {("x13", "x04"): 1, ("x03", "x03"): -1, ("x01", "x01"): 1, ("x02", "x02"): 1, ("x12", "x12"): 1}
            ),
            "split.sextic_degree",
            "the line divides the curve more than once",
        ),
        (
            [diagonal(0, 1, 1, 1, 1, 1, 1), diagonal(0, 1, 2, 3, 4, 5, 6), diagonal(0, 1, -1, 2, -2, 3, -3)],
            "split.septic_degree",
            "identically degenerate net",
        ),
    ],
    ids=["line-does-not-divide", "line-divides-twice", "vanishing-determinant"],
)
def test_cli_net_input_that_fails_the_split_is_a_failed_step(tmp_path, capsys, net, claim, failure):
    code, out, err = run_net_descriptor(tmp_path, capsys, net)
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["status"] == "fail"
    last = report["steps"][-1]
    assert last["claim"] == claim
    assert last["computed"] is None
    assert not last["passed"] and not last["soft"]
    assert failure in last["note"]
    assert all(s["passed"] for s in report["steps"][:-1])
    code, out, err = run_net_descriptor(tmp_path, capsys, net, fmt="text")
    assert code == 1
    assert err == ""
    assert f"FAIL {claim}: computed None" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["report-all", "--samples", "3"],
        ["run", "node-projection", "--samples", "3"],
        ["run", "determinantal-split", "--samples", "3"],
    ],
)
def test_seeded_nets_are_analyzed_once_per_run(monkeypatch, capsys, argv):
    calls = []
    sample = quadrics.sample_net_split

    def counted(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(quadrics, "sample_net_split", counted)
    assert main(argv) == 0
    assert len(calls) == 3


def test_partial_status_and_strict_demotion():
    from fanocalc.cli import _status_code
    from fanocalc.scenarios import Step

    report = Report(scenario="demo", seed=0, samples=1)
    report.steps.append(Step("hard", 1, 1, True))
    report.steps.append(Step("soft", True, False, False, note="informational", soft=True))
    assert report.status == "partial"
    assert _status_code([report], strict=False) == 0
    assert _status_code([report], strict=True) == 1
    report.steps.append(Step("hard2", 1, 2, False))
    assert report.status == "fail"
    assert _status_code([report], strict=False) == 1


def test_cli_report_all_smoke(capsys):
    # small sample count keeps this quick; every scenario must at least run
    code = main(["report-all", "--samples", "2"])
    out = capsys.readouterr().out
    assert "summary" in out
    assert code == 0


#: sha256 of ``report-all --format json --samples 2`` stdout (20583 bytes, seed 0).
#: Reports must stay the same byte for byte; a change that alters one must
#: say why and pin the new digest.
REPORT_ALL_JSON_SHA256 = "c46099c22c8aec23a97c341413b8efac6052c30ce36700a2cb9bdc91c99765ac"


def test_report_all_json_is_byte_identical_to_pinned_digest(capsys):
    code = main(["report-all", "--format", "json", "--samples", "2"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert len(out) == 20583
    assert hashlib.sha256(out).hexdigest() == REPORT_ALL_JSON_SHA256


#: (argv, stdout byte length, stdout sha256, exit code) of the report-all and
#: --input runs; {name} in argv is the path of that input descriptor.  As
#: above, a change that alters a report must say why and pin the new values.
STDOUT_TABLE = [
    (
        ["report-all", "--seed", "0", "--samples", "20", "--format", "json"],
        20602,
        "aff445747a1f63899cd3136e7fdc71f9c6dc79d625d32fe6f32fd96c5d859f1f",
        0,
    ),
    (
        ["report-all", "--seed", "0", "--samples", "20", "--format", "text"],
        8273,
        "ce31c64b39c6af5fd0d1543e14089bb41b8e56fb0feb08f228755f9fec38f99e",
        0,
    ),
    (
        ["report-all", "--seed", "1", "--samples", "20", "--format", "json"],
        20602,
        "86ded30b25f2c408f1e9d220b0ced0c7a7e8ce3a99451a8290aec202384d8877",
        0,
    ),
    (
        ["report-all", "--seed", "1", "--samples", "20", "--format", "text"],
        8273,
        "543001ad1bb3b7c3c2655b4fd507c959d7c359ca937706c690d30319f4f734df",
        0,
    ),
    (
        ["run", "determinantal-split", "--input", "{net}", "--format", "json"],
        1343,
        "c83eaede1e28087c2b579d406850e71f9b77063a7df27325fd923f45d66ca8e8",
        0,
    ),
    (
        ["run", "membership-checks", "--input", "{points}"],
        219,
        "c0c1407813cf2645b1d05be034f4cf538e98ec49b903c78537f93dcc1490c96f",
        0,
    ),
    (
        ["run", "aut-w-p7", "--input", "{elements}"],
        293,
        "602e644d877f19863adc2b7a25fedd0c9c13b4434b7f73ab4b713a1de2c74b49",
        0,
    ),
]


@pytest.mark.parametrize(
    "argv, length, digest, exit_code", STDOUT_TABLE, ids=[" ".join(row[0]) for row in STDOUT_TABLE]
)
def test_stdout_is_byte_identical_to_pinned_table(argv, length, digest, exit_code, tmp_path, capsys):
    descriptors = {"net": {"net": valid_net()}, "points": POINTS_DESCRIPTOR, "elements": ELEMENTS_DESCRIPTOR}
    paths = {}
    for name, descriptor in descriptors.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(descriptor))
    code = main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest(), code) == (length, digest, exit_code)


def test_element_inline_descriptor(tmp_path, capsys):
    path = tmp_path / "elements.json"
    path.write_text(json.dumps(ELEMENTS_DESCRIPTOR))
    assert main(["run", "aut-w-p7", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "input_element_0" in out


def test_violating_element_claim_needs_a_constraint_error(monkeypatch):
    # only the defining-constraint error counts as a rejection; an unrelated
    # error leaves the scenario instead of passing the claim
    assemble = autw.assemble
    violating = (1, [[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]])

    def broken(*args, **kwargs):
        if args == violating:
            raise TypeError("unrelated programming error")
        return assemble(*args, **kwargs)

    monkeypatch.setattr(autw, "assemble", broken)
    with pytest.raises(TypeError, match="unrelated programming error"):
        run_scenario("aut-w-p7", Context(samples=1))


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_count_below_one_is_a_usage_error(samples, capsys):
    with pytest.raises(DomainError):
        Context(samples=samples)
    assert main(["report-all", "--samples", str(samples)]) == 2
    assert main(["run", "node-projection", "--samples", str(samples)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: samples must be at least 1") == 2


ZERO_U = ["0", "0", "0", "0", "0", "0"]
E34 = ["0"] * 9 + ["1"]


def diagonal(*entries):
    return [[entries[i] if i == j else 0 for j in range(7)] for i in range(7)]


@pytest.mark.parametrize(
    "scenario, content",
    [
        ("membership-checks", "{not json"),
        ("membership-checks", None),
        ("membership-checks", json.dumps(["points"])),
        ("membership-checks", json.dumps({"points": [{"coords": ["x"] + ["0"] * 9}]})),
        ("membership-checks", json.dumps({"points": [{"w": True}]})),
        ("determinantal-split", json.dumps({"net": [[[1, 0], [0]]] * 3})),
        ("determinantal-split", json.dumps({"net": [[[int(i == j) for j in range(7)] for i in range(7)]] * 4})),
        ("aut-w-p7", json.dumps({"elements": [{"lambda": "1", "G": ["1", "0", "0", "0"], "U": ZERO_U}]})),
        ("aut-w-p7", json.dumps({"elements": [{"lambda": "1", "G": ["1", "0", "0", "1"], "U": ZERO_U[:4]}]})),
        ("aut-w-p7", json.dumps({"elements": [{"lambda": "1", "G": ["1", 0.5, "0", "1"], "U": ZERO_U}]})),
        ("aut-w-p7", json.dumps({"elements": [{"lambda": True, "G": ["1", "0", "0", "1"], "U": ZERO_U}]})),
        ("membership-checks", json.dumps({"points": [{"coords": [0, 0, 0.1, 0, 0, 0, "1/10", 0, 0, 0], "p7": True}]})),
        ("membership-checks", json.dumps({"points": [{"coords": [True] + [0] * 9}]})),
        ("membership-checks", json.dumps({"points": [{"coords": "0000000001"}]})),
        ("determinantal-split", json.dumps({"net": [diagonal(1.0, 1, 1, 1, 1, 1, 1), diagonal(1, 2, 3, 4, 5, 6, 7), diagonal(1, -1, 2, -2, 3, -3, 4)]})),
        # descriptors that would check nothing, or compare with a non-bool
        ("membership-checks", json.dumps({"points": []})),
        ("membership-checks", json.dumps({"points": {}})),
        ("membership-checks", json.dumps({"points": [{"coords": E34}]})),
        ("membership-checks", json.dumps({"points": [{"coords": E34, "w": "yes"}]})),
        ("aut-w-p7", json.dumps({"elements": []})),
    ],
    ids=[
        "bad-json",
        "missing-file",
        "not-an-object",
        "non-rational",
        "missing-coords",
        "ragged-net",
        "four-quadric-net",
        "element-fails-assemble",
        "short-U",
        "float-element-entry",
        "bool-lambda",
        "float-coordinate",
        "bool-coordinate",
        "string-coords",
        "float-net-entry",
        "empty-points",
        "points-object",
        "no-expectation",
        "string-expectation",
        "empty-elements",
    ],
)
def test_malformed_input_descriptor_is_a_usage_error(scenario, content, tmp_path, capsys):
    path = tmp_path / "descriptor.json"
    if content is not None:
        path.write_text(content)
    assert main(["run", scenario, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


#: Golden claims that no report-all step compares and no scenario reads, each
#: with the Tier-1 test that checks it instead.
UNSTEPPED_CLAIMS = {
    "quadrics.vertex_P_o_index": "test_quadrics.py::test_vertex_index_pins_match_the_derived_vertices",
    "quadrics.vertex_P_inf_index": "test_quadrics.py::test_vertex_index_pins_match_the_derived_vertices",
}


class _RecordingClaims(dict):
    """A claim store that remembers which claims were looked up."""

    def __init__(self, claims):
        super().__init__(claims)
        self.read = set()

    def __getitem__(self, claim):
        self.read.add(claim)
        return super().__getitem__(claim)


def test_every_golden_claim_is_stepped_read_or_allow_listed():
    golden = _RecordingClaims(load_golden())
    ctx = Context(seed=0, samples=2, golden=golden)
    stepped = {step.claim for name, _ in catalog() for step in run_scenario(name, ctx).steps}
    unchecked = set(golden) - stepped - golden.read
    for claim in sorted(UNSTEPPED_CLAIMS):
        print(f"allow-listed golden claim {claim}: checked by {UNSTEPPED_CLAIMS[claim]}")
    assert unchecked == set(UNSTEPPED_CLAIMS)


def _without_deg_g():
    claims = dict(load_golden())
    del claims["schubert.deg_G"]
    return json.dumps({"version": 1, "claims": claims})


def _with_pin(claim, value):
    def content():
        claims = dict(load_golden())
        claims[claim] = value
        return json.dumps({"version": 1, "claims": claims})

    return content


@pytest.mark.parametrize("route", ["flag", "env"])
@pytest.mark.parametrize(
    "content, message, scenario",
    [
        (None, "cannot read golden file", "schubert-table"),
        ("{not json", "cannot read golden file", "schubert-table"),
        ("{}", 'has no "claims" object', "schubert-table"),
        (_without_deg_g, "claim 'schubert.deg_G' missing from the golden store", "schubert-table"),
        (_with_pin("split.min_success_fraction", "0.5"), "must be a number", "determinantal-split"),
        (_with_pin("split.min_success_fraction", True), "must be a number", "node-projection"),
        (_with_pin("quadrics.vertex_curve_display", "t0^3"), "vertex_curve_display' is malformed", "node-projection"),
        (_with_pin("quadrics.vertex_curve_display", [1, 2]), "vertex_curve_display' is malformed", "node-projection"),
        (_with_pin("quadrics.vertex_curve_display", [{"terms": []}]), "vertex_curve_display' is malformed", "node-projection"),
        (_with_pin("conic_of_centers.kernel_display", "oops"), "kernel_display' is malformed", "conic-of-centers"),
        (_with_pin("conic_of_centers.kernel_display", [{"terms": []}]), "kernel_display' is malformed", "conic-of-centers"),
    ],
    ids=[
        "missing-file",
        "bad-json",
        "no-claims",
        "missing-claim",
        "string-fraction",
        "bool-fraction",
        "string-display",
        "number-display",
        "keyless-display",
        "string-kernel",
        "keyless-kernel",
    ],
)
def test_malformed_golden_file_is_a_usage_error(content, message, scenario, route, tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    if content is not None:
        path.write_text(content() if callable(content) else content)
    if route == "flag":
        argv = ["run", scenario, "--golden", str(path), "--samples", "1"]
    else:
        monkeypatch.setenv("FANO10_GOLDEN_PATH", str(path))
        argv = ["run", scenario, "--samples", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_pipeline_mismatch_is_a_failed_step(tmp_path, capsys):
    tampered = dict(load_golden())
    tampered["line.deg_Y"] = 11
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"version": 1, "claims": tampered}))
    assert main(["run", "line-transform", "--golden", str(path)]) == 1
    assert "FAIL line.deg_Y: computed 10, pinned 11" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenario, target, error, claim, note",
    [
        (
            "aut-w-closure",
            "group_closure_check",
            ClosureError,
            "autw.closure_failures",
            "500 random pairs; first failure: sample 3 (ClosureError)",
        ),
        (
            "orbit-witnesses",
            "orbit_transitivity_witness",
            WitnessError,
            "orbit.witness_failures",
            "60 transported pairs; first failure: sample 3 (WitnessError)",
        ),
    ],
)
def test_sampled_step_note_names_first_failing_sample(scenario, target, error, claim, note, monkeypatch):
    original = getattr(autw, target)
    calls = []

    def fail_on_sample_3(*args):
        calls.append(None)
        if len(calls) == 4:
            raise error("injected")
        return original(*args)

    monkeypatch.setattr(autw, target, fail_on_sample_3)
    report = run_scenario(scenario, Context(seed=0, samples=1))
    step = next(s for s in report.steps if s.claim == claim)
    assert step.computed == 1
    assert step.note == note


def test_every_scenario_takes_ctx_and_check():
    for name, (fn, _) in REGISTRY.items():
        assert list(inspect.signature(fn).parameters) == ["ctx", "check"], name
        assert fn.__module__.startswith("fanocalc.") and "." not in fn.__qualname__, name


@pytest.mark.parametrize(
    "scenario, target",
    [("aut-w-closure", "group_closure_check"), ("orbit-witnesses", "orbit_transitivity_witness")],
)
def test_sampled_loop_does_not_count_a_foreign_error(scenario, target, monkeypatch):
    # only the errors the sampled calls raise by contract are failures of a
    # sample; any other error leaves the scenario
    def broken(*args):
        raise TypeError("unrelated programming error")

    monkeypatch.setattr(autw, target, broken)
    with pytest.raises(TypeError, match="unrelated programming error"):
        run_scenario(scenario, Context(seed=0, samples=1))


def test_internal_error_exits_3_with_the_traceback(monkeypatch, capsys):
    def broken(*args):
        raise TypeError("unrelated programming error")

    monkeypatch.setattr(autw, "group_closure_check", broken)
    assert main(["run", "aut-w-closure"]) == 3
    captured = capsys.readouterr()
    assert "autw.closure_failures" not in captured.out
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("\ninternal error: TypeError: unrelated programming error\n")

