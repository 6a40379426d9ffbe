"""Spans and counters for the traced run, installed from outside ``src/``.

Every public function named in SPANS is replaced, at every binding in the
``fanocalc`` modules and classes (from-imports such as ``quadrics.poly_det``
included), by a wrapper that records its calls and its self time: its
duration minus the time covered by the spans it called.  The ``MultiPoly``
arithmetic dunders run about a million times in ``report-all``, so they are
only counted; timing each call would distort the self times around them.
"""

from __future__ import annotations

import sys
import time

ALL = ("report-all", "net-septics", "pencil-certificates")
REPORT = ("report-all",)
NETS = ("report-all", "net-septics")
PENCILS = ("report-all", "pencil-certificates")

#: (metric stem, module, class or None, attribute, workloads predicted to call it)
SPANS = (
    ("polynomials.div_exact", "polynomials", "MultiPoly", "div_exact", ALL),
    ("polynomials.gcd", "polynomials", None, "poly_gcd", ALL),
    ("polynomials.normalize", "polynomials", None, "normalize_projective", ALL),
    ("matrices.det", "matrices", None, "poly_det", ALL),
    ("matrices.minor_gcd", "matrices", None, "minor_gcd", PENCILS),
    ("matrices.kernel", "matrices", None, "kernel_over_fraction_field", ALL),
    ("matrices.rank", "matrices", None, "rank_over_fraction_field", ALL),
    ("matrices.matmul", "matrices", "PolyMatrix", "__mul__", REPORT),
    ("forms.squarefree", "forms", None, "binary_form_roots_squarefree", NETS),
    ("grassmann.pencil_cert", "grassmann", None, "pencil_rank_certificate", PENCILS),
    ("grassmann.conic_of_centers", "grassmann", None, "conic_of_centers", PENCILS),
    ("autw.closure", "autw", None, "group_closure_check", REPORT),
    ("autw.wedge_matrix", "autw", None, "wedge_square_matrix", REPORT),
    ("autw.elements_equal", "autw", None, "elements_equal", REPORT),
    ("autw.action", "autw", None, "wedge_square_action", REPORT),
    ("autw.classify", "autw", None, "orbit_classify", REPORT),
    ("autw.witness", "autw", None, "orbit_transitivity_witness", REPORT),
    ("autw.random_element", "autw", None, "random_element", REPORT),
    ("quadrics.septic", "quadrics", None, "determinantal_septic", NETS),
    ("quadrics.split", "quadrics", None, "septic_split", NETS),
    ("quadrics.rank_certificate", "quadrics", "QuadricPencil", "rank_certificate", PENCILS),
    ("scenarios.to_json", "scenarios", "Report", "to_json", REPORT),
)

#: Spans whose call count is reported beside their self time.
CALL_METRICS = (
    "polynomials.div_exact",
    "polynomials.gcd",
    "matrices.det",
    "matrices.matmul",
    "autw.wedge_matrix",
)

#: MultiPoly dunders counted (never timed), with every alias they have.
COUNTED = (("polynomials.mul_calls", "__mul__"), ("polynomials.add_calls", "__add__"))


def _bindings(original):
    """(owner, attribute) pairs of every fanocalc module or class attribute
    that is ``original``."""
    owners = [m for n, m in sys.modules.items() if n == "fanocalc" or n.startswith("fanocalc.")]
    owners += [
        v
        for m in list(owners)
        for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("fanocalc")
    ]
    return [
        (o, attr) for o in dict.fromkeys(owners) for attr, v in list(vars(o).items()) if v is original
    ]


def _rebind(original, replacement) -> None:
    found = _bindings(original)
    if not found:
        raise LookupError(f"no binding of {original!r} to trace")
    for owner, attr in found:
        setattr(owner, attr, replacement)


class Tracer:
    """Call counts and self times of the declared spans in this process."""

    def __init__(self, scenario_names):
        self.scenario_names = tuple(scenario_names)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"polynomials.init_calls": 0, "polynomials.peak_terms": 0, "quadrics.net_retries": 0}
        self.counts.update({name: 0 for name, _ in COUNTED})
        self.nets = [0, 0]  # [clean, sampled]
        self._child_s: list[float] = []
        self.predicted: dict[str, tuple[str, ...]] = {}

    def _timed(self, stem: str, fn):
        self.calls[stem] = 0
        self.self_s[stem] = 0.0
        stack = self._child_s
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                calls[stem] += 1
                self_s[stem] += took - stack.pop()
                if stack:
                    stack[-1] += took

        return span

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every declared span and counter; raises if one is missing."""
        import importlib

        from fanocalc import errors, polynomials, quadrics, scenarios

        for stem, module, cls, attr, workloads in SPANS:
            owner = importlib.import_module(f"fanocalc.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            _rebind(original, self._timed(stem, original))
            self.predicted[stem] = workloads
        for name in self.scenario_names:
            fn, desc = scenarios.REGISTRY[name]
            stem = f"scenarios.{name}"
            wrapped = self._timed(stem, fn)
            scenarios.REGISTRY[name] = (wrapped, desc)
            _rebind(fn, wrapped)
            self.predicted[stem] = REPORT

        poly = polynomials.MultiPoly
        for key, attr in COUNTED:
            _rebind(getattr(poly, attr), self._counted(key, getattr(poly, attr)))
        init = poly.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts["polynomials.init_calls"] += 1
            if len(obj.terms) > counts["polynomials.peak_terms"]:
                counts["polynomials.peak_terms"] = len(obj.terms)

        _rebind(init, counted_init)

        build_net = quadrics.build_net

        def counted_build_net(*args, **kwargs):
            try:
                return build_net(*args, **kwargs)
            except errors.DegeneracyError:
                counts["quadrics.net_retries"] += 1
                raise

        _rebind(build_net, counted_build_net)

        sample = quadrics.sample_net_split
        nets = self.nets

        def counted_sample(*args, **kwargs):
            report = sample(*args, **kwargs)
            nets[0] += bool(report["ok"])
            nets[1] += 1
            return report

        _rebind(sample, counted_sample)

    def silent_spans(self, workload: str) -> list[str]:
        """Declared spans predicted to fire on ``workload`` that recorded no call."""
        return [s for s, w in self.predicted.items() if workload in w and self.calls[s] == 0]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        out["quadrics.clean_net_ratio"] = self.nets[0] / self.nets[1] if self.nets[1] else 0.0
        for stem, seconds in self.self_s.items():
            out[f"{stem}_s"] = seconds
        for stem in CALL_METRICS:
            out[f"{stem}_calls"] = self.calls[stem]
        return out
