"""fanocalc benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

    report-all           ``python -m fanocalc report-all --format json``
    net-septics          closed loop of ``quadrics.sample_net_split``
    pencil-certificates  closed loop of skew and quadric pencil certificates

Every set-up and every measured run is a fresh child interpreter
(``worker.py`` or the CLI itself), one at a time, so peak memory is that
child's own.  Times are reported in reference seconds (see ``speed.py``).
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer spans of a separate traced run (see
``tracing.py``).  The line before it records provenance and details.
Outputs are checked independently; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("report-all", "net-septics", "pencil-certificates")
SETUPS = 15  # fresh-process set-ups per run; setup_s is their median
TAIL = 90  # percentile of op_tail_ms on the loops (>= 10 ops beyond it)
CLI_SAMPLE_S = 0.25  # how often a CLI run is paused for a speed sample
SETUP_SAMPLE_S = 0.04  # and a set-up
DEADLINE_S = 170.0
GOLDEN = ROOT / "src" / "fanocalc" / "data" / "golden.json"
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    stdout: str
    code: int
    wall_s: float  # excluding the time it was paused for speed samples
    ready_s: float | None
    peak_rss_mb: float
    kernel_s: list[float] = field(default_factory=list)

    def reference_s(self) -> float:
        """Wall time in reference seconds, from the samples taken during it."""
        return self.wall_s * speed.scale(self.kernel_s)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FANO10_GOLDEN_PATH", None)  # always the packaged golden file
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sample_paused(pid: int, kernel: list[float]):
    """Stop the child, run the speed kernel on the CPU it shares with this
    process, and resume it.  Returns (status, rusage) if the child had
    exited instead, else None."""
    os.kill(pid, signal.SIGSTOP)
    _, status, usage = os.wait4(pid, os.WUNTRACED)
    if not os.WIFSTOPPED(status):
        return status, usage
    try:
        kernel.append(speed.kernel_s())
    finally:
        os.kill(pid, signal.SIGCONT)
    return None


def spawn(args: list[str], deadline: float, sample_every: float = math.inf) -> Child:
    """Run ``python args`` to the end and time it.  The child is paused every
    ``sample_every`` seconds for a speed sample, and the pauses are left out
    of its wall time.  Its own peak RSS comes from wait4
    (RUSAGE_CHILDREN would give the largest of all children)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    out = bytearray()
    ready = None
    kernel: list[float] = []
    paused = 0.0
    reaped = None
    next_sample = start + sample_every
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"{' '.join(args[:3])} did not finish in time")
                now = time.perf_counter()
                if reaped is None and now >= next_sample:
                    reaped = sample_paused(proc.pid, kernel)
                    paused += time.perf_counter() - now
                    next_sample = time.perf_counter() + sample_every
                    continue
                if not sel.select(min(left, next_sample - now)):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready is None and b"\n" in out:
                    ready = time.perf_counter() - start - paused
    except BaseException:
        if reaped is None:
            proc.kill()
        raise
    finally:
        if reaped is None:
            _, status, usage = os.wait4(proc.pid, 0)
        else:
            status, usage = reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    wall = time.perf_counter() - start - paused
    return Child(out.decode(), proc.returncode, wall, ready, usage.ru_maxrss / 1024, kernel)


def last_json(child: Child) -> dict:
    if child.code != 0:
        raise RuntimeError(f"worker exited with code {child.code}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def setup_times(workload: str, seed: int, deadline: float) -> tuple[list[float], list[float]]:
    """Measured and reference seconds of SETUPS fresh set-ups, each scaled
    by the speed samples taken during it and just before and after it."""
    measured, scaled = [], []
    before = speed.kernel_s()
    for _ in range(SETUPS):
        child = spawn([str(HERE / "worker.py"), "setup", workload, str(seed)], deadline, SETUP_SAMPLE_S)
        after = speed.kernel_s()
        first = child.stdout.split("\n", 1)[0].split(" ", 1)
        if child.code != 0 or first[0] != "ready":
            raise RuntimeError(f"set-up of {workload} failed with code {child.code}")
        package = Path(json.loads(first[1])).resolve()
        if ROOT / "src" not in package.parents:
            raise RuntimeError(f"imported {package}, not the package of this checkout")
        measured.append(child.ready_s)
        scaled.append(child.ready_s * speed.scale([before, *child.kernel_s, after]))
        before = after
    return measured, scaled


# -- report-all ---------------------------------------------------------------


def parse_reports(text: str) -> list[dict]:
    """The CLI prints one indented JSON document per scenario."""
    decoder = json.JSONDecoder()
    reports, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return reports
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)


def check_report_all(stdout: str, code: int, seed: int, run: int, failures: list) -> int:
    """Exit code 0, all 15 scenarios present, every step passed.  One
    failure is recorded per scenario that is missing or has a step that did
    not pass.  Soft steps are left out: the CLI marks them informational,
    and some record a sampled caveat (``split.all_samples_clean`` is false
    when one of the 20 random nets is degenerate).  Returns how many soft
    steps did not pass."""
    try:
        reports = {r["scenario"]: r for r in parse_reports(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        reports = {}
        failures.append({"type": type(exc).__name__, "seed": seed, "op": run, "error": "unreadable report"})
    soft_misses = 0
    for name in workloads.SCENARIOS:
        report = reports.get(name)
        if report is None:
            failures.append({"type": "MissingScenario", "seed": seed, "op": f"{run}:{name}"})
            continue
        missed = [s for s in report["steps"] if not s["passed"]]
        hard = [s["claim"] for s in missed if not s["soft"]]
        soft_misses += len(missed) - len(hard)
        if hard or report["status"] == "fail":
            failures.append({"type": "ScenarioFailed", "seed": seed, "op": f"{run}:{name}", "error": hard})
    if code != 0 and not failures:
        failures.append({"type": "ExitCode", "seed": seed, "op": run, "error": str(code)})
    return soft_misses


def cli_args(seed: int) -> list[str]:
    return ["-m", "fanocalc", "report-all", "--format", "json", "--seed", str(seed)]


def report_all(seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setup_measured, setup_scaled = setup_times("report-all", seed, deadline)
    runs: list[Child] = []
    failures: list = []
    soft_misses = 0
    # whole CLI runs until they took --seconds, and at least two
    while len(runs) < 2 or sum(c.wall_s for c in runs) < seconds:
        child = spawn(cli_args(seed), deadline, CLI_SAMPLE_S)
        soft_misses += check_report_all(child.stdout, child.code, seed, len(runs), failures)
        runs.append(child)
    walls = [c.reference_s() for c in runs]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(runs) / sum(walls),
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_tail_ms": 1000 * max(walls),
        "peak_rss_mb": max(c.peak_rss_mb for c in runs),
    }
    detail = {
        "op": "one report-all process; attempted/failed count scenarios",
        "ops": len(runs),
        "op_tail": f"max of {len(runs)} runs",
        "measured_wall_s": [c.wall_s for c in runs],
        "speed_factors": [round(speed.scale(c.kernel_s), 4) for c in runs],
        "measured_setup_s": statistics.median(setup_measured),
        "soft_steps_not_passed": soft_misses,
        "attempted": len(workloads.SCENARIOS) * len(runs),
        "failures": failures,
    }
    return metrics, detail


def scaled_spans(metrics: dict, factor: float) -> dict:
    """Per-layer metrics with every time in reference seconds."""
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def trace_report_all(seed: int, deadline: float) -> tuple[dict, dict]:
    failures: list = []
    plain = spawn(cli_args(seed), deadline, CLI_SAMPLE_S)
    soft_misses = check_report_all(plain.stdout, plain.code, seed, 0, failures)
    traced_child = spawn([str(HERE / "worker.py"), "trace-cli", str(seed)], deadline, CLI_SAMPLE_S)
    traced = last_json(traced_child)
    soft_misses += check_report_all(traced["stdout"], traced["exit"], seed, 1, failures)
    metrics = scaled_spans(traced["metrics"], speed.scale(traced_child.kernel_s))
    metrics["trace.overhead_s"] = traced_child.reference_s() - plain.reference_s()
    detail = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced_child.wall_s,
        "silent_spans": traced["silent"],
        "soft_steps_not_passed": soft_misses,
        "attempted": 2 * len(workloads.SCENARIOS),
        "failures": failures,
    }
    return metrics, detail


# -- loops --------------------------------------------------------------------


def reference_ops(batch: dict) -> list[float]:
    """Op times of a batch in reference seconds, each op scaled by the speed
    kernel run just before and just after it."""
    kernel = batch["kernel_s"]
    return [took * speed.scale(kernel[i : i + 2]) for i, took in enumerate(batch["ops_s"])]


def loop(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setup_measured, setup_scaled = setup_times(workload, seed, deadline)
    child = spawn([str(HERE / "worker.py"), "run", workload, str(seed), str(seconds)], deadline)
    raw = last_json(child)
    batches = [reference_ops(b) for b in raw["batches"]]
    walls = [sum(b) for b in batches]
    latencies = [t for b in batches for t in b]
    measured = [sum(b["ops_s"]) for b in raw["batches"]]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls),
        "ops_per_s": raw["attempted"] / sum(walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * statistics.quantiles(latencies, n=100)[TAIL - 1],
        "peak_rss_mb": child.peak_rss_mb,
    }
    detail = {
        "op": workload,
        "ops": len(latencies),
        "op_tail": f"p{TAIL} of {len(latencies)} ops",
        "batches": len(walls),
        "measured_wall_s": statistics.median(measured),
        "speed_factors": [round(w / m, 4) for w, m in zip(walls, measured)],
        "measured_setup_s": statistics.median(setup_measured),
        "attempted": raw["attempted"],
        "failures": raw["failures"],
    }
    return metrics, detail


def trace_loop(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    child = spawn([str(HERE / "worker.py"), "trace", workload, str(seed)], deadline)
    raw = last_json(child)
    untraced = sum(reference_ops(raw["untraced"]))
    traced = sum(reference_ops(raw["traced"]))
    metrics = scaled_spans(raw["metrics"], traced / sum(raw["traced"]["ops_s"]))
    metrics["trace.overhead_s"] = traced - untraced
    detail = {
        "untraced_wall_s": sum(raw["untraced"]["ops_s"]),
        "traced_wall_s": sum(raw["traced"]["ops_s"]),
        "silent_spans": raw["silent"],
        "attempted": raw["attempted"],
        "failures": raw["failures"],
    }
    return metrics, detail


# -- provenance ---------------------------------------------------------------


def git_state() -> dict:
    """sha and dirty flag when ROOT is itself a git work tree, else nulls."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, env=env
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    sources = sorted(p for p in (ROOT / "src").rglob("*.py") if "__pycache__" not in p.parts)
    return {
        **git_state(),
        "src_sha256": sha256(sources + [GOLDEN]),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "workload": workload,
        "seed": seed,
        "golden_sha256": hashlib.sha256(GOLDEN.read_bytes()).hexdigest(),
    }


def pin_to_fastest_cpu() -> int:
    """Run this process and its children on one CPU, the one where the speed
    kernel is fastest now.  The CPUs of a shared host differ in speed (one
    whose sibling thread is busy runs about 1.7x slower), so work that
    migrated between them would escape the speed samples."""
    def kernel_on(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return statistics.median(speed.probe(3))

    best = min(sorted(os.sched_getaffinity(0)), key=kernel_on)
    os.sched_setaffinity(0, {best})
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description="fanocalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fanocalc" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: no fanocalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_fastest_cpu()
    try:
        if args.workload == "report-all":
            if args.trace:
                metrics, detail = trace_report_all(args.seed, deadline)
            else:
                metrics, detail = report_all(args.seed, args.seconds, deadline)
        elif args.trace:
            metrics, detail = trace_loop(args.workload, args.seed, deadline)
        else:
            metrics, detail = loop(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    failures = detail["failures"]
    for span in detail.get("silent_spans", ()):
        failures.append({"type": "SilentSpan", "seed": args.seed, "op": span})
    for failure in failures:
        print(f"failure: {json.dumps(failure)}", file=sys.stderr)
    attempted = detail["attempted"]
    detail["failed_ops_frac"] = len(failures) / attempted
    info = {**provenance(args.workload, args.seed), "nproc": nproc, "pinned_cpu": cpu}
    print(json.dumps({"provenance": info, "detail": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or unit_of(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
