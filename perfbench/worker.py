"""Child process of the benchmark: one fresh interpreter per measurement.

    worker.py setup WORKLOAD SEED          set up, print "ready", exit
    worker.py run WORKLOAD SEED SECONDS    closed loop of whole batches
    worker.py trace WORKLOAD SEED          fixed ops, untraced then traced
    worker.py trace-cli SEED               traced ``fanocalc report-all``

The first stdout line is "ready" plus the path of the imported package, sent
when the first op could run; the last is one JSON object with the raw
measurements.  ``run.py`` turns those into metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import speed
import tracing
import workloads

# Ops of a traced loop run, measured untraced and then traced; a fixed count
# keeps per-layer totals comparable between commits of different speed.
TRACE_OPS = 2 * workloads.BATCH


def setup(workload: str, seed: int):
    """Import the package, load the golden claims and build the first batch."""
    import fanocalc
    from fanocalc import cli, scenarios  # noqa: F401  (the CLI imports both)

    scenarios.load_golden()
    loop = None
    first = []
    if workload in workloads.LOOPS:
        loop = workloads.LOOPS[workload]()
        first = [loop.make_input(seed, i) for i in range(workloads.BATCH)]
    print("ready", json.dumps(fanocalc.__file__), flush=True)
    return loop, first


def run_ops(loop, items) -> tuple[list, list[float]]:
    """Time each op; returns [(item, result or exception, seconds)] and the
    speed-kernel times taken before the first op and after every op, so op
    ``i`` lies between kernel samples ``i`` and ``i + 1``."""
    done, kernel = [], [speed.kernel_s()]
    for item in items:
        start = time.perf_counter()
        try:
            result = loop.run(item)
        except Exception as exc:  # counted as a failed op, never re-raised
            result = exc
        done.append((item, result, time.perf_counter() - start))
        kernel.append(speed.kernel_s())
    return done, kernel


def check_ops(loop, done, seed: int, failures: list) -> None:
    for item, result, _ in done:
        try:
            if isinstance(result, Exception):
                raise result
            loop.check(item, result)
        except Exception as exc:
            failures.append({"type": type(exc).__name__, "seed": seed, "op": item[0], "error": str(exc)[:200]})


def run_loop(loop, seed: int, seconds: float, items) -> dict:
    """Whole batches until their ops took ``seconds``; each batch carries
    its op times and the speed-kernel times around them."""
    batches, failures = [], []
    index = 0
    while True:
        done, kernel = run_ops(loop, items)
        batches.append({"ops_s": [took for _, _, took in done], "kernel_s": kernel})
        check_ops(loop, done, seed, failures)
        index += len(items)
        if sum(sum(b["ops_s"]) for b in batches) >= seconds:
            break
        items = [loop.make_input(seed, i) for i in range(index, index + workloads.BATCH)]
    return {"batches": batches, "attempted": index, "failures": failures}


def trace_loop(workload: str, loop, seed: int, items) -> dict:
    """The same number of ops untraced, then traced, each op with the
    speed-kernel times around it."""
    more = [loop.make_input(seed, i) for i in range(len(items), TRACE_OPS)]
    untraced_items = items + more
    traced_items = [loop.make_input(seed, i) for i in range(TRACE_OPS)]
    untraced, untraced_kernel = run_ops(loop, untraced_items)
    tracer = tracing.Tracer(workloads.SCENARIOS)
    tracer.install()
    traced, traced_kernel = run_ops(loop, traced_items)
    failures: list = []
    check_ops(loop, untraced + traced, seed, failures)
    return {
        "metrics": tracer.metrics(),
        "untraced": {"ops_s": [took for _, _, took in untraced], "kernel_s": untraced_kernel},
        "traced": {"ops_s": [took for _, _, took in traced], "kernel_s": traced_kernel},
        "silent": tracer.silent_spans(workload),
        "attempted": 2 * TRACE_OPS,
        "failures": failures,
    }


def trace_cli(seed: int) -> dict:
    tracer = tracing.Tracer(workloads.SCENARIOS)
    tracer.install()
    from fanocalc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["report-all", "--format", "json", "--seed", str(seed)])
    return {
        "metrics": tracer.metrics(),
        "silent": tracer.silent_spans("report-all"),
        "exit": code,
        "stdout": out.getvalue(),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace-cli":
        setup("report-all", int(argv[1]))
        print(json.dumps(trace_cli(int(argv[1]))))
        return 0
    workload, seed = argv[1], int(argv[2])
    loop, items = setup(workload, seed)
    if mode == "run":
        print(json.dumps(run_loop(loop, seed, float(argv[3]), items)))
    elif mode == "trace":
        print(json.dumps(trace_loop(workload, loop, seed, items)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
