#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, recorded in a BENCH_*.json file.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seed N --seconds S --pairs K [--trace 0|1] --out BENCH_<short-sha>.json

DIR is a checkout of the parent commit or of the change.  Pair i runs
``perfbench/run.py`` once in each checkout, parent first on even i and change
first on odd i, and keeps the exit code, the wall seconds and the last two
stdout lines of each run: provenance with details, and the result line.  A
run that prints no such lines (a crash or a timeout) keeps the last 2000
characters of its stderr instead.  The output file gets one entry per
(workload, seed, trace) holding every run and, per end-to-end metric, each
side's median and quartiles, the number of pairs the change won and the
parent's interquartile range, over the pairs where both runs have a result.
The file is always written; the exit code is 1 unless every run exited 0
with a result.  It also holds a
description, the parent's revision and the change's (``git describe
--always --dirty`` of each checkout, else the directory name).  Other
entries and keys already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")

DESCRIPTION = (
    "Alternating parent/change pairs of perfbench/run.py measured with scripts/bench_pairs.py "
    "(each pair: exit code, wall seconds, provenance and result line of both checkouts; "
    "per metric: medians, quartiles, wins and the parent's interquartile range). "
    "Metric times are reference seconds (perfbench/speed.py)."
)


def run_once(checkout: Path, args) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    run = {"exit": proc.returncode, "wall_seconds": round(seconds, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        run["provenance"], run["result"] = (json.loads(line) for line in lines[-2:])
    except ValueError:
        run["stderr"] = proc.stderr[-2000:]
    return run


def revision(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    pairs = [p for p in pairs if all("result" in p[side] for side in SIDES)]
    if not pairs:
        return {}
    names = pairs[0]["parent"]["result"]["metrics"]
    out = {}
    for name in names:
        if name not in better:
            continue
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        out[name] = {
            "better": better[name],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gain": sign * (change["median"] - parent["median"]),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args)
        pairs.append(pair)
        progress = {side: pair[side]["result"]["metrics"] if "result" in pair[side] else pair[side] for side in SIDES}
        print(json.dumps(progress), flush=True)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("description", DESCRIPTION)
    data.setdefault("parent_rev", revision(args.parent))
    data.setdefault("change", revision(args.change))
    key = f"{args.workload} seed={args.seed} trace={args.trace}"
    data.setdefault("runs", {})[key] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
        f"--seconds {args.seconds:g} --trace {args.trace}",
        "summary": summarize(pairs, better),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(p[side]["exit"] == 0 and "result" in p[side] for p in pairs for side in SIDES) else 1


if __name__ == "__main__":
    raise SystemExit(main())
