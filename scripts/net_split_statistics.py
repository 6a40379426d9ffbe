#!/usr/bin/env python3
"""Sample random quadric nets through the distinguished pencil over a range
of seeds and tabulate how often the determinantal septic splits cleanly as
the pencil line plus a squarefree sextic.  A net that does not is counted
under the report's failure text (a vanishing determinant, a failed split),
or as "repeated-intersection" when the sextic meets the line in a double
point.

Usage:
    python scripts/net_split_statistics.py [--seeds N] [--samples N]
"""

import argparse
import random
import sys
from collections import Counter

from fanocalc.quadrics import sample_net_split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--samples", type=int, default=20)
    args = parser.parse_args()

    overall = Counter()
    for seed in range(args.seeds):
        rng = random.Random(seed)
        outcomes = Counter()
        for _ in range(args.samples):
            run = sample_net_split(rng)
            if run["ok"]:
                outcomes["clean"] += 1
            elif "failure" in run:
                outcomes[run["failure"]] += 1
            elif not run["line_intersection_distinct"]:
                outcomes["repeated-intersection"] += 1
            else:
                outcomes["unexpected degree or count"] += 1
        overall.update(outcomes)
        print(f"seed {seed:3d}: {dict(outcomes)}")
    total = sum(overall.values())
    print(f"\ntotal over {total} nets: {dict(overall)}")
    print(f"clean fraction: {overall['clean'] / total:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
