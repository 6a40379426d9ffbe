"""Inputs, operations and independent output checks of the loop workloads.

Each workload turns (seed, op index) into one input, runs one library call
on it, and checks the result with plain ``Fraction`` arithmetic that shares
no code with the matrices/polynomials layers under test.  Inputs are built
before an op is timed and checked after it, so neither is part of its
latency.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: Ops per batch; the CLI runs 20 samples by default, and ``wall_s`` of a
#: loop workload is the median wall time of one batch.
BATCH = 20

#: The 15 catalogue scenarios that ``report-all`` must report.
SCENARIOS = (
    "aut-w-closure",
    "aut-w-orbit-formula",
    "aut-w-p7",
    "conic-of-centers",
    "conic-transform",
    "determinantal-split",
    "dual-conic",
    "line-transform",
    "membership-checks",
    "node-projection",
    "orbit-invariance",
    "orbit-witnesses",
    "rank-certificates",
    "schubert-table",
    "sigma-planes",
)

# Points per op at which a result is compared with plain elimination.
CHECK_POINTS = 3


class CheckFailed(Exception):
    """An op returned a result that the independent check rejects."""


def op_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# -- plain Fraction linear algebra ------------------------------------------


def frac_rank(rows: list[list[Fraction]]) -> int:
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def frac_det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def combine(mats: list[list[list[Fraction]]], params: tuple) -> list[list[Fraction]]:
    """sum_k params[k] * mats[k]."""
    n = len(mats[0])
    return [
        [sum((p * m[i][j] for p, m in zip(params, mats)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def evaluate_terms(terms, point) -> Fraction:
    """Value of sum c * prod x_k^e_k at ``point``; ``terms`` yields (exponents, c)."""
    total = Fraction(0)
    for expo, coeff in terms:
        value = Fraction(coeff)
        for x, e in zip(point, expo):
            value *= Fraction(x) ** e
        total += value
    return total


def gram(form) -> list[list[Fraction]]:
    return [[x.constant_value() for x in row] for row in form.gram.entries]


def random_point(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    while True:
        point = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(size))
        if any(point):
            return point


# -- net-septics -------------------------------------------------------------


class NetSeptics:
    """One op: ``quadrics.sample_net_split`` on a net through the pencil."""

    name = "net-septics"

    def __init__(self):
        from fanocalc import quadrics

        self.quadrics = quadrics
        pencil = quadrics.pfaffian_pencil_canonical()
        self.pencil = (gram(pencil.a), gram(pencil.b))

    def make_input(self, seed: int, index: int):
        return index, op_rng(seed, index), op_rng(seed, index)

    def run(self, item):
        _, rng, _ = item
        return self.quadrics.sample_net_split(rng, include_coefficients=True)

    def check(self, item, report) -> None:
        index, _, replay = item
        a, b = self.pencil
        # the net sample_net_split drew: the first quadric independent of A, B
        while True:
            c = gram(self.quadrics.random_quadric(replay))
            upper = [[m[i][j] for i in range(7) for j in range(i, 7)] for m in (a, b, c)]
            if frac_rank(upper) == 3:
                break
        points = [random_point(replay, 3) for _ in range(CHECK_POINTS)]
        points.append(points[0][:2] + (Fraction(0),))
        dets = [frac_det(combine([a, b, c], p)) for p in points]
        if report["septic_degree"] is None:
            if any(dets):
                raise CheckFailed("reported a degenerate net with a nonzero determinant")
            return
        terms = report["septic_coefficients"]
        values = [evaluate_terms(terms, p) for p in points]
        ratios = {d / v for d, v in zip(dets, values) if v}
        if len(ratios) != 1 or any((d == 0) != (v == 0) for d, v in zip(dets, values)):
            raise CheckFailed(f"septic of op {index} is not proportional to det(s0 A + s1 B + s2 C)")


# -- pencil-certificates -----------------------------------------------------


def random_skew(rng: random.Random, bound: int = 9) -> list[list[Fraction]]:
    grid = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            c = Fraction(rng.randint(-bound, bound))
            grid[i][j], grid[j][i] = c, -c
    return grid


class PencilCertificates:
    """One op certifies two fresh random pencils: ``grassmann.conic_of_centers``
    of a 5 x 5 skew pencil and ``QuadricPencil.rank_certificate`` of two
    random quadrics.  Run as separate ops, the two would split the latencies
    into two modes of equal weight, with the median in the gap between them."""

    name = "pencil-certificates"

    def __init__(self):
        from fanocalc import grassmann, quadrics
        from fanocalc.matrices import PolyMatrix

        self.grassmann = grassmann
        self.quadrics = quadrics
        self.matrix = PolyMatrix

    def make_input(self, seed: int, index: int):
        rng = op_rng(seed, index)
        skew = random_skew(rng), random_skew(rng)
        qa, qb = self.quadrics.random_quadric(rng), self.quadrics.random_quadric(rng)
        skew_pencil = self.grassmann.SkewFormPencil(self.matrix((), skew[0]), self.matrix((), skew[1]))
        quadric_pencil = self.quadrics.QuadricPencil(qa, qb)
        points = [random_point(rng, 2) for _ in range(CHECK_POINTS)]
        return index, skew_pencil, quadric_pencil, (skew, (gram(qa), gram(qb))), points

    def run(self, item):
        _, skew_pencil, quadric_pencil, _, _ = item
        return self.grassmann.conic_of_centers(skew_pencil), quadric_pencil.rank_certificate()

    def check(self, item, result) -> None:
        index, _, _, (skew, quadric), points = item
        kernel, (generic, everywhere) = result
        # conic_of_centers certifies rank 4 everywhere and returns the kernel
        for p in points:
            m = combine(list(skew), p)
            if frac_rank(m) < 4:
                raise CheckFailed(f"certified rank 4 everywhere, found {frac_rank(m)} at t = {p}")
            v = [evaluate_terms(poly.terms.items(), p) for poly in kernel]
            if not any(v) or any(sum(x * y for x, y in zip(row, v)) for row in m):
                raise CheckFailed(f"kernel of op {index} fails M(t) v(t) = 0 at t = {p}")
        ranks = [frac_rank(combine(list(quadric), p)) for p in points]
        if max(ranks) != generic:
            raise CheckFailed(f"generic rank {generic}, sampled ranks {ranks}")
        if everywhere and min(ranks) < 6:
            raise CheckFailed(f"certified rank 6 everywhere, found {min(ranks)}")


LOOPS = {w.name: w for w in (NetSeptics, PencilCertificates)}
