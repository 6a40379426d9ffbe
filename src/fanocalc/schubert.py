"""Schubert calculus on small Grassmannians.

Classes of G(k+1, n+1) are integer combinations of partitions inside the
(k+1) x (n-k) box.  Products go through the Giambelli determinant in the
single-row classes followed by iterated Pieri row multiplications; this is
deliberately a different route from the brute-force Littlewood-Richardson
tableau count used as the test oracle.

The ring is specialized to G(2,5) for all the degree bookkeeping here
(box 2 x 3, top class (3,3), deg G = 5), but every operation takes the ring
spec as data so the oracle can also be cross-checked on other small cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Mapping

from .errors import DomainError

Partition = tuple[int, ...]


@dataclass(frozen=True)
class GrassmannRingSpec:
    """The ring H*(G(k+1, n+1)): partitions in a (k+1)-row, (n-k)-column box."""

    k: int
    n: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise DomainError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def rows(self) -> int:
        return self.k + 1

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def top(self) -> Partition:
        return (self.cols,) * self.rows

    def pad(self, p: Partition) -> Partition:
        return tuple(p) + (0,) * (self.rows - len(p))

    def in_box(self, p: Partition) -> bool:
        p = self.pad(p)
        return (
            len(p) == self.rows
            and all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            and all(0 <= x <= self.cols for x in p)
        )

    def box_partitions(self) -> list[Partition]:
        out: list[Partition] = []

        def rec(prefix: list[int], bound: int):
            if len(prefix) == self.rows:
                out.append(tuple(prefix))
                return
            for x in range(bound, -1, -1):
                rec(prefix + [x], x)

        rec([], self.cols)
        return sorted(out, key=lambda p: (sum(p), p))


G25 = GrassmannRingSpec(k=1, n=4)


class SchubertClass:
    """Formal integer combination of box partitions."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GrassmannRingSpec, terms: Mapping[Partition, int] = ()):
        clean: dict[Partition, int] = {}
        for p, c in dict(terms).items():
            p = spec.pad(tuple(p))
            if not spec.in_box(p):
                raise DomainError(f"partition {p} outside the {spec.rows} x {spec.cols} box")
            if c:
                clean[p] = clean.get(p, 0) + int(c)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "terms", {p: c for p, c in clean.items() if c})

    def __setattr__(self, *_args):
        raise AttributeError("SchubertClass is immutable")

    @classmethod
    def sigma(cls, *parts: int, spec: GrassmannRingSpec = G25) -> "SchubertClass":
        return cls(spec, {tuple(parts): 1})

    @classmethod
    def zero(cls, spec: GrassmannRingSpec = G25) -> "SchubertClass":
        return cls(spec, {})

    @classmethod
    def one(cls, spec: GrassmannRingSpec = G25) -> "SchubertClass":
        return cls(spec, {(0,) * spec.rows: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, p: Partition) -> int:
        return self.terms.get(self.spec.pad(tuple(p)), 0)

    def codimensions(self) -> set[int]:
        return {sum(p) for p in self.terms}

    def __add__(self, other: "SchubertClass") -> "SchubertClass":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return SchubertClass(self.spec, out)

    def __sub__(self, other: "SchubertClass") -> "SchubertClass":
        return self + other.scale(-1)

    def scale(self, c: int) -> "SchubertClass":
        return SchubertClass(self.spec, {p: c * v for p, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, SchubertClass)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            label = "s(" + ",".join(str(x) for x in p) + ")"
            bits.append(f"{c}*{label}" if c != 1 else label)
        return " + ".join(bits)

    def to_json(self) -> dict[str, int]:
        return {
            ",".join(str(x) for x in p): c
            for p, c in sorted(self.terms.items())
        }


def _row_strips(spec: GrassmannRingSpec, lam: Partition, a: int) -> Iterator[Partition]:
    """Partitions mu obtained from lam by adding a horizontal a-strip in the box
    (interlacing mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...)."""
    lam = spec.pad(lam)
    rows = spec.rows

    def rec(i: int, prev_lam: int, acc: list[int], left: int):
        if i == rows:
            if left == 0:
                yield tuple(acc)
            return
        low = lam[i]
        high = min(prev_lam, spec.cols, lam[i] + left)
        for mu_i in range(low, high + 1):
            yield from rec(i + 1, lam[i], acc + [mu_i], left - (mu_i - lam[i]))

    yield from rec(0, spec.cols, [], a)


def pieri_multiply(c: SchubertClass, a: int) -> SchubertClass:
    """Multiply by the special class sigma_a."""
    spec = c.spec
    if not 1 <= a <= spec.cols:
        raise DomainError(f"Pieri needs 1 <= a <= {spec.cols}, got {a}")
    out: dict[Partition, int] = {}
    for lam, coeff in c.terms.items():
        for mu in _row_strips(spec, lam, a):
            out[mu] = out.get(mu, 0) + coeff
    return SchubertClass(spec, out)


def _giambelli_monomials(spec: GrassmannRingSpec, lam: Partition) -> list[tuple[int, tuple[int, ...]]]:
    """Expand sigma_lam = det(sigma_{lam_i + j - i}) into (sign, row-class
    degrees) monomials; sigma_0 = 1 and out-of-range degrees kill a term."""
    lam = spec.pad(lam)
    r = len(lam)
    out = []
    for perm in permutations(range(r)):
        sign = 1
        for i in range(r):
            for j in range(i + 1, r):
                if perm[i] > perm[j]:
                    sign = -sign
        degrees = []
        dead = False
        for i in range(r):
            m = lam[i] + perm[i] - i
            if m < 0 or m > spec.cols:
                dead = True
                break
            if m > 0:
                degrees.append(m)
        if not dead:
            out.append((sign, tuple(degrees)))
    return out


def multiply(c1: SchubertClass, c2: SchubertClass) -> SchubertClass:
    """Product in the cohomology ring: c2 is expanded by Giambelli into
    single-row classes which act on c1 by iterated Pieri."""
    if c1.spec != c2.spec:
        raise DomainError("classes live in different rings")
    spec = c1.spec
    result = SchubertClass.zero(spec)
    for lam, coeff in c2.terms.items():
        for sign, degrees in _giambelli_monomials(spec, lam):
            acc = c1
            for m in degrees:
                acc = pieri_multiply(acc, m)
            result = result + acc.scale(sign * coeff)
    return result


def power(c: SchubertClass, m: int) -> SchubertClass:
    out = SchubertClass.one(c.spec)
    for _ in range(m):
        out = multiply(out, c)
    return out


def degree_pairing(c: SchubertClass) -> int:
    """Coefficient of the box class; input must be top-codimension homogeneous."""
    spec = c.spec
    top_codim = spec.rows * spec.cols
    codims = c.codimensions()
    if c.is_zero:
        return 0
    if codims != {top_codim}:
        raise DomainError(
            f"degree pairing needs pure codimension {top_codim}, found {sorted(codims)}"
        )
    return c.coefficient(spec.top)


def complement(spec: GrassmannRingSpec, lam: Partition) -> Partition:
    """Poincare-dual partition: the reversed box complement."""
    lam = spec.pad(lam)
    return tuple(spec.cols - x for x in reversed(lam))


def sigma1_power_table(spec: GrassmannRingSpec = G25) -> list[SchubertClass]:
    """sigma_1^m for m = 0 .. rows*cols."""
    s1 = SchubertClass.sigma(1, spec=spec)
    out = [SchubertClass.one(spec)]
    for _ in range(spec.rows * spec.cols):
        out.append(multiply(out[-1], s1))
    return out


def cycle_degree_report() -> dict[str, int]:
    """Degrees of the cycles driving the intersection bookkeeping on G(2,5):

    - deg_G: the Grassmannian itself (sigma_1^6),
    - deg_W: its hyperplane-pair section, same degree,
    - deg_X: the threefold cut by one more quadric, class 2 sigma_1^3,
    - slice_20: the curve (sigma_2 . X . H), degree 6,
    - slice_11: the curve (sigma_11 . X . H), degree 4.
    """
    s1 = SchubertClass.sigma(1)
    s2 = SchubertClass.sigma(2)
    s11 = SchubertClass.sigma(1, 1)
    deg_g = degree_pairing(power(s1, 6))
    x_class = power(s1, 3).scale(2)  # the threefold: quadric section of W
    deg_x = degree_pairing(multiply(x_class, power(s1, 3)))
    slice20 = degree_pairing(multiply(multiply(s2, x_class), s1))
    slice11 = degree_pairing(multiply(multiply(s11, x_class), s1))
    return {
        "deg_G": deg_g,
        "deg_W": deg_g,
        "deg_X": deg_x,
        "slice_20": slice20,
        "slice_11": slice11,
    }
