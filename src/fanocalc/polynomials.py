"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero rational coefficients,
together with an ordered tuple of variable names.  The term order everywhere
is graded lexicographic (grlex) in the declared variable order; serialized
polynomials record that order so golden-file comparisons are deterministic.

A stored coefficient has one canonical form: a nonzero ``int`` when it is
integral, else a stdlib ``Fraction`` with denominator > 1 (Fraction keeps
gcd(|num|, den) = 1 and den > 0), so integral values stay in plain ``int``
arithmetic.  ``_scalar`` is the one place that brings a value into that form;
``_quotient`` is the one coefficient division, and it returns an ``int`` when
the division is exact and never a float.  The public queries
``constant_value()`` and ``coefficient()`` still return ``Fraction``, so
``1 / value`` at a call site stays exact.

The public constructor ``MultiPoly(vars, terms)`` validates every term.
Results built inside this module go through ``MultiPoly._raw`` instead, which
stores its dict as given.  It relies on one invariant: ``vars`` is a tuple,
every key is a tuple of ``len(vars)`` non-negative ints, and every value is a
canonical coefficient.  Arithmetic keeps it by dropping the coefficients that
cancel to zero and normalizing the rest through ``_scalar``.

Exact division is heap-ordered (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): the
remainder is a mutable dict whose exponents sit in a heap, so each step pops
the grlex-leading term instead of rebuilding the remainder and searching it.

A ring element is a plain rational (an ``int`` or a ``Fraction``) or a
``MultiPoly``.  A plain rational is a constant of every ring, so ``+``, ``-``
and ``*`` already mix the two kinds.  The module functions ``is_zero``,
``div_exact``, ``plain`` and ``ring_of`` spell the remaining operations once
for both, so the same code runs over Q and over Q[vars];
``normalize_projective`` and ``projectively_equal`` are written over them.
``ring_elements`` brings a sequence into one kind: MultiPolys of its ring,
or canonical plain rationals when no value is a non-constant polynomial.

How a plain rational or a constant of another ring meets a polynomial is
decided here only: by ``MultiPoly._pair`` for one pair of operands and by
``to_ring`` for a sequence.  The one non-constant ring wins, every constant
moves into it, and two different non-constant rings are a ``ValueError``.
(Among constants only, ``_pair`` keeps the left operand's ring and
``to_ring`` takes ().)
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def _scalar(value: Scalar) -> Scalar:
    """The canonical coefficient equal to value: an int when integral, else a
    Fraction with denominator > 1.  Anything but an exact rational is refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b as a canonical coefficient; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _scalar(Fraction(a) / b)


def _grlex_key(expo: Exponent) -> tuple:
    return (sum(expo), expo)


class MultiPoly:
    """Immutable multivariate polynomial with exact rational coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty
    term map.  Arithmetic requires both operands to live in the same
    variable ring, except that constants coerce into any ring.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vs = tuple(vars)
        clean: dict[Exponent, Scalar] = {}
        n = len(vs)
        for expo, coeff in terms.items():
            e = tuple(int(x) for x in expo)
            if len(e) != n:
                raise ValueError(f"exponent {e} has length {len(e)}, expected {n}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = _scalar(coeff)
            if c:
                clean[e] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[Exponent, Scalar]) -> "MultiPoly":
        """Store an already-clean term map as it is (see the module docstring)."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, *_args):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls._raw(tuple(vars), {})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls.constant(1, vars)

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str] = ()) -> "MultiPoly":
        c = _scalar(value)
        vs = tuple(vars)
        return cls._raw(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "MultiPoly":
        vs = tuple(vars)
        if name not in vs:
            raise ValueError(f"variable {name!r} not in ring {vs}")
        expo = tuple(1 if v == name else 0 for v in vs)
        return cls._raw(vs, {expo: 1})

    @classmethod
    def monomial(cls, expo: Exponent, coeff: Scalar, vars: Sequence[str]) -> "MultiPoly":
        return cls(vars, {tuple(expo): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self.terms.values())))

    def total_degree(self) -> int:
        """Max total degree of the stored terms; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        if self.is_zero:
            return -1
        return max(e[idx] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[Exponent, Scalar]:
        """Leading (exponent, coefficient) in grlex order."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in descending grlex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def coefficient(self, expo: Exponent) -> Fraction:
        return Fraction(self.terms.get(tuple(expo), 0))

    # -- coercion ----------------------------------------------------------

    def lift(self, vars: Sequence[str]) -> "MultiPoly":
        """Re-express this polynomial in a superset ring (matching names)."""
        vs = tuple(vars)
        if vs == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vs:
                raise ValueError(f"cannot lift: {v!r} missing from {vs}")
            pos.append(vs.index(v))
        out: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            ne = [0] * len(vs)
            for p, x in zip(pos, e):
                ne[p] = x
            out[tuple(ne)] = c
        return MultiPoly._raw(vs, out)

    def _pair(self, other) -> tuple["MultiPoly", "MultiPoly"]:
        if type(other) is MultiPoly and self.vars == other.vars:
            return self, other
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented, NotImplemented
        if self.vars == other.vars:
            return self, other
        if other.is_constant:
            return self, MultiPoly.constant(other.constant_value(), self.vars)
        if self.is_constant:
            return MultiPoly.constant(self.constant_value(), other.vars), other
        raise ValueError(f"ring mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if not s:
                del out[e]
            else:
                out[e] = s if type(s) is int else _scalar(s)
        return MultiPoly._raw(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        out: dict[Exponent, Scalar] = {}
        b_terms = list(b.terms.items())
        for ea, ca in a.terms.items():
            for eb, cb in b_terms:
                e = tuple(map(add, ea, eb))
                s = out.get(e)
                out[e] = ca * cb if s is None else s + ca * cb
        return MultiPoly._raw(
            a.vars, {e: c if type(c) is int else _scalar(c) for e, c in out.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        # constants coerce into any ring; other polynomials of different rings differ
        if self.is_constant and other.is_constant:
            return self.constant_value() == other.constant_value()
        return False

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            if self.is_constant:
                h = hash(self.constant_value())
            else:
                h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and substitution ----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        idx = self.vars.index(name)
        out: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = list(e)
            ne[idx] -= 1
            # distinct terms stay distinct, so each new exponent is set once
            out[tuple(ne)] = _scalar(c * e[idx])
        return MultiPoly._raw(self.vars, out)

    def eval_some(self, values: Mapping[str, Scalar]) -> "MultiPoly":
        """Partial evaluation; unmentioned variables stay symbolic (same ring)."""
        idxs = {self.vars.index(v): _scalar(c) for v, c in values.items()}
        out: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            coeff = c
            ne = list(e)
            for i, val in idxs.items():
                if e[i]:
                    coeff *= val ** e[i]
                ne[i] = 0
            ne = tuple(ne)
            if coeff != 0:
                out[ne] = out.get(ne, Fraction(0)) + coeff
        return MultiPoly(self.vars, out)

    def compose(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute a polynomial for every variable; images share one ring."""
        rings = {img.vars for img in images.values()}
        if len(rings) != 1:
            raise ValueError("substitution images must share a ring")
        target = next(iter(rings))
        missing = [v for v in self.vars if v not in images]
        if missing:
            raise ValueError(f"no image for variables {missing}")
        result = MultiPoly.zero(target)
        for e, c in self.terms.items():
            term = MultiPoly.constant(c, target)
            for v, x in zip(self.vars, e):
                if x:
                    term = term * images[v] ** x
            result = result + term
        return result

    # -- integer normal forms ---------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integral and primitive; 0 for 0."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "MultiPoly":
        """self divided by its content (integer coefficients, gcd 1); 0 stays 0."""
        c = self.content()
        if c == 0:
            return self
        return self * _quotient(1, c)

    def monic_normal(self) -> "MultiPoly":
        """Primitive form with positive grlex-leading coefficient."""
        p = self.primitive()
        if p.is_zero:
            return p
        _, lead = p.leading()
        return -p if lead < 0 else p

    # -- division ----------------------------------------------------------

    def div_exact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Return q with self == q * divisor, or None if no exact quotient."""
        a, b = self._pair(divisor)
        if b.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if a.is_zero:
            return a
        lb_e, lb_c = b.leading()
        b_tail = [(e, c) for e, c in b.terms.items() if e != lb_e]
        # Every update below lies strictly under the popped lead, so pops come
        # in descending grlex order and each exponent enters the heap once; an
        # entry that cancels stays in rem as 0 and is skipped when popped.
        rem = dict(a.terms)
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
        heapq.heapify(heap)
        quo: dict[Exponent, Scalar] = {}
        while heap:
            lr_e = heapq.heappop(heap)[2]
            lr_c = rem.pop(lr_e)
            if not lr_c:
                continue
            qe = tuple(map(sub, lr_e, lb_e))
            if any(x < 0 for x in qe):
                return None
            qc = _quotient(lr_c, lb_c)
            quo[qe] = qc
            for e, c in b_tail:
                u = tuple(map(add, qe, e))
                s = rem.get(u)
                if s is None:
                    s = -qc * c
                    heapq.heappush(heap, (-sum(u), tuple(map(neg, u)), u))
                else:
                    s = s - qc * c
                rem[u] = s if type(s) is int else _scalar(s)
        return MultiPoly._raw(a.vars, quo)

    def divides(self, other: "MultiPoly") -> bool:
        return other.div_exact(self) is not None

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"MultiPoly({self!s})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [
                v if x == 1 else f"{v}^{x}" for v, x in zip(self.vars, e) if x
            ]
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def variables(names: str | Sequence[str]) -> tuple[MultiPoly, ...]:
    """Build the ring generators: variables("t0 t1") -> (t0, t1)."""
    vs = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(MultiPoly.variable(v, vs) for v in vs)


# -- gcd over Q[x1..xn] (primitive PRS, no factorization) ------------------


def _pseudo_rem(a: MultiPoly, b: MultiPoly, idx: int) -> MultiPoly:
    """Pseudo-remainder of a by b in variable #idx: lc(b)^k * a mod b."""
    name = a.vars[idx]
    db = b.degree_in(name)
    lb = _leading_coeff_in(b, idx)
    rem = a
    while not rem.is_zero and rem.degree_in(name) >= db:
        dr = rem.degree_in(name)
        lr = _leading_coeff_in(rem, idx)
        shift = MultiPoly.monomial(
            tuple(dr - db if i == idx else 0 for i in range(len(a.vars))), 1, a.vars
        )
        rem = rem * lb - b * shift * lr
    return rem


def _leading_coeff_in(p: MultiPoly, idx: int) -> MultiPoly:
    """Coefficient of the highest power of variable #idx (a poly in the rest)."""
    d = max(e[idx] for e in p.terms)
    out = {
        tuple(0 if i == idx else x for i, x in enumerate(e)): c
        for e, c in p.terms.items()
        if e[idx] == d
    }
    return MultiPoly._raw(p.vars, out)

def _coeffs_in(p: MultiPoly, idx: int) -> list[MultiPoly]:
    """All coefficients of powers of variable #idx."""
    by_deg: dict[int, dict[Exponent, Scalar]] = {}
    for e, c in p.terms.items():
        stripped = tuple(0 if i == idx else x for i, x in enumerate(e))
        by_deg.setdefault(e[idx], {})[stripped] = c
    return [MultiPoly._raw(p.vars, t) for t in by_deg.values()]


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd over Q[vars], returned primitive with positive leading coefficient.

    Units are collapsed: gcd of two nonzero constants is 1, gcd(f, 0) is the
    normalized f.
    """
    if f.vars != g.vars:
        f, g = f._pair(g)
    if f.is_zero:
        return g.monic_normal()
    if g.is_zero:
        return f.monic_normal()
    if f.is_constant or g.is_constant:
        return MultiPoly.one(f.vars)
    return _gcd_rec(f.primitive(), g.primitive()).monic_normal()


def _gcd_rec(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if f.is_constant or g.is_constant:
        return MultiPoly.one(f.vars)
    # main variable: first declared variable occurring in either operand
    idx = None
    for i, v in enumerate(f.vars):
        if f.degree_in(v) > 0 or g.degree_in(v) > 0:
            idx = i
            break
    assert idx is not None
    name = f.vars[idx]
    if f.degree_in(name) == 0 or g.degree_in(name) == 0:
        # one operand is free of the main variable: gcd divides its coeffs
        free, other = (f, g) if f.degree_in(name) == 0 else (g, f)
        acc = free
        for c in _coeffs_in(other, idx):
            acc = _gcd_rec(acc, c)
            if acc.is_constant:
                return MultiPoly.one(f.vars)
        return acc

    def content_in(p: MultiPoly) -> MultiPoly:
        acc = MultiPoly.zero(p.vars)
        for c in _coeffs_in(p, idx):
            acc = _gcd_rec(acc, c)
            if acc.is_constant:
                return MultiPoly.one(p.vars)
        return acc

    cf, cg = content_in(f), content_in(g)
    pf = f.div_exact(cf)
    pg = g.div_exact(cg)
    assert pf is not None and pg is not None
    a, b = (pf, pg) if pf.degree_in(name) >= pg.degree_in(name) else (pg, pf)
    while not b.is_zero:
        r = _pseudo_rem(a, b, idx)
        if r.is_zero:
            a, b = b, r
            break
        a, b = b, r.div_exact(content_in(r)).primitive()
    prim = a.div_exact(content_in(a))
    assert prim is not None
    return _gcd_rec(cf, cg) * prim


def poly_gcd_list(polys: Iterable[MultiPoly]) -> MultiPoly:
    """gcd of a collection; zero polynomial if the collection is all zero."""
    acc: MultiPoly | None = None
    for p in polys:
        acc = p.monic_normal() if acc is None else poly_gcd(acc, p)
        if acc is not None and not acc.is_zero and acc.is_constant:
            return acc
    if acc is None:
        raise ValueError("gcd of an empty collection")
    return acc


# -- projective normalization -------------------------------------------


def normalize_projective(coords: Sequence) -> tuple:
    """Clear denominators, divide by the common integer content, and fix the
    sign so the first nonzero entry has positive leading coefficient.

    Entries are ring elements of one kind: MultiPolys come back as
    MultiPolys of their ring, plain rationals as primitive ints."""
    if all(is_zero(p) for p in coords):
        raise ValueError("cannot normalize the zero vector")
    coeffs = [c for p in coords for c in _coefficients(p)]
    den = math.lcm(*(c.denominator for c in coeffs))
    num = math.gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    first = next(p for p in coords if not is_zero(p))
    if (first.leading()[1] if type(first) is MultiPoly else first) < 0:
        num = -num
    return tuple(_map_coefficients(p, lambda c: c.numerator * (den // c.denominator) // num) for p in coords)


def projectively_equal(a: Sequence, b: Sequence) -> bool:
    """True iff a = c*b for some nonzero rational c (componentwise ring elements)."""
    if len(a) != len(b):
        return False
    ref = next((i for i, p in enumerate(a) if not is_zero(p)), None)
    if ref is None or is_zero(b[ref]):
        return False
    # cross-product test anchored at the reference entry: a[ref] b[j] = b[ref] a[j]
    return all(is_zero(a[ref] * b[j] - b[ref] * a[j]) for j in range(len(a)) if j != ref)


# -- ring elements ----------------------------------------------------------


def is_zero(x) -> bool:
    return x.is_zero if type(x) is MultiPoly else not x


def _coefficients(x) -> Iterable[Scalar]:
    """The nonzero coefficients of a ring element."""
    if type(x) is MultiPoly:
        return x.terms.values()
    return (x,) if x else ()


def _map_coefficients(x, fn):
    """The ring element with every nonzero coefficient c replaced by fn(c),
    which must be a nonzero canonical coefficient."""
    if type(x) is MultiPoly:
        return MultiPoly._raw(x.vars, {e: fn(c) for e, c in x.terms.items()})
    return fn(x) if x else 0


def plain(x) -> Scalar:
    """The canonical int or Fraction equal to a constant ring element."""
    return _scalar(x.constant_value() if type(x) is MultiPoly else x)


def div_exact(a, b):
    """The ring element q with a == q * b, or None when b does not divide a."""
    if type(a) is MultiPoly:
        return a.div_exact(b)
    if type(b) is MultiPoly:
        return MultiPoly.constant(a, b.vars).div_exact(b)
    return _quotient(a, b)


def ring_of(values: Iterable) -> tuple[str, ...]:
    """The ring of the non-constant MultiPolys among values, () if there is
    none; two different rings are a ValueError."""
    rings = {v.vars for v in values if type(v) is MultiPoly and v.vars and not v.is_constant}
    if len(rings) > 1:
        raise ValueError(f"ring mismatch: {sorted(rings)}")
    return rings.pop() if rings else ()


def ring_elements(values: Iterable) -> list:
    """values as ring elements of one kind: MultiPolys of ring_of(values) when
    that ring is not (), else canonical plain rationals (constant MultiPolys
    included)."""
    values = list(values)
    ring = ring_of(values)
    return to_ring(values, ring) if ring else [plain(v) for v in values]


def to_ring(values: Iterable, vars: Sequence[str] | None = None) -> list[MultiPoly]:
    """Each value as a MultiPoly of one ring: vars when given, else
    ring_of(values).

    Plain rationals and constants of any ring become constants of it; a
    MultiPoly already in it is returned as it is.  A non-constant of another
    ring is a ValueError.
    """
    values = list(values)
    ring = ring_of(values) if vars is None else tuple(vars)
    out = []
    for v in values:
        if type(v) is not MultiPoly:
            v = MultiPoly.constant(v, ring)
        elif v.vars != ring:
            if not v.is_constant:
                raise ValueError(f"ring mismatch: {v.vars} vs {ring}")
            v = MultiPoly.constant(v.constant_value(), ring)
        out.append(v)
    return out
