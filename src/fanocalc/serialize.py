"""Canonical JSON forms for polynomials and vectors of polynomials.

The canonical polynomial form records the variable tuple, the term order
("grlex"), and the term list sorted ascending by exponent vector, with
coefficients as "num/den" strings.  Golden files and CLI reports use these
forms so byte-level comparisons are meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from .polynomials import MultiPoly

TERM_ORDER = "grlex"


def fraction_to_json(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def fraction_from_json(value: str | int, integer: bool = False) -> Fraction:
    """One scalar of a golden file or an input descriptor: an int that is not
    a bool or, unless integer is set, a string that Fraction parses ("3",
    "-1/2").  Anything else (a float, a bool, null, a list) is a TypeError, so
    no value is read approximately."""
    if type(value) is int or (type(value) is str and not integer):
        return Fraction(value)
    raise TypeError(f"expected {'an integer' if integer else 'a rational string or an integer'}, got {value!r}")


def fractions_from_json(values: list, integer: bool = False) -> list[Fraction]:
    """A JSON list of scalars, each read by fraction_from_json."""
    if type(values) is not list:
        raise TypeError(f"expected a list, got {values!r}")
    return [fraction_from_json(v, integer) for v in values]


def poly_to_json(p: MultiPoly) -> dict[str, Any]:
    return {
        "variables": list(p.vars),
        "order": TERM_ORDER,
        "terms": [
            [list(e), fraction_to_json(c)]
            for e, c in sorted(p.terms.items(), key=lambda t: t[0])
        ],
    }


def poly_from_json(data: dict[str, Any]) -> MultiPoly:
    if data.get("order", TERM_ORDER) != TERM_ORDER:
        raise ValueError(f"unsupported term order {data.get('order')!r}")
    vs = tuple(data["variables"])
    return MultiPoly(
        vs, {tuple(e): fraction_from_json(c) for e, c in data["terms"]}
    )


def vector_from_json(data: Sequence[dict[str, Any]]) -> tuple[MultiPoly, ...]:
    return tuple(poly_from_json(p) for p in data)
