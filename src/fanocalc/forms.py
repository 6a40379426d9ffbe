"""Binary forms: the squarefree test on P^1."""

from __future__ import annotations

from .errors import DomainError
from .polynomials import MultiPoly, poly_gcd


def binary_form_roots_squarefree(f: MultiPoly) -> tuple[int, bool]:
    """Degree of a nonzero homogeneous binary form and whether it is squarefree.

    Squarefree means gcd(f, df/dx, df/dy) is constant, i.e. the form has
    deg(f) distinct projective roots over the algebraic closure.
    """
    if f.is_zero:
        raise DomainError("zero form")
    if len(f.vars) != 2:
        raise DomainError("binary form must live in a two-variable ring")
    if not f.is_homogeneous():
        raise DomainError("form must be homogeneous")
    x, y = f.vars
    g = poly_gcd(poly_gcd(f, f.derivative(x)), f.derivative(y))
    return f.total_degree(), g.is_constant
