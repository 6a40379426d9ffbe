import pytest

from fanocalc.errors import DomainError
from fanocalc.forms import binary_form_roots_squarefree
from fanocalc.polynomials import MultiPoly, variables


def test_binary_form_squarefree_examples():
    t0, t1 = variables("t0 t1")
    assert binary_form_roots_squarefree(t0 * t1) == (2, True)
    assert binary_form_roots_squarefree(t0 * t0) == (2, False)
    assert binary_form_roots_squarefree(t0**3 - t0 * t1 * t1) == (3, True)
    assert binary_form_roots_squarefree((t0 + t1) ** 2 * t1) == (3, False)


def test_binary_form_domain_errors():
    t0, t1 = variables("t0 t1")
    with pytest.raises(DomainError):
        binary_form_roots_squarefree(MultiPoly.zero(("t0", "t1")))
    with pytest.raises(DomainError):
        binary_form_roots_squarefree(t0 + t0 * t1)
    x, y, z = variables("x y z")
    with pytest.raises(DomainError):
        binary_form_roots_squarefree(x * y * z)
