import random
from fractions import Fraction

import pytest

from fanocalc.matrices import det_bareiss
from fanocalc.polynomials import MultiPoly, variables
from fanocalc.quadrics import build_net, random_quadric
from fanocalc.serialize import poly_from_json, poly_to_json, vector_from_json

from oracles import det_cofactor


def test_poly_roundtrip():
    x, y = variables("x y")
    p = Fraction(3, 2) * x * x - y + 7
    data = poly_to_json(p)
    assert data["order"] == "grlex"
    assert poly_from_json(data) == p
    # terms are sorted ascending by exponent vector
    assert data["terms"] == sorted(data["terms"], key=lambda t: t[0])


def test_zero_poly_roundtrip():
    z = MultiPoly.zero(("t0", "t1"))
    assert poly_from_json(poly_to_json(z)).is_zero


def test_unsupported_order_rejected():
    x, _ = variables("x y")
    data = poly_to_json(x)
    data["order"] = "lex"
    with pytest.raises(ValueError):
        poly_from_json(data)


def test_vector_roundtrip():
    t0, t1 = variables("t0 t1")
    v = (t0, -t1, MultiPoly.zero(("t0", "t1")))
    assert vector_from_json([poly_to_json(p) for p in v]) == v


def test_net_determinant_roundtrips_and_cross_checks():
    # the full three-parameter determinant survives serialization and the two
    # determinant routes agree on it
    net = build_net(random_quadric(random.Random(5)))
    m = net.matrix()
    det = det_bareiss(m)
    assert det == det_cofactor(m)
    assert poly_from_json(poly_to_json(det)) == det
    assert det.total_degree() == 7
