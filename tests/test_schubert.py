import pytest

from fanocalc.errors import DomainError
from fanocalc.schubert import (
    G25,
    GrassmannRingSpec,
    SchubertClass,
    complement,
    cycle_degree_report,
    degree_pairing,
    multiply,
    pieri_multiply,
    power,
    sigma1_power_table,
)

from oracles import lr_multiply

s = SchubertClass.sigma


def test_pieri_row_basics():
    assert multiply(s(1), s(1)) == SchubertClass(G25, {(2, 0): 1, (1, 1): 1})
    assert multiply(s(2), s(2, 2)).is_zero
    assert multiply(s(3, 3), s(1)).is_zero


def test_pieri_kinds_and_errors():
    assert pieri_multiply(s(3, 1), 1) == SchubertClass(G25, {(3, 2): 1})
    with pytest.raises(DomainError):
        pieri_multiply(s(1), 4)


def test_sigma1_power_table():
    table = sigma1_power_table()
    expected = [
        {(0, 0): 1},
        {(1, 0): 1},
        {(2, 0): 1, (1, 1): 1},
        {(3, 0): 1, (2, 1): 2},
        {(3, 1): 3, (2, 2): 2},
        {(3, 2): 5},
        {(3, 3): 5},
    ]
    assert [t.terms for t in table] == expected


def test_degree_pairings():
    s1 = s(1)
    assert degree_pairing(power(s1, 6)) == 5
    assert degree_pairing(power(s1, 6).scale(2)) == 10
    assert degree_pairing(multiply(s(2), power(s1, 4)).scale(2)) == 6
    assert degree_pairing(multiply(s(1, 1), power(s1, 4)).scale(2)) == 4


def test_degree_pairing_via_duality_coefficient():
    # independent route: the pairing <s2 . s1^4> equals the coefficient of
    # the complement of (2,0) inside s1^4
    table = sigma1_power_table()
    c = table[4].coefficient(complement(G25, (2, 0)))
    assert degree_pairing(multiply(s(2), table[4])) == c == 3
    c11 = table[4].coefficient(complement(G25, (1, 1)))
    assert degree_pairing(multiply(s(1, 1), table[4])) == c11 == 2


def test_degree_pairing_errors():
    with pytest.raises(DomainError):
        degree_pairing(s(1))
    with pytest.raises(DomainError):
        degree_pairing(s(3, 3) + s(1))
    assert degree_pairing(SchubertClass.zero()) == 0


def test_poincare_duality_exhaustive():
    for lam in G25.box_partitions():
        for mu in G25.box_partitions():
            if sum(lam) + sum(mu) != 6:
                continue
            prod = multiply(SchubertClass(G25, {lam: 1}), SchubertClass(G25, {mu: 1}))
            expected = 1 if mu == complement(G25, lam) else 0
            assert degree_pairing(prod) == expected


def test_multiply_matches_lr_oracle_on_all_pairs():
    for lam in G25.box_partitions():
        for mu in G25.box_partitions():
            ring = multiply(
                SchubertClass(G25, {lam: 1}), SchubertClass(G25, {mu: 1})
            ).terms
            assert dict(ring) == lr_multiply(2, 3, lam, mu)


def test_multiply_matches_lr_oracle_other_grassmannians():
    g24 = GrassmannRingSpec(k=1, n=3)
    for lam in g24.box_partitions():
        for mu in g24.box_partitions():
            ring = multiply(
                SchubertClass(g24, {lam: 1}), SchubertClass(g24, {mu: 1})
            ).terms
            assert dict(ring) == lr_multiply(2, 2, lam, mu)
    g36 = GrassmannRingSpec(k=2, n=5)
    lams = g36.box_partitions()
    for lam in lams[:6]:
        for mu in lams[:6]:
            ring = multiply(
                SchubertClass(g36, {lam: 1}), SchubertClass(g36, {mu: 1})
            ).terms
            assert dict(ring) == lr_multiply(3, 3, lam, mu)


def test_associativity_and_commutativity():
    singles = [SchubertClass(G25, {p: 1}) for p in G25.box_partitions()]
    for a in singles:
        for b in singles:
            assert multiply(a, b) == multiply(b, a)
    for a in singles[:5]:
        for b in singles[:5]:
            for c in singles[:5]:
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_cycle_degree_report():
    assert cycle_degree_report() == {
        "deg_G": 5,
        "deg_W": 5,
        "deg_X": 10,
        "slice_20": 6,
        "slice_11": 4,
    }


def test_out_of_box_partition_rejected():
    with pytest.raises(DomainError):
        SchubertClass(G25, {(4, 0): 1})
    with pytest.raises(DomainError):
        SchubertClass(G25, {(1, 2): 1})


def test_class_arithmetic():
    a = s(1) + s(2)
    assert a.coefficient((1, 0)) == 1
    assert (a - a).is_zero
    assert a.scale(0).is_zero
    assert (2 * s(1)).coefficient((1, 0)) == 2
