"""Perturbation checks on the block form of the automorphism group.

The 16-polynomial membership test is the ground truth; these tests confirm
computationally that the block shape is not just sufficient but rigid:
moving any structural entry off its parametrized value breaks the
preservation of the 7-space.
"""

import random
from fractions import Fraction

from fanocalc.autw import (
    AutWElement,
    assemble,
    p7_defect,
    preserves_P7,
    random_element,
)
from fanocalc.polynomials import is_zero


def _as_element_from_matrix(m) -> AutWElement:
    """Repackage an arbitrary 5 x 5 rational matrix so that preserves_P7 can
    interrogate it (bypassing the family's structure entirely)."""

    class Raw:
        def __init__(self, matrix):
            self._m = matrix
            self.symbolic_det = False

        def matrix5(self):
            return self._m

        def wedge_matrix(self):
            from fanocalc.autw import wedge_square_matrix

            return wedge_square_matrix(self._m)

        def _vanishes(self, poly):
            return poly.is_zero

    return Raw(m)


def test_lower_left_block_must_vanish():
    rng = random.Random(21)
    for _ in range(10):
        g = random_element(rng)
        base = g.matrix5()
        i = rng.choice([3, 4])
        j = rng.choice([0, 1, 2])
        rows = [list(r) for r in base]
        rows[i][j] = rows[i][j] + 1
        perturbed = _as_element_from_matrix(rows)
        assert not preserves_P7(perturbed)


def test_symm2_block_is_rigid():
    rng = random.Random(22)
    broken = 0
    trials = 0
    for _ in range(20):
        g = random_element(rng)
        base = g.matrix5()
        i = rng.randrange(3)
        j = rng.randrange(3)
        rows = [list(r) for r in base]
        rows[i][j] = rows[i][j] + rng.choice([1, 2, -1])
        perturbed = _as_element_from_matrix(rows)
        trials += 1
        if not preserves_P7(perturbed):
            broken += 1
    # a single-entry change in the top-left block can never stay in the
    # family: the block must be a scalar times the symmetric square
    assert broken == trials


def test_u_block_off_constraint_breaks_membership():
    rng = random.Random(23)
    for _ in range(10):
        g = random_element(rng)
        base = g.matrix5()
        rows = [list(r) for r in base]
        # move U along a direction violating the first linear constraint:
        # for G = [[a,b],[c,d]] the combination b dU00 - a dU01 - d dU10 + c dU11
        # must stay zero; bump U01 alone when a != 0
        a = g.g[0][0]
        if is_zero(a):
            continue
        rows[0][4] = rows[0][4] + 1
        perturbed = _as_element_from_matrix(rows)
        assert not preserves_P7(perturbed)


def test_defect_count_is_sixteen_for_any_element():
    assert len(p7_defect(assemble(1, [[0, 0], [0, 0], [0, 0]], [[1, 0], [0, 1]]))) == 16


def test_generic_gl5_matrix_fails():
    rng = random.Random(24)
    for _ in range(5):
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)
        ]
        assert not preserves_P7(_as_element_from_matrix(rows))
