"""Intersection bookkeeping on rank-one and rank-two Picard lattices.

A PicardState carries named divisor classes, the symmetric trilinear
intersection form on them, and the canonical class as an integer vector.
Blow-ups of a curve or of a node, unimodular basis changes, flops across
finitely many canonical-degree-zero curves, and the contraction of a ruled
divisor to a curve each produce a new state; nothing mutates.

The counts of curves entering the flops are inputs, not computed here:
enumerating curves on a specific threefold is out of scope.  Each is stated
once, as LINES_MEETING_A_LINE, LINES_MEETING_A_CONIC and LINES_THROUGH_THE_NODE;
each pipeline reports the length of the list of lines it flops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

from .errors import DimensionError, DomainError, NotAFlopError

#: K-trivial lines meeting a general line of the degree-10 threefold.
LINES_MEETING_A_LINE = 11
#: Lines meeting a general conic.
LINES_MEETING_A_CONIC = 20
#: Lines through the node of a nodal degree-10 threefold.
LINES_THROUGH_THE_NODE = 6


@dataclass(frozen=True)
class CurveData:
    """A curve to blow up: genus, hyperplane degree, and K-degree."""

    genus: int
    h_degree: int
    k_degree: int
    label: str = ""

    def __post_init__(self):
        if self.genus < 0 or self.h_degree <= 0:
            raise DomainError("need genus >= 0 and positive degree")


@dataclass(frozen=True)
class FloppedCurve:
    """A contracted curve with its intersection numbers against the basis."""

    label: str
    intersections: tuple[int, ...]
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise DomainError("multiplicity must be >= 1")


@dataclass(frozen=True)
class PicardState:
    """Basis, symmetric trilinear form, canonical class, and an operation log."""

    basis: tuple[str, ...]
    triple: tuple[tuple[tuple[int, ...], int], ...]  # sorted index triples
    canonical: tuple[int, ...]
    log: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.basis) not in (1, 2):
            raise DimensionError("only rank 1 and rank 2 lattices are supported")
        if len(self.canonical) != len(self.basis):
            raise DimensionError("canonical class length mismatch")

    # -- access --------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _table(self) -> dict[tuple[int, ...], int]:
        return dict(self.triple)

    def triple_product(self, d1: Sequence[int], d2: Sequence[int], d3: Sequence[int]) -> int:
        table = self._table()
        total = 0
        for i, j, k in product(range(self.rank), repeat=3):
            coeff = d1[i] * d2[j] * d3[k]
            if coeff:
                total += coeff * table.get(tuple(sorted((i, j, k))), 0)
        return total

    def minus_k(self) -> tuple[int, ...]:
        return tuple(-x for x in self.canonical)

    def table_row(self, d1: Sequence[int], d2: Sequence[int]) -> tuple[int, int, int, int]:
        """(d1^3, d1^2 d2, d1 d2^2, d2^3)."""
        return (
            self.triple_product(d1, d1, d1),
            self.triple_product(d1, d1, d2),
            self.triple_product(d1, d2, d2),
            self.triple_product(d2, d2, d2),
        )

    def basis_table(self) -> tuple[int, ...]:
        if self.rank == 1:
            return (self.triple_product((1,), (1,), (1,)),)
        return self.table_row((1, 0), (0, 1))


def _make_triple(rank: int, values: dict[tuple[int, ...], int]) -> tuple:
    table = {}
    for idx, v in values.items():
        if len(idx) != 3 or any(not 0 <= i < rank for i in idx):
            raise DimensionError(f"bad index triple {idx}")
        table[tuple(sorted(idx))] = v
    return tuple(sorted(table.items()))


def initial_state_x10() -> PicardState:
    """The degree-10 threefold with Pic = Z H, H^3 = 10, K = -H; its genus g
    satisfies 2g - 2 = 10, so g = 6."""
    return PicardState(
        basis=("H",),
        triple=_make_triple(1, {(0, 0, 0): 10}),
        canonical=(-1,),
        log=("init: H^3 = 10, K = -H",),
    )


def genus_from_anticanonical_cube(state: PicardState) -> int:
    mk = state.minus_k()
    deg = state.triple_product(mk, mk, mk)
    if deg % 2 != 0:
        raise DomainError(f"odd anticanonical degree {deg}")
    return deg // 2 + 1


def blow_up_curve(state: PicardState, curve: CurveData) -> PicardState:
    """Blow up a curve on a rank-one state: new basis (H*, E) with

    H*^3 = H^3,  H*^2 E = 0,  H* E^2 = -deg(C),  E^3 = -(2g - 2 - K.C),
    and K goes to K* + E.
    """
    if state.rank != 1:
        raise DimensionError("single blow-up chains only: state must have rank 1")
    h3 = state.triple_product((1,), (1,), (1,))
    e3 = -(2 * curve.genus - 2 - curve.k_degree)
    return PicardState(
        basis=(state.basis[0] + "*", "E"),
        triple=_make_triple(
            2,
            {(0, 0, 0): h3, (0, 0, 1): 0, (0, 1, 1): -curve.h_degree, (1, 1, 1): e3},
        ),
        canonical=(state.canonical[0], 1),
        log=state.log + (f"blow up curve {curve.label or '?'} (g={curve.genus}, deg={curve.h_degree})",),
    )


def blow_up_node(state: PicardState) -> PicardState:
    """Blow up an ordinary double point: exceptional divisor a quadric surface
    with E^3 = 2, H*^2 E = H* E^2 = 0, K -> K* + E."""
    if state.rank != 1:
        raise DimensionError("single blow-up chains only: state must have rank 1")
    h3 = state.triple_product((1,), (1,), (1,))
    return PicardState(
        basis=(state.basis[0] + "*", "E"),
        triple=_make_triple(2, {(0, 0, 0): h3, (0, 0, 1): 0, (0, 1, 1): 0, (1, 1, 1): 2}),
        canonical=(state.canonical[0], 1),
        log=state.log + ("blow up node",),
    )


def change_basis(
    state: PicardState, matrix: Sequence[Sequence[int]], names: tuple[str, str]
) -> PicardState:
    """Rewrite the lattice in the basis given by the rows of a unimodular
    integer matrix (rows express the new classes in the old basis)."""
    if state.rank != 2:
        raise DimensionError("basis change implemented for rank 2")
    (p, q), (r, s) = matrix
    det = p * s - q * r
    if det not in (1, -1):
        raise DomainError(f"basis matrix must be unimodular, det = {det}")
    rows = (tuple(matrix[0]), tuple(matrix[1]))
    values = {}
    for i, j, k in product(range(2), repeat=3):
        values[(i, j, k)] = state.triple_product(rows[i], rows[j], rows[k])
    # canonical in the new basis: solve K = x * new0 + y * new1
    kx, ky = state.canonical
    inv = ((s * det, -q * det), (-r * det, p * det))  # inverse transpose bits
    x = kx * inv[0][0] + ky * inv[1][0]
    y = kx * inv[0][1] + ky * inv[1][1]
    check0 = x * rows[0][0] + y * rows[1][0]
    check1 = x * rows[0][1] + y * rows[1][1]
    if (check0, check1) != (kx, ky):
        raise DomainError("canonical class does not lie in the new lattice basis")
    return PicardState(
        basis=names,
        triple=_make_triple(2, values),
        canonical=(x, y),
        log=state.log + (f"rebase to {names[0]} = {rows[0]}, {names[1]} = {rows[1]}",),
    )


def k_degree_of_curve(state: PicardState, curve: FloppedCurve) -> int:
    return sum(k * d for k, d in zip(state.canonical, curve.intersections))


def apply_flop(state: PicardState, curves: Sequence[FloppedCurve]) -> PicardState:
    """Correct the triple form across a flop of the given curves:

        D1 D2 D3  ->  D1 D2 D3 - sum mult * (D1.C)(D2.C)(D3.C).

    Every curve must have canonical degree zero; divisor classes keep their
    names and the canonical class is untouched (so every (-K)-product
    survives unchanged, each correction carrying a K.C = 0 factor).
    """
    for c in curves:
        if len(c.intersections) != state.rank:
            raise DimensionError(f"curve {c.label}: intersection vector length")
        kc = k_degree_of_curve(state, c)
        if kc != 0:
            raise NotAFlopError(f"curve {c.label} has K.C = {kc} != 0")
    values = {}
    for i, j, k in product(range(2), repeat=3):
        correction = sum(
            c.multiplicity * c.intersections[i] * c.intersections[j] * c.intersections[k]
            for c in curves
        )
        ei = tuple(1 if t == i else 0 for t in range(2))
        ej = tuple(1 if t == j else 0 for t in range(2))
        ek = tuple(1 if t == k else 0 for t in range(2))
        values[(i, j, k)] = state.triple_product(ei, ej, ek) - correction
    return PicardState(
        basis=state.basis,
        triple=_make_triple(2, values),
        canonical=state.canonical,
        log=state.log + (f"flop across {len(curves)} curves",),
    )


def m_cubed_by_adjunction(state: PicardState, m: Sequence[int]) -> int:
    """M^3 for a ruled surface M over a rational curve, via (K_M)^2 = 8 and
    adjunction: 8 = K^2 M + 2 K M^2 + M^3."""
    k = state.canonical
    k2m = state.triple_product(k, k, m)
    km2 = state.triple_product(k, m, m)
    return 8 - k2m - 2 * km2


def contract_ruled_to_curve(state: PicardState, m: Sequence[int]) -> tuple[int, int]:
    """Contract the ruled divisor M to a curve: the image threefold has
    anticanonical class pulled back to -K + M, so

        deg Y = (-K + M)^3,
        deg of the center curve = (-K)^2 M + (-K) M^2

    (the center lifts to the 1-section (-K).M of the ruled surface).
    """
    if state.rank != 2:
        raise DimensionError("contraction needs a rank-2 state")
    mk = state.minus_k()
    total = tuple(a + b for a, b in zip(mk, m))
    deg_y = state.triple_product(total, total, total)
    deg_center = state.triple_product(mk, mk, m) + state.triple_product(mk, m, m)
    return deg_y, deg_center


def curve_divisor_intersection(
    curve_deg: int, curve_meets_center: int, divisor: tuple[int, int]
) -> int:
    """Intersection of the proper transform of C with h_mult*H - e_mult*E on a
    blow-up: h_mult * deg(C) - e_mult * #(C meets center)."""
    h_mult, e_mult = divisor
    return h_mult * curve_deg - e_mult * curve_meets_center


# -- full pipelines ----------------------------------------------------------

# Each pipeline records its steps through check(claim, computed, [expected],
# note="", soft=False); without an expected value the claim's golden pin is
# the reference.


def _lines(count: int, intersections: tuple[int, int]) -> list[FloppedCurve]:
    """The lines l1, ..., l<count>, each with the given intersection vector."""
    return [FloppedCurve(label=f"l{i}", intersections=intersections) for i in range(1, count + 1)]


def scenario_line_transform(check: Callable[..., object]) -> None:
    """Blow up a line, rebase to (-K, M), flop the 11 K-trivial lines, and
    contract: the image is again a degree-10 threefold and the center maps
    to a line."""
    # the lines meeting the center line: H*.C = 1, E.C = 1
    # in the (-K, M) basis: -K.C = 0, M.C = -1
    curves = _lines(LINES_MEETING_A_LINE, (0, -1))
    check("line.curve_count", len(curves), note="input constant: lines meeting a general line")
    x = initial_state_x10()
    check("line.genus", genus_from_anticanonical_cube(x))
    check("line.initial_H3", x.basis_table()[0])
    line = CurveData(genus=0, h_degree=1, k_degree=-1, label="line")
    xp = blow_up_curve(x, line)
    check("line.blowup_table", xp.basis_table(), note="basis (H*, E)")
    # -K' = H* - E, M' = H* - 2E
    reb = change_basis(xp, [[1, -1], [1, -2]], ("-K", "M"))
    check("line.rebased_table", reb.basis_table(), note="basis (-K, M)")
    flopped = apply_flop(reb, curves)
    check("line.flopped_table", flopped.basis_table(), note=f"basis (-K, M), {len(curves)} flopped curves")
    m_adj = m_cubed_by_adjunction(flopped, (0, 1))
    check("line.M3_adjunction", m_adj)
    check(
        "line.M3_routes_agree",
        flopped.basis_table()[3],
        m_adj,
        note="flop route and adjunction route",
    )
    deg_y, deg_center = contract_ruled_to_curve(flopped, (0, 1))
    check("line.deg_Y", deg_y)
    check("line.deg_center", deg_center)
    # ruling checks: twisted cubic meeting the line twice
    check("line.ruling_vs_M", curve_divisor_intersection(3, 2, (1, 2)))
    check("line.ruling_vs_K", curve_divisor_intersection(3, 2, (1, 1)))
    check("line.ruling_vs_D", curve_divisor_intersection(3, 2, (2, 3)))


def scenario_conic_transform(check: Callable[..., object]) -> None:
    """Blow up a conic and run the same pipeline.  The flopped triple form is
    validated through the adjunction route; the naive per-curve correction
    over the full degeneration list is recorded for comparison but carries
    no verification weight (two of those curves are not (-1,-1)-curves)."""
    # the lines meeting the conic once: (H*.C, E.C) = (1, 1) -> M.C = -1
    lines = _lines(LINES_MEETING_A_CONIC, (0, -1))
    check("conic.curve_count_lines", len(lines), note="input constant: lines meeting a general conic")
    x = initial_state_x10()
    conic = CurveData(genus=0, h_degree=2, k_degree=-2, label="conic")
    xp = blow_up_curve(x, conic)
    check("conic.blowup_table", xp.basis_table(), note="basis (H*, E)")
    reb = change_basis(xp, [[1, -1], [2, -3]], ("-K", "M"))
    check("conic.rebased_table", reb.basis_table(), note="basis (-K, M)")
    m_adj = m_cubed_by_adjunction(reb, (0, 1))
    check("conic.M3_adjunction", m_adj)
    # K-trivial exceptional curves over the projected image: the lines and
    # the involutive conic meeting the center twice: (2, 2) -> M.C = -2
    k_trivial = lines + [FloppedCurve(label="q~", intersections=(0, -2))]
    flopped = apply_flop(reb, k_trivial)
    check(
        "conic.flopped_table",
        flopped.basis_table(),
        note="per-curve route over the K-trivial curves; validated by adjunction",
    )
    # the two special conics meet the center once: (2, 1) -> K.C = -2 + 1 != 0;
    # treating them as if they flopped like the others gives a wrong M^3:
    naive = flopped.basis_table()[3] - 2 * (1) ** 3  # their M.C = 2*2 - 3*1 = +1
    check(
        "conic.M3_naive_full_list",
        naive,
        note="unverified: includes the two non-K-trivial curves; disagrees with 0",
        soft=True,
    )
    deg_y, deg_center = contract_ruled_to_curve(flopped, (0, 1))
    check("conic.deg_Y", deg_y)
    check("conic.deg_center", deg_center)
    # quartic rulings meeting the conic three times
    check("conic.ruling_vs_M", curve_divisor_intersection(4, 3, (2, 3)))
    check("conic.ruling_vs_D", curve_divisor_intersection(4, 3, (3, 4)))


def scenario_node_projection(check: Callable[..., object]) -> None:
    """Blow up a node: the projected image is a degree-8 threefold; the
    genus-one quartics through the node define the conic-bundle fibers."""
    # the lines through the node: (H*.C, E.C) = (1, 1)
    curves = _lines(LINES_THROUGH_THE_NODE, (1, 1))
    check("node.line_count", len(curves), note="input constant: lines through the node")
    x = initial_state_x10()
    xp = blow_up_node(x)
    check("node.E3", xp.basis_table()[3])
    mk = xp.minus_k()
    check("node.minusK_cubed", xp.triple_product(mk, mk, mk))
    check(
        "node.degree_drop",
        x.triple_product((1,), (1,), (1,)) - xp.triple_product(mk, mk, mk),
    )
    for c in curves:
        check(f"node.K_trivial_{c.label}", k_degree_of_curve(xp, c), 0)
    flopped = apply_flop(xp, curves)
    mk2 = flopped.minus_k()
    check("node.minusK_cubed_after_flop", flopped.triple_product(mk2, mk2, mk2))
    # genus-1 quartics with a double point at the node
    check("node.D_vs_quartic", curve_divisor_intersection(4, 2, (1, 2)))
    check("node.minusK_vs_quartic", curve_divisor_intersection(4, 2, (1, 1)))
    check("node.D_vs_line", curve_divisor_intersection(1, 1, (1, 2)))
