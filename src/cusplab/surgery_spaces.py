"""Simple, double, and triple surgery spaces and their order arithmetic.

The fixture below records the boundary hypersurfaces of the three blown-up
spaces and the exponent matrices of the projections between them.  On top of
it sit the symbolic pipelines: kernel index families, the mapping-property
computation, the triple-space composition, and trace expansions.  Everything
is exact rational arithmetic.

Face conventions (matching the double-space picture): ``ff_b`` is the full
corner front face, ``ff_c`` the cusp front face, ``Br1``/``Br2`` the side
faces over {t = x2 = 0} / {t = x1 = 0}, and ``tb`` the temporal boundary.
On the triple space, ``B_i`` lies over the corner missing ``x_i``, ``P_i``
over {t = x_i = 0}, ``C_i``/``T_i`` over the partial diagonals inside
``fff_b``/``B_i``, and ``ttb`` is the temporal face.

The projections are built from their symmetries, not tabulated.  A triple
projection keeps factors a and b and drops c; a face with an index sends
its row by the index's role alone (``B_a -> Br1``, ``B_b -> Br2``,
``B_c -> ff_b``, and likewise for ``P``, ``C`` and ``T``), so ``pi3_12``,
``pi3_23`` and ``pi3_13`` are one rule at (1, 2, 3), (2, 3, 1) and (1, 3, 2).
The projection ``pi2_i`` to factor i sends ``Br_i`` to ``tf`` and
``Br_(3-i)`` to ``ff``, so ``pi2_1`` and ``pi2_2`` are one mirror rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from cusplab.corners import (
    BlowupStep,
    BMap,
    Face,
    IndexFamily,
    IndexSet,
    IndexTerm,
    RationalLike,
    Space,
    _frac,
    _new_term,
    chained_density_exponents,
    inf_order,
    is_b_fibration,
    is_b_normal,
    product_family,
    pullback_family,
    pushforward_family,
    scale_set,
    sum_sets,  # noqa: F401  (unused here; bench/tracing.py hooks surgery_spaces.sum_sets)
)


class TraceClassViolatedError(ValueError):
    """Orders outside the trace-class range alpha < -1, beta <= 0."""


@dataclass(frozen=True)
class OpOrders:
    """The order triple (m, alpha, beta) of a cusp-surgery operator."""

    m: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _frac(self.m))
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "beta", _frac(self.beta))

    @classmethod
    def _from_fractions(cls, m: Fraction, alpha: Fraction, beta: Fraction) -> "OpOrders":
        """The orders of three ``Fraction`` values, taken as they are."""
        o = object.__new__(cls)
        o.__dict__.update(m=m, alpha=alpha, beta=beta)
        return o


@dataclass(frozen=True)
class SurgeryFixture:
    """The three spaces, the five projections, and the density exponents.

    ``density_X2`` and ``density_X3`` map a face label to the exponent of
    its defining function on the lifted b-density, read-only.
    """

    X1: Space
    X2: Space
    X3: Space
    pi2_1: BMap
    pi2_2: BMap
    pi3_12: BMap
    pi3_23: BMap
    pi3_13: BMap
    density_X2: Mapping[str, int]
    density_X3: Mapping[str, int]
    omega_ff_exponent: int


# Where each triple face lands, by the role of its index in a projection:
# (first kept, second kept, dropped) factor.  The forgotten coordinate drops
# out of a face's centre: B_i lies over the corner missing x_i and Br_j over
# {t = x_(3-j) = 0}, so B_a lands on Br1, B_c on ff_b and P_c on tb.  In the
# same way the projection to factor i sends Br_i to tf and Br_(3-i) to ff.
_X3_ROLE_ROWS = {
    "B": ("Br1", "Br2", "ff_b"),
    "P": ("Br2", "Br1", "tb"),
    "C": ("ff_b", "ff_b", "ff_c"),
    "T": ("Br1", "Br2", "ff_c"),
}


@lru_cache(maxsize=1)
def build_fixture() -> SurgeryFixture:
    """Build the (shared, immutable) surgery-space fixture."""
    X1 = Space.of("ff", "tf")
    X2 = Space.of("ff_b", "ff_c", "Br1", "Br2", "tb")
    X3 = Space.of(
        "fff_b", "fff_c",
        "B1", "B2", "B3",
        "P1", "P2", "P3",
        "C1", "C2", "C3",
        "T1", "T2", "T3",
        "ttb",
    )

    def bmap(source: Space, target: Space, rows: Mapping[str, str]) -> BMap:
        return BMap.build(source, target, {g: {h: 1} for g, h in rows.items()})

    def pi2(i: int) -> BMap:
        return bmap(X2, X1, {"ff_b": "ff", "ff_c": "ff", f"Br{i}": "tf",
                             f"Br{3 - i}": "ff", "tb": "tf"})

    def pi3(a: int, b: int, c: int) -> BMap:
        rows = {"fff_b": "ff_b", "fff_c": "ff_c", "ttb": "tb"}
        for kind, targets in _X3_ROLE_ROWS.items():
            rows.update({f"{kind}{i}": h for i, h in zip((a, b, c), targets)})
        return bmap(X3, X2, rows)

    # Density exponents of the lifted reference b-densities, from the chain
    # of local models: the double space lifts [R^3_1;0] then [R^2_1;0], the
    # triple space lifts [R^4_1;0] then [R^4_2;0].
    dens2 = chained_density_exponents([
        BlowupStep(3, 1, X2.face("ff_b")),
        BlowupStep(2, 1, X2.face("ff_c"), frozenset({X2.face("ff_b")})),
    ])
    dens3 = chained_density_exponents([
        BlowupStep(4, 1, X3.face("fff_b")),
        BlowupStep(4, 2, X3.face("fff_c"), frozenset({X3.face("fff_b")})),
    ])

    return SurgeryFixture(
        X1=X1, X2=X2, X3=X3,
        pi2_1=pi2(1), pi2_2=pi2(2),
        pi3_12=pi3(1, 2, 3), pi3_23=pi3(2, 3, 1), pi3_13=pi3(1, 3, 2),
        density_X2=MappingProxyType({f.label: v for f, v in dens2.items()}),
        density_X3=MappingProxyType({f.label: v for f, v in dens3.items()}),
        omega_ff_exponent=1,
    )


def _pair_family(space: Space, first: str, a: Fraction,
                 second: str, b: Fraction) -> IndexFamily:
    """The family ``a + N`` on face ``first``, ``b + N`` on ``second``, empty elsewhere.

    The two faces come in the space's face order and each set has the one
    generator (a, 0) or (b, 0), so the entries are canonical as they stand
    and skip the ``IndexSet`` and ``IndexFamily`` checks.
    """
    by_label = space._by_label
    return IndexFamily._from_canonical(space, (
        (by_label[first], IndexSet._from_canonical((_new_term(IndexTerm, (a, 0)),))),
        (by_label[second], IndexSet._from_canonical((_new_term(IndexTerm, (b, 0)),))),
    ))


def kernel_index_family(o: OpOrders) -> IndexFamily:
    """Index family of the kernel of an operator with orders o on the double space.

    The kernel carries ``-(alpha + 2) + N`` at the cusp front face (the -2 is
    the density convention), ``-beta + N`` at the temporal boundary, and the
    empty set at every other face.
    """
    return _pair_family(build_fixture().X2, "ff_c", -o.alpha - 2, "tb", -o.beta)


@dataclass(frozen=True)
class MappingStages:
    """Intermediates of the mapping-property pipeline, for inspection."""

    section: IndexFamily
    pulled: IndexFamily
    product: IndexFamily
    with_density: IndexFamily
    pushed: IndexFamily
    result: tuple[Fraction, Fraction]


def mapping_stages(o: OpOrders, section: tuple[RationalLike, RationalLike]) -> MappingStages:
    """Run the full polyhomogeneous pipeline for applying an operator.

    Pull the section's index family back through the second projection,
    multiply with the kernel family, account for the lifted b-density,
    push forward through the first projection, and strip the reference
    density's front-face factor.
    """
    fx = build_fixture()
    fam_section = _pair_family(fx.X1, "ff", _frac(section[0]), "tf", _frac(section[1]))
    pulled = pullback_family(fx.pi2_2, fam_section)
    kernel = kernel_index_family(o)
    product = product_family(pulled, kernel)
    with_density = product.shifted(fx.density_X2)
    pushed = pushforward_family(fx.pi2_1, with_density)
    lead_ff = inf_order(pushed.get(fx.X1.face("ff"))) - fx.omega_ff_exponent
    lead_tf = inf_order(pushed.get(fx.X1.face("tf")))
    return MappingStages(fam_section, pulled, product, with_density, pushed,
                         (lead_ff, lead_tf))


def mapping_orders(o: OpOrders,
                   section: tuple[RationalLike, RationalLike]) -> tuple[Fraction, Fraction]:
    """Leading (front-face, temporal) orders of the operator applied to a section."""
    return mapping_stages(o, section).result


@dataclass(frozen=True)
class CompositionStages:
    """Intermediates of the triple-space composition pipeline.

    ``ffc_contributors`` is for inspection only, so it is not a field: it
    is computed from ``with_density`` when first read, and kept.
    """

    pulled_12: IndexFamily
    pulled_23: IndexFamily
    product: IndexFamily
    with_density: IndexFamily
    pushed: IndexFamily
    normalized: IndexFamily
    result: OpOrders

    @cached_property
    def ffc_contributors(self) -> tuple[tuple[Face, IndexSet], ...]:
        """Each triple face over ``ff_c`` in ``pi3_13``, sorted, with its set scaled by 1/e."""
        ffc_column, _ = _composition_constants()
        return tuple((G, scale_set(q, self.with_density.get(G))) for G, q in ffc_column)


@lru_cache(maxsize=1)
def _composition_constants() -> tuple[tuple[tuple[Face, Fraction], ...], Mapping[str, int]]:
    """What every composition reads off the fixture, read once.

    The triple faces over ``ff_c`` in ``pi3_13``, sorted, each with the
    scale 1/e of its exponent e, and the negated double-space density.
    """
    fx = build_fixture()
    column = fx.pi3_13.column(fx.X2.face("ff_c"))
    return (tuple((G, Fraction(1, e)) for G, e in sorted(column.items())),
            MappingProxyType({lbl: -v for lbl, v in fx.density_X2.items()}))


def composition_stages(o1: OpOrders, o2: OpOrders) -> CompositionStages:
    """Run the triple-space pipeline for composing two operators.

    Both kernel families are pulled back to the triple space, multiplied,
    augmented by the lifted b-density exponents, pushed forward through the
    outer projection, and renormalized by the double-space density.
    """
    fx = build_fixture()
    pulled_12 = pullback_family(fx.pi3_12, kernel_index_family(o1))
    pulled_23 = pullback_family(fx.pi3_23, kernel_index_family(o2))
    product = product_family(pulled_12, pulled_23)
    with_density = product.shifted(fx.density_X3)

    pushed = pushforward_family(fx.pi3_13, with_density)
    normalized = pushed.shifted(_composition_constants()[1])

    lead_ffc = inf_order(normalized.get(fx.X2.face("ff_c")))
    lead_tb = inf_order(normalized.get(fx.X2.face("tb")))
    result = OpOrders._from_fractions(o1.m + o2.m, -lead_ffc - 2, -lead_tb)
    return CompositionStages(pulled_12, pulled_23, product, with_density,
                             pushed, normalized, result)


def composition_orders(o1: OpOrders, o2: OpOrders) -> OpOrders:
    """Orders of the composed operator; conormal orders add at symbol level."""
    return composition_stages(o1, o2).result


@lru_cache(maxsize=1)
def _time_axis() -> tuple[Space, BMap]:
    """The half-line [0, inf) with its single face, and the projection to it."""
    fx = build_fixture()
    time = Space.of("zero")
    pi = BMap.build(fx.X1, time, {"ff": {"zero": 1}, "tf": {"zero": 1}})
    return time, pi


def _check_trace_class(alpha: Fraction, beta: Fraction) -> None:
    if not (alpha < -1 and beta <= 0):
        raise TraceClassViolatedError(
            f"need alpha < -1 and beta <= 0 for a trace; got ({alpha}, {beta})"
        )


def trace_index_set(alpha: RationalLike, beta: RationalLike) -> IndexSet:
    """Index set at t = 0 of the diagonal-restricted kernel pushed to the time axis."""
    a, b = _frac(alpha), _frac(beta)
    _check_trace_class(a, b)
    _, pi = _time_axis()
    pushed = pushforward_family(pi, _pair_family(pi.source, "ff", -a, "tf", -b))
    return pushed.get(pi.target.face("zero"))


def trace_expansion_terms(
    alpha: RationalLike, beta: RationalLike
) -> list[tuple[Fraction, int]]:
    """Leading monomials t^z log^k t of the trace of a trace-class operator.

    Integer difference of the orders produces the log term at the larger
    exponent; otherwise two pure powers.
    """
    a, b = _frac(alpha), _frac(beta)
    _check_trace_class(a, b)
    if (a - b).denominator == 1:
        return [(min(-a, -b), 0), (max(-a, -b), 1)]
    return sorted([(-a, 0), (-b, 0)])


def verify_fixture() -> list[tuple[str, bool]]:
    """Run the fixture's structural invariants; returns (name, passed) pairs."""
    fx = build_fixture()
    checks: list[tuple[str, bool]] = []

    pinned_pi2_1 = {
        ("ff_b", "ff"): 1, ("ff_c", "ff"): 1, ("Br2", "ff"): 1,
        ("Br1", "tf"): 1, ("tb", "tf"): 1,
    }
    checks.append((
        "pi2_1 rows match the pinned exponents",
        all(fx.pi2_1.exponent(fx.X2.face(g), fx.X1.face(h)) == v
            for (g, h), v in pinned_pi2_1.items())
        and len(fx.pi2_1.e) == len(pinned_pi2_1),
    ))
    checks.append((
        "pi2_2 is the 1<->2 mirror of pi2_1",
        fx.pi2_2.exponent(fx.X2.face("Br1"), fx.X1.face("ff")) == 1
        and fx.pi2_2.exponent(fx.X2.face("Br2"), fx.X1.face("tf")) == 1
        and all(
            fx.pi2_2.exponent(fx.X2.face(g), fx.X1.face(h)) == 1
            for g, h in (("ff_b", "ff"), ("ff_c", "ff"), ("tb", "tf"))
        ),
    ))
    checks.append(("pi2_1 is b-normal", is_b_normal(fx.pi2_1)))
    checks.append((
        "pi2_1 rows have exactly one nonzero entry",
        all(len(fx.pi2_1.row(G)) == 1 for G in fx.X2.faces),
    ))
    for name, bm in (("pi2_1", fx.pi2_1), ("pi2_2", fx.pi2_2),
                     ("pi3_12", fx.pi3_12), ("pi3_23", fx.pi3_23),
                     ("pi3_13", fx.pi3_13)):
        checks.append((f"{name} is a b-fibration", is_b_fibration(bm)))
        checks.append((
            f"{name} entries all lie in {{0, 1}}",
            all(v in (0, 1) for _, v in bm.e),
        ))
    checks.append((
        "triple faces over the cusp front face of the outer projection",
        sorted(G.label for G in fx.pi3_13.column(fx.X2.face("ff_c"))) ==
        ["C2", "T2", "fff_c"],
    ))
    checks.append((
        "temporal face projects over the temporal boundary",
        all(bm.exponent(fx.X3.face("ttb"), fx.X2.face("tb")) == 1
            for bm in (fx.pi3_12, fx.pi3_23, fx.pi3_13)),
    ))
    checks.append((
        "triple cusp face lies over the cusp face in all three projections",
        all(bm.exponent(fx.X3.face("fff_c"), fx.X2.face("ff_c")) == 1
            for bm in (fx.pi3_12, fx.pi3_23, fx.pi3_13)),
    ))
    checks.append((
        "double-space density exponents are (2, 3)",
        fx.density_X2 == {"ff_b": 2, "ff_c": 3},
    ))
    checks.append((
        "triple-space density exponents are (3, 5)",
        fx.density_X3 == {"fff_b": 3, "fff_c": 5},
    ))
    checks.append(("reference density front-face exponent is 1",
                   fx.omega_ff_exponent == 1))
    checks.append((
        "mapping pipeline reproduces the closed formula on a sample",
        mapping_orders(OpOrders(1, 1, 0), (0, 0)) == (Fraction(-1), Fraction(0)),
    ))
    checks.append((
        "composition pipeline reproduces order addition on a sample",
        composition_orders(OpOrders(-1, -1, 0), OpOrders(-1, -1, 0))
        == OpOrders(-2, -2, 0),
    ))
    return checks
