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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from cusplab.corners import (
    BlowupStep,
    BMap,
    Face,
    IndexFamily,
    IndexSet,
    RationalLike,
    Space,
    _frac,
    chained_density_exponents,
    inf_order,
    is_b_fibration,
    is_b_normal,
    pullback_family,
    pushforward_family,
    scale_set,
    sum_sets,
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


_X3_ROWS_12 = {
    # projection dropping the third factor
    "fff_b": "ff_b", "fff_c": "ff_c",
    "B1": "Br1", "B2": "Br2", "B3": "ff_b",
    "P1": "Br2", "P2": "Br1", "P3": "tb",
    "C1": "ff_b", "C2": "ff_b", "C3": "ff_c",
    "T1": "Br1", "T2": "Br2", "T3": "ff_c",
    "ttb": "tb",
}

_X3_ROWS_23 = {
    # projection dropping the first factor
    "fff_b": "ff_b", "fff_c": "ff_c",
    "B1": "ff_b", "B2": "Br1", "B3": "Br2",
    "P1": "tb", "P2": "Br2", "P3": "Br1",
    "C1": "ff_c", "C2": "ff_b", "C3": "ff_b",
    "T1": "ff_c", "T2": "Br1", "T3": "Br2",
    "ttb": "tb",
}

_X3_ROWS_13 = {
    # projection dropping the middle factor
    "fff_b": "ff_b", "fff_c": "ff_c",
    "B1": "Br1", "B2": "ff_b", "B3": "Br2",
    "P1": "Br2", "P2": "tb", "P3": "Br1",
    "C1": "ff_b", "C2": "ff_c", "C3": "ff_b",
    "T1": "Br1", "T2": "ff_c", "T3": "Br2",
    "ttb": "tb",
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

    pi2_1 = BMap.build(X2, X1, {
        "ff_b": {"ff": 1}, "ff_c": {"ff": 1}, "Br2": {"ff": 1},
        "Br1": {"tf": 1}, "tb": {"tf": 1},
    })
    pi2_2 = BMap.build(X2, X1, {
        "ff_b": {"ff": 1}, "ff_c": {"ff": 1}, "Br1": {"ff": 1},
        "Br2": {"tf": 1}, "tb": {"tf": 1},
    })

    def triple(rows: Mapping[str, str]) -> BMap:
        return BMap.build(X3, X2, {g: {h: 1} for g, h in rows.items()})

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
        pi2_1=pi2_1, pi2_2=pi2_2,
        pi3_12=triple(_X3_ROWS_12),
        pi3_23=triple(_X3_ROWS_23),
        pi3_13=triple(_X3_ROWS_13),
        density_X2=MappingProxyType({f.label: v for f, v in dens2.items()}),
        density_X3=MappingProxyType({f.label: v for f, v in dens3.items()}),
        omega_ff_exponent=1,
    )


def kernel_index_family(o: OpOrders) -> IndexFamily:
    """Index family of the kernel of an operator with orders o on the double space.

    The kernel carries ``-(alpha + 2) + N`` at the cusp front face (the -2 is
    the density convention), ``-beta + N`` at the temporal boundary, and the
    empty set at every other face.
    """
    fx = build_fixture()
    return IndexFamily.on(fx.X2, {
        "ff_c": IndexSet.shifted(-o.alpha - 2),
        "tb": IndexSet.shifted(-o.beta),
    })


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
    a_p, b_p = _frac(section[0]), _frac(section[1])
    fam_section = IndexFamily.on(fx.X1, {
        "ff": IndexSet.shifted(a_p),
        "tf": IndexSet.shifted(b_p),
    })
    pulled = pullback_family(fx.pi2_2, fam_section)
    kernel = kernel_index_family(o)
    product = IndexFamily(fx.X2, tuple(
        (f, sum_sets(pulled.get(f), kernel.get(f))) for f in fx.X2.faces
    ))
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
    """Intermediates of the triple-space composition pipeline."""

    pulled_12: IndexFamily
    pulled_23: IndexFamily
    product: IndexFamily
    with_density: IndexFamily
    ffc_contributors: tuple[tuple[Face, IndexSet], ...]
    pushed: IndexFamily
    normalized: IndexFamily
    result: OpOrders


def composition_stages(o1: OpOrders, o2: OpOrders) -> CompositionStages:
    """Run the triple-space pipeline for composing two operators.

    Both kernel families are pulled back to the triple space, multiplied,
    augmented by the lifted b-density exponents, pushed forward through the
    outer projection, and renormalized by the double-space density.
    """
    fx = build_fixture()
    pulled_12 = pullback_family(fx.pi3_12, kernel_index_family(o1))
    pulled_23 = pullback_family(fx.pi3_23, kernel_index_family(o2))
    product = IndexFamily(fx.X3, tuple(
        (f, sum_sets(pulled_12.get(f), pulled_23.get(f))) for f in fx.X3.faces
    ))
    with_density = product.shifted(fx.density_X3)

    ff_c = fx.X2.face("ff_c")
    contributors = tuple(
        (G, scale_set(Fraction(1, e), with_density.get(G)))
        for G, e in sorted(fx.pi3_13.column(ff_c).items())
    )
    pushed = pushforward_family(fx.pi3_13, with_density)
    normalized = pushed.shifted({lbl: -v for lbl, v in fx.density_X2.items()})

    lead_ffc = inf_order(normalized.get(ff_c))
    lead_tb = inf_order(normalized.get(fx.X2.face("tb")))
    result = OpOrders(o1.m + o2.m, -lead_ffc - 2, -lead_tb)
    return CompositionStages(pulled_12, pulled_23, product, with_density,
                             contributors, pushed, normalized, result)


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
    fam = IndexFamily.on(pi.source, {
        "ff": IndexSet.shifted(-a),
        "tf": IndexSet.shifted(-b),
    })
    pushed = pushforward_family(pi, fam)
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
