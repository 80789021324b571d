"""Tests for the surgery-space fixture and the order pipelines."""

import random
from fractions import Fraction

import pytest

from cusplab.corners import (
    IndexSet,
    inf_order,
    is_b_fibration,
    is_b_normal,
    member,
)
from cusplab.surgery_spaces import (
    OpOrders,
    SurgeryFixture,
    TraceClassViolatedError,
    build_fixture,
    composition_orders,
    composition_stages,
    kernel_index_family,
    mapping_orders,
    mapping_stages,
    trace_expansion_terms,
    trace_index_set,
    verify_fixture,
)


@pytest.fixture(scope="module")
def fx() -> SurgeryFixture:
    return build_fixture()


def rand_orders(rng) -> OpOrders:
    def q():
        return Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))
    return OpOrders(q(), q(), q())


# -- fixture invariants -------------------------------------------------------


def test_fixture_passes_all_invariants():
    failures = [name for name, ok in verify_fixture() if not ok]
    assert failures == []


def test_projections_are_b_fibrations_with_01_entries(fx):
    for bm in (fx.pi2_1, fx.pi2_2, fx.pi3_12, fx.pi3_23, fx.pi3_13):
        assert is_b_fibration(bm)
        assert is_b_normal(bm)
        assert all(v in (0, 1) for _, v in bm.e)


def test_pinned_pi2_rows(fx):
    X2, X1 = fx.X2, fx.X1
    expected_1 = {"ff_b": "ff", "ff_c": "ff", "Br2": "ff", "Br1": "tf", "tb": "tf"}
    for g, h in expected_1.items():
        assert fx.pi2_1.exponent(X2.face(g), X1.face(h)) == 1
        assert len(fx.pi2_1.row(X2.face(g))) == 1
    expected_2 = {"ff_b": "ff", "ff_c": "ff", "Br1": "ff", "Br2": "tf", "tb": "tf"}
    for g, h in expected_2.items():
        assert fx.pi2_2.exponent(X2.face(g), X1.face(h)) == 1


def test_densities_and_reference_exponent(fx):
    assert fx.density_x2() == {"ff_b": 2, "ff_c": 3}
    assert fx.density_x3() == {"fff_b": 3, "fff_c": 5}
    assert fx.omega_ff_exponent == 1


def test_outer_projection_cusp_column(fx):
    col = {g.label for g in fx.pi3_13.column(fx.X2.face("ff_c"))}
    assert col == {"fff_c", "C2", "T2"}
    tb_col = {g.label for g in fx.pi3_13.column(fx.X2.face("tb"))}
    assert "ttb" in tb_col


def test_triple_projection_rows_follow_the_forgotten_factor(fx):
    # each triple face is carried into the face of the double space reached
    # by forgetting one coordinate of its blow-up centre; pinning all 45 rows
    # guards the derived fixture data
    expected = {
        # drop the third coordinate
        "pi3_12": {"fff_b": "ff_b", "fff_c": "ff_c", "B1": "Br1", "B2": "Br2",
                   "B3": "ff_b", "P1": "Br2", "P2": "Br1", "P3": "tb",
                   "C1": "ff_b", "C2": "ff_b", "C3": "ff_c", "T1": "Br1",
                   "T2": "Br2", "T3": "ff_c", "ttb": "tb"},
        # drop the first coordinate
        "pi3_23": {"fff_b": "ff_b", "fff_c": "ff_c", "B1": "ff_b", "B2": "Br1",
                   "B3": "Br2", "P1": "tb", "P2": "Br2", "P3": "Br1",
                   "C1": "ff_c", "C2": "ff_b", "C3": "ff_b", "T1": "ff_c",
                   "T2": "Br1", "T3": "Br2", "ttb": "tb"},
        # drop the middle coordinate
        "pi3_13": {"fff_b": "ff_b", "fff_c": "ff_c", "B1": "Br1", "B2": "ff_b",
                   "B3": "Br2", "P1": "Br2", "P2": "tb", "P3": "Br1",
                   "C1": "ff_b", "C2": "ff_c", "C3": "ff_b", "T1": "Br1",
                   "T2": "ff_c", "T3": "Br2", "ttb": "tb"},
    }
    for name, rows in expected.items():
        bm = getattr(fx, name)
        for g, h in rows.items():
            assert bm.row(fx.X3.face(g)) == {fx.X2.face(h): 1}, (name, g)


# -- kernel families ----------------------------------------------------------


def test_kernel_index_family_examples(fx):
    dirac = kernel_index_family(OpOrders(1, 1, 0))
    assert dirac.get(fx.X2.face("ff_c")) == IndexSet.shifted(-3)
    assert dirac.get(fx.X2.face("tb")) == IndexSet.naturals()
    resolvent = kernel_index_family(OpOrders(-1, -1, 0))
    assert resolvent.get(fx.X2.face("ff_c")) == IndexSet.shifted(-1)
    assert resolvent.get(fx.X2.face("tb")) == IndexSet.naturals()
    cancel = kernel_index_family(OpOrders(0, -2, 0))
    assert cancel.get(fx.X2.face("ff_c")) == IndexSet.naturals()
    for label in ("ff_b", "Br1", "Br2"):
        assert dirac.get(fx.X2.face(label)).is_empty


# -- mapping property ---------------------------------------------------------


def test_mapping_orders_examples():
    assert mapping_orders(OpOrders(1, 1, 0), (0, 0)) == (-1, 0)
    assert mapping_orders(OpOrders(0, 0, 0), (Fraction(7, 3), -2)) == \
        (Fraction(7, 3), -2)
    assert mapping_orders(OpOrders(-1, -1, 0), (2, 1)) == (3, 1)


def test_mapping_pipeline_matches_closed_formula_randomized():
    rng = random.Random(2024)
    for _ in range(100):
        o = rand_orders(rng)
        ap = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        bp = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        assert mapping_orders(o, (ap, bp)) == (-o.alpha + ap, -o.beta + bp)


def test_mapping_product_family_vanishes_off_kernel_faces(fx):
    stages = mapping_stages(OpOrders(1, 1, 0), (Fraction(1, 2), 3))
    for label in ("ff_b", "Br1", "Br2"):
        assert stages.product.get(fx.X2.face(label)).is_empty
    assert not stages.product.get(fx.X2.face("ff_c")).is_empty
    assert not stages.product.get(fx.X2.face("tb")).is_empty


def test_pulled_section_family(fx):
    # the section family pulled through pi2_2 spreads as in the proof
    stages = mapping_stages(OpOrders(0, 0, 0), (Fraction(1, 2), Fraction(1, 3)))
    pulled = stages.pulled
    half, third = IndexSet.shifted(Fraction(1, 2)), IndexSet.shifted(Fraction(1, 3))
    assert pulled.get(fx.X2.face("ff_c")) == half
    assert pulled.get(fx.X2.face("ff_b")) == half
    assert pulled.get(fx.X2.face("Br1")) == half
    assert pulled.get(fx.X2.face("Br2")) == third
    assert pulled.get(fx.X2.face("tb")) == third


# -- composition --------------------------------------------------------------


def test_composition_orders_examples():
    assert composition_orders(OpOrders(-1, -1, 0), OpOrders(-1, -1, 0)) == \
        OpOrders(-2, -2, 0)
    o = OpOrders(Fraction(5, 2), -3, Fraction(1, 2))
    assert composition_orders(OpOrders(0, 0, 0), o) == o
    assert composition_orders(o, OpOrders(0, 0, 0)) == o
    assert composition_orders(OpOrders(1, 1, 0), OpOrders(-1, -1, 0)) == \
        OpOrders(0, 0, 0)
    assert composition_orders(OpOrders(Fraction(3, 2), -2, 5),
                              OpOrders(Fraction(-3, 2), 2, -5)) == OpOrders(0, 0, 0)


def test_composition_matches_sum_randomized():
    rng = random.Random(515)
    for _ in range(100):
        o1, o2 = rand_orders(rng), rand_orders(rng)
        got = composition_orders(o1, o2)
        assert got == OpOrders(o1.m + o2.m, o1.alpha + o2.alpha, o1.beta + o2.beta)


def test_composition_associative_randomized():
    rng = random.Random(99)
    for _ in range(25):
        o1, o2, o3 = rand_orders(rng), rand_orders(rng), rand_orders(rng)
        left = composition_orders(composition_orders(o1, o2), o3)
        right = composition_orders(o1, composition_orders(o2, o3))
        assert left == right


def test_composition_cusp_face_contributor_pattern(fx):
    # one nonempty contributor (through the triple cusp face), two empty ones
    stages = composition_stages(OpOrders(0, 0, 0), OpOrders(0, 0, 0))
    nonempty = [(G.label, E) for G, E in stages.ffc_contributors if not E.is_empty]
    empty = [G.label for G, E in stages.ffc_contributors if E.is_empty]
    assert [lbl for lbl, _ in nonempty] == ["fff_c"]
    assert sorted(empty) == ["C2", "T2"]
    # extended union with two empties reduces to the nonempty set
    assert stages.pushed.get(fx.X2.face("ff_c")) == nonempty[0][1]
    # in the density-normalized view the order-(0,0) composition is smooth: the
    # final cusp-face set is -2 + N, i.e. exactly the kernel convention at
    # alpha = 0, and the resulting operator orders are (0, 0, 0)
    assert stages.normalized.get(fx.X2.face("ff_c")) == IndexSet.shifted(-2)
    assert stages.result == OpOrders(0, 0, 0)


def test_composition_temporal_face_single_source(fx):
    stages = composition_stages(OpOrders(1, 1, 0), OpOrders(-1, -1, 0))
    tb_sources = [
        (G.label, stages.with_density.get(G))
        for G in fx.pi3_13.column(fx.X2.face("tb"))
    ]
    nonempty = [lbl for lbl, E in tb_sources if not E.is_empty]
    assert nonempty == ["ttb"]


# -- traces -------------------------------------------------------------------


def test_trace_index_set_examples():
    assert trace_index_set(-2, 0) == IndexSet.from_terms([(0, 0), (2, 1)])
    assert trace_index_set(-3, 0) == IndexSet.from_terms([(0, 0), (3, 1)])
    assert trace_index_set(Fraction(-5, 2), 0) == \
        IndexSet.from_terms([(0, 0), (Fraction(5, 2), 0)])
    assert not member(trace_index_set(Fraction(-5, 2), 0), Fraction(5, 2), 1)


def test_trace_class_precondition():
    with pytest.raises(TraceClassViolatedError):
        trace_index_set(-1, 0)
    with pytest.raises(TraceClassViolatedError):
        trace_index_set(-2, Fraction(1, 2))
    with pytest.raises(TraceClassViolatedError):
        trace_expansion_terms(Fraction(-1, 2), 0)


def test_trace_expansion_examples():
    assert trace_expansion_terms(-2, 0) == [(0, 0), (2, 1)]
    assert trace_expansion_terms(-4, 0) == [(0, 0), (4, 1)]
    assert trace_expansion_terms(Fraction(-3, 2), Fraction(-1, 2)) == \
        [(Fraction(1, 2), 0), (Fraction(3, 2), 1)]
    got = trace_expansion_terms(Fraction(-5, 2), 0)
    assert got == [(0, 0), (Fraction(5, 2), 0)]


def test_trace_expansion_symmetric_and_consistent_with_set():
    rng = random.Random(4242)
    for _ in range(60):
        a = Fraction(rng.randint(-24, -13), rng.choice([1, 2, 3, 4]))  # < -1
        b = Fraction(rng.randint(-12, 0), rng.choice([1, 2, 3, 4]))    # <= 0
        if b > 0:
            continue
        terms = trace_expansion_terms(a, b)
        if b < -1 and a <= 0:  # swapped pair stays in the trace-class range
            assert terms == trace_expansion_terms(b, a)
        S = trace_index_set(a, b)
        for z, k in terms:
            assert member(S, z, k)
        assert min(z for z, _ in terms) == inf_order(S)
