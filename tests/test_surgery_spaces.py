"""Tests for the surgery-space fixture and the order pipelines."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cusplab
from cusplab import surgery_spaces
from cusplab.corners import (
    BMap,
    Face,
    IndexFamily,
    IndexSet,
    IndexTerm,
    Space,
    SpaceMismatchError,
    inf_order,
    is_b_fibration,
    is_b_normal,
    member,
    pullback_family,
    pushforward_family,
    scale_set,
)
from cusplab.surgery_spaces import (
    CompositionStages,
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
    expected = {
        "pi2_1": {"ff_b": "ff", "ff_c": "ff", "Br2": "ff", "Br1": "tf", "tb": "tf"},
        "pi2_2": {"ff_b": "ff", "ff_c": "ff", "Br1": "ff", "Br2": "tf", "tb": "tf"},
    }
    for name, rows in expected.items():
        bm = getattr(fx, name)
        for g, h in rows.items():
            assert bm.row(X2.face(g)) == {X1.face(h): 1}, (name, g)
        assert len(bm.e) == 5, name


def test_densities_and_reference_exponent(fx):
    assert fx.density_X2 == {"ff_b": 2, "ff_c": 3}
    assert fx.density_X3 == {"fff_b": 3, "fff_c": 5}
    with pytest.raises(TypeError):  # read-only: the pipelines share one mapping
        fx.density_X2["ff_b"] = 0
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


def test_the_exact_engine_imports_without_numpy(tmp_path):
    # cusplab/__init__.py imports no subpackage, so the exact engine loads
    # only the standard library
    env = {**os.environ, "PYTHONPATH": str(Path(cusplab.__file__).parents[1])}  # src/
    script = ("import sys\n"
              "from cusplab.surgery_spaces import OpOrders, composition_orders\n"
              "print(composition_orders(OpOrders(-1, -1, 0), OpOrders(-1, -1, 0)))\n"
              "print('numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False", done.stdout


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


def test_the_cusp_face_contributors_wait_until_read(fx):
    # ffc_contributors is for inspection only: no field, computed on first
    # read, and equal to the expression composition_stages once built eagerly
    rng = random.Random(404)  # criterion 4's draws
    ff_c = fx.X2.face("ff_c")
    assert "ffc_contributors" not in [f.name for f in dataclasses.fields(CompositionStages)]
    for _ in range(100):
        o1, o2 = rand_orders(rng), rand_orders(rng)
        stages = composition_stages(o1, o2)
        result = stages.result
        assert "ffc_contributors" not in vars(stages)
        eager = tuple((G, scale_set(Fraction(1, e), stages.with_density.get(G)))
                      for G, e in sorted(fx.pi3_13.column(ff_c).items()))
        assert stages.ffc_contributors == eager
        assert stages.ffc_contributors is stages.ffc_contributors
        assert stages.result is result and result == composition_orders(o1, o2)


def test_composition_temporal_face_single_source(fx):
    stages = composition_stages(OpOrders(1, 1, 0), OpOrders(-1, -1, 0))
    tb_sources = [
        (G.label, stages.with_density.get(G))
        for G in fx.pi3_13.column(fx.X2.face("tb"))
    ]
    nonempty = [lbl for lbl, E in tb_sources if not E.is_empty]
    assert nonempty == ["ttb"]


# -- the pipelines against a reference built from the definitions -------------
#
# No shortcut here: every sum, scale, union and shift builds its set from the
# generators, and an empty sum of terms starts from a freshly built naturals.


def ref_sum(E, F):
    if E.is_empty or F.is_empty:
        return IndexSet(())
    return IndexSet(tuple(IndexTerm(a.z + b.z, a.k + b.k)
                          for a in E.generators for b in F.generators))


def ref_scale(q, E):
    return IndexSet(tuple(IndexTerm(q * g.z, g.k) for g in E.generators))


def ref_union(E, F):
    extra = tuple(IndexTerm(max(a.z, b.z), a.k + b.k + 1)
                  for a in E.generators for b in F.generators if (a.z - b.z).denominator == 1)
    return IndexSet(E.generators + F.generators + extra)


def ref_get(fam, face):
    return dict(fam.entries).get(face, IndexSet(()))


def ref_shifted(fam, exponents):
    return IndexFamily.on(fam.space, {
        f.label: IndexSet(tuple(IndexTerm(g.z + exponents.get(f.label, 0), g.k)
                                for g in E.generators))
        for f, E in fam.entries})


def ref_pullback(f, fam):
    """Source face G gets the sum over H of e(G, H) * fam(H), starting from the naturals."""
    out = {}
    for G in f.source.faces:
        acc = IndexSet((IndexTerm(0, 0),))
        for H in f.target.faces:
            if f.exponent(G, H):
                acc = ref_sum(acc, ref_scale(f.exponent(G, H), ref_get(fam, H)))
        out[G.label] = acc
    return IndexFamily.on(f.source, out)


def ref_pushforward(f, fam):
    """Target face H gets the extended union over G with e(G, H) > 0 of fam(G) / e(G, H)."""
    out = {}
    for H in f.target.faces:
        acc = IndexSet(())
        for G in f.source.faces:
            if f.exponent(G, H):
                acc = ref_union(acc, ref_scale(Fraction(1, f.exponent(G, H)), ref_get(fam, G)))
        out[H.label] = acc
    return IndexFamily.on(f.target, out)


def ref_kernel(fx, o):
    return IndexFamily.on(fx.X2, {"ff_c": IndexSet((IndexTerm(-o.alpha - 2, 0),)),
                                  "tb": IndexSet((IndexTerm(-o.beta, 0),))})


def ref_product(space, A, B):
    return IndexFamily.on(space, {f.label: ref_sum(ref_get(A, f), ref_get(B, f))
                                  for f in space.faces})


def test_mapping_stages_match_the_reference_pipeline(fx):
    rng = random.Random(303)  # criterion 3's distribution
    for _ in range(60):
        o = rand_orders(rng)
        section = (Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])),
                   Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])))
        got = mapping_stages(o, section)
        fam = IndexFamily.on(fx.X1, {"ff": IndexSet((IndexTerm(section[0], 0),)),
                                     "tf": IndexSet((IndexTerm(section[1], 0),))})
        pulled = ref_pullback(fx.pi2_2, fam)
        product = ref_product(fx.X2, pulled, ref_kernel(fx, o))
        with_density = ref_shifted(product, fx.density_X2)
        pushed = ref_pushforward(fx.pi2_1, with_density)
        result = (inf_order(ref_get(pushed, fx.X1.face("ff"))) - fx.omega_ff_exponent,
                  inf_order(ref_get(pushed, fx.X1.face("tf"))))
        assert (got.section, got.pulled, got.product, got.with_density, got.pushed,
                got.result) == (fam, pulled, product, with_density, pushed, result)


def test_composition_stages_match_the_reference_pipeline(fx):
    rng = random.Random(404)  # criterion 4's distribution
    ff_c, tb = fx.X2.face("ff_c"), fx.X2.face("tb")
    for _ in range(60):
        o1, o2 = rand_orders(rng), rand_orders(rng)
        got = composition_stages(o1, o2)
        pulled_12 = ref_pullback(fx.pi3_12, ref_kernel(fx, o1))
        pulled_23 = ref_pullback(fx.pi3_23, ref_kernel(fx, o2))
        product = ref_product(fx.X3, pulled_12, pulled_23)
        with_density = ref_shifted(product, fx.density_X3)
        contributors = tuple((G, ref_scale(Fraction(1, fx.pi3_13.exponent(G, ff_c)),
                                           ref_get(with_density, G)))
                             for G in sorted(fx.X3.faces) if fx.pi3_13.exponent(G, ff_c))
        pushed = ref_pushforward(fx.pi3_13, with_density)
        normalized = ref_shifted(pushed, {lbl: -v for lbl, v in fx.density_X2.items()})
        result = OpOrders(o1.m + o2.m, -inf_order(ref_get(normalized, ff_c)) - 2,
                          -inf_order(ref_get(normalized, tb)))
        assert (got.pulled_12, got.pulled_23, got.product, got.with_density,
                got.ffc_contributors, got.pushed, got.normalized, got.result) == \
            (pulled_12, pulled_23, product, with_density, contributors, pushed,
             normalized, result)


def assert_exact_terms(fam):
    for _, E in fam.entries:
        for t in E.generators:
            assert type(t) is IndexTerm and type(t.z) is Fraction and type(t.k) is int, t


def assert_as_checked(fam, sets):
    """``fam`` is the family ``IndexFamily.on`` builds from ``sets``: entry for
    entry, in face order, and unchanged when its terms are rebuilt through
    ``IndexTerm``, ``IndexSet`` and ``IndexFamily``."""
    assert_exact_terms(fam)
    again = IndexFamily(fam.space, tuple(
        (F, IndexSet(tuple(IndexTerm(z, k) for z, k in E.generators))) for F, E in fam.entries))
    assert fam.entries == again.entries == IndexFamily.on(fam.space, sets).entries


def test_pipeline_families_equal_their_public_rebuild(fx):
    # the kernel, section and trace families are built in face order without
    # IndexSet's and IndexFamily's checks, the composition's orders without
    # OpOrders', and the composition reads its ff_c column and the negated
    # density off the fixture once
    rng = random.Random(505)
    time = Space.of("zero")
    to_time = BMap.build(fx.X1, time, {"ff": {"zero": 1}, "tf": {"zero": 1}})
    for _ in range(100):
        o, o2 = rand_orders(rng), rand_orders(rng)
        assert_as_checked(kernel_index_family(o), {
            "ff_c": IndexSet.from_terms([(-o.alpha - 2, 0)]),
            "tb": IndexSet.from_terms([(-o.beta, 0)])})
        a, b = (Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(2))
        stages = mapping_stages(o, (a, b))
        assert_as_checked(stages.section, {"ff": IndexSet.from_terms([(a, 0)]),
                                           "tf": IndexSet.from_terms([(b, 0)])})
        composed = composition_stages(o, o2)
        for fam in (stages.pulled, stages.product, stages.with_density, stages.pushed,
                    composed.pulled_12, composed.pulled_23, composed.product,
                    composed.with_density, composed.pushed, composed.normalized):
            assert_exact_terms(fam)
            assert IndexFamily(fam.space, fam.entries).entries == fam.entries
        r = composed.result  # built unchecked from Fractions
        assert all(type(v) is Fraction for v in (r.m, r.alpha, r.beta))
        again = OpOrders(r.m, r.alpha, r.beta)
        assert r == again and hash(r) == hash(again)
        ff_c = fx.X2.face("ff_c")
        assert composed.ffc_contributors == tuple(
            (G, IndexSet(tuple(IndexTerm(g.z / e, g.k)
                               for g in composed.with_density.get(G).generators)))
            for G, e in sorted(fx.pi3_13.column(ff_c).items()))
        assert composed.normalized == IndexFamily.on(fx.X2, {
            F.label: IndexSet(tuple(IndexTerm(g.z - fx.density_X2.get(F.label, 0), g.k)
                                    for g in E.generators))
            for F, E in composed.pushed.entries})
        alpha = Fraction(-rng.randint(4, 24), rng.choice([1, 2, 3]))  # below -1
        beta = Fraction(-rng.randint(0, 12), rng.choice([1, 2, 3]))
        want = pushforward_family(to_time, IndexFamily.on(fx.X1, {
            "ff": IndexSet.from_terms([(-alpha, 0)]),
            "tf": IndexSet.from_terms([(-beta, 0)])})).get(time.face("zero"))
        got = trace_index_set(alpha, beta)
        assert got.generators == want.generators
        assert all(type(t) is IndexTerm and type(t.z) is Fraction for t in got.generators)


def test_pull_back_and_push_forward_match_the_reference_on_random_b_maps():
    # the fixture's exponents are all 1; these rows carry exponents 1 to 3
    rng = random.Random(1313)
    for _ in range(100):
        X = Space.of(*[f"x{i}" for i in range(rng.randint(1, 6))])
        Y = Space.of(*[f"y{i}" for i in range(rng.randint(1, 4))])
        f = BMap.build(X, Y, {g.label: {rng.choice(Y.faces).label: rng.randint(1, 3)}
                              for g in X.faces})
        draw = [(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3])), rng.randint(0, 3))
                for _ in range(12)]

        def family(space):
            return IndexFamily.on(space, {
                face.label: IndexSet.from_terms(rng.sample(draw, rng.randint(1, 3)))
                for face in space.faces if rng.random() < 0.7})

        on_y, on_x = family(Y), family(X)
        assert pullback_family(f, on_y) == ref_pullback(f, on_y)
        assert pushforward_family(f, on_x) == ref_pushforward(f, on_x)


def test_pulling_back_along_a_projection_hands_on_the_family_sets(fx):
    # every row of pi3_12 is one exponent-1 entry, so each pulled face is the
    # set of the face below it, the same object and not a rebuilt copy
    rng = random.Random(12)
    for _ in range(20):
        fam = kernel_index_family(rand_orders(rng))
        pulled = pullback_family(fx.pi3_12, fam)
        for G in fx.X3.faces:
            (H,) = fx.pi3_12.row(G)
            assert pulled.get(G) is fam.get(H)


def test_faces_are_their_labels_and_families_follow_the_space_order(fx):
    a, b = Face("ff"), Face("ff")
    assert a == b and hash(a) == hash(b) and a is not b
    assert [f.label for f in sorted(Face(lbl) for lbl in ("tb", "ff_c", "Br1", "ff_b"))] == \
        ["Br1", "ff_b", "ff_c", "tb"]
    with pytest.raises(AttributeError):
        a.label = "tf"
    assert repr(a) == "Face(label='ff')"
    # a b-map's entries are sorted by (source label, target label)
    for bm in (fx.pi2_1, fx.pi2_2, fx.pi3_12, fx.pi3_23, fx.pi3_13):
        pairs = [(G.label, H.label) for (G, H), _ in bm.e]
        assert pairs == sorted(pairs) and len(pairs) == len(bm.source.faces)
    assert [(G.label, H.label) for (G, H), _ in fx.pi2_1.e] == \
        [("Br1", "tf"), ("Br2", "ff"), ("ff_b", "ff"), ("ff_c", "ff"), ("tb", "tf")]
    # a family keeps its non-empty entries in the space's face order, whatever
    # order they are given in
    sets = {lbl: IndexSet.shifted(i) for i, lbl in enumerate(("tb", "Br2", "ff_c", "ff_b"))}
    given = [(fx.X2.face(lbl), E) for lbl, E in sets.items()]
    given.append((fx.X2.face("Br1"), IndexSet.empty()))
    for entries in (given, given[::-1]):
        fam = IndexFamily(fx.X2, tuple(entries))
        assert [(f.label, E) for f, E in fam.entries] == \
            [(lbl, sets[lbl]) for lbl in ("ff_b", "ff_c", "Br2", "tb")]
        assert fam == IndexFamily.on(fx.X2, sets)
    with pytest.raises(SpaceMismatchError):
        IndexFamily(fx.X2, ((fx.X1.face("ff"), IndexSet.naturals()),))
    with pytest.raises(SpaceMismatchError):
        fam.get(fx.X1.face("tf"))
    with pytest.raises(ValueError, match="duplicate"):
        IndexFamily(fx.X2, ((fx.X2.face("tb"), IndexSet.naturals()),
                            (Face("tb"), IndexSet.shifted(1))))


# -- traces -------------------------------------------------------------------


def test_trace_index_set_examples():
    assert trace_index_set(-2, 0) == IndexSet.from_terms([(0, 0), (2, 1)])
    assert trace_index_set(-3, 0) == IndexSet.from_terms([(0, 0), (3, 1)])
    assert trace_index_set(Fraction(-5, 2), 0) == \
        IndexSet.from_terms([(0, 0), (Fraction(5, 2), 0)])
    assert not member(trace_index_set(Fraction(-5, 2), 0), Fraction(5, 2), 1)


def test_orders_refuse_floats():
    for make in (lambda: OpOrders(0.1, 1, 0), lambda: OpOrders(1, True, 0),
                 lambda: mapping_orders(OpOrders(1, 1, 0), (0.5, 0)),
                 lambda: trace_index_set(-2.0, 0)):
        with pytest.raises(TypeError):
            make()


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


def _fraction_trace_terms(a: Fraction, b: Fraction):
    """The trace class and terms by Fraction's own operators, the reference the code follows."""
    if not (a < -1 and b <= 0):
        return None
    if (a - b).denominator == 1:
        return [(min(-a, -b), 0), (max(-a, -b), 1)]
    return sorted([(-a, 0), (-b, 0)])


def test_trace_terms_by_numerators_match_fraction_operators():
    # criterion 2's draws (seed 202), its pairs swapped, the class boundaries and alpha = beta
    rng, pairs = random.Random(202), []
    while len(pairs) < 400:
        den = rng.choice([1, 2, 3, 4, 5])
        alpha = Fraction(-rng.randint(den + 1, 8 * den), den)
        beta = (alpha + rng.randint(0, 6) if rng.random() < 0.5
                else Fraction(-rng.randint(0, 12), rng.choice([2, 3, 4, 5])))
        pairs += [(alpha, beta), (beta, alpha)]
    pairs += [(Fraction(-1), Fraction(0)), (Fraction(-2), Fraction(0)),
              (Fraction(-2), Fraction(1, 3)), (Fraction(-1, 2), Fraction(0)),
              (Fraction(-7, 3), Fraction(-7, 3)), (Fraction(-3), Fraction(-3)),
              (Fraction(-1), Fraction(-1)), (Fraction(-10**40 - 1, 10**40), Fraction(-10**40))]
    refused = 0
    for a, b in pairs:
        want = _fraction_trace_terms(a, b)
        if want is None:
            refused += 1
            for compute in (trace_expansion_terms, trace_index_set):
                with pytest.raises(TraceClassViolatedError):
                    compute(a, b)
            continue
        got = trace_expansion_terms(a, b)
        assert got == want and [type(z) for z, _ in got] == [Fraction] * 2, (a, b)
        assert [type(k) for _, k in got] == [int] * 2, (a, b)
    assert 0 < refused < len(pairs) - 300
    assert trace_expansion_terms(Fraction(-7, 3), Fraction(-7, 3)) == [
        (Fraction(7, 3), 0), (Fraction(7, 3), 1)]


# -- reduced exponents through the pipelines ------------------------------------

def assert_reduced(z):
    assert type(z) is Fraction, z
    assert z.denominator > 0 and math.gcd(z.numerator, z.denominator) == 1, \
        (z.numerator, z.denominator)


def assert_reduced_family(fam):
    for _, E in fam.entries:
        for t in E.generators:
            assert_reduced(t.z)


def trace_draws(rng, count):
    """Criterion 2's draws: alpha < -1 and beta <= 0, half an integer apart."""
    while count:
        den = rng.choice([1, 2, 3, 4, 5])
        alpha = Fraction(-rng.randint(den + 1, 8 * den), den)
        if rng.random() < 0.5:
            beta = alpha + rng.randint(0, 6)
        else:
            beta = Fraction(-rng.randint(0, 12), rng.choice([2, 3, 4, 5]))
        if beta <= 0:
            count -= 1
            yield alpha, beta


def test_pipeline_exponents_stay_reduced_fractions():
    # criterion 3's and criterion 4's draws, and criterion 2's
    rng = random.Random(303)
    for _ in range(100):
        o = rand_orders(rng)
        section = tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(2))
        stages = mapping_stages(o, section)
        for fam in (stages.section, stages.pulled, stages.product, stages.with_density,
                    stages.pushed):
            assert_reduced_family(fam)
        for z in stages.result:
            assert_reduced(z)
    rng = random.Random(404)
    for _ in range(100):
        stages = composition_stages(rand_orders(rng), rand_orders(rng))
        for fam in (stages.pulled_12, stages.pulled_23, stages.product, stages.with_density,
                    stages.pushed, stages.normalized):
            assert_reduced_family(fam)
        for _, E in stages.ffc_contributors:
            for t in E.generators:
                assert_reduced(t.z)
        r = stages.result
        for z in (r.m, r.alpha, r.beta):
            assert_reduced(z)
    for alpha, beta in trace_draws(random.Random(202), 100):
        for t in trace_index_set(alpha, beta).generators:
            assert_reduced(t.z)
        for z, _ in trace_expansion_terms(alpha, beta):
            assert_reduced(z)


def test_an_empty_pushed_face_gives_infinite_orders(monkeypatch):
    # inf_order reads +inf off an empty face, and the result arithmetic
    # carries it as a float: +inf - 1 at the front face, -inf - 2 and -inf
    # for the composed alpha and beta
    push = surgery_spaces.pushforward_family

    def dropping(label):
        def pushed(f, fam):
            out = push(f, fam)
            return IndexFamily(out.space, tuple((F, E) for F, E in out.entries
                                                if F.label != label))
        return pushed

    o = OpOrders(1, Fraction(-3, 2), Fraction(1, 3))
    monkeypatch.setattr(surgery_spaces, "pushforward_family", dropping("ff"))
    assert inf_order(mapping_stages(o, (0, 0)).pushed.get(Face("ff"))) is math.inf
    lead_ff, lead_tf = mapping_orders(o, (0, 0))
    assert lead_ff == math.inf and type(lead_ff) is float and lead_tf == Fraction(-1, 3)
    monkeypatch.setattr(surgery_spaces, "pushforward_family", dropping("ff_c"))
    got = composition_orders(o, o)
    assert got.alpha == -math.inf and type(got.alpha) is float
    assert (got.m, got.beta) == (2, Fraction(2, 3))
    monkeypatch.setattr(surgery_spaces, "pushforward_family", dropping("tb"))
    got = composition_orders(o, o)
    assert got.beta == -math.inf and (got.m, got.alpha) == (2, -3)
