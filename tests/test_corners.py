"""Tests for the exact index-set / b-map layer, with brute-force oracles."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cusplab.corners import (
    BlowupStep,
    BMap,
    DanglingInheritanceError,
    Face,
    IndexFamily,
    IndexSet,
    IndexTerm,
    IntegrabilityViolatedError,
    NotBFibrationError,
    Space,
    SpaceMismatchError,
    _canonical,
    chained_density_exponents,
    compose_bmaps,
    density_lift_exponent,
    extended_union,
    inf_order,
    is_b_fibration,
    is_b_normal,
    member,
    product_family,
    pullback_family,
    pushforward_family,
    scale_set,
    shift_set,
    sum_sets,
)

Z_MAX = Fraction(10)
K_MAX = 6


# -- brute-force oracles ----------------------------------------------------

def closure(gens, z_max=Z_MAX, k_max=K_MAX):
    """All members (z, k) with z <= z_max, k <= k_max, straight from the rule."""
    out = set()
    for z0, k0 in gens:
        z0 = Fraction(z0)
        n = 0
        while z0 + n <= z_max:
            for k in range(min(k0, k_max) + 1):
                out.add((z0 + n, k))
            n += 1
    return out


def gens_of(E):
    return [(g.z, g.k) for g in E.generators]


def members_of(E, z_max=Z_MAX, k_max=K_MAX):
    return closure(gens_of(E), z_max, k_max)


def oracle_extended_union(MA, MB, k_max=K_MAX):
    out = set(MA) | set(MB)
    for z in {z for z, _ in MA} & {z for z, _ in MB}:
        ka = max(k for zz, k in MA if zz == z)
        kb = max(k for zz, k in MB if zz == z)
        for k in range(min(ka + kb + 1, k_max) + 1):
            out.add((z, k))
    return out


def profile(members):
    """The member set as a map z -> largest k.

    Index sets are downward closed in the log power, so the profile encodes
    the member set without loss (criterion 1's oracle uses the same
    encoding).
    """
    out = {}
    for z, k in members:
        if out.get(z, -1) < k:
            out[z] = k
    return out


def oracle_sum(PA, PB, z_max=Z_MAX, k_max=K_MAX):
    """Minkowski sum of two profiles, windowed to z <= z_max and k <= k_max."""
    out = {}
    for za, ka in PA.items():
        for zb, kb in PB.items():
            z = za + zb
            if z <= z_max:
                k = min(ka + kb, k_max)
                if out.get(z, -1) < k:
                    out[z] = k
    return out


def random_index_set(rng, max_terms=4):
    terms = [
        (Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])), rng.randint(0, 4))
        for _ in range(rng.randint(1, max_terms))
    ]
    return IndexSet.from_terms(terms)


# -- basic structure ---------------------------------------------------------

def test_canonical_form_prunes_dominated_generators():
    E = IndexSet.from_terms([(0, 0), (1, 0), (0, 1), (Fraction(1, 2), 0)])
    assert gens_of(E) == [(Fraction(0), 1), (Fraction(1, 2), 0)]


def pairwise_canonical(terms):
    """Reference canonical form: drop every term another term dominates."""
    def dominates(a, b):
        d = b.z - a.z
        return d.denominator == 1 and d >= 0 and b.k <= a.k

    terms = sorted(set(terms))
    return tuple(t for i, t in enumerate(terms)
                 if not any(i != j and dominates(u, t) for j, u in enumerate(terms)))


def test_canonical_form_matches_pairwise_reference():
    rng = random.Random(4711)
    seen = {"duplicate": 0, "equal z": 0, "negative z": 0, "integer apart": 0}
    for _ in range(400):
        # a few residues, each repeated at integer offsets of either sign
        bases = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 6]))
                 for _ in range(rng.randint(1, 4))]
        terms = [IndexTerm(rng.choice(bases) + rng.randint(-3, 3), rng.randint(0, 4))
                 for _ in range(rng.randint(1, 30))]
        terms += rng.sample(terms, rng.randint(0, len(terms)))
        zs = [t.z for t in terms]
        seen["duplicate"] += len(set(terms)) < len(terms)
        seen["equal z"] += len({(t.z, t.k) for t in terms}) > len(set(zs))
        seen["negative z"] += min(zs) < 0
        seen["integer apart"] += any((a - b).denominator == 1 and a != b for a in zs for b in zs)
        rng.shuffle(terms)
        assert IndexSet(tuple(terms)).generators == pairwise_canonical(terms), terms
    assert all(n >= 100 for n in seen.values()), seen


PRIMES = [p for p in range(2, 100) if all(p % q for q in range(2, p))]

# cases for the integer sort keys (z * lcm of the denominators) and the
# integer-gap test on reduced numerators and denominators
KEY_CASES = {
    "negative numerators": [(Fraction(-7, 3), 1), (Fraction(-4, 3), 0), (Fraction(-1, 3), 2),
                            (Fraction(-5, 2), 0), (Fraction(-1, 2), 1), (Fraction(2, 3), 0)],
    "equal denominators, gap not an integer": [(Fraction(1, 6), 0), (Fraction(5, 6), 1),
                                               (Fraction(7, 6), 1), (Fraction(-1, 6), 0)],
    "different denominators": [(Fraction(1, 2), 0), (Fraction(1, 3), 1),
                               (Fraction(3, 2), 0), (Fraction(4, 3), 2)],
    # the 25 primes below 100: their lcm is about 2.3e36
    "coprime denominators to 97": [(Fraction(1, p), p % 3) for p in PRIMES]
    + [(Fraction(1, p) + 1, 2) for p in PRIMES[::4]] + [(Fraction(-1, p), 0) for p in PRIMES[::5]],
    "exact duplicates": [(Fraction(1, 2), 1)] * 3 + [(Fraction(3, 2), 1), (Fraction(1, 2), 0)],
    "one generator": [(Fraction(5, 7), 3)],
    "no generators": [],
}


@pytest.mark.parametrize("case", list(KEY_CASES))
def test_integer_keys_match_the_pairwise_reference(case):
    pairs = KEY_CASES[case]
    terms = [IndexTerm(z, k) for z, k in pairs]
    for order in (terms, terms[::-1]):
        E = IndexSet(tuple(order))
        assert E.generators == pairwise_canonical(order)
    M = closure(pairs)
    assert members_of(E) == M
    probes = {t.z + n for t in terms for n in (-2, -1, 0, 1, 3)}
    probes |= {z + Fraction(1, 2) for z in probes} | {Fraction(0), Fraction(1, 6)}
    for z in probes:
        for k in range(K_MAX + 1):
            assert member(E, z, k) == ((z, k) in M) or z > Z_MAX
    # the overlap terms of an extended union need the same integer-gap test
    F = IndexSet.from_terms([(z + 1, k) for z, k in pairs[::2]]
                            + [(Fraction(5, 6), 0), (Fraction(-2, 3), 1)])
    assert members_of(extended_union(E, F)) == oracle_extended_union(M, members_of(F))


def test_structural_equality_is_semantic():
    assert IndexSet.from_terms([(0, 0), (0, 1)]) == IndexSet.from_terms([(0, 1)])
    assert IndexSet.from_terms([(0, 0)]) != IndexSet.from_terms([(1, 0)])
    assert repr(IndexSet.empty()) == "IndexSet(empty)"
    assert repr(IndexSet.from_terms([(Fraction(1, 2), 1), (0, 0)])) == "IndexSet[(0,0), (1/2,1)]"


def test_member_examples():
    N = IndexSet.naturals()
    assert member(N, 3, 0)
    assert not member(N, -1, 0)
    E = IndexSet.from_terms([(2, 1)])
    assert member(E, 5, 0)
    assert not member(E, 2, 2)
    assert not member(E, Fraction(5, 2), 0)
    assert not member(E, 0, -1) and not member(N, 0, -1)  # no negative log power


def test_inf_order_examples():
    assert inf_order(IndexSet.naturals()) == 0
    assert inf_order(IndexSet.empty()) == float("inf")
    assert inf_order(IndexSet.from_terms([(Fraction(3, 2), 0), (2, 1)])) == Fraction(3, 2)


def test_sum_and_scale_examples():
    N = IndexSet.naturals()
    assert sum_sets(N, N) == N
    assert sum_sets(IndexSet.shifted(1), IndexSet.shifted(Fraction(1, 2))) == \
        IndexSet.shifted(Fraction(3, 2))
    assert sum_sets(N, IndexSet.empty()).is_empty
    doubled = scale_set(2, IndexSet.shifted(1))
    assert gens_of(doubled) == [(Fraction(2), 0)]
    assert member(doubled, 3, 0)  # integer-step closure survives scaling
    with pytest.raises(ValueError):
        scale_set(0, N)
    with pytest.raises(ValueError):
        scale_set(-2, N)


def test_extended_union_examples():
    N = IndexSet.naturals()
    zero = IndexSet.shifted(0)
    empty = IndexSet.empty()
    assert extended_union(extended_union(zero, empty), empty) == zero
    assert extended_union(N, N) == IndexSet.from_terms([(0, 0), (0, 1)])
    mixed = extended_union(IndexSet.shifted(1), IndexSet.shifted(Fraction(3, 2)))
    assert gens_of(mixed) == [(Fraction(1), 0), (Fraction(3, 2), 0)]
    assert all(k == 0 for _, k in gens_of(mixed))


def test_inexact_values_are_refused():
    E = IndexSet.shifted(1)
    for make in (lambda: IndexTerm(0.1, 0), lambda: IndexTerm(True, 0),
                 lambda: IndexSet.shifted(0.1), lambda: IndexSet.from_terms([(0.5, 0)]),
                 lambda: IndexTerm(1, 1.5), lambda: IndexTerm(1, True),
                 lambda: member(E, 0.1 + 0.2 - 0.3, 0), lambda: member(E, 0.5, -1),
                 lambda: member(E, 1, True),
                 # a log power is checked before it is compared with 0
                 lambda: member(E, 0, -0.5), lambda: member(E, 0, 0.5),
                 lambda: member(IndexSet.empty(), 0, -0.5)):
        with pytest.raises(TypeError):
            make()
    # the shortcuts check their argument before they compare it with 1 or 0
    for q in (1.0, 0.5, True):
        with pytest.raises(TypeError):
            scale_set(q, E)
    for d in (0.0, 0.5, False):
        with pytest.raises(TypeError):
            shift_set(E, d)
        with pytest.raises(TypeError):
            shift_set(IndexSet.empty(), d)
    src, tgt = Space.of("g"), Space.of("h")
    for v in (True, 1.0):
        with pytest.raises(ValueError):
            BMap.build(src, tgt, {"g": {"h": v}})


def test_each_shortcut_returns_the_set_its_definition_builds():
    # sum with 0, union with the empty set, scale by 1 and shift by 0 hand
    # back their operand; each is checked against the set built by the
    # definition, with the naturals also given in non-singleton forms
    rng = random.Random(1515)
    N, empty = IndexSet.naturals(), IndexSet.empty()
    assert N is IndexSet.naturals() and empty is IndexSet.empty()
    naturals = (N, IndexSet.shifted(0), IndexSet.from_terms([(0, 0), (2, 0)]))
    assert all(n == N for n in naturals)
    for _ in range(200):
        E = random_index_set(rng)
        for n in naturals:
            want = IndexSet(tuple(IndexTerm(a.z + b.z, a.k + b.k)
                                  for a in n.generators for b in E.generators))
            got = (sum_sets(n, E), sum_sets(E, n))
            # when E is itself the naturals, either operand is the answer
            assert got == (want, want) == (E, E) and (E == N or got[0] is got[1] is E)
            assert sum_sets(n, empty).is_empty and sum_sets(empty, n).is_empty
        for q in (1, Fraction(1), "1"):
            assert scale_set(q, E) == IndexSet(tuple(IndexTerm(Fraction(q) * g.z, g.k)
                                                     for g in E.generators)) == E
        assert scale_set(1, E) is E and scale_set(Fraction(1), E) is E
        for d in (0, Fraction(0), "0"):
            assert shift_set(E, d) == IndexSet(tuple(IndexTerm(g.z + Fraction(d), g.k)
                                                     for g in E.generators)) == E
        assert shift_set(E, 0) is E
        want = IndexSet(E.generators + empty.generators)
        assert extended_union(empty, E) is E and extended_union(E, empty) is E
        assert extended_union(IndexSet(()), E) == want == E
    assert extended_union(empty, empty) is empty


# -- oracle agreement --------------------------------------------------------

def test_member_agrees_with_brute_force_on_random_sets():
    rng = random.Random(20240817)
    for _ in range(300):
        E = random_index_set(rng)
        M = members_of(E)
        for _ in range(20):
            z = Fraction(rng.randint(-8, 10), rng.choice([1, 2, 3, 4]))
            k = rng.randint(0, K_MAX)
            assert member(E, z, k) == ((z, k) in M) or z > Z_MAX


def test_extended_union_matches_oracle_on_random_sets():
    rng = random.Random(7)
    for _ in range(300):
        E, F = random_index_set(rng), random_index_set(rng)
        got = members_of(extended_union(E, F))
        want = oracle_extended_union(members_of(E), members_of(F))
        assert got == want


def test_sum_matches_oracle_on_random_sets():
    rng = random.Random(11)
    for _ in range(300):
        E, F = random_index_set(rng), random_index_set(rng)
        got = profile(members_of(sum_sets(E, F)))
        lo_e, lo_f = inf_order(E), inf_order(F)
        want = oracle_sum(profile(members_of(E, Z_MAX - lo_f)),
                          profile(members_of(F, Z_MAX - lo_e)))
        assert got == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1, max_size=4,
    ),
    st.lists(
        st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1, max_size=4,
    ),
)
def test_extended_union_commutative_and_inf(ta, tb):
    E, F = IndexSet.from_terms(ta), IndexSet.from_terms(tb)
    assert extended_union(E, F) == extended_union(F, E)
    assert inf_order(extended_union(E, F)) == min(inf_order(E), inf_order(F))


@settings(max_examples=100, deadline=None)
@given(
    *(
        st.lists(
            st.tuples(
                st.fractions(min_value=-4, max_value=4, max_denominator=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1, max_size=3,
        )
        for _ in range(3)
    )
)
def test_extended_union_associative(ta, tb, tc):
    E, F, G = (IndexSet.from_terms(t) for t in (ta, tb, tc))
    assert extended_union(extended_union(E, F), G) == extended_union(E, extended_union(F, G))


# -- b-maps ------------------------------------------------------------------

def two_face_example():
    """The map (x1, x2, x3) -> (x1 x2^3, x2 x3^3): not b-normal."""
    src = Space.of("x1", "x2", "x3")
    tgt = Space.of("x1p", "x2p")
    return BMap.build(src, tgt, {
        "x1": {"x1p": 1},
        "x2": {"x1p": 3, "x2p": 1},
        "x3": {"x2p": 3},
    })


def test_b_normality_examples():
    assert not is_b_normal(two_face_example())

    src = Space.of("x1", "x2")
    tgt = Space.of("x")
    multiply = BMap.build(src, tgt, {"x1": {"x": 1}, "x2": {"x": 1}})
    assert is_b_normal(multiply)
    assert is_b_fibration(multiply)

    identity = BMap.build(src, src, {"x1": {"x1": 1}, "x2": {"x2": 1}})
    assert is_b_normal(identity)


def test_blowdown_is_not_a_b_fibration():
    blown = Space.of("lift_x1", "lift_x2", "ff")
    base = Space.of("x1", "x2")
    beta = BMap.build(blown, base, {
        "lift_x1": {"x1": 1},
        "lift_x2": {"x2": 1},
        "ff": {"x1": 1, "x2": 1},
    }, submersion_witness=False)
    assert not is_b_normal(beta)
    assert not is_b_fibration(beta)


def test_compose_identity_returns_same_matrix():
    f = two_face_example()
    ident = BMap.build(f.source, f.source,
                       {lbl: {lbl: 1} for lbl in ("x1", "x2", "x3")})
    assert compose_bmaps(ident, f).e == f.e


def test_compose_matrix_product():
    X = Space.of("g")
    Y = Space.of("h1", "h2")
    Z = Space.of("k")
    f = BMap.build(X, Y, {"g": {"h1": 1}})
    g = BMap.build(Y, Z, {"h1": {"k": 2}, "h2": {"k": 5}})
    assert compose_bmaps(f, g).exponent(X.face("g"), Z.face("k")) == 2


def test_compose_space_mismatch():
    f = two_face_example()
    with pytest.raises(SpaceMismatchError):
        compose_bmaps(f, f)


def test_bmap_queries_match_linear_scan_and_dense_product():
    # random maps with a quarter of their exponents nonzero
    rng = random.Random(2718)

    def random_bmap(src, tgt):
        rows = {g.label: {h.label: rng.randint(1, 4) for h in tgt.faces if rng.random() < 0.25}
                for g in src.faces}
        return BMap.build(src, tgt, rows)

    def scan(f, G, H):
        return next((v for pair, v in f.e if pair == (G, H)), 0)

    def dense(f):
        return [[scan(f, G, H) for H in f.target.faces] for G in f.source.faces]

    for _ in range(60):
        nx, ny, nz = (rng.randint(1, 12) for _ in range(3))
        X, Y, Z = (Space.of(*[f"{p}{i}" for i in range(n)])
                   for p, n in (("x", nx), ("y", ny), ("z", nz)))
        f, g = random_bmap(X, Y), random_bmap(Y, Z)
        for G in X.faces:
            assert list(f.row(G).items()) == [(h, v) for (gg, h), v in f.e if gg == G]
            assert [f.exponent(G, H) for H in Y.faces] == [scan(f, G, H) for H in Y.faces]
        for H in Y.faces:
            assert list(f.column(H).items()) == [(gg, v) for (gg, h), v in f.e if h == H]
        assert is_b_normal(f) == all(sum(v > 0 for v in row) <= 1 for row in dense(f))
        F, Gm = dense(f), dense(g)
        product = [[sum(F[i][j] * Gm[j][k] for j in range(ny)) for k in range(nz)]
                   for i in range(nx)]
        want = sorted(((G, K), v) for G, row in zip(X.faces, product)
                      for K, v in zip(Z.faces, row) if v)
        assert compose_bmaps(f, g).e == tuple(want)


def random_b_normal_bmap(rng, src, tgt, density=0.8, max_entry=3):
    rows = {}
    for g in src.faces:
        if rng.random() < density:
            h = rng.choice(tgt.faces)
            rows[g.label] = {h.label: rng.randint(1, max_entry)}
    return BMap.build(src, tgt, rows)


def random_family(rng, space):
    sets = {}
    for f in space.faces:
        roll = rng.random()
        if roll < 0.3:
            continue  # empty set
        sets[f.label] = random_index_set(rng, max_terms=2)
    return IndexFamily.on(space, sets)


def test_pullback_through_composition_matches_composed_pullbacks():
    # matrix-product consistency; random b-normal maps, the shape every map
    # in this package has (branching rows merge paths and only bound the
    # composite, so they are excluded on purpose)
    rng = random.Random(99)
    for _ in range(200):
        nx, ny, nz = (rng.randint(2, 6) for _ in range(3))
        X = Space.of(*[f"x{i}" for i in range(nx)])
        Y = Space.of(*[f"y{i}" for i in range(ny)])
        Z = Space.of(*[f"z{i}" for i in range(nz)])
        f = random_b_normal_bmap(rng, X, Y)
        g = random_b_normal_bmap(rng, Y, Z)
        fam = random_family(rng, Z)
        assert pullback_family(compose_bmaps(f, g), fam) == \
            pullback_family(f, pullback_family(g, fam))


def test_composition_preserves_b_normality_exhaustively():
    # all 3x3 b-normal matrices with entries <= 2: each row empty or one entry
    space = Space.of("a", "b", "c")
    row_options = [None] + [(j, v) for j in range(3) for v in (1, 2)]
    labels = ["a", "b", "c"]

    def maps():
        for r0 in row_options:
            for r1 in row_options:
                for r2 in row_options:
                    rows = {}
                    for lbl, r in zip(labels, (r0, r1, r2)):
                        if r is not None:
                            rows[lbl] = {labels[r[0]]: r[1]}
                    yield BMap.build(space, space, rows)

    all_maps = list(maps())
    assert len(all_maps) == 7**3
    for f in all_maps:
        for g in all_maps:
            assert is_b_normal(compose_bmaps(f, g))


def test_pullback_of_smooth_family_is_smooth():
    f = two_face_example()
    fam = IndexFamily.on(f.target, {
        "x1p": IndexSet.naturals(), "x2p": IndexSet.naturals()})
    pulled = pullback_family(f, fam)
    assert all(pulled.get(G) == IndexSet.naturals() for G in f.source.faces)


def test_pullback_scaling_rule():
    src = Space.of("g")
    tgt = Space.of("h")
    f = BMap.build(src, tgt, {"g": {"h": 2}})
    fam = IndexFamily.on(tgt, {"h": IndexSet.shifted(1)})
    assert pullback_family(f, fam).get(src.face("g")) == IndexSet.shifted(2)


def test_pushforward_examples_and_errors():
    X1 = Space.of("ff", "tf")
    time = Space.of("zero")
    pi = BMap.build(X1, time, {"ff": {"zero": 1}, "tf": {"zero": 1}})
    fam = IndexFamily.on(X1, {"ff": IndexSet.shifted(Fraction(1, 3)),
                              "tf": IndexSet.shifted(2)})
    pushed = pushforward_family(pi, fam)
    assert pushed.get(time.face("zero")) == \
        extended_union(IndexSet.shifted(Fraction(1, 3)), IndexSet.shifted(2))

    empty_fam = IndexFamily.on(X1, {})
    assert pushforward_family(pi, empty_fam).get(time.face("zero")).is_empty

    not_fib = BMap.build(X1, time, {"ff": {"zero": 1}, "tf": {"zero": 1}},
                         submersion_witness=False)
    with pytest.raises(NotBFibrationError):
        pushforward_family(not_fib, fam)

    partial = BMap.build(X1, time, {"ff": {"zero": 1}})  # tf maps to the interior
    bad = IndexFamily.on(X1, {"ff": IndexSet.naturals(), "tf": IndexSet.naturals()})
    with pytest.raises(IntegrabilityViolatedError) as err:
        pushforward_family(partial, bad)
    assert err.value.face.label == "tf"
    ok = IndexFamily.on(X1, {"ff": IndexSet.naturals(), "tf": IndexSet.shifted(1)})
    assert pushforward_family(partial, ok).get(time.face("zero")) == IndexSet.naturals()


# -- sparse family operations against their dense definitions ---------------
# The family operations walk only the faces that carry a set and stop a sum at
# its first empty term; these references visit every face and every matrix
# entry, straight from the definitions.


def dense_pullback(f, fam):
    if fam.space != f.target:
        raise SpaceMismatchError("family lives on the wrong space")
    out = {}
    for G in f.source.faces:
        acc = IndexSet.naturals()
        for H in f.target.faces:
            e = f.exponent(G, H)
            if e:
                acc = sum_sets(acc, scale_set(e, fam.get(H)))
        out[G.label] = acc
    return IndexFamily.on(f.source, out)


def dense_pushforward(f, fam):
    nonzero = {G: [H for H in f.target.faces if f.exponent(G, H)] for G in f.source.faces}
    if not (all(len(hs) <= 1 for hs in nonzero.values()) and f.submersion_witness):
        raise NotBFibrationError("push-forward requires a b-fibration")
    if fam.space != f.source:
        raise SpaceMismatchError("family lives on the wrong space")
    for G in f.source.faces:
        if not nonzero[G] and not inf_order(fam.get(G)) > 0:
            raise IntegrabilityViolatedError(G, inf_order(fam.get(G)))
    out = {}
    for H in f.target.faces:
        acc = IndexSet.empty()
        for G in f.source.faces:
            e = f.exponent(G, H)
            if e:
                acc = extended_union(acc, scale_set(Fraction(1, e), fam.get(G)))
        out[H.label] = acc
    return IndexFamily.on(f.target, out)


def dense_product(A, B):
    if A.space != B.space:
        raise SpaceMismatchError("the two families live on different spaces")
    return IndexFamily.on(A.space, {F.label: sum_sets(A.get(F), B.get(F))
                                    for F in A.space.faces})


def dense_shifted(fam, exponents):
    return IndexFamily.on(fam.space, {F.label: shift_set(fam.get(F), exponents.get(F.label, 0))
                                      for F in fam.space.faces})


def random_bmap(rng, src, tgt):
    """An interior b-map, not necessarily b-normal: about a third of the rows
    are all zero (their faces map to the interior), the others hold one to
    three exponents in 1..3; one map in ten has no submersion witness."""
    rows = {}
    for g in src.faces:
        if rng.random() < 0.3:
            continue
        hs = rng.sample(tgt.faces, rng.randint(1, min(3, len(tgt.faces))))
        rows[g.label] = {h.label: rng.randint(1, 3) for h in hs}
    return BMap.build(src, tgt, rows, submersion_witness=rng.random() < 0.9)


def random_sparse_family(rng, space):
    """Empty on about half the faces; half the sets are shifted to positive
    inf order, so integrability holds on some interior faces and not others."""
    sets = {}
    for F in space.faces:
        if rng.random() < 0.5:
            continue
        E = random_index_set(rng, max_terms=2)
        sets[F.label] = E if rng.random() < 0.5 else shift_set(E, 9)
    return IndexFamily.on(space, sets)


def outcome(fn, *args):
    """The family ``fn`` returns, or the refusal it raises with what it names."""
    try:
        fam = fn(*args)
    except IntegrabilityViolatedError as exc:
        return IntegrabilityViolatedError, exc.face, exc.inf_value
    except (SpaceMismatchError, NotBFibrationError) as exc:
        return type(exc)
    # canonical as built: the public constructor changes nothing, and the
    # face lookup agrees with the entries on every face
    assert IndexFamily(fam.space, fam.entries) == fam
    assert [fam.get(F) for F in fam.space.faces] == \
        [dict(fam.entries).get(F, IndexSet.empty()) for F in fam.space.faces]
    return fam


def test_sparse_family_operations_match_their_dense_definitions():
    rng = random.Random(2121)
    seen = set()
    for _ in range(400):
        X, Y = (Space.of(*[f"{p}{i}" for i in range(rng.randint(1, 8))]) for p in "xy")
        f = random_bmap(rng, X, Y)
        wrong = rng.random() < 0.1  # families on the other space
        on_y = random_sparse_family(rng, X if wrong else Y)
        on_x = random_sparse_family(rng, Y if wrong else X)
        also_x = random_sparse_family(rng, X)
        shifts = {F.label: rng.randint(-3, 3) for F in X.faces if rng.random() < 0.7}
        for sparse, dense, args in (
            (pullback_family, dense_pullback, (f, on_y)),
            (pushforward_family, dense_pushforward, (f, on_x)),
            (product_family, dense_product, (on_x, also_x)),
            (product_family, dense_product, (also_x, on_x)),
            (IndexFamily.shifted, dense_shifted, (also_x, shifts)),
        ):
            got = outcome(sparse, *args)
            assert got == outcome(dense, *args)
            seen.add(got[0] if isinstance(got, tuple) else
                     "family" if isinstance(got, IndexFamily) else got)
    assert seen == {"family", SpaceMismatchError, NotBFibrationError,
                    IntegrabilityViolatedError}


def test_a_shift_keeps_a_canonical_set_canonical():
    rng = random.Random(77)
    for _ in range(300):
        E = random_index_set(rng, max_terms=6)
        d = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5]))
        S = shift_set(E, d)
        assert S.generators == IndexSet(tuple(IndexTerm(g.z + d, g.k)
                                              for g in E.generators)).generators


# -- unchecked results against their rebuild through the public constructors --
# sum_sets, scale_set, shift_set, extended_union and IndexSet.shifted build
# their terms without IndexTerm's checks, and compose_bmaps its composite
# without BMap's; each result must be what the checking constructors build
# from the same terms or entries, term for term and in the same order.


def rebuilt(E):
    """E's terms through ``IndexTerm`` and ``IndexSet``, asserting each is exact."""
    for t in E.generators:
        assert type(t) is IndexTerm and type(t.z) is Fraction and type(t.k) is int, t
    return IndexSet(tuple(IndexTerm(z, k) for z, k in E.generators))


def assert_as_checked(E, want):
    """E equals the set ``want`` built through the public constructors, and is canonical."""
    again = rebuilt(E)
    assert again.generators == E.generators == want.generators


def random_wide_set(rng):
    """Up to 8 terms over denominators 1 to 6, so classes mod 1 mix and prune."""
    return IndexSet.from_terms(
        (Fraction(rng.randint(-12, 12), rng.randint(1, 6)), rng.randint(0, 4))
        for _ in range(rng.randint(0, 8)))


def test_unchecked_set_results_equal_their_public_rebuild():
    rng = random.Random(2323)
    for _ in range(400):
        E, F = random_wide_set(rng), random_wide_set(rng)
        if rng.random() < 0.1:
            E = IndexSet.shifted(0)  # the naturals, as the README says it counts
        want = (IndexSet(()) if E.is_empty or F.is_empty else
                IndexSet(tuple(IndexTerm(a.z + b.z, a.k + b.k)
                               for a in E.generators for b in F.generators)))
        assert_as_checked(sum_sets(E, F), want)
        extra = tuple(IndexTerm(max(a.z, b.z), a.k + b.k + 1) for a in E.generators
                      for b in F.generators if (a.z - b.z).denominator == 1)
        assert_as_checked(extended_union(E, F),
                          IndexSet(E.generators + F.generators + extra))
        for q in (Fraction(rng.randint(1, 6), rng.randint(1, 6)), rng.randint(1, 4),
                  f"1/{rng.randint(1, 4)}"):
            assert_as_checked(scale_set(q, E), IndexSet(tuple(
                IndexTerm(Fraction(q) * g.z, g.k) for g in E.generators)))
        for d in (rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                  f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"):
            assert_as_checked(shift_set(E, d), IndexSet(tuple(
                IndexTerm(g.z + Fraction(d), g.k) for g in E.generators)))
        for z in (rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                  f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"):
            assert_as_checked(IndexSet.shifted(z), IndexSet.from_terms([(z, 0)]))
    # shifted(0) is the naturals: equal, and so handed back by a sum
    assert IndexSet.shifted(0) == IndexSet.naturals()
    E = IndexSet.from_terms([(Fraction(1, 2), 1)])
    assert sum_sets(IndexSet.shifted(0), E) is E and sum_sets(E, IndexSet.shifted("0")) is E


def test_an_index_term_is_its_pair():
    t = IndexTerm(Fraction(1, 2), 3)
    assert t == (Fraction(1, 2), 3) and hash(t) == hash((Fraction(1, 2), 3))
    assert (t.z, t.k) == tuple(t) and IndexTerm(z="1/2", k=3) == t
    assert sorted([IndexTerm(1, 0), IndexTerm(0, 2), IndexTerm(0, 1)]) == \
        [(0, 1), (0, 2), (1, 0)]
    for bad in ((Fraction(1, 2),), ((Fraction(1, 2), 0),)):  # a plain tuple is no term
        with pytest.raises(TypeError):
            IndexSet(bad)
    with pytest.raises(ValueError):
        IndexTerm(0, -1)


def test_an_unchecked_composite_equals_its_public_rebuild():
    rng = random.Random(3434)
    for _ in range(200):
        X, Y, Z = (Space.of(*[f"{p}{i}" for i in range(rng.randint(1, 9))]) for p in "xyz")
        f, g = random_bmap(rng, X, Y), random_bmap(rng, Y, Z)
        h = compose_bmaps(f, g)
        again = BMap(h.source, h.target, h.e, h.submersion_witness)
        assert again == h and again.e == h.e
        assert all(type(v) is int and v > 0 for _, v in h.e)
        assert (h.source, h.target, h.submersion_witness) == \
            (X, Z, f.submersion_witness and g.submersion_witness)
        want = {}
        for (G, H), v in f.e:
            for (H2, K), w in g.e:
                if H2 == H:
                    want[G, K] = want.get((G, K), 0) + v * w
        assert dict(h.e) == want


# -- each shortcut against the path it replaces --------------------------------
# sum_sets prunes on integer keys and builds a Fraction only for the terms it
# keeps; extended_union joins two one-generator sets by cases; pull-back and
# push-forward walk the plans each b-map caches.  The references are the
# paths these replaced: every Fraction sum then _canonical, the general
# union, and the dense definitions above.


def fraction_sum(E, F):
    """``sum_sets`` without its integer keys: every ``Fraction`` sum z + w, then ``_canonical``."""
    if E.is_empty or F.is_empty:
        return IndexSet.empty()
    return IndexSet._from_canonical(_canonical(tuple(
        IndexTerm(z + w, k + l) for z, k in E.generators for w, l in F.generators)))


def farey_set(n, shift=0):
    """n canonical generators: the first n fractions of denominator at most 12, in
    distinct classes mod 1, with log powers 0 to 6."""
    classes = sorted({Fraction(p, q) for q in range(1, 13) for p in range(q)})
    return IndexSet.from_terms((z + shift, i % 7) for i, z in enumerate(classes[:n]))


EXPONENTS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
# few exponents and log powers, so sums collide: equal z with different k, and duplicates
CROWDED = st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)])
INDEX_SETS = st.one_of(
    st.just(IndexSet.naturals()), st.just(IndexSet.empty()),
    st.lists(st.tuples(EXPONENTS, st.integers(0, 6)), max_size=30).map(IndexSet.from_terms),
    st.lists(st.tuples(CROWDED, st.integers(0, 2)), min_size=1, max_size=4)
    .map(IndexSet.from_terms),
)
CROWDED_PAIR = IndexSet.from_terms([(0, 1), (Fraction(1, 2), 0)])


@settings(max_examples=400, deadline=None)
@given(INDEX_SETS, INDEX_SETS)
@example(farey_set(24), farey_set(24, shift=Fraction(-7, 3)))
@example(farey_set(1, shift=-5), farey_set(24))
@example(farey_set(24), IndexSet.from_terms([(Fraction(-11, 12), 3)]))
@example(CROWDED_PAIR, CROWDED_PAIR)
@example(IndexSet.naturals(), farey_set(5))
@example(farey_set(5), IndexSet.empty())
def test_integer_keyed_sums_equal_the_fraction_sums(E, F):
    got = sum_sets(E, F)
    assert got.generators == fraction_sum(E, F).generators
    for t in got.generators:
        assert type(t) is IndexTerm and type(t.z) is Fraction and type(t.k) is int, t


@settings(max_examples=300, deadline=None)
@given(*(st.tuples(st.one_of(CROWDED, EXPONENTS), st.integers(0, 3)) for _ in range(2)))
@example((Fraction(1, 2), 1), (Fraction(1, 2), 0))  # equal z
@example((Fraction(5, 2), 0), (Fraction(-1, 2), 2))  # an integer apart
@example((Fraction(1, 3), 0), (Fraction(-2, 3), 0))  # a non-integer apart
def test_a_union_of_two_one_generator_sets_equals_the_general_union(a, b):
    a, b = IndexTerm(*a), IndexTerm(*b)
    extra = (IndexTerm(max(a.z, b.z), a.k + b.k + 1),) if (a.z - b.z).denominator == 1 else ()
    got = extended_union(IndexSet((a,)), IndexSet((b,)))
    assert got.generators == _canonical((a, b) + extra)
    for t in got.generators:
        assert type(t) is IndexTerm and type(t.z) is Fraction and type(t.k) is int, t


ROW_KINDS = ("unit", "scaled", "multi", "empty")


@st.composite
def b_maps(draw, kinds=ROW_KINDS):
    """A b-map whose rows are of the kinds the plans tell apart: one entry of
    exponent 1 (pulled back by relabelling), one entry above 1, several
    entries, and none (the face maps to the interior)."""
    X = Space.of(*[f"x{i}" for i in range(draw(st.integers(1, 6)))])
    Y = Space.of(*[f"y{i}" for i in range(draw(st.integers(1, 4)))])
    rows = {}
    for G in X.faces:
        kind = draw(st.sampled_from(kinds))
        if kind == "empty":
            continue
        multi = kind == "multi" and len(Y.faces) > 1
        n = draw(st.integers(2, min(3, len(Y.faces)))) if multi else 1
        targets = draw(st.lists(st.sampled_from(Y.faces), min_size=n, max_size=n, unique=True))
        lowest = {"unit": 1, "scaled": 2, "multi": 1}[kind]
        rows[G.label] = {H.label: draw(st.integers(lowest, 1 if kind == "unit" else 3))
                         for H in targets}
    return BMap.build(X, Y, rows)


@st.composite
def families(draw, space):
    """Sets on some faces; half are shifted to positive inf order, so a face that
    maps to the interior passes the integrability check or fails it."""
    sets = {}
    for F in space.faces:
        terms = draw(st.lists(st.tuples(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
                                        st.integers(0, 3)), max_size=3))
        if terms:
            E = IndexSet.from_terms(terms)
            sets[F.label] = shift_set(E, 9) if draw(st.booleans()) else E
    return IndexFamily.on(space, sets)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plan_walks_equal_the_dense_definitions(data):
    f = data.draw(b_maps())
    on_y = data.draw(families(f.target))
    pulled = outcome(pullback_family, f, on_y)
    assert pulled == outcome(dense_pullback, f, on_y)
    for G in f.source.faces:  # a unit row hands on the target's set itself
        if list(f.row(G).values()) == [1] and not on_y.get(*f.row(G)).is_empty:
            assert pulled.get(G) is on_y.get(*f.row(G))
    g = data.draw(b_maps(kinds=("unit", "scaled", "empty")))  # b-normal, so push-forward runs
    on_x = data.draw(families(g.source))
    assert outcome(pushforward_family, g, on_x) == outcome(dense_pushforward, g, on_x)


def test_spaces_built_apart_with_the_same_labels_are_one_space():
    X, again = Space.of("a", "b", "c"), Space.of("a", "b", "c")
    assert X is not again and X == again and hash(X) == hash(again)
    assert X != Space.of("a", "c", "b") and X != Space.of("a", "b") and X != ("a", "b", "c")
    f = BMap.build(X, Space.of("p", "q"), {"a": {"p": 1}, "b": {"p": 2}, "c": {"q": 1}})
    on_y = IndexFamily.on(Space.of("p", "q"), {"p": IndexSet.shifted(1),
                                               "q": IndexSet.shifted("1/2")})
    on_again = IndexFamily.on(again, {"a": IndexSet.shifted(1), "c": IndexSet.shifted(2)})
    pulled = pullback_family(f, on_y)
    assert pulled == dense_pullback(f, on_y)
    assert pushforward_family(f, on_again) == dense_pushforward(f, on_again)
    assert product_family(on_again, pulled) == dense_product(on_again, pulled)
    on_other = IndexFamily.on(Space.of("a", "b", "d"), {"a": IndexSet.naturals()})
    for call in (lambda: product_family(on_again, on_other),
                 lambda: product_family(on_other, on_again),
                 lambda: pullback_family(f, on_other),
                 lambda: pushforward_family(f, on_other)):
        with pytest.raises(SpaceMismatchError):
            call()


# -- blow-up bookkeeping -----------------------------------------------------

def test_density_lift_exponents():
    ff = Face("ff")
    assert density_lift_exponent(BlowupStep(2, 1, ff)) == 1
    assert density_lift_exponent(BlowupStep(3, 1, ff)) == 2
    assert density_lift_exponent(BlowupStep(3, 3, ff)) == 0


def test_chained_density_exponents_reference_values():
    ff_b, ff_c = Face("ff_b"), Face("ff_c")
    double = chained_density_exponents([
        BlowupStep(3, 1, ff_b),
        BlowupStep(2, 1, ff_c, frozenset({ff_b})),
    ])
    assert double == {ff_b: 2, ff_c: 3}

    fff_b, fff_c = Face("fff_b"), Face("fff_c")
    triple = chained_density_exponents([
        BlowupStep(4, 1, fff_b),
        BlowupStep(4, 2, fff_c, frozenset({fff_b})),
    ])
    assert triple == {fff_b: 3, fff_c: 5}

    single = chained_density_exponents([BlowupStep(2, 1, ff_b)])
    assert single == {ff_b: 1}


def test_chained_density_dangling_reference():
    with pytest.raises(DanglingInheritanceError):
        chained_density_exponents([
            BlowupStep(2, 1, Face("new"), frozenset({Face("ghost")})),
        ])


def test_chained_density_refuses_a_face_two_steps_create():
    c = Face("c")
    with pytest.raises(ValueError, match="'c'"):
        chained_density_exponents([BlowupStep(3, 1, c), BlowupStep(2, 1, c)])


def test_blowup_dimensions_are_exact_integers():
    f = Face("a")
    for n, k in ((3.0, 1), (3, 1.0), (True, False), (2, True), (Fraction(3), 1)):
        with pytest.raises(TypeError):
            BlowupStep(n, k, f)


def test_a_b_map_is_interior_by_construction():
    f = two_face_example()
    assert [fld.name for fld in dataclasses.fields(BMap)] == \
        ["source", "target", "e", "submersion_witness"]
    assert f.interior is True and compose_bmaps(f, BMap.build(
        f.target, f.target, {"x1p": {"x1p": 1}})).interior is True


def test_space_validation():
    with pytest.raises(ValueError):
        Space.of()
    with pytest.raises(ValueError):
        Space.of("a", "a")
    with pytest.raises(ValueError):
        BlowupStep(2, 3, Face("f"))
    with pytest.raises(KeyError, match="no face labelled 'b'"):
        Space.of("a").face("b")
    a, b = Face("a"), Face("b")
    with pytest.raises(ValueError):  # one exponent per (G, H)
        BMap(Space((a,)), Space((b,)), (((a, b), 1), ((a, b), 2)))
    with pytest.raises(SpaceMismatchError, match=re.escape("entry (b,a) off the spaces")):
        BMap(Space((a,)), Space((b,)), (((b, a), 1),))
