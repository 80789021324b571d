"""Exact combinatorics of manifolds with corners.

Index sets with logarithmic weights, interior b-maps recorded as exponent
matrices over boundary hypersurfaces, blow-up density bookkeeping, and the
index-family arithmetic of pull-back along b-maps and push-forward along
b-fibrations.

Everything in this module is exact: exponents are ``fractions.Fraction``,
values are immutable after construction, and every operation is a pure
function, so objects can be shared freely between concurrent tasks.  A float
or a bool is refused wherever a rational or an integer is expected (a log
power, a blow-up's dimensions), since a float such as ``0.1`` is not the
rational it is written as.  A value given where a :class:`Face` is expected,
such as its label string, is refused with ``TypeError``: by a lookup when
it misses, and by ``Space`` and ``BlowupStep`` at construction.  Where an
operation would only rebuild one of its operands (a sum with the naturals,
a union with the empty set, a scale by 1, a shift by 0) it returns that
operand: every set is kept canonical, and a canonical set re-canonicalises
to itself.

Exponents stay ``Fraction``s wherever a caller can see them, always reduced
with a positive denominator, but the engine does its arithmetic on their
reduced numerators and denominators.  ``_add``, ``_add_int``, ``_neg`` and
``_mul`` follow ``Fraction``'s own integer gcd steps and build their result
once with ``_fraction``, which fills the two slots without normalising
again; ``_reduced`` reduces an integer ratio by one ``math.gcd``.  So a
result equals, hashes and prints as ``Fraction``'s own arithmetic would
make it.  The sums, shifts and scales below, the kernel exponents and the
surgery pipelines' results are built this way.

Index families stay sparse: a family holds only its nonempty sets, in face
order, with its face -> set lookup built at construction.  Pull-back stops a
face at its first empty target set, since the empty set absorbs a sum;
push-forward feeds only nonempty sets to ``extended_union``; the face-wise
product (``product_family``) walks one family's entries and looks up the
other.

The engine checks at its boundary only.  The public constructors
(``IndexTerm``, ``IndexSet``, ``IndexFamily``, ``BMap``) keep every check;
a result built from parts already checked skips them:

* ``sum_sets``, ``scale_set``, ``shift_set`` and ``extended_union`` build
  their terms with ``_new_term``, and only the canonical pruning runs on
  them (a shift keeps a canonical set canonical, so it skips that too);
* ``IndexSet.shifted`` takes its one generator as a canonical set;
* pull-back, push-forward, ``product_family`` and ``IndexFamily.shifted``
  build their families with ``IndexFamily._from_canonical``;
* ``compose_bmaps`` reads each row out in label order, so its entries
  come out sorted, and builds the composite with ``BMap._from_canonical``.

The hot paths stay on C-level keys: a :class:`Face` is a named tuple of its
label, and an :class:`IndexTerm` of its ``(z, k)``, so each equals, hashes
and sorts as that tuple; an index set sorts its generators on exact integer
keys over their common denominator; and whether two exponents differ by an
integer has one owner, ``_unit_class``, the class mod 1 read off the
reduced numerator and denominator.  They also do only the work their
inputs need:

* each :class:`BMap` computes two plans once.  Pull-back walks the pull
  plan, each source face in face order with its row as a tuple, and a row
  that is one entry of exponent 1 hands on the target face's set as it is,
  with no sum and no scale.  Push-forward walks the push plan, each target
  face with its column and the scale 1/e of each entry, after checking the
  faces the plan lists as mapping to the interior;
* ``sum_sets`` keys each candidate sum on ``_canonical``'s integer keys
  over the common denominator of both operands, prunes on the keys, and
  builds a ``Fraction`` only for the terms it keeps; a sum of two
  one-generator sets, and an extended union of two, are worked out by
  cases, and a larger extended union pairs only the generators in one
  class mod 1;
* ``compose_bmaps`` accumulates each row of the composite into one dense
  list of integers indexed by the target faces' positions, with g's rows
  read as (position, exponent) pairs, and reads it out in label order: no
  dict keyed on faces and no sort of the entries;
* a :class:`Space` compares equal to itself by identity first, since every
  pipeline compares a space with itself.

Conventions:

* An index set is generated by finitely many terms ``(z, k)``; membership is
  closed under ``z -> z + 1`` and downward in the log power ``k``.
* The empty index set (written ``infinity`` in the glossary) is
  ``IndexSet.empty()``; an absent face in an :class:`IndexFamily` means the
  empty set.
* Exponent matrices hold natural numbers; ``e(G, H) > 0`` means the source
  face ``G`` is carried into the target face ``H`` with that order.
* Every b-map is interior, so no target defining function pulls back to
  zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"an exact rational (int, str or Fraction) is needed, got {x!r}")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Reduced-integer arithmetic on Fractions
#
# Each helper reads its operands' ``_numerator`` and ``_denominator`` slots,
# so the operands must be ``Fraction``s: an empty set's ``math.inf`` is not.
# ---------------------------------------------------------------------------

_new_object = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d of coprime n and d > 0, taken as it is."""
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _reduced(n: int, d: int) -> Fraction:
    """The Fraction n/d for any n and d > 0, reduced by their gcd."""
    g = math.gcd(n, d)
    return _fraction(n // g, d // g)


def _add(a: Fraction, b: Fraction) -> Fraction:
    """a + b: over lcm(da, db), reduced by the one gcd it can still share."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = math.gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


def _add_int(a: Fraction, i: int) -> Fraction:
    """a + i: adding a multiple of the denominator keeps the fraction reduced."""
    d = a._denominator
    return _fraction(a._numerator + i * d, d)


def _neg(a: Fraction, i: int = 0) -> Fraction:
    """i - a, so -a by default."""
    d = a._denominator
    return _fraction(i * d - a._numerator, d)


def _mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b, each numerator reduced against the other denominator first."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _fraction(na * nb, da * db)


def _unit_class(z: Fraction) -> tuple[int, int]:
    """z mod 1, as z's reduced denominator q and its numerator mod q.

    z - w is an integer iff z and w have the same class; two such exponents
    share their denominator, so the larger numerator is the larger exponent.
    """
    q = z._denominator
    return q, z._numerator % q


class SpaceMismatchError(ValueError):
    """Composition or family application across unrelated spaces."""


class NotBFibrationError(ValueError):
    """Push-forward requested along a map that is not a b-fibration."""


class IntegrabilityViolatedError(ValueError):
    """A face mapped to the interior carries an index set with inf <= 0."""

    def __init__(self, face: "Face", inf_value) -> None:
        self.face = face
        self.inf_value = inf_value
        super().__init__(
            f"face {face.label!r} maps to the interior but has inf order {inf_value}"
        )


class DanglingInheritanceError(ValueError):
    """A blow-up step inherits from a face no earlier step created."""


# ---------------------------------------------------------------------------
# Faces and spaces
# ---------------------------------------------------------------------------


class Face(NamedTuple):
    """A boundary hypersurface, identified by its label.

    A named tuple of its label, so hashing, equality and ordering (by label)
    run in C wherever faces key a dict or sort a b-map's entries.
    """

    label: str


def _refuse_non_faces(*values: object) -> None:
    """Refuse the first value that is not a :class:`Face`, such as a bare label.

    A label string never equals its face, so a lookup by label would miss,
    and a message that formats ``face.label`` would fail on it.  Lookups
    call this on their miss path only, so a hit costs nothing.
    """
    for v in values:
        if not isinstance(v, Face):
            raise TypeError(f"a face must be a Face, got {v!r} "
                            "(Space.face(label) gives the face of a label)")


@dataclass(frozen=True)
class Space:
    """The combinatorial shadow of a manifold with corners: its named faces."""

    faces: tuple[Face, ...]

    def __post_init__(self) -> None:
        if not self.faces:
            raise ValueError("a space needs at least one face")
        _refuse_non_faces(*self.faces)
        index = {f: i for i, f in enumerate(self.faces)}
        if len(index) != len(self.faces):
            raise ValueError(f"duplicate face labels in {[f.label for f in self.faces]}")
        # each face's position: the membership test and the order of a family's entries
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, *labels: str) -> "Space":
        return cls(tuple(Face(lbl) for lbl in labels))

    @cached_property
    def _by_label(self) -> dict[str, Face]:
        return {f.label: f for f in self.faces}

    def face(self, label: str) -> Face:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"no face labelled {label!r}") from None

    def __eq__(self, other: object) -> bool:
        # every pipeline compares a space with itself, so identity answers first
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.faces == other.faces

    def __contains__(self, face: Face) -> bool:
        return face in self._index


# ---------------------------------------------------------------------------
# Index sets
# ---------------------------------------------------------------------------


class _Term(NamedTuple):
    z: Fraction
    k: int


class IndexTerm(_Term):
    """One generator ``(z, k)``: exponent z, log power k.

    A named tuple, so a term equals, hashes and sorts as its ``(z, k)``
    tuple, in C.  The constructor refuses a float or a bool exponent and a
    log power that is not a natural ``int``; the operations below build the
    terms of their results with ``_new_term``, from parts already checked.
    """

    __slots__ = ()

    def __new__(cls, z: RationalLike, k: int) -> "IndexTerm":
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError(f"log power must be an int, got {k!r}")
        if k < 0:
            raise ValueError("log power must be a natural number")
        return _new_term(cls, (_frac(z), k))


# ``_new_term(IndexTerm, (z, k))`` is the term of an exact z and a natural k, unchecked
_new_term = tuple.__new__


@dataclass(frozen=True)
class IndexSet:
    """A polyhomogeneous index set, kept in canonical generator form.

    Membership: ``(z, k)`` belongs to the set iff some generator ``(z0, k0)``
    has ``z - z0`` a natural number and ``k <= k0``.  Canonical form sorts
    generators lexicographically and prunes any generator dominated by
    another, so structural equality is semantic equality.  The constructor
    takes :class:`IndexTerm` generators only, and canonicalises them.
    """

    generators: tuple[IndexTerm, ...] = ()

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        for t in gens:
            if not isinstance(t, IndexTerm):
                raise TypeError(f"a generator must be an IndexTerm, got {t!r}")
        object.__setattr__(self, "generators", _canonical(gens))

    @classmethod
    def _from_canonical(cls, generators: tuple[IndexTerm, ...]) -> "IndexSet":
        """The set of generators already in canonical form, taken as they are."""
        E = object.__new__(cls)
        E.__dict__["generators"] = generators
        return E

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[RationalLike, int]]) -> "IndexSet":
        return cls(tuple(IndexTerm(z, k) for z, k in terms))

    @classmethod
    def empty(cls) -> "IndexSet":
        return _EMPTY

    @classmethod
    def naturals(cls) -> "IndexSet":
        """The smooth index set 0 = {(n, 0) : n natural}."""
        return _NATURALS

    @classmethod
    def shifted(cls, z: RationalLike) -> "IndexSet":
        """The set z + naturals: its one generator is canonical as it stands."""
        return cls._from_canonical((_new_term(IndexTerm, (_frac(z), 0)),))

    @property
    def is_empty(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        if self.is_empty:
            return "IndexSet(empty)"
        inner = ", ".join(f"({t.z},{t.k})" for t in self.generators)
        return f"IndexSet[{inner}]"


def _canonical(gens: tuple[IndexTerm, ...]) -> tuple[IndexTerm, ...]:
    """The canonical generators of the set that ``gens`` generate.

    Over the common denominator d of the generators, the term (z, k) has
    the exact integer key (z*d, -k), and its class of z mod 1 is z*d mod d:
    only terms in one class can dominate each other.  Walking each class by
    z ascending (k descending on ties), a term survives iff its k beats
    every k seen before it in its class.  At most one term per z survives,
    so the kept terms are already in (z, k) order, and an exact duplicate
    falls with the rest.
    """
    if len(gens) < 2:  # already canonical
        return gens
    d = math.lcm(*(z._denominator for z, _ in gens))
    best: dict[int, int] = {}
    kept = []
    for n, negk, i in sorted(
        (z._numerator * (d // z._denominator), -k, i) for i, (z, k) in enumerate(gens)
    ):
        cls = n % d
        if -negk > best.get(cls, -1):
            best[cls] = -negk
            kept.append(gens[i])
    return tuple(kept)


_EMPTY = IndexSet(())
_NATURALS = IndexSet((IndexTerm(0, 0),))


def _is_naturals(E: IndexSet) -> bool:
    """Whether E is the smooth set 0 + N, however it was built (``shifted(0)`` too).

    Its canonical form has the one generator (0, 0); reading the reduced
    numerator skips ``Fraction``'s general equality.
    """
    gens = E.generators
    return len(gens) == 1 and gens[0].k == 0 and gens[0].z._numerator == 0


def member(E: IndexSet, z: RationalLike, k: int) -> bool:
    """Whether (z, k) lies in the closure of E's generators."""
    zq = _frac(z)
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"log power must be an int, got {k!r}")
    if k < 0:
        return False
    # z - z0 is a natural number iff z and z0 are in one class mod 1 and z's
    # numerator, over their shared denominator, is not the smaller
    n, cls = zq._numerator, _unit_class(zq)
    for g in E.generators:  # read k first, and z only where k passes
        if k <= g.k:
            z0 = g.z
            if n >= z0._numerator and _unit_class(z0) == cls:
                return True
    return False


def inf_order(E: IndexSet):
    """Minimal exponent of E, or +inf for the empty set."""
    gens = E.generators
    if not gens:
        return math.inf
    return gens[0].z  # canonical generators ascend in z


def sum_sets(E: IndexSet, F: IndexSet) -> IndexSet:
    """Minkowski sum of exponents with additive log powers; empty absorbs, 0 is neutral.

    A sum of two one-generator sets is its one term.  A larger sum keys each
    candidate (z + w, k + l) as ``_canonical`` does, by the exact integers
    ((z + w)*d, -(k + l)) over the common denominator d of both operands,
    prunes on those keys by ``_canonical``'s rule, and forms z + w as the
    reduced ``Fraction`` n/d only for the keys n it keeps.
    """
    eg, fg = E.generators, F.generators
    if not eg or not fg:
        return _EMPTY
    if _is_naturals(E):
        return F
    if _is_naturals(F):
        return E
    if len(eg) == 1 and len(fg) == 1:
        a, b = eg[0], fg[0]
        return IndexSet._from_canonical((_new_term(IndexTerm, (_add(a.z, b.z), a.k + b.k)),))
    d = math.lcm(*(z._denominator for z, _ in eg), *(z._denominator for z, _ in fg))
    ekeys = [(z._numerator * (d // z._denominator), -k) for z, k in eg]
    fkeys = [(z._numerator * (d // z._denominator), -k) for z, k in fg]
    best: dict[int, int] = {}  # per class z*d mod d, the least -k kept so far
    kept = []
    for n, negk in sorted([(a + b, p + q) for a, p in ekeys for b, q in fkeys]):
        cls = n % d
        if negk < best.get(cls, 1):
            best[cls] = negk
            kept.append(_new_term(IndexTerm, (_reduced(n, d), -negk)))
    return IndexSet._from_canonical(tuple(kept))


def scale_set(q: RationalLike, E: IndexSet) -> IndexSet:
    """Multiply exponents by q > 0, keeping log powers and the +1 shift closure."""
    qf = _frac(q)
    if qf._numerator <= 0:
        raise ValueError(f"scale factor must be positive, got {qf}")
    if qf._numerator == qf._denominator:  # q == 1
        return E
    return IndexSet._from_canonical(_canonical(tuple(
        _new_term(IndexTerm, (_mul(qf, z), k)) for z, k in E.generators
    )))


def shift_set(E: IndexSet, d: RationalLike) -> IndexSet:
    """Add d to every exponent (the effect of a density factor rho^d).

    A shift keeps the order of the exponents and every difference between
    them, so the shifted canonical generators are canonical as they stand.
    """
    if type(d) is int:
        if d == 0:
            return E
        add = _add_int
    else:
        d = _frac(d)
        if d._numerator == 0:
            return E
        add = _add
    return IndexSet._from_canonical(tuple(
        _new_term(IndexTerm, (add(z, d), k)) for z, k in E.generators
    ))


def extended_union(E: IndexSet, F: IndexSet) -> IndexSet:
    """E union F plus log-bumped overlap terms.

    On generators: whenever generators (z, k) of E and (w, l) of F have
    z - w an integer, the term (max(z, w), k + l + 1) is added.  The empty
    set is neutral.
    """
    eg, fg = E.generators, F.generators
    if not eg:
        return F
    if not fg:
        return E
    if len(eg) == 1 and len(fg) == 1:
        return IndexSet._from_canonical(_union_of_two(eg[0], fg[0]))
    # z - w is an integer iff z and w are in one class mod 1
    by_class: dict[tuple[int, int], list[IndexTerm]] = {}
    for t in fg:
        by_class.setdefault(_unit_class(t.z), []).append(t)
    extra = tuple(
        _new_term(IndexTerm, (z if z._numerator >= w._numerator else w, k + l + 1))
        for z, k in eg for w, l in by_class.get(_unit_class(z), ())
    )
    return IndexSet._from_canonical(_canonical(eg + fg + extra))


def _union_of_two(a: IndexTerm, b: IndexTerm) -> tuple[IndexTerm, ...]:
    """The canonical generators of ``extended_union`` of the sets {a} and {b}.

    Where z - w is an integer, the bumped term (max(z, w), k + l + 1)
    dominates the generator at the larger exponent, and at z = w the other
    one too; otherwise the two generators stand, in order.  Every test is
    on reduced numerators and denominators, with no ``Fraction`` arithmetic.
    """
    z, w = a.z, b.z
    n, q, m, r = z._numerator, z._denominator, w._numerator, w._denominator
    if _unit_class(z) == _unit_class(w):
        bumped = a.k + b.k + 1
        if n == m:
            return (_new_term(IndexTerm, (z, bumped)),)
        return (b, _new_term(IndexTerm, (z, bumped))) if n > m else \
            (a, _new_term(IndexTerm, (w, bumped)))
    return (a, b) if n * r < m * q else (b, a)


# ---------------------------------------------------------------------------
# Index families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexFamily:
    """An index set per face of a space; absent faces mean the empty set.

    ``entries`` holds the nonempty sets only, in the space's face order, and
    every family carries its face -> set lookup from construction on.  The
    constructor checks and sorts what it is given (each face must be on the
    space, once, with an :class:`IndexSet` value); the operations below whose
    result is canonical by construction build it with ``_from_canonical``.
    """

    space: Space
    entries: tuple[tuple[Face, IndexSet], ...] = ()

    def __post_init__(self) -> None:
        index = self.space._index
        seen: dict[Face, IndexSet] = {}
        for face, E in self.entries:
            if face not in index:
                _refuse_non_faces(face)
                raise SpaceMismatchError(f"face {face.label!r} not in the family's space")
            if face in seen:
                raise ValueError(f"duplicate entry for face {face.label!r}")
            if not isinstance(E, IndexSet):
                raise TypeError(f"the value for face {face.label!r} must be an IndexSet, "
                                f"got {E!r}")
            seen[face] = E
        canon = tuple(sorted(((f, E) for f, E in seen.items() if E.generators),
                             key=lambda entry: index[entry[0]]))
        object.__setattr__(self, "entries", canon)
        object.__setattr__(self, "_by_face", dict(canon))

    @classmethod
    def _from_canonical(cls, space: Space,
                        entries: tuple[tuple[Face, IndexSet], ...]) -> "IndexFamily":
        """The family of nonempty entries already in face order, taken as they are."""
        fam = object.__new__(cls)
        fam.__dict__.update(space=space, entries=entries, _by_face=dict(entries))
        return fam

    @classmethod
    def on(cls, space: Space, sets: Mapping[str, IndexSet]) -> "IndexFamily":
        return cls(space, tuple((space.face(lbl), E) for lbl, E in sets.items()))

    def get(self, face: Face) -> IndexSet:
        E = self._by_face.get(face)
        if E is not None:
            return E
        if face not in self.space._index:
            _refuse_non_faces(face)
            raise SpaceMismatchError(f"face {face.label!r} not in the family's space")
        return _EMPTY

    def shifted(self, exponents: Mapping[str, int]) -> "IndexFamily":
        """Shift each face's nonempty set by the given density exponent."""
        return IndexFamily._from_canonical(self.space, tuple(
            (f, shift_set(E, exponents.get(f.label, 0))) for f, E in self.entries
        ))


def product_family(A: IndexFamily, B: IndexFamily) -> IndexFamily:
    """The face-wise sum of two families on one space: the index family of a product.

    The empty set absorbs, so only the faces where both families carry a
    set are visited.
    """
    if A.space != B.space:
        raise SpaceMismatchError("the two families live on different spaces")
    by_face = B._by_face
    return IndexFamily._from_canonical(A.space, tuple(
        (f, sum_sets(E, by_face[f])) for f, E in A.entries if f in by_face
    ))


# ---------------------------------------------------------------------------
# b-maps as exponent matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BMap:
    """An interior b-map recorded combinatorially.

    ``e[(G, H)]`` is the exponent of the source face G in the pull-back of
    the defining function of the target face H; a map is interior by
    construction, so no target defining function pulls back to zero.
    Whether the map is a b-submersion cannot be read off the matrix, so it
    is a declared witness.
    """

    source: Space
    target: Space
    e: tuple[tuple[tuple[Face, Face], int], ...]
    submersion_witness: bool = True

    # a constant, not a field: every map is interior by construction; kept so
    # that code testing a map's interiority (the benchmark's b-map oracle) can
    interior = True

    def __post_init__(self) -> None:
        for (G, H), val in self.e:
            if G not in self.source or H not in self.target:
                _refuse_non_faces(G, H)
                raise SpaceMismatchError(f"entry ({G.label},{H.label}) off the spaces")
            if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                raise ValueError("exponents must be natural numbers")
        if len({pair for pair, _ in self.e}) != len(self.e):
            raise ValueError("an entry (G, H) is given more than once")
        canon = tuple(
            sorted((((G, H), v) for (G, H), v in self.e if v > 0))
        )
        object.__setattr__(self, "e", canon)

    @classmethod
    def _from_canonical(cls, source: Space, target: Space,
                        e: tuple[tuple[tuple[Face, Face], int], ...],
                        submersion_witness: bool) -> "BMap":
        """The map of sorted, distinct, positive entries on the spaces, taken as they are."""
        bm = object.__new__(cls)
        object.__setattr__(bm, "source", source)
        object.__setattr__(bm, "target", target)
        object.__setattr__(bm, "e", e)
        object.__setattr__(bm, "submersion_witness", submersion_witness)
        return bm

    @classmethod
    def build(
        cls,
        source: Space,
        target: Space,
        rows: Mapping[str, Mapping[str, int]],
        submersion_witness: bool = True,
    ) -> "BMap":
        entries = tuple(
            ((source.face(g), target.face(h)), v)
            for g, row in rows.items()
            for h, v in row.items()
        )
        return cls(source, target, entries, submersion_witness)

    @cached_property
    def _rows(self) -> dict[Face, dict[Face, int]]:
        """G -> {H: e(G, H)} over the nonzero entries, in the order of ``e``."""
        rows: dict[Face, dict[Face, int]] = {}
        for (G, H), v in self.e:
            rows.setdefault(G, {})[H] = v
        return rows

    @cached_property
    def _columns(self) -> dict[Face, dict[Face, int]]:
        """H -> {G: e(G, H)} over the nonzero entries, in the order of ``e``."""
        cols: dict[Face, dict[Face, int]] = {}
        for (G, H), v in self.e:
            cols.setdefault(H, {})[G] = v
        return cols

    @cached_property
    def _pull_plan(self) -> tuple[tuple[Face, Face | None, tuple[tuple[Face, int], ...]], ...]:
        """Each source face G in face order, with its row as a tuple of (H, e(G, H)).

        The middle slot is H where the row is the one entry e(G, H) = 1, so
        that G pulls back H's set as it is; it is None for any other row.
        """
        rows = self._rows
        plan = []
        for G in self.source.faces:
            row = tuple(rows.get(G, {}).items())
            unit = row[0][0] if len(row) == 1 and row[0][1] == 1 else None
            plan.append((G, unit, row))
        return tuple(plan)

    @cached_property
    def _push_plan(self) -> tuple[tuple[tuple[Face, tuple[tuple[Face, Fraction | None], ...]], ...],
                                  tuple[Face, ...]]:
        """Each target face H with a nonzero column, in face order, with that
        column as a tuple of (G, 1/e(G, H)), None where e(G, H) = 1; and the
        source faces of all-zero rows, which map to the interior."""
        cols = self._columns
        columns = tuple(
            (H, tuple((G, None if e == 1 else Fraction(1, e)) for G, e in cols[H].items()))
            for H in self.target.faces if H in cols
        )
        return columns, tuple(G for G in self.source.faces if G not in self._rows)

    @cached_property
    def _b_normal(self) -> bool:
        return all(len(row) <= 1 for row in self._rows.values())

    def exponent(self, G: Face, H: Face) -> int:
        row = self._rows.get(G)
        if row is not None:
            v = row.get(H)
            if v is not None:
                return v
        _refuse_non_faces(G, H)
        return 0

    def row(self, G: Face) -> dict[Face, int]:
        row = self._rows.get(G)
        if row is None:
            _refuse_non_faces(G)
            return {}
        return dict(row)

    def column(self, H: Face) -> dict[Face, int]:
        col = self._columns.get(H)
        if col is None:
            _refuse_non_faces(H)
            return {}
        return dict(col)


def is_b_normal(f: BMap) -> bool:
    """Each source face meets at most one target defining function."""
    return f._b_normal


def is_b_fibration(f: BMap) -> bool:
    return is_b_normal(f) and f.submersion_witness


def compose_bmaps(f: BMap, g: BMap) -> BMap:
    """The b-map of g after f; exponent matrices multiply.

    Each row of f accumulates into one dense integer row over the positions
    of g's target faces, reading g's rows as (position, exponent) pairs,
    and is read out in label order.  Every entry is a sum of products of
    positive integers, and f's rows ascend in their source face, so the
    entries come out as the composite's canonical ones and skip the
    ``BMap`` checks.
    """
    if f.target != g.source:
        raise SpaceMismatchError("intermediate spaces do not match")
    faces = g.target.faces
    position = g.target._index
    g_rows = {H: tuple((position[K], w) for K, w in row.items())
              for H, row in g._rows.items()}
    label_order = sorted(range(len(faces)), key=faces.__getitem__)
    entries = []
    for G, frow in f._rows.items():
        acc = [0] * len(faces)
        for H, v in frow.items():
            for k, w in g_rows.get(H, ()):
                acc[k] += v * w
        entries += [((G, faces[k]), acc[k]) for k in label_order if acc[k]]
    return BMap._from_canonical(f.source, g.target, tuple(entries),
                                f.submersion_witness and g.submersion_witness)


def pullback_family(f: BMap, fam: IndexFamily) -> IndexFamily:
    """Pull an index family on the target back along a b-map.

    The source face G receives the sum over target faces H of
    ``e(G, H) * fam(H)``; an empty sum of terms is the smooth set, while any
    empty summand makes the result empty, so a face stops at its first one.
    A row that is one entry e(G, H) = 1 hands on H's set as it is.
    """
    if fam.space != f.target:
        raise SpaceMismatchError("family lives on the wrong space")
    by_face = fam._by_face
    out = []
    for G, unit, row in f._pull_plan:
        if unit is not None:
            E = by_face.get(unit)
            if E is not None:
                out.append((G, E))
            continue
        acc = None
        for H, exp in row:
            E = by_face.get(H)
            if E is None:
                break
            E = E if exp == 1 else scale_set(exp, E)
            acc = E if acc is None else sum_sets(acc, E)
        else:
            out.append((G, _NATURALS if acc is None else acc))
    return IndexFamily._from_canonical(f.source, tuple(out))


def pushforward_family(f: BMap, fam: IndexFamily) -> IndexFamily:
    """Push an index family on the source forward along a b-fibration.

    The target face H receives the extended union over source faces G with
    ``e(G, H) > 0`` of ``(1 / e(G, H)) * fam(G)``.  Faces with an all-zero
    row map to the interior and must carry positive inf order.
    """
    if not is_b_fibration(f):
        raise NotBFibrationError("push-forward requires a b-fibration")
    if fam.space != f.source:
        raise SpaceMismatchError("family lives on the wrong space")
    columns, interior = f._push_plan
    by_face = fam._by_face
    for G in interior:  # an empty set has inf order +inf
        E = by_face.get(G)
        if E is not None:
            inf_g = inf_order(E)
            if inf_g._numerator <= 0:  # inf > 0 fails
                raise IntegrabilityViolatedError(G, inf_g)
    out = []
    for H, column in columns:
        acc = None
        for G, q in column:
            E = by_face.get(G)
            if E is None:
                continue  # the empty set is neutral
            E = E if q is None else scale_set(q, E)
            acc = E if acc is None else extended_union(acc, E)
        if acc is not None:
            out.append((H, acc))
    return IndexFamily._from_canonical(f.target, tuple(out))


# ---------------------------------------------------------------------------
# Blow-up density bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up with local model [R^n_k ; {0}].

    ``inherits_from`` lists earlier front faces whose defining functions pick
    up a factor of the new face's defining function under the lift (i.e. the
    centre of this blow-up sits inside those faces).
    """

    n: int
    k: int
    new_face: Face
    inherits_from: frozenset[Face] = frozenset()

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        _refuse_non_faces(self.new_face, *self.inherits_from)
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n in the local model")


def density_lift_exponent(step: BlowupStep) -> int:
    """Power of the new front face's defining function on a lifted b-density."""
    return step.n - step.k


def chained_density_exponents(steps: Sequence[BlowupStep]) -> dict[Face, int]:
    """Accumulated b-density exponents along an iterated blow-up.

    Each new face starts with its own n - k and additionally absorbs the
    already-accumulated exponent of every face it inherits from.  A face
    that two steps create is refused.
    """
    acc: dict[Face, int] = {}
    for step in steps:
        if step.new_face in acc:
            raise ValueError(f"face {step.new_face.label!r} is created by two steps")
        extra = 0
        for owner in sorted(step.inherits_from):
            if owner not in acc:
                raise DanglingInheritanceError(
                    f"step {step.new_face.label!r} inherits from unknown face {owner.label!r}"
                )
            extra += acc[owner]
        acc[step.new_face] = density_lift_exponent(step) + extra
    return acc

