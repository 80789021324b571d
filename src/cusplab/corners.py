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
rational it is written as.  Where an operation would only rebuild one of its
operands (a sum with the naturals, a union with the empty set, a scale by 1,
a shift by 0) it returns that operand: every set is kept canonical, and a
canonical set re-canonicalises to itself.

The hot paths stay on C-level keys: a :class:`Face` is a named tuple of its
label, so faces hash, compare and sort as tuples; an index set sorts its
generators on exact integer keys over their common denominator; and whether
two exponents differ by an integer is read off their reduced numerators and
denominators, with no ``Fraction`` arithmetic.

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


@dataclass(frozen=True)
class Space:
    """The combinatorial shadow of a manifold with corners: its named faces."""

    faces: tuple[Face, ...]

    def __post_init__(self) -> None:
        if not self.faces:
            raise ValueError("a space needs at least one face")
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

    def __contains__(self, face: Face) -> bool:
        return face in self._index


# ---------------------------------------------------------------------------
# Index sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class IndexTerm:
    """One generator ``(z, k)``: exponent z, log power k."""

    z: Fraction
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"log power must be an int, got {self.k!r}")
        if self.k < 0:
            raise ValueError("log power must be a natural number")
        if not isinstance(self.z, Fraction):
            object.__setattr__(self, "z", _frac(self.z))


def _integer_gap(a: Fraction, b: Fraction) -> int | None:
    """``a - b`` if it is an integer, else None, read off the reduced fractions.

    Two reduced fractions differ by an integer only when their denominators
    agree, so no ``Fraction`` is formed.
    """
    q = a.denominator
    if q != b.denominator:
        return None
    gap, rest = divmod(a.numerator - b.numerator, q)
    return None if rest else gap


@dataclass(frozen=True)
class IndexSet:
    """A polyhomogeneous index set, kept in canonical generator form.

    Membership: ``(z, k)`` belongs to the set iff some generator ``(z0, k0)``
    has ``z - z0`` a natural number and ``k <= k0``.  Canonical form sorts
    generators lexicographically and prunes any generator dominated by
    another, so structural equality is semantic equality.
    """

    generators: tuple[IndexTerm, ...] = ()

    def __post_init__(self) -> None:
        # Over the common denominator d of the generators, the term (z, k)
        # has the exact integer key (z*d, -k), and its class of z mod 1 is
        # z*d mod d: only terms in one class can dominate each other.
        # Walking each class by z ascending (k descending on ties), a term
        # survives iff its k beats every k seen before it in its class.  At
        # most one term per z survives, so the kept terms are already in
        # (z, k) order, and an exact duplicate falls with the rest.
        gens = tuple(self.generators)
        if len(gens) < 2:  # already canonical
            object.__setattr__(self, "generators", gens)
            return
        d = math.lcm(*(t.z.denominator for t in gens))
        best: dict[int, int] = {}
        kept = []
        for n, _, i in sorted(
            (t.z.numerator * (d // t.z.denominator), -t.k, i) for i, t in enumerate(gens)
        ):
            t, cls = gens[i], n % d
            if t.k > best.get(cls, -1):
                best[cls] = t.k
                kept.append(t)
        object.__setattr__(self, "generators", tuple(kept))

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
        """The set z + naturals."""
        return cls.from_terms([(z, 0)])

    @property
    def is_empty(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        if self.is_empty:
            return "IndexSet(empty)"
        inner = ", ".join(f"({t.z},{t.k})" for t in self.generators)
        return f"IndexSet[{inner}]"


_EMPTY = IndexSet(())
_NATURALS = IndexSet((IndexTerm(Fraction(0), 0),))


def member(E: IndexSet, z: RationalLike, k: int) -> bool:
    """Whether (z, k) lies in the closure of E's generators."""
    zq = _frac(z)
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"log power must be an int, got {k!r}")
    if k < 0:
        return False
    for g in E.generators:
        if k <= g.k:
            gap = _integer_gap(zq, g.z)
            if gap is not None and gap >= 0:
                return True
    return False


def inf_order(E: IndexSet):
    """Minimal exponent of E, or +inf for the empty set."""
    if E.is_empty:
        return math.inf
    return min(g.z for g in E.generators)


def sum_sets(E: IndexSet, F: IndexSet) -> IndexSet:
    """Minkowski sum of exponents with additive log powers; empty absorbs, 0 is neutral."""
    if E.is_empty or F.is_empty:
        return _EMPTY
    if E == _NATURALS:
        return F
    if F == _NATURALS:
        return E
    return IndexSet(
        tuple(IndexTerm(a.z + b.z, a.k + b.k) for a in E.generators for b in F.generators)
    )


def scale_set(q: RationalLike, E: IndexSet) -> IndexSet:
    """Multiply exponents by q > 0, keeping log powers and the +1 shift closure."""
    qf = _frac(q)
    if qf <= 0:
        raise ValueError(f"scale factor must be positive, got {qf}")
    if qf == 1:
        return E
    return IndexSet(tuple(IndexTerm(qf * g.z, g.k) for g in E.generators))


def shift_set(E: IndexSet, d: RationalLike) -> IndexSet:
    """Add d to every exponent (the effect of a density factor rho^d)."""
    df = _frac(d)
    if df == 0:
        return E
    return IndexSet(tuple(IndexTerm(g.z + df, g.k) for g in E.generators))


def extended_union(E: IndexSet, F: IndexSet) -> IndexSet:
    """E union F plus log-bumped overlap terms.

    On generators: whenever generators (z, k) of E and (w, l) of F have
    z - w an integer, the term (max(z, w), k + l + 1) is added.  The empty
    set is neutral.
    """
    if E.is_empty:
        return F
    if F.is_empty:
        return E
    extra = []
    for a in E.generators:
        for b in F.generators:
            gap = _integer_gap(a.z, b.z)
            if gap is not None:
                extra.append(IndexTerm(a.z if gap >= 0 else b.z, a.k + b.k + 1))
    return IndexSet(E.generators + F.generators + tuple(extra))


# ---------------------------------------------------------------------------
# Index families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexFamily:
    """An index set per face of a space; absent faces mean the empty set."""

    space: Space
    entries: tuple[tuple[Face, IndexSet], ...] = ()

    def __post_init__(self) -> None:
        index = self.space._index
        seen: dict[Face, IndexSet] = {}
        for face, E in self.entries:
            if face not in index:
                raise SpaceMismatchError(f"face {face.label!r} not in the family's space")
            if face in seen:
                raise ValueError(f"duplicate entry for face {face.label!r}")
            seen[face] = E
        canon = sorted(((f, E) for f, E in seen.items() if E.generators),
                       key=lambda entry: index[entry[0]])
        object.__setattr__(self, "entries", tuple(canon))

    @classmethod
    def on(cls, space: Space, sets: Mapping[str, IndexSet]) -> "IndexFamily":
        return cls(space, tuple((space.face(lbl), E) for lbl, E in sets.items()))

    @cached_property
    def _by_face(self) -> dict[Face, IndexSet]:
        return dict(self.entries)

    def get(self, face: Face) -> IndexSet:
        E = self._by_face.get(face)
        if E is not None:
            return E
        if face not in self.space._index:
            raise SpaceMismatchError(f"face {face.label!r} not in the family's space")
        return _EMPTY

    def shifted(self, exponents: Mapping[str, int]) -> "IndexFamily":
        """Shift each face's nonempty set by the given density exponent."""
        return IndexFamily(self.space, tuple(
            (f, shift_set(E, exponents.get(f.label, 0))) for f, E in self.entries
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

    def exponent(self, G: Face, H: Face) -> int:
        return self._rows.get(G, {}).get(H, 0)

    def row(self, G: Face) -> dict[Face, int]:
        return dict(self._rows.get(G, {}))

    def column(self, H: Face) -> dict[Face, int]:
        return dict(self._columns.get(H, {}))


def is_b_normal(f: BMap) -> bool:
    """Each source face meets at most one target defining function."""
    return all(len(row) <= 1 for row in f._rows.values())


def is_b_fibration(f: BMap) -> bool:
    return is_b_normal(f) and f.submersion_witness


def compose_bmaps(f: BMap, g: BMap) -> BMap:
    """The b-map of g after f; exponent matrices multiply."""
    if f.target != g.source:
        raise SpaceMismatchError("intermediate spaces do not match")
    entries = []
    for G, frow in f._rows.items():
        acc: dict[Face, int] = {}
        for H, v in frow.items():
            for K, w in g._rows.get(H, {}).items():
                acc[K] = acc.get(K, 0) + v * w
        entries.extend(((G, K), val) for K, val in acc.items())
    return BMap(f.source, g.target, tuple(entries),
                f.submersion_witness and g.submersion_witness)


def pullback_family(f: BMap, fam: IndexFamily) -> IndexFamily:
    """Pull an index family on the target back along a b-map.

    The source face G receives the sum over target faces H of
    ``e(G, H) * fam(H)``; an empty sum of terms is the smooth set, while any
    empty summand makes the result empty.
    """
    if fam.space != f.target:
        raise SpaceMismatchError("family lives on the wrong space")
    out = []
    for G in f.source.faces:
        acc = _NATURALS
        for H, exp in f._rows.get(G, {}).items():
            E = fam.get(H)
            acc = sum_sets(acc, E if exp == 1 else scale_set(exp, E))
        out.append((G, acc))
    return IndexFamily(f.source, tuple(out))


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
    for G in f.source.faces:
        if G not in f._rows:
            inf_g = inf_order(fam.get(G))
            if not inf_g > 0:
                raise IntegrabilityViolatedError(G, inf_g)
    out = []
    for H in f.target.faces:
        acc = _EMPTY
        for G, exp in f._columns.get(H, {}).items():
            E = fam.get(G)
            acc = extended_union(acc, E if exp == 1 else scale_set(Fraction(1, exp), E))
        out.append((H, acc))
    return IndexFamily(f.target, tuple(out))


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

