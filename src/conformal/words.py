"""Generator symbols, signatures, normal words, and the weight-lex word order.

A normal word is a right-normed product  b1(n1) b2(n2) ... bk(nk) D^i b(k+1)
with every junction index nj strictly below the locality bound N of the
signature.  The derivation D may sit only on the last letter; its exponent is
the word's ``dpow``.  Words are compared by the lexicographic order of their
weight tuples  (length, b1, n1, ..., bk, nk, b(k+1), dpow),  generators being
compared by the signature's generator order.  Length dominates, so the order
is a well order whenever the generator order is.

Words are the keys of every memo cache and terms dict, so they are made cheap
to hash and compare: generators are interned (one object per name and index,
compared by identity), and a word is one flat tuple of its letters, junction
indices and D power, hashed and compared in C.  The generator table is the
only process-wide state; it grows through ``dict.setdefault``, which is
atomic under the GIL.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Tuple


class ConformalError(Exception):
    """Base class for errors raised by this package."""


class SignatureError(ConformalError):
    """A generator or word does not belong to the signature at hand."""


class GeneratorSymbol:
    """A generator, either a bare name (``a``) or an indexed one (``L_-3``).

    Generators are interned: equal ``(name, index)`` give one object, so
    equality and hashing are by identity.  Each generator keeps its text,
    which words are printed from.
    """

    __slots__ = ("name", "index", "_text")
    _table: dict = {}

    def __new__(cls, name: str, index: Optional[int] = None):
        g = cls._table.get((name, index))
        if g is not None:
            return g
        if not name:
            raise SignatureError("generator name must be nonempty")
        g = object.__new__(cls)
        object.__setattr__(g, "name", name)
        object.__setattr__(g, "index", index)
        object.__setattr__(g, "_text",
                           name if index is None else f"{name}_{index}")
        return cls._table.setdefault((name, index), g)

    def __setattr__(self, attr, value):
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return (GeneratorSymbol, (self.name, self.index))

    def __repr__(self):
        return f"GeneratorSymbol(name={self.name!r}, index={self.index!r})"

    def __str__(self):
        return self._text


def gen(name: str, index: Optional[int] = None) -> GeneratorSymbol:
    return GeneratorSymbol(name, index)


class GeneratorOrder:
    """Strict total order on generators, exposed as a sort key.

    Two kinds are supported:

    * ``listed``: generators are ranked by their position in an explicit list.
    * ``abs_then_signed``: indexed families, ranked first by family name, then
      by ``|index|``, then by ``index`` (so L_2 > L_-2 > L_1 > L_-1 > L_0).
    """

    __slots__ = ("kind", "_rank")

    def __init__(self, kind: str, rank):
        self.kind = kind
        self._rank = rank

    @classmethod
    def listed(cls, gens: Sequence[GeneratorSymbol]) -> "GeneratorOrder":
        """Rank generators by list position, earliest smallest."""
        return cls("listed", rank={g: i for i, g in enumerate(gens)})

    @classmethod
    def abs_then_signed(cls, name_ranking: Sequence[str]) -> "GeneratorOrder":
        """Indexed families; ``name_ranking`` ascending (last name greatest)."""
        return cls("abs_then_signed", rank={n: i for i, n in enumerate(name_ranking)})

    def key(self, g: GeneratorSymbol) -> tuple:
        if self.kind == "listed":
            try:
                return (self._rank[g],)
            except KeyError:
                raise SignatureError(f"generator {g} not in the listed order")
        try:
            fam = self._rank[g.name]
        except KeyError:
            raise SignatureError(f"generator family {g.name!r} not ranked")
        idx = g.index if g.index is not None else 0
        return (fam, abs(idx), idx)


class NormalWord(tuple):
    """An associative normal word b1(n1) ... bk(nk) D^i b(k+1), stored as
    the one flat tuple  (b1, n1, ..., bk, nk, b(k+1), i).

    ``NormalWord(body, tail, dpow=0)`` builds it from the (generator,
    junction index) pairs before the tail letter; the empty body gives
    length-1 words D^i b.  The kernels build words by tuple concatenation
    through ``tuple.__new__(NormalWord, ...)``, which skips that
    constructor.  Dropping the D power gives the word's flat letter slice
    ``w[:-1]``, the form leading words are indexed by, and ``w[2p: 2q-1]``
    is the slice of letters p to q-1.

    A word hashes and compares as its tuple does, so it equals the plain
    tuple with the same items.  That is harmless: a word has even length
    and a flat slice odd length, so no word equals a slice, and nothing
    keys one dict or set by both words and other tuples of even length.
    Its ``<`` is the tuple's, not the word order;
    ``AlgebraSignature.word_key`` gives that.
    """

    __slots__ = ()

    def __new__(cls, body, tail: GeneratorSymbol, dpow: int = 0):
        return tuple.__new__(cls, (*[x for pair in body for x in pair],
                                   tail, dpow))

    tail = property(itemgetter(-2))
    dpow = property(itemgetter(-1))

    @property
    def length(self) -> int:
        return len(self) >> 1

    @property
    def is_dfree(self) -> bool:
        return self[-1] == 0

    def letters(self) -> Tuple[GeneratorSymbol, ...]:
        return self[:-1:2]

    def junctions(self) -> Tuple[int, ...]:
        return self[1:-2:2]

    def __reduce__(self):
        return NormalWord, (tuple(zip(self[:-2:2], self[1:-2:2])),
                            self[-2], self[-1])

    # structural edits -----------------------------------------------------

    def append_D(self, l: int) -> "NormalWord":
        if l == 0:
            return self
        return tuple.__new__(NormalWord, self[:-1] + (self[-1] + l,))

    def prepend(self, g: GeneratorSymbol, n: int) -> "NormalWord":
        return tuple.__new__(NormalWord, (g, n) + self)

    def prefix_to(self, p: int) -> Optional["NormalWord"]:
        """D-free word made of the first ``p`` letters, or None when p == 0."""
        if p == 0:
            return None
        return tuple.__new__(NormalWord, self[:2 * p - 1] + (0,))

    def suffix_from(self, p: int) -> "NormalWord":
        """Word made of the letters from position ``p`` on, keeping dpow."""
        return tuple.__new__(NormalWord, self[2 * p:])

    def __str__(self):
        d = self[-1]
        head = "".join([f"{self[j]._text} ({self[j + 1]}) "
                        for j in range(0, len(self) - 2, 2)])
        if d:
            head += "D " if d == 1 else f"D^{d} "
        return head + self[-2]._text


def make_word(sig: "AlgebraSignature", *items, dpow: int = 0) -> NormalWord:
    """Build and validate a normal word from alternating gens and indices.

    ``make_word(sig, a, 1, a)`` is a(1)a; ``make_word(sig, b, dpow=2)`` is D^2 b.
    """
    if len(items) % 2 == 0:
        raise ValueError("expected an odd number of items: g0, n0, g1, ..., g_last")
    w = tuple.__new__(NormalWord, items + (dpow,))
    sig.check_word(w)
    return w


class AlgebraSignature:
    """Generators plus the uniform locality bound N and the generator order.

    Generators are either a finite explicit tuple or a set of indexed
    families over all integers.  The signature also owns three memo caches:
    ``_wkey_cache`` maps a word to its ``word_key``; ``_gm_cache`` maps
    ``(g, n, v)`` to the normalized ``g (n) [v]`` of ``algebra._gen_mult``,
    only for n >= N and only when it is not zero (a product with n < N is
    the word (g, n) ++ v, and one at or past the locality bound is zero);
    ``_plan_cache`` maps a left word with junctions to the offset plan of
    ``algebra._word_mult``.
    """

    __slots__ = ("N", "order", "generators", "families",
                 "_wkey_cache", "_gm_cache", "_plan_cache")

    def __init__(self, N: int, order: GeneratorOrder,
                 generators: Optional[Tuple[GeneratorSymbol, ...]] = None,
                 families: Optional[Tuple[str, ...]] = None):
        if N < 1:
            raise SignatureError("locality bound N must be >= 1")
        if (generators is None) == (families is None):
            raise SignatureError("exactly one of generators/families required")
        self.N = N
        self.order = order
        self.generators = generators
        self.families = families
        self._wkey_cache = {}
        self._gm_cache = {}
        self._plan_cache = {}

    @classmethod
    def finite(cls, names: Iterable, N: int) -> "AlgebraSignature":
        gens = tuple(g if isinstance(g, GeneratorSymbol) else GeneratorSymbol(g)
                     for g in names)
        if len(set(gens)) != len(gens):
            raise SignatureError("duplicate generators")
        return cls(N, GeneratorOrder.listed(gens), generators=gens)

    @classmethod
    def indexed(cls, family_names: Sequence[str], N: int,
                ranking: Optional[Sequence[str]] = None) -> "AlgebraSignature":
        """Families over all integer indices; ``ranking`` ascending."""
        fams = tuple(family_names)
        rank = tuple(ranking) if ranking is not None else fams
        if len(set(rank)) != len(rank) or set(rank) != set(fams):
            raise SignatureError("ranking must mention every family exactly once")
        return cls(N, GeneratorOrder.abs_then_signed(rank), families=fams)

    def contains(self, g: GeneratorSymbol) -> bool:
        if self.generators is not None:
            return g in self.generators
        return g.name in self.families and g.index is not None

    def check_gen(self, g: GeneratorSymbol) -> None:
        if not self.contains(g):
            raise SignatureError(f"generator {g} does not belong to this signature")

    def check_word(self, w: NormalWord) -> None:
        N = self.N
        for g, n in zip(w[:-2:2], w[1:-2:2]):
            self.check_gen(g)
            if not 0 <= n < N:
                raise SignatureError(f"junction index {n} out of range [0, {N})")
        self.check_gen(w.tail)
        if w.dpow < 0:
            raise SignatureError("negative D power")

    def gen_key(self, g: GeneratorSymbol) -> tuple:
        self.check_gen(g)
        return self.order.key(g)

    def word_key(self, w: NormalWord) -> tuple:
        """Weight tuple used for the lexicographic comparison of words."""
        key = self._wkey_cache.get(w)
        if key is None:
            parts = [len(w) >> 1, *w]
            parts[1:-1:2] = map(self.gen_key, w[:-1:2])
            key = tuple(parts)
            self._wkey_cache[w] = key
        return key

    def family_generators(self, radius: int) -> Tuple[GeneratorSymbol, ...]:
        """The finite generator slice used by windowed enumerations."""
        if self.generators is not None:
            return self.generators
        gens = [GeneratorSymbol(name, i)
                for name in self.families
                for i in range(-radius, radius + 1)]
        gens.sort(key=self.gen_key)
        return tuple(gens)


def compare_words(sig: AlgebraSignature, u: NormalWord, v: NormalWord) -> int:
    """-1, 0, or 1 as u is below, equal to, or above v in the word order."""
    ku, kv = sig.word_key(u), sig.word_key(v)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0
