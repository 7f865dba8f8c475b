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
compared by identity), word bodies are built from pairs that each generator
shares out, and a word computes its hash once and keeps it.  The generator
table and the per-generator pair tables are the only process-wide state;
both grow through ``dict.setdefault``, which is atomic under the GIL.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Optional, Sequence, Tuple


class ConformalError(Exception):
    """Base class for errors raised by this package."""


class SignatureError(ConformalError):
    """A generator or word does not belong to the signature at hand."""


class GeneratorSymbol:
    """A generator, either a bare name (``a``) or an indexed one (``L_-3``).

    Generators are interned: equal ``(name, index)`` give one object, so
    equality and hashing are by identity.  Each generator also hands out the
    shared ``(self, n)`` pairs that word bodies are made of.
    """

    __slots__ = ("name", "index", "_pairs")
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
        object.__setattr__(g, "_pairs", {})
        return cls._table.setdefault((name, index), g)

    def __setattr__(self, attr, value):
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return (GeneratorSymbol, (self.name, self.index))

    def pair(self, n: int) -> Tuple["GeneratorSymbol", int]:
        """The shared body pair ``(self, n)``; a negative ``n`` is not kept."""
        p = self._pairs.get(n)
        if p is None:
            if n < 0:
                return (self, n)
            p = self._pairs.setdefault(n, (self, n))
        return p

    def __repr__(self):
        return f"GeneratorSymbol(name={self.name!r}, index={self.index!r})"

    def __str__(self):
        if self.index is None:
            return self.name
        return f"{self.name}_{self.index}"


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


@dataclass(frozen=True, slots=True)
class NormalWord:
    """An associative normal word.

    ``body`` holds the (generator, junction index) pairs before the tail
    letter, ``tail`` is the last generator, and ``dpow`` the D power on it.
    The empty body gives length-1 words D^i b.  The hash is computed on first
    use and kept in ``_hash``, which equality, repr and pickling ignore.
    """

    body: Tuple[Tuple[GeneratorSymbol, int], ...]
    tail: GeneratorSymbol
    dpow: int = 0
    _hash: Optional[int] = field(default=None, init=False, repr=False,
                                 compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.body, self.tail, self.dpow))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not NormalWord:
            return NotImplemented
        h, k = self._hash, other._hash
        return ((h is None or k is None or h == k) and self.tail is other.tail
                and self.dpow == other.dpow and self.body == other.body)

    def __reduce__(self):
        return (NormalWord, (self.body, self.tail, self.dpow))

    @property
    def length(self) -> int:
        return len(self.body) + 1

    @property
    def is_dfree(self) -> bool:
        return self.dpow == 0

    def letters(self) -> Tuple[GeneratorSymbol, ...]:
        return tuple(g for g, _ in self.body) + (self.tail,)

    def junctions(self) -> Tuple[int, ...]:
        return tuple(n for _, n in self.body)

    def flat(self) -> tuple:
        """Alternating (g0, n0, g1, n1, ..., g_last) tuple, dpow excluded."""
        out = []
        for g, n in self.body:
            out.append(g)
            out.append(n)
        out.append(self.tail)
        return tuple(out)

    # structural edits -----------------------------------------------------

    def append_D(self, l: int) -> "NormalWord":
        if l == 0:
            return self
        return NormalWord(self.body, self.tail, self.dpow + l)

    def prepend(self, g: GeneratorSymbol, n: int) -> "NormalWord":
        return NormalWord((g.pair(n),) + self.body, self.tail, self.dpow)

    def prefix_to(self, p: int) -> Optional["NormalWord"]:
        """D-free word made of the first ``p`` letters, or None when p == 0."""
        if p == 0:
            return None
        body = self.body
        tail = body[p - 1][0] if p <= len(body) else self.tail
        return NormalWord(body[:p - 1], tail, 0)

    def suffix_from(self, p: int) -> "NormalWord":
        """Word made of the letters from position ``p`` on, keeping dpow."""
        return NormalWord(self.body[p:], self.tail, self.dpow)

    def __str__(self):
        parts = []
        for g, n in self.body:
            parts.append(str(g))
            parts.append(f"({n})")
        if self.dpow == 1:
            parts.append("D")
        elif self.dpow > 1:
            parts.append(f"D^{self.dpow}")
        parts.append(str(self.tail))
        return " ".join(parts)


def make_word(sig: "AlgebraSignature", *items, dpow: int = 0) -> NormalWord:
    """Build and validate a normal word from alternating gens and indices.

    ``make_word(sig, a, 1, a)`` is a(1)a; ``make_word(sig, b, dpow=2)`` is D^2 b.
    """
    if len(items) % 2 == 0:
        raise ValueError("expected an odd number of items: g0, n0, g1, ..., g_last")
    body = tuple((items[i], items[i + 1]) for i in range(0, len(items) - 1, 2))
    w = NormalWord(body, items[-1], dpow)
    sig.check_word(w)
    return NormalWord(tuple(g.pair(n) for g, n in body), w.tail, dpow)


class AlgebraSignature:
    """Generators plus the uniform locality bound N and the generator order.

    Generators are either a finite explicit tuple or a set of indexed
    families over all integers.  The signature also owns the memo caches used
    by the normalization engine.
    """

    __slots__ = ("N", "order", "generators", "families",
                 "_wkey_cache", "_gm_cache", "_wd_cache")

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
        self._wd_cache = {}

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
        for g, n in w.body:
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
            parts = [len(w.body) + 1]
            for g, n in w.body:
                parts.append(self.gen_key(g))
                parts.append(n)
            parts.append(self.gen_key(w.tail))
            parts.append(w.dpow)
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
