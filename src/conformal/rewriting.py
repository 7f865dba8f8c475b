"""Relation sets, normal S-word patterns, and the division algorithm.

Everything here rests on one notion, an occurrence of a leading word s
inside a normal word w.  ``slices`` walks the letter slices of w, leftmost
first and then shortest first, each as its flat letter-and-junction tuple
(the form leads are indexed by) and whether letters follow it.  A lead with
that flat tuple occurs there when ``dpow_fits``, the one D-power rule,
holds: an interior slice takes a D-free lead, the suffix slice a lead with
at most w's D power.  ``Pattern.at`` records the occurrence.  Kind 1 is an
interior occurrence  a(n) s (m) c  with nonempty remainder c (the prefix a
and s itself carry no D); kind 2 is a suffix occurrence  a(n) s D^i  where
w carries i more D powers than s.  Evaluating a pattern substitutes the full
relation for its leading word and normalizes; the result's leading word is
exactly the pattern's declared word, with coefficient 1 for monic relations.

Reduction repeatedly eliminates the greatest reducible word, producing a
trace whose steps reconstruct the input exactly.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .words import AlgebraSignature, ConformalError, NormalWord
from .algebra import (Coeff, ConformalPolynomial, Terms, _accum, _word_mult,
                      apply_D)


class RelationError(ConformalError):
    """Raised for non-monic relations or malformed patterns."""


def slices(w: NormalWord, lengths: Iterable[int]):
    """The slices of w of the given (ascending) letter lengths, leftmost
    first, then shortest first: (start letter, flat slice, interior)."""
    flat, K = w.flat(), w.length
    for p in range(K):
        for L in lengths:
            if p + L > K:
                break
            yield p, flat[2 * p: 2 * (p + L) - 1], p + L < K


def dpow_fits(s_dpow: int, interior: bool, w_dpow: int) -> bool:
    """Whether a lead with D power s_dpow occurs at a matching slice of a
    word with D power w_dpow: D-free when interior, else at most w_dpow."""
    return s_dpow == 0 if interior else s_dpow <= w_dpow


class Relation:
    """A monic relation together with its precomputed leading data."""

    __slots__ = ("poly", "lead", "lead_flat", "canon", "_eval_cache", "alive")

    def __init__(self, poly: ConformalPolynomial):
        if poly.is_zero():
            raise RelationError("zero polynomial cannot be a relation")
        if not poly.is_monic():
            raise RelationError(
                f"relation must be monic, got leading coefficient "
                f"{poly.leading_coeff()}")
        self.poly = poly
        self.lead = poly.leading()
        self.lead_flat = self.lead.flat()
        self.canon = poly.canonical_key()
        self._eval_cache: dict = {}
        self.alive = True

    def __repr__(self):
        return f"Relation({self.poly!r})"


@dataclass(frozen=True)
class Pattern:
    """An occurrence of a relation's leading word inside a normal word."""

    kind: int                       # 1 (interior) or 2 (suffix)
    relation: Relation
    prefix: Optional[NormalWord]    # D-free, None when empty
    n: Optional[int]                # junction into the occurrence
    m: Optional[int] = None         # kind 1: junction to the remainder
    suffix: Optional[NormalWord] = None   # kind 1: nonempty remainder
    dshift: int = 0                 # kind 2: extra D power

    @classmethod
    def at(cls, rel: Relation, w: NormalWord, p: int) -> "Pattern":
        """The occurrence of rel's lead at letters p, p+1, ... of w."""
        q = p + rel.lead.length
        n = w.body[p - 1][1] if p > 0 else None
        if q < w.length:
            return cls(1, rel, w.prefix_to(p), n, m=w.body[q - 1][1],
                       suffix=w.suffix_from(q))
        return cls(2, rel, w.prefix_to(p), n, dshift=w.dpow - rel.lead.dpow)

    def leading_word(self) -> NormalWord:
        s = self.relation.lead
        if self.kind == 1:
            tail_part = s.body + (s.tail.pair(self.m),) + self.suffix.body
            w = NormalWord(tail_part, self.suffix.tail, self.suffix.dpow)
        else:
            w = s.append_D(self.dshift)
        if self.prefix is not None:
            body = self.prefix.body + (self.prefix.tail.pair(self.n),) + w.body
            w = NormalWord(body, w.tail, w.dpow)
        return w

    def describe(self) -> str:
        head = f"{self.prefix} ({self.n}) " if self.prefix is not None else ""
        if self.kind == 1:
            return (f"[{head}s ({self.m}) {self.suffix}] with "
                    f"s = {self.relation.lead}")
        d = f"D^{self.dshift} " if self.dshift else ""
        return f"[{head}{d}s] with s = {self.relation.lead}"


def eval_pattern(sig: AlgebraSignature, pat: Pattern) -> Terms:
    """Normalized substitution of the relation into the pattern (frozen dict)."""
    rel = pat.relation
    key = (pat.kind, pat.prefix, pat.n, pat.m, pat.suffix, pat.dshift)
    out = rel._eval_cache.get(key)
    if out is not None:
        return out
    if pat.kind == 1:
        if not rel.lead.is_dfree:
            raise RelationError("interior patterns need a D-free leading word")
        inner: Terms = {}
        for u, cu in rel.poly.terms.items():
            _accum(inner, _word_mult(sig, u, pat.m, pat.suffix), cu)
    else:
        inner = apply_D(rel.poly, pat.dshift).terms
    if pat.prefix is not None:
        if not pat.prefix.is_dfree:
            raise RelationError("pattern prefixes must be D-free")
        steps = list(pat.prefix.body) + [(pat.prefix.tail, pat.n)]
        for g, idx in reversed(steps):
            inner = {w.prepend(g, idx): c for w, c in inner.items()}
    rel._eval_cache[key] = inner
    return inner


class RelationSet:
    """An indexed set of monic relations supporting occurrence search.

    One index maps the flat letter-and-junction word of each leading word
    to its relations in canonical order (by leading word, then by the whole
    polynomial), which each slice of a searched word looks up under the
    D-power rule; the slice walk order then is the order of the patterns.
    """

    def __init__(self, sig: AlgebraSignature,
                 polys: Iterable[ConformalPolynomial] = (), *,
                 lazy=None):
        self.sig = sig
        self._relations: List[Relation] = []
        self._lead_index: Dict[tuple, List[Relation]] = {}
        self._lens: Dict[int, int] = {}
        self._lens_set = None
        self._canon = set()
        if lazy is not None:
            lazy.check_signature(sig)
        self._lazy = lazy
        self._lazy_tried = set()
        self.materialized = 0
        polys = list(polys)
        for p in polys:
            if p.is_zero():
                raise RelationError("zero polynomial cannot be a relation")
        for p in sorted(polys, key=ConformalPolynomial.canonical_key):
            if p.canonical_key() not in self._canon:
                self.add(p)

    # membership ------------------------------------------------------------

    def relations(self) -> List[Relation]:
        return [r for r in self._relations if r.alive]

    def polys(self) -> List[ConformalPolynomial]:
        return sorted((r.poly for r in self.relations()),
                      key=ConformalPolynomial.canonical_key)

    def __len__(self):
        return sum(1 for r in self._relations if r.alive)

    def add(self, poly: ConformalPolynomial) -> Relation:
        rel = Relation(poly)
        self._relations.append(rel)
        self._canon.add(rel.canon)
        L = rel.lead.length
        if L not in self._lens:
            self._lens_set = None
        self._lens[L] = self._lens.get(L, 0) + 1
        insort(self._lead_index.setdefault(rel.lead_flat, []), rel,
               key=lambda r: r.canon)
        return rel

    def remove(self, rel: Relation) -> None:
        rel.alive = False
        self._canon.discard(rel.canon)
        L = rel.lead.length
        self._lens[L] -= 1
        if self._lens[L] == 0:
            del self._lens[L]
            self._lens_set = None
        rels = self._lead_index[rel.lead_flat]
        rels.remove(rel)
        if not rels:
            del self._lead_index[rel.lead_flat]

    def _materialize(self, sub: tuple) -> None:
        """Instantiate schema relations whose leading word equals ``sub``."""
        if self._lazy is None or sub in self._lazy_tried:
            return
        self._lazy_tried.add(sub)
        letters = sub[0::2]
        juncs = sub[1::2]
        for p in self._lazy.instances_for(self.sig, letters, juncs):
            if p.canonical_key() in self._canon:
                continue
            if p.leading().flat() == sub:
                self.add(p)
                self.materialized += 1

    # pattern search ----------------------------------------------------------

    def _length_set(self):
        lens = self._lens_set
        if lens is None:
            lens = sorted(self._lens)
            if self._lazy is not None:
                lens = sorted(set(lens) | self._lazy.lengths)
            self._lens_set = lens
        return lens

    def _hits(self, w: NormalWord, exclude: Optional[Relation]):
        """(start letter, relation) of every occurrence in w, in slice walk
        order and by canonical form within a slice; a slice materializes
        its schema instances before it is looked up."""
        for p, sub, interior in slices(w, self._length_set()):
            if self._lazy is not None:
                self._materialize(sub)
            for rel in self._lead_index.get(sub, ()):
                if rel is not exclude and \
                        dpow_fits(rel.lead.dpow, interior, w.dpow):
                    yield p, rel

    def find_reductions(self, w: NormalWord,
                        exclude: Optional[Relation] = None) -> List[Pattern]:
        """All patterns with leading word w, leftmost first, kind 1 before 2."""
        return [Pattern.at(rel, w, p) for p, rel in self._hits(w, exclude)]

    def find_one(self, w: NormalWord, strategy: str = "leftmost",
                 exclude: Optional[Relation] = None) -> Optional[Pattern]:
        pats = self.find_reductions(w, exclude)
        if not pats:
            return None
        if strategy == "leftmost":
            return pats[0]
        if strategy == "rightmost":
            return pats[-1]
        raise ValueError(f"unknown strategy {strategy!r}")

    def is_irreducible(self, w: NormalWord) -> bool:
        return not self.has_reduction(w)

    def has_reduction(self, w: NormalWord,
                      exclude: Optional[Relation] = None) -> bool:
        return next(self._hits(w, exclude), None) is not None


@dataclass
class TraceStep:
    word: NormalWord
    pattern: Pattern
    coeff: Coeff


@dataclass
class ReductionTrace:
    """Record of one run of the division algorithm."""

    steps: List[TraceStep]
    remainder: ConformalPolynomial

    def reconstruct(self, sig: AlgebraSignature) -> ConformalPolynomial:
        """Sum the eliminated parts back; equals the reduced input exactly."""
        total = dict(self.remainder.terms)
        for st in self.steps:
            _accum(total, eval_pattern(sig, st.pattern), st.coeff)
        return ConformalPolynomial(sig, total, _frozen=True)

    def to_json(self):
        return {
            "steps": [{"word": str(st.word),
                       "pattern": st.pattern.describe(),
                       "coeff": str(st.coeff)}
                      for st in self.steps],
            "remainder": repr(self.remainder),
        }


def reduce_poly(p: ConformalPolynomial, rset: RelationSet, *,
                strategy: str = "leftmost",
                exclude: Optional[Relation] = None) -> ReductionTrace:
    """Divide p by the relation set.

    While the current leading word matches some pattern, the matched
    relation is substituted and subtracted; irreducible leading terms move
    to the remainder.  Terminates because eliminated leading words strictly
    decrease in a well order.
    """
    sig = p.sig
    cur = dict(p.terms)
    remainder: Terms = {}
    steps: List[TraceStep] = []
    wkey = sig.word_key
    while cur:
        w = max(cur, key=wkey)
        pat = rset.find_one(w, strategy, exclude)
        if pat is None:
            remainder[w] = cur.pop(w)
            continue
        c = cur[w]
        ev = eval_pattern(sig, pat)
        _accum(cur, ev, -c)
        if w in cur:
            raise RelationError(
                f"substituting {pat.describe()} did not cancel the leading "
                f"word {w}")
        steps.append(TraceStep(w, pat, c))
    return ReductionTrace(steps, ConformalPolynomial(sig, remainder, _frozen=True))


# irreducible words --------------------------------------------------------


def normal_words(sig: AlgebraSignature, gens, max_length: int, max_dpow: int):
    """All normal words over the given generators within the bounds."""
    N = sig.N
    def rec(length):
        if length == 1:
            for g in gens:
                for d in range(max_dpow + 1):
                    yield NormalWord((), g, d)
            return
        for g in gens:
            for n in range(N):
                for rest in rec(length - 1):
                    yield rest.prepend(g, n)
    for length in range(1, max_length + 1):
        yield from rec(length)


def irr_enumerate(rset: RelationSet, sig: AlgebraSignature, gens,
                  max_length: int, max_dpow: int) -> List[NormalWord]:
    """Irreducible normal words within the bounds, ascending."""
    out = [w for w in normal_words(sig, gens, max_length, max_dpow)
           if rset.is_irreducible(w)]
    out.sort(key=sig.word_key)
    return out


def kd_basis(rset: RelationSet, sig: AlgebraSignature, gens,
             max_length: int) -> List[NormalWord]:
    """D-free irreducible words; requires every leading word to be D-free."""
    for rel in rset.relations():
        if not rel.lead.is_dfree:
            raise RelationError(
                f"leading word {rel.lead} carries a D power; the D-free "
                f"irreducible words do not span in that case")
    return irr_enumerate(rset, sig, gens, max_length, 0)
