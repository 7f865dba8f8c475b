"""Compositions, triviality checks, completion, and reduced bases.

Six composition types are enumerated between monic relations (the ambiguity
word is w; f and g play asymmetric roles, so ordered pairs are scanned):

* inclusion:           w = f̄ = a(n) ḡ (m) c, interior occurrence of ḡ
* right inclusion:     w = f̄ = a(n) ḡ D^i, suffix occurrence, i >= 0
* intersection:        w = f̄(m)c = a(n)ḡ, proper overlap, f̄ carries no D
* right intersection:  w = f̄ D^i = a(n) ḡ, i > 0
* left multiplication:  b(n)f for generators b, N <= n < vanishing bound
* right multiplication: f(n)b when the leading word carries a D (n < N) or
  some monomial does (N <= n < N + max D power)

A composition is trivial when division by the set leaves no remainder.  A
set all of whose compositions are trivial has the irreducible words as a
linear basis of the quotient, making the remainder-zero test exact.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .words import AlgebraSignature, GeneratorSymbol, NormalWord
from .algebra import (ConformalPolynomial, Terms, _word_mult, apply_D,
                      locality_bound)
from .rewriting import (KeptReducts, Pattern, ReductionTrace, Relation,
                        RelationSet, dpow_fits, eval_pattern, reduce_poly,
                        slice_keys, slices)


@dataclass(slots=True, eq=False)
class Composition:
    ctype: str
    f: Relation
    g: Optional[Relation]
    w: Optional[NormalWord]
    gen: Optional[GeneratorSymbol]
    n: Optional[int]
    poly: ConformalPolynomial

    def sort_key(self):
        w = self.w if self.w is not None else self.poly.leading()
        return (self.poly.sig.word_key(w) if w is not None else (),
                self.ctype,
                self.f.canon,
                self.g.canon if self.g is not None else ())

    def describe(self) -> str:
        if self.ctype in ("left_mult", "right_mult"):
            side = f"{self.gen} ({self.n}) f" if self.ctype == "left_mult" \
                else f"f ({self.n}) {self.gen}"
            return f"{self.ctype}: {side}, f = {self.f.lead}"
        return (f"{self.ctype}: w = {self.w}, f = {self.f.lead}, "
                f"g = {self.g.lead}")


def pair_compositions(f: Relation, g: Relation) -> List[Composition]:
    """Inclusion, right-inclusion, intersection, and right-intersection
    compositions of the ordered pair (f, g)."""
    out: List[Composition] = []
    fl, gl = f.lead, g.lead
    Kf, Kg = fl.length, gl.length

    def at(rel: Relation, w: NormalWord, p: int) -> ConformalPolynomial:
        return ConformalPolynomial(f.poly.sig,
                                   eval_pattern(Pattern(rel, w, p)))

    # occurrences of gl in fl: interior ones are inclusions; the suffix one
    # is a right inclusion fl = a(n) gl D^i, or, when gl carries more D
    # powers, a right intersection fl D^i = a(n) gl
    for p, sub, interior in slices(fl, (Kg,)):
        if sub != g.lead_flat:
            continue
        if dpow_fits(gl.dpow, interior, fl.dpow):
            if f is not g:              # every lead is its own suffix
                out.append(Composition(
                    "inclusion" if interior else "right_inclusion", f, g,
                    fl, None, None, f.poly - at(g, fl, p)))
        elif not interior and p > 0:
            i = gl.dpow - fl.dpow
            w = fl.append_D(i)
            out.append(Composition("right_intersection", f, g, w, None, None,
                                   apply_D(f.poly, i) - at(g, w, p)))

    # proper overlap w = fl (m) c = a(n) gl: fl occurs in w as an interior
    # slice, so it must be D-free
    if fl.is_dfree:
        for ell in range(1, min(Kf, Kg)):
            if f.lead_flat[2 * (Kf - ell):] != g.lead_flat[: 2 * ell - 1]:
                continue
            # fl's letters, then gl's from its junction after letter ell-1
            w = tuple.__new__(NormalWord, fl[:-1] + gl[2 * ell - 1:])
            out.append(Composition("intersection", f, g, w, None, None,
                                   at(f, w, 0) - at(g, w, Kf - ell)))
    return out


def mult_compositions(f: Relation,
                      gens: Sequence[GeneratorSymbol]) -> List[Composition]:
    """Left and right multiplication compositions of one relation.

    By locality, b (n) f vanishes from the greatest ``locality_bound(b, u)``
    over f's terms u on, and f (n) b from N plus their greatest D power on.
    Right products below N are taken only when the lead carries a D.
    """
    out: List[Composition] = []
    sig, terms_f = f.poly.sig, f.poly.terms
    N = sig.N
    left_ns = range(N, max(locality_bound(sig, NormalWord((), u.tail, 0), u)
                           for u in terms_f))
    right_ns = range(N if f.lead.dpow == 0 else 0,
                     N + max(u.dpow for u in terms_f))
    for b in gens:
        bw = NormalWord((), b, 0)
        for n in left_ns:
            terms: Terms = {}
            for u, cu in terms_f.items():
                _word_mult(sig, bw, n, u, terms, cu)
            out.append(Composition("left_mult", f, None, None, b, n,
                                   ConformalPolynomial(sig, terms)))
        for n in right_ns:
            terms = {}
            for u, cu in terms_f.items():
                _word_mult(sig, u, n, bw, terms, cu)
            out.append(Composition("right_mult", f, None, None, b, n,
                                   ConformalPolynomial(sig, terms)))
    return out


class CompositionMemo:
    """The compositions of relations already enumerated as sources.

    A relation's multiplication compositions and an ordered pair's
    compositions depend only on the relations (and on the generators,
    which one memo must keep fixed), so ``enumerate_compositions``
    computes a list only when its entry is missing, and stores every list
    it computes, empty ones too.  Entries of retired relations are dropped.

    In ``complete`` a round's sources are all live relations that pass one
    fixed filter, and whether (f, g) is a candidate pair depends only on
    their leads.  So two live relations both enumerated before were
    candidates together in an earlier round, and their pair has an entry.
    """

    def __init__(self):
        self.mult: Dict[Relation, List[Composition]] = {}
        self.pairs: Dict[tuple, List[Composition]] = {}

    def forget_retired(self) -> None:
        self.mult = {f: c for f, c in self.mult.items() if f.alive}
        self.pairs = {fg: c for fg, c in self.pairs.items()
                      if fg[0].alive and fg[1].alive}


def enumerate_compositions(source: Sequence[Relation],
                           gens: Sequence[GeneratorSymbol],
                           memo: Optional[CompositionMemo] = None
                           ) -> List[Composition]:
    """Every composition of the source relations, sorted by ``sort_key``.

    The lists ``memo`` (by default a fresh, empty one) holds are looked
    up, and the missing ones computed and stored.  The sequence
    before the (stable) sort is that of computing everything: each
    source's multiplication compositions, then each ordered pair's, in
    source order.

    Only pairs that can compose are visited.  ``pair_compositions(f, g)``
    finds something only when g's lead flat word is a slice of f's
    (inclusions and right intersections), or when f's lead is D-free and
    a proper prefix of g's lead equals a suffix of f's (intersections).
    Two maps over the sources, lead flat word -> positions and proper lead
    prefix -> positions, give each f these candidates; every other pair
    has no composition, so skipping it leaves the sequence unchanged.
    """
    if memo is None:
        memo = CompositionMemo()
    memo.forget_retired()
    mult, pairs = memo.mult, memo.pairs
    out: List[Composition] = []
    by_lead: Dict[tuple, List[int]] = {}
    by_prefix: Dict[tuple, List[int]] = {}
    for j, f in enumerate(source):
        by_lead.setdefault(f.lead_flat, []).append(j)
        for ell in range(1, f.lead.length):
            by_prefix.setdefault(f.lead_flat[: 2 * ell - 1], []).append(j)
        comps = mult.get(f)
        if comps is None:
            comps = mult[f] = mult_compositions(f, gens)
        out.extend(comps)
    lens = sorted({f.lead.length for f in source})
    for f in source:
        fl, K = f.lead, f.lead.length
        cands = set()
        for _, sub, _ in slices(fl, lens):
            cands.update(by_lead.get(sub, ()))
        if fl.is_dfree:
            for ell in range(1, K):
                cands.update(by_prefix.get(f.lead_flat[2 * (K - ell):], ()))
        for j in sorted(cands):
            g = source[j]
            comps = pairs.get((f, g))
            if comps is None:
                comps = pairs[(f, g)] = pair_compositions(f, g)
            out.extend(comps)
    out.sort(key=Composition.sort_key)
    return out


# verdicts ---------------------------------------------------------------


@dataclass(slots=True)
class CompositionVerdict:
    comp: Composition
    verdict: str                          # "trivial" | "nontrivial" | "inconclusive"
    remainder: ConformalPolynomial
    trace: Optional[ReductionTrace] = None

    def to_json(self, with_trace=False):
        out = {"composition": self.comp.describe(), "verdict": self.verdict}
        if not self.remainder.is_zero():
            out["remainder"] = repr(self.remainder)
        if with_trace and self.trace is not None:
            out["trace"] = self.trace.to_json()
        return out


@dataclass
class GsbReport:
    verdicts: List[CompositionVerdict]   # as ``check_gsb_rset``'s keep
    counts: Dict[str, int]               # compositions by type
    tally: Dict[str, int]                # compositions by verdict
    materialized: int = 0     # instances pulled in beyond the window

    @property
    def verdict(self) -> str:
        """``fail`` on any nontrivial composition, else ``inconclusive`` on
        any inconclusive one, else ``ok``: by the Composition-Diamond lemma
        the set is a basis exactly when every composition is trivial."""
        if self.tally["nontrivial"]:
            return "fail"
        return "inconclusive" if self.tally["inconclusive"] else "ok"

    @property
    def is_gsb(self) -> bool:
        return self.verdict == "ok"

    def to_json(self, with_trace=False):
        return {
            "is_gsb": self.is_gsb,
            "counts": self.counts,
            **self.tally,
            "materialized_instances": self.materialized,
            "compositions": [v.to_json(with_trace) for v in self.verdicts
                             if v.verdict != "trivial" or with_trace],
        }


def is_trivial(comp: Composition, rset: RelationSet,
               reducts: Optional[dict] = None) -> CompositionVerdict:
    """Reduce the composition polynomial; trivial means zero remainder.

    A nonzero remainder is inconclusive when the set's schema index says an
    instance might reduce one of its words (``SchemaIndex.could_reduce``):
    it may lie beyond the indices the lazy lookup tries.  ``reducts`` is
    ``reduce_poly``'s: the same remainder, and only the hits as steps.
    """
    trace = reduce_poly(comp.poly, rset, reducts=reducts)
    rem, lazy = trace.remainder, rset.lazy
    if rem.is_zero():
        verdict = "trivial"
    elif lazy is not None and any(lazy.could_reduce(w) for w in rem.terms):
        verdict = "inconclusive"
    else:
        verdict = "nontrivial"
    return CompositionVerdict(comp, verdict, rem, trace)


def check_gsb_rset(rset: RelationSet, gens: Sequence[GeneratorSymbol], *,
                   comp_filter=None, keep: str = "failures") -> GsbReport:
    """Divide every composition of the sources (the relations passing
    ``comp_filter``, if given) by the whole set, in ``sort_key`` order, and
    count them by type and by verdict.

    Each composition is dropped from the sorted list once decided.  The
    report keeps what ``keep`` names: ``"failures"`` the non-trivial and
    inconclusive verdicts, ``"verdicts"`` every verdict (for a report that
    lists every composition), and ``"traces"`` every verdict with its
    ``ReductionTrace``; under the first two no trace is kept.  The order of
    the divisions is that of the sorted list either way, so every verdict
    and the materialized instances do not depend on ``keep``.

    The set changes only by lazy materialization during the check, so
    without traces every composition is divided with one dict of
    ``reduce_poly``'s ``reducts``, which searches each word once.  Its
    remainders, and the instances it materializes, are the step-by-step
    division's (``RelationSet`` docstring).  With ``"traces"`` every
    composition is divided step by step.
    """
    trivial_too = {"failures": False, "verdicts": True, "traces": True}[keep]
    traces = keep == "traces"
    reducts = None if traces else {}
    source = [r for r in rset.relations()
              if comp_filter is None or comp_filter(r)]
    comps = enumerate_compositions(source, gens)
    verdicts: List[CompositionVerdict] = []
    counts: Dict[str, int] = {}
    tally = {"trivial": 0, "nontrivial": 0, "inconclusive": 0}
    for i, c in enumerate(comps):
        comps[i] = None
        v = is_trivial(c, rset, reducts)
        counts[c.ctype] = counts.get(c.ctype, 0) + 1
        tally[v.verdict] += 1
        if trivial_too or v.verdict != "trivial":
            if not traces:
                v.trace = None
            verdicts.append(v)
    return GsbReport(verdicts, counts, tally, rset.materialized)


# completion -------------------------------------------------------------


@dataclass(frozen=True)
class CompletionLimits:
    max_rounds: int = 50
    max_basis: int = 100000
    max_lead_length: Optional[int] = None


@dataclass
class CompletionResult:
    basis: List[ConformalPolynomial]
    rounds: int
    added: int
    diagnostic: Optional[str] = None    # why completion stopped early

    @property
    def completed(self) -> bool:
        return self.diagnostic is None


def _monic_prepare(polys: Iterable[ConformalPolynomial]):
    """Monic forms of the nonzero polynomials, each kept once, in order."""
    out = {}
    for p in polys:
        if p:
            p = p.monic()
            out.setdefault(p.canonical_key(), p)
    return list(out.values())


class SupportIndex:
    """Which members of a relation set a newly added leading word can reduce.

    Every term word of every indexed relation contributes the keys of all
    its slices (``slice_keys``); each key maps the relations having it to
    their greatest D power there.  A leading word s can reduce a term
    exactly when its flat tuple is a slice of the term and ``dpow_fits``
    admits s there.  ``KeptReducts`` follows the set by the same rule.

    ``dirty`` holds the relations not yet checked irreducible against the
    set since the last add that could reduce them.  The index follows the
    set's adds (``log_since``), so relations added by any path (including
    lazy materialization) are seen at the next ``sync``; ``synced`` is the
    number of adds indexed so far.
    """

    def __init__(self, rset: RelationSet):
        self.rset = rset
        self.dirty: set = set()
        self.synced = 0
        # visit key of each indexed relation: (word key of the lead, -seq,
        # relation); ascending order is the reverse of the interreduction
        # visit order
        self.visit_key: Dict[Relation, tuple] = {}
        self._support: Dict[tuple, Dict[Relation, int]] = {}

    def sync(self) -> List[Relation]:
        """Index the live relations added since the last sync.

        Each of them is marked dirty, as is every indexed relation its
        leading word can reduce; returns the relations that this call
        turned from clean to dirty.
        """
        marked: List[Relation] = []
        for rel in self.rset.log_since(self.synced):
            self._add(rel, marked)
        self.synced = self.rset.added
        return marked

    def _mark(self, rel: Relation, marked: List[Relation]) -> None:
        if rel not in self.dirty:
            self.dirty.add(rel)
            marked.append(rel)

    def _add(self, rel: Relation, marked: List[Relation]) -> None:
        lead = rel.lead
        for interior in (True, False):
            owners = self._support.get((interior, rel.lead_flat), {})
            for other, dpow in owners.items():
                if dpow_fits(lead.dpow, interior, dpow):
                    self._mark(other, marked)
        self._mark(rel, marked)
        self.visit_key[rel] = (self.rset.sig.word_key(lead), -rel.seq, rel)
        for w in rel.poly.terms:
            for key in slice_keys(w):
                owners = self._support.setdefault(key, {})
                if owners.get(rel, -1) < w.dpow:
                    owners[rel] = w.dpow

    def remove(self, rel: Relation) -> None:
        """Forget a relation removed from the set."""
        self.dirty.discard(rel)
        del self.visit_key[rel]
        for w in rel.poly.terms:
            for key in slice_keys(w):
                owners = self._support.get(key)
                if owners is not None:
                    owners.pop(rel, None)
                    if not owners:
                        del self._support[key]


def interreduce(rset: RelationSet,
                index: Optional[SupportIndex] = None) -> bool:
    """Reduce every member against the others until a fixpoint.

    Members whose remainder vanishes are dropped; changed members are
    replaced by their monic remainders.  At the fixpoint each member's
    support is irreducible against the rest.

    Each pass visits the members live at its start in descending order of
    leading word (ties in insertion order), but probes only the members the
    support index holds dirty; the others are skipped.  This gives the same
    adds and removes, in the same order, as probing every member:

    * removing a relation never creates a reduction, since every pattern
      found afterwards was available before;
    * so a member found irreducible can become reducible only when a
      relation is added whose leading word occurs in its support as a
      pattern would find it, and that add marks the member dirty again;
    * a clean member would thus be found irreducible and left alone, and
      the visit order is the one of the full rescan, so every pass makes
      the same decisions in the same sequence and the results are identical.

    ``index`` lets a caller keep one index over many calls on the same set
    (``complete`` does); without it a fresh index is built, holding every
    member dirty.  A member's words are probed greatest first
    (``Relation.words``), so the probes depend on the set alone, not on
    how the member's polynomial was built.
    """
    if index is None:
        index = SupportIndex(rset)
    dirty, visit_key = index.dirty, index.visit_key
    changed_any = False
    while True:
        index.sync()
        horizon = -index.synced    # -seq; members added since join next pass
        pending = sorted(visit_key[rel] for rel in dirty)
        changed = False
        while pending:
            item = pending.pop()
            rel = item[2]
            if not rel.alive:
                continue
            if not any(rset.has_reduction(w, exclude=rel)
                       for w in rel.words):
                dirty.discard(rel)
            else:
                # the division meets the reducible word found, so it steps
                rem = reduce_poly(rel.poly, rset, exclude=rel).remainder
                rset.remove(rel)
                index.remove(rel)
                if not rem.is_zero():
                    rset.add(rem.monic())
                changed = changed_any = True
            # sync after every probe, not only after a change: a probe can
            # materialize schema relations, and indexing them at once keeps
            # the pass exact without relying on when the set materializes
            for other in index.sync():
                key = visit_key[other]
                if key[1] > horizon and key < item:
                    insort(pending, key)
        if not changed:
            return changed_any


def complete(polys: Iterable[ConformalPolynomial], sig: AlgebraSignature,
             gens: Sequence[GeneratorSymbol], *,
             limits: CompletionLimits = CompletionLimits(),
             comp_filter: Optional[Callable[[Relation], bool]] = None
             ) -> CompletionResult:
    """Adjoin reduced nontrivial compositions until all are trivial.

    Compositions are processed in ascending (|w|, w) order each round; every
    insertion is followed by full interreduction, so the completed basis is
    the reduced basis of the ideal it generates.  The loop stops early with
    an explicit diagnostic when a limit trips; the partial basis is returned.

    Every add, remove, round count and result is that of enumerating and
    dividing everything afresh.  A ``CompositionMemo`` keeps the
    compositions of relations that were sources before, the same objects in
    the same pre-sort order as a fresh enumeration would build.  Every
    composition is divided with ``reduce_poly``'s reducts, one
    ``KeptReducts`` for the whole run.  After each add and its
    interreduction the reducts drop the entries of the words that a new
    lead occurs in and those whose hit relation retired; every other entry
    keeps its word's leftmost pattern (``KeptReducts`` docstring).  So
    each division leaves the remainder of a division without them, and
    searches for no pattern that division would not search for.
    """
    rset = RelationSet(sig, _monic_prepare(polys))
    index = SupportIndex(rset)
    interreduce(rset, index)
    memo, reducts = CompositionMemo(), KeptReducts(rset)
    added_total = 0
    rounds = 0
    for rounds in range(1, limits.max_rounds + 1):
        source = [r for r in rset.relations()
                  if comp_filter is None or comp_filter(r)]
        comps = enumerate_compositions(source, gens, memo)
        added_this_round = 0
        for comp in comps:
            # interreduction may have replaced comp's source relations by
            # now; the composition polynomial still lies in the ideal
            rem = reduce_poly(comp.poly, rset, reducts=reducts).remainder
            if rem.is_zero():
                continue
            rem = rem.monic()
            if limits.max_lead_length is not None and \
                    rem.leading().length > limits.max_lead_length:
                return CompletionResult(
                    rset.polys(), rounds, added_total,
                    f"leading word {rem.leading()} exceeds the length limit "
                    f"{limits.max_lead_length}")
            rset.add(rem)
            interreduce(rset, index)
            reducts.sync()
            added_this_round += 1
            added_total += 1
            if len(rset) > limits.max_basis:
                return CompletionResult(
                    rset.polys(), rounds, added_total,
                    f"basis size exceeded the limit {limits.max_basis}")
        if added_this_round == 0:
            return CompletionResult(rset.polys(), rounds, added_total)
    return CompletionResult(
        rset.polys(), limits.max_rounds, added_total,
        f"no fixpoint within {limits.max_rounds} rounds")


# minimal and reduced bases -------------------------------------------------


def minimalize(polys: Iterable[ConformalPolynomial],
               sig: AlgebraSignature) -> List[ConformalPolynomial]:
    """Drop members whose leading word is covered by another member.

    For a set whose compositions are trivial this keeps the generated
    ideal: every removed leading word is the leading word of a pattern
    over a member with a strictly smaller leading word, so removal chains
    terminate.  Among members sharing a leading word the canonically first
    is kept.
    """
    prepared = _monic_prepare(polys)
    by_lead: Dict[tuple, ConformalPolynomial] = {}
    for p in sorted(prepared, key=ConformalPolynomial.canonical_key):
        by_lead.setdefault(sig.word_key(p.leading()), p)
    rset = RelationSet(sig, list(by_lead.values()))
    out = []
    for rel in rset.relations():
        if not rset.has_reduction(rel.lead, exclude=rel):
            out.append(rel.poly)
    out.sort(key=ConformalPolynomial.canonical_key)
    return out


def reduce_basis(polys: Iterable[ConformalPolynomial],
                 sig: AlgebraSignature) -> List[ConformalPolynomial]:
    """The reduced basis: minimal, with every tail fully reduced.

    For a set with trivial compositions the result is the unique reduced
    basis of the generated ideal, independent of input order and scaling.
    """
    mins = minimalize(polys, sig)
    rset = RelationSet(sig, mins)
    out = []
    for rel in rset.relations():
        lead_mono = ConformalPolynomial.monomial(sig, rel.lead)
        tail = rel.poly - lead_mono
        rem = reduce_poly(tail, rset).remainder
        out.append(lead_mono + rem)
    out.sort(key=ConformalPolynomial.canonical_key)
    return out
