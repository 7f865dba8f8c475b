"""Relation sets, normal S-word patterns, and the division algorithm.

Everything here rests on one notion, an occurrence of a leading word s
inside a normal word w.  ``slices`` walks the letter slices of w, leftmost
first and then shortest first, each as its flat letter-and-junction tuple
(the form leads are indexed by) and whether letters follow it.  A lead with
that flat tuple occurs there when ``dpow_fits``, the one D-power rule,
holds: an interior slice takes a D-free lead, the suffix slice a lead with
at most w's D power.  A ``Pattern`` is the occurrence itself: the relation,
w, and the letter where s starts.  With letters after it, it is the
interior S-word  a(n) s (m) c  (a and s carry no D); at the end of w it is
the suffix S-word  a(n) D^i s,  where w carries i more D powers than s.
Evaluating a pattern substitutes the full relation for s and normalizes;
the result's leading word is exactly w, with coefficient 1.

Reduction repeatedly eliminates the greatest reducible word by its
leftmost pattern, the one search there is: by the Composition-Diamond
lemma the remainder modulo a Groebner-Shirshov basis does not depend on
which pattern divides.  Without kept reducts, the trace's steps and the
remainder sum back to the input (``tests/props.py::reconstruct``).

With the leftmost pattern fixed per word, the remainder is linear in the
input, so a set that does not change can divide each word once.  Write
R(w) = w for an irreducible w, and R(w) = -sum_{u != w} e_u R(u) for the
evaluated leftmost pattern e of a reducible w, whose other words all lie
below w.  The division of p leaves sum_u c_u R(u), by induction on the
greatest word w of p: for an irreducible w it moves c_w w to the
remainder and goes on with p - c_w w; else it goes on with
p - c_w e = (p - c_w w) - c_w (e - w), whose words all lie below w, so by
induction it leaves sum_{u != w} c_u R(u) - c_w sum_{u != w} e_u R(u),
which is the claim.  ``reduce_poly(p, rset, reducts=r)`` records, for
each word it searches, R(w) expanded as far as the words searched so far
allow.  An entry holds while its word keeps its leftmost pattern.
Materialization changes no searched word's pattern (``RelationSet``), so
a check, whose set only materializes, keeps one plain dict; completion
keeps one ``KeptReducts``, which drops the entries its adds and
retirements may change.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .words import AlgebraSignature, ConformalError, NormalWord, SignatureError
from .algebra import (Coeff, ConformalPolynomial, Terms, _accum_items,
                      _word_mult, apply_D)


class RelationError(ConformalError):
    """Raised for non-monic relations or malformed patterns."""


def slices(w: NormalWord, lengths: Iterable[int]):
    """The slices of w of the given (ascending) letter lengths, leftmost
    first, then shortest first: (start letter, flat slice, interior)."""
    K = len(w) >> 1
    for p in range(K):
        for L in lengths:
            if p + L > K:
                break
            yield p, w[2 * p: 2 * (p + L) - 1], p + L < K


def dpow_fits(s_dpow: int, interior: bool, w_dpow: int) -> bool:
    """Whether a lead with D power s_dpow occurs at a matching slice of a
    word with D power w_dpow: D-free when interior, else at most w_dpow."""
    return s_dpow == 0 if interior else s_dpow <= w_dpow


def slice_keys(w: NormalWord):
    """The (interior, flat slice) keys of every slice of a word: a lead
    occurs in w exactly when, at the key of its flat tuple, ``dpow_fits``
    admits it."""
    for _, sub, interior in slices(w, range(1, w.length + 1)):
        yield interior, sub


class Relation:
    """A monic relation together with its precomputed leading data."""

    __slots__ = ("poly", "lead", "lead_flat", "canon", "_words", "alive",
                 "seq")

    def __init__(self, poly: ConformalPolynomial, seq: Optional[int] = None):
        if poly.is_zero():
            raise RelationError("zero polynomial cannot be a relation")
        if not poly.is_monic():
            raise RelationError(
                f"relation must be monic, got leading coefficient "
                f"{poly.leading_coeff()}")
        self.poly = poly
        self.lead = poly.leading()
        self.lead_flat = self.lead[:-1]
        self.canon = poly.canonical_key()
        self._words = None
        self.alive = True
        self.seq = seq      # the number of adds before it in its set

    @property
    def words(self) -> tuple:
        """The term words, greatest first, sorted on first use: most sets
        never ask (interreduction does)."""
        if self._words is None:
            self._words = tuple(sorted(self.poly.terms,
                                       key=self.poly.sig.word_key,
                                       reverse=True))
        return self._words

    def __repr__(self):
        return f"Relation({self.poly!r})"


@dataclass(frozen=True, slots=True)
class Pattern:
    """The occurrence of a relation's leading word s at letters start,
    start + 1, ... of the normal word w: the normal S-word a (n) s (m) c
    when letters follow it, else a (n) D^i s.  Its leading word is w."""

    relation: Relation
    word: NormalWord
    start: int

    def describe(self) -> str:
        w, p, s = self.word, self.start, self.relation.lead
        q = p + s.length
        head = f"{w.prefix_to(p)} ({w[2 * p - 1]}) " if p else ""
        if q < w.length:
            return (f"[{head}s ({w[2 * q - 1]}) {w.suffix_from(q)}] "
                    f"with s = {s}")
        d = f"D^{w.dpow - s.dpow} " if w.dpow > s.dpow else ""
        return f"[{head}{d}s] with s = {s}"


def eval_pattern(pat: Pattern) -> Terms:
    """Normalized substitution of the relation into the pattern, computed
    on each call.  The caller must not mutate the dict: at letter 0 with no
    extra D power it is the relation's own ``terms``."""
    rel, w, p = pat.relation, pat.word, pat.start
    s = rel.lead
    q = p + s.length
    interior = q < w.length
    if p < 0 or w[2 * p: 2 * q - 1] != rel.lead_flat or \
            not dpow_fits(s.dpow, interior, w.dpow):
        raise RelationError(f"{s} does not occur at letter {p} of {w}")
    if interior:
        m, c = w[2 * q - 1], w.suffix_from(q)
        out = {}
        for u, cu in rel.poly.terms.items():
            _word_mult(rel.poly.sig, u, m, c, out, cu)
    else:
        out = apply_D(rel.poly, w.dpow - s.dpow).terms
    if p:
        a, new = w[:2 * p], tuple.__new__
        return {new(NormalWord, a + u): cu for u, cu in out.items()}
    return out


class RelationSet:
    """An indexed set of monic relations supporting occurrence search.

    One index maps the flat letter-and-junction word of each leading word
    to its relations in canonical order (by leading word, then by the whole
    polynomial), which each slice of a searched word looks up under the
    D-power rule; the slice walk order then is the order of the patterns.
    The set holds only its live relations, in the order they were added.
    ``added`` counts the adds, and each relation's ``seq`` the adds before
    it, so ``log_since(s)`` is the live relations added from the s-th add
    on; a removed relation is marked retired (``alive``) and let go.
    ``lazy`` is the schema index of on-demand instances, or None.  Both
    searches walk a word's slices and stop at the first hit; a slice
    materializes the schema instances it leads just before it is looked
    up, so the hits at a slice never depend on earlier searches, and
    ``materialized`` counts the instances on the slices searches reached.

    Given with ``lazy``, ``eager_radius`` r makes the set stand for the
    index's instances with every index in [-r, r] too (the box,
    ``SchemaIndex.instances_within``).  ``_materialize`` looks a slice
    up once, just before its first search, and adds its box part,
    uncounted, then its part beyond the box, counted in ``materialized``.
    ``hold_box`` adds the box parts earlier for the slices
    ``check_gsb_rset`` probes for sources, each slice's part beyond held
    back for its first search, or adds the whole box.  Every search sees, at
    every slice, exactly the relations a set holding the whole box from
    the start would hold there, with no bound on the lookup: an instance
    sits only in the bucket of its lead's flat word, a search reads a
    slice's bucket only after materializing the slice, a bucket keeps
    canonical order whatever the order of the adds, and the walk's
    lengths already include every lead-capable length
    (``SchemaIndex.lengths``).  An instance beyond the box that equals a
    box instance has its lead, so at its slice the box instance is held
    first and it is dropped uncounted, as it was against the whole box.
    So hits, remainders and ``materialized`` are those of the whole box.
    ``relations()`` and ``len`` cover what is held; ``polys()`` lists the
    whole set, box included, without adding to it.  The radius belongs to
    the set, never to the shareable index, and ``remove`` refuses such a
    set, which must keep every eager instance.

    A check's reducts, one plain dict for ``reduce_poly``, never drop an
    entry, and need not: materialization, the only change to a check's
    set, changes no searched word's leftmost pattern.  A search walks
    every slice up to its hit, or every slice of an irreducible word, and
    an instance is added only at the slice it leads, just before that
    slice is first looked up, so never at a slice a walk tried.  Each
    entry thus keeps its word's pattern and its reduct, a division with
    reducts searches only words that the step-by-step division also
    searches, and the other words that one searches have entries, whose
    walks reach only slices tried before: both materialize the same
    instances, and ``materialized`` after each division is the same.
    Completion's adds and retirements do change patterns; ``KeptReducts``
    drops the entries they may change.
    """

    def __init__(self, sig: AlgebraSignature,
                 polys: Iterable[ConformalPolynomial] = (), *,
                 lazy=None, eager_radius: Optional[int] = None):
        self.sig = sig
        self._relations: Dict[int, Relation] = {}     # by seq
        self.added = 0
        self._lead_index: Dict[tuple, List[Relation]] = {}
        self._lens: Dict[int, int] = {}
        self._lens_set = None
        self._canon = set()
        if lazy is not None and lazy.sig is not sig:
            raise SignatureError("schema index built for another signature")
        self.lazy = lazy
        self.eager_radius = eager_radius
        self._lazy_tried = set()
        self._beyond: Dict[tuple, list] = {}    # probed slices' parts beyond
        self._box_full = eager_radius is None
        self.materialized = 0
        if eager_radius is not None and lazy is None:
            raise RelationError("an eager radius needs a schema index "
                                "(lazy), and none was given")
        self._add_new(sorted(polys, key=ConformalPolynomial.canonical_key))

    # membership ------------------------------------------------------------

    def relations(self) -> List[Relation]:
        """The relations held, in add order."""
        return list(self._relations.values())

    def polys(self) -> List[ConformalPolynomial]:
        """Every relation of the set in canonical order, the eager box's
        instances not yet held too; it adds none of them."""
        polys = {r.canon: r.poly for r in self._relations.values()}
        if not self._box_full:
            for p in self.lazy.instances_within(self.eager_radius):
                polys.setdefault(p.canonical_key(), p)
        return [polys[k] for k in sorted(polys)]

    def __len__(self):
        return len(self._relations)

    def log_since(self, start: int) -> List[Relation]:
        """The live relations with ``seq`` at least ``start``, in add order."""
        out = []
        for rel in reversed(self._relations.values()):
            if rel.seq < start:
                break
            out.append(rel)
        out.reverse()
        return out

    def add(self, poly: ConformalPolynomial) -> Relation:
        rel = Relation(poly, self.added)
        self._relations[rel.seq] = rel
        self.added += 1
        self._canon.add(rel.canon)
        L = rel.lead.length
        if L not in self._lens:
            self._lens_set = None
        self._lens[L] = self._lens.get(L, 0) + 1
        insort(self._lead_index.setdefault(rel.lead_flat, []), rel,
               key=lambda r: r.canon)
        return rel

    def _add_new(self, polys: Iterable[ConformalPolynomial]) -> int:
        """Add, in order, those not yet held; the number added."""
        n = 0
        for p in polys:
            if p.canonical_key() not in self._canon:
                self.add(p)
                n += 1
        return n

    def remove(self, rel: Relation) -> None:
        # the lookup skips the eager instances, so the set must keep them
        if self.eager_radius is not None:
            raise RelationError("cannot remove from a set that holds an "
                                "eager window")
        rel.alive = False
        del self._relations[rel.seq]
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

    def hold_box(self, radius: Optional[int] = None) -> None:
        """Add the eager box's instances that lead at a lead-capable slice
        with every index in [-radius, radius] (``SchemaIndex.slices_within``),
        or the whole box when radius is None; uncounted.  A slice looked up
        here keeps its part beyond the box until ``_materialize``."""
        if self._box_full:
            return
        if radius is not None:
            for sub in self.lazy.slices_within(radius):
                if sub not in self._lazy_tried and sub not in self._beyond:
                    box, self._beyond[sub] = self.lazy.instances_for(
                        sub, self.eager_radius)
                    self._add_new(box)
            return
        self._add_new(self.lazy.instances_within(self.eager_radius))
        self._box_full = True

    def _materialize(self, sub: tuple) -> None:
        """Instantiate schema relations whose leading word equals ``sub``:
        the eager box's, uncounted, unless ``hold_box`` added them, then
        those beyond it, counted."""
        if self.lazy is None or sub in self._lazy_tried:
            return
        self._lazy_tried.add(sub)
        beyond = self._beyond.pop(sub, None)
        if beyond is None:
            box, beyond = self.lazy.instances_for(sub, self.eager_radius)
            self._add_new(box)
        self.materialized += self._add_new(beyond)

    # pattern search ----------------------------------------------------------

    def _length_set(self):
        lens = self._lens_set
        if lens is None:
            lens = sorted(self._lens)
            if self.lazy is not None:
                lens = sorted(set(lens) | self.lazy.lengths)
            self._lens_set = lens
        return lens

    def _hits(self, w: NormalWord, exclude: Optional[Relation]):
        """(start letter, relation) of every occurrence in w, in slice walk
        order and by canonical form within a slice.  Each untried slice
        materializes its instances first."""
        lazy, tried = self.lazy, self._lazy_tried
        for p, sub, interior in slices(w, self._length_set()):
            if lazy is not None and sub not in tried:
                self._materialize(sub)
            for rel in self._lead_index.get(sub, ()):
                if rel is not exclude and \
                        dpow_fits(rel.lead.dpow, interior, w.dpow):
                    yield p, rel

    def find_one(self, w: NormalWord,
                 exclude: Optional[Relation] = None) -> Optional[Pattern]:
        """The leftmost pattern with leading word w: the first occurrence in
        slice walk order."""
        hit = next(self._hits(w, exclude), None)
        return None if hit is None else Pattern(hit[1], w, hit[0])

    def has_reduction(self, w: NormalWord,
                      exclude: Optional[Relation] = None) -> bool:
        return next(self._hits(w, exclude), None) is not None


@dataclass(slots=True)
class TraceStep:
    pattern: Pattern
    coeff: Coeff


@dataclass(slots=True)
class ReductionTrace:
    """Record of one run of the division algorithm."""

    steps: List[TraceStep]
    remainder: ConformalPolynomial

    def to_json(self):
        return {
            "steps": [{"word": str(st.pattern.word),
                       "pattern": st.pattern.describe(),
                       "coeff": str(st.coeff)}
                      for st in self.steps],
            "remainder": repr(self.remainder),
        }


def reduce_poly(p: ConformalPolynomial, rset: RelationSet, *,
                exclude: Optional[Relation] = None,
                reducts: Optional[dict] = None) -> ReductionTrace:
    """Divide p by the relation set.

    While the current leading word matches some pattern, the leftmost
    one's relation is substituted and subtracted; irreducible leading
    terms move to the remainder.  Terminates because eliminated leading
    words strictly decrease in a well order.  A searched word that does
    not lie below the one searched before, or an evaluation without its
    word at coefficient 1, raises ``RelationError``.

    ``reducts`` is a dict kept for one set and one ``exclude``, in which
    each word is searched once while its entry holds (``RelationSet``
    docstring): a plain dict where nothing but materialization changes
    the set, else a ``KeptReducts``, which drops the entries other changes
    reach; without one, the division keeps an empty dict of its own and
    records no entry.  Given one, after the loop it records None for an
    irreducible word and, for a reducible word w whose
    pattern evaluates to e, the reduct -sum_{u != w} e_u r(u), where r(u)
    is u's reduct, or u where it has none.  A word is settled as it is
    met: one recorded irreducible goes to the remainder, one with a reduct
    is replaced by it, which has the same remainder (by linearity, module
    docstring), so only words never searched are left to search.  A word
    never searched has the same coefficient as without reducts, so the
    division searches for no pattern that it would not search for without
    them.  The trace's steps are the searches that hit; a reduct
    substitution is none, so they sum back to the input only without kept
    reducts.
    """
    sig = p.sig
    own = reducts is None
    reducts = {} if own else reducts
    remainder: Terms = {}
    steps: List[TraceStep] = []
    searched = []   # (word, pattern or None, evaluation)
    cur: Terms = {}
    _settle(cur, remainder, reducts, p.terms.items(), 1)
    wkey = sig.word_key
    last = None
    while cur:
        w = max(cur, key=wkey)
        key = wkey(w)
        if last is not None and not key < last:
            raise RelationError(
                f"the division meets {w}, which does not lie below the word "
                f"it searched before")
        last = key
        pat = rset.find_one(w, exclude)
        if pat is None:
            searched.append((w, None, None))
            remainder[w] = cur.pop(w)
            continue
        c = cur[w]
        ev = eval_pattern(pat)
        _settle(cur, remainder, reducts, ev.items(), -c)
        searched.append((w, pat, ev))
        steps.append(TraceStep(pat, c))
        if w in cur:
            raise RelationError(
                f"substituting {pat.describe()} did not cancel the leading "
                f"word {w}, which its evaluation must hold with coefficient 1")
    trace = ReductionTrace(steps, ConformalPolynomial(sig, remainder,
                                                      _frozen=True))
    if own:         # nothing would read the entries
        return trace
    # searched words only descend, so no word searched here is met again
    # here, and its entry can wait until every smaller word has its own
    for w, pat, ev in reversed(searched):
        if pat is None:
            reducts[w] = None
            continue
        red = {}
        for u, cu in ev.items():
            if u != w:
                r = reducts.get(u)
                _accum_items(red, ((u, 1),) if r is None else r, -cu)
        reducts[w] = tuple(red.items())
    if isinstance(reducts, KeptReducts):
        reducts.note(searched)
    return trace


def _settle(cur: Terms, remainder: Terms, reducts: dict, pairs, c) -> None:
    """Add c times the (word, coefficient) pairs to ``cur``, settling each
    word with an entry in ``reducts``: an irreducible one goes to
    ``remainder``, and one with a reduct is replaced by it, recursively."""
    todo = [(pairs, c)]
    while todo:
        pairs, c = todo.pop()
        unsearched, irreducible = [], []
        for u, cu in pairs:
            r = reducts.get(u, u)
            if r is u:
                unsearched.append((u, cu))
            elif r is None:
                irreducible.append((u, cu))
            else:
                todo.append((r, c * cu))
        _accum_items(cur, unsearched, c)
        _accum_items(remainder, irreducible, c)


class KeptReducts(dict):
    """``reduce_poly``'s reducts for a relation set that changes.

    An entry holds while its word w keeps its leftmost pattern.  ``sync``
    reads the changes since the last sync and drops the entries of the
    words that a new lead occurs in (under ``dpow_fits``, at any slice),
    a new lead being that of a live relation added since, and of the words
    whose hit relation retired.  The rest hold: if no new lead occurs in w
    and w's hit relation is alive, then w's occurrences are the ones its
    walk saw, minus retired ones, so w's leftmost pattern, which was the
    first of them, and its evaluation are unchanged, and a word recorded
    irreducible still has no occurrence.  An entry whose reduct inlined a
    dropped entry's reduct goes too, transitively; a word recorded
    irreducible appears raw in the reducts that meet it, and once its own
    entry is gone the division searches it again.

    ``_relation`` holds the hit relation of every word noted, None for an
    irreducible word or a dropped entry.  Three indexes list words: by
    each (interior, flat slice) key of the word (``slice_keys``), by the
    relation they hit, and by a word whose reduct their reduct inlined.
    ``note`` queues a word the first time it is searched, and ``sync``
    lists the queue by key before it reads its batch: a run that never
    syncs again, as in a completion's last round, lists nothing, and a
    word is listed by key once, however often its entry is dropped.  A
    dropped entry's word stays listed: the key lookups skip a word
    without an entry, the relation lookups one whose entry hit another
    relation, and an inlining link that outlived its reduct can only drop
    an entry early, which costs a search, never exactness.
    """

    def __init__(self, rset: RelationSet):
        super().__init__()
        self.rset = rset
        self.synced = rset.added
        self._relation: Dict[NormalWord, Optional[Relation]] = {}
        self._queued: List[NormalWord] = []
        self._by_key: Dict[tuple, List[NormalWord]] = {}
        self._hit: Dict[Relation, list] = {}
        self._inlined_by: Dict[NormalWord, list] = {}

    def note(self, searched) -> None:
        """Index the entries a division recorded, its (word, pattern or
        None, evaluation) triples, and queue the words first seen."""
        for w, pat, ev in searched:
            if w not in self._relation:
                self._queued.append(w)
            rel = self._relation[w] = None if pat is None else pat.relation
            if rel is not None:
                self._hit.setdefault(rel, []).append(w)
                for u in ev:
                    if u != w and self.get(u) is not None:
                        self._inlined_by.setdefault(u, []).append(w)

    def sync(self) -> None:
        """Drop the entries that the changes since the last sync reach."""
        rset, by_key = self.rset, self._by_key
        new = rset.log_since(self.synced)
        self.synced = rset.added
        for w in self._queued:
            for key in slice_keys(w):
                by_key.setdefault(key, []).append(w)
        self._queued = []
        doomed = []
        for rel in [r for r in self._hit if not r.alive]:
            doomed.extend(w for w in self._hit.pop(rel)
                          if w in self and self._relation[w] is rel)
        for rel in new:
            doomed.extend(self._reached(rel))
        self._drop(doomed)

    def _reached(self, rel: Relation) -> list:
        """The entries whose word rel's lead occurs in."""
        return [w for interior in (True, False)
                for w in self._by_key.get((interior, rel.lead_flat), ())
                if w in self and dpow_fits(rel.lead.dpow, interior, w.dpow)]

    def _drop(self, words) -> None:
        """Drop the entries of words, and of every reduct inlining them."""
        todo = list(words)
        while todo:
            w = todo.pop()
            if w in self:
                del self[w]
                self._relation[w] = None
                todo.extend(self._inlined_by.pop(w, ()))


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


def irr_enumerate(rset: RelationSet, gens, max_length: int,
                  max_dpow: int) -> List[NormalWord]:
    """Irreducible normal words within the bounds, ascending."""
    sig = rset.sig
    out = [w for w in normal_words(sig, gens, max_length, max_dpow)
           if not rset.has_reduction(w)]
    out.sort(key=sig.word_key)
    return out


def kd_basis(rset: RelationSet, gens, max_length: int) -> List[NormalWord]:
    """D-free irreducible words; requires every leading word to be D-free."""
    for p in rset.polys():
        if not p.leading().is_dfree:
            raise RelationError(
                f"leading word {p.leading()} carries a D power; the D-free "
                f"irreducible words do not span in that case")
    return irr_enumerate(rset, gens, max_length, 0)
