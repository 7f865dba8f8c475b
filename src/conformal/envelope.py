"""Lie conformal multiplication tables and universal enveloping presentations.

A Lie table assigns to each ordered generator pair and index n < N a
polynomial-ring-in-D combination of generators (stored as a combination of
length-1 words D^t b).  The enveloping presentation imposes, for every table
entry, the relation

    x (n) y  -  {y (n) x}  -  (table value)  =  0,

where {y (n) x} = sum_k (-1)^(n+k) (1/k!) D^k (y (n+k) x) is the conjugate
term of the commutator; the sum stops at k = N-1-n because later products
vanish by locality.

Index windows make the integer-indexed families finite: ambiguities are
formed from instances whose leading words lie in [-W, W], while reductions
draw on the instances with free indices in [-M*W, M*W], held eagerly, and
on those beyond, which a lazy lookup solves only outside that window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .words import (AlgebraSignature, ConformalError, GeneratorSymbol,
                    NormalWord)
from .algebra import Coeff, ConformalPolynomial, _accum, apply_D, mult
from .dsl import RelationSchema, parse_presentation
from .rewriting import RelationSet, dpow_fits, reduce_poly, slices
from .gsb import (CompletionLimits, CompletionResult, _monic_prepare,
                  complete)


class WindowError(ConformalError, ValueError):
    """A window parameter below 1."""


@dataclass(frozen=True)
class IndexWindow:
    """Composition window W and relation window multiplier M."""

    W: int
    M: int = 4

    def __post_init__(self):
        if self.W < 1 or self.M < 1:
            raise WindowError("window parameters must be positive")

    @property
    def radius(self) -> int:
        return self.M * self.W


def kd_element(sig: AlgebraSignature,
               parts: Iterable[Tuple[Coeff, int, GeneratorSymbol]]
               ) -> ConformalPolynomial:
    """Combination  sum c * D^t b  of derived generators."""
    terms = {}
    for c, t, b in parts:
        sig.check_gen(b)
        w = NormalWord((), b, t)
        terms[w] = terms.get(w, 0) + c
    return ConformalPolynomial(sig, terms)


class LieTable:
    """Multiplication table of a Lie conformal algebra on a free D-basis."""

    def __init__(self, sig: AlgebraSignature,
                 entries: Dict[Tuple[GeneratorSymbol, int, GeneratorSymbol],
                               ConformalPolynomial]):
        self.sig = sig
        self.entries = {}
        for (x, n, y), val in entries.items():
            if not 0 <= n < sig.N:
                raise ValueError(f"table index {n} outside [0, {sig.N})")
            for w in val.terms:
                if w.length > 1:
                    raise ValueError(
                        "table values must be combinations of D^t b words")
            sig.check_gen(x)
            sig.check_gen(y)
            self.entries[(x, n, y)] = val

    def value(self, x, n, y) -> ConformalPolynomial:
        return self.entries.get((x, n, y), ConformalPolynomial.zero(self.sig))


def conjugate(sig: AlgebraSignature, y: GeneratorSymbol, n: int,
              x: GeneratorSymbol) -> ConformalPolynomial:
    """{y (n) x} inside the free algebra; the sum stops at k = N-1-n."""
    if n < 0:
        raise ValueError("negative product index")
    terms = {}
    for k in range(0, max(0, sig.N - n)):
        c = Fraction((-1) ** (n + k), factorial(k))
        inner = mult(sig, NormalWord((), y, 0), n + k, NormalWord((), x, 0))
        _accum(terms, apply_D(inner, k).terms, c)
    return ConformalPolynomial(sig, terms)


def enveloping_presentation(table: LieTable) -> List[ConformalPolynomial]:
    """Monic defining relations of the universal enveloping algebra.

    One relation per table entry; duplicates arising from anti-commutative
    pairs collapse after normalization.
    """
    sig = table.sig

    def relations():
        for (x, n, y), val in table.entries.items():
            lead = mult(sig, NormalWord((), x, 0), n, NormalWord((), y, 0))
            yield lead - conjugate(sig, y, n, x) - val

    return sorted(_monic_prepare(relations()),
                  key=ConformalPolynomial.canonical_key)


# windowed schema instantiation ---------------------------------------------


def instantiate_schemas(schemas: Sequence[RelationSchema],
                        sig: AlgebraSignature, radius: int
                        ) -> List[ConformalPolynomial]:
    """All monic instances with free indices in [-radius, radius], deduped."""
    return sorted(_monic_prepare(sc.instantiate(env, sig) for sc in schemas
                                 for env in sc.solutions([], radius)),
                  key=ConformalPolynomial.canonical_key)


def in_window(w: NormalWord, radius: int) -> bool:
    """Whether the word only mentions indices in the window."""
    return all(abs(g.index or 0) <= radius for g in w.letters())


def comp_window_filter(radius: int, given=()):
    """Keep relations with canonical key in ``given`` or lead in the window."""
    return lambda rel: rel.canon in given or in_window(rel.lead, radius)


# lazy instantiation --------------------------------------------------------
#
# Reducing a composition whose sources sit inside the window can run into
# words whose matching instances lie outside any fixed index radius.  The
# schema index materializes exactly the needed instances on demand: a factor
# of the stuck word is matched against every compiled schema term (any
# template term, normalized) of the same letter shape, the admitted solutions
# of the index equations (``RelationSchema.solutions``) with some index
# beyond the held window are instantiated, and instances whose leading word
# equals the factor join the relation set.


class SchemaIndex:
    """The schema terms that can lead an instance over ``sig``, by shape.

    The terms are each schema's placeholder normal form over N
    (``RelationSchema.compiled``), so a template term may be any product
    tree: an instance's words are these terms relabelled, each with its
    term's (names, junctions, dpow) shape.  Length dominates the word order,
    so a term leads an instance only if every longer term cancels there,
    and a term without a twin of its shape never cancels.  ``by_shape`` and
    ``lengths`` keep the terms no shorter than the longest twinless one.
    Dropping the rest materializes the same instances: ``instances_for(sub)``
    returns an instance only when its lead's flat word is the probed slice
    ``sub``, that lead comes from a kept term, and terms of one length are
    kept or dropped together.

    ``instances_for(sub, outside=r)`` skips every assignment with all
    variables in [-r, r], before the constraint test; a ``RelationSet``
    passes the radius of the eager window ``instances_within(r)`` that it
    added itself.  That is sound: a skipped assignment passes the
    constraint, so ``instances_within(r)`` yields it too, and its monic
    instance is already in the set or is zero.  Either way the set would
    have dropped it, so the relations, ``materialized`` and the tried
    slices are unchanged.  The premise is that the set still holds every
    eager instance, so ``RelationSet.remove`` refuses such a set.
    """

    def __init__(self, schemas: Sequence[RelationSchema],
                 sig: AlgebraSignature):
        self.sig = sig
        self.schemas = list(schemas)
        self.by_shape: Dict[tuple, List[tuple]] = {}  # (schema, forms, dpow)
        self.lengths = set()
        for sc in schemas:
            leaves, terms = sc.compiled(sig.N)
            terms = [((tuple(leaves[k].gen.name for k in ks), juncs),
                      tuple(leaves[k].sub for k in ks), dpow)
                     for _, ks, juncs, dpow in terms]
            shapes = Counter((key, dpow) for key, _, dpow in terms)
            floor = max((len(key[0]) for (key, _), k in shapes.items()
                         if k == 1), default=0)
            for key, forms, dpow in terms:
                if len(key[0]) >= floor:
                    self.by_shape.setdefault(key, []).append((sc, forms, dpow))
                    self.lengths.add(len(key[0]))

    def instances_within(self, radius: int) -> List[ConformalPolynomial]:
        """``instantiate_schemas`` of the index's schemas."""
        return instantiate_schemas(self.schemas, self.sig, radius)

    def instances_for(self, sub: tuple, outside: Optional[int] = None
                      ) -> List[ConformalPolynomial]:
        """The monic instances whose leading word's flat tuple is the slice
        ``sub``, each once, in template and solution order.

        Each solution's raw instance is tested for its lead before it is
        made monic, keyed and deduplicated (``_monic_prepare``).  That keeps
        the same instances in the same order: scaling keeps the leading
        word, so instances that deduplicate together lead alike."""
        letters = sub[0::2]
        templates = self.by_shape.get((tuple(g.name for g in letters),
                                       sub[1::2]))
        if not templates:
            return []
        # free variables range over the slice's largest index plus 4, which
        # covers every constraint of the built-in families (their side
        # conditions bound free variables by matched ones)
        bound = max((abs(g.index or 0) for g in letters), default=0) + 4
        raw = (sc.instantiate(env, self.sig) for sc, forms, _ in templates
               for env in sc.solutions([(form, g.index or 0) for form, g
                                        in zip(forms, letters)], bound,
                                       outside=outside))
        return _monic_prepare(p for p in raw
                              if p and p.leading()[:-1] == sub)

    def could_reduce(self, word: NormalWord) -> bool:
        """Whether an instance at any indices might reduce the word: a kept
        term has the names and junctions of a slice of the word, and
        ``dpow_fits`` admits the term's D power there."""
        for _, sub, interior in slices(word, sorted(self.lengths)):
            key = (tuple(g.name for g in sub[0::2]), sub[1::2])
            if any(dpow_fits(dpow, interior, word.dpow)
                   for _, _, dpow in self.by_shape.get(key, ())):
                return True
        return False


def schema_shapes(schemas: Sequence[RelationSchema],
                  sig: AlgebraSignature) -> List[tuple]:
    """The (names, junctions, dpow) shapes of the lead-capable terms."""
    return [key + (dpow,) for key, tts in
            SchemaIndex(schemas, sig).by_shape.items() for _, _, dpow in tts]


# built-in families -----------------------------------------------------------

_PRESENTATIONS = Path(__file__).resolve().parents[2] / "presentations"


@dataclass
class BuiltinExample:
    """A named enveloping example with its closed-form expected basis.

    The Lie table and its commutator presentation are built on first use:
    only the equivalence check reads them.  So are the schema index,
    which every ``basis_rset`` shares, and the basis.
    """

    name: str
    sig: AlgebraSignature
    window: IndexWindow
    table_fn: Callable[[AlgebraSignature, int], LieTable]
    schemas: List[RelationSchema]                # the known completed family
    irr_expected: Callable[[int, int, int], List[NormalWord]]

    @cached_property
    def index(self) -> SchemaIndex:
        return SchemaIndex(self.schemas, self.sig)

    @cached_property
    def basis(self) -> List[ConformalPolynomial]:
        """The family's instances within the relation window."""
        return self.index.instances_within(self.window.radius)

    @cached_property
    def table(self) -> LieTable:
        return self.table_fn(self.sig, self.window.radius)

    @cached_property
    def presentation(self) -> List[ConformalPolynomial]:
        """The instantiated commutator relations."""
        return enveloping_presentation(self.table)

    def gens(self) -> Tuple[GeneratorSymbol, ...]:
        return self.sig.family_generators(self.window.W)

    def basis_rset(self) -> RelationSet:
        """The instantiated basis, extended on demand beyond the window."""
        return RelationSet(self.sig, lazy=self.index,
                           eager_radius=self.window.radius)


def _L(i):
    return GeneratorSymbol("L", i)


def _H(i):
    return GeneratorSymbol("H", i)


def virasoro_table(sig: AlgebraSignature, radius: int) -> LieTable:
    """Loop Virasoro bracket:  L_i [0] L_j = -D L_{i+j},  L_i [1] L_j = -2 L_{i+j}."""
    entries = {}
    rng = range(-radius, radius + 1)
    for i in rng:
        for j in rng:
            entries[(_L(i), 0, _L(j))] = kd_element(
                sig, [(-1, 1, _L(i + j))])
            entries[(_L(i), 1, _L(j))] = kd_element(
                sig, [(-2, 0, _L(i + j))])
    return LieTable(sig, entries)


def heisenberg_virasoro_table(sig: AlgebraSignature, radius: int) -> LieTable:
    """Loop Heisenberg-Virasoro bracket.

    L_i[0]L_j = D L_{i+j}, L_i[1]L_j = 2 L_{i+j}, L_i[0]H_j = D H_{i+j},
    L_i[1]H_j = H_{i+j}, H_j[0]L_i = 0, H_j[1]L_i = H_{i+j} (the
    anti-commutativity of the L-against-H entries), H brackets vanish.
    """
    entries = {}
    rng = range(-radius, radius + 1)
    zero = ConformalPolynomial.zero(sig)
    for i in rng:
        for j in rng:
            entries[(_L(i), 0, _L(j))] = kd_element(sig, [(1, 1, _L(i + j))])
            entries[(_L(i), 1, _L(j))] = kd_element(sig, [(2, 0, _L(i + j))])
            entries[(_L(i), 0, _H(j))] = kd_element(sig, [(1, 1, _H(i + j))])
            entries[(_L(i), 1, _H(j))] = kd_element(sig, [(1, 0, _H(i + j))])
            entries[(_H(i), 0, _L(j))] = zero
            entries[(_H(i), 1, _L(j))] = kd_element(sig, [(1, 0, _H(i + j))])
            entries[(_H(i), 0, _H(j))] = zero
            entries[(_H(i), 1, _H(j))] = zero
    return LieTable(sig, entries)


def virasoro_irr_words(idx_radius: int, max_length: int,
                       max_dpow: int) -> List[NormalWord]:
    """The family  L_0(0)^k D^t L_i  within the bounds."""
    out = []
    for k in range(0, max_length):
        body = ((_L(0), 0),) * k
        for t in range(max_dpow + 1):
            for i in range(-idx_radius, idx_radius + 1):
                out.append(NormalWord(body, _L(i), t))
    return out


def heisenberg_virasoro_irr_words(idx_radius: int, max_length: int,
                                  max_dpow: int) -> List[NormalWord]:
    """Closed-form irreducible family for the loop Heisenberg-Virasoro basis.

    A word is irreducible exactly when no adjacent letter pair matches a
    leading word, which forces chains: an H_0(0) chain, optionally closed by
    H_-1(0) or by an H_0 junction of index 0 or 1, then an L_0(0) chain into
    an arbitrary D^t L_i tail; or a pure H_0(0) chain into a D^t H_i tail.
    """
    out = []
    rng = range(-idx_radius, idx_radius + 1)
    tails = [(t, i) for t in range(max_dpow + 1) for i in rng]

    def emit(body, tail_fam):
        for t, i in tails:
            out.append(NormalWord(body, tail_fam(i), t))

    for l in range(0, max_length):
        lpart = ((_L(0), 0),) * l
        emit(lpart, _L)                                 # L_0(0)^l D^t L_i
        for h in range(0, max_length - l - 1):
            h0s = ((_H(0), 0),) * h
            emit(h0s + ((_H(-1), 0),) + lpart, _L)      # ... H_-1(0) ...
            for n in (0, 1):
                emit(h0s + ((_H(0), n),) + lpart, _L)   # ... H_0(n) ...
    for k in range(0, max_length):
        emit(((_H(0), 0),) * k, _H)                     # H_0(0)^k D^t H_i
    return out


# name -> (presentation file stem, Lie table, closed-form irreducible words).
# The all-negative branch of the q0 side condition in heisenberg_virasoro.alg
# admits equal indices; with a strict inequality the instances with i = j
# would be missing and the family would leave H_{2i} (0) L_k uncovered.
_BUILTINS = {
    "virasoro": ("virasoro", virasoro_table, virasoro_irr_words),
    "heisenberg-virasoro": ("heisenberg_virasoro", heisenberg_virasoro_table,
                            heisenberg_virasoro_irr_words),
}
_BUILTINS["heisenberg_virasoro"] = _BUILTINS["heisenberg-virasoro"]


def builtin_example(name: str, window: IndexWindow) -> BuiltinExample:
    """The signature and schemas of ``presentations/<stem>.alg`` over the
    window; the file's options block is ignored."""
    if name not in _BUILTINS:
        raise ConformalError(f"unknown example {name!r}; "
                             f"try 'virasoro' or 'heisenberg-virasoro'")
    stem, table_fn, irr = _BUILTINS[name]
    pf = parse_presentation(
        (_PRESENTATIONS / f"{stem}.alg").read_text(encoding="utf-8"))
    return BuiltinExample(name, pf.sig, window, table_fn, pf.schemas, irr)


# windowed checks ------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Both-direction membership between two windowed relation sets."""

    completion: CompletionResult
    forward_failures: List[ConformalPolynomial]
    backward_failures: List[ConformalPolynomial]
    source_radius: int

    @property
    def forward_ok(self) -> bool:
        """Every known-basis instance is in the completed ideal."""
        return not self.forward_failures

    @property
    def backward_ok(self) -> bool:
        return not self.backward_failures

    @property
    def ok(self) -> bool:
        return self.forward_ok and self.backward_ok

    def to_json(self):
        return {
            "equal": self.ok,
            "forward_ok": self.forward_ok,
            "backward_ok": self.backward_ok,
            "completion_completed": self.completion.completed,
            "completion_rounds": self.completion.rounds,
            "completion_added": self.completion.added,
            "source_radius": self.source_radius,
            "forward_failures": [repr(p) for p in self.forward_failures],
            "backward_failures": [repr(p) for p in self.backward_failures],
        }


def equivalence_check(ex: BuiltinExample, *,
                      limits: CompletionLimits = CompletionLimits()
                      ) -> EquivalenceReport:
    """Windowed two-sided ideal equality of the presentation and the basis.

    Backward: every presentation relation with window-sized indices reduces
    to zero against the instantiated basis.  Forward: the presentation is
    completed (ambiguities drawn from a growing index slice) until every
    window-sized basis instance reduces to zero, escalating the slice up to
    the relation window if needed.
    """
    sig = ex.sig
    W = ex.window.W
    radius = ex.window.radius
    basis_rset = ex.basis_rset()
    back_fail = []
    for p in ex.presentation:
        if in_window(p.leading(), W):
            if not reduce_poly(p, basis_rset).remainder.is_zero():
                back_fail.append(p)

    targets = instantiate_schemas(ex.schemas, sig, W)
    src = W
    while True:
        completion = complete(ex.presentation, sig,
                              sig.family_generators(src), limits=limits,
                              comp_filter=comp_window_filter(src))
        comp_rset = RelationSet(sig, completion.basis)
        fwd_fail = [p for p in targets
                    if not reduce_poly(p, comp_rset).remainder.is_zero()]
        if not fwd_fail or src >= radius:
            break
        src = min(radius, src + W)
    return EquivalenceReport(completion, fwd_fail, back_fail, src)


@dataclass
class EmbeddingReport:
    """Whether the free D-module generators stay independent in the
    quotient; the verdict is read from the reducible and boundary words."""

    reducible: List[NormalWord]
    boundary: List[NormalWord]

    @property
    def embedded(self) -> bool:
        return not self.reducible and not self.boundary

    @property
    def inconclusive(self) -> bool:
        return bool(self.boundary) and not self.reducible

    def to_json(self):
        return {
            "embedded": self.embedded,
            "inconclusive": self.inconclusive,
            "reducible": [str(w) for w in self.reducible],
            "boundary": [str(w) for w in self.boundary],
        }


def embedding_check(rset: RelationSet, gens: Sequence[GeneratorSymbol],
                    max_dpow: int) -> EmbeddingReport:
    """Check that every D^t b is irreducible for the given relation set.

    A found reduction is a definite failure, whatever else is found.  A
    word that no windowed instance reduces but that the set's schema index
    says an instance might (``SchemaIndex.could_reduce``) is reported as a
    boundary case; with no reducible word it makes the result
    inconclusive, never a clean pass.
    """
    lazy, reducible, boundary = rset.lazy, [], []
    for b in gens:
        for t in range(max_dpow + 1):
            w = NormalWord((), b, t)
            if rset.has_reduction(w):
                reducible.append(w)
            elif lazy is not None and lazy.could_reduce(w):
                boundary.append(w)
    return EmbeddingReport(reducible, boundary)
