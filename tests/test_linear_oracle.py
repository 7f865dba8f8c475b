"""Independent cross-check of the whole pipeline by exact linear algebra.

For a verified basis, the span of all pattern substitutions with leading
word in a finite window of normal words must have, as its echelon pivot
set, exactly the reducible words of that window.  This recomputes the
irreducible words without the division algorithm: build the matrix of
substitution vectors, row-reduce over the rationals with columns sorted by
descending word order, and compare pivots against the occurrence search.
"""

from fractions import Fraction

from hypothesis import given, settings

from conformal import (AlgebraSignature, CompletionLimits, IndexWindow,
                       RelationSet, builtin_example, complete, eval_pattern,
                       parse_poly)
from conformal.rewriting import normal_words
from conftest import SIG_A2, a2_presentations, within_budget
from props import all_occurrences


def _pattern_rows(rset, span_words):
    span = set(span_words)
    rows = []
    for w in span_words:
        for pat in all_occurrences(rset, w):
            vec = eval_pattern(pat)
            rows.append((w, vec))
    return rows


def _echelon_pivots(sig, rows, columns):
    order = {w: i for i, w in enumerate(
        sorted(columns, key=sig.word_key, reverse=True))}
    pivots = {}
    for _, vec in rows:
        cur = {w: Fraction(c) for w, c in vec.items()}
        while cur:
            lead = min(cur, key=lambda w: order[w])
            if lead not in pivots:
                pivots[lead] = cur
                break
            ref = pivots[lead]
            factor = cur[lead] / ref[lead]
            for w, c in ref.items():
                v = cur.get(w, Fraction(0)) - factor * c
                if v:
                    cur[w] = v
                else:
                    cur.pop(w, None)
    return set(pivots)


def _check_window(sig, rset, gens, max_len, max_dpow, pad=2,
                  outer_gens=None):
    inner = list(normal_words(sig, gens, max_len, max_dpow))
    outer = list(normal_words(sig, outer_gens or gens, max_len,
                              max_dpow + pad))
    rows = _pattern_rows(rset, inner)
    support = {w for _, vec in rows for w in vec}
    assert support <= set(outer), "substitution support left the padded span"
    pivots = _echelon_pivots(sig, rows, outer)
    reducible = {w for w in inner if rset.has_reduction(w)}
    assert pivots & set(inner) == reducible
    # and every pivot is the leading word of its own row family
    assert reducible <= pivots


def test_linear_oracle_single_generator(sig_a2):
    res = complete([parse_poly("a (1) a - a (0) D a", sig_a2)], sig_a2,
                   sig_a2.generators)
    rset = RelationSet(sig_a2, res.basis)
    _check_window(sig_a2, rset, sig_a2.generators, 4, 2)


def test_linear_oracle_virasoro_window():
    # substitution supports mention index sums, so the padded span uses a
    # generator slice twice as wide as the window under test
    ex = builtin_example("virasoro", IndexWindow(W=1, M=3))
    rset = ex.basis_rset()
    _check_window(ex.sig, rset, ex.sig.family_generators(1), 3, 1,
                  outer_gens=ex.sig.family_generators(2))


@settings(max_examples=40, deadline=None)
@given(a2_presentations)
def test_linear_oracle_on_random_completions(ps):
    limits = CompletionLimits(max_rounds=4, max_basis=40, max_lead_length=4)
    res = within_budget(lambda: complete(ps, SIG_A2, SIG_A2.generators,
                                         limits=limits))
    if res.completed:
        rset = RelationSet(SIG_A2, res.basis)
        within_budget(lambda: _check_window(SIG_A2, rset, SIG_A2.generators,
                                            3, 2))
