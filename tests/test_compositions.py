"""Composition enumeration and triviality on the single-generator example."""

from hypothesis import given, settings, strategies as st

from conformal import (AlgebraSignature, ConformalPolynomial, RelationSet,
                       check_gsb_rset, gen, is_trivial, mult_compositions,
                       pair_compositions, parse_poly, parse_schema, parse_word)
from conformal.envelope import SchemaIndex
from conformal.algebra import _gen_mult
from conformal.gsb import Composition
from conformal.rewriting import Relation
from conftest import SIG_A2, a2_polys
from props import reference_pair_compositions


def _rels(sig, *texts):
    rset = RelationSet(sig, [parse_poly(t, sig) for t in texts])
    return rset, rset.relations()


def test_self_intersection_exists(sig_a2):
    rset, (f,) = _rels(sig_a2, "a (1) a - a (0) D a")
    comps = pair_compositions(f, f)
    inter = [c for c in comps if c.ctype == "intersection"]
    assert len(inter) == 1
    assert inter[0].w == parse_word("a (1) a (1) a", sig_a2)
    # the degenerate identical-position self-inclusion is skipped
    assert not any(c.ctype == "right_inclusion" for c in comps)


def test_right_mult_ranges(sig_a2):
    rset, (f,) = _rels(sig_a2, "a (1) a - a (0) D a")
    comps = mult_compositions(f, sig_a2.generators)
    right = [c for c in comps if c.ctype == "right_mult"]
    # leading word is D-free, so no n < N compositions; the polynomial has a
    # D, so n = 2 is enumerated (products vanish from N + max dpow on)
    assert [c.n for c in right] == [2]
    dfree_rset, (g,) = _rels(sig_a2, "a (0) a (0) a")
    assert not [c for c in mult_compositions(g, sig_a2.generators)
                if c.ctype == "right_mult"]


def test_right_mult_for_d_leading(sig_a2):
    rset, (g,) = _rels(sig_a2, "a (0) D a + a (0) a")
    comps = mult_compositions(g, sig_a2.generators)
    right = [c for c in comps if c.ctype == "right_mult"]
    assert [c.n for c in right] == [0, 1, 2]   # n < N plus N <= n < N + 1


def test_left_mult_range_respects_bound(sig_a2):
    rset, (f,) = _rels(sig_a2, "a (1) a - a (0) D a")
    comps = mult_compositions(f, sig_a2.generators)
    left = [c for c in comps if c.ctype == "left_mult"]
    assert [c.n for c in left] == [2, 3]
    # past the range every product with a term of f vanishes
    assert not any(_gen_mult(sig_a2, b, n, u) for b in sig_a2.generators
                   for n in (4, 5, 6) for u in f.poly.terms)


def test_nontrivial_self_composition(sig_a2):
    rset, (f,) = _rels(sig_a2, "a (1) a - a (0) D a")
    comps = pair_compositions(f, f)
    v = is_trivial([c for c in comps if c.ctype == "intersection"][0], rset)
    assert v.verdict == "nontrivial"
    assert not v.remainder.is_zero()
    assert v.remainder.leading() == parse_word("a (0) a (0) D^2 a", sig_a2)


def test_trivial_after_adding_cube(sig_a2):
    rset, rels = _rels(sig_a2, "a (1) a - a (0) D a", "a (0) a (0) a")
    f = rels[1] if rels[1].lead.length == 2 else rels[0]
    for c in pair_compositions(f, f):
        assert is_trivial(c, rset).verdict == "trivial"


def test_check_gsb_verdicts(sig_a2):
    one = [parse_poly("a (1) a - a (0) D a", sig_a2)]
    assert not check_gsb_rset(RelationSet(sig_a2, one),
                              sig_a2.generators).is_gsb
    two = one + [parse_poly("a (0) a (0) a", sig_a2)]
    rep = check_gsb_rset(RelationSet(sig_a2, two), sig_a2.generators)
    assert rep.is_gsb
    assert rep.tally["nontrivial"] == 0 and rep.tally["inconclusive"] == 0
    assert set(rep.counts) <= {"inclusion", "right_inclusion", "intersection",
                               "right_intersection", "left_mult", "right_mult"}


def test_zero_composition_is_trivial(sig_a2):
    rset, (f,) = _rels(sig_a2, "a (1) a - a (0) D a")
    zero = Composition("left_mult", f, None, None, sig_a2.generators[0], 7,
                       ConformalPolynomial.zero(sig_a2))
    assert is_trivial(zero, rset).verdict == "trivial"


def test_right_inclusion_between_equal_leads(sig_a2):
    f = parse_poly("a (1) a - a (0) D a", sig_a2)
    g = parse_poly("a (1) a", sig_a2)
    rset = RelationSet(sig_a2, [f, g])
    rels = rset.relations()
    comps = pair_compositions(rels[0], rels[1]) + \
        pair_compositions(rels[1], rels[0])
    ri = [c for c in comps if c.ctype == "right_inclusion"]
    assert len(ri) == 2
    assert {str(c.poly) for c in ri} == {"a (0) D a", "- a (0) D a"}


def test_right_intersection_enumerated(sig_a2):
    f = parse_poly("a (0) a (0) D a", sig_a2)     # leading carries one D
    g = parse_poly("a (0) D^2 a - a (0) a", sig_a2)
    rset = RelationSet(sig_a2, [f, g])
    fr, gr = (r for r in rset.relations())
    pair = {(c.ctype, str(c.w)) for r1 in (fr, gr) for r2 in (fr, gr)
            for c in pair_compositions(r1, r2)}
    # w = (a(0)a(0)Da) D = a (0) [a(0)D^2 a]
    assert ("right_intersection", "a (0) a (0) D^2 a") in pair


def test_out_of_reach_instance_makes_verdict_inconclusive():
    # the instance i = 0, k = 21 reduces L_0 (0) L_0, but the lazy lookup
    # only tries k in [-4, 4]: the relation set cannot see that reduction,
    # so a remainder carrying the word must not count as nontrivial
    sig = AlgebraSignature.indexed(["L"], 2)
    lazy = SchemaIndex([parse_schema("f[i, k | k > 20]: L_i (0) L_i - L_{i+k}")],
                       sig)
    rset = RelationSet(sig, [], lazy=lazy)
    w = parse_word("L_0 (0) L_0", sig)
    assert not rset.has_reduction(w)
    mono = ConformalPolynomial.monomial(sig, w)
    comp = Composition("left_mult", Relation(mono), None, None, gen("L", 0),
                       2, mono)
    v = is_trivial(comp, rset)
    assert v.verdict == "inconclusive"
    assert v.remainder == mono
    # without a schema index nothing lies beyond the set
    assert is_trivial(comp, RelationSet(sig, [])).verdict == "nontrivial"


@settings(max_examples=300, deadline=None)
@given(a2_polys, a2_polys, st.booleans())
def test_pair_compositions_match_the_reference(p, q, same):
    f = Relation(p.monic())
    g = f if same else Relation(q.monic())

    def listed(comps):
        # enumerate_compositions sorts by type among other keys, so only the
        # order within one type is part of the contract
        return [(c.ctype, c.w, c.poly)
                for c in sorted(comps, key=lambda c: c.ctype)]

    assert listed(pair_compositions(f, g)) == \
        listed(reference_pair_compositions(f, g))
