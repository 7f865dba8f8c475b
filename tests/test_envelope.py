"""Lie tables, conjugates, enveloping presentations, windows, builtins."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import props

from conformal import (AlgebraSignature, ConformalPolynomial, IndexWindow,
                       LieTable, NormalWord, RelationSet, apply_D,
                       builtin_example, conjugate, enveloping_presentation,
                       equivalence_check, embedding_check, gen,
                       instantiate_schemas, kd_element, make_word, mult,
                       parse_poly, parse_schema, parse_word, reduce_poly)
from conformal.envelope import (comp_window_filter,
                                heisenberg_virasoro_table, virasoro_table)
from conformal.gsb import _monic_prepare, check_gsb_rset
from conformal.rewriting import irr_enumerate


def test_conjugate_small_cases():
    sig1 = AlgebraSignature.finite(["x", "y"], 1)
    x, y = sig1.generators
    assert conjugate(sig1, y, 0, x) == parse_poly("y (0) x", sig1)
    sig2 = AlgebraSignature.finite(["x", "y"], 2)
    x, y = sig2.generators
    assert conjugate(sig2, y, 1, x) == parse_poly("0 - y (1) x", sig2)
    assert conjugate(sig2, y, 0, x) == \
        parse_poly("2 * y (0) x - y (1) D x", sig2)


def test_conjugate_skew_symmetry():
    # x(n)y - {y(n)x} is minus its own flip for every small n
    sig = AlgebraSignature.finite(["x", "y"], 3)
    x, y = sig.generators
    for n in range(sig.N):
        bracket_xy = mult(sig, make_word(sig, x), n, make_word(sig, y)) \
            - conjugate(sig, y, n, x)
        flipped = mult(sig, make_word(sig, y), n, make_word(sig, x)) \
            - conjugate(sig, x, n, y)
        conj_of_flip = ConformalPolynomial.zero(sig)
        from math import factorial
        for k in range(0, sig.N + 4 - n):
            inner = mult(sig, make_word(sig, y), n + k, make_word(sig, x)) \
                - conjugate(sig, x, n + k, y)
            conj_of_flip = conj_of_flip + apply_D(inner, k).scale(
                Fraction((-1) ** (n + k), factorial(k)))
        assert bracket_xy == -conj_of_flip


def test_enveloping_presentation_virasoro_formulas():
    sig = AlgebraSignature.indexed(["L"], 2)
    table = virasoro_table(sig, 2)
    rels = {p.canonical_key() for p in enveloping_presentation(table)}
    for i, j in [(1, 2), (-1, 0), (2, -2)]:
        f0 = parse_poly(
            f"L_{i} (0) L_{j} + L_{j} (1) D L_{i} - 2 * L_{j} (0) L_{i} "
            f"+ D L_{{{i}+{j}}}".replace(f"{{{i}+{j}}}", str(i + j)), sig)
        f1 = parse_poly(
            f"L_{i} (1) L_{j} + L_{j} (1) L_{i} + 2 * L_{i + j}", sig)
        assert f0.monic().canonical_key() in rels
        assert f1.monic().canonical_key() in rels


def test_enveloping_presentation_abelian():
    sig = AlgebraSignature.finite(["x", "y"], 1)
    x, y = sig.generators
    zero = ConformalPolynomial.zero(sig)
    table = LieTable(sig, {(a, 0, b): zero
                           for a in (x, y) for b in (x, y)})
    rels = enveloping_presentation(table)
    assert parse_poly("x (0) y - y (0) x", sig).monic() in rels
    # the diagonal relations x(0)x - x(0)x vanish
    assert len(rels) == 1


def test_lie_table_skew_fill():
    sig = AlgebraSignature.indexed(["H", "L"], 2)
    table = heisenberg_virasoro_table(sig, 1)
    H, L = gen("H", 1), gen("L", -1)
    # H_i [0] L_j = 0 and H_i [1] L_j = H_{i+j}, by anti-commutativity
    assert table.value(H, 0, L).is_zero()
    assert table.value(H, 1, L) == kd_element(sig, [(1, 0, gen("H", 0))])


def test_kd_element_canonical():
    sig = AlgebraSignature.indexed(["L"], 2)
    e = kd_element(sig, [(Fraction(1, 2), 1, gen("L", 0)),
                         (Fraction(1, 2), 1, gen("L", 0)),
                         (1, 0, gen("L", 2))])
    assert e == parse_poly("D L_0 + L_2", sig)


def test_instantiate_schema_counts():
    sig = AlgebraSignature.indexed(["L"], 2)
    s0 = parse_schema("s0[i, j | i != 0]: L_i (0) L_j - L_0 (0) L_{i+j}")
    s1 = parse_schema("s1[i, j]: L_i (1) L_j + L_{i+j}")
    assert len(instantiate_schemas([s0], sig, 1)) == 6   # i in {-1,1}, j in 3
    assert len(instantiate_schemas([s1], sig, 1)) == 9


def test_constraint_side_conditions():
    sig = AlgebraSignature.indexed(["H", "L"], 2)
    q0 = parse_schema(
        "q0[i, j, k | |i| >= |j| and i > 0 > j or i > j > 0 or i <= j < 0]: "
        "H_i (0) L_{j+k} - H_{i+j} (0) L_k + H_j (0) L_{i+k} - H_0 (0) L_{i+j+k}")
    assert q0.constraint.eval({"i": 2, "j": -1, "k": 0})
    assert not q0.constraint.eval({"i": 1, "j": -2, "k": 0})   # |i| < |j|
    assert q0.constraint.eval({"i": 3, "j": 1, "k": 5})
    assert q0.constraint.eval({"i": -1, "j": -1, "k": 0})
    assert not q0.constraint.eval({"i": -1, "j": 0, "k": 0})
    assert not q0.constraint.eval({"i": 0, "j": 0, "k": 0})


def test_virasoro_identities_from_text():
    ex = builtin_example("virasoro", IndexWindow(W=1, M=2))
    sig = ex.sig
    # the squared family member is half the symmetric presentation relation
    for i in (-1, 0, 1):
        s_ii = parse_poly(f"L_{i} (1) L_{i} + L_{2 * i}", sig)
        f_ii = parse_poly(f"L_{i} (1) L_{i} + L_{i} (1) L_{i} "
                          f"+ 2 * L_{2 * i}", sig)
        assert s_ii == f_ii.scale(Fraction(1, 2))
    for i, j in [(1, 2), (0, -1)]:
        f1 = parse_poly(f"L_{i} (1) L_{j} + L_{j} (1) L_{i} + 2 * L_{i+j}"
                        .replace("{i+j}", str(i + j)), sig)
        s_ij = parse_poly(f"L_{i} (1) L_{j} + L_{i + j}", sig)
        s_ji = parse_poly(f"L_{j} (1) L_{i} + L_{i + j}", sig)
        assert f1 == s_ij + s_ji


def test_lhv_identities():
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=1, M=2))
    sig = ex.sig
    basis_keys = {p.canonical_key() for p in ex.basis}
    # H_i (1) H_j is one of the basis families
    assert parse_poly("H_1 (1) H_-1", sig).canonical_key() in basis_keys
    # the H-L commutator relation equals D g1 - g0 flipped
    for i, j in [(1, -1), (2, 0)]:
        p0 = parse_poly(f"L_{j} (1) D H_{i} - 2 * L_{j} (0) H_{i} "
                        f"+ H_{i} (0) L_{j}", sig)
        g1 = parse_poly(f"L_{j} (1) H_{i} + H_{i} (1) L_{j} - H_{i + j}", sig)
        g0 = parse_poly(f"L_{j} (0) H_{i} + H_{i} (1) D L_{j} "
                        f"- 2 * H_{i} (0) L_{j} - D H_{i + j}", sig)
        assert p0 == apply_D(g1) - g0
        assert p0.monic().canonical_key() in \
            {p.canonical_key() for p in ex.presentation}


def test_builtin_windows_check_small():
    for name in ("virasoro", "heisenberg-virasoro"):
        ex = builtin_example(name, IndexWindow(W=1, M=3))
        rset = ex.basis_rset()
        rep = check_gsb_rset(rset, ex.gens(),
                             comp_filter=comp_window_filter(1))
        assert rep.is_gsb, name
        assert rep.tally["inconclusive"] == 0


def test_builtin_irr_matches_closed_form_small():
    for name in ("virasoro", "heisenberg-virasoro"):
        ex = builtin_example(name, IndexWindow(W=1, M=3))
        rset = ex.basis_rset()
        irr = irr_enumerate(rset, ex.sig.family_generators(1), 3, 1)
        assert set(irr) == set(ex.irr_expected(1, 3, 1)), name


def test_equivalence_small_windows():
    ex = builtin_example("virasoro", IndexWindow(W=1, M=3))
    eq = equivalence_check(ex)
    assert eq.ok and eq.completion.completed


def test_reports_read_their_flags_from_their_failures():
    # a flag stored next to the list it summarizes could contradict it
    from conformal import CompletionResult, EquivalenceReport
    sig = AlgebraSignature.finite(["x"], 1)
    p = parse_poly("x (0) x", sig)
    with pytest.raises(TypeError):
        CompletionResult([], True, 1, 0, "limit")
    stopped = CompletionResult([], 1, 0, "limit")
    assert not stopped.completed and CompletionResult([p], 1, 0).completed
    with pytest.raises(TypeError):
        EquivalenceReport(True, True, stopped, [p], [], 2)
    rep = EquivalenceReport(stopped, [p], [], 2)
    assert (rep.forward_ok, rep.backward_ok, rep.ok) == (False, True, False)
    assert rep.to_json()["equal"] is False
    assert rep.to_json()["completion_completed"] is False
    assert EquivalenceReport(stopped, [], [], 2).ok


def test_embedding_small_windows():
    ex = builtin_example("virasoro", IndexWindow(W=2, M=3))
    emb = embedding_check(ex.basis_rset(), ex.gens(), 2)
    assert emb.embedded and not emb.inconclusive


def test_embedding_detects_collapse():
    sig = AlgebraSignature.finite(["b"], 1)
    b = gen("b")
    rset = RelationSet(sig, [ConformalPolynomial.monomial(
        sig, make_word(sig, b))])
    emb = embedding_check(rset, [b], 1)
    assert not emb.embedded
    assert make_word(sig, b) in emb.reducible


def test_lazy_materialization_supplies_missing_instances():
    ex = builtin_example("heisenberg-virasoro", IndexWindow(W=1, M=2))
    rset = ex.basis_rset()
    # this word is only reducible through an instance outside radius 2
    w = parse_word("H_-3 (0) L_5", ex.sig)
    assert rset.has_reduction(w)
    assert rset.materialized >= 1
    assert reduce_poly(ConformalPolynomial.monomial(ex.sig, w),
                       rset).remainder.leading() != w


def test_composition_example_adjacent_families():
    ex = builtin_example("virasoro", IndexWindow(W=1, M=2))
    sig = ex.sig
    rset = RelationSet(sig, ex.basis)
    by_lead = {str(r.lead): r for r in rset.relations()}
    from conformal import pair_compositions, is_trivial
    f = by_lead["L_1 (0) L_-1"]        # the i=1, j=-1 member of the 0-family
    g = by_lead["L_-1 (0) L_1"]        # the j=-1, k=1 member
    comps = pair_compositions(f, g)
    inter = [c for c in comps if c.ctype == "intersection"]
    assert [str(c.w) for c in inter] == ["L_1 (0) L_-1 (0) L_1"]
    assert is_trivial(inter[0], rset).verdict == "trivial"


def test_composition_example_index_one_family():
    ex = builtin_example("virasoro", IndexWindow(W=2, M=2))
    sig = ex.sig
    rset = ex.basis_rset()
    by_lead = {str(r.lead): r for r in rset.relations()}
    from conformal import pair_compositions, is_trivial
    i, j, k = 1, 2, -1
    f = by_lead[f"L_{i} (1) L_{j}"]
    g = by_lead[f"L_{j} (1) L_{k}"]
    inter = [c for c in pair_compositions(f, g)
             if c.ctype == "intersection"]
    assert len(inter) == 1
    # the ambiguity collapses to the difference of two shifted family members
    expected = parse_poly(f"L_{i+j} (1) L_{k} - L_{i} (1) L_{j+k}", sig)
    assert inter[0].poly == expected
    assert is_trivial(inter[0], rset).verdict == "trivial"


def test_left_mult_of_index_one_family_vanishes():
    # products of any generator against the index-1 family vanish from N on,
    # so those window checks hold for every index in the truncation range
    ex = builtin_example("virasoro", IndexWindow(W=1, M=2))
    sig = ex.sig
    from conformal.algebra import _accum, _gen_mult
    rset = RelationSet(sig, ex.basis)
    ones = [r for r in rset.relations()
            if r.lead.junctions() == (1,)]
    assert ones
    for r in ones:
        for b in ex.gens():
            for n in range(sig.N, 6):
                terms = {}
                for u, cu in r.poly.terms.items():
                    _accum(terms, _gen_mult(sig, b, n, u), cu)
                assert not terms


def test_minimal_basis_has_no_inclusion_ambiguities(sig_a2):
    from conformal import minimalize, pair_compositions
    five = [parse_poly(t, sig_a2) for t in
            ["a (1) a - a (0) D a", "a (0) a (0) a", "a (0) a (1) a",
             "a (1) a (0) a", "a (1) a (1) a"]]
    mins = minimalize(five, sig_a2)
    rset = RelationSet(sig_a2, mins)
    rels = rset.relations()
    for f in rels:
        for g in rels:
            if f is g:
                continue
            for c in pair_compositions(f, g):
                assert c.ctype not in ("inclusion", "right_inclusion")


def test_kd_basis_builtins():
    from conformal import kd_basis, NormalWord
    ex = builtin_example("virasoro", IndexWindow(W=1, M=3))
    words = kd_basis(ex.basis_rset(), ex.sig.family_generators(1), 3)
    assert set(words) == set(ex.irr_expected(1, 3, 0))
    assert all(w.is_dfree for w in words)
    lhv = builtin_example("heisenberg-virasoro", IndexWindow(W=1, M=3))
    lwords = kd_basis(lhv.basis_rset(), lhv.sig.family_generators(1), 2)
    assert NormalWord(((gen("H", -1), 0),), gen("L", 1)) in lwords
    assert NormalWord(((gen("H", 0), 0),), gen("H", 1)) in lwords


def test_shape_matcher_conservative():
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["H", "L"], 2)
    index = SchemaIndex([parse_schema(
        "q1[i, j | i != 0]: H_i (1) L_j - H_0 (1) L_{i+j}")], sig)
    assert index.could_reduce(parse_word("H_0 (1) L_4", sig))
    assert index.could_reduce(parse_word("H_0 (1) D^3 L_4", sig))
    assert not index.could_reduce(parse_word("H_0 (0) L_4", sig))
    assert not index.could_reduce(parse_word("L_0 (1) L_4", sig))


@pytest.mark.parametrize("line, word, expected", [
    # the length-1 term never leads: the lone length-2 term outranks it
    ("s1[i, j]: L_i (1) L_j + L_{i+j}", "D L_3", False),
    ("s1[i, j]: L_i (1) L_j + L_{i+j}", "L_2 (1) L_3", True),
    # the twins cancel at i = j, where D L_{2i} leads
    ("t[i, j]: L_i (0) L_j - L_j (0) L_i + D L_{i+j}", "D L_3", True),
    ("t[i, j]: L_i (0) L_j - L_j (0) L_i + D L_{i+j}", "L_3", False),
    # a zero coefficient is no term
    ("z[i]: 0 * L_i (0) L_i + D L_i", "D L_3", True),
    ("z[i]: 0 * L_i (0) L_i + D L_i", "L_1 (0) L_1", False),
])
def test_could_reduce_reads_lead_capable_terms(line, word, expected):
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["L"], 2)
    assert SchemaIndex([parse_schema(line)], sig).could_reduce(
        parse_word(word, sig)) is expected


def test_lead_capable_terms_keep_every_instance_lead():
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["L"], 2)
    t = parse_schema("t[i, j]: L_i (0) L_j - L_j (0) L_i + D L_{i+j}")
    index = SchemaIndex([t], sig)
    assert index.lengths == {1, 2}
    assert t.instantiate({"i": 2, "j": 2}, sig).leading() == \
        parse_word("D L_4", sig)
    assert SchemaIndex([parse_schema("s1[i, j]: L_i (1) L_j + L_{i+j}")
                        ], sig).lengths == {2}


def test_embedding_report_reads_its_verdict_from_the_words():
    from conformal import EmbeddingReport
    with pytest.raises(TypeError):
        EmbeddingReport(True, True, [], [])
    w = NormalWord((), gen("L", 0))
    assert EmbeddingReport([], []).embedded
    assert EmbeddingReport([], [w]).inconclusive
    rep = EmbeddingReport([w], [w])
    assert not rep.embedded and not rep.inconclusive


def test_embedding_reports_boundary_words():
    # only instances with k > 20 reduce D^t L_i, beyond both the window and
    # the lazy lookup: no word is reducible, every one is a boundary case
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["L"], 2)
    f = parse_schema("f[i, k | k > 20]: D L_i - L_{i+k}")
    window = IndexWindow(W=1)
    rset = RelationSet(sig, instantiate_schemas([f], sig, window.radius),
                       lazy=SchemaIndex([f], sig))
    gens = sig.family_generators(window.W)
    emb = embedding_check(rset, gens, 1)
    assert emb.inconclusive and not emb.embedded
    assert not emb.reducible
    assert emb.boundary == [make_word(sig, g, dpow=d) for g in gens
                            for d in range(2)]


_SUBS = ["i", "j", "0", "1", "{i+j}", "{j-i}"]


@st.composite
def _chains(draw, max_len=3):
    """Text of a chain  b1 (n1) ... (nk) D^d b  with indexed subscripts."""
    k = draw(st.integers(1, max_len))
    letters = [f"{draw(st.sampled_from('HL'))}_{draw(st.sampled_from(_SUBS))}"
               for _ in range(k)]
    d = draw(st.integers(0, 2))
    if d:
        letters[-1] = f"D^{d} {letters[-1]}"
    text = letters[0]
    for b in letters[1:]:
        text += f" ({draw(st.integers(0, 1))}) {b}"
    return text


@st.composite
def _schema_lines(draw):
    terms = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1, 2]), _chains()),
                          min_size=1, max_size=4))
    return "f[i, j]: " + " ".join(f"{'-' if c < 0 else '+'} {abs(c)} * {t}"
                                  for c, t in terms)


@st.composite
def _probe_words(draw, sig, leads):
    """A lead with letters and D around it, or a random word."""
    gens = sig.family_generators(3)
    if leads and draw(st.booleans()):
        w = draw(st.sampled_from(leads))
        if draw(st.booleans()):
            w = w.prepend(draw(st.sampled_from(gens)),
                          draw(st.integers(0, 1)))
        if w.is_dfree and draw(st.booleans()):
            w = NormalWord(zip(w.letters(),
                               w.junctions() + (draw(st.integers(0, 1)),)),
                           draw(st.sampled_from(gens)), 0)
        return w.append_D(draw(st.integers(0, 1)))
    body = tuple((draw(st.sampled_from(gens)), draw(st.integers(0, 1)))
                 for _ in range(draw(st.integers(0, 3))))
    return NormalWord(body, draw(st.sampled_from(gens)),
                      draw(st.integers(0, 2)))


@settings(max_examples=60, deadline=None)
@given(_schema_lines(), st.data())
def test_could_reduce_sees_every_instance_hypothesis(line, data):
    # sound: an instance in the index box that reduces w makes could_reduce
    # hold; no wider than the old matcher over every term shape
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["H", "L"], 2)
    schema = parse_schema(line)
    index = SchemaIndex([schema], sig)
    shapes = props.all_term_shapes([schema])
    box = range(-2, 3)
    insts = _monic_prepare(schema.instantiate({"i": i, "j": j}, sig)
                           for i in box for j in box)
    rset = RelationSet(sig, insts)
    leads = sorted({p.leading() for p in insts}, key=sig.word_key)
    for _ in range(8):
        w = data.draw(_probe_words(sig, leads))
        hit = index.could_reduce(w)
        if rset.has_reduction(w):
            assert hit, (line, str(w))
        if hit:
            assert props.all_shapes_could_reduce(w, shapes), (line, str(w))


def _assert_twins(line, twin, sig):
    """A schema and its hand-normalized twin: equal instances, equal term
    shapes and could_reduce, and the same lazily materialized instances,
    each of whose leads the lazy set sees."""
    from itertools import product
    from conformal.envelope import SchemaIndex, schema_shapes
    f, g = parse_schema(line), parse_schema(twin)
    envs = [dict(zip(f.vars, v)) for v in product(range(-3, 8),
                                                  repeat=len(f.vars))]
    insts = [f.instantiate(env, sig) for env in envs]
    assert insts == [g.instantiate(env, sig) for env in envs]
    assert insts == [props.reference_instance(f, env, sig) for env in envs]
    assert schema_shapes([f], sig) == schema_shapes([g], sig)
    lf, lg = SchemaIndex([f], sig), SchemaIndex([g], sig)
    for p in _monic_prepare(insts):
        for w in (p.leading(), p.leading().append_D(1),
                  p.leading().prepend(gen("L", 1), 0)):
            rf = RelationSet(sig, [], lazy=lf)
            rg = RelationSet(sig, [], lazy=lg)
            assert lf.could_reduce(w) is lg.could_reduce(w) is True
            assert rf.has_reduction(w) is rg.has_reduction(w) is True
            assert rf.polys() == rg.polys()


@pytest.mark.parametrize("line, twin", [
    ("f[i]: D (L_i (0) L_0) - L_0 (1) L_i",
     "f[i]: L_i (0) D L_0 - L_0 (1) L_i"),
    ("f[i, j]: 2 * (L_i (0) L_j) - L_{i+j}",
     "f[i, j]: 2 * L_i (0) L_j - L_{i+j}"),
    ("f[i, j]: (L_i (0) L_j) (1) L_0 - L_{i+j}",
     "f[i, j]: L_i (0) L_j (1) L_0 - L_{i+j}"),
    ("f[i]: (L_i (0) L_0) (0) L_0 - L_i (1) L_0",
     "f[i]: L_i (0) L_0 (0) L_0 - L_i (1) L_0"),
])
def test_non_chain_schema_terms_match_their_twin(line, twin):
    # the schema index reads the normalized terms, so a term need not be
    # written as a chain of generators
    _assert_twins(line, twin, AlgebraSignature.indexed(["L"], 2))


def test_schema_junction_at_or_above_n_matches_its_twin():
    # L_i (2) D L_0 normalizes to 2 * L_i (1) L_0 over N = 2: instance
    # i = 7 leads with L_7 (1) L_0, which the index keys by junction 1
    sig = AlgebraSignature.indexed(["L"], 2)
    line = "f[i]: L_i (2) D L_0 - L_0 (0) L_i"
    assert parse_schema(line).instantiate({"i": 7}, sig) == parse_poly(
        "2 * L_7 (1) L_0 - L_0 (0) L_7", sig)
    _assert_twins(line, "f[i]: 2 * L_i (1) L_0 - L_0 (0) L_i", sig)
    # where N = 3 makes (2) a normal junction, the schema is its own twin
    _assert_twins(line, line, AlgebraSignature.indexed(["L"], 3))


def test_lazy_index_for_another_signature_is_rejected():
    from conformal import SignatureError
    from conformal.envelope import SchemaIndex
    f = parse_schema("f[i]: L_i (1) L_0 - L_i")
    lazy = SchemaIndex([f], AlgebraSignature.indexed(["L"], 3))
    with pytest.raises(SignatureError):
        RelationSet(AlgebraSignature.indexed(["L"], 2), [], lazy=lazy)


def test_non_chain_instance_was_invisible():
    # i = 5 leads with L_5 (0) D L_0, which the lazy lookup and
    # could_reduce see through the chain twin
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["L"], 2)
    inst = parse_schema("f[i]: D (L_i (0) L_0) - L_0 (1) L_i").instantiate(
        {"i": 5}, sig)
    w = parse_word("L_5 (0) D L_0", sig)
    assert inst.leading() == w
    chain = parse_schema("f[i]: L_i (0) D L_0 - L_0 (1) L_i")
    assert chain.instantiate({"i": 5}, sig) == inst
    lazy = SchemaIndex([chain], sig)
    assert RelationSet(sig, [], lazy=lazy).has_reduction(w)
    assert lazy.could_reduce(w)


def _reference_keys(schemas, sig, radius):
    """The monic canonical keys of ``instantiate_schemas``, each instance
    substituted into the template tree and normalized."""
    from itertools import product
    rng = range(-radius, radius + 1)
    insts = (props.reference_instance(sc, env, sig) for sc in schemas
             for env in (dict(zip(sc.vars, v))
                         for v in product(rng, repeat=len(sc.vars)))
             if props.ref_admits(sc.constraint.node, env))
    return sorted(p.canonical_key() for p in _monic_prepare(insts))


@pytest.mark.parametrize("stem", ["virasoro", "heisenberg_virasoro"])
def test_compiled_instances_match_the_reference(stem):
    from pathlib import Path
    from conformal import parse_presentation
    pf = parse_presentation((Path(__file__).resolve().parents[1] /
                             "presentations" / f"{stem}.alg").read_text())
    got = [p.canonical_key()
           for p in instantiate_schemas(pf.schemas, pf.sig, 8)]
    assert got == _reference_keys(pf.schemas, pf.sig, 8)


def _shipped_family_files():
    from pathlib import Path
    from conformal import parse_presentation
    return [parse_presentation((Path(__file__).resolve().parents[1] /
                                "presentations" / f"{stem}.alg").read_text())
            for stem in ("virasoro", "heisenberg_virasoro")]


def _assignments(envs):
    """The assignments as a set, checking that none repeats."""
    envs = [tuple(sorted(env.items())) for env in envs]
    assert len(envs) == len(set(envs))
    return set(envs)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_solutions_without_equations_are_the_admitted_box(radius):
    from itertools import product
    rng = range(-radius, radius + 1)
    for pf in _shipped_family_files():
        for sc in pf.schemas:
            box = (dict(zip(sc.vars, v))
                   for v in product(rng, repeat=len(sc.vars)))
            assert _assignments(sc.solutions([], radius)) == \
                _assignments(env for env in box
                             if props.ref_admits(sc.constraint.node, env))


def _lead_equations():
    """(schema, equations) pairs: a term of ``SchemaIndex.by_shape`` with
    the indices of a small assignment, one of them possibly shifted, and
    some equations possibly dropped so that more variables are free.  The
    shipped schemas have unit coefficients; the extra one, drawn half the
    time, has doubled indices, so that an odd target leaves no integer
    solution."""
    from conformal.envelope import SchemaIndex
    doubled = parse_schema("d[i, j | i != j]: L_{i+i} (0) L_{j-i} "
                           "- L_{j+j} (0) L_{i+j+j}")
    indexes = [SchemaIndex(pf.schemas, pf.sig)
               for pf in _shipped_family_files()]
    doubled_index = SchemaIndex([doubled], AlgebraSignature.indexed(["L"], 2))
    templates = [st.sampled_from([t for index in group
                                  for ts in index.by_shape.values()
                                  for t in ts])
                 for group in (indexes, [doubled_index])]

    @st.composite
    def lead(draw):
        sc, forms, _ = draw(st.one_of(templates))
        env = {v: draw(st.integers(-4, 4)) for v in sc.vars}
        targets = [form.eval(env) for form in forms]
        k = draw(st.integers(0, len(targets)))
        if k < len(targets):
            targets[k] += draw(st.integers(-2, 2))
        keep = draw(st.lists(st.booleans(), min_size=len(forms),
                             max_size=len(forms))
                    | st.just([True] * len(forms)))
        return sc, [eq for eq, kept in zip(zip(forms, targets), keep)
                    if kept]
    return lead()


def _row_reduce(rows):
    """The reduced row echelon form of ``rows`` over the rationals and its
    pivot columns; the augmented last column is never a pivot."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) - 1 if rows else 0):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][c]),
                 None)
        if r is None:
            continue
        p = len(pivots)
        rows[p], rows[r] = rows[r], rows[p]
        rows[p] = [x / rows[p][c] for x in rows[p]]
        for k in range(len(rows)):
            if k != p and rows[k][c]:
                rows[k] = [x - rows[k][c] * y
                           for x, y in zip(rows[k], rows[p])]
        pivots.append(c)
    return rows, pivots


def test_row_reduce_small_cases():
    assert _row_reduce([[2, 4, 6], [1, 3, 4]]) == \
        ([[1, 0, 1], [0, 1, 1]], [0, 1])
    # a dependent column is free; an inconsistent row keeps its target
    assert _row_reduce([[1, 1, 2], [2, 2, 5]]) == ([[1, 1, 2], [0, 0, 1]], [0])
    assert _row_reduce([]) == ([], [])


def _assert_solutions_by_brute_force(sc, eqs, bound, outside=None):
    # the reference reads the free variables (the columns that do not
    # raise the rank) and the reach of the pivot variables from the
    # reduced row echelon form, then filters a box that holds every
    # solution whose free variables lie within the bound; with ``outside``
    # the lookup beyond [-outside, outside] keeps the expected solutions
    # with some variable outside it
    from itertools import product
    from math import ceil
    col = {v: k for k, v in enumerate(sc.vars)}
    rows = []
    for form, target in eqs:
        row = [0] * len(sc.vars) + [target - form.const]
        for v, c in form.vars:
            row[col[v]] += c
        rows.append(row)
    rref, pivots = _row_reduce(rows)
    free = [v for v in sc.vars if col[v] not in pivots]
    reach = ceil(max([bound] + [abs(rref[r][-1]) + bound * sum(
        abs(rref[r][col[v]]) for v in free) for r in range(len(pivots))]))
    rng = range(-reach, reach + 1)
    box = (dict(zip(sc.vars, v)) for v in product(rng, repeat=len(sc.vars)))
    expected = [env for env in box
                if all(form.eval(env) == t for form, t in eqs)
                and all(abs(env[v]) <= bound for v in free)
                and props.ref_admits(sc.constraint.node, env)]
    every = list(sc.solutions(eqs, bound))
    assert _assignments(every) == _assignments(expected)
    if outside is not None:
        # the lookup beyond the box and the solutions inside it partition
        # the unrestricted solutions
        beyond = list(sc.solutions(eqs, bound, outside=outside))
        assert _assignments(beyond) == _assignments(
            env for env in expected
            if any(abs(x) > outside for x in env.values()))
        inside = [env for env in every
                  if all(abs(x) <= outside for x in env.values())]
        assert _assignments(every) == _assignments(beyond + inside)


@settings(max_examples=100, deadline=None)
@given(_lead_equations(), st.integers(0, 3), st.integers(0, 4))
def test_solutions_match_a_brute_force_filter(lead, bound, outside):
    _assert_solutions_by_brute_force(*lead, bound, outside)


def _form(const=0, **coeffs):
    from conformal.dsl import IndexForm
    return IndexForm(const=const, vars=tuple(coeffs.items()))


@pytest.mark.parametrize("eqs", [
    [(_form(i=2), 3)],                          # no integer solution
    [(_form(i=2), 4), (_form(j=1, i=-1), 1)],   # a pivot scaled by 1/2
    [(_form(), 1)],                             # 0 = 1
    [(_form(i=1, j=1), 1), (_form(i=1, j=1), 1)],
    [(_form(i=1, j=1), 1), (_form(k=1), 0)],    # j free, i = 1 - j
    [(_form(i=1, j=1), 1), (_form(1, i=1, j=1), 1)],
], ids=["odd", "scaled", "zero-form", "repeated", "free-terms",
        "inconsistent"])
def test_solutions_match_a_brute_force_filter_on_edge_cases(eqs):
    # the rank-deficient, inconsistent and non-integral systems that the
    # drawn equations reach only now and then
    sc = parse_schema("e[i, j, k | i != k]: L_{i+i} (0) L_{j+k} "
                      "- L_{j+k} (0) L_{i+i}")
    for bound in range(3):
        for outside in range(3):
            _assert_solutions_by_brute_force(sc, eqs, bound, outside)


def _assert_solutions_as_reference(sc, eqs, bound, outside=None):
    """The cached integer plan yields what the per-call rational solver
    yields: the same assignments in the same order, keys in the same
    order, so every materialization and report is unchanged."""
    got = [list(env.items()) for env in sc.solutions(eqs, bound, outside)]
    assert got == [list(env.items()) for env in
                   props.ref_solutions(sc, eqs, bound, outside)]


@settings(max_examples=200, deadline=None)
@given(_lead_equations(), st.integers(0, 4), st.none() | st.integers(0, 4))
def test_solutions_match_the_rational_solver(lead, bound, outside):
    _assert_solutions_as_reference(*lead, bound, outside)


def test_solutions_match_the_rational_solver_on_every_template():
    # one cached plan per template serves the whole grid of targets
    from conformal.envelope import SchemaIndex
    for pf in _shipped_family_files():
        for templates in SchemaIndex(pf.schemas, pf.sig).by_shape.values():
            for sc, forms, _ in templates:
                for t in range(-5, 6):
                    for step in range(-2, 3):
                        eqs = [(form, t + k * step)
                               for k, form in enumerate(forms)]
                        _assert_solutions_as_reference(sc, eqs, 5, 3)
                        _assert_solutions_as_reference(sc, eqs, 2)
                assert forms in sc._plans


def _template_slices(index, targets):
    """Per kept shape of the index, the slice with the given indices."""
    from itertools import product
    for names, juncs in index.by_shape:
        for ts in product(targets, repeat=len(names)):
            letters = [gen(g, t) for g, t in zip(names, ts)]
            yield tuple(x for g, n in zip(letters, juncs + (None,))
                        for x in (g, n))[:-1]


def test_lookup_matches_the_monic_first_reference_on_every_template():
    # dropping an instance that does not lead at the slice before making it
    # monic keeps the same polynomials in the same order
    from conformal.envelope import SchemaIndex
    for pf in _shipped_family_files():
        index = SchemaIndex(pf.schemas, pf.sig)
        for sub in _template_slices(index, range(-6, 7)):
            for outside in (None, 4):
                got = index.instances_for(sub, outside=outside)
                want = props.ref_instances_for(index, sub, outside)
                assert [p.canonical_key() for p in got] == \
                    [p.canonical_key() for p in want], (sub, outside)


def test_one_plan_serves_consistent_non_integral_and_inconsistent_targets():
    from dataclasses import replace
    sc = parse_schema("e[i, j, k | i != k]: L_{i+i} (0) L_{j+k} "
                      "- L_{j+k} (0) L_{i+i}")
    # expression trees compare by identity, so the unsolved twin shares
    # the parsed fields; it gets its own empty plans
    twin = replace(sc)
    forms = [_form(i=2), _form(i=1, j=1), _form(i=2, j=2)]
    for targets in [(2, 1, 2),    # i = 1, j = 0, k free
                    (3, 1, 2),    # 2i = 3 has no integer solution
                    (2, 1, 3)]:   # i + j = 1 and 2i + 2j = 3
        eqs = list(zip(forms, targets))
        for bound in range(3):
            for outside in (None, 0, 1):
                _assert_solutions_by_brute_force(sc, eqs, bound, outside)
                _assert_solutions_as_reference(sc, eqs, bound, outside)
    assert list(sc._plans) == [tuple(forms)]
    # the plans stay out of equality and the repr
    assert not twin._plans
    assert sc == twin and repr(sc) == repr(twin)


def test_plans_are_one_per_template_after_a_check():
    """Each schema keeps at most one plan per ``by_shape`` template of its
    own, plus the eager window's plan of no forms."""
    import os
    from types import SimpleNamespace
    from conformal import cli
    ctx = cli._load_context(SimpleNamespace(
        command="check", file=os.path.join(
            os.path.dirname(__file__), "..", "presentations",
            "heisenberg_virasoro.alg")))
    check_gsb_rset(ctx.rset, ctx.gens, comp_filter=ctx.sources)
    index = ctx.rset.lazy
    assert ctx.rset.materialized
    for sc in index.schemas:
        forms = [f for templates in index.by_shape.values()
                 for s, f, _ in templates if s is sc]
        assert () in sc._plans
        assert set(sc._plans) <= set(forms) | {()}
        assert len(sc._plans) <= len(forms) + 1


_LEAVES = ["H_i", "L_i", "L_j", "L_{i+j}", "H_0", "L_{j-i}"]


@st.composite
def _template_text(draw, depth=1):
    """A sum of products whose factors may be D powers of leaves or of
    parenthesized sums; junctions reach N and above, and a term may repeat
    with another coefficient so that words collide."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            d = draw(st.integers(0, 2))
            atom = (f"( {draw(_template_text(depth - 1))} )"
                    if depth and draw(st.booleans())
                    else draw(st.sampled_from(_LEAVES)))
            factors.append(f"D^{d} {atom}" if d else atom)
        text = factors[0]
        for fac in factors[1:]:
            text += f" ({draw(st.integers(0, 3))}) {fac}"
        terms.append(text)
    if draw(st.booleans()):
        terms.append(terms[0])
    return " ".join(f"+ {draw(st.sampled_from(['1', '2', '1/2', '0']))} * {t}"
                    if draw(st.booleans()) else f"- {t}" for t in terms)


@settings(max_examples=40, deadline=None)
@given(_template_text(), st.integers(1, 3))
def test_compiled_instances_match_the_reference_hypothesis(text, N):
    # any template: the compiled instances are the reference's, and the lazy
    # lookup and could_reduce see every instance's leading word
    from conformal.envelope import SchemaIndex
    sig = AlgebraSignature.indexed(["H", "L"], N)
    schema = parse_schema("f[i, j]: " + text)
    box = range(-2, 3)
    insts = [schema.instantiate({"i": i, "j": j}, sig)
             for i in box for j in box]
    assert insts == [props.reference_instance(schema, {"i": i, "j": j}, sig)
                     for i in box for j in box]
    index = SchemaIndex([schema], sig)
    for p in _monic_prepare(insts):
        assert index.could_reduce(p.leading())
        assert RelationSet(sig, [], lazy=index).has_reduction(p.leading())
        sub = p.leading()[:-1]
        assert index.instances_for(sub) == props.ref_instances_for(index, sub)


@pytest.mark.parametrize("name", ["virasoro", "heisenberg-virasoro"])
def test_builtin_tables_are_skew_symmetric(name):
    # x [n] y = -{y [n] x} = -sum_k (-1)^(n+k) / k! D^k (y [n+k] x)
    from math import factorial
    table = builtin_example(name, IndexWindow(W=1, M=2)).table
    sig = table.sig
    for (x, n, y), val in table.entries.items():
        assert (y, n, x) in table.entries
        conj = ConformalPolynomial.zero(sig)
        for k in range(sig.N - n):
            conj = conj + apply_D(table.value(y, n + k, x), k).scale(
                Fraction((-1) ** (n + k), factorial(k)))
        assert val == -conj, (x, n, y)


def test_index_window_rejects_non_positive():
    from conformal import ConformalError
    for W, M in [(0, 4), (-1, 4), (2, 0)]:
        with pytest.raises(ConformalError) as err:
            IndexWindow(W, M)
        assert isinstance(err.value, ValueError)


def test_completion_idempotent(sig_a2):
    from conformal import complete
    first = complete([parse_poly("a (1) a - a (0) D a", sig_a2)], sig_a2,
                     sig_a2.generators)
    second = complete(first.basis, sig_a2, sig_a2.generators)
    assert second.completed and second.added == 0
    assert second.basis == first.basis


def test_abelian_envelope_locality_one():
    # two commuting generators at N = 1: the single commutation relation is
    # already a basis and the irreducible words are the sorted monomials
    sig = AlgebraSignature.finite(["x", "y"], 1)
    x, y = sig.generators
    zero = ConformalPolynomial.zero(sig)
    table = LieTable(sig, {(a, 0, b): zero for a in (x, y) for b in (x, y)})
    rels = enveloping_presentation(table)
    assert rels == [parse_poly("y (0) x - x (0) y", sig)]
    from conformal import complete, irr_enumerate
    res = complete(rels, sig, sig.generators)
    assert res.completed and res.basis == rels
    assert check_gsb_rset(RelationSet(sig, res.basis),
                          sig.generators).is_gsb
    words = irr_enumerate(RelationSet(sig, res.basis), sig.generators, 3, 0)
    # no word may contain the factor y (0) x, so letters come sorted
    for w in words:
        letters = [g.name for g in w.letters()]
        assert letters == sorted(letters)
    assert len(words) == 2 + 3 + 4


def test_rank_one_abelian_envelope_locality_two(sig_a2):
    # one generator with zero bracket at N = 2: the commutator relations
    # interreduce to the single relation a (1) a
    a = sig_a2.generators[0]
    zero = ConformalPolynomial.zero(sig_a2)
    table = LieTable(sig_a2, {(a, 0, a): zero, (a, 1, a): zero})
    rels = enveloping_presentation(table)
    keys = {p.canonical_key() for p in rels}
    assert parse_poly("a (1) a", sig_a2).canonical_key() in keys
    assert parse_poly("a (1) D a - a (0) a", sig_a2).canonical_key() in keys
    from conformal import complete, irr_enumerate
    res = complete(rels, sig_a2, sig_a2.generators)
    assert res.completed
    assert res.basis == [parse_poly("a (1) a", sig_a2)]
    assert check_gsb_rset(RelationSet(sig_a2, res.basis),
                          sig_a2.generators).is_gsb
    words = irr_enumerate(RelationSet(sig_a2, res.basis), sig_a2.generators,
                          3, 1)
    for w in words:
        assert all(n == 0 for n in w.junctions())
    assert len(words) == 6


def test_two_generator_abelian_envelope_locality_two():
    # two commuting generators at N = 2 complete to a four-relation basis;
    # the D-free irreducible words are x-chains into y-chains with a single
    # free junction index at the boundary, 2*l words in each length l
    sig = AlgebraSignature.finite(["x", "y"], 2)
    x, y = sig.generators
    zero = ConformalPolynomial.zero(sig)
    table = LieTable(sig, {(a, n, b): zero for a in (x, y) for b in (x, y)
                           for n in (0, 1)})
    from conformal import complete
    from conformal.rewriting import irr_enumerate
    res = complete(enveloping_presentation(table), sig, sig.generators)
    assert res.completed
    assert res.basis == [parse_poly(t, sig) for t in
                         ["x (1) x",
                          "y (0) x + x (1) D y - 2 * x (0) y",
                          "y (1) x + x (1) y",
                          "y (1) y"]]
    assert check_gsb_rset(RelationSet(sig, res.basis),
                          sig.generators).is_gsb
    words = irr_enumerate(RelationSet(sig, res.basis), sig.generators, 4, 0)
    by_len = {}
    for w in words:
        by_len.setdefault(w.length, []).append(w)
        names = [g.name for g in w.letters()]
        assert names == sorted(names)
        ones = [i for i, n in enumerate(w.junctions()) if n == 1]
        assert len(ones) <= 1
        if ones:
            # the only index-1 junction sits at the x-to-y boundary
            i = ones[0]
            assert names[i] == "x" and names[i + 1] == "y"
    assert {l: len(ws) for l, ws in by_len.items()} == {1: 2, 2: 4, 3: 6, 4: 8}
