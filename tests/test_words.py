import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conformal import (AlgebraSignature, GeneratorOrder, GeneratorSymbol,
                       NormalWord, SignatureError, compare_words, gen,
                       make_word, parse_word)
from conformal.rewriting import slices
from conftest import random_word
from props import _kernel_sigs, _kernel_word, splice, strip_tail_D


def test_weight_orders_by_length_first(sig_a2):
    a = gen("a")
    w2 = make_word(sig_a2, a, 0, a)
    w3 = make_word(sig_a2, a, 0, a, 0, a)
    # any length-3 word beats any length-2 word, however large the rest
    big2 = make_word(sig_a2, a, 1, a, dpow=50)
    assert compare_words(sig_a2, w3, w2) == 1
    assert compare_words(sig_a2, w3, big2) == 1


def test_index_then_dpow_ordering(sig_a2):
    u = parse_word("a (0) D a", sig_a2)
    v = parse_word("a (0) a", sig_a2)
    w = parse_word("a (1) a", sig_a2)
    assert compare_words(sig_a2, u, v) == 1
    assert compare_words(sig_a2, w, u) == 1   # junction index beats tail dpow
    assert compare_words(sig_a2, u, u) == 0


def test_indexed_generator_order():
    sig = AlgebraSignature.indexed(["L"], 2)
    k = sig.gen_key
    assert k(gen("L", 2)) > k(gen("L", -2)) > k(gen("L", 1)) \
        > k(gen("L", -1)) > k(gen("L", 0))


def test_family_ranking_dominates_index():
    sig = AlgebraSignature.indexed(["H", "L"], 2)
    assert sig.gen_key(gen("L", 0)) > sig.gen_key(gen("H", 100))


@pytest.mark.parametrize("ranking", [["L", "H", "L"], ["H"], ["H", "L", "K"]])
def test_indexed_ranking_names_every_family_once(ranking):
    # a repeated entry would rank its family by its last position
    with pytest.raises(SignatureError, match="exactly once"):
        AlgebraSignature.indexed(["H", "L"], 2, ranking=ranking)
    assert AlgebraSignature.indexed(["H", "L"], 2,
                                    ranking=["L", "H"]).order._rank == \
        {"L": 0, "H": 1}


def test_signature_mismatch_raises(sig_a2, sig_xy3):
    w = make_word(sig_xy3, gen("x"))
    with pytest.raises(SignatureError):
        sig_a2.word_key(w)
    with pytest.raises(SignatureError):
        make_word(sig_a2, gen("a"), 5, gen("a"))


def test_strip_and_append_d(sig_a2):
    a = gen("a")
    w = make_word(sig_a2, a, 1, a, dpow=3)
    assert strip_tail_D(w) == make_word(sig_a2, a, 1, a)
    assert w.append_D(0) is w
    assert make_word(sig_a2, a, dpow=1).append_D(1) == make_word(sig_a2, a, dpow=2)
    assert strip_tail_D(make_word(sig_a2, a, dpow=2)) == make_word(sig_a2, a)


def test_splice_junction_indices():
    sig = AlgebraSignature.finite(["a", "b", "c"], 2)
    a, b, c = sig.generators
    u = make_word(sig, a)
    v = make_word(sig, b, dpow=4)
    assert splice(sig, u, v) == make_word(sig, a, 1, b, dpow=4)
    u2 = make_word(sig, a, 0, b)
    v2 = make_word(sig, c)
    assert splice(sig, u2, v2) == make_word(sig, a, 0, b, 1, c)


def test_splice_length_additive(sig_xy3):
    rng = random.Random(7)
    for _ in range(200):
        u = random_word(rng, sig_xy3)
        v = random_word(rng, sig_xy3)
        assert splice(sig_xy3, u, v).length == u.length + v.length


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_order_is_a_strict_total_order(data):
    sig = AlgebraSignature.finite(["x", "y"], 3)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    u, v, w = (random_word(rng, sig) for _ in range(3))
    cu, cv = compare_words(sig, u, v), compare_words(sig, v, u)
    assert cu == -cv
    assert (cu == 0) == (u == v)
    if compare_words(sig, u, v) <= 0 and compare_words(sig, v, w) <= 0:
        assert compare_words(sig, u, w) <= 0


def test_equal_weights_mean_equal_words(sig_xy3):
    rng = random.Random(3)
    for _ in range(300):
        u = random_word(rng, sig_xy3)
        v = random_word(rng, sig_xy3)
        assert (sig_xy3.word_key(u) == sig_xy3.word_key(v)) == (u == v)


def test_listed_order_rejects_unknown():
    order = GeneratorOrder.listed([gen("a")])
    with pytest.raises(SignatureError):
        order.key(gen("z"))


# interning and representation ------------------------------------------------


def test_generators_are_interned():
    g = GeneratorSymbol("L", 3)
    assert g is gen("L", 3)
    assert GeneratorSymbol(name="L", index=3) is g
    assert gen("L", -3) is not g
    assert copy.deepcopy(g) is g
    assert copy.copy(g) is g
    assert pickle.loads(pickle.dumps(g)) is g


def test_generators_are_immutable():
    g = gen("a")
    with pytest.raises(AttributeError):
        g.name = "b"
    with pytest.raises(AttributeError):
        g.index = 1
    with pytest.raises(AttributeError):
        del g.name
    assert g is gen("a") and g.name == "a" and g.index is None


def test_invalid_generators_and_junctions_raise(sig_a2):
    with pytest.raises(SignatureError):
        GeneratorSymbol("")
    a = gen("a")
    with pytest.raises(SignatureError):
        make_word(sig_a2, a, -1, a)


def test_pickled_word_equals_and_hashes_alike(sig_xy3):
    x, y = sig_xy3.generators
    w = make_word(sig_xy3, x, 2, y, 0, x, dpow=1)
    hash(w)
    back = pickle.loads(pickle.dumps(w))
    assert back == w and back.tail is x
    assert hash(back) == hash(NormalWord(zip(w.letters(), w.junctions()),
                                         w.tail, w.dpow))
    assert copy.deepcopy(w) == w
    assert "_hash" not in repr(w)
    with pytest.raises(AttributeError):
        w.dpow = 2
    with pytest.raises(AttributeError):
        w.tail = y


def _reference_prefix(w, p):
    letters, juncs = w.letters(), w.junctions()
    return NormalWord(tuple((letters[i], juncs[i]) for i in range(p - 1)),
                      letters[p - 1], 0)


def _reference_suffix(w, p):
    letters, juncs = w.letters(), w.junctions()
    return NormalWord(tuple((letters[i], juncs[i])
                            for i in range(p, w.length - 1)), w.tail, w.dpow)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_prefix_and_suffix_match_letter_reference(seed):
    sig = AlgebraSignature.finite(["x", "y"], 3)
    w = random_word(random.Random(seed), sig, max_len=5)
    assert w.prefix_to(0) is None
    for p in range(1, w.length + 1):
        assert w.prefix_to(p) == _reference_prefix(w, p)
    for p in range(0, w.length):
        assert w.suffix_from(p) == _reference_suffix(w, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_word_is_no_slice_and_keys_by_its_weight_tuple(seed):
    # a word is its flat tuple with the D power last: even length, where
    # every flat slice the search looks up has odd length
    rng = random.Random(seed)
    sig = rng.choice(_kernel_sigs())
    w = _kernel_word(rng, sig)
    subs = [sub for _, sub, _ in slices(w, range(1, w.length + 1))]
    keyed = {w: "word"}
    for sub in subs:
        assert sub != w and sub not in {w: None}
        keyed[sub] = "slice"
    assert keyed[w] == "word" and len(keyed) == 1 + len(set(subs))
    parts = [len(w.junctions()) + 1]
    for g, n in zip(w.letters(), w.junctions()):
        parts += [sig.gen_key(g), n]
    assert sig.word_key(w) == tuple(parts + [sig.gen_key(w.tail), w.dpow])


def test_interning_is_race_free_across_threads():
    # more threads than cores, switching as often as possible, all creating
    # the same fresh generators: each must end with one object
    names = [f"race{i}" for i in range(5000)]
    results = [None] * 8
    start = threading.Barrier(len(results))

    def work(slot):
        start.wait()
        results[slot] = [GeneratorSymbol(n, 5) for n in names]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for got in results[1:]:
        assert all(g is h for g, h in zip(got, results[0], strict=True))
    assert results[0][0] is gen("race0", 5)
