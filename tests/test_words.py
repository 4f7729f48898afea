import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_injection_in_clique
from ultrahom.certs import brute_force_word_eval
from ultrahom.errors import GraphError, HypothesisError, IsoError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.oracles import FrozenOracle, NKOracle
from ultrahom.partial_iso import IsoBuilder, from_pairs, identity_on, compose
from ultrahom.perms import IndexPerm
from ultrahom.words import (FreeWord, WordWalks, b_count, chase, check_word_condition,
                            concat, empty_word, evaluate, invert_word,
                            largest_defined_prefix, parse_word, reduce_word,
                            swap_a_sign, word_index_image)

syllables = st.lists(st.tuples(st.sampled_from("ab"),
                               st.integers(-4, 4).filter(bool)), max_size=8)


def test_reduce_examples():
    assert reduce_word([("a", 1), ("b", 1), ("b", -1)]) == reduce_word([("a", 1)])
    assert reduce_word([]) == empty_word()
    with pytest.raises(GraphError):
        reduce_word([("a", 0)])
    with pytest.raises(GraphError):
        FreeWord((("a", 1), ("a", 2)))


@given(syllables)
def test_reduce_idempotent(raw):
    w = reduce_word(raw)
    assert reduce_word(w.syllables) == w


@given(syllables, syllables)
def test_concat_associative_via_reduction(r1, r2):
    u, v = reduce_word(r1), reduce_word(r2)
    assert concat(u, v) == reduce_word(list(r1) + list(r2))
    assert b_count(concat(u, v)) <= b_count(u) + b_count(v)


@given(syllables)
def test_parse_round_trip(raw):
    w = reduce_word(raw)
    assert parse_word(str(w)) == w


def test_word_views():
    w = parse_word("a^3 b^-1 a")
    assert len(w) == 5
    assert w.letters() == [("a", 1)] * 3 + [("b", -1)] + [("a", 1)]
    assert w.prefix(2) == parse_word("a^2")
    assert w.starts_with("a") and not w.has_negative("a") and w.has_negative("b")
    assert invert_word(w) == parse_word("a^-1 b a^-3")
    assert swap_a_sign(w) == parse_word("a^-3 b^-1 a^-1")
    assert b_count(parse_word("a^5")) == 0
    assert b_count(parse_word("a b^-2 a b")) == 3


def test_evaluate_letter_examples(nk2):
    v = nk2.vertex
    pairs = [(v(1, 0), v(1, 1)), (v(1, 1), v(1, 2))]
    p = from_pairs(nk2, pairs)
    f = FrozenOracle(nk2, [(v(1, 5), v(1, 6))])
    assert evaluate(parse_word("a"), p, f) == p
    # raw, unreduced sequence: a^-1 a realizes the identity on ran(p)
    raw = evaluate([("a", -1), ("a", 1)], p, f)
    assert raw == identity_on(nk2, p.ran())
    assert evaluate(empty_word(), p, f) == identity_on(nk2, p.support())


def test_evaluate_matches_brute_force(nk2):
    rng = random.Random(11)
    for _ in range(400):
        raw = [(rng.choice("ab"), rng.choice([-2, -1, 1, 2]))
               for _ in range(rng.randint(0, 5))]
        w = reduce_word(raw)
        p = from_pairs(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 4)))
        f_pairs = random_injection_in_clique(nk2, rng, rng.randint(0, 4))
        f = FrozenOracle(nk2, f_pairs)
        got = evaluate(w, p, f).pairs()
        assert list(got) == brute_force_word_eval(str(w), p.pairs(), f_pairs)


def test_evaluate_concat_homomorphism_without_cancellation(nk2):
    # literal products agree when the seam neither cancels nor flips sign
    rng = random.Random(12)
    trials = 0
    while trials < 150:
        r1 = [(rng.choice("ab"), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 3))]
        r2 = [(rng.choice("ab"), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 3))]
        u, v = reduce_word(r1), reduce_word(r2)
        if not u or not v:
            continue
        (l1, e1), (l2, e2) = u.syllables[-1], v.syllables[0]
        if l1 == l2 and (e1 > 0) != (e2 > 0):
            continue  # cancellation at the seam changes the partial-map domain
        trials += 1
        p = from_pairs(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 4)))
        f = FrozenOracle(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 4)))
        assert evaluate(concat(u, v), p, f) == compose(evaluate(u, p, f),
                                                       evaluate(v, p, f))


def test_all_b_word_needs_finite_oracle(nk2):
    p = from_pairs(nk2, [(nk2.vertex(1, 0), nk2.vertex(1, 1))])
    f = NKOracle(nk2, IndexPerm.identity(2), fixed_tail=(1, 2))
    with pytest.raises(GraphError, match="no finite realization"):
        evaluate(parse_word("b^2"), p, f)
    frozen = FrozenOracle(nk2, [(nk2.vertex(1, 3), nk2.vertex(1, 4))])
    assert evaluate(parse_word("b"), p, frozen).pairs() == \
        ((nk2.vertex(1, 3), nk2.vertex(1, 4)),)


def test_largest_defined_prefix(nk2):
    v = nk2.vertex
    p = from_pairs(nk2, [(v(1, 0), v(1, 1))])
    f = FrozenOracle(nk2, [(v(1, 1), v(1, 0))])
    w = parse_word("a b a")
    assert largest_defined_prefix(w, p, f, v(1, 0)) == w  # 0 ->a 1 ->b 0 ->a 1
    assert largest_defined_prefix(parse_word("a a"), p, f, v(1, 0)) == parse_word("a")
    assert largest_defined_prefix(parse_word("a"), p, f, v(1, 5)) == empty_word()


def test_largest_defined_prefix_property(nk2):
    rng = random.Random(13)
    for _ in range(200):
        raw = [(rng.choice("ab"), rng.choice([-1, 1])) for _ in range(rng.randint(1, 6))]
        w = reduce_word(raw)
        p = from_pairs(nk2, random_injection_in_clique(nk2, rng, rng.randint(1, 4)))
        f = FrozenOracle(nk2, random_injection_in_clique(nk2, rng, rng.randint(1, 4)))
        x = nk2.vertex(1, rng.randrange(12))
        pre = largest_defined_prefix(w, p, f, x)
        assert pre.is_prefix_of(w)
        assert chase(pre, x, p, f) is not None
        if len(pre) < len(w):
            assert chase(w.prefix(len(pre) + 1), x, p, f) is None


def test_word_index_image(nk2):
    sq = IndexPerm.from_cycles(2, [(1, 2)])
    sf = IndexPerm.identity(2)
    assert word_index_image(parse_word("a^2"), sq, sf).is_identity()
    assert word_index_image(parse_word("a b a"), sq, sf).is_identity()
    assert not word_index_image(parse_word("a"), sq, sf).is_identity()


def test_check_word_condition_vacuous_and_failures(nk2):
    v = nk2.vertex
    f = NKOracle(nk2, IndexPerm.from_cycles(2, [(1, 2)]))
    q = from_pairs(nk2, [(v(1, 0), v(2, 0)), (v(2, 1), v(1, 1))])
    w = parse_word("a^2")
    rep = check_word_condition(q, (), (), (), (), w, f)
    assert rep.holds and not rep.failed_clauses
    # clause 2: delta overlapping ran(p)
    rep = check_word_condition(q, (), (), (), (v(2, 0),), w, f)
    assert rep.failed_clauses == [2] and 2 in rep.witnesses
    # clause 3: a gamma point outside dom(w(p)) while theta demands it
    rep = check_word_condition(q, (v(1, 9),), (v(1, 9),), (), (), w, f)
    assert 3 in rep.failed_clauses
    # clause 1: a word whose index image is a transposition
    rep = check_word_condition(q, (), (), (), (), parse_word("a"), f)
    assert rep.failed_clauses == [1]
    with pytest.raises(HypothesisError):
        check_word_condition(q, (), (v(1, 0),), (), (), w, f)


def test_check_word_condition_clause6(nk2):
    v = nk2.vertex
    f = NKOracle(nk2, IndexPerm.from_cycles(2, [(1, 2)]))
    # w = a: gamma point 1,0 maps to 2,0 which then walks into phi
    q = from_pairs(nk2, [(v(1, 0), v(2, 0)), (v(2, 0), v(1, 1)), (v(1, 1), v(2, 2))])
    rep = check_word_condition(q, (v(1, 0),), (v(1, 0),), (v(1, 1),), (),
                               parse_word("a"), f)
    assert 6 in rep.failed_clauses


def test_prefix_matches_letter_slicing():
    rng = random.Random(14)
    for _ in range(300):
        w = reduce_word([(rng.choice("ab"), rng.choice([-3, -2, -1, 1, 2, 3]))
                         for _ in range(rng.randint(0, 6))])
        for k in range(len(w) + 1):
            assert w.prefix(k) == reduce_word(w.letters()[:k])


def _walk_oracle(word, p, f, x):
    """Letter by letter reference: the largest defined prefix length and its image."""
    v, k = x, 0
    for letter, sign in word.letters():
        if letter == "a":
            u = p.apply(v) if sign > 0 else p.unapply(v)
        else:
            u = f.try_image(v) if sign > 0 else f.try_preimage(v)
        if u is None:
            break
        v, k = u, k + 1
    return k, v


def test_word_walks_follow_a_growing_map():
    for seed in range(40):
        rng = random.Random(seed)
        n = 2 + seed % 4
        s = GraphSession(GraphKind.nk_omega(n))
        sf = IndexPerm(tuple(rng.sample(range(1, n + 1), n)))
        f = NKOracle(s, sf) if seed % 2 else \
            FrozenOracle(s, random_injection_in_clique(s, rng, 4, spread=8))
        raw = [(rng.choice("ab"), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 7))]
        w = reduce_word(raw)
        spread = 8
        points = sorted({s.vertex(rng.randint(1, n), rng.randrange(spread))
                         for _ in range(4)})
        b = IsoBuilder(from_pairs(s, []))
        walks = WordWalks(w, b, f, points)
        for _ in range(30):
            x = s.vertex(rng.randint(1, n), rng.randrange(spread))
            y = s.vertex(rng.randint(1, n), rng.randrange(spread))
            try:
                b.add(x, y)
            except IsoError:
                continue
            walks.on_add(x, y)
            p = b.freeze()
            for u in points:
                pre = largest_defined_prefix(w, p, f, u)
                assert walks.prefix(u) == pre
                assert walks.consumed(u) == len(pre) == _walk_oracle(w, p, f, u)[0]
                assert walks.value(u) == chase(pre, u, p, f) == _walk_oracle(w, p, f, u)[1]
                if len(pre) < len(w):
                    assert walks.next_letter(u) == w.letters()[len(pre)]
                else:
                    assert walks.next_letter(u) is None
                    assert chase(w, u, p, f) == walks.value(u)


def test_chase_and_prefix_agree_with_letter_walks(nk2):
    rng = random.Random(15)
    for _ in range(300):
        raw = [(rng.choice("ab"), rng.choice([-3, -1, 1, 2])) for _ in range(rng.randint(0, 6))]
        w = reduce_word(raw)
        p = from_pairs(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 5), spread=8))
        f = FrozenOracle(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 5), spread=8))
        x = nk2.vertex(1, rng.randrange(8))
        k, v = _walk_oracle(w, p, f, x)
        assert len(largest_defined_prefix(w, p, f, x)) == k
        assert chase(w, x, p, f) == (v if k == len(w) else None)
        assert chase(raw, x, p, f) == chase(w, x, p, f)
