import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CountingDict, brute_components, random_band_oracle,
                      random_injection_in_clique)
from ultrahom.certs import brute_force_word_eval
from ultrahom.errors import GraphError, HypothesisError, IsoError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.oracles import FrozenOracle, LazyOracle, NKOracle, OmegaShiftOracle
from ultrahom.partial_iso import IsoBuilder, PartialIso, from_pairs, identity_on, compose
from ultrahom.perms import IndexPerm, all_perms
from ultrahom.words import (FreeWord, WordWalks, b_count, chase, check_word_condition,
                            concat, empty_word, evaluate, landing_orbit,
                            largest_defined_prefix, parse_word, reduce_word,
                            swap_a_sign, walk, word_index_image)

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
        assert w.letters()[:len(pre)] == pre.letters()
        assert chase(pre, x, p, f) is not None
        if len(pre) < len(w):
            assert chase(w.prefix(len(pre) + 1), x, p, f) is None


def test_word_index_image(nk2):
    sq = IndexPerm.from_cycles(2, [(1, 2)])
    sf = IndexPerm.identity(2)
    assert word_index_image(parse_word("a^2"), sq, sf).is_identity()
    assert word_index_image(parse_word("a b a"), sq, sf).is_identity()
    assert not word_index_image(parse_word("a"), sq, sf).is_identity()


def _index_image_by_products(w, sq, sf):
    """Reference: one IndexPerm power per syllable, multiplied left to right."""
    out = IndexPerm.identity(sq.n)
    for letter, exp in w.syllables:
        out = out * (sq if letter == "a" else sf).power(exp)
    return out


def test_word_index_image_matches_syllable_products():
    """Every pair of permutations for n <= 4 and random pairs for n = 5..8, on random
    reduced words with negative exponents and exponents above the orders."""
    rng = random.Random(31)
    pairs = [(a, b) for n in range(1, 5) for a in all_perms(n) for b in all_perms(n)]
    for n in range(5, 9):
        pairs += [(IndexPerm(tuple(rng.sample(range(1, n + 1), n))),
                   IndexPerm(tuple(rng.sample(range(1, n + 1), n)))) for _ in range(60)]
    negative = above_order = 0
    for sq, sf in pairs:
        top = 2 * max(sq.order(), sf.order()) + 2
        for _ in range(3):
            w = reduce_word([(rng.choice("ab"), rng.choice([-1, 1]) * rng.randint(1, top))
                             for _ in range(rng.randint(0, 9))])
            assert word_index_image(w, sq, sf) == _index_image_by_products(w, sq, sf)
            negative += any(e < 0 for _, e in w.syllables)
            above_order += any(abs(e) > (sq if l == "a" else sf).order()
                               for l, e in w.syllables)
    assert negative > 500 and above_order > 500


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


def test_check_word_condition_needs_a_total_index_perm(nk2):
    """Clause 1 is read in the index group, so p must move every component."""
    v = nk2.vertex
    f = NKOracle(nk2, IndexPerm.from_cycles(2, [(1, 2)]))
    q = from_pairs(nk2, [(v(1, 0), v(2, 0))])  # nothing leaves component 2
    assert q.index_perm() is None
    with pytest.raises(HypothesisError, match="index-perm-total"):
        check_word_condition(q, (), (), (), (), parse_word("a^2"), f)


def test_check_word_condition_clause6(nk2):
    v = nk2.vertex
    f = NKOracle(nk2, IndexPerm.from_cycles(2, [(1, 2)]))
    # w = a: gamma point 1,0 maps to 2,0 which then walks into phi
    q = from_pairs(nk2, [(v(1, 0), v(2, 0)), (v(2, 0), v(1, 1)), (v(1, 1), v(2, 2))])
    rep = check_word_condition(q, (v(1, 0),), (v(1, 0),), (v(1, 1),), (),
                               parse_word("a"), f)
    assert 6 in rep.failed_clauses


def test_check_word_condition_clause5(nk2):
    v = nk2.vertex
    f = NKOracle(nk2, IndexPerm.identity(2))
    # w = a on an index-fixing map: (1,1) walks onto (1,0), where the walk of (1,0)
    # stops at once, so the two largest-prefix images collide
    q = from_pairs(nk2, [(v(1, 1), v(1, 0)), (v(2, 0), v(2, 1))])
    rep = check_word_condition(q, (v(1, 0), v(1, 1)), (v(1, 1),), (), (), parse_word("a"), f)
    assert rep.failed_clauses == [5]
    assert rep.witnesses[5] == f"points {v(1, 0)} and {v(1, 1)} collide at {v(1, 0)}"


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
                assert walks.b_consumed(u) == b_count(w.prefix(walks.consumed(u)))
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


def test_landing_orbit_matches_brute_components(nk2):
    """Chains and cycles of up to 40 vertices: the orbit of z is the vertex set of its
    component, on a value and on a builder, and z alone outside the support."""
    rng = random.Random(302)
    for _ in range(40):
        pts = [nk2.vertex(1, t) for t in rng.sample(range(400), 120)]
        pairs, i = [], 0
        while i < len(pts):
            size = rng.randint(1, 40)
            comp = pts[i:i + size]
            i += size
            pairs += zip(comp, comp[1:])
            if rng.random() < 0.4:
                pairs.append((comp[-1], comp[0]))
        p = from_pairs(nk2, pairs)
        b = IsoBuilder(p)
        outside = nk2.vertex(1, 400)
        assert landing_orbit(p, outside) == landing_orbit(b, outside) == (outside,)
        for chain, _ in brute_components(pairs):
            for z in chain:
                assert set(landing_orbit(p, z)) == set(landing_orbit(b, z)) == set(chain)


def test_walk_matches_a_letter_by_letter_walk_on_unreduced_syllables(nk2):
    """Raw syllables are walked as written: a a^-1 is the identity on dom(p) only."""
    rng = random.Random(10)
    for _ in range(400):
        raw = []
        for _ in range(rng.randint(0, 7)):
            letter, exp = rng.choice("ab"), rng.choice([-3, -2, -1, 1, 2, 3])
            raw.append((letter, exp))
            if rng.random() < 0.3:  # an adjacent cancelling syllable
                raw.append((letter, -exp))
        p = from_pairs(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 5), spread=8))
        f = FrozenOracle(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 5), spread=8))
        x = nk2.vertex(1, rng.randrange(8))
        v = x
        for letter, exp in raw:
            for _ in range(abs(exp)):
                if letter == "a":
                    v = p.apply(v) if exp > 0 else p.unapply(v)
                else:
                    v = f.try_image(v) if exp > 0 else f.try_preimage(v)
                if v is None:
                    break
            if v is None:
                break
        assert walk(raw, x, p, f) == v


def test_a_syllables_cost_the_map_not_the_exponent(nk2):
    """On a 3-cycle, a^k is a few lookups whatever k is, in walk, chase and evaluate."""
    cycle = [nk2.vertex(1, t) for t in range(3)]
    iso = from_pairs(nk2, list(zip(cycle, cycle[1:] + cycle[:1])))
    p = PartialIso(nk2, CountingDict(iso._fwd), CountingDict(iso._bwd))
    f = FrozenOracle(nk2, [])
    x = cycle[0]
    for k in (10 ** 6, -(10 ** 6) - 1):
        CountingDict.lookups = 0
        want = cycle[k % 3]
        assert walk([("a", k)], x, p, f) == want
        assert chase(parse_word(f"a^{k}"), x, p, f) == want
        assert evaluate(parse_word(f"a^{k}"), p, f).apply(x) == want
        assert CountingDict.lookups < 100


def _stepped(f, v, k):
    """(v)f^k one oracle step at a time: the reference for every oracle's chase."""
    for _ in range(abs(k)):
        v = f.try_image(v) if k > 0 else f.try_preimage(v)
        if v is None:
            return None
    return v


def test_every_oracle_chase_matches_stepping(nk2, h3):
    """Frozen maps with chains and cycles, policy oracles with bands and fixed tails,
    shifts with a position permutation, and lazy caches: chase(v, k) is k steps."""
    rng = random.Random(14)
    oracles = [FrozenOracle(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 5),
                                                            spread=8)) for _ in range(20)]
    oracles += [random_band_oracle(2 + i % 3, rng) for i in range(20)]
    ok5 = GraphSession(GraphKind.omega_kn(5))
    for _ in range(10):
        pos = list(range(5))
        rng.shuffle(pos)
        oracles.append(OmegaShiftOracle(ok5, rng.choice([-2, -1, 1, 2]), pos))
    for f in oracles:
        s = f.session
        pts = [s.vertex(c, t) for c in ((-1, 0, 3) if s is ok5 else (1, 2)) for t in range(5)]
        for v in pts:
            for k in list(range(-8, 9)) + [rng.randint(-400, 400) for _ in range(4)]:
                assert f.chase(v, k) == _stepped(f, v, k), (f.description(), v, k)
    lazy = LazyOracle(h3)
    x = lazy.fresh_support_point()
    want = _stepped(lazy, x, 5)  # grows the cache, so the chase below only reads it
    assert lazy.chase(x, 5) == want and lazy.chase(want, -5) == x


def test_b_syllables_cost_the_oracle_not_the_exponent(nk2):
    """On a 3-cycle of a frozen oracle, b^k is a few lookups whatever k is, in walk,
    chase and evaluate's pull-back through a leading b syllable."""
    cycle = [nk2.vertex(1, t) for t in range(3)]
    f = FrozenOracle(nk2, list(zip(cycle, cycle[1:] + cycle[:1])))
    f.iso = PartialIso(nk2, CountingDict(f.iso._fwd), CountingDict(f.iso._bwd))
    p = from_pairs(nk2, [(cycle[0], nk2.vertex(1, 7))])
    for k in (10 ** 6, -(10 ** 6) - 1):
        CountingDict.lookups = 0
        want = cycle[k % 3]
        assert walk([("b", k)], cycle[0], p, f) == want
        assert chase(parse_word(f"b^{k}"), cycle[0], p, f) == want
        # b^k a: the pull-back finds the x with (x)f^k = cycle[0]
        x = cycle[-k % 3]
        assert evaluate(parse_word(f"b^{k} a"), p, f).pairs() == ((x, nk2.vertex(1, 7)),)
        assert CountingDict.lookups < 100
