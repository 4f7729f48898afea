import random
from math import factorial

import pytest

from ultrahom.errors import GraphError
from ultrahom.perms import (IndexPerm, _generates_symmetric, all_perms, closure,
                            generates_symmetric, group_order, word_to)


def test_construction_and_parse():
    p = IndexPerm.from_cycles(4, [(1, 2), (3, 4)])
    assert p(1) == 2 and p(3) == 4
    assert IndexPerm.parse(4, "(1 2)(3 4)") == p
    assert IndexPerm.parse(3, "id").is_identity()
    assert p.cycle_notation() == "(1 2)(3 4)"
    with pytest.raises(GraphError):
        IndexPerm((1, 1, 3))


def test_algebra():
    a = IndexPerm.from_cycles(3, [(1, 2, 3)])
    b = IndexPerm.from_cycles(3, [(1, 2)])
    assert (a * a * a).is_identity()
    assert (a * a.inverse()).is_identity()
    assert a.order() == 3 and b.order() == 2 and (a * b).order() == 2
    assert a.power(-1) == a.inverse()
    assert a.support() == {1, 2, 3}
    assert a.orbit(1) == [1, 2, 3]
    # right action: (1)(ab) = ((1)a)b = (2)b = 1
    assert (a * b)(1) == 1


def test_closure_sizes():
    a = IndexPerm.from_cycles(3, [(1, 2, 3)])
    assert len(closure(3, [a])) == 3
    b = IndexPerm.from_cycles(3, [(1, 2)])
    assert len(closure(3, [a, b])) == 6
    assert generates_symmetric(3, [a, b])
    assert not generates_symmetric(4, [IndexPerm.from_cycles(4, [(1, 2), (3, 4)]),
                                       IndexPerm.from_cycles(4, [(1, 3), (2, 4)])])


def test_all_perms_count():
    assert len(list(all_perms(4))) == 24


def test_word_to_reaches_target():
    a = IndexPerm.from_cycles(4, [(1, 2, 3, 4)])
    b = IndexPerm.from_cycles(4, [(1, 2)])
    for target in all_perms(4):
        steps = word_to(4, a, b, target)
        acc = IndexPerm.identity(4)
        for letter, sign in steps:
            gen = a if letter == "a" else (b if sign > 0 else b.inverse())
            acc = acc * gen
        assert acc == target
        assert all(not (letter == "a" and sign < 0) for letter, sign in steps)


def test_word_to_unreachable():
    a = IndexPerm.from_cycles(3, [(1, 2, 3)])
    with pytest.raises(GraphError):
        word_to(3, a, a, IndexPerm.from_cycles(3, [(1, 2)]))


def _pointwise_power(p, k):
    """Reference: apply p (or its inverse) |k| times to every point."""
    n = p.n
    inv = {p(i): i for i in range(1, n + 1)}
    img = []
    for i in range(1, n + 1):
        v = i
        for _ in range(abs(k)):
            v = p(v) if k > 0 else inv[v]
        img.append(v)
    return tuple(img)


def test_arithmetic_matches_pointwise_definitions_for_n_up_to_5():
    for n in range(1, 6):
        perms = list(all_perms(n))
        ident = tuple(range(1, n + 1))
        for p in perms:
            for k in range(-7, 8):
                assert p.power(k).images == _pointwise_power(p, k), (p, k)
            order = next(k for k in range(1, 200) if _pointwise_power(p, k) == ident)
            assert p.order() == order
            inv = p.inverse()
            assert all(inv(p(i)) == i and p(inv(i)) == i for i in range(1, n + 1))
            assert p.cycles(include_fixed=True) == p.cycles(include_fixed=True)
            assert sorted(i for c in p.cycles(include_fixed=True) for i in c) == list(ident)
            assert all(len(c) > 1 for c in p.cycles())
        for p in perms if n < 5 else perms[::7]:
            for q in perms:
                # right action: (i)(p * q) = ((i)p)q
                assert (p * q).images == tuple(q(p(i)) for i in range(1, n + 1))
                assert p * q == IndexPerm((p * q).images)  # a valid permutation, equal to a checked one


def test_group_order_matches_closure_on_every_pair_up_to_n5():
    """Every ordered pair at n <= 5.  Conjugating both generators by one g conjugates
    the group they generate, so ``closure`` runs once per orbit of pairs under
    conjugation, and its size holds for the whole orbit."""
    for n in range(1, 6):
        perms = list(all_perms(n))
        size = {}
        for a in perms:
            for b in perms:
                if (a, b) not in size:
                    k = len(closure(n, [a, b]))
                    for g in perms:
                        gi = g.inverse()
                        size[gi * a * g, gi * b * g] = k
                assert group_order(n, [a, b]) == size[a, b], (a, b)
                assert generates_symmetric(n, [a, b]) == (size[a, b] == factorial(n))


def test_generates_symmetric_from_cold_and_warm_cache_matches_closure_up_to_n4():
    """Every ordered pair at n <= 4, first with the cache cleared and then again from
    the cache: the answer is group_order's and closure's, whichever serves it."""
    _generates_symmetric.cache_clear()
    for n in range(1, 5):
        pairs = [(a, b) for a in all_perms(n) for b in all_perms(n)]
        want = [len(closure(n, [a, b])) == factorial(n) for a, b in pairs]
        assert want == [group_order(n, [a, b]) == factorial(n) for a, b in pairs]
        misses = _generates_symmetric.cache_info().misses
        assert [generates_symmetric(n, [a, b]) for a, b in pairs] == want
        assert _generates_symmetric.cache_info().misses == misses + len(pairs)
        hits = _generates_symmetric.cache_info().hits
        assert [generates_symmetric(n, (a, b)) for a, b in pairs] == want
        assert _generates_symmetric.cache_info().hits == hits + len(pairs)
        assert any(want) and (n < 3 or not all(want))


def test_group_order_matches_closure_on_random_pairs_n6_to_n8():
    rng = random.Random(8)
    seen = set()
    for n, count in ((6, 20), (7, 8), (8, 3)):
        for _ in range(count):
            gens = [IndexPerm(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2)]
            if rng.random() < 0.5:  # a pair inside a proper subgroup: both fix n
                gens = [IndexPerm(tuple(rng.sample(range(1, n), n - 1)) + (n,))
                        for _ in range(2)]
            k = len(closure(n, gens))
            assert group_order(n, gens) == k, gens
            assert generates_symmetric(n, gens) == (k == factorial(n))
            seen.add(k == factorial(n))
    assert seen == {True, False}
