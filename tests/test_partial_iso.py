import random

import pytest

from conftest import brute_components, brute_compose, chase_pairs, random_injection_in_clique
from ultrahom.campaigns import nkomega_instance, nkomega_oracle
from ultrahom.errors import IsoError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.partial_iso import (ComponentView, FreshWindow, IsoBuilder, compose,
                                  cycle_free, empty, extend, from_pairs,
                                  identity_on, index_perm_of, invert,
                                  orbit_rep_profile, power, union_extend,
                                  validate)


def test_validate_empty_and_single(nk3, h3):
    assert len(validate(nk3, [])) == 0
    a = h3.alice_witness((), ())
    b = h3.alice_witness((a,), ())
    assert validate(h3, [(a, b)]).pairs() == ((a, b),)


def test_validate_rejections_name_pairs(nk2):
    v = nk2.vertex
    with pytest.raises(IsoError, match="not-injective"):
        validate(nk2, [(v(1, 0), v(1, 1)), (v(1, 0), v(1, 2))])
    with pytest.raises(IsoError, match="not-injective"):
        validate(nk2, [(v(1, 0), v(1, 1)), (v(1, 2), v(1, 1))])
    # two source components into one target component: induced index map collapses
    with pytest.raises(IsoError, match="component-collision"):
        validate(nk2, [(v(1, 0), v(1, 1)), (v(2, 0), v(1, 2))])
    with pytest.raises(IsoError, match="component-split"):
        validate(nk2, [(v(1, 0), v(1, 1)), (v(1, 2), v(2, 0))])


def test_validate_adjacency_mismatch_lazy(h3):
    a = h3.alice_witness((), ())
    b = h3.alice_witness((a,), ())
    c = h3.alice_witness((), ())
    with pytest.raises(IsoError, match="adjacency-mismatch"):
        validate(h3, [(a, a), (b, c)])  # a~b but a!~c


def test_compose_basic(nk2):
    v = nk2.vertex
    f = from_pairs(nk2, [(v(1, 0), v(1, 1))])
    g = from_pairs(nk2, [(v(1, 1), v(1, 2))])
    assert compose(f, g).pairs() == ((v(1, 0), v(1, 2)),)
    h = from_pairs(nk2, [(v(1, 3), v(1, 4))])
    assert len(compose(f, h)) == 0


def test_compose_matches_brute_force(nk2):
    rng = random.Random(4)
    for _ in range(200):
        p1 = random_injection_in_clique(nk2, rng, rng.randint(0, 4))
        p2 = random_injection_in_clique(nk2, rng, rng.randint(0, 4))
        got = compose(from_pairs(nk2, p1), from_pairs(nk2, p2)).pairs()
        assert list(got) == brute_compose(p1, p2)


def test_compose_associative(nk2):
    rng = random.Random(5)
    for _ in range(150):
        f, g, h = (from_pairs(nk2, random_injection_in_clique(nk2, rng, rng.randint(0, 4)))
                   for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_power_and_invert(nk2):
    v = nk2.vertex
    f = from_pairs(nk2, [(v(1, 0), v(1, 1)), (v(1, 1), v(1, 2)), (v(1, 2), v(1, 0))])
    assert power(f, 3) == identity_on(nk2, f.dom())
    assert power(f, 1) == f
    assert power(f, 0) == identity_on(nk2, f.dom())
    assert compose(f, invert(f)) == identity_on(nk2, f.dom())
    rng = random.Random(6)
    for _ in range(120):
        pairs = random_injection_in_clique(nk2, rng, rng.randint(0, 5))
        f = from_pairs(nk2, pairs)
        k = rng.randint(-6, 6)
        expect = {(x, chase_pairs(pairs, x, k))
                  for x in ({a for a, _ in pairs} if k >= 0 else {b for _, b in pairs})
                  if chase_pairs(pairs, x, k) is not None}
        if k == 0:
            expect = {(x, x) for x, _ in pairs}
        assert set(power(f, k).pairs()) == expect
        # iterated-compose cross-check
        acc = identity_on(nk2, f.dom() if k >= 0 else f.ran())
        step = f if k >= 0 else invert(f)
        for _ in range(abs(k)):
            acc = compose(acc, step)
        if k != 0:
            assert acc == power(f, k)


def test_union_extend(nk2):
    v = nk2.vertex
    f = from_pairs(nk2, [(v(1, 0), v(2, 0))])
    assert union_extend(f, []) == f
    g = union_extend(f, [(v(2, 1), v(1, 1))])
    assert g.extends(f) and len(g) == 2
    with pytest.raises(IsoError, match="not-injective"):
        union_extend(f, [(v(1, 0), v(2, 5))])


def test_components_shapes(nk2):
    v = nk2.vertex
    chain = from_pairs(nk2, [(v(1, 0), v(1, 1)), (v(1, 1), v(1, 2))])
    view = chain.components()
    assert len(view.components) == 1
    c = view.components[0]
    assert not c.complete and c.vertices == (v(1, 0), v(1, 1), v(1, 2))
    two_cycle = from_pairs(nk2, [(v(1, 0), v(1, 1)), (v(1, 1), v(1, 0))])
    assert two_cycle.components().components[0].complete
    assert not cycle_free(two_cycle)
    assert cycle_free(chain)
    assert cycle_free(empty(nk2))


def test_components_match_brute_force(nk2):
    rng = random.Random(7)
    for _ in range(200):
        pairs = random_injection_in_clique(nk2, rng, rng.randint(0, 5))
        view = from_pairs(nk2, pairs).components()
        got = sorted((c.vertices, c.complete) for c in view.components)
        assert got == brute_components(pairs)


def test_union_merges_at_most_two_components(nk2):
    rng = random.Random(8)
    for _ in range(150):
        pairs = random_injection_in_clique(nk2, rng, rng.randint(1, 5))
        f = from_pairs(nk2, pairs)
        free_x = [x for x in range(10) if nk2.vertex(1, x) not in f.dom()]
        free_y = [y for y in range(10) if nk2.vertex(1, y) not in f.ran()]
        if not free_x or not free_y:
            continue
        x, y = nk2.vertex(1, free_x[0]), nk2.vertex(1, free_y[-1])
        if x == y:
            continue
        g = union_extend(f, [(x, y)])
        before = f.components()
        after = g.components()
        diff = len(before.components) - len(after.components)
        assert diff in (-1, 0, 1)  # new chain, chain growth, or one merge
        in_f = x in f.support() and y in f.support()
        distinct = in_f and before.find(x) != before.find(y)
        assert (diff == 1) == distinct


def test_index_map_composition(nk3):
    rng = random.Random(9)
    for _ in range(60):
        def rand_iso():
            perm = rng.sample(range(1, 4), 3)
            pairs = [(nk3.vertex(i, rng.randrange(4)), nk3.vertex(perm[i - 1], rng.randrange(4)))
                     for i in range(1, 4)]
            return from_pairs(nk3, pairs)

        f, g = rand_iso(), rand_iso()
        fg = compose(f, g)
        imf, img, imfg = f.index_map(), g.index_map(), fg.index_map()
        for c, d in imfg.items():
            assert img[imf[c]] == d


def test_index_perm_of(nk2):
    v = nk2.vertex
    f = from_pairs(nk2, [(v(1, 0), v(2, 0)), (v(2, 0), v(1, 0))])
    assert index_perm_of(f, 2).cycle_notation() == "(1 2)"
    assert index_perm_of(from_pairs(nk2, [(v(1, 0), v(2, 0))]), 2) is None


def test_orbit_rep_profile(nk2):
    v = nk2.vertex
    f = from_pairs(nk2, [(v(1, 0), v(1, 1)), (v(1, 1), v(1, 0))])
    assert orbit_rep_profile(f, ()) == {v(1, 0): 0}
    assert orbit_rep_profile(f, (v(1, 0),)) == {v(1, 0): 1}
    rng = random.Random(10)
    for _ in range(100):
        pairs = random_injection_in_clique(nk2, rng, rng.randint(0, 5))
        sigma = {nk2.vertex(1, t) for t in rng.sample(range(12), 4)}
        profile = orbit_rep_profile(from_pairs(nk2, pairs), sigma)
        for verts, _ in brute_components(pairs):
            assert profile[verts[0]] == len(sigma & set(verts))


# -- IsoBuilder against from-scratch results -------------------------------------

def _f_closure(f, base, radius):
    """base u (base)f u ... u (base)f^{+-radius}: the closure the window test replaces."""
    out = set(base)
    cur_f, cur_b = set(base), set(base)
    for _ in range(radius):
        cur_f = {f.image(v) for v in cur_f}
        cur_b = {f.preimage(v) for v in cur_b}
        out |= cur_f | cur_b
    return out


def _random_growth(s, rng, steps, spread=14):
    """Random candidate pairs over a component session; many of them invalid."""
    n = s.kind.n
    for _ in range(steps):
        yield (s.vertex(rng.randint(1, n), rng.randrange(spread)),
               s.vertex(rng.randint(1, n), rng.randrange(spread)))


def _assert_builder_matches(b, s):
    frozen = b.freeze()
    view = ComponentView.of(frozen)
    assert b.longest_component() == max((len(c) for c in view.components), default=0)
    assert b.count == len(view.components)
    assert b.index_perm() == index_perm_of(frozen, s.kind.n)
    assert sorted(b.chains()) == sorted(c.vertices for c in view.incomplete_components())
    for c in view.components:
        assert b.component(c.vertices[-1]) == view.find(c.vertices[-1])
    support = frozen.support()
    for c in range(1, s.kind.n + 1):
        assert b.fresh(c) == s.fresh_in_component(c, support)


def test_builder_add_matches_extend_and_structure():
    for seed in range(40):
        rng = random.Random(seed)
        n = 2 + seed % 4
        s = GraphSession(GraphKind.nk_omega(n))
        b = IsoBuilder(empty(s))
        ref = empty(s)
        for x, y in _random_growth(s, rng, 40):
            tails, heads = sorted(ref.ran() - ref.dom()), sorted(ref.dom() - ref.ran())
            if tails and heads and rng.random() < 0.5:
                x, y = rng.choice(tails), rng.choice(heads)  # joins chains or closes one
            try:
                ref = extend(ref, x, y)
            except IsoError as e:
                with pytest.raises(IsoError) as got:
                    b.add(x, y)
                assert (got.value.reason, got.value.pairs) == (e.reason, e.pairs)
                continue
            b.add(x, y)
            assert b.freeze() == ref
            assert list(b.freeze()._fwd.items()) == list(ref._fwd.items())
            _assert_builder_matches(b, s)


def test_builder_from_instances_keeps_structure():
    for seed in range(24):
        rng = random.Random(seed)
        n = 2 + seed % 4
        f = nkomega_oracle(n, rng)
        _, q, _ = nkomega_instance(f, rng)
        s = f.session
        b = IsoBuilder(q)
        _assert_builder_matches(b, s)
        for x, y in _random_growth(s, rng, 40, spread=30):
            if x in b.dom() or b.in_support(y) or x == y:
                continue
            try:
                extend(b.freeze(), x, y)
            except IsoError:
                continue
            b.add(x, y)
            _assert_builder_matches(b, s)


def test_builder_add_matches_extend_on_lazy_graphs(h3):
    rng = random.Random(3)
    vs = [h3.alice_witness((), ())]
    for _ in range(9):
        vs.append(h3.alice_witness(rng.sample(vs, min(len(vs), rng.randint(0, 1))), ()))
    b = IsoBuilder(empty(h3))
    ref = empty(h3)
    for _ in range(40):
        x, y = rng.choice(vs), rng.choice(vs)
        try:
            ref = extend(ref, x, y)
        except IsoError as e:
            with pytest.raises(IsoError) as got:
                b.add(x, y)
            assert (got.value.reason, got.value.pairs) == (e.reason, e.pairs)
            continue
        b.add(x, y)
        assert b.freeze() == ref


def test_fresh_window_matches_f_closure():
    for seed in range(24):
        rng = random.Random(seed)
        n = 2 + seed % 4
        f = nkomega_oracle(n, rng)
        _, q, _ = nkomega_instance(f, rng)
        s = f.session
        b = IsoBuilder(q)
        radius = rng.randint(0, 4)
        window = FreshWindow(f, radius)
        for _ in range(25):
            near = {s.vertex(rng.randint(1, n), rng.randrange(40))
                    for _ in range(rng.randint(0, 3))}
            c = rng.randint(1, n)
            want = s.fresh_in_component(c, _f_closure(f, b.support() | near, radius))
            assert window.fresh(b, c, near) == want
            # grow the map the way the engines do: a window-fresh point onto a tail
            tails = sorted(set(b.ran()) - set(b.dom()))
            x = rng.choice(tails)
            z = window.fresh(b, b.index_perm()(s.component_of(x)), near)
            b.add(x, z)
            if rng.random() < 0.2:  # the window carries over to a builder of the grown map
                b = IsoBuilder(b.freeze())
