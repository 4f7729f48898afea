import random

import pytest

from conftest import (CountingDict, brute_components, brute_compose, chase_pairs,
                      random_band_oracle, random_injection_in_clique)
from ultrahom.campaigns import nkomega_instance, nkomega_oracle
from ultrahom.errors import GraphError, HypothesisError, IsoError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.oracles import NKOracle
from ultrahom.partial_iso import (ComponentView, FreshWindow, IsoBuilder, PartialIso,
                                  chain_pairs, compose, cycle_free, empty, extend, from_pairs,
                                  identity_on, orbit_rep_profile, power, validate)
from ultrahom.perms import IndexPerm


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
    collision = [(v(1, 0), v(1, 1)), (v(2, 0), v(1, 2))]
    split = [(v(1, 0), v(1, 1)), (v(1, 2), v(2, 0))]
    for pairs, reason, detail in [
            (collision, "component-collision", "components 1 and 2 both mapped into 1;"
                                               " induced index map not injective"),
            (split, "component-split", "component 1 mapped into both 1 and 2;"
                                       " induced index map ill-defined")]:
        with pytest.raises(IsoError) as e:
            validate(nk2, pairs)
        assert (e.value.reason, e.value.pairs) == (reason, tuple(pairs))
        assert str(e.value) == f"{reason}: {detail} (pairs {pairs})"


def test_validate_names_the_pair_extend_names():
    """On random component pair lists, validate against extend folded over the pairs:
    the same map, or an IsoError with the same reason naming the same pairs.  The
    pairs are compared as a set: validate lists (earlier, new), extend (new, earlier)."""
    kinds = ([GraphKind.omega_kn(n) for n in range(1, 5)]
             + [GraphKind.nk_omega(n) for n in range(2, 5)])
    rng = random.Random(25)
    conflicts = 0
    for i in range(400):
        s = GraphSession(kinds[i % len(kinds)])
        pairs = [(rng.randrange(24), rng.randrange(24)) for _ in range(rng.randint(0, 10))]
        ref, want = empty(s), None
        try:
            for x, y in pairs:
                ref = extend(ref, x, y)
        except IsoError as e:
            want = e
        if want is None:
            assert list(validate(s, pairs)._fwd.items()) == list(ref._fwd.items())
            continue
        with pytest.raises(IsoError) as got:
            validate(s, pairs)
        assert (got.value.reason, set(got.value.pairs)) == (want.reason, set(want.pairs))
        conflicts += want.reason.startswith("component-")
    assert conflicts > 100


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
    assert compose(f, power(f, -1)) == identity_on(nk2, f.dom())
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
        step = f if k >= 0 else power(f, -1)
        for _ in range(abs(k)):
            acc = compose(acc, step)
        if k != 0:
            assert acc == power(f, k)


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


def test_cycle_free_matches_brute_force_on_chains_and_cycles(nk2):
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        pts = list(range(rng.randint(0, 10)))
        images = pts[:]
        rng.shuffle(images)
        dom = rng.sample(pts, rng.randint(0, len(pts)))  # a sub-map of a permutation: chains and cycles
        pairs = [(nk2.vertex(1, x), nk2.vertex(1, images[x])) for x in dom]
        want = not any(cyclic for _, cyclic in brute_components(pairs))
        assert cycle_free(from_pairs(nk2, pairs)) == want, pairs
        seen.add(want)
    assert seen == {True, False}


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
        g = extend(f, x, y)
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
    assert f.index_perm().cycle_notation() == "(1 2)"
    assert from_pairs(nk2, [(v(1, 0), v(2, 0))]).index_perm() is None


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
    # the builder's bookkeeping against an independent pointwise walk, not chain_lists
    comps = brute_components(frozen.pairs())
    assert b.longest_component() == max((len(c) for c, _ in comps), default=0)
    assert b.count == len(comps)
    assert b.cycle_free() == (not any(cyclic for _, cyclic in comps))
    assert b.index_perm() == frozen.index_perm()
    assert [tuple(c) for c in b.chains()] == [c for c, cyclic in comps if not cyclic]
    view = ComponentView.of(frozen)
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


def _re_recorded_inverse(b):
    """A new builder recorded from the inverse of b's map, pairs in b's order."""
    return IsoBuilder(PartialIso(b.session, dict(b._bwd), dict(b._fwd)))


def _builder_state(b):
    return (list(b._fwd.items()), list(b._bwd.items()), b.cmap, b.cinv, b.pairs_from,
            b._head_of, b._tail_of, b.longest_component(), b.count,
            b.index_perm(), b.support())


def test_in_place_inversion_reads_as_the_inverse_re_recorded():
    """Random growth and in-place inversions: after each step the builder equals
    one re-recorded from its inverse at every inversion, field for field (the maps in
    insertion order), and both accept and reject the same pairs with the same errors."""
    inversions = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = 2 + seed % 4
        s = GraphSession(GraphKind.nk_omega(n))
        b, ref = IsoBuilder(empty(s)), IsoBuilder(empty(s))
        for x, y in _random_growth(s, rng, 60, spread=10):
            move = rng.random()
            if move < 0.15:
                version = b.version
                b.invert()
                ref = _re_recorded_inverse(ref)
                assert b.version != version
                inversions += 1
            else:
                tails = sorted(set(b.ran()) - set(b.dom()))
                heads = sorted(set(b.dom()) - set(b.ran()))
                if tails and heads and rng.random() < 0.4:
                    x, y = rng.choice(tails), rng.choice(heads)  # joins chains or closes one
                try:
                    ref.add(x, y)
                except IsoError as e:
                    with pytest.raises(IsoError) as got:
                        b.add(x, y)
                    assert (got.value.reason, got.value.pairs) == (e.reason, e.pairs)
                    continue
                b.add(x, y)
            assert _builder_state(b) == _builder_state(ref)
            assert list(b.freeze()._fwd.items()) == list(ref.freeze()._fwd.items())
            _assert_builder_matches(b, s)
    assert inversions > 100


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
        for v in vs:
            assert h3.mapped_neighbours(v, b._fwd) == {b.apply(u)
                                                       for u in h3.neighbors_within(v, b.dom())}
            assert h3.mapped_neighbours(v, b._bwd) == {b.unapply(u)
                                                       for u in h3.neighbors_within(v, b.ran())}
    with pytest.raises(GraphError, match="unknown vertex 99"):
        h3.mapped_neighbours(99, b._fwd)


def _lowest_free(s, c, parity, covered):
    """The least k with position 2k + parity of component c outside ``covered``."""
    k = 0
    while s.vertex(c, 2 * k + parity) in covered:
        k += 1
    return k


def test_fresh_window_matches_f_closure():
    """A window widened and fenced at random points of the growth against the
    closure of support, fence and near at the current radius.  Between growth steps
    the components are asked in interleaved bursts that repeat the step's near set:
    some calls answer from the up ray while the down ray's cursor lags behind the
    centres, and every later call on that component must still match the closure."""
    up_only = lagged = after_lag = 0
    for seed in range(24):
        rng = random.Random(seed)
        n = 2 + seed % 4
        f = nkomega_oracle(n, rng)
        _, q, _ = nkomega_instance(f, rng)
        s = f.session
        b = IsoBuilder(q)
        radius = rng.randint(0, 4)
        window = FreshWindow(f)
        window.widen(radius)
        fenced: set[int] = set()
        lagging: set[int] = set()  # components whose down cursor was left behind
        for _ in range(25):
            if rng.random() < 0.25:
                radius += rng.randint(0, 3)
                window.widen(radius)
            if rng.random() < 0.2:  # may fence support vertices too
                extra = {s.vertex(rng.randint(1, n), rng.randrange(40))
                         for _ in range(rng.randint(1, 3))}
                window.fence(extra)
                fenced |= extra
            near = {s.vertex(rng.randint(1, n), rng.randrange(40))
                    for _ in range(rng.randint(0, 3))}
            c = rng.randint(1, n)
            want = s.fresh_in_component(c, _f_closure(f, b.support() | fenced | near, radius))
            assert window.fresh(b, c, near) == want
            comps = [rng.randint(1, n) for _ in range(3)]
            burst = [(c2, rng.choice([near, set()])) for c2 in comps + comps[::-1]]
            centres = _f_closure(f, b.support() | fenced, radius)
            for c2, near2 in burst:
                down = window._rays.get(c2, [0, 0])[1]
                got = window.fresh(b, c2, near2)
                assert got == s.fresh_in_component(c2, centres | _f_closure(f, near2, radius))
                after_lag += c2 in lagging
                pos = s.position_of(got)
                if f.tail_line(c2) is not None and pos % 2 == 0 and pos < 2 * down + 1:
                    up_only += 1
                    if window._rays[c2][1] < _lowest_free(s, c2, 1, centres):
                        lagged += 1
                        lagging.add(c2)
            # a prefix of 2r + 1 of a cached window is its radius-r window
            v = rng.choice(sorted(b.support() | near))
            r = rng.randint(0, radius)
            assert set(window.window(v)[:2 * r + 1]) == _f_closure(f, {v}, r)
            # grow the map the way the engines do: a window-fresh point onto a tail
            tails = sorted(set(b.ran()) - set(b.dom()))
            x = rng.choice(tails)
            z = window.fresh(b, b.index_perm()(s.component_of(x)), near)
            b.add(x, z)
            if rng.random() < 0.2:  # the window carries over to a builder of the grown map
                b = IsoBuilder(b.freeze())
        with pytest.raises(GraphError, match="only widens"):
            window.widen(radius - 1)
        window.widen(radius)  # widening to the same radius does nothing
        assert window.radius == radius
    assert up_only > lagged > 0 and after_lag > 0


def _chains_and_cycles(rng):
    """A partial bijection on 0..N-1 (N <= 30) cut into chains and cycles of at most 8."""
    verts = list(range(rng.randint(0, 30)))
    rng.shuffle(verts)
    pairs = []
    while verts:
        size = rng.randint(1, 8)
        block, verts = verts[:size], verts[size:]
        pairs += list(zip(block, block[1:]))
        if len(block) > 1 and rng.random() < 0.5:  # close the chain into a cycle
            pairs.append((block[-1], block[0]))
    rng.shuffle(pairs)
    return pairs


def test_chain_lists_round_trip_and_match_pointwise_components(nk2):
    """Chains head first, cycles closed from their least vertex, fixed points [x, x],
    sorted by first vertex; chain_pairs gives the pairs back, from a value or a builder."""
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        pairs = _chains_and_cycles(rng) + [(v, v) for v in range(40, 40 + rng.randint(0, 2))]
        want = [list(c) + [c[0]] * cyclic for c, cyclic in brute_components(pairs)]
        f = PartialIso(nk2, dict(pairs), {y: x for x, y in pairs})
        lists = f.chain_lists()
        assert lists == want, pairs
        assert IsoBuilder(f).chain_lists() == want
        assert sorted(chain_pairs(lists)) == sorted(pairs)
        kinds.update("fixed" if len(c) == 2 and c[0] == c[1] else
                     "cycle" if c[0] == c[-1] else "chain" for c in lists)
    assert kinds == {"chain", "cycle", "fixed"}


def test_chain_pairs_rejects_every_repeated_vertex():
    """A vertex inserted anywhere into valid lists raises exactly when some vertex is then
    on two lists or twice on one list, a list's closing repeat not counting."""
    def repeated(lists):
        bodies = [v for vs in lists for v in (vs[:-1] if vs[-1] == vs[0] else vs)]
        return len(set(bodies)) < len(bodies)

    outcomes = set()
    for seed in range(300):
        rng = random.Random(seed)
        pairs = _chains_and_cycles(rng) + [(50, 50)]
        lists = PartialIso(None, dict(pairs), {y: x for x, y in pairs}).chain_lists()
        i = rng.randrange(len(lists))
        k = rng.randint(0, len(lists[i]))
        lists[i].insert(k, rng.choice(rng.choice(lists)))
        if repeated(lists):
            with pytest.raises(IsoError, match="repeated-vertex"):
                chain_pairs(lists)
        else:  # the insertion closed a chain into a cycle
            chain_pairs(lists)
        outcomes.add(repeated(lists))
    assert outcomes == {True, False}
    for short in ([], [7]):
        with pytest.raises(IsoError, match="short-list"):
            chain_pairs([[1, 2], short])


def _naive_power(pairs, k):
    """f^k pointwise, |k| steps per vertex."""
    src = [x for x, _ in pairs] if k > 0 else [y for _, y in pairs]
    return {(x, chase_pairs(pairs, x, k)) for x in src if chase_pairs(pairs, x, k) is not None}


def test_chase_and_power_match_the_naive_walk(nk2):
    for seed in range(200):
        rng = random.Random(seed)
        pairs = _chains_and_cycles(rng)
        f = PartialIso(nk2, dict(pairs), {y: x for x, y in pairs})
        for _ in range(6):
            k = rng.randint(-70, 70)
            for x in range(-1, 32):
                assert f.chase(x, k) == chase_pairs(pairs, x, k)
            if k:
                assert set(power(f, k).pairs()) == _naive_power(pairs, k)


def test_huge_exponents_cost_lookups_bounded_by_the_map(nk2):
    huge = 10 ** 18
    for seed in range(40):
        rng = random.Random(seed)
        pairs = _chains_and_cycles(rng)
        fwd = CountingDict(pairs)
        bwd = CountingDict((y, x) for x, y in pairs)
        f = PartialIso(nk2, fwd, bwd)
        for k in (huge, -huge, huge + 1, -huge - 3):
            for x in range(-1, 32):
                CountingDict.lookups = 0
                got = f.chase(x, k)
                assert CountingDict.lookups <= 2 * len(pairs) + 1
                # 840 = lcm(1..8): same value on every cycle, and past the end of every chain
                same = (abs(k) % 840 + 840) * (1 if k > 0 else -1)
                assert got == chase_pairs(pairs, x, same)
            CountingDict.lookups = 0
            p = power(f, k)
            assert CountingDict.lookups <= 4 * len(pairs)
            src = dict(fwd if k > 0 else bwd)
            assert p._fwd == {x: f.chase(x, k) for x in src if f.chase(x, k) is not None}


def _stepped_window(f, v, r):
    """v, (v)f, (v)f^-1, (v)f^2, ... out to radius r, one oracle step at a time."""
    out, fw, bw = [v], v, v
    for _ in range(r):
        fw, bw = f.image(fw), f.preimage(bw)
        out += (fw, bw)
    return out


def _hand_built_oracles():
    """NKOracles with band orbits of lengths 1, 2, 3, 4 and 8, fixed tails and spines."""
    s2 = GraphSession(GraphKind.nk_omega(2))
    v2 = s2.vertex
    swap = IndexPerm.from_cycles(2, [(1, 2)])
    ring = [v2(1 + i % 2, i // 2) for i in range(8)]  # one band orbit of length 8
    yield NKOracle(s2, swap, 4, list(zip(ring, ring[1:] + ring[:1])))
    quads = [[v2(1, 0), v2(2, 0), v2(1, 1), v2(2, 1)], [v2(1, 2), v2(2, 3), v2(1, 3), v2(2, 2)]]
    yield NKOracle(s2, swap, 4, [(x, y) for q in quads for x, y in zip(q, q[1:] + q[:1])])
    s3 = GraphSession(GraphKind.nk_omega(3))
    v3 = s3.vertex
    sig = IndexPerm.from_cycles(3, [(1, 2)])
    band = [(v3(1, 0), v3(2, 1)), (v3(2, 1), v3(1, 0)),      # length 2
            (v3(1, 1), v3(2, 2)), (v3(2, 2), v3(1, 2)), (v3(1, 2), v3(2, 0)),
            (v3(2, 0), v3(1, 1)),                            # length 4
            (v3(3, 0), v3(3, 0)),                            # a fixed band point
            (v3(3, 1), v3(3, 2)), (v3(3, 2), v3(3, 1))]      # length 2
    yield NKOracle(s3, sig, 3, band, fixed_tail=[3])
    yield NKOracle(s3, sig, 3, band)
    s4 = GraphSession(GraphKind.nk_omega(4))
    v4 = s4.vertex
    cyc3 = IndexPerm.from_cycles(4, [(1, 2, 3)])
    band = [(v4(c, t), v4(c % 3 + 1, t)) for c in (1, 2, 3) for t in range(2)]  # length 3
    band += [(v4(4, 0), v4(4, 1)), (v4(4, 1), v4(4, 0))]
    yield NKOracle(s4, cyc3, 2, band, fixed_tail=[4])


def test_fresh_window_matches_f_closure_on_band_and_fixed_tail_oracles():
    """Fixed tails and spines: every fresh choice against the closure of support, fence
    and near, and every window against one oracle step at a time.  A banded f is
    refused: a band is a finite stabilized set, so no build gives a window one."""
    rng = random.Random(7)
    oracles = list(_hand_built_oracles())
    oracles += [random_band_oracle(2 + i % 4, rng) for i in range(20)]
    oracles += [random_band_oracle(2 + i % 4, rng, max_rows=0) for i in range(20)]
    orbit_kinds = set()
    for f in oracles:
        if f.band_rows:
            with pytest.raises(HypothesisError, match="no-band"):
                FreshWindow(f)
            continue
        s = f.session
        n = s.kind.n
        # one centre at each of the first two rows, at every radius
        for u in range(2 * n):
            for radius in range(5):
                window = FreshWindow(f)
                window.widen(radius)
                window.fence([u])
                for c in range(1, n + 1):
                    want = s.fresh_in_component(c, _f_closure(f, {u}, radius))
                    assert window.fresh(IsoBuilder(empty(s)), c) == want
        for _ in range(3):
            b = IsoBuilder(empty(s))  # every pair stays in its component: always valid
            radius = rng.randint(0, 3)
            window = FreshWindow(f)
            window.widen(radius)
            fenced: set[int] = set()
            for _ in range(20):
                if rng.random() < 0.25:
                    radius += rng.randint(0, 2)
                    window.widen(radius)
                if rng.random() < 0.2:
                    extra = {s.vertex(rng.randint(1, n), rng.randrange(12))
                             for _ in range(rng.randint(1, 3))}
                    window.fence(extra)
                    fenced |= extra
                near = {s.vertex(rng.randint(1, n), rng.randrange(12))
                        for _ in range(rng.randint(0, 3))}
                c = rng.randint(1, n)
                want = s.fresh_in_component(c, _f_closure(f, b.support() | fenced | near, radius))
                got = window.fresh(b, c, near)
                assert got == want
                # another component in between, then the same question: the same answer
                c2 = rng.randint(1, n)
                assert window.fresh(b, c2, near) == s.fresh_in_component(
                    c2, _f_closure(f, b.support() | fenced | near, radius))
                assert window.fresh(b, c, near) == got
                orbit_kinds.add(f.orbit_coord(got)[2])  # 1 on a fixed tail, 0 on a spine
                for v in (got, rng.choice(sorted(b.support() | near | {got}))):
                    r = rng.randint(0, radius)
                    assert window.window(v) == _stepped_window(f, v, radius)
                    assert window.window(v, r) == window.window(v)[:2 * r + 1]
                    assert set(window.window(v, r)) == _f_closure(f, {v}, r)
                b.add(b.fresh(c, {got}), got)
    assert orbit_kinds == {0, 1}


def test_add_pairs_matches_add_pair_by_pair():
    """A component bijection added at once against the same pairs added one by one:
    the same map and structure, or the same IsoError."""
    for seed in range(60):
        rng = random.Random(seed)
        s = GraphSession(GraphKind.omega_kn(rng.randint(1, 4)))
        n = s.kind.n
        ref = IsoBuilder(empty(s))
        b = IsoBuilder(empty(s))
        for _ in range(12):
            cx, cy = rng.randint(-3, 3), rng.randint(-3, 3)
            xs = s.component_vertices(cx)
            ys = rng.sample(s.component_vertices(cy), n)
            pairs = list(zip(xs, ys))[:rng.randint(1, n)]
            try:
                for x, y in pairs:
                    ref.add(x, y)
            except IsoError as e:
                with pytest.raises(IsoError) as got:
                    b.add_pairs(cx, cy, pairs)
                assert (got.value.reason, got.value.pairs) == (e.reason, e.pairs)
                ref, b = IsoBuilder(ref.freeze()), IsoBuilder(b.freeze())
                continue
            b.add_pairs(cx, cy, pairs)
            assert list(b.freeze()._fwd.items()) == list(ref.freeze()._fwd.items())
            assert (b.cmap, b.cinv, b.pairs_from, b.count, b.longest_component()) == \
                (ref.cmap, ref.cinv, ref.pairs_from, ref.count, ref.longest_component())
