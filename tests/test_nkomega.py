import copy
import random

import pytest

from conftest import (PolicySteps, brute_components, brute_stabilized_set, no_escape_proof,
                      random_band_oracle, scan_escape_exp, scan_escape_exponents,
                      scan_escape_power, scan_orbit_meetings)
from ultrahom import certs, nkomega
from ultrahom.campaigns import (n2_trial, nkomega_instance, nkomega_oracle, nkomega_trial,
                                run_trial)
from ultrahom.certs import verify
from ultrahom.errors import (GraphError, HypothesisError, InternalCheckError, IsoError,
                             internal_check)
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.nkomega import (AFSigmaContext, IndexFixingIso, _base_step, _class_extend,
                              amalgamate, build_base_word, build_covering_word,
                              check_admissible, classify_stabilizing,
                              density_witness_n2, density_witness_nkomega,
                              escape_exponents, extend_word_domain,
                              piccard_partner)
from ultrahom.oracles import NKOracle, oracle_from_description
from ultrahom.partial_iso import FreshWindow, IsoBuilder, chain_pairs, from_pairs
from ultrahom.perms import IndexPerm, all_perms, closure, generates_symmetric
from ultrahom.words import (WordConditionReport, WordWalks, b_count, chase,
                            check_word_condition, landing_orbit, parse_word)


def simple_ctx(n=3, sf_cycles=((1, 2, 3),), sigma_comps=(1, 3)):
    s = GraphSession(GraphKind.nk_omega(n))
    f = NKOracle(s, IndexPerm.from_cycles(n, list(sf_cycles)))
    sigma = tuple(s.vertex(c, 0) for c in sigma_comps)
    return AFSigmaContext(f, sigma), s, f


def simple_q(ctx, s):
    # sigma chains following (1 2)(3), completed on component 2 and 3
    pairs = [(s.vertex(1, 0), s.vertex(2, 0)),
             (s.vertex(3, 0), s.vertex(3, 1)),
             (s.vertex(2, 1), s.vertex(1, 1))]
    return from_pairs(s, pairs)


def test_amalgamate():
    ctx, s, f = simple_ctx()
    v = s.vertex
    # two chains in components 1->2 plus sigma chains elsewhere
    pairs = [(v(1, 0), v(2, 0)), (v(3, 0), v(3, 1)), (v(2, 1), v(1, 1)),
             (v(1, 2), v(2, 2)), (v(1, 3), v(2, 3))]
    q = from_pairs(s, pairs)
    # join the sigma-free chain (1,3)->(2,3) onto (1,2)->(2,2): tail (2,2) to head (1,3)
    b = IsoBuilder(q)
    amalgamate(ctx, b, v(2, 2), v(1, 3))
    assert b.apply(v(2, 2)) == v(1, 3) and b.freeze().extends(q)
    with pytest.raises(HypothesisError, match="distinct-components"):
        amalgamate(ctx, b, v(2, 3), v(1, 2))
    sig2 = AFSigmaContext(f, (v(1, 2), v(1, 3), v(1, 0), v(3, 0)))
    with pytest.raises(HypothesisError, match="would-orphan"):
        amalgamate(sig2, IsoBuilder(q), v(2, 2), v(1, 3))


def test_class_extend_grows_a_chain_and_refuses_used_points():
    ctx, s, f = simple_ctx()
    v = s.vertex
    b = IsoBuilder(simple_q(ctx, s))
    count = b.count
    _class_extend(ctx, b, v(2, 0), v(1, 7))
    assert b.apply(v(2, 0)) == v(1, 7) and b.count == count  # chain grew, no new chain
    for x, y, reason in [(v(1, 0), v(2, 9), "x-free"), (v(1, 5), v(2, 1), "y-fresh"),
                         (v(1, 5), v(3, 9), "component-match")]:
        with pytest.raises(HypothesisError, match=reason):
            _class_extend(ctx, b, x, y)


def test_check_admissible_errors():
    ctx, s, f = simple_ctx()
    with pytest.raises(HypothesisError, match="index-perm-total"):
        check_admissible(ctx, from_pairs(s, [(s.vertex(1, 0), s.vertex(2, 0))]))
    q = simple_q(ctx, s)
    assert check_admissible(ctx, q).cycle_notation() == "(1 2)"
    bad_sigma = AFSigmaContext(f, (s.vertex(1, 0),))
    with pytest.raises(HypothesisError, match="sigma-reachability"):
        check_admissible(bad_sigma, q)


def test_piccard_partner_small():
    assert piccard_partner(IndexPerm.identity(2)).cycle_notation() == "(1 2)"
    assert piccard_partner(IndexPerm.identity(3)) is None
    b = piccard_partner(IndexPerm.from_cycles(3, [(1, 2, 3)]))
    assert generates_symmetric(3, [IndexPerm.from_cycles(3, [(1, 2, 3)]), b])
    with pytest.raises(GraphError, match="desk range"):
        piccard_partner(IndexPerm.identity(9))


def test_piccard_partner_is_the_first_generating_partner_and_is_kept(monkeypatch):
    """The smallest b in all_perms order with <a, b> = S_n, by closure, for every a at
    n <= 4 and every seventh a at n = 5; a second call asks no group question."""
    for n in range(1, 6):
        perms = list(all_perms(n))
        for a in perms if n < 5 else perms[1::7]:
            if a.is_identity():
                continue
            want = next((b for b in perms if len(closure(n, [a, b])) == len(perms)), None)
            assert piccard_partner(a) == want, a
    calls = []
    real = nkomega.generates_symmetric
    monkeypatch.setattr(nkomega, "generates_symmetric",
                        lambda n, gens: calls.append(gens) or real(n, gens))
    a = IndexPerm.from_cycles(6, [(1, 2, 3), (4, 5)])
    monkeypatch.delitem(nkomega._PARTNERS, a, raising=False)
    first = piccard_partner(a)
    asked = len(calls)
    assert asked > 0 and generates_symmetric(6, [a, first])
    assert piccard_partner(a) is first and len(calls) == asked


def test_piccard_exceptional_set_n4():
    exceptional = {IndexPerm.from_cycles(4, [(1, 2), (3, 4)]),
                   IndexPerm.from_cycles(4, [(1, 3), (2, 4)]),
                   IndexPerm.from_cycles(4, [(1, 4), (2, 3)])}
    for a in all_perms(4):
        if a.is_identity():
            continue
        partner = piccard_partner(a)
        if a in exceptional:
            assert partner is None
        else:
            assert partner is not None


def test_classify_stabilizing():
    s = GraphSession(GraphKind.nk_omega(2))
    # band orbit hitting each component once: stabilizing with witness
    band = [(s.vertex(1, 0), s.vertex(2, 0)), (s.vertex(2, 0), s.vertex(1, 0))]
    f = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]), band_rows=1, band_pairs=band)
    verdict = classify_stabilizing(f)
    assert verdict.stabilizing and set(verdict.witness) == {s.vertex(1, 0), s.vertex(2, 0)}
    # pure spine: no finite orbits at all
    g = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]))
    assert not classify_stabilizing(g).stabilizing
    # unequal component counts in every stabilized set
    s3 = GraphSession(GraphKind.nk_omega(3))
    band3 = [(s3.vertex(1, 0), s3.vertex(1, 0))] + \
        [(s3.vertex(c, 0), s3.vertex(c, 0)) for c in (2, 3)]
    h = NKOracle(s3, IndexPerm.identity(3), band_rows=1, band_pairs=band3)
    assert classify_stabilizing(h).stabilizing  # all three fixed: equal count 1


def test_classify_stabilizing_unequal_band():
    s = GraphSession(GraphKind.nk_omega(2))
    # two fixed points in component 1's band, none in component 2's row 0 fixed
    band = [(s.vertex(1, 0), s.vertex(1, 1)), (s.vertex(1, 1), s.vertex(1, 0)),
            (s.vertex(2, 0), s.vertex(2, 1)), (s.vertex(2, 1), s.vertex(2, 0))]
    f = NKOracle(s, IndexPerm.identity(2), band_rows=2, band_pairs=band)
    # both components carry one 2-orbit: equal counts exist
    assert classify_stabilizing(f).stabilizing
    band_skew = [(s.vertex(1, 0), s.vertex(1, 1)), (s.vertex(1, 1), s.vertex(1, 0)),
                 (s.vertex(2, 0), s.vertex(2, 0)), (s.vertex(2, 1), s.vertex(2, 1))]
    g = NKOracle(s, IndexPerm.identity(2), band_rows=2, band_pairs=band_skew)
    # 2-orbit in L1 vs singletons in L2: counts 2 vs 2 achievable -> stabilizing
    assert classify_stabilizing(g).stabilizing


def test_escape_exponents_cases():
    ctx, s, f = simple_ctx()
    v = s.vertex
    q = simple_q(ctx, s)
    assert escape_exponents(f, q, v(1, 9)) == []
    # chain walk: pure q-powers suffice
    exps = escape_exponents(f, q, v(1, 0))
    assert exps[0] > 0 and len(exps) == 2 and exps[1] == 0
    # complete cycle: must use f to leave
    cyc = from_pairs(s, [(v(1, 0), v(2, 0)), (v(2, 0), v(1, 0)),
                         (v(3, 0), v(3, 1))])
    exps = escape_exponents(f, cyc, v(1, 0))
    assert any(e for i, e in enumerate(exps) if i % 2 == 1)  # some f power used
    val = v(1, 0)
    for i, e in enumerate(exps):
        val = _apply_power(cyc, val, e) if i % 2 == 0 else _apply_f(f, val, e)
    assert val not in cyc.dom()


def _single_orbit_band(s, rows):
    """n = 2, sigma = (1 2): band pairs making all 2 * rows band vertices one cycle."""
    v = s.vertex
    return ([(v(1, t), v(2, t)) for t in range(rows)]
            + [(v(2, t), v(1, (t + 1) % rows)) for t in range(rows)])


def test_a_band_of_one_long_orbit_is_stabilizing():
    """A 65-row band that is one 130-vertex orbit is itself a stabilized set with 65
    vertices in each component, though no union of band orbits holds 64 or fewer."""
    s = GraphSession(GraphKind.nk_omega(2))
    f = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]), 65, _single_orbit_band(s, 65))
    assert [len(orb) for orb in f.band_orbits()] == [130]
    verdict = classify_stabilizing(f)
    band = tuple(sorted(s.vertex(c, t) for c in (1, 2) for t in range(65)))
    assert verdict.stabilizing and verdict.witness == band
    assert brute_stabilized_set(f) == band


def test_stabilizing_verdict_matches_a_brute_force_search():
    """On random policies, stabilizing exactly when some union of band orbits, topped
    up with fixed tail points, meets every component equally; the witness is invariant
    under the reference policy and meets every component equally."""
    rng = random.Random(29)
    seen = set()
    for trial in range(1500):
        n = 2 + trial % 3
        f = random_band_oracle(n, rng, max_rows=3)
        verdict = classify_stabilizing(f)
        assert verdict.stabilizing == (brute_stabilized_set(f) is not None)
        if verdict.stabilizing:
            ref, wit = PolicySteps(f), set(verdict.witness)
            assert wit and {ref.step(v) for v in wit} == wit
            counts = {sum(f.session.component_of(v) == c for v in wit)
                      for c in range(1, n + 1)}
            assert len(counts) == 1
        seen.add((verdict.stabilizing, f.band_rows > 0))
    assert seen == {(True, True), (True, False), (False, False)}


def _first_escape(f, pts, avoid):
    """The least-|j| j, 0 first and j before -j, clearing pts of avoid by reference steps,
    tried out to |j| = 60."""
    ref = PolicySteps(f)
    for mag in range(61):
        for j in ((0,) if mag == 0 else (mag, -mag)):
            if not {ref.power(v, j) for v in pts} & avoid:
                return j
    return None


def test_escape_power_matches_the_scans():
    """The closed-form escape against the bounded reference scans, one point in the
    avoided set as escape_exponents asks and up to three points as the n = 2 engine asks,
    trapped orbits included: equal wherever a scan finds a power, and where none is
    found, no power clears the points by brute force over the periods."""
    rng = random.Random(30)
    tally = {"single": 0, "trapped": 0, "several": 0, "none": 0, "past-the-scan": 0}
    for trial in range(4000):
        n = 2 + trial % 4
        f = random_band_oracle(n, rng, max_rows=3)
        s = f.session
        pool = [s.vertex(c, t) for c in range(1, n + 1) for t in range(f.band_rows + 5)]
        avoid = set(rng.sample(pool, rng.randint(1, len(pool) // 2 + 1)))
        v = rng.choice(sorted(avoid))
        j = f.escape_power((v,), avoid)
        assert j == scan_escape_power(f, v, avoid)
        tally["single"] += 1
        if j is None:
            assert no_escape_proof(f, (v,), avoid)
            tally["trapped"] += 1
        pts = rng.sample(pool, rng.randint(0, 3))
        m = f.escape_power(pts, avoid)
        old = scan_escape_exp(f, pts, avoid)
        tally["several"] += 1
        if old is not None:
            assert m == old
        elif m is None:
            assert no_escape_proof(f, pts, avoid)
            tally["none"] += 1
        else:  # past the scan's bound: checked step by step
            assert m == _first_escape(f, pts, avoid)
            tally["past-the-scan"] += 1
    assert tally["single"] + tally["several"] >= 8000
    assert tally["trapped"] > 100 and tally["none"] > 100


def _random_q(s, rng, rows):
    """A random injection among the first rows of n K_omega along a random index map,
    so that its chains and cycles cross components."""
    n = s.kind.n
    tau = rng.choice(list(all_perms(n)))
    dom = rng.sample([s.vertex(c, t) for c in range(1, n + 1) for t in range(rows)],
                     rng.randint(1, n * rows))
    free = {c: [s.vertex(c, t) for t in range(rows)] for c in range(1, n + 1)}
    for c in free.values():
        rng.shuffle(c)
    return from_pairs(s, [(x, free[tau(s.component_of(x))].pop()) for x in dom])


def test_escape_exponents_match_the_breadth_first_scan():
    """On band-free policies, the two-exponent escape equals the breadth-first search
    over q-moves and f-meetings it replaced, and its product leaves dom(q)."""
    rng = random.Random(31)
    dead = 0
    for trial in range(1200):
        n = 2 + trial % 3
        f = random_band_oracle(n, rng, max_rows=0)
        q = _random_q(f.session, rng, 3)
        x = rng.choice(sorted(q.dom()))
        try:
            want = scan_escape_exponents(f, q, x)
        except AssertionError:
            with pytest.raises(InternalCheckError, match="escape-exists"):
                escape_exponents(f, q, x)
            dead += 1
            continue
        assert escape_exponents(f, q, x) == want
        m1, m2 = want
        assert PolicySteps(f).power(q.chase(x, m1), m2) not in q.dom()
    assert 0 < dead < 1200


def test_escape_exponents_pass_a_trapped_fixed_point():
    """x's q-cycle is searched by least vertex: the first, a fixed tail point of f in
    dom(q), is trapped, and f meets no other point of dom(q) from it; the second escapes.
    The exponents are the breadth-first scan's, and their product leaves dom(q)."""
    s = GraphSession(GraphKind.nk_omega(3))
    v = s.vertex
    f = NKOracle(s, IndexPerm.from_cycles(3, [(2, 3)]), fixed_tail=(1,))
    q = from_pairs(s, [(v(1, 0), v(2, 0)), (v(2, 0), v(1, 0))])
    x = v(1, 0)
    assert f.escape_power((v(1, 0),), q.dom()) is None
    assert scan_orbit_meetings(f, v(1, 0), q.dom()) == []
    exps = escape_exponents(f, q, x)
    assert exps == scan_escape_exponents(f, q, x) == [1, 1]
    # the product a b, letter by letter, over f's pairs on the first rows
    ref = PolicySteps(f)
    f_pairs = [(u, ref.step(u)) for u in (v(c, t) for c in (1, 2, 3) for t in range(4))]
    assert dict(certs.brute_force_word_eval("a b", q.pairs(), f_pairs))[x] == v(3, 0)
    assert v(3, 0) not in q.dom()


def test_escape_exponents_need_a_band_free_f():
    s = GraphSession(GraphKind.nk_omega(2))
    f = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]), 1,
                 [(s.vertex(1, 0), s.vertex(2, 0)), (s.vertex(2, 0), s.vertex(1, 0))])
    q = from_pairs(s, [(s.vertex(1, 1), s.vertex(2, 1))])
    with pytest.raises(HypothesisError, match="no-band"):
        escape_exponents(f, q, s.vertex(1, 1))


def _apply_power(q, x, k):
    return q.chase(x, k)


def _apply_f(f, x, k):
    return f.iterate(x, k)


def test_base_and_fill_word():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    gamma = [s.vertex(1, 5)]
    delta = [s.vertex(3, 9)]
    b = IsoBuilder(q)
    window = FreshWindow(f)
    w, phi = build_base_word(ctx, b, gamma, delta, window)
    h = b.freeze()
    assert w.starts_with("a") and not w.has_negative("a")
    rep = check_word_condition(h, gamma, (), phi, delta, w, f)
    assert rep.holds
    window.widen(b_count(w))
    extend_word_domain(ctx, b, gamma, (), phi, delta, w, gamma[0], window)
    h2 = b.freeze()
    assert h2.extends(h)
    rep2 = check_word_condition(h2, gamma, gamma, phi, delta, w, f)
    assert rep2.holds
    with pytest.raises(HypothesisError, match="x-new"):
        extend_word_domain(ctx, b, gamma, gamma, phi, delta, w, gamma[0], window)
    # the window serving the fills must have the word's radius
    wide = FreshWindow(f)
    wide.widen(b_count(w) + 1)
    with pytest.raises(HypothesisError, match="window-radius"):
        extend_word_domain(ctx, IsoBuilder(h), gamma, (), phi, delta, w, gamma[0], wide)


def test_direct_callers_keep_every_entry_check():
    """The checks an n K_omega build asks once still guard each public entry point:
    admissibility for a builder the build did not open, sigma for each new builder,
    and the word condition on a state that a report has not read."""
    ctx, s, f = simple_ctx()
    v = s.vertex
    q = simple_q(ctx, s)
    # index permutation (1 2 3), the same cyclic group as f's
    cyclic = from_pairs(s, [(v(1, 0), v(2, 0)), (v(3, 0), v(1, 1)), (v(2, 1), v(3, 1))])
    gamma, delta = [v(1, 5)], [v(3, 9)]
    for built in (False, True):
        if built:  # the context has opened and grown a builder of its own
            target = IndexFixingIso(from_pairs(s, [(v(1, 20), v(1, 21)), (v(2, 20), v(2, 22))]))
            assert verify(density_witness_nkomega(ctx, q, target)).ok
        with pytest.raises(HypothesisError, match="generates-symmetric"):
            build_covering_word(ctx, cyclic, gamma, delta)
        with pytest.raises(HypothesisError, match="generates-symmetric"):
            build_base_word(ctx, IsoBuilder(cyclic), gamma, delta, FreshWindow(f))
    b = IsoBuilder(q)
    _class_extend(ctx, b, v(2, 0), v(1, 7))
    # a new builder with the same index permutation, but not through sigma
    away = from_pairs(s, [(v(1, 4), v(2, 4)), (v(2, 5), v(1, 5)), (v(3, 4), v(3, 5))])
    with pytest.raises(HypothesisError, match="sigma-in-support"):
        _class_extend(ctx, IsoBuilder(away), v(2, 4), v(1, 8))
    # a pair into delta, added after the base word's check, fails the next entry check
    b = IsoBuilder(q)
    window = FreshWindow(f)
    w, phi = build_base_word(ctx, b, gamma, delta, window)
    window.widen(b_count(w))
    b.add(b.fresh(3), delta[0])
    with pytest.raises(HypothesisError, match="word-condition-entry"):
        extend_word_domain(ctx, b, gamma, (), phi, delta, w, gamma[0], window)


def test_covering_word_multi_gamma():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    gamma = [s.vertex(1, 5), s.vertex(2, 7), s.vertex(3, 6)]
    delta = [s.vertex(1, 20), s.vertex(2, 20)]
    h, w, phi = build_covering_word(ctx, q, gamma, delta)
    rep = check_word_condition(h, gamma, gamma, q.dom(), delta, w, f)
    assert rep.holds, str(rep)
    assert not h.ran() & set(delta)


def test_fills_reuse_walks_only_on_the_builder_state_they_left(monkeypatch):
    """A fill starts from the walks the previous fill ended with, which read as new
    walks on that state; a fill on any other state of the builder, after a pair added
    by hand or after an inversion there and back, walks the word again."""
    made, reused, filling = [], [], [False]

    class Counting(WordWalks):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(filling[0])

    real_fill = nkomega.extend_word_domain

    def fill(ctx, b, gamma, theta, phi, delta, w, x, window):
        last = ctx._walks
        if last is not None and last[0][:2] == (b, b.version):
            assert last[1]._at == WordWalks(w, b, ctx.f, sorted(set(gamma)))._at
            reused.append(x)
        filling[0] = True
        real_fill(ctx, b, gamma, theta, phi, delta, w, x, window)
        filling[0] = False

    monkeypatch.setattr(nkomega, "WordWalks", Counting)
    monkeypatch.setattr(nkomega, "extend_word_domain", fill)
    ctx, s, f = simple_ctx()
    v = s.vertex
    gamma = sorted([v(1, 5), v(2, 7), v(3, 6)])  # the order the fills take
    delta = [v(1, 20), v(2, 20)]
    h, w, phi = build_covering_word(ctx, simple_q(ctx, s), gamma, delta)
    assert made.count(True) == 1 and reused == gamma[1:]
    assert check_word_condition(h, gamma, gamma, phi, delta, w, f).holds

    b = IsoBuilder(simple_q(ctx, s))
    window = FreshWindow(f)
    w, phi = build_base_word(ctx, b, gamma, delta, window)
    window.widen(b_count(w))
    made.clear()
    nkomega.extend_word_domain(ctx, b, gamma, [], phi, delta, w, gamma[0], window)
    b.invert()
    b.invert()
    nkomega.extend_word_domain(ctx, b, gamma, gamma[:1], phi, delta, w, gamma[1], window)
    _class_extend(ctx, b, v(1, 500), v(2, 500))  # far from every walk: q sends 1 to 2
    nkomega.extend_word_domain(ctx, b, gamma, gamma[:2], phi, delta, w, gamma[2], window)
    assert made == [True] * 3 and reused == gamma[1:]  # none reused this time
    assert check_word_condition(b, gamma, gamma, phi, delta, w, f).holds


def _f_pairs_near(f, centres, radius):
    """The pairs of f on the f-orbits within radius of centres: enough of f for a
    word of b-count radius walked from centres and their a-images."""
    pairs = set()
    for v in centres:
        u = v
        for _ in range(radius):
            pairs.add((u, f.image(u)))
            u = f.image(u)
        u = v
        for _ in range(radius):
            pairs.add((f.preimage(u), u))
            u = f.preimage(u)
    return sorted(pairs)


def test_covering_words_with_escape_blocks(monkeypatch):
    """gamma drawn from dom(q), so a base step's x can land inside dom(q) and must be
    driven out by an escape block: some builds take a non-empty escape product, and
    every word still meets the word condition and evaluates on gamma as the brute
    force does."""
    fired = []
    real = nkomega.escape_exponents

    def spied(*args):
        out = real(*args)
        fired.append(bool(out))
        return out

    monkeypatch.setattr(nkomega, "escape_exponents", spied)
    for seed in range(30):
        rng = random.Random(seed)
        f = nkomega_oracle(3 + seed % 3, rng)
        ctx, q, _ = nkomega_instance(f, rng)
        gamma = rng.sample(sorted(q.dom()), rng.randint(1, len(q)))
        h, w, phi = build_covering_word(ctx, q, gamma, ())
        rep = check_word_condition(h, gamma, gamma, q.dom(), (), w, f)
        assert rep.holds, str(rep)
        f_pairs = _f_pairs_near(f, h.support() | set(gamma), b_count(w))
        slow = dict(certs.brute_force_word_eval(w, h.pairs(), f_pairs))
        assert {x: slow.get(x) for x in gamma} == {x: chase(w, x, h, f) for x in gamma}
    assert any(fired)


def test_covering_word_checks_the_condition_once_per_stage(monkeypatch):
    """One check after the base word, then one on exit per fill: each fill's entry
    check is the check before it, on the same builder state, and reuses it."""
    calls = []
    real = nkomega.check_word_condition

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nkomega, "check_word_condition", counted)
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    for gamma in ([], [s.vertex(1, 5)], [s.vertex(1, 5), s.vertex(2, 7), s.vertex(3, 6)]):
        calls.clear()
        build_covering_word(ctx, q, gamma, [s.vertex(1, 20)])
        assert len(calls) == 1 + len(gamma)


def test_each_build_opens_one_builder_and_asks_each_check_once(monkeypatch):
    """Per n K_omega build: one IsoBuilder, one admissibility check of q and one of the
    finished h, and word-condition checks that never repeat a (builder state,
    arguments) pair: 1 + |gamma| per covering word, with |gamma| = |p| for each of
    the two."""
    opened, admitted, conditions = [], [], []
    real_init, real_admissible = IsoBuilder.__init__, nkomega.check_admissible
    real_condition = nkomega.check_word_condition

    def counted_init(self, base):
        opened.append(base)
        real_init(self, base)

    def counted_admissible(ctx, q):
        admitted.append(q)
        return real_admissible(ctx, q)

    def counted_condition(p, gamma, theta, phi, delta, w, f):
        conditions.append((tuple(p._fwd.items()), tuple(gamma), frozenset(theta),
                           frozenset(phi), frozenset(delta), w))
        return real_condition(p, gamma, theta, phi, delta, w, f)

    monkeypatch.setattr(IsoBuilder, "__init__", counted_init)
    monkeypatch.setattr(nkomega, "check_admissible", counted_admissible)
    monkeypatch.setattr(nkomega, "check_word_condition", counted_condition)
    for seed in range(12):
        rng = random.Random(seed)
        n = 3 + seed % 2
        f = nkomega_oracle(n, rng)
        ctx, q, p = nkomega_instance(f, rng, pair_comps=list(range(1, n + 1)))
        opened.clear(), admitted.clear(), conditions.clear()
        cert = density_witness_nkomega(ctx, q, p)
        assert len(opened) == 1 and len(admitted) == 2 and admitted[0] is q
        assert sorted(admitted[1].pairs()) == sorted(chain_pairs(cert.h))
        assert len(conditions) == 2 * (1 + len(p.iso)) == len(set(conditions))
        assert verify(cert).ok


def test_covering_word_randomized():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        f = nkomega_oracle(n, rng)
        ctx, q, _ = nkomega_instance(f, rng)
        s = f.session
        taken = q.support() | ctx.sigma_set()
        gamma = []
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(1, n)
            vtx = s.fresh_in_component(c, taken)
            taken.add(vtx)
            gamma.append(vtx)
        delta = []
        for _ in range(rng.randint(0, 2)):
            c = rng.randint(1, n)
            vtx = s.fresh_in_component(c, taken)
            taken.add(vtx)
            delta.append(vtx)
        h, w, phi = build_covering_word(ctx, q, gamma, delta)
        rep = check_word_condition(h, gamma, gamma, q.dom(), delta, w, f)
        assert rep.holds, f"seed {seed}: {rep}"
        # a growing map reads as its frozen value, failing clauses included
        for theta in (gamma, gamma[:1], ()):
            want = check_word_condition(h, gamma, theta, q.dom(), delta, w, f)
            got = check_word_condition(IsoBuilder(h), gamma, theta, q.dom(), delta, w, f)
            assert vars(got) == vars(want)


def test_index_fixing_class():
    s = GraphSession(GraphKind.nk_omega(2))
    with pytest.raises(HypothesisError, match="index-fixing"):
        IndexFixingIso(from_pairs(s, [(s.vertex(1, 0), s.vertex(2, 0))]))
    with pytest.raises(HypothesisError, match="fixing-disjoint"):
        IndexFixingIso(from_pairs(s, [(s.vertex(1, 0), s.vertex(1, 1)),
                                      (s.vertex(1, 1), s.vertex(1, 2))]))


def test_density_witness_trivial_target():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    cert = density_witness_nkomega(ctx, q, IndexFixingIso(from_pairs(s, [])))
    assert verify(cert).ok


def test_density_witness_small_ns():
    for seed, n in [(0, 2), (1, 2), (2, 3), (3, 5)]:
        cert = nkomega_trial(n, random.Random(seed))
        report = verify(cert)
        assert report.ok, str(report)


def test_h_grows_polynomially_in_the_target():
    """n = 3, |p| = 3, 6, 12, 24 with ``pair_comps`` cycling 1..3 (``Random(1000)``):
    every certificate verifies, every h is admissible, each word has at most 6
    letters per target point, and |h| grows at most 8x per doubling of |p|.

    Without a partner a base step appends nu a^m b a with m <= ord(sq) <= 3 at
    n = 3; here nu is empty, so a step adds at most 5 letters, and the sixth
    per point covers the leading a and the index suffix.  The words read 3.67,
    3.33, 3.17 and 3.08 letters per point (4.67 at most over ``Random(1..8)``
    and ``Random(1000..1009)``).  Each target point walks the whole word, so
    |h| is about quadratic in |p|: 65, 194, 668 and 2480, ratios 2.98, 3.44 and
    3.71 (4.09 at most over those instances).  The 8x gate is cubic growth.
    With the paper's m > |lam nu| the word doubled with each point: the median
    |h| over 20 such instances read 178, 3004 and about 390,000 at |p| = 3, 6
    and 12, ratios 17 and 130.
    """
    sizes = []
    for size in (3, 6, 12, 24):
        rng = random.Random(1000)
        f = nkomega_oracle(3, rng)
        ctx, q, p = nkomega_instance(f, rng, pair_comps=[1 + j % 3 for j in range(size)])
        cert = density_witness_nkomega(ctx, q, p)
        assert verify(cert).ok
        for key in ("w1", "w2"):
            assert len(parse_word(cert.data[key])) <= 6 * size, (size, cert.data[key])
        h = from_pairs(f.session, chain_pairs(cert.h))
        check_admissible(ctx, h)
        sizes.append(len(h))
    for small, large in zip(sizes, sizes[1:]):
        assert large <= 8 * small, sizes


def test_campaign_certificates_verify_at_n_3_to_8():
    """Trial 0 of seeds 1-3 at n = 3..8, the campaigns' and the CLI's first witness."""
    for n in range(3, 9):
        for seed in (1, 2, 3):
            cert = run_trial("nkomega", n, seed, 0)
            report = verify(cert)
            assert report.ok, (n, seed, str(report))


def _partner_state():
    """A map on which x and an established y walk ``a b a b`` to the same value e,
    x by all four letters and y by two: x -a-> x1 -b-> y -a-> y1 -b-> e, with e
    outside the map.  f's index permutation moves every component, so the index
    condition alone admits a one-letter run."""
    s = GraphSession(GraphKind.nk_omega(3))
    f = NKOracle(s, IndexPerm.from_cycles(3, [(1, 2, 3)]))
    x, x1 = s.vertex(3, 0), s.vertex(3, 1)
    y, y1 = f.image(x1), s.vertex(2, 2)
    b = IsoBuilder(from_pairs(s, [(x, x1), (y, y1), (s.vertex(2, 3), s.vertex(1, 3))]))
    return AFSigmaContext(f, ()), b, x, y, f.image(y1)


def test_base_step_run_outlasts_a_partner_walks_lead():
    """x's walk of ``a b a b`` ends where the established y's stops, two letters
    later: the run after the word must be at least that lead, or x and y read the
    same letters to the end and x's value is y's (``collision-resolved``).  The
    new point's run is then a^2, and a new point that trails its partner switches
    roles with it and gets the same word and map."""
    lam = parse_word("a b a b")
    ctx, b, x, y, e = _partner_state()
    phi = frozenset(b.dom())
    walks = WordWalks(lam, b, ctx.f, [x, y])
    assert [(walks.consumed(u), walks.value(u)) for u in (x, y)] == [(4, e), (2, e)]
    lam1, established = _base_step(ctx, b, lam, [y], x, phi, set(), FreshWindow(ctx.f), 0)
    assert str(lam1) == "a b a b a^2 b a" and established == [y, x]
    walks = WordWalks(lam1, b, ctx.f, established)
    assert walks.value(x) != walks.value(y) and walks.consumed(x) == len(lam1) - 1
    assert walks.consumed(y) < len(lam1) - 1

    ctx2, b2, _, _, _ = _partner_state()
    assert _base_step(ctx2, b2, lam, [x], y, phi, set(), FreshWindow(ctx2.f), 0) == (lam1, [y, x])
    assert b2.freeze().pairs() == b.freeze().pairs()


def test_base_step_run_shorter_than_the_lead_collides(monkeypatch):
    """The same state with the run held at the index condition's a^1: the walks of
    x and y never part, and the base step's own check names the collision."""
    real = nkomega._run_exponent
    monkeypatch.setattr(nkomega, "_run_exponent",
                        lambda ctx, sq, lam_nu, x, floor: real(ctx, sq, lam_nu, x, 1))
    ctx, b, x, y, _ = _partner_state()
    with pytest.raises(InternalCheckError, match="collision-resolved"):
        _base_step(ctx, b, parse_word("a b a b"), [y], x, frozenset(b.dom()), set(),
                   FreshWindow(ctx.f), 0)


def test_density_witness_rejects_stabilizing():
    s = GraphSession(GraphKind.nk_omega(2))
    band = [(s.vertex(1, 0), s.vertex(2, 0)), (s.vertex(2, 0), s.vertex(1, 0))]
    f = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]), 1, band)
    sigma = (s.vertex(1, 1),)
    ctx = AFSigmaContext(f, sigma)
    q = from_pairs(s, [(s.vertex(1, 1), s.vertex(2, 1)), (s.vertex(2, 2), s.vertex(1, 2))])
    with pytest.raises(HypothesisError, match="non-stabilizing"):
        density_witness_nkomega(ctx, q, IndexFixingIso(from_pairs(s, [])))


def test_n2_special_witness_and_routing():
    for seed in range(5):
        cert = n2_trial(random.Random(seed))
        assert cert.claim == "n2_word"
        report = verify(cert)
        assert report.ok, str(report)


def test_n2_identity_index_without_fixed_tail_takes_the_identity_branch():
    """n = 2 with f-index the identity, band-free and with no fixed tail: not routed to
    the n = 2 special witness, so the base steps take m = |lam nu| + 1, the one
    exponent open to them (supp(f-index) is empty, so the general search finds none),
    and the base word absorbs f's fixed band points (none here)."""
    s = GraphSession(GraphKind.nk_omega(2))
    f = NKOracle(s, IndexPerm.identity(2))
    sq = IndexPerm.from_cycles(2, [(1, 2)])
    for seed in range(4):
        rng = random.Random(seed)
        t = iter(rng.sample(range(2, 20), 8))  # distinct positions: fresh vertices
        a = rng.choice([1, 2])
        v = s.vertex(a, next(t))
        q = from_pairs(s, [(v, s.vertex(sq(a), next(t))),
                           (s.vertex(sq(a), next(t)), s.vertex(a, next(t)))])
        comps = sorted(rng.sample([1, 2], rng.randint(1, 2)))
        p = IndexFixingIso(from_pairs(s, [(s.vertex(c, next(t)), s.vertex(c, next(t)))
                                          for c in comps]))
        cert = density_witness_nkomega(AFSigmaContext(f, (v,)), q, p)
        assert cert.claim == certs.NKOMEGA_CLAIM
        report = verify(cert)
        assert report.ok, str(report)


def test_n2_wrong_routing_rejected():
    ctx, s, f = simple_ctx()  # n = 3 oracle
    q = simple_q(ctx, s)
    with pytest.raises(HypothesisError, match="routing"):
        density_witness_n2(ctx, q, IndexFixingIso(from_pairs(s, [])))


def test_nk_iterate_and_orbit_coord_match_oracle_steps():
    """(v)f^k in closed form, and the steps read off it, against |k| steps of the
    reference policy for k in -60..60, on band, fixed-tail and spine vertices; f adds 1
    to the orbit coordinate."""
    rng = random.Random(11)
    seen = set()
    for trial in range(24):
        n = 2 + trial % 4
        f = random_band_oracle(n, rng, max_rows=3)
        ref = PolicySteps(f)
        s, rows, fixed = f.session, f.band_rows, f.fixed_tail
        for _ in range(6):
            v = s.vertex(rng.randint(1, n), rng.randrange(rows + 8))
            key, at, period = f.orbit_coord(v)
            kind = "band" if s.position_of(v) < rows else \
                "fixed" if s.component_of(v) in fixed else "spine"
            seen.add(kind)
            assert (period == 0) == (kind == "spine")
            assert f.vertex_at(key, at) == v
            nxt = f.orbit_coord(ref.step(v))
            assert nxt == (key, (at + 1) % period if period else at + 1, period)
            fw, bw = v, v
            assert f.iterate(v, 0) == v
            for k in range(1, 61):
                fw, bw = ref.step(fw), ref.step(bw, forward=False)
                assert f.iterate(v, k) == f.image(f.iterate(v, k - 1)) == fw
                assert f.iterate(v, -k) == f.preimage(f.iterate(v, 1 - k)) == bw
    assert seen == {"band", "fixed", "spine"}


def test_memoized_orbit_coord_matches_a_fresh_oracle():
    """Each vertex, asked in random order and asked twice, gets the coordinate a new
    oracle with nothing memoized gives, on band, fixed-tail and spine vertices; so
    do its memoized one-step image and preimage, which must be the vertices at
    s + 1 and s - 1 of its orbit on the new oracle, whichever direction asked first."""
    rng = random.Random(12)
    seen = set()
    from_memo = 0
    for trial in range(24):
        n = 2 + trial % 4
        f = random_band_oracle(n, rng, max_rows=3)
        s, rows, desc = f.session, f.band_rows, f.description()
        verts = [s.vertex(c, t) for c in range(1, n + 1) for t in range(rows + 6)]
        asks = verts + rng.sample(verts, len(verts))
        rng.shuffle(asks)
        first = {}
        for v in asks:
            fresh = oracle_from_description(s, desc)
            got = f.orbit_coord(v)
            assert got == fresh.orbit_coord(v)
            assert first.setdefault(v, got) is got  # the second answer is the memo's
            key, at, _ = got
            steps = [(f.try_image, f._memo_next, 1), (f.try_preimage, f._memo_prev, -1)]
            for step, memo, k in rng.sample(steps, 2):
                from_memo += v in memo
                assert step(v) == fresh.vertex_at(key, at + k) == fresh.iterate(v, k)
            seen.add("band" if s.position_of(v) < rows else
                     "fixed" if s.component_of(v) in f.fixed_tail else "spine")
    assert seen == {"band", "fixed", "spine"}
    assert from_memo > 100  # asked twice, or filled by the step that lands on v


def test_band_orbits_match_brute_components():
    """The band's cycles, each from its lowest vertex, in order of it, against the
    pointwise walk over the reference policy's images of the band."""
    rng = random.Random(13)
    lengths = set()
    for trial in range(40):
        n = 2 + trial % 4
        f = random_band_oracle(n, rng)
        s = f.session
        pairs = [(v, PolicySteps(f).step(v)) for v in
                 (s.vertex(c, t) for c in range(1, n + 1) for t in range(f.band_rows))]
        comps = brute_components(pairs)
        assert all(cyclic for _, cyclic in comps)
        assert f.band_orbits() == [c for c, _ in comps]
        lengths.update(map(len, f.band_orbits()))
    assert {1, 2, 3} <= lengths


def test_covering_word_grows_a_given_builder_and_leaves_a_map_unchanged():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    before = q.pairs()
    gamma = [s.vertex(1, 5), s.vertex(2, 7)]
    delta = [s.vertex(1, 20)]
    h, w, phi = build_covering_word(ctx, q, gamma, delta)
    assert q.pairs() == before
    b = IsoBuilder(q)
    hb, wb, phib = build_covering_word(ctx, b, gamma, delta)
    assert (hb.pairs(), wb, phib) == (h.pairs(), w, phi)
    assert b.pairs() == h.pairs() and len(h) > len(q)
    assert q.pairs() == before


def test_landing_orbit_matches_brute_components_on_random_growth():
    """On a builder grown in place, after every add (fresh pairs, growth at a head or a
    tail, joins by amalgamate, cycle closures), landing_orbit gives each vertex's chain
    or cycle as pointwise chasing finds it, at every kind of vertex, and a vertex
    outside the support alone: what the landing checks read against phi."""
    kinds = set()
    for seed in range(16):
        rng = random.Random(seed)
        n = 2 + seed % 3
        f = nkomega_oracle(n, rng)
        ctx, q, _ = nkomega_instance(f, rng)
        s = f.session
        b = IsoBuilder(q)
        sq = b.index_perm()
        for _ in range(40):
            tails = sorted(set(b.ran()) - set(b.dom()))
            heads = sorted(set(b.dom()) - set(b.ran()))
            move = rng.random()
            try:
                if move < 0.3 and tails and heads:
                    x, y = rng.choice(tails), rng.choice(heads)
                    if b.component(x) == b.component(y):
                        b.add(x, y)  # closes the chain into a cycle
                    else:
                        amalgamate(ctx, b, x, y)
                elif move < 0.5 and tails:
                    x = rng.choice(tails)
                    b.add(x, b.fresh(sq(s.component_of(x))))
                elif move < 0.7 and heads:
                    y = rng.choice(heads)
                    b.add(b.fresh(sq.inverse()(s.component_of(y))), y)
                else:
                    c = rng.randint(1, n)
                    x = b.fresh(c)
                    b.add(x, b.fresh(sq(c), {x}))
            except (HypothesisError, IsoError):
                continue
            comp_of = {v: set(chain) for chain, _ in brute_components(b.pairs())
                       for v in chain}
            outside = {s.vertex(rng.randint(1, n), rng.randrange(60)) for _ in range(4)}
            for z in sorted(b.support() | (outside - b.support())):
                kinds.add("outside" if not b.in_support(z) else
                          "head" if z not in b.ran() else "tail" if z not in b.dom() else
                          "cycle" if b.component(z).complete else "mid-chain")
                orbit = landing_orbit(b, z)
                assert len(set(orbit)) == len(orbit)
                assert set(orbit) == comp_of.get(z, {z})
    assert kinds == {"outside", "head", "tail", "mid-chain", "cycle"}


def test_product_check_walks_every_target_pair_and_stops_a_missed_one(monkeypatch):
    """Every engine checks its product through certs.certify with certs.product_miss
    at each pair of p, as verify does, and a miss stops the build before any
    certificate is made."""
    real = certs.product_miss
    for family, n, claim in (("henson", 3, certs.HENSON_CLAIM),
                             ("omega-kn", 3, certs.OMEGA_CLAIM),
                             ("nkomega", 3, certs.NKOMEGA_CLAIM), ("n2", 2, certs.N2_CLAIM)):
        asked = []

        def recording(word, pairs, h, f):
            asked.append(list(pairs))
            return real(word, pairs, h, f)

        monkeypatch.setattr(certs, "product_miss", recording)
        cert = run_trial(family, n, 5, 0)
        assert cert.claim == claim
        pairs = sorted(chain_pairs(cert.p))
        # verify reads the same patched binding, so the engine's record is taken first
        assert asked == [pairs]
        assert verify(cert).ok
        assert asked == [pairs, pairs]
        monkeypatch.setattr(certs, "product_miss", lambda word, pairs, h, f: (0, 1, None))
        with pytest.raises(InternalCheckError) as e:
            run_trial(family, n, 5, 0)
        assert str(e.value) == \
            "internal check product-extends-target failed: (x, y, got) = (0, 1, None)"


def test_word_condition_checks_write_the_report_only_on_failure(monkeypatch):
    """base-word-condition and word-condition-exit name the failing report as before,
    and a build whose checks all hold never writes a report's text."""
    written = []
    real_str = WordConditionReport.__str__
    monkeypatch.setattr(WordConditionReport, "__str__",
                        lambda rep: written.append(rep) or real_str(rep))
    f = nkomega_oracle(3, random.Random(5))
    instance = nkomega_instance(f, random.Random(5), pair_comps=[1, 2, 3])
    assert verify(density_witness_nkomega(*copy.deepcopy(instance))).ok
    assert written == []

    failing = WordConditionReport(False, [5], {5: "points 1 and 2 collide at 3"})
    text = "word condition fails -- clause 5: points 1 and 2 collide at 3"
    real = nkomega._word_condition
    for clause, fails in (("base-word-condition", lambda gamma, theta: not theta),
                          ("word-condition-exit", lambda gamma, theta: set(theta) == set(gamma))):
        def word_condition(ctx, b, gamma, theta, phi, delta, w, fails=fails):
            return failing if fails(gamma, theta) else real(ctx, b, gamma, theta, phi, delta, w)

        monkeypatch.setattr(nkomega, "_word_condition", word_condition)
        with pytest.raises(InternalCheckError) as e:
            density_witness_nkomega(*copy.deepcopy(instance))
        assert str(e.value) == f"internal check {clause} failed: {text}"


def test_internal_check_calls_a_detail_function_only_on_failure():
    def boom():
        raise AssertionError("detail written for a check that holds")

    internal_check(True, "holds", boom)
    for detail in ("3 does not reach 4", lambda: "3 does not reach 4"):
        with pytest.raises(InternalCheckError) as e:
            internal_check(False, "chain-connects", detail)
        assert (e.value.clause, str(e.value)) == \
            ("chain-connects", "internal check chain-connects failed: 3 does not reach 4")
