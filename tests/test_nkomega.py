import random

import pytest

from ultrahom.campaigns import n2_trial, nkomega_instance, nkomega_oracle, nkomega_trial
from ultrahom.certs import verify
from ultrahom.errors import GraphError, HypothesisError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.nkomega import (AFSigmaContext, IndexFixingIso, amalgamate,
                              build_base_word, build_covering_word,
                              check_admissible, class_one_point,
                              class_witness_perm, classify_stabilizing,
                              density_witness_n2, density_witness_nkomega,
                              easy_one_point, escape_exponents,
                              extend_orbit_reps, extend_word_domain,
                              piccard_partner, split_index_fixing)
from ultrahom.oracles import NKOracle
from ultrahom.partial_iso import (FreshWindow, compose, from_pairs, index_perm_of,
                                  orbit_rep_profile)
from ultrahom.perms import IndexPerm, all_perms, closure, generates_symmetric
from ultrahom.words import b_count, chase, check_word_condition, parse_word


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


def test_easy_one_point(nk3):
    v = nk3.vertex
    q = from_pairs(nk3, [(v(1, 0), v(2, 0)), (v(2, 1), v(3, 0)), (v(3, 1), v(1, 1))])
    out = easy_one_point(q, v(1, 5), v(2, 5))
    assert out.apply(v(1, 5)) == v(2, 5)
    with pytest.raises(HypothesisError, match="component-match"):
        easy_one_point(q, v(1, 6), v(3, 6))
    with pytest.raises(HypothesisError, match="x-free"):
        easy_one_point(q, v(1, 0), v(2, 9))


def test_class_one_point_and_chain_growth():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    before = len(q.components().components)
    out = class_one_point(ctx, q, s.vertex(2, 0), s.vertex(1, 7))
    assert len(out.components().components) == before  # chain grew, no new chain
    with pytest.raises(HypothesisError, match="y-fresh"):
        class_one_point(ctx, q, s.vertex(2, 0), s.vertex(1, 1))
    with pytest.raises(HypothesisError, match="sigma-in-dom"):
        bad_ctx = AFSigmaContext(f, (s.vertex(1, 9),))
        q2 = from_pairs(s, list(q.pairs()) + [(s.vertex(1, 9), s.vertex(2, 9))])
        class_one_point(bad_ctx, from_pairs(s, [p for p in q2.pairs()
                                                if p[0] != s.vertex(1, 9)]),
                        s.vertex(1, 9), s.vertex(2, 10))


def test_amalgamate():
    ctx, s, f = simple_ctx()
    v = s.vertex
    # two chains in components 1->2 plus sigma chains elsewhere
    pairs = [(v(1, 0), v(2, 0)), (v(3, 0), v(3, 1)), (v(2, 1), v(1, 1)),
             (v(1, 2), v(2, 2)), (v(1, 3), v(2, 3))]
    q = from_pairs(s, pairs)
    # join the sigma-free chain (1,3)->(2,3) onto (1,2)->(2,2): tail (2,2) to head (1,3)
    out = amalgamate(ctx, q, v(2, 2), v(1, 3))
    assert out.apply(v(2, 2)) == v(1, 3)
    with pytest.raises(HypothesisError, match="distinct-components"):
        amalgamate(ctx, out, v(2, 3), v(1, 2))
    sig2 = AFSigmaContext(f, (v(1, 2), v(1, 3), v(1, 0), v(3, 0)))
    with pytest.raises(HypothesisError, match="would-orphan"):
        amalgamate(sig2, q, v(2, 2), v(1, 3))


def test_check_admissible_errors():
    ctx, s, f = simple_ctx()
    with pytest.raises(HypothesisError, match="index-perm-total"):
        check_admissible(ctx, from_pairs(s, [(s.vertex(1, 0), s.vertex(2, 0))]))
    q = simple_q(ctx, s)
    assert check_admissible(ctx, q).cycle_notation() == "(1 2)"
    bad_sigma = AFSigmaContext(f, (s.vertex(1, 0),))
    with pytest.raises(HypothesisError, match="sigma-reachability"):
        check_admissible(bad_sigma, q)


def test_extend_orbit_reps():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    out = extend_orbit_reps(ctx, q, depth=0)
    profile = orbit_rep_profile(out, ctx.sigma_set())
    assert all(k == 1 for k in profile.values())
    for x in sorted(q.ran() - q.dom()):
        assert out.apply(x) is not None and out.apply(x) not in q.dom()
    deep = extend_orbit_reps(ctx, q, depth=12)
    assert deep.extends(q)
    for vtx in range(12):
        assert vtx in deep.dom() and vtx in deep.ran()
    assert all(k == 1 for k in orbit_rep_profile(deep, ctx.sigma_set()).values())


def test_piccard_partner_small():
    assert piccard_partner(IndexPerm.identity(2)).cycle_notation() == "(1 2)"
    assert piccard_partner(IndexPerm.identity(3)) is None
    b = piccard_partner(IndexPerm.from_cycles(3, [(1, 2, 3)]))
    assert generates_symmetric(3, [IndexPerm.from_cycles(3, [(1, 2, 3)]), b])
    with pytest.raises(GraphError, match="desk range"):
        piccard_partner(IndexPerm.identity(9))


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


def test_class_witness_perm():
    ctx, s, f = simple_ctx()
    sigma_perm = class_witness_perm(ctx)
    assert sigma_perm is not None
    assert generates_symmetric(3, [f.index_perm(), sigma_perm])
    empty_ctx = AFSigmaContext(f, ())
    assert class_witness_perm(empty_ctx) is None
    # n = 4 with the exceptional index permutation: nothing generates
    s4 = GraphSession(GraphKind.nk_omega(4))
    f4 = NKOracle(s4, IndexPerm.from_cycles(4, [(1, 2), (3, 4)]))
    rich = AFSigmaContext(f4, tuple(s4.vertex(c, 0) for c in (1, 2, 3, 4)))
    assert class_witness_perm(rich) is None


def test_classify_stabilizing():
    s = GraphSession(GraphKind.nk_omega(2))
    # band orbit hitting each component once: stabilizing with witness
    band = [(s.vertex(1, 0), s.vertex(2, 0)), (s.vertex(2, 0), s.vertex(1, 0))]
    f = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]), band_rows=1, band_pairs=band)
    verdict = classify_stabilizing(f, 8)
    assert verdict.stabilizing and set(verdict.witness) == {s.vertex(1, 0), s.vertex(2, 0)}
    # pure spine: no finite orbits at all
    g = NKOracle(s, IndexPerm.from_cycles(2, [(1, 2)]))
    assert not classify_stabilizing(g, 8).stabilizing
    # unequal component counts in every stabilized set
    s3 = GraphSession(GraphKind.nk_omega(3))
    band3 = [(s3.vertex(1, 0), s3.vertex(1, 0))] + \
        [(s3.vertex(c, 0), s3.vertex(c, 0)) for c in (2, 3)]
    h = NKOracle(s3, IndexPerm.identity(3), band_rows=1, band_pairs=band3)
    assert classify_stabilizing(h, 8).stabilizing  # all three fixed: equal count 1
    with pytest.raises(GraphError):
        classify_stabilizing(g, 0)


def test_classify_stabilizing_unequal_band():
    s = GraphSession(GraphKind.nk_omega(2))
    # two fixed points in component 1's band, none in component 2's row 0 fixed
    band = [(s.vertex(1, 0), s.vertex(1, 1)), (s.vertex(1, 1), s.vertex(1, 0)),
            (s.vertex(2, 0), s.vertex(2, 1)), (s.vertex(2, 1), s.vertex(2, 0))]
    f = NKOracle(s, IndexPerm.identity(2), band_rows=2, band_pairs=band)
    # both components carry one 2-orbit: equal counts exist
    assert classify_stabilizing(f, 8).stabilizing
    band_skew = [(s.vertex(1, 0), s.vertex(1, 1)), (s.vertex(1, 1), s.vertex(1, 0)),
                 (s.vertex(2, 0), s.vertex(2, 0)), (s.vertex(2, 1), s.vertex(2, 1))]
    g = NKOracle(s, IndexPerm.identity(2), band_rows=2, band_pairs=band_skew)
    # 2-orbit in L1 vs singletons in L2: counts 2 vs 2 achievable -> stabilizing
    assert classify_stabilizing(g, 8).stabilizing


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
    x = v(1, 0)
    fwd = {True: lambda u, k: _chase_alt(cyc, f, u, k)}
    val = x
    for i, e in enumerate(exps):
        val = _apply_power(cyc, val, e) if i % 2 == 0 else _apply_f(f, val, e)
    assert val not in cyc.dom()


def _apply_power(q, x, k):
    return q.chase(x, k)


def _apply_f(f, x, k):
    return f.iterate(x, k)


def _chase_alt(q, f, x, k):
    return None


def test_base_and_fill_word():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    gamma = [s.vertex(1, 5)]
    delta = [s.vertex(3, 9)]
    h, w, phi = build_base_word(ctx, q, gamma, delta)
    assert w.starts_with("a") and not w.has_negative("a")
    rep = check_word_condition(h, gamma, (), phi, delta, w, f)
    assert rep.holds
    h2 = extend_word_domain(ctx, h, gamma, (), phi, delta, w, gamma[0])
    rep2 = check_word_condition(h2, gamma, gamma, phi, delta, w, f)
    assert rep2.holds
    with pytest.raises(HypothesisError, match="x-new"):
        extend_word_domain(ctx, h2, gamma, gamma, phi, delta, w, gamma[0])
    # a window carried between calls must have the word's radius
    with pytest.raises(HypothesisError, match="window-radius"):
        extend_word_domain(ctx, h, gamma, (), phi, delta, w, gamma[0],
                           FreshWindow(f, b_count(w) + 1))


def test_covering_word_multi_gamma():
    ctx, s, f = simple_ctx()
    q = simple_q(ctx, s)
    gamma = [s.vertex(1, 5), s.vertex(2, 7), s.vertex(3, 6)]
    delta = [s.vertex(1, 20), s.vertex(2, 20)]
    h, w, phi = build_covering_word(ctx, q, gamma, delta)
    rep = check_word_condition(h, gamma, gamma, q.dom(), delta, w, f)
    assert rep.holds, str(rep)
    assert not h.ran() & set(delta)


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


def test_split_index_fixing(nk3):
    v = nk3.vertex
    q = from_pairs(nk3, [(v(1, 0), v(2, 0)), (v(2, 1), v(3, 1)), (v(3, 2), v(1, 2))])
    p1, p2, adjust = split_index_fixing(q)
    assert compose(adjust, p1.iso, p2.iso).extends(q)
    # identity-indexed input: adjust collapses to the identity map on dom(q)
    qid = from_pairs(nk3, [(v(1, 0), v(1, 1)), (v(2, 0), v(2, 1))])
    p1, p2, adjust = split_index_fixing(qid)
    assert all(x == y for x, y in adjust.pairs())
    assert compose(adjust, p1.iso, p2.iso).extends(qid)
    e1, e2, eadj = split_index_fixing(from_pairs(nk3, []))
    assert len(e1.iso) == 0


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


def test_n2_wrong_routing_rejected():
    ctx, s, f = simple_ctx()  # n = 3 oracle
    q = simple_q(ctx, s)
    with pytest.raises(HypothesisError, match="routing"):
        density_witness_n2(ctx, q, IndexFixingIso(from_pairs(s, [])))
