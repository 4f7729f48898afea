import json
import random

import pytest

from conftest import chase_pairs, gap_ids, schema_3_transcript
from ultrahom import henson
from ultrahom.campaigns import _random_kfree_subset, henson_trial
from ultrahom.certs import WitnessCertificate, certify, verify
from ultrahom.errors import GraphError, HypothesisError, InternalCheckError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.henson import (SeparatedIso, build_conjugator, chain_link,
                             density_witness_henson, neigh_extend,
                             one_point_extend, pad_components)
from ultrahom.oracles import LazyOracle
from ultrahom.partial_iso import (IsoBuilder, PartialIso, chain_pairs, cycle_free, empty,
                                  from_pairs, power, validate)
from perfbench.workloads import HensonWide, henson_wide_instance, stream


def fresh(s, U=(), V_all=True):
    return s.alice_witness(U, set(s.realized()) - set(U) if V_all else ())


def test_neigh_extend_success_and_failure(h3):
    a, b = fresh(h3), fresh(h3)
    q = IsoBuilder(empty(h3))
    neigh_extend(q, a, b)
    assert q.pairs() == ((a, b),)
    # y adjacent to an image whose preimage is not a neighbour of x
    c = fresh(h3)
    d = fresh(h3, U=(b,))
    with pytest.raises(HypothesisError, match="neighbourhood-match"):
        neigh_extend(q, c, d)
    with pytest.raises(HypothesisError, match="x-free"):
        neigh_extend(q, a, c)


def test_one_point_extend_contract(h3):
    a = fresh(h3)
    b = fresh(h3, U=(a,))
    q = from_pairs(h3, [(a, b)])
    avoid = set(q.ran())
    grown = IsoBuilder(q)
    y = one_point_extend(grown, b)
    assert y not in avoid and y != b
    q2 = grown.freeze()
    assert q2.extends(q) and cycle_free(q2)
    # witness postcondition: the new image mirrors the source neighbourhood
    assert h3.neighbors_within(y, q.ran()) == {q.apply(u) for u in
                                               h3.neighbors_within(b, q.dom())}


def test_one_point_extend_keeps_class(h3):
    rng = random.Random(20)
    q = IsoBuilder(empty(h3))
    start = fresh(h3)
    one_point_extend(q, start)
    for _ in range(6):
        tail = sorted(q.ran() - q.dom())[0]
        one_point_extend(q, tail)
        assert cycle_free(q.freeze())


def test_pad_components_uniform(h3):
    grown = IsoBuilder(empty(h3))
    a = fresh(h3)
    one_point_extend(grown, a)
    b = fresh(h3)
    y = one_point_extend(grown, b)
    one_point_extend(grown, y)
    q = grown.freeze()
    m = pad_components(grown)
    assert m == 3
    padded = grown.freeze()
    assert {len(c) for c in padded.components().components} == {3}
    assert padded.extends(q)
    with pytest.raises(HypothesisError, match="cycle-free"):
        pad_components(IsoBuilder(from_pairs(h3, [(a, a)])))


def test_chain_link_degenerate(h3):
    x, y = fresh(h3), fresh(h3)
    b = IsoBuilder(empty(h3))
    chain_link(b, set(), set(), [(x, y)], m=1, sigma1=set(), sigma2=set())
    out = b.freeze()
    assert out.chase(x, 2) == y
    assert cycle_free(out)
    interior = out.support() - {x, y}
    assert len(interior) == 1


def test_chain_link_names_the_pair_a_chain_fails_to_connect(h3, monkeypatch):
    """chain-connects writes "x does not reach y" when it fails: forced here, since a
    chain that chain_link builds always connects."""
    real = henson.internal_check
    monkeypatch.setattr(henson, "internal_check", lambda cond, clause, detail="":
                        real(cond and clause != "chain-connects", clause, detail))
    x, y = fresh(h3), fresh(h3)
    with pytest.raises(InternalCheckError) as e:
        chain_link(IsoBuilder(empty(h3)), set(), set(), [(x, y)], m=1, sigma1=set(), sigma2=set())
    assert str(e.value) == f"internal check chain-connects failed: {x} does not reach {y}"


def test_chain_link_hypothesis_errors(h3):
    x, y = fresh(h3), fresh(h3)
    q = from_pairs(h3, [(x, y)])
    with pytest.raises(HypothesisError):
        chain_link(IsoBuilder(q), set(), {x, y}, [(x, y)], 1, set(), set())  # endpoints not free
    # gamma may hold components of up to 2m vertices: a single pair at m = 1 links,
    # and so does a chain of 2m = 4 at m = 2, but one of 2m + 1 = 3 at m = 1 does not
    grown, z, w = IsoBuilder(q), fresh(h3), fresh(h3)
    chain_link(grown, set(), {x, y}, [(z, w)], 1, set(), set())
    assert grown.chase(z, 2) == w and grown.chase(x, 2) is None
    long = IsoBuilder(q)
    one_point_extend(long, y)
    gamma = set(long.support())
    with pytest.raises(HypothesisError, match=f"component of {x} has 3 vertices"):
        chain_link(long, set(), gamma, [(fresh(h3), fresh(h3))], 1, set(), set())
    one_point_extend(long, max(gamma - {x, y}))
    z, w = fresh(h3), fresh(h3)
    chain_link(long, set(), set(long.support()), [(z, w)], 2, set(), set())
    assert long.chase(z, 4) == w and long.chase(x, 3) is not None and long.chase(x, 4) is None
    # x and y must agree through q^2 on their neighbours in delta = {a, b, c}
    a, b, c = fresh(h3), fresh(h3), fresh(h3)
    q = from_pairs(h3, [(a, b), (b, c)])
    x = fresh(h3, U=(b,))
    with pytest.raises(HypothesisError, match=f"neighbour {b} of x escapes"):
        chain_link(IsoBuilder(q), {a, b, c}, set(), [(x, fresh(h3))], 1, set(), set())
    x = fresh(h3, U=(a,))
    with pytest.raises(HypothesisError, match="delta-neighbourhood-match"):
        chain_link(IsoBuilder(q), {a, b, c}, set(), [(x, fresh(h3))], 1, set(), set())
    grown, y = IsoBuilder(q), fresh(h3, U=(c,))
    chain_link(grown, {a, b, c}, set(), [(x, y)], 1, set(), set())
    assert grown.chase(x, 2) == y


def test_chain_link_checks_each_pair_against_the_grown_delta(h3):
    a, b, c = fresh(h3), fresh(h3), fresh(h3)
    q = from_pairs(h3, [(a, b), (b, c)])
    x1, y1 = fresh(h3, U=(a,)), fresh(h3, U=(c,))
    x2 = fresh(h3, U=(x1,))  # x1 joins delta with the first link; (x1)q^2 = y1
    grown = IsoBuilder(q)
    with pytest.raises(HypothesisError, match="delta-neighbourhood-match"):
        chain_link(grown, {a, b, c}, set(), [(x1, y1), (x2, fresh(h3))], 1, set(), set())
    assert grown.chase(x1, 2) == y1  # the first pair was linked before the second failed
    grown, y2 = IsoBuilder(q), fresh(h3, U=(y1,))
    chain_link(grown, {a, b, c}, set(), [(x1, y1), (x2, y2)], 1, set(), set())
    assert grown.chase(x1, 2) == y1 and grown.chase(x2, 2) == y2
    assert cycle_free(grown.freeze())


def test_chain_link_names_an_unknown_sigma_vertex_before_linking(h3):
    x, y, target = fresh(h3), fresh(h3), fresh(h3)
    b = IsoBuilder(empty(h3))
    with pytest.raises(GraphError, match=f"unknown vertex {10 ** 6}"):
        chain_link(b, set(), set(), [(x, y)], 2, sigma1={target}, sigma2={10 ** 6})
    assert not b.pairs()
    chain_link(b, set(), set(), [(x, y)], 2, sigma1={target}, sigma2=set())
    assert b.chase(x, 4) == y and not b.in_support(target)


def test_chain_link_checks_gamma_before_creating_a_witness(h3):
    """A gamma component of 2m + 1 vertices is refused before any link starts."""
    b = IsoBuilder(empty(h3))
    one_point_extend(b, fresh(h3))
    for _ in range(3):
        one_point_extend(b, sorted(b.ran() - b.dom())[0])
    q = b.pairs()
    assert b.longest_component() == 5
    pairs = [(fresh(h3), fresh(h3)), (fresh(h3), fresh(h3))]
    before = len(h3.transcript())
    with pytest.raises(HypothesisError, match="gamma-length"):
        chain_link(b, set(), b.support(), pairs, 2, set(), set())
    assert len(h3.transcript()) == before
    assert b.pairs() == q


def test_build_conjugator_single_pair(h3):
    a, b = fresh(h3), fresh(h3)
    p = SeparatedIso(from_pairs(h3, [(a, b)]))
    h, m = build_conjugator(empty(h3), p)
    assert power(h, 2 * m).extends(p.iso)
    assert cycle_free(h)


def test_build_conjugator_two_pairs_with_edges(h3):
    a = fresh(h3)
    b = fresh(h3, U=(a,))
    c = fresh(h3)
    d = fresh(h3, U=(c,))
    p = SeparatedIso(from_pairs(h3, [(a, c), (b, d)]))
    b = IsoBuilder(empty(h3))
    one_point_extend(b, fresh(h3))
    q = b.freeze()
    assert not q.support() & p.iso.support()
    h, m = build_conjugator(q, p)
    assert power(h, 2 * m).extends(p.iso)
    assert h.extends(q)


def test_build_conjugator_rejects_shared_support(h3):
    a, b = fresh(h3), fresh(h3)
    p = SeparatedIso(from_pairs(h3, [(a, b)]))
    q = from_pairs(h3, [(a, fresh(h3))])
    with pytest.raises(HypothesisError, match="supports-disjoint"):
        build_conjugator(q, p)


def test_build_conjugator_grows_a_builder_and_leaves_a_frozen_q_as_it_was(h3):
    """Given a builder, the chains grow that builder, which comes back with m; given a
    frozen q, a new builder grows and q keeps its pairs."""
    def three_chain_and_target():
        b = IsoBuilder(empty(h3))
        one_point_extend(b, one_point_extend(b, fresh(h3)))  # 3 vertices, so m = 2
        return b, _separated_pair(h3)

    b, p = three_chain_and_target()
    before = b.freeze()
    h, m = build_conjugator(b, p)
    assert h is b and m == 2
    assert b.extends(before) and len(b) > len(before) and b.cycle_free()
    assert power(b, 2 * m).extends(p.iso)

    b, p = three_chain_and_target()
    q = b.freeze()
    fwd, bwd = dict(q._fwd), dict(q._bwd)
    h, m = build_conjugator(q, p)
    assert isinstance(h, PartialIso) and m == 2
    assert q._fwd == fwd and q._bwd == bwd
    assert h.extends(q) and len(h) > len(q) and cycle_free(h)
    assert power(h, 2 * m).extends(p.iso)


def test_build_conjugator_on_the_march_builder_makes_the_frozen_path_h(monkeypatch):
    """On the seed-1 henson-wide pool the witness conjugates its march builder in place.
    The same r and u, frozen on a twin session replayed to that point, give the same h
    and m through a new builder, and make the same witnesses."""
    calls = []

    def both_ways(r, u):
        s = r.session
        twin = GraphSession.replay_sets(s.kind, [(w, U) for U, w in s.transcript()])
        r_frozen = validate(twin, r._fwd.items())
        r_pairs = r_frozen.pairs()
        want_h, want_m = build_conjugator(r_frozen, SeparatedIso(validate(twin, u.iso.pairs())))
        h, m = build_conjugator(r, u)
        assert h is r and isinstance(want_h, PartialIso) and r_frozen.pairs() == r_pairs
        assert (h.pairs(), m) == (want_h.pairs(), want_m)
        assert s.transcript() == twin.transcript()
        calls.append(m)
        return h, m

    monkeypatch.setattr(henson, "build_conjugator", both_ways)
    pool = HensonWide().setup(1).entries
    for f, q, p in pool:
        assert verify(density_witness_henson(f, q, p)).ok
    assert len(calls) == len(pool) == 16


def test_separated_class_rejects_edges(h3):
    a = fresh(h3)
    b = fresh(h3, U=(a,))
    with pytest.raises(HypothesisError, match="separated"):
        SeparatedIso(from_pairs(h3, [(a, b)]))
    with pytest.raises(HypothesisError, match="separated"):
        SeparatedIso(from_pairs(h3, [(a, a)]))


def test_density_witness_trivial_target(h3):
    f = LazyOracle(h3)
    cert = density_witness_henson(f, empty(h3), SeparatedIso(empty(h3)))
    assert verify(cert).ok


def test_density_witness_shifted_oracle(h3):
    f = LazyOracle(h3)
    a, b = fresh(h3), fresh(h3)
    f.image(a)  # pre-populate a shift-like cache
    p = SeparatedIso(from_pairs(h3, [(a, b)]))
    cert = density_witness_henson(f, empty(h3), p)
    assert verify(cert).ok
    assert cert.data["m"] >= 1 and cert.data["l"] >= 1


def test_density_witness_randomized_small():
    for seed in range(8):
        cert = henson_trial(3, random.Random(seed))
        report = verify(cert)
        assert report.ok, str(report)


def test_density_witness_henson_n4():
    cert = henson_trial(4, random.Random(77))
    assert verify(cert).ok


@pytest.mark.parametrize("width", [16, 32])
def test_henson_build_queries_the_oracle_linearly_in_the_target(monkeypatch, width):
    """The march materializes f only on vertices that joined since its last step."""
    queries = []
    for name in ("try_image", "try_preimage"):
        real = getattr(LazyOracle, name)

        def counted(self, v, _real=real):
            queries.append(v)
            return _real(self, v)

        monkeypatch.setattr(LazyOracle, name, counted)
    f, q, p = henson_wide_instance(stream(1, "scale", 0), width=width)
    queries.clear()
    density_witness_henson(f, q, p)
    assert len(queries) <= 50 * width, len(queries)


@pytest.mark.parametrize("width", [16, 32])
def test_henson_build_states_witnesses_linearly_in_the_target(monkeypatch, width):
    """A witness call names only its U: the build passes no fence of size |r|."""
    named = []
    real = GraphSession.alice_witness

    def counted(self, U, V=(), forbidden=()):
        U, V, forbidden = list(U), list(V), list(forbidden)
        named.append(len(U) + len(V) + len(forbidden))
        return real(self, U, V, forbidden)

    f, q, p = henson_wide_instance(stream(1, "scale", 0), width=width)
    monkeypatch.setattr(GraphSession, "alice_witness", counted)
    density_witness_henson(f, q, p)
    assert named and sum(named) <= 100 * width, (len(named), sum(named))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_chain_link_accepts_exactly_gamma_components_of_at_most_2m(m):
    """Reference: chain_link links iff every gamma chain has at most 2m vertices.

    gamma is 1-3 random chains of 2..2m+1 vertices (a component has at least
    one pair), and each x sees a random K_{n-1}-free set of gamma, so a
    neighbour's image under b^{2m} would be read if gamma were too long.
    After linking, a pair-by-pair chase sends each x to its y in 2m steps
    and leaves every gamma vertex undefined at 2m.
    """
    rng = random.Random(m)
    accepted = rejected = 0
    for trial in range(12):
        s = GraphSession(GraphKind.henson(3 + trial % 2))
        b = IsoBuilder(empty(s))
        for _ in range(rng.randint(1, 3)):
            v = s.alice_witness(_random_kfree_subset(s, s.realized(), rng, 2))
            for _ in range(rng.randint(2, 2 * m + 1) - 1):
                v = one_point_extend(b, v)
        gamma = set(b.support())
        lengths = [len(c) for c in b.chains()]
        pairs = [(s.alice_witness(_random_kfree_subset(s, gamma, rng, 3)), s.alice_witness(()))
                 for _ in range(rng.randint(1, 2))]
        before = b.pairs()
        if max(lengths) > 2 * m:
            with pytest.raises(HypothesisError, match="gamma-length"):
                chain_link(b, set(), gamma, pairs, m, set(), set())
            assert b.pairs() == before
            rejected += 1
            continue
        chain_link(b, set(), gamma, pairs, m, set(), set())
        linked = b.pairs()
        for x, y in pairs:
            assert chase_pairs(linked, x, 2 * m) == y, (lengths, x, y)
        for v in gamma:
            assert chase_pairs(linked, v, 2 * m) is None, (lengths, v)
        accepted += 1
    assert accepted and rejected


def _separated_target(s, rng, width):
    """A fresh separated p of |p| = width, drawn as the Henson trials draw theirs."""
    dom_side = []
    for _ in range(width):
        dom_side.append(s.alice_witness(_random_kfree_subset(s, dom_side, rng, 1)))
    ran_side = []
    for i, v in enumerate(dom_side):
        ran_side.append(s.alice_witness(
            [ran_side[j] for j in range(i) if s.adjacent(v, dom_side[j])]))
    return SeparatedIso(from_pairs(s, list(zip(dom_side, ran_side))))


def _henson_chain(steps):
    """The paper's g as a union h_0 <= h_1 <= ...: each step's q is the last step's h.

    n = 3, one session and one lazy oracle, q_0 a pair of fresh witnesses and
    a fresh width-2 p per step from Random(1).
    """
    rng = random.Random(1)
    s = GraphSession(GraphKind.henson(3))
    f = LazyOracle(s)
    q = from_pairs(s, [(s.alice_witness(()), s.alice_witness(()))])
    certs = []
    for _ in range(steps):
        cert = density_witness_henson(f, q, _separated_target(s, rng, 2))
        certs.append(cert)
        q = from_pairs(s, chain_pairs(cert.h))
    return certs


def test_chained_henson_witnesses_verify_and_m_at_most_doubles():
    certs = _henson_chain(6)
    ms = [cert.data["m"] for cert in certs]
    for i, cert in enumerate(certs):
        report = verify(cert)
        assert report.ok, str(report)
        assert cert.data["l"] == cert.data["m"]
        if i:
            assert cert.q == certs[i - 1].h
            assert ms[i] <= 2 * ms[i - 1] + 1, ms
    assert ms == [2, 5, 11, 23, 47, 95]
    assert [c.to_json() for c in _henson_chain(6)] == [c.to_json() for c in certs]



def test_chained_slim_records_verify_and_certify_leaves_the_session_whole(monkeypatch):
    """Each chained step's record is cut to what verify reads, yet keeps h whole: it is
    VERIFIED, its q is the last step's h, its transcript lists exactly the vertices of
    h, p and the oracle pairs the product read, and certify neither grows nor cuts the
    session that the next step builds on.  The last record is at most half its schema-3
    re-encoding, which writes every vertex it skips as a [] placeholder."""
    lengths = []

    def recorded(claim, f, q, p, h, data):
        before = len(h.session.transcript())
        cert = certify(claim, f, q, p, h, data)
        lengths.append((before, len(h.session.transcript()), len(cert.transcript)))
        return cert

    monkeypatch.setattr(henson, "certify", recorded)
    certs = _henson_chain(6)
    assert len(lengths) == 6
    for i, (cert, (before, after, written)) in enumerate(zip(certs, lengths)):
        report = verify(cert)
        assert report.ok, str(report)
        assert before == after >= written
        kept = {v for lists in (cert.h, cert.p, cert.oracle["pairs"]) for vs in lists for v in vs}
        assert gap_ids(cert.transcript) == sorted(kept)
        if i:
            assert cert.q == certs[i - 1].h
            assert lengths[i - 1][1] < before  # the next step built on the whole session
    doc = json.loads(certs[-1].to_json())
    doc["schema"], doc["transcript"] = 3, schema_3_transcript(doc["transcript"])
    whole = WitnessCertificate.from_json(json.dumps(doc))
    assert verify(whole).ok
    assert len(certs[-1].to_json()) <= 0.5 * len(whole.to_json())

def test_domain_image_escapes_reads_r_m_as_the_per_point_chase(monkeypatch):
    """On each chained step, the r^m that ``domain-image-escapes`` reads is defined on
    all of dom(q) and agrees there with chasing r m steps from each point."""
    calls = []

    def recorded(f, k):
        calls.append((f, k, power(f, k)))
        return calls[-1][2]

    monkeypatch.setattr(henson, "power", recorded)
    certs = _henson_chain(6)
    assert len(calls) == 2 * len(certs)  # r^m in the witness, h^2l in the conjugator
    for cert, (r, m, r_m) in zip(certs, calls[::2]):
        assert m == cert.data["m"]
        dom_q = {x for x, _ in chain_pairs(cert.q)}
        assert {z: r_m.apply(z) for z in dom_q} == {z: r.chase(z, m) for z in dom_q}
        assert None not in {r_m.apply(z) for z in dom_q}


def _two_pair_builder(s):
    a, b0 = fresh(s), fresh(s)
    return IsoBuilder(from_pairs(s, [(a, b0)])), a, b0


def _three_chain(s):
    a, b0, c = fresh(s), fresh(s), fresh(s)
    return IsoBuilder(from_pairs(s, [(a, b0), (b0, c)])), a, b0, c


def _swap(s):
    a, b0 = fresh(s), fresh(s)
    return from_pairs(s, [(a, b0), (b0, a)])


def _separated_pair(s):
    return SeparatedIso(from_pairs(s, [(fresh(s), fresh(s))]))


def _case_x_free(s):
    b, a, _ = _two_pair_builder(s)
    one_point_extend(b, a)


def _case_neighbourhood_match(s):
    # y sees g1 in ran(b), but (N(xs[1]))b is empty: only the last link step can tell
    b, g0, g1 = _two_pair_builder(s)
    chain_link(b, set(), {g0, g1}, [(fresh(s), fresh(s, U=(g1,)))], 1, set(), set())


def _case_cycle_free_conjugator(s):
    build_conjugator(_swap(s), _separated_pair(s))


def _case_cycle_free_witness(s):
    density_witness_henson(LazyOracle(s), _swap(s), _separated_pair(s))


def _case_cycle_free_conjugator_builder(s):
    build_conjugator(IsoBuilder(_swap(s)), _separated_pair(s))


def _case_supports_disjoint(s):
    p = _separated_pair(s)
    build_conjugator(from_pairs(s, [(min(p.iso.dom()), fresh(s))]), p)


def _case_delta_gamma_disjoint(s):
    b, a, b0 = _two_pair_builder(s)
    chain_link(b, {a, b0}, {a, b0}, [(fresh(s), fresh(s))], 1, set(), set())


def _case_support_partition(s):
    b, _, _ = _two_pair_builder(s)
    chain_link(b, set(), set(), [(fresh(s), fresh(s))], 1, set(), set())


def _case_gamma_union_of_components(s):
    b, a, b0, c = _three_chain(s)
    chain_link(b, {c}, {a, b0}, [(fresh(s), fresh(s))], 2, set(), set())


def _case_sigma_avoids_q(s):
    b, a, b0 = _two_pair_builder(s)
    chain_link(b, set(), {a, b0}, [(fresh(s), fresh(s))], 1, {b0}, set())


def _case_sigma_avoids_gamma(s):
    b, a, b0 = _two_pair_builder(s)
    chain_link(b, set(), {a, b0}, [(fresh(s), fresh(s))], 1, {a}, set())


def _case_endpoints_free(s):
    b, a, b0 = _two_pair_builder(s)
    chain_link(b, set(), {a, b0}, [(a, fresh(s))], 1, set(), set())


def _case_delta_neighbourhood_domain(s):
    b, a, b0, c = _three_chain(s)
    chain_link(b, {a, b0, c}, set(), [(fresh(s, U=(b0,)), fresh(s))], 1, set(), set())


def _case_delta_neighbourhood_match(s):
    b, a, b0, c = _three_chain(s)
    chain_link(b, {a, b0, c}, set(), [(fresh(s, U=(a,)), fresh(s))], 1, set(), set())


@pytest.mark.parametrize("reason, case", [
    ("x-free", _case_x_free),
    ("neighbourhood-match", _case_neighbourhood_match),
    ("cycle-free", _case_cycle_free_conjugator),
    ("cycle-free", _case_cycle_free_conjugator_builder),
    ("cycle-free", _case_cycle_free_witness),
    ("supports-disjoint", _case_supports_disjoint),
    ("delta-gamma-disjoint", _case_delta_gamma_disjoint),
    ("support-partition", _case_support_partition),
    ("gamma-union-of-components", _case_gamma_union_of_components),
    ("sigma-avoids-q", _case_sigma_avoids_q),
    ("sigma-avoids-gamma", _case_sigma_avoids_gamma),
    ("endpoints-free", _case_endpoints_free),
    ("delta-neighbourhood-domain", _case_delta_neighbourhood_domain),
    ("delta-neighbourhood-match", _case_delta_neighbourhood_match),
])
def test_every_henson_hypothesis_reason_is_still_raised(h3, reason, case):
    with pytest.raises(HypothesisError) as err:
        case(h3)
    assert err.value.clause == reason
