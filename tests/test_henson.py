import random

import pytest

from ultrahom.campaigns import henson_trial
from ultrahom.certs import verify
from ultrahom.errors import GraphError, HypothesisError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.henson import (SeparatedIso, build_conjugator, chain_link,
                             density_witness_henson, neigh_extend,
                             one_point_extend, pad_components)
from ultrahom.oracles import LazyOracle
from ultrahom.partial_iso import IsoBuilder, cycle_free, empty, from_pairs, power
from perfbench.workloads import henson_wide_instance, stream


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


def test_chain_link_hypothesis_errors(h3):
    x, y = fresh(h3), fresh(h3)
    q = from_pairs(h3, [(x, y)])
    with pytest.raises(HypothesisError):
        chain_link(IsoBuilder(q), set(), {x, y}, [(x, y)], 1, set(), set())  # endpoints not free
    z = fresh(h3)
    with pytest.raises(HypothesisError, match="gamma-length"):
        chain_link(IsoBuilder(q), set(), {x, y}, [(z, fresh(h3))], 3, set(), set())
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
    x, y = fresh(h3), fresh(h3)
    b = IsoBuilder(from_pairs(h3, [(x, y)]))
    pairs = [(fresh(h3), fresh(h3)), (fresh(h3), fresh(h3))]
    before = len(h3.transcript())
    with pytest.raises(HypothesisError, match="gamma-length"):
        chain_link(b, set(), {x, y}, pairs, 3, set(), set())
    assert len(h3.transcript()) == before
    assert b.pairs() == ((x, y),)


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
