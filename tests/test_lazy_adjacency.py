"""Neighbour-set fast paths on lazy graphs against all-pairs references.

On the random and K_n-free families ``adjacent``, ``neighbors_within``,
``first_edge``, ``validate``, ``extend``, ``IsoBuilder.add`` and
``IsoBuilder.add_witness`` read the session's neighbour sets.  The references below rebuild adjacency from
the transcript alone and test every pair, as the code did before, so
accepted maps, rejection reasons, named pairs and unknown-vertex errors
must all agree.  The cost guards count ``GraphSession.adjacent`` calls,
so a return to pair-by-pair checks fails without any timing.
"""

import random

import pytest

from conftest import replayed
from perfbench.workloads import henson_wide_instance, stream
from ultrahom.campaigns import henson_trial
from ultrahom.certs import verify
from ultrahom.errors import GraphError, HypothesisError, IsoError
from ultrahom.graphs import HENSON, GraphKind, GraphSession
from ultrahom.henson import SeparatedIso, density_witness_henson, neigh_extend
from ultrahom.oracles import LazyOracle
from ultrahom.partial_iso import IsoBuilder, empty, extend, validate

KINDS = (GraphKind.random(), GraphKind.henson(3), GraphKind.henson(4))


class Reference:
    """Adjacency of a lazy session rebuilt from its transcript, queried pair by pair."""

    def __init__(self, s: GraphSession):
        self.verts = {w for _, w in s.transcript()}
        self.edges = {frozenset((u, w)) for U, w in s.transcript() for u in U}

    def require(self, *vs):
        for v in vs:
            if v not in self.verts:
                raise GraphError(f"unknown vertex {v}")

    def adjacent(self, u, v):
        if u == v:
            return False
        self.require(u, v)
        return frozenset((u, v)) in self.edges

    def neighbors_within(self, x, S):
        return {v for v in S if self.adjacent(x, v)}

    def first_edge(self, A, B):
        for a in A:
            for b in B:
                if self.adjacent(a, b):
                    return a, b
        return None

    def add(self, fwd, bwd, x, y):
        """extend's order: injectivity, then unknown vertices, then every earlier pair."""
        if x in fwd:
            if fwd[x] == y:
                return
            raise IsoError("not-injective", [(x, fwd[x]), (x, y)])
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)])
        self.require(x, y)
        for x2, y2 in fwd.items():
            if self.adjacent(x, x2) != self.adjacent(y, y2):
                raise IsoError("adjacency-mismatch", [(x, y), (x2, y2)])
        fwd[x] = y
        bwd[y] = x

    def validate(self, pairs):
        """validate's order: unknown vertices first, then injectivity and adjacency."""
        fwd, bwd = {}, {}
        for x, y in pairs:
            self.require(x, y)
            self.add(fwd, bwd, x, y)
        return fwd


def outcome(call, *args):
    """What a call returns, or the error it raises, in comparable form."""
    try:
        return "ok", call(*args)
    except IsoError as e:
        return "iso", e.reason, e.pairs
    except GraphError as e:
        return "graph", str(e)


def random_session(kind, rng, size):
    """A lazy session of ``size`` witnesses, each adjacent to a random earlier set."""
    s = GraphSession(kind)
    density = rng.choice((0.1, 0.25, 0.5))
    while len(s.realized()) < size:
        U = [v for v in s.realized() if rng.random() < density]
        try:
            s.alice_witness(U, ())
        except GraphError:  # U holds a forbidden clique
            s.alice_witness(U[:1], ())
    return s


def vertex_pool(s, rng):
    """Realized vertices plus a few unknown ids, negative and past the end."""
    return s.realized() + [len(s.realized()) + rng.randrange(3), -1 - rng.randrange(2)]


def random_pairs(s, ref, rng, length):
    """Mostly a valid map grown greedily, with some arbitrary (often invalid) pairs."""
    pool = vertex_pool(s, rng)
    fwd, bwd, pairs = {}, {}, []
    for _ in range(length):
        for _ in range(20):
            x, y = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.1:
                break  # arbitrary pair
            try:
                ref.add(fwd, bwd, x, y)
                break
            except ValueError:
                continue
        pairs.append((x, y))
        if pairs and rng.random() < 0.1:
            pairs.append(rng.choice(pairs))  # a repeat, or a clash with an earlier pair
    return pairs


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.tag}-{k.n}")
def test_adjacency_queries_match_all_pairs_reference(kind):
    for seed in range(12):
        rng = random.Random(seed)
        s = random_session(kind, rng, rng.randint(1, 30))
        ref = Reference(s)
        pool = vertex_pool(s, rng)
        for _ in range(60):
            u, v = rng.choice(pool), rng.choice(pool)
            assert outcome(s.adjacent, u, v) == outcome(ref.adjacent, u, v)
            S = rng.sample(pool, rng.randint(0, min(8, len(pool))))
            for container in (set(S), S, tuple(S), frozenset(S)):
                assert outcome(s.neighbors_within, u, container) == \
                    outcome(ref.neighbors_within, u, container)
            B = rng.sample(pool, rng.randint(0, min(8, len(pool))))
            if all(x in ref.verts for x in S + B):  # first_edge names no particular unknown
                assert s.first_edge(S, B) == ref.first_edge(S, B)
            else:
                with pytest.raises(GraphError, match="unknown vertex"):
                    s.first_edge(S, B)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.tag}-{k.n}")
def test_map_checks_match_all_pairs_reference(kind):
    for seed in range(25):
        rng = random.Random(100 + seed)
        s = random_session(kind, rng, rng.randint(2, 24))
        ref = Reference(s)
        pairs = random_pairs(s, ref, rng, rng.randint(0, 14))
        got = outcome(lambda: list(validate(s, pairs)._fwd.items()))
        want = outcome(lambda: list(ref.validate(pairs).items()))
        assert got == want, pairs

        # extend and IsoBuilder.add on a valid prefix, then every pair in turn
        b = IsoBuilder(empty(s))
        f = empty(s)
        fwd, bwd = {}, {}
        for x, y in pairs:
            want = outcome(ref.add, fwd, bwd, x, y)
            got = outcome(extend, f, x, y)
            if want[0] != "ok":
                assert got == want, (x, y)
                assert outcome(b.add, x, y) == want, (x, y)
                continue
            assert got[0] == "ok" and outcome(b.add, x, y) == ("ok", None)
            f = got[1]
            assert list(f._fwd.items()) == list(b._fwd.items()) == list(fwd.items())


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.tag}-{k.n}")
def test_oracle_grown_maps_match_all_pairs_reference(kind):
    """Large valid maps from a lazy oracle, shuffled, with one arbitrary pair let in."""
    for seed in range(8):
        rng = random.Random(200 + seed)
        s = random_session(kind, rng, 20)
        f = LazyOracle(s)
        for _ in range(30):
            v = rng.choice(s.realized())
            f.image(v) if rng.random() < 0.5 else f.preimage(v)
        ref = Reference(s)
        cache = list(f.cache.pairs())
        assert list(ref.validate(cache).items()) == list(validate(s, cache)._fwd.items())
        pool = vertex_pool(s, rng)
        for _ in range(10):
            pairs = rng.sample(cache, len(cache))
            pairs.insert(rng.randrange(len(pairs) + 1), (rng.choice(pool), rng.choice(pool)))
            want = outcome(lambda: list(ref.validate(pairs).items()))
            assert outcome(lambda: list(validate(s, pairs)._fwd.items())) == want
            x, y = rng.choice(pool), rng.choice(pool)
            frozen = validate(s, pairs[:-1]) if want[0] == "ok" else validate(s, cache)
            fwd, bwd = dict(frozen._fwd), dict(frozen._bwd)
            want = outcome(ref.add, fwd, bwd, x, y)
            b = IsoBuilder(frozen)
            got = outcome(b.add, x, y)
            assert got == want and outcome(extend, frozen, x, y)[0] == want[0]
            if want[0] == "ok":
                assert list(b._fwd.items()) == list(fwd.items())
            else:
                assert outcome(extend, frozen, x, y) == want


def validate_pair_by_pair(session, pairs):
    """Reference validate: every pair through the ordered unknown-vertex scan, then
    ``adjacency_conflict``, which names the earliest pair a new pair breaks."""
    fwd, bwd = {}, {}
    for x, y in pairs:
        for v in (x, y):
            if not session.is_realized(v):
                raise GraphError(f"unknown vertex {v}")
        prev = fwd.get(x)
        if prev is not None:
            if prev != y:
                raise IsoError("not-injective", [(x, prev), (x, y)], "two images for one point")
            continue
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)], "two preimages for one point")
        conflict = session.adjacency_conflict(fwd, bwd, x, y)
        if conflict is not None:
            raise IsoError("adjacency-mismatch", [(x, y), conflict])
        fwd[x] = y
        bwd[y] = x
    return fwd


def full_outcome(call, *args):
    """``outcome`` plus the exception type and message, and the map's order."""
    try:
        return "ok", list(call(*args).items())
    except ValueError as e:
        return type(e), str(e), getattr(e, "reason", None), getattr(e, "pairs", None)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.tag}-{k.n}")
def test_validate_matches_the_pair_by_pair_version(kind):
    """Unknown and negative vertices, repeats, clashes and broken pairs, on random pair lists."""
    for seed in range(30):
        rng = random.Random(400 + seed)
        s = random_session(kind, rng, rng.randint(2, 30))
        pairs = random_pairs(s, Reference(s), rng, rng.randint(0, 20))
        if pairs and rng.random() < 0.5:  # break one pair: its image moves to another vertex
            k = rng.randrange(len(pairs))
            pairs[k] = (pairs[k][0], rng.choice(vertex_pool(s, rng)))
        want = full_outcome(validate_pair_by_pair, s, pairs)
        assert full_outcome(lambda: validate(s, pairs)._fwd) == want, pairs


def test_neigh_extend_names_the_range_vertex_of_the_earliest_conflict():
    """neigh_extend turns IsoBuilder.add's one pair check into its own hypothesis clause."""
    for seed in range(30):
        rng = random.Random(300 + seed)
        s = random_session(GraphKind.henson(3), rng, rng.randint(4, 24))
        ref = Reference(s)
        pairs = [p for p in random_pairs(s, ref, rng, 8) if min(p) >= 0 and max(p) in ref.verts]
        fwd, bwd = {}, {}
        q = IsoBuilder(empty(s))
        for x, y in pairs:
            if x in fwd:
                continue
            want = outcome(ref.add, dict(fwd), dict(bwd), x, y)
            if want[:2] == ("iso", "adjacency-mismatch"):
                with pytest.raises(HypothesisError,
                                   match=f"range vertex {want[2][1][1]} unmatched") as got:
                    neigh_extend(q, x, y)
                assert got.value.clause == "neighbourhood-match"
            elif want[0] == "ok":
                neigh_extend(q, x, y)
                ref.add(fwd, bwd, x, y)
                assert list(q._fwd.items()) == list(fwd.items())


def two_step_witness(b, v, forward, extra):
    """The reference for ``add_witness``: a witness on the mapped neighbourhood plus
    ``extra``, then ``add``, which re-reads that neighbourhood to check the pair."""
    s = b.session
    w = s.alice_witness(s.mapped_neighbours(v, b._fwd if forward else b._bwd) | set(extra))
    b.add(*((v, w) if forward else (w, v)))
    return w


def builder_fields(b):
    """Every field a lazy-graph builder keeps, the dicts in insertion order."""
    return (list(b._fwd.items()), list(b._bwd.items()), list(b._head_of.items()),
            list(b._tail_of.items()), b.longest_component(), b.count, list(b.arrivals))


def random_clique(s, k, rng):
    """A k-clique (k = 2 or 3) of the session, drawn at random; None if it has none."""
    cliques = [(u, w) for U, w in s.transcript() for u in U]
    if k == 3:
        cliques = [(u, w, x) for u, w in cliques for x in s._adj[u] & s._adj[w] if x > w]
    return list(rng.choice(cliques)) if cliques else None


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.tag}-{k.n}")
def test_add_witness_matches_witness_then_add(kind):
    """Random growth in both directions, with and without extra, on twin sessions: the
    fused step and the two-step path make the same witness, transcript and builder.
    A v already mapped and an extra vertex of ran (dom) outside the mapped
    neighbourhood raise add's IsoError; a forbidden clique in extra raises
    alice_witness's GraphError, and an unrealized v mapped_neighbours' one, both before
    any vertex is made."""
    seen = set()
    for seed in range(16):
        rng = random.Random(500 + seed)
        s = random_session(kind, rng, rng.randint(3, 20))
        base = LazyOracle(s)
        for _ in range(rng.randint(0, 12)):  # a valid start map
            v = rng.choice(s.realized())
            base.image(v) if rng.random() < 0.5 else base.preimage(v)
        twin = GraphSession.replay_sets(kind, [(w, U) for U, w in s.transcript()])
        start = base.cache.freeze()
        b, ref = IsoBuilder(start), IsoBuilder(validate(twin, start._fwd.items()))
        assert builder_fields(b) == builder_fields(ref)
        for _ in range(25):
            forward = rng.random() < 0.5
            src, dst = (b._fwd, b._bwd) if forward else (b._bwd, b._fwd)
            pick = rng.random()
            if src and pick < 0.15:
                v = rng.choice(list(src))  # already mapped on this side
            elif pick > 0.93:
                v = rng.choice((s._next, s._next + 1, -1))  # not realized
            else:
                v = rng.choice(s.realized())
            extra = []
            if rng.random() < 0.5:
                outside = [u for u in s.realized() if u not in dst]
                extra = rng.sample(outside, min(len(outside), rng.randint(1, 2)))
            if dst and rng.random() < 0.15:
                extra.append(rng.choice(list(dst)))  # hostile unless in the mapped set
            if kind.tag == HENSON and rng.random() < 0.1:
                extra += random_clique(s, kind.n - 1, rng) or []  # an edge, or a triangle
            before = s._next, s.transcript()
            want = outcome(two_step_witness, ref, v, forward, extra)
            got = outcome(b.add_witness, v, forward, tuple(extra))
            assert got == want, (v, forward, extra)
            assert s.transcript() == twin.transcript()
            assert builder_fields(b) == builder_fields(ref)
            if got[0] == "graph":
                assert (s._next, s.transcript()) == (twin._next, twin.transcript()) == before
                seen.add(("graph", got[1].rstrip("-0123456789 ")))
            else:
                seen.add(got[0] if got[0] == "ok" else got[:2])
    want = {"ok", ("iso", "not-injective"), ("iso", "adjacency-mismatch"),
            ("graph", "unknown vertex")}
    if kind.tag == HENSON:
        want.add(("graph", "forbidden clique in U"))
    assert want <= seen, seen


def test_adjacency_conflict_is_lazy_only():
    s = GraphSession(GraphKind.nk_omega(3))
    with pytest.raises(GraphError, match="only for the random / K_n-free"):
        s.adjacency_conflict({}, {}, 0, 1)


def test_witness_errors_name_the_same_vertex():
    s = GraphSession(GraphKind.henson(3))
    a = s.alice_witness((), ())
    b = s.alice_witness((a,), ())
    with pytest.raises(GraphError, match="^unknown vertex 7$"):
        s.alice_witness((a, 9, 7), (8,), forbidden=(6,))
    with pytest.raises(GraphError, match="^unknown vertex 8$"):
        s.alice_witness((a,), (9, 8), forbidden=(6,))
    with pytest.raises(GraphError, match="^unknown vertex 6$"):
        s.alice_witness((a,), (b,), forbidden=(6,))
    with pytest.raises(GraphError, match=r"^U and V overlap: \[0\]$"):
        s.alice_witness((a, 9), (a, 8))
    w = s.alice_witness((b,), (a,), forbidden=(a, b))
    assert s.transcript()[-1] == ((b,), w)


def test_separated_iso_names_the_edge_across():
    s = GraphSession(GraphKind.henson(3))
    a, b = s.alice_witness((), ()), s.alice_witness((), ())
    c = s.alice_witness((b,), ())
    SeparatedIso(validate(s, [(a, b)]))
    with pytest.raises(HypothesisError, match=f"edge between {b} and {c}") as got:
        SeparatedIso(validate(s, [(b, c)]))
    assert got.value.clause == "separated-no-edges"



# -- cost guards: no pair-by-pair adjacency on lazy graphs ---------------------

@pytest.fixture
def adjacent_calls(monkeypatch):
    """Counts of GraphSession.adjacent calls made outside and inside kn_free_check."""
    counts = {"outside": 0, "inside": 0}
    depth = [0]
    adjacent, kn_free_check = GraphSession.adjacent, GraphSession.kn_free_check

    def counted(self, u, v):
        counts["inside" if depth[0] else "outside"] += 1
        return adjacent(self, u, v)

    def clique_check(self, S, k):
        depth[0] += 1
        try:
            return kn_free_check(self, S, k)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(GraphSession, "adjacent", counted)
    monkeypatch.setattr(GraphSession, "kn_free_check", clique_check)
    return counts


def test_map_checks_ask_no_pair_adjacency(adjacent_calls):
    rng = random.Random(7)
    s = random_session(GraphKind.henson(3), rng, 40)
    ref = Reference(s)
    adjacent_calls["outside"] = 0
    for _ in range(20):
        pairs = random_pairs(s, ref, rng, 12)
        try:
            validate(s, pairs)
        except ValueError:
            pass
        b, f = IsoBuilder(empty(s)), empty(s)
        for x, y in pairs:
            try:
                f = extend(f, x, y)
            except ValueError:
                pass
            try:
                b.add(x, y)
            except ValueError:
                pass
    assert adjacent_calls["outside"] == 0


def test_henson_build_and_verify_ask_no_pair_adjacency(adjacent_calls):
    s = GraphSession(GraphKind.henson(3))
    f = LazyOracle(s)
    a, b = s.alice_witness((), ()), s.alice_witness((), ())
    c = s.alice_witness((a,), ())
    d = s.alice_witness((b,), (a, c))
    p = SeparatedIso(validate(s, [(a, b), (c, d)]))
    cert = density_witness_henson(f, empty(s), p)
    assert adjacent_calls["outside"] == 0
    cert = henson_trial(3, random.Random(5))  # generation itself asks pairs; verify must not
    adjacent_calls["outside"] = adjacent_calls["inside"] = 0
    assert verify(cert).ok
    assert adjacent_calls["outside"] == 0


def test_replaying_and_verifying_a_wide_certificate_ask_no_adjacency(monkeypatch):
    """Witness replay, validate and the target check read neighbour sets directly."""
    f, q, p = henson_wide_instance(stream(1, "henson-wide", 0))
    cert = density_witness_henson(f, q, p)
    calls = {"adjacent": 0, "neighbors_within": 0}
    for name in calls:
        real = getattr(GraphSession, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(GraphSession, name, counted)
    replayed(cert)
    assert calls == {"adjacent": 0, "neighbors_within": 0}
    assert verify(cert).ok
    assert calls == {"adjacent": 0, "neighbors_within": 0}
