import random
from itertools import combinations

import pytest

from ultrahom.errors import GraphError
from ultrahom.graphs import HENSON, FreshComponents, GraphKind, GraphSession, _unzigzag


def test_kind_parameter_ranges():
    with pytest.raises(GraphError):
        GraphKind.henson(2)
    with pytest.raises(GraphError):
        GraphKind.nk_omega(1)
    with pytest.raises(GraphError):
        GraphKind.omega_kn(0)
    assert GraphKind.henson(3).is_lazy
    assert GraphKind.omega_kn(1).is_component


def test_component_encoding_round_trips():
    s = GraphSession(GraphKind.omega_kn(3))
    for c in range(-5, 6):
        for p in range(3):
            v = s.vertex(c, p)
            assert (s.component_of(v), s.position_of(v)) == (c, p)
    t = GraphSession(GraphKind.nk_omega(4))
    for c in range(1, 5):
        for p in range(6):
            v = t.vertex(c, p)
            assert (t.component_of(v), t.position_of(v)) == (c, p)


def test_component_adjacency():
    s = GraphSession(GraphKind.nk_omega(2))
    assert s.adjacent(s.vertex(1, 0), s.vertex(1, 7))
    assert not s.adjacent(s.vertex(1, 0), s.vertex(2, 0))
    assert not s.adjacent(s.vertex(1, 3), s.vertex(1, 3))


def test_adjacency_symmetric_irreflexive_lazy(h3):
    rng = random.Random(0)
    for _ in range(30):
        realized = h3.realized()
        U = [v for v in realized if rng.random() < 0.3]
        if not h3.kn_free_check(U, 2):
            U = U[:1]
        h3.alice_witness(U, set(realized) - set(U))
        assert h3.check_witness_contract()
    for u in h3.realized():
        assert not h3.adjacent(u, u)
        for v in h3.realized():
            assert h3.adjacent(u, v) == h3.adjacent(v, u)


def test_witness_contract_and_errors(h3):
    a = h3.alice_witness((), ())
    b = h3.alice_witness((a,), ())
    w = h3.alice_witness((a,), (b,), forbidden=(a, b))
    assert h3.adjacent(w, a) and not h3.adjacent(w, b)
    with pytest.raises(GraphError):
        h3.alice_witness((a,), (a,))  # overlap
    with pytest.raises(GraphError, match="forbidden clique"):
        h3.alice_witness((a, b), ())  # a ~ b is a K_2 inside U
    with pytest.raises(GraphError, match="unknown vertex"):
        h3.adjacent(0, 10 ** 6)


def test_witness_empty_constraints_is_isolated(h3):
    a = h3.alice_witness((), ())
    b = h3.alice_witness((), ())
    assert not h3.adjacent(a, b)
    assert h3.neighbors_within(b, h3.realized()) == set()


def test_random_graph_allows_cliques():
    s = GraphSession(GraphKind.random())
    a = s.alice_witness((), ())
    b = s.alice_witness((a,), ())
    c = s.alice_witness((a, b), ())
    assert s.adjacent(a, b) and s.adjacent(b, c) and s.adjacent(a, c)
    assert not s.kn_free_check([a, b, c], 3)


def test_neighbors_within(ok2):
    x = ok2.vertex(0, 0)
    S = set(ok2.component_vertices(0)) | {ok2.vertex(1, 0)}
    assert ok2.neighbors_within(x, S) == set(ok2.component_vertices(0)) - {x}
    assert ok2.neighbors_within(x, ()) == set()


def test_kn_free_check_matches_exhaustive(h3):
    rng = random.Random(1)
    for _ in range(60):
        realized = h3.realized()
        U = [v for v in realized if rng.random() < 0.25]
        if not h3.kn_free_check(U, 2):
            U = []
        h3.alice_witness(U, ())
    verts = h3.realized()
    for k in (2, 3, 4):
        naive = not any(all(h3.adjacent(u, v) for u, v in combinations(S, 2))
                        for S in combinations(verts, k))
        assert h3.kn_free_check(verts, k) == naive
    with pytest.raises(GraphError):
        h3.kn_free_check(verts, 1)


def test_kn_free_check_on_component_graphs_matches_exhaustive():
    """On omega K_3 the cliques are the components: a k-clique exists iff k <= 3."""
    s = GraphSession(GraphKind.omega_kn(3))
    verts = sorted(s.component_vertices(0) + s.component_vertices(1))
    for k in (2, 3, 4):
        naive = not any(all(s.adjacent(u, v) for u, v in combinations(S, 2))
                        for S in combinations(verts, k))
        assert s.kn_free_check(verts, k) == naive == (k > 3)
    with pytest.raises(GraphError, match="unknown vertex -1"):
        GraphSession(GraphKind.nk_omega(2)).kn_free_check([0, -1], 2)


def test_henson_stays_kn_free_after_campaign():
    s = GraphSession(GraphKind.henson(3))
    rng = random.Random(2)
    for _ in range(1000):
        realized = s.realized()
        U = [v for v in realized if rng.random() < 0.15]
        if not s.kn_free_check(U, 2):
            U = U[:1]
        s.alice_witness(U, (), forbidden=[v for v in realized if rng.random() < 0.05])
        assert s.check_witness_contract()
    assert s.kn_free_check(s.realized(), 3)


def test_transcript_replay_determinism(h3):
    rng = random.Random(3)
    for _ in range(25):
        realized = h3.realized()
        U = [v for v in realized if rng.random() < 0.3]
        if not h3.kn_free_check(U, 2):
            U = U[:1]
        h3.alice_witness(U, set(realized) - set(U))
    clone = GraphSession.replay(h3.kind, h3.transcript())
    assert clone.realized() == h3.realized()
    for u in h3.realized():
        for v in h3.realized():
            assert clone.adjacent(u, v) == h3.adjacent(u, v)
    textual = GraphSession.replay_text(h3.kind, h3.transcript_text())
    assert textual.transcript() == h3.transcript()


def test_replay_reads_schema_1_entries_and_text(h3):
    """(U, V, F, id) entries and ``V=``/``F=`` lines replay, with V and F still checked."""
    rng = random.Random(4)
    old = []
    for _ in range(25):
        realized = h3.realized()
        U = [v for v in realized if rng.random() < 0.3]
        if not h3.kn_free_check(U, 2):
            U = U[:1]
        V = sorted(set(realized) - set(U))
        F = [v for v in realized if rng.random() < 0.2]
        old.append((tuple(U), tuple(V), tuple(F), h3.alice_witness(U, V, F)))
    assert h3.transcript() == [(U, w) for U, _, _, w in old]
    assert "V=" not in h3.transcript_text()
    text = "\n".join(f"{w}: U={','.join(map(str, U))} V={','.join(map(str, V))}"
                     f" F={','.join(map(str, F))}" for U, V, F, w in old)
    for clone in (GraphSession.replay(h3.kind, old), GraphSession.replay_text(h3.kind, text)):
        assert clone.transcript() == h3.transcript()
    w = len(old)
    with pytest.raises(GraphError, match="U and V overlap"):  # the fences are still checked
        GraphSession.replay_text(h3.kind, text + f"\n{w}: U=0 V=0 F=")
    with pytest.raises(GraphError, match="expected \\(U, id\\) or \\(U, V, F, id\\)"):
        GraphSession.replay(h3.kind, [((), (), 0)])


def test_transcript_text_of_a_session_with_skipped_ids_replays():
    """Each text line makes the vertex it names, so a session replayed with gaps reads
    back from its own text, and a line whose id does not rise is refused."""
    s = GraphSession.replay_sets(GraphKind.henson(3), [(0, []), (5, [0]), (9, [5])])
    text = s.transcript_text()
    assert text == "0: U=\n5: U=0\n9: U=5"
    clone = GraphSession.replay_text(s.kind, text)
    assert clone.transcript() == s.transcript() and clone.realized() == [0, 5, 9]
    assert clone.alice_witness([9]) == s.alice_witness([9]) == 10
    with pytest.raises(GraphError, match="ids must rise"):
        GraphSession.replay_text(s.kind, "0: U=\n5: U=0\n5: U=")


def test_replay_with_skipped_ids_makes_no_vertex_there_and_witnesses_past_the_largest():
    """An id no entry names makes no vertex, a skip of 10^18 included; ids must rise, and
    the next witness id comes after the largest, so no id is handed out twice."""
    big = 10 ** 18
    s = GraphSession.replay_sets(GraphKind.henson(3), [(0, []), (5, [0]), (big, [5])])
    assert s.realized() == [0, 5, big]
    assert s.adjacent(0, 5) and s.adjacent(5, big) and not s.adjacent(0, big)
    assert s.transcript() == [((), 0), ((0,), 5), ((5,), big)]
    assert s.alice_witness([0]) == big + 1
    assert s.alice_witness(()) == big + 2
    with pytest.raises(GraphError, match="^unknown vertex 3$"):  # a skipped id is no vertex
        GraphSession.replay_sets(GraphKind.henson(3), [(0, []), (5, [3])])
    for entries in ([(0, []), (0, [])], [(4, []), (2, [])], [(-1, [])]):
        with pytest.raises(GraphError, match="^transcript ids must rise"):
            GraphSession.replay_sets(GraphKind.random(), entries)


LAZY_KINDS = (GraphKind.henson(3), GraphKind.henson(4), GraphKind.henson(5), GraphKind.random())


def _brute_clique_free(edges, S, k):
    """No k-subset of S is pairwise adjacent, by itertools over every subset."""
    return not any(all(frozenset(e) in edges for e in combinations(C, 2))
                   for C in combinations(sorted(set(S)), k))


@pytest.mark.parametrize("kind", LAZY_KINDS, ids=lambda k: f"{k.tag}-{k.n}")
def test_random_sessions_replay_and_clique_checks_match_brute_force(kind):
    """Witness calls, replay and kn_free_check against subsets and an edge set built from U."""
    for seed in range(8):
        rng = random.Random(seed)
        s = GraphSession(kind)
        edges = set()
        density = rng.choice((0.2, 0.4, 0.6))
        for _ in range(rng.randint(5, 40)):
            U = [v for v in s.realized() if rng.random() < density]
            U += rng.sample(U, min(2, len(U)))  # a repeat is the same vertex
            if kind.tag == HENSON and not _brute_clique_free(edges, U, kind.n - 1):
                with pytest.raises(GraphError, match="^forbidden clique in U$"):
                    s.alice_witness(U)
                U = U[:1]
            w = s.alice_witness(U)
            assert s.transcript()[-1] == (tuple(sorted(set(U))), w)
            edges |= {frozenset((u, w)) for u in U}
        clone = GraphSession.replay(kind, s.transcript())
        assert clone._adj == s._adj and clone.transcript() == s.transcript()
        assert all(clone.check_witness_contract(i) for i in range(len(s.transcript())))
        verts = s.realized()
        for _ in range(20):
            S = [rng.choice(verts) for _ in range(rng.randint(0, 14))]
            for k in (2, 3, 4):
                assert s.kn_free_check(S, k) == _brute_clique_free(edges, S, k), (S, k)
        with pytest.raises(GraphError, match="^unknown vertex -1$"):
            s.kn_free_check([verts[0], -1, len(verts)], 3)
        with pytest.raises(GraphError, match="^clique size must be >= 2, got 1$"):
            s.kn_free_check(verts, 1)


def test_fresh_in_component_deterministic(nk2):
    got = nk2.fresh_in_component(1, avoid={nk2.vertex(1, 0), nk2.vertex(1, 1)})
    assert got == nk2.vertex(1, 2)
    assert FreshComponents({0, 1, -1}).take() == -2  # zig-zag order on Z


def _lowest_free_scan(avoid):
    """Reference: scan zig-zag order on Z from 0 for the first index outside avoid."""
    u = 0
    while _unzigzag(u) in avoid:
        u += 1
    return _unzigzag(u)


def test_fresh_component_cursor_matches_the_scan_from_zero():
    rng = random.Random(13)
    for _ in range(200):
        spread = rng.randint(1, 40)
        cursor = FreshComponents(rng.sample(range(-spread, spread), rng.randint(0, spread)))
        for _ in range(rng.randint(1, 30)):
            if rng.random() < 0.4:  # the set grows, around and below the cursor too
                cursor.taken.update(rng.randint(-spread, spread) for _ in range(rng.randint(1, 5)))
            want = _lowest_free_scan(set(cursor.taken))
            got = cursor.take()
            assert got == want
            assert got in cursor.taken
