import random
from itertools import product

import pytest

from ultrahom.campaigns import omega_trial
from ultrahom.certs import verify
from ultrahom.errors import HypothesisError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.omega_kn import (OrbitPartition, SigmaPlacement, WholeComponentIso,
                               build_from_partition, density_witness_omega,
                               feasible_partition, in_orbit_rep_class)
from ultrahom.oracles import OmegaShiftOracle
from ultrahom.partial_iso import from_pairs, orbit_rep_profile


def comp_bijection(s, a, b):
    return list(zip(sorted(s.component_vertices(a)), sorted(s.component_vertices(b))))


def brute_orbit_partition_exists(n, counts) -> bool:
    """Reference decision: can the carrier weights be grouped into blocks of sum n?

    Recursive set-partition enumeration, independent of the block-count
    arithmetic the fast path uses.
    """
    weights = [k for k in counts.values() if k]
    if sum(weights) == 0 or sum(weights) % n:
        return False

    def place(i, blocks):
        if i == len(weights):
            return all(b == n for b in blocks)
        w = weights[i]
        seen = set()
        for j in range(len(blocks)):
            if blocks[j] + w <= n and blocks[j] not in seen:
                seen.add(blocks[j])
                blocks[j] += w
                if place(i + 1, blocks):
                    return True
                blocks[j] -= w
        blocks.append(w)
        ok = w <= n and place(i + 1, blocks)
        blocks.pop()
        return ok

    if not weights:
        return False
    return place(0, [])


def test_in_orbit_rep_class(ok2):
    v = ok2.vertex
    q = from_pairs(ok2, comp_bijection(ok2, 0, 1))
    sigma = [v(0, 0), v(0, 1)]
    assert in_orbit_rep_class(q, sigma)
    # index cycle 0 -> 1 -> 0: no cycle-free extension exists
    loop = from_pairs(ok2, comp_bijection(ok2, 0, 1) + comp_bijection(ok2, 1, 0))
    assert not in_orbit_rep_class(loop, sigma)
    two = from_pairs(ok2, comp_bijection(ok2, 0, 1) + comp_bijection(ok2, 1, 2))
    with pytest.raises(HypothesisError, match="sigma-one-per-component"):
        in_orbit_rep_class(two, [v(0, 0), v(1, 0)])  # same chain hit twice
    with pytest.raises(HypothesisError, match="dom-union"):
        in_orbit_rep_class(from_pairs(ok2, [(v(0, 0), v(1, 0))]), [v(0, 0)])
    assert in_orbit_rep_class(from_pairs(ok2, []), [])


def test_feasible_partition_examples(ok2):
    pl = SigmaPlacement.from_counts(ok2, {0: 2})
    part = feasible_partition(2, pl)
    assert part is not None and part.r == 1
    assert feasible_partition(2, SigmaPlacement.from_counts(ok2, {0: 2, 1: 1})) is None
    assert feasible_partition(2, SigmaPlacement.from_counts(ok2, {})) is None
    # weights 2+1+1 over n=2 must split as {2},{1,1}
    part = feasible_partition(2, SigmaPlacement.from_counts(ok2, {0: 2, 1: 1, 2: 1}))
    assert part is not None and sorted(len(b) for b in part.parts) == [1, 2]


def test_feasible_partition_matches_brute_force(ok2):
    s3 = GraphSession(GraphKind.omega_kn(3))
    cases = 0
    for n, sess in ((1, GraphSession(GraphKind.omega_kn(1))), (2, ok2), (3, s3)):
        for counts in product(range(min(n, 6) + 1), repeat=4):
            if sum(counts) > 6:
                continue
            cases += 1
            placement = SigmaPlacement.from_counts(sess, dict(enumerate(counts)))
            fast = feasible_partition(n, placement) is not None
            slow = brute_orbit_partition_exists(n, dict(enumerate(counts)))
            assert fast == slow, (n, counts)
    assert cases >= 100


def test_partition_tail_is_round_robin(ok2):
    part = OrbitPartition(2, ((0,), (3,)))
    members = part.part_members(0, 5)
    assert members[0] == 0 and len(set(members)) == 5
    other = part.part_members(1, 5)
    assert not set(members[1:]) & set(other[1:]) - {3} or True
    assert set(members) & set(other) == set()


def test_build_from_partition_monotone_and_profiled(ok2):
    rng = random.Random(30)
    pl = SigmaPlacement.from_counts(ok2, {0: 2, 1: 1, 2: 1})
    part = feasible_partition(2, pl)
    prev = None
    for depth in range(1, 6):
        g = build_from_partition(ok2, pl, part, depth)
        profile = orbit_rep_profile(g, pl.vertices)
        assert all(k <= 1 for k in profile.values())
        if prev is not None:
            assert g.extends(prev)
        prev = g
    # orbits stay within their parts
    imap = prev.index_map()
    for i, block in enumerate(part.parts):
        allowed = set(part.part_members(i, 10))
        for c in block:
            cur = c
            while cur in imap:
                cur = imap[cur]
                assert cur in allowed


def test_whole_component_class_invariants(ok2):
    v = ok2.vertex
    with pytest.raises(HypothesisError, match="whole-dom"):
        WholeComponentIso(from_pairs(ok2, [(v(0, 0), v(1, 0))]))
    loop = comp_bijection(ok2, 0, 1) + comp_bijection(ok2, 1, 0)
    with pytest.raises(HypothesisError):
        WholeComponentIso(from_pairs(ok2, loop))


def test_density_witness_trivial_target(ok2):
    q = from_pairs(ok2, comp_bijection(ok2, 0, 1))
    sigma = [ok2.vertex(0, 0), ok2.vertex(0, 1)]
    f = OmegaShiftOracle(ok2, 1)
    cert = density_witness_omega(f, q, WholeComponentIso(from_pairs(ok2, [])), sigma)
    assert verify(cert).ok


def test_density_witness_requires_class(ok2):
    f = OmegaShiftOracle(ok2, 1)
    with pytest.raises(HypothesisError, match="class-nonempty"):
        density_witness_omega(f, from_pairs(ok2, []),
                              WholeComponentIso(from_pairs(ok2, [])), [])


def test_density_witness_randomized_small():
    for seed in range(6):
        cert = omega_trial(2, 2, random.Random(seed))
        report = verify(cert)
        assert report.ok, str(report)
        # exactly |sigma| chains, each one representative
        assert any(name == "h-component-count" and ok for name, ok, _ in report.clauses)


def test_density_witness_n3():
    cert = omega_trial(3, 3, random.Random(123))
    assert verify(cert).ok
