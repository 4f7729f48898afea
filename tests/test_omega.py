import math
import random
import sys
from itertools import product

import pytest

from ultrahom.campaigns import omega_trial
from ultrahom.certs import verify
from ultrahom.errors import HypothesisError
from ultrahom.graphs import GraphKind, GraphSession, _unzigzag, _zigzag
from ultrahom.omega_kn import (OrbitPartition, SigmaPlacement, WholeComponentIso,
                               _index_chains, _index_cycles, build_from_partition,
                               density_witness_omega, feasible_partition, in_orbit_rep_class)
from ultrahom.oracles import OmegaShiftOracle
from ultrahom.partial_iso import IsoBuilder, chain_pairs, from_pairs, orbit_rep_profile, power


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


def _index_cycles_per_start(imap):
    """Reference: walk the whole chain from every start (injective maps only)."""
    for start in imap:
        cur = start
        while cur in imap:
            cur = imap[cur]
            if cur == start:
                return True
    return False


def _in_orbit_rep_class_by_scans(q, sigma):
    """Reference: the orbit-representative test as a scan per requirement."""
    s = q.session
    sigma = set(sigma)
    for c in {s.component_of(v) for v in q.dom()}:
        missing = set(s.component_vertices(c)) - q.dom()
        if missing:
            raise HypothesisError("dom-union-of-components",
                                  f"component {c} missing vertex {min(missing)}")
    if not sigma <= q.dom():
        raise HypothesisError("sigma-in-dom", f"vertex {min(sigma - q.dom())} outside dom(q)")
    for head, k in orbit_rep_profile(q, sigma).items():
        if k != 1:
            raise HypothesisError("sigma-one-per-component",
                                  f"component of {head} has {k} representatives")
    return not _index_cycles_per_start(q.index_map())


def _random_partial_injection(rng, points):
    """A random injective map on a subset of ``points``: chains, cycles and fixed points."""
    points = list(points)
    images = points[:]
    rng.shuffle(images)
    perm = dict(zip(points, images))
    return {x: perm[x] for x in rng.sample(points, rng.randint(0, len(points)))}


def _random_component_map(rng, s):
    """Whole-component bijections along a random injective index map, some pairs dropped."""
    imap = _random_partial_injection(rng, range(-rng.randint(1, 6), rng.randint(1, 7)))
    pairs = []
    n = s.kind.n
    for a, b in imap.items():
        tgt = list(range(n))
        rng.shuffle(tgt)
        pairs += [(s.vertex(a, i), s.vertex(b, tgt[i])) for i in range(n)]
    if rng.random() < 0.3:  # components only partly in the domain
        for _ in range(min(len(pairs), rng.randint(1, 2))):
            pairs.pop(rng.randrange(len(pairs)))
    return from_pairs(s, pairs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisError as e:
        return e.clause, str(e)


def _index_chains_per_head(imap):
    """Reference: walk forward from every head (an index outside the image), by zig-zag head."""
    chains = []
    for head in sorted(set(imap) - set(imap.values()), key=_zigzag):
        chain = [head]
        while chain[-1] in imap:
            chain.append(imap[chain[-1]])
        chains.append(chain)
    return chains


def test_index_cycles_one_pass_matches_the_walk_from_every_start():
    rng = random.Random(5)
    acyclic = 0
    for _ in range(2000):
        imap = _random_partial_injection(rng, range(-rng.randint(0, 6), rng.randint(0, 7)))
        cyclic = _index_cycles_per_start(imap)
        assert _index_cycles(imap) == cyclic, imap
        if not cyclic:
            assert _index_chains(imap) == _index_chains_per_head(imap), imap
            acyclic += 1
    assert 100 < acyclic < 1900


def test_in_orbit_rep_class_names_the_same_failure_as_the_scans():
    """Partial components, sigma outside dom, doubly hit chains, missed chains, index cycles."""
    rng = random.Random(8)
    reasons = set()
    for _ in range(1500):
        s = GraphSession(GraphKind.omega_kn(rng.choice((1, 2, 3))))
        q = _random_component_map(rng, s)
        pool = sorted(q.dom())
        if rng.random() < 0.5 and pool:
            # one representative per chain or cycle, then maybe one too many or too few
            sigma = [min(c.vertices) for c in q.components().components]
            sigma = [v if v in q.dom() else q.unapply(v) for v in sigma]
            if rng.random() < 0.5:
                sigma.append(rng.choice(pool))
            if rng.random() < 0.3 and sigma:
                sigma.pop(rng.randrange(len(sigma)))
        else:
            sigma = rng.sample(pool, rng.randint(0, len(pool)))
        if rng.random() < 0.2:
            sigma.append(s.vertex(rng.randint(-8, 8), 0))  # maybe outside dom(q)
        want = _outcome(_in_orbit_rep_class_by_scans, q, sigma)
        assert _outcome(in_orbit_rep_class, q, sigma) == want, (q, sigma)
        assert _outcome(in_orbit_rep_class, IsoBuilder(q), sigma) == want, (q, sigma)
        reasons.add(want[0] if isinstance(want, tuple) else want)
    assert reasons == {True, False, "dom-union-of-components", "sigma-in-dom",
                       "sigma-one-per-component"}


def test_march_depth_reads_r_to_the_m_as_the_chase_does():
    rng = random.Random(21)
    for _ in range(300):
        s = GraphSession(GraphKind.omega_kn(rng.choice((1, 2, 3))))
        r = _random_component_map(rng, s)
        for m in range(1, 9):
            r_m = power(r, m)
            for x in range(s.vertex(8, s.kind.n - 1) + 1):
                assert (r_m.apply(x) is not None) == (r.chase(x, m) is not None), (r, x, m)


def _calls_made(fn, *args):
    """fn(*args) and the number of Python and built-in calls it made, counted by a profile hook."""
    calls = [0]

    def hook(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(hook)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, calls[0]


def test_chained_witnesses_verify_and_build_linearly_in_q():
    """The paper's g as a union h_0 <= h_1 <= ...: each step's q is the last step's h.

    n = 3, a shift by one component with shuffled positions; q_0 is two
    chains of two components with sigma on their heads, and each p maps
    the lowest free component onto the next one, position by position.
    |q| roughly doubles per step; past |q| = 250 the calls one build
    makes may grow at most 2.5x per doubling (linear is 2x, and a build
    that scans or chases per point of q grows 3-4x).
    """
    n = 3
    s = GraphSession(GraphKind.omega_kn(n))
    pos = list(range(n))
    random.Random(1).shuffle(pos)
    f = OmegaShiftOracle(s, 1, pos)
    q = from_pairs(s, comp_bijection(s, 0, 1) + comp_bijection(s, -1, 2))
    sigma = s.component_vertices(0) + s.component_vertices(-1)
    sizes, counts = [], []
    while len(q) < 2300:
        used = {s.component_of(v) for v in q.support()}
        a, b = [c for c in map(_unzigzag, range(2 * len(used) + 2)) if c not in used][:2]
        p = WholeComponentIso(from_pairs(s, comp_bijection(s, a, b)))
        cert, calls = _calls_made(density_witness_omega, f, q, p, sigma)
        report = verify(cert)
        assert report.ok, str(report)
        assert cert.q == q.chain_lists()
        sizes.append(len(q))
        counts.append(calls)
        q = from_pairs(s, chain_pairs(cert.h))
    assert sizes[-1] == 2268
    for i in range(len(sizes) - 1):
        if sizes[i] >= 250:
            doublings = math.log2(sizes[i + 1] / sizes[i])
            assert counts[i + 1] / counts[i] <= 2.5 ** doublings, (sizes, counts)
