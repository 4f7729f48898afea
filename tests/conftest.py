"""Shared helpers: brute-force reference oracles and instance builders."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from ultrahom import certs
from ultrahom.graphs import GraphKind, GraphSession, _unzigzag, _zigzag
from ultrahom.oracles import NKOracle
from ultrahom.partial_iso import chain_pairs
from ultrahom.perms import IndexPerm, all_perms


def transcript_entries(cert) -> list[tuple[int, list[int]]]:
    """(id, U) of each transcript entry of a certificate, as ``verify`` replays them."""
    return [(w, list(U)) for w, U in certs._lift(cert)[1]]


def replayed(cert) -> GraphSession:
    """The session a lazy-family certificate's transcript replays to."""
    return GraphSession.replay_sets(cert.family, transcript_entries(cert))


def gap_ids(transcript) -> list[int]:
    """The vertex id of each schema-4 entry [gap, *U] of a transcript."""
    ids, w = [], -1
    for gap, *_ in transcript:
        w += gap + 1
        ids.append(w)
    return ids


def schema_3_transcript(transcript) -> list[list[int]]:
    """A schema-4 transcript with its skipped ids put back as schema 3's [] placeholders."""
    out = []
    for gap, *U in transcript:
        out += [[] for _ in range(gap)]
        out.append(U)
    return out


def chase_pairs(pairs, x, k):
    """Pointwise power chase through an explicit pair list."""
    fwd = {a: b for a, b in pairs}
    bwd = {b: a for a, b in pairs}
    v = x
    for _ in range(abs(k)):
        v = (fwd if k > 0 else bwd).get(v)
        if v is None:
            return None
    return v


def brute_compose(p1, p2):
    """Reference composition: apply p1 then p2, pointwise."""
    out = []
    d2 = {a: b for a, b in p2}
    for a, b in p1:
        if b in d2:
            out.append((a, d2[b]))
    return sorted(out)


def brute_components(pairs):
    """Partition of the support into chains/cycles by pointwise chasing."""
    fwd = {a: b for a, b in pairs}
    bwd = {b: a for a, b in pairs}
    support = sorted(set(fwd) | set(bwd))
    seen = set()
    comps = []
    for v in support:
        if v in seen:
            continue
        head = v
        cyclic = False
        for _ in range(len(support) + 1):
            if head not in bwd:
                break
            head = bwd[head]
            if head == v:
                cyclic = True
                break
        chain = [head]
        cur = head
        while cur in fwd and fwd[cur] != head:
            cur = fwd[cur]
            chain.append(cur)
        seen.update(chain)
        comps.append((tuple(chain), cyclic))
    return sorted(comps)


class CountingDict(dict):
    """A dict that counts the lookups made through ``get`` and ``[]``.

    Past ``budget`` lookups it fails the test, so a walk of |k| steps
    fails fast instead of running for ever.
    """

    lookups = 0
    budget = 10 ** 5

    def _count(self):
        CountingDict.lookups += 1
        assert CountingDict.lookups <= CountingDict.budget, "lookup budget exceeded"

    def get(self, key, default=None):
        self._count()
        return super().get(key, default)

    def __getitem__(self, key):
        self._count()
        return super().__getitem__(key)


def random_injection_in_clique(session: GraphSession, rng: random.Random,
                               size: int, spread: int = 12):
    """Random partial bijection inside one complete component of n K_omega.

    Any injection within a clique preserves adjacency, which makes these
    ideal raw material for algebra property tests.
    """
    pts = rng.sample(range(spread), min(spread, 2 * size))
    dom = pts[:size]
    ran = pts[size:2 * size]
    return [(session.vertex(1, a), session.vertex(1, b)) for a, b in zip(dom, ran)]


def random_band_oracle(n: int, rng: random.Random, max_rows: int = 4) -> NKOracle:
    """An n K_omega policy oracle with a random sigma, band and set of fixed tails."""
    s = GraphSession(GraphKind.nk_omega(n))
    sigma = rng.choice(list(all_perms(n)))
    rows = rng.randint(0, max_rows)
    pairs = []
    for c in range(1, n + 1):
        targets = list(range(rows))
        rng.shuffle(targets)
        pairs += [(s.vertex(c, t), s.vertex(sigma(c), u)) for t, u in enumerate(targets)]
    fixed = [c for c in range(1, n + 1) if sigma(c) == c and rng.random() < 0.5]
    return NKOracle(s, sigma, rows, pairs, fixed)


class PolicySteps:
    """Reference f of an ``nk_policy`` oracle, read from its description one step at a
    time: band pairs, pointwise fixed tails, and beyond the band each sigma-cycle
    (c_0 ... c_{L-1}) walks one spine, c_i to c_{i+1} at one position and c_{L-1} on to
    c_0 one place further along Z, positions read as Z through the zig-zag."""

    def __init__(self, f: NKOracle):
        desc = f.description()
        self.session = f.session
        self.rows = desc["band_rows"]
        self.fixed = set(desc["fixed_tail"])
        self.fwd = dict(chain_pairs(desc["band_pairs"]))
        self.bwd = {y: x for x, y in self.fwd.items()}
        sigma = IndexPerm(tuple(desc["sigma"]))
        self.cycle_pos = {c: (cyc, i) for cyc in sigma.cycles(include_fixed=True)
                          for i, c in enumerate(cyc)}

    def _spine(self, c: int, t: int, forward: bool) -> int:
        cyc, i = self.cycle_pos[c]
        u = t - self.rows
        if forward:
            c2 = cyc[(i + 1) % len(cyc)]
            u2 = _zigzag(_unzigzag(u) + 1) if i == len(cyc) - 1 else u
        else:
            c2 = cyc[(i - 1) % len(cyc)]
            u2 = _zigzag(_unzigzag(u) - 1) if i == 0 else u
        return self.session.vertex(c2, u2 + self.rows)

    def step(self, v: int, forward: bool = True) -> int:
        s = self.session
        c, t = s.component_of(v), s.position_of(v)
        if t < self.rows:
            return (self.fwd if forward else self.bwd)[v]
        if c in self.fixed:
            return v
        return self._spine(c, t, forward)

    def power(self, v: int, k: int) -> int:
        for _ in range(abs(k)):
            v = self.step(v, k > 0)
        return v

    def period(self, v: int) -> int:
        """The length of v's orbit, 0 if infinite: a finite orbit is a band orbit or a
        fixed tail point, so one no longer than the band plus one closes in time."""
        u = v
        for k in range(1, len(self.fwd) + 2):
            u = self.step(u)
            if u == v:
                return k
        return 0

    def finite_orbits(self) -> list[tuple[int, ...]]:
        """The band's orbits, each from its least vertex."""
        out, seen = [], set()
        for v in sorted(self.fwd):
            if v not in seen:
                orb = [v]
                while (u := self.fwd[orb[-1]]) != v:
                    orb.append(u)
                seen.update(orb)
                out.append(tuple(orb))
        return out


def scan_bound(f: NKOracle, pts) -> int:
    """How far the scans below look: past every finite orbit and past ``pts``'s rows."""
    maxpos = max((f.session.position_of(u) for u in pts), default=0)
    return f.session.kind.n * (2 * maxpos + f.band_rows + 6) + f.session.kind.n * f.band_rows + 4


def scan_escape_power(f: NKOracle, v: int, avoid) -> int | None:
    """The least-|j| nonzero j, j before -j, with (v)f^j outside ``avoid``, scanned by
    reference steps up to a bound; None if none is found there."""
    ref = PolicySteps(f)
    fw = bw = v
    for j in range(1, scan_bound(f, avoid) + len(avoid) + 3):
        fw, bw = ref.step(fw), ref.step(bw, forward=False)
        if fw not in avoid:
            return j
        if bw not in avoid:
            return -j
    return None


def scan_orbit_meetings(f: NKOracle, v: int, targets) -> list[tuple[int, int]]:
    """Every (j, u), j != 0, with (v)f^j = u in ``targets``, scanned both ways up to a
    bound and stopped where the orbit closes."""
    ref, out = PolicySteps(f), []
    for forward in (True, False):
        u = v
        for j in range(1, scan_bound(f, targets) + 1):
            u = ref.step(u, forward)
            if u == v:
                break
            if u in targets:
                out.append((j if forward else -j, u))
    return sorted(out)


def scan_escape_exp(f: NKOracle, pts, blocked) -> int | None:
    """The least-|m| m, 0 first and m before -m, with (pts)f^m outside ``blocked``,
    scanned by reference steps up to a bound; None if none is found there."""
    ref = PolicySteps(f)
    fw = bw = list(pts)
    if not set(fw) & set(blocked):
        return 0
    for mag in range(1, scan_bound(f, set(blocked) | set(pts)) + 2):
        fw = [ref.step(u) for u in fw]
        bw = [ref.step(u, forward=False) for u in bw]
        if not set(fw) & set(blocked):
            return mag
        if not set(bw) & set(blocked):
            return -mag
    return None


def no_escape_proof(f: NKOracle, pts, avoid) -> bool:
    """Whether no power of f takes ``pts`` clear of ``avoid``, by brute force: the points
    on finite orbits come back every lcm of their periods, so every j is tried among
    0 .. lcm - 1 (the points on infinite orbits meet the finite ``avoid`` finitely often)."""
    ref = PolicySteps(f)
    walk = [v for v in pts if ref.period(v)]
    for _ in range(math.lcm(*(ref.period(v) for v in walk))):
        if not set(walk) & set(avoid):
            return False
        walk = [ref.step(u) for u in walk]
    return True


def scan_escape_exponents(f: NKOracle, q, x: int) -> list[int]:
    """Shortest alternating product q^m1 f^m2 q^m3 ... taking x out of dom(q), odd
    positions positive, breadth first over q-moves and f-meetings of dom(q)."""
    dom = q.dom()
    if x not in dom:
        return []

    def q_moves(v):
        out, cur = [], v
        for k in range(1, len(q) + 1):
            cur = q.apply(cur)
            if cur is None:
                break
            out.append((k, cur))
            if cur == v:
                break
        return out

    start = ("pre", x)
    prev = {start: None}
    frontier, goal = [start], None
    while frontier and goal is None:
        nxt = []
        for state in frontier:
            phase, v = state
            if phase == "pre":
                for k, w in q_moves(v):
                    if w not in dom:
                        goal = (state, k)
                        break
                    if ("post", w) not in prev:
                        prev[("post", w)] = (state, k)
                        nxt.append(("post", w))
            else:
                j = scan_escape_power(f, v, dom)
                if j is not None:
                    goal = (state, j)
                else:
                    for j, u in scan_orbit_meetings(f, v, dom):
                        if ("pre", u) not in prev:
                            prev[("pre", u)] = (state, j)
                            nxt.append(("pre", u))
            if goal:
                break
        frontier = sorted(nxt)
    assert goal is not None, "no escape product"
    steps, state = [goal[1]], goal[0]
    while prev[state] is not None:
        state, exp = prev[state]
        steps.append(exp)
    steps.reverse()
    return steps + [0] * (len(steps) % 2)


def brute_stabilized_set(f: NKOracle) -> tuple[int, ...] | None:
    """A finite f-stabilized set meeting every component equally, searched over unions
    of band orbits by size, each topped up with fixed tail points; None if there is none.

    Finite orbits are band orbits and fixed tail points, so this search is exhaustive.
    """
    ref, s = PolicySteps(f), f.session
    n = s.kind.n
    orbits = ref.finite_orbits()
    free = [c for c in range(1, n + 1) if c not in ref.fixed]
    for r in range(len(orbits) + 1):
        for pick in itertools.combinations(orbits, r):
            pts = [v for orb in pick for v in orb]
            count = [sum(s.component_of(v) == c for v in pts) for c in range(1, n + 1)]
            m = count[free[0] - 1] if free else max(count + [1])
            if m >= 1 and all(count[c - 1] == m for c in free) and max(count) <= m:
                for c in sorted(ref.fixed):  # rows past the band, clear of each other
                    pts += [s.vertex(c, ref.rows + i) for i in range(m - count[c - 1])]
                return tuple(sorted(pts))
    return None


@pytest.fixture
def nk2():
    return GraphSession(GraphKind.nk_omega(2))


@pytest.fixture
def nk3():
    return GraphSession(GraphKind.nk_omega(3))


@pytest.fixture
def ok2():
    return GraphSession(GraphKind.omega_kn(2))


@pytest.fixture
def h3():
    return GraphSession(GraphKind.henson(3))
