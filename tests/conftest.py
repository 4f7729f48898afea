"""Shared helpers: brute-force reference oracles and instance builders."""

from __future__ import annotations

import random

import pytest

from ultrahom import certs
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.oracles import NKOracle
from ultrahom.perms import all_perms


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
