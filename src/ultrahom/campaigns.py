"""Randomized witness campaigns: generate, build, verify, summarize.

Every trial derives its own rng from (seed, index), so campaigns replay
byte-identically; all engine-internal choices are already deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .certs import WitnessCertificate, verify
from .errors import GraphError
from .graphs import GraphKind, GraphSession
from .henson import SeparatedIso, density_witness_henson, one_point_extend
from .nkomega import (AFSigmaContext, IndexFixingIso, density_witness_nkomega,
                      piccard_partner)
from .omega_kn import WholeComponentIso, density_witness_omega
from .oracles import LazyOracle, NKOracle, OmegaShiftOracle
from .partial_iso import IsoBuilder, empty, from_pairs
from .perms import IndexPerm, all_perms

FAMILIES = ("henson", "omega-kn", "nkomega", "n2")


@dataclass
class CampaignSummary:
    family: str
    n: int
    trials: int
    passes: int
    failures: list[int]
    elapsed: float
    class_empty: bool = False
    certs: list[WitnessCertificate] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.class_empty:
            return (f"{self.family} n={self.n}: class empty, 0 trials attempted")
        return (f"{self.family} n={self.n}: {self.passes}/{self.trials} verified"
                f" in {self.elapsed:.2f}s"
                + ("" if self.ok else f"; failing trials {self.failures}"))


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


# -- instance generators ------------------------------------------------------

def _fresh_vertices(s: GraphSession, rng: random.Random, lo: int, hi: int):
    """``fresh(comp)``: a vertex of comp not returned before, at the first
    unused position from one rng draw in [lo, hi)."""
    taken: set[int] = set()

    def fresh(comp: int) -> int:
        t = rng.randrange(lo, hi)
        while s.vertex(comp, t) in taken:
            t += 1
        taken.add(s.vertex(comp, t))
        return s.vertex(comp, t)

    return fresh


def _random_kfree_subset(s: GraphSession, pool, rng: random.Random, cap: int) -> list[int]:
    pool = list(pool)
    rng.shuffle(pool)
    out: list[int] = []
    bound = s.kind.n - 1 if s.kind.tag == "henson_free" else None
    for v in pool[: rng.randint(0, min(cap, len(pool)))]:
        cand = out + [v]
        if bound is None or s.kn_free_check(cand, bound):
            out.append(v)
    return sorted(out)


def henson_trial(n: int, rng: random.Random) -> WitnessCertificate:
    s = GraphSession(GraphKind.henson(n))
    f = LazyOracle(s)
    for _ in range(rng.randint(1, 3)):
        U = _random_kfree_subset(s, s.realized(), rng, 2)
        s.alice_witness(U)
    for _ in range(rng.randint(0, 2)):
        f.image(rng.choice(s.realized()))

    b = IsoBuilder(empty(s))
    for _ in range(rng.randint(0, 2)):
        U = _random_kfree_subset(s, s.realized(), rng, 2)
        start = s.alice_witness(U)
        one_point_extend(b, start)
        if rng.random() < 0.5:
            one_point_extend(b, sorted(b.ran() - b.dom())[0])

    dom_side: list[int] = []
    for _ in range(rng.randint(1, 2)):
        U = _random_kfree_subset(s, dom_side, rng, 1)
        dom_side.append(s.alice_witness(U))
    ran_side: list[int] = []
    for i, v in enumerate(dom_side):
        U = [ran_side[j] for j in range(i) if s.adjacent(v, dom_side[j])]
        ran_side.append(s.alice_witness(U))
    p = SeparatedIso(from_pairs(s, list(zip(dom_side, ran_side))))
    return density_witness_henson(f, b.freeze(), p)


def omega_trial(n: int, sigma_size: int, rng: random.Random) -> WitnessCertificate:
    if sigma_size % n != 0 or sigma_size <= 0:
        raise GraphError("sigma size must be a positive multiple of n")
    s = GraphSession(GraphKind.omega_kn(n))
    pos = list(range(n))
    rng.shuffle(pos)
    f = OmegaShiftOracle(s, step=rng.choice([-2, -1, 1, 2, 3]), pos_perm=pos)

    used: set[int] = set()

    def fresh_comp() -> int:
        c = rng.randrange(-8, 9)
        while c in used:
            c += 1
        used.add(c)
        return c

    q = IsoBuilder(empty(s))
    sigma: list[int] = []
    for _ in range(sigma_size // n):
        comps = [fresh_comp() for _ in range(rng.randint(2, 3))]
        for a, b in zip(comps, comps[1:]):
            tgt = list(range(n))
            rng.shuffle(tgt)
            for i in range(n):
                q.add(s.vertex(a, i), s.vertex(b, tgt[i]))
        # representatives must sit inside dom(q): any spot but the chain tail
        for i in range(n):
            sigma.append(q.chase(s.vertex(comps[0], i), rng.randrange(len(comps) - 1)))

    k = rng.randint(1, 2)
    p_pairs: list[tuple[int, int]] = []
    dom_comps = [fresh_comp() for _ in range(k)]
    ran_comps = [fresh_comp() for _ in range(k)]
    for a, b in zip(dom_comps, ran_comps):
        tgt = list(range(n))
        rng.shuffle(tgt)
        p_pairs.extend((s.vertex(a, i), s.vertex(b, tgt[i])) for i in range(n))
    p = WholeComponentIso(from_pairs(s, p_pairs))
    return density_witness_omega(f, q.freeze(), p, sigma)


def nkomega_oracle(n: int, rng: random.Random,
                   index_perm: IndexPerm | None = None) -> NKOracle | None:
    """A non-stabilizing oracle with a usable index permutation, or None if the
    requested index permutation admits no generating partner.

    An invariant band is itself a finite stabilized set with equal
    component counts, and so is one fixed tail point per component.  The
    oracles drawn here have neither band nor fixed tail, so they are
    non-stabilizing (see ``classify_stabilizing``) without asking;
    variation comes from the index permutation.
    """
    s = GraphSession(GraphKind.nk_omega(n))
    for _ in range(40):
        if index_perm is not None:
            sf = index_perm
        else:
            sf = rng.choice([p for p in all_perms(n) if not p.is_identity()])
        if piccard_partner(sf) is None:
            if index_perm is not None:
                return None
            continue
        return NKOracle(s, sf)
    raise GraphError("could not draw an index permutation with a generating partner")


def nkomega_instance(f: NKOracle, rng: random.Random,
                     pair_comps: list[int] | None = None):
    """Admissible (context, q, p) for a given oracle."""
    s = f.session
    n = s.kind.n
    sf = f.index_perm()
    sq = piccard_partner(sf)
    fresh = _fresh_vertices(s, rng, 4, 30)
    sigma = []
    b = IsoBuilder(empty(s))
    for orbit in sq.cycles(include_fixed=True):
        c = rng.choice(orbit)
        v = fresh(c)
        sigma.append(v)
        b.add(v, fresh(sq(c)))
    for a in range(1, n + 1):
        if a not in b.cmap:
            b.add(fresh(a), fresh(sq(a)))
    for _ in range(rng.randint(0, 2)):
        x = rng.choice(sorted(b.ran() - b.dom()))
        b.add(x, fresh(sq(s.component_of(x))))
    q = b.freeze()

    comps = pair_comps if pair_comps is not None else \
        sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    p_pairs = [(fresh(c), fresh(c)) for c in comps]
    p = IndexFixingIso(from_pairs(s, p_pairs))
    ctx = AFSigmaContext(f, tuple(sigma))
    return ctx, q, p


def nkomega_trial(n: int, rng: random.Random,
                  index_perm: IndexPerm | None = None) -> WitnessCertificate | None:
    f = nkomega_oracle(n, rng, index_perm)
    if f is None:
        return None
    ctx, q, p = nkomega_instance(f, rng, pair_comps=list(range(1, n + 1)))
    return density_witness_nkomega(ctx, q, p)


def n2_trial(rng: random.Random) -> WitnessCertificate:
    s = GraphSession(GraphKind.nk_omega(2))
    fixed = rng.choice([1, 2])
    f = NKOracle(s, IndexPerm.identity(2), fixed_tail=(fixed,))
    sq = IndexPerm.from_cycles(2, [(1, 2)])
    fresh = _fresh_vertices(s, rng, 2, 20)
    v = fresh(rng.choice([1, 2]))
    sigma = (v,)
    a = s.component_of(v)
    pairs = [(v, fresh(sq(a))), (fresh(sq(a)), fresh(a))]
    q = from_pairs(s, pairs)
    p_pairs = [(fresh(c), fresh(c)) for c in sorted(rng.sample([1, 2], rng.randint(1, 2)))]
    p = IndexFixingIso(from_pairs(s, p_pairs))
    ctx = AFSigmaContext(f, sigma)
    return density_witness_nkomega(ctx, q, p)


def run_trial(family: str, n: int, seed: int, index: int,
              sigma_size: int | None = None,
              index_perm: IndexPerm | None = None) -> WitnessCertificate | None:
    rng = _trial_rng(seed, index)
    if family == "henson":
        return henson_trial(n, rng)
    if family == "omega-kn":
        return omega_trial(n, sigma_size or 2 * n, rng)
    if family == "nkomega":
        return nkomega_trial(n, rng, index_perm)
    if family == "n2":
        return n2_trial(rng)
    raise GraphError(f"unknown campaign family {family!r};"
                     f" choose one of {', '.join(FAMILIES)}")


def campaign(family: str, n: int, trials: int, seed: int,
             sigma_size: int | None = None,
             index_perm: IndexPerm | None = None) -> CampaignSummary:
    """Run randomized witness trials through build + verify."""
    t0 = time.perf_counter()
    if family == "nkomega" and index_perm is not None \
            and piccard_partner(index_perm) is None:
        return CampaignSummary(family, n, 0, 0, [], time.perf_counter() - t0,
                               class_empty=True)
    passes = 0
    failures: list[int] = []
    certs: list[WitnessCertificate] = []
    for i in range(trials):
        cert = run_trial(family, n, seed, i, sigma_size, index_perm)
        report = verify(cert)
        if report.ok:
            passes += 1
        else:
            failures.append(i)
        certs.append(cert)
    return CampaignSummary(family, n, trials, passes, failures,
                           time.perf_counter() - t0, certs=certs)


def write_certs(path, certs) -> None:
    with open(path, "w") as fh:
        for cert in certs:
            fh.write(cert.to_json() + "\n")


def read_certs(path) -> list[WitnessCertificate]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(WitnessCertificate.from_json(line))
    return out
