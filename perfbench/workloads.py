"""The benchmark's four workloads: seeded set-up and one timed unit each.

A workload's set-up turns the workload seed into a pool of pristine
inputs; the timed phase walks the pool cyclically, one unit at a time
(a closed loop with a single client) and checks what each unit emits.
Engines only ever see generated inputs.  Every call into ``ultrahom``
goes through a module attribute (``certs.verify``, never a bare
``verify``), so the outside-in tracer sees the calls the benchmark
itself makes.
"""

from __future__ import annotations

import copy
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from ultrahom import campaigns, certs, graphs, henson, nkomega, oracles, partial_iso
from ultrahom.errors import GraphError, HypothesisError, InternalCheckError, IsoError

# Engine errors that count as a failed unit; anything else is a bug in
# the benchmark and stops the run.
ENGINE_ERRORS = (HypothesisError, InternalCheckError, GraphError, IsoError)

HENSON_WIDE_N = 3
HENSON_WIDE_WIDTH = 12


def stream(seed: int, tag: str, index: int) -> random.Random:
    """Independent, reproducible rng per (workload seed, purpose, index)."""
    return random.Random(f"perfbench:{seed}:{tag}:{index}")


# -- the Henson wide-target generator ------------------------------------------

def _kfree_pick(s, pool, rng: random.Random, cap: int) -> list[int]:
    """A random subset of ``pool`` of at most ``cap`` vertices spanning no K_{n-1}."""
    pool = list(pool)
    rng.shuffle(pool)
    out: list[int] = []
    for v in pool[: rng.randint(0, min(cap, len(pool)))]:
        if s.kn_free_check(out + [v], s.kind.n - 1):
            out.append(v)
    return sorted(out)


def henson_wide_instance(rng: random.Random, n: int = HENSON_WIDE_N,
                         width: int = HENSON_WIDE_WIDTH):
    """(f, q, p) on a fresh K_n-free session with a separated target of |p| = width.

    Built from public calls only.  The domain of p is a fresh K_n-free
    set whose vertices see only earlier domain vertices; each range
    vertex mirrors its partner's neighbourhood inside the range and is
    fenced off from everything else realized, so p is a partial
    isomorphism with no edge between domain and range.  q is a single
    pair of fresh witnesses, disjoint from p.
    """
    s = graphs.GraphSession(graphs.GraphKind.henson(n))
    f = oracles.LazyOracle(s)
    for _ in range(3):
        U = _kfree_pick(s, s.realized(), rng, 2)
        s.alice_witness(U, set(s.realized()) - set(U))
    for _ in range(2):
        f.image(rng.choice(s.realized()))

    x = s.alice_witness(_kfree_pick(s, s.realized(), rng, 2), ())
    q = partial_iso.from_pairs(s, [(x, s.alice_witness((), s.realized()))])

    dom_side: list[int] = []
    for _ in range(width):
        U = _kfree_pick(s, dom_side, rng, 3)
        dom_side.append(s.alice_witness(U, set(s.realized()) - set(U)))
    ran_side: list[int] = []
    for i, v in enumerate(dom_side):
        U = [ran_side[j] for j in range(i) if s.adjacent(v, dom_side[j])]
        ran_side.append(s.alice_witness(U, set(s.realized()) - set(U)))
    p = henson.SeparatedIso(partial_iso.from_pairs(s, list(zip(dom_side, ran_side))))
    return f, q, p


# -- machine speed ----------------------------------------------------------------

PROBE_LOOPS = 4000
PROBE_EVERY_S = 0.25
# A reference second is the time in which the probe loop runs 1000 times.
REF_PROBE_S = 0.001


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now; the median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(PROBE_LOOPS):
            k = (i * 7919) % 1021
            d[k] = d.get(k, 0) + i
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Speedometer:
    """The machine's current speed, probed again once PROBE_EVERY_S has passed.

    On a shared host other tenants slow every process by up to 2x for
    minutes at a time, and the probe loop slows with them.  ``scale()``
    turns a duration measured now into reference seconds, the time it
    would take where the probe runs in exactly REF_PROBE_S.  It uses the
    median of the last three probes, so one disturbed probe does not
    rescale the units after it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._at = -math.inf
        self._scale = 1.0

    def scale(self) -> float:
        if time.perf_counter() - self._at >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._scale = REF_PROBE_S / statistics.median(self.probes[-3:])
            self._at = time.perf_counter()
        return self._scale


# -- units ------------------------------------------------------------------------

@dataclass
class Unit:
    """One completed unit: its timings, the certificate text and whether it verified."""

    build_s: float | None
    verify_s: float
    text: str
    ok: bool


def build_and_verify(build) -> Unit:
    """Time ``build()`` (the engine call), then time ``certs.verify`` on its certificate."""
    t0 = time.perf_counter()
    cert = build()
    t1 = time.perf_counter()
    report = certs.verify(cert)
    t2 = time.perf_counter()
    return Unit(t1 - t0, t2 - t1, cert.to_json(), report.ok)


def parse_and_verify(line: str) -> Unit:
    """Time ``from_json`` plus ``verify``: the read side of one certificate."""
    t0 = time.perf_counter()
    report = certs.verify(certs.WitnessCertificate.from_json(line))
    t1 = time.perf_counter()
    return Unit(None, t1 - t0, line, report.ok)


# -- workloads -----------------------------------------------------------------------

@dataclass
class Pool:
    """What set-up hands to the timed phase."""

    entries: list
    # verify-mix only: the engine-call times of the builds set-up made, in
    # seconds and in reference seconds, and the certificate lines they gave
    build_s: list[float] = field(default_factory=list)
    build_ref: list[float] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


class Workload:
    """A seeded set-up plus a unit; ``pool_size`` sets how many inputs set-up makes."""

    name = ""
    setup_reps = 3
    # whether the traced run traces set-up too (it does unless set-up runs engines)
    trace_setup = True
    pool_size = 1

    def __init__(self, pool_size: int | None = None):
        if pool_size is not None:
            self.pool_size = pool_size

    def setup(self, seed: int) -> Pool:
        raise NotImplementedError

    def unit(self, pool: Pool, i: int) -> Unit:
        raise NotImplementedError


class NKOmegaN3(Workload):
    name = "nkomega-n3"
    setup_reps = 7
    # Enough distinct instances that the slowest tenth, which sets the
    # tails, is not a handful of instances that change with the seed.
    pool_size = 96

    def setup(self, seed):
        entries = []
        for i in range(self.pool_size):
            rng = stream(seed, self.name, i)
            f = campaigns.nkomega_oracle(3, rng)
            entries.append(campaigns.nkomega_instance(f, rng, pair_comps=[1, 2, 3]))
        return Pool(entries)

    def unit(self, pool, i):
        ctx, q, p = copy.deepcopy(pool.entries[i % len(pool.entries)])
        return build_and_verify(lambda: nkomega.density_witness_nkomega(ctx, q, p))


class HensonWide(Workload):
    name = "henson-wide"
    setup_reps = 7
    pool_size = 16

    def setup(self, seed):
        return Pool([henson_wide_instance(stream(seed, self.name, i))
                     for i in range(self.pool_size)])

    def unit(self, pool, i):
        f, q, p = copy.deepcopy(pool.entries[i % len(pool.entries)])
        return build_and_verify(lambda: henson.density_witness_henson(f, q, p))


# omega-kn with n = 3, 4, 5, each followed by an n2 trial
SMALL_MAPS_CYCLE = (("omega-kn", 3), ("n2", 2), ("omega-kn", 4), ("n2", 2),
                    ("omega-kn", 5), ("n2", 2))


class SmallMaps(Workload):
    name = "small-maps"
    pool_size = 3000
    warmup = 60

    def setup(self, seed):
        # run_trial generates its own instance, so set-up is the schedule
        # plus a warm-up over trials outside it, to let lazy state settle.
        campaign_seed = derived_seed(seed, self.name)
        entries = [SMALL_MAPS_CYCLE[i % len(SMALL_MAPS_CYCLE)] + (campaign_seed, i)
                   for i in range(self.pool_size)]
        for family, n, s, i in entries[: self.warmup]:
            campaigns.run_trial(family, n, s, -1 - i)
        return Pool(entries)

    def unit(self, pool, i):
        family, n, seed, index = pool.entries[i % len(pool.entries)]
        return build_and_verify(lambda: campaigns.run_trial(family, n, seed, index))


class VerifyMix(Workload):
    name = "verify-mix"
    # five set-ups give the build figures, which come from set-up, a
    # window long enough to span the host's slow and fast spells
    setup_reps = 5
    trace_setup = False
    # (source, count).  The counts put each median inside the omega-kn
    # cluster and each tail inside the henson-wide cluster, away from a
    # boundary between families.
    composition = (("henson-wide", 6), ("henson", 20), ("nkomega", 8),
                   ("omega-kn", 40), ("n2", 34))

    def __init__(self, composition=None):
        if composition is not None:
            self.composition = composition

    def _builds(self, seed):
        for source, count in self.composition:
            campaign_seed = derived_seed(seed, source)
            for i in range(count):
                if source == "henson-wide":
                    f, q, p = henson_wide_instance(stream(seed, self.name, i))
                    yield lambda f=f, q=q, p=p: henson.density_witness_henson(f, q, p)
                else:
                    n = {"omega-kn": 3 + i % 3, "n2": 2}.get(source, 3)
                    yield lambda source=source, n=n, s=campaign_seed, i=i: \
                        campaigns.run_trial(source, n, s, i)

    def setup(self, seed):
        pool = Pool([])
        meter = Speedometer()
        for build in self._builds(seed):
            scale = meter.scale()
            t0 = time.perf_counter()
            cert = build()
            elapsed = time.perf_counter() - t0
            pool.build_s.append(elapsed)
            pool.build_ref.append(elapsed * scale)
            pool.lines.append(cert.to_json())
        pool.entries = pool.lines
        return pool

    def unit(self, pool, i):
        return parse_and_verify(pool.entries[i % len(pool.entries)])


# -- the timed phase ------------------------------------------------------------------

def run_unit(workload, pool: Pool, i: int):
    """One unit; an engine error counts as a failed unit, never as a dropped one."""
    try:
        return workload.unit(pool, i), None
    except ENGINE_ERRORS as e:
        return None, f"{type(e).__name__}: {e}"


class Phase:
    """Outcomes of units run in order.

    Only timings and the first certificate per pool entry are kept, so
    memory does not grow with the number of units.  A later unit on the
    same entry must reproduce that certificate byte for byte; with
    ``reference`` the first pass must reproduce another phase's too.
    Every duration is kept twice: in seconds, and scaled by the machine
    speed measured just before the unit into reference seconds.
    """

    def __init__(self, size: int, reference: list[str | None] | None = None):
        self.texts: list[str | None] = list(reference) if reference else [None] * size
        self.build_s: list[float] = []
        self.build_ref: list[float] = []
        self.verify_s: list[float] = []
        self.verify_ref: list[float] = []
        self.busy_s = 0.0
        self.busy_ref = 0.0
        self.attempted = 0
        self.verified = 0
        self.failures: list[str] = []
        self.wall = 0.0
        self.probes: list[float] = []

    def record(self, i: int, unit, error: str | None, elapsed: float, scale: float) -> None:
        self.attempted += 1
        self.busy_s += elapsed
        self.busy_ref += elapsed * scale
        if unit is not None:
            if unit.build_s is not None:
                self.build_s.append(unit.build_s)
                self.build_ref.append(unit.build_s * scale)
            self.verify_s.append(unit.verify_s)
            self.verify_ref.append(unit.verify_s * scale)
            if not unit.ok:
                error = "certificate REJECTED by verify"
        if error is None:
            slot = i % len(self.texts)
            if self.texts[slot] is None:
                self.texts[slot] = unit.text
            elif self.texts[slot] != unit.text:
                error = f"pool entry {slot} gave different certificate bytes"
        if error is None:
            self.verified += 1
        else:
            self.failures.append(f"unit {i}: {error}")


def timed_phase(workload, pool: Pool, seconds: float | None, count: int | None = None,
                tracer=None, reference=None) -> Phase:
    """Run units until ``seconds`` have passed and the pool was covered once, or ``count`` units."""
    phase = Phase(len(pool.entries), reference)
    meter = Speedometer()
    meter.probes = phase.probes
    size = len(pool.entries)
    clock = time.perf_counter
    t0 = clock()
    i = 0
    while (i < count) if count is not None else (i < size or clock() - t0 < seconds):
        if tracer is not None:
            tracer.trial = i
        scale = meter.scale()
        u0 = clock()
        unit, error = run_unit(workload, pool, i)
        phase.record(i, unit, error, clock() - u0, scale)
        i += 1
    phase.wall = clock() - t0
    return phase


def derived_seed(seed: int, tag: str) -> int:
    """A campaign seed derived from the workload seed and a purpose tag."""
    return stream(seed, tag, 0).randrange(1 << 30)


WORKLOADS = {w.name: w for w in (NKOmegaN3, HensonWide, SmallMaps, VerifyMix)}
