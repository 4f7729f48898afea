"""Automorphism oracles: total-on-demand extensions of a partial isomorphism.

Engines need a fixed automorphism f they can query pointwise.  For the
random and K_n-free graphs f is realized lazily by matched-neighbourhood
one-point extensions (the cache only ever grows, never retracts).  For
the component graphs f is a closed-form policy, finitely described and
replayable by the verifier without any engine code.
"""

from __future__ import annotations

import math

from .errors import GraphError, internal_check
from .graphs import GraphSession, NK_OMEGA, OMEGA_KN, _unzigzag
from .partial_iso import (IsoBuilder, PartialIso, chain_lists, chain_pairs, empty as empty_iso,
                          validate)
from .partial_iso import extend  # noqa: F401  (perfbench's tracer test patches this binding)
from .perms import IndexPerm


class OracleBase:
    """Query interface shared by all oracle flavours."""

    session: GraphSession

    def try_image(self, v: int) -> int | None:
        raise NotImplementedError

    def try_preimage(self, v: int) -> int | None:
        raise NotImplementedError

    def image(self, v: int) -> int:
        out = self.try_image(v)
        if out is None:
            raise GraphError(f"oracle exhausted: no image for {v}")
        return out

    def preimage(self, v: int) -> int:
        out = self.try_preimage(v)
        if out is None:
            raise GraphError(f"oracle exhausted: no preimage for {v}")
        return out

    def chase(self, v: int, k: int) -> int | None:
        """(v)f^k, or None once a step is undefined; this default takes |k| steps."""
        step = self.try_image if k >= 0 else self.try_preimage
        for _ in range(abs(k)):
            v = step(v)
            if v is None:
                return None
        return v

    def description(self) -> dict:
        raise NotImplementedError


class FrozenOracle(OracleBase):
    """A finite truncation of an automorphism: queries outside it are undefined."""

    def __init__(self, session: GraphSession, pairs):
        self.session = session
        self.iso = validate(session, pairs)

    def try_image(self, v):
        return self.iso.apply(v)

    def try_preimage(self, v):
        return self.iso.unapply(v)

    def chase(self, v: int, k: int) -> int | None:
        """(v)f^k in at most 2|f| lookups, whatever k is (see ``PartialIso.chase``)."""
        return self.iso.chase(v, k)

    def finite_pairs(self):
        return self.iso.pairs()

    def description(self) -> dict:
        return {"kind": "frozen", "pairs": self.iso.chain_lists()}


class LazyOracle(OracleBase):
    """Ultrahomogeneity in action: any partial isomorphism extends on demand.

    A query on a new point adds one pair to the cache through
    ``IsoBuilder.add_witness``: an image query maps the point to a fresh
    witness adjacent to exactly the image of its neighbours in the
    domain, a preimage query the other way round, so the cache stays a
    partial isomorphism forever.  Fresh images are always
    new vertices, hence every queried point lies in the support: the
    oracle certifies infinite support by construction.
    """

    def __init__(self, session: GraphSession, base: PartialIso | None = None):
        if not session.kind.is_lazy:
            raise GraphError("lazy oracles exist only for random / K_n-free sessions")
        self.session = session
        self.cache = IsoBuilder(base if base is not None else empty_iso(session))

    # both queries read the cache's maps directly: one frame per hit
    def try_image(self, v: int) -> int:
        got = self.cache._fwd.get(v)
        if got is not None:
            return got
        return self.cache.add_witness(v)

    def try_preimage(self, v: int) -> int:
        got = self.cache._bwd.get(v)
        if got is not None:
            return got
        return self.cache.add_witness(v, forward=False)

    def fresh_support_point(self) -> int:
        """A fresh witness x with (x)f != x: new, so outside every vertex set realized before."""
        x = self.session.alice_witness(())
        internal_check(x != self.image(x), "fresh-support")
        return x

    def description(self) -> dict:
        return {"kind": "lazy_fresh", "pairs": self.cache.chain_lists()}


class OmegaShiftOracle(OracleBase):
    """Automorphism of omega K_n shifting every component: c -> c + step.

    Positions are permuted by ``pos_perm`` on each hop.  The induced
    index permutation has all of Z as support, as the density
    constructions require.
    """

    def __init__(self, session: GraphSession, step: int, pos_perm=None):
        if session.kind.tag != OMEGA_KN:
            raise GraphError("shift oracle needs an omega K_n session")
        if step == 0:
            raise GraphError("step must be nonzero (index map needs infinite support)")
        n = session.kind.n
        self.session = session
        self.step = step
        self.pos_perm = tuple(pos_perm) if pos_perm is not None else tuple(range(n))
        if len(self.pos_perm) != n or set(self.pos_perm) != set(range(n)):  # n may be huge
            raise GraphError(f"pos_perm must permute 0..{n - 1}")
        self._inv = [0] * n
        for i, p in enumerate(self.pos_perm):
            self._inv[p] = i

    def try_image(self, v: int) -> int:
        s = self.session
        return s.vertex(s.component_of(v) + self.step,
                        self.pos_perm[s.position_of(v)])

    def try_preimage(self, v: int) -> int:
        s = self.session
        return s.vertex(s.component_of(v) - self.step,
                        self._inv[s.position_of(v)])

    def chase(self, v: int, k: int) -> int:
        """(v)f^k in closed form: k * step components on, and pos_perm^k at v's position,
        read off its cycle in at most twice its length in steps, whatever k is."""
        s = self.session
        start = s.position_of(v)
        perm = self.pos_perm if k >= 0 else self._inv
        pos, steps = start, abs(k)
        for i in range(1, steps + 1):
            pos = perm[pos]
            if pos == start:
                for _ in range(steps % i):
                    pos = perm[pos]
                break
        return s.vertex(s.component_of(v) + k * self.step, pos)

    def index_image(self, c: int) -> int:
        return c + self.step

    def index_preimage(self, c: int) -> int:
        return c - self.step

    def description(self) -> dict:
        return {"kind": "omega_shift", "step": self.step, "pos_perm": list(self.pos_perm)}


class NKOracle(OracleBase):
    """Finitely described automorphism of n K_omega.

    Policy: a band of the first ``band_rows`` positions of every
    component is mapped onto itself by an explicit bijection following
    the index permutation sigma; beyond the band each component line
    walks a two-sided spine (positions read as Z through a zig-zag), so
    all tail orbits are infinite -- except in components listed in
    ``fixed_tail``, whose tails are fixed pointwise.  Finite orbits are
    therefore exactly the band orbits plus the fixed tails, which makes
    fix / support / finite-orbit questions decidable.  ``orbit_coord``
    and ``vertex_at`` are the one definition of f: a step, a power and
    an escape are all read off them.
    """

    def __init__(self, session: GraphSession, sigma: IndexPerm,
                 band_rows: int = 0, band_pairs=(), fixed_tail=()):
        if session.kind.tag != NK_OMEGA:
            raise GraphError("policy oracle needs an n K_omega session")
        n = session.kind.n
        if sigma.n != n:
            raise GraphError("sigma size does not match the session")
        if band_rows < 0:
            raise GraphError(f"band_rows must be a natural number, got {band_rows}")
        band_pairs = list(band_pairs)
        if len(band_pairs) != n * band_rows:  # checked before the band is built
            raise GraphError("band pairs must biject the band onto itself")
        self.session = session
        self._n = n
        self.sigma = sigma
        self.band_rows = band_rows
        self.fixed_tail = frozenset(fixed_tail)
        for c in self.fixed_tail:
            if not 1 <= c <= n:
                raise GraphError(f"fixed tail component {c} out of range 1..{n}")
            if sigma(c) != c:
                raise GraphError(f"fixed tail component {c} is moved by sigma")
        band = {session.vertex(c, t) for c in range(1, n + 1) for t in range(band_rows)}
        self._band_fwd = {}
        self._band_bwd = {}
        for x, y in band_pairs:
            self._band_fwd[x] = y
            self._band_bwd[y] = x
        if set(self._band_fwd) != band or set(self._band_bwd) != band:
            raise GraphError("band pairs must biject the band onto itself")
        for x, y in self._band_fwd.items():
            if sigma(session.component_of(x)) != session.component_of(y):
                raise GraphError(f"band pair ({x},{y}) disagrees with sigma")
        # spine anchor per component: the first component of its sigma-cycle
        self._cycle_pos = {}
        for cyc in sigma.cycles(include_fixed=True):
            for i, c in enumerate(cyc):
                self._cycle_pos[c] = (cyc, i)
        # orbit coordinates, and one-step images and preimages, per vertex asked:
        # a step found either way fills both
        self._memo_coord: dict[int, tuple[int, int, int]] = {}
        self._memo_next: dict[int, int] = {}
        self._memo_prev: dict[int, int] = {}
        self._band_place: dict[int, tuple[tuple[int, ...], int]] | None = None

    def index_perm(self) -> IndexPerm:
        return self.sigma

    def try_image(self, v: int) -> int:
        out = self._memo_next.get(v)
        if out is None:
            out = self._memo_next[v] = self.iterate(v, 1)
            self._memo_prev[out] = v
        return out

    def try_preimage(self, v: int) -> int:
        out = self._memo_prev.get(v)
        if out is None:
            out = self._memo_prev[v] = self.iterate(v, -1)
            self._memo_next[out] = v
        return out

    # -- orbit structure -----------------------------------------------------

    def _band_orbit_of(self, v: int) -> tuple[tuple[int, ...], int]:
        """The band orbit through band vertex v, lowest vertex first, and v's index on it."""
        if self._band_place is None:  # built on first use, in O(band): steps read it too
            self._band_place = {u: (orb, i) for orb in self.band_orbits()
                                for i, u in enumerate(orb)}
        return self._band_place[v]

    def orbit_coord(self, v: int) -> tuple[int, int, int]:
        """(key, s, period): v's f-orbit, v's place s on it, and its length (0 if infinite).

        f adds 1 to s, modulo the period on a finite orbit.  The orbits:
        a sigma-cycle (c_0 ... c_{L-1}) has one two-way infinite tail
        orbit, keyed -c_0, on which (c_i, t) sits at
        s = unzigzag(t - band_rows) * L + i, so f carries (c_i, t) on to
        c_{i+1} at the same position and (c_{L-1}, t) on to c_0 one place
        further along Z; a band orbit is a cycle, keyed by its lowest vertex;
        a fixed-tail vertex is its own orbit, keyed by itself.  Keys of
        different orbits differ.  Memoized per vertex.
        """
        out = self._memo_coord.get(v)
        if out is not None:
            return out
        s = self.session
        c, t = s.component_of(v), s.position_of(v)
        if t < self.band_rows:
            orb, i = self._band_orbit_of(v)
            out = orb[0], i, len(orb)
        elif c in self.fixed_tail:
            out = v, 0, 1
        else:
            cyc, i = self._cycle_pos[c]
            out = -cyc[0], _unzigzag(t - self.band_rows) * len(cyc) + i, 0
        self._memo_coord[v] = out
        return out

    def vertex_at(self, key: int, s: int) -> int:
        """The vertex at place s (modulo the period) of the orbit ``key``; see ``orbit_coord``."""
        if key < 0:
            cyc, _ = self._cycle_pos[-key]
            z, i = divmod(s, len(cyc))
            # session.vertex(cyc[i], _zigzag(z) + band_rows), written out: windows
            # and closed-form powers read many places of one orbit
            row = (2 * z if z >= 0 else -2 * z - 1) + self.band_rows
            return row * self._n + cyc[i] - 1
        if key in self._band_fwd:
            orb, _ = self._band_orbit_of(key)
            return orb[s % len(orb)]
        return key

    def tail_line(self, c: int) -> tuple[int, int, int] | None:
        """(key, L, i): position band_rows + u of component c sits at
        unzigzag(u) * L + i on the tail orbit ``key``; None for a fixed tail.

        L is the length of c's sigma-cycle and i is c's index on it.
        """
        if c in self.fixed_tail:
            return None
        cyc, i = self._cycle_pos[c]
        return -cyc[0], len(cyc), i

    def iterate(self, v: int, k: int) -> int:
        """(v)f^k in O(1), read off v's orbit coordinates."""
        key, s, _ = self.orbit_coord(v)
        return self.vertex_at(key, s + k)

    chase = iterate

    def fixed_components(self) -> set[int]:
        """Components whose tail is pointwise fixed (fix(f) infinite there)."""
        return set(self.fixed_tail)

    def band_orbits(self) -> list[tuple[int, ...]]:
        """The band's cycles, lowest vertex first, in order of it: the band is a
        permutation, so every ``chain_lists`` list is closed, and its repeat is dropped."""
        return [tuple(orb[:-1]) for orb in chain_lists(self._band_fwd, self._band_bwd)]

    def escape_power(self, pts, avoid) -> int | None:
        """The j of least |j|, 0 first and j before -j, with (pts)f^j outside ``avoid``;
        None if there is none.

        Read off orbit coordinates.  The points on finite orbits repeat with the lcm L
        of their periods, so whether some j clears them is decided by j = 0 .. L-1; if
        one does, so does every j of its class mod L, and the points on infinite orbits
        meet the finite ``avoid`` only finitely often, so the walk out from 0 ends.
        """
        coords = [self.orbit_coord(v) for v in pts]
        finite = [(key, s) for key, s, period in coords if period]
        lcm = math.lcm(*(period for _, _, period in coords if period))
        at = self.vertex_at
        if all(any(at(key, s + j) in avoid for key, s in finite) for j in range(lcm)):
            return None
        j = 0
        while any(at(key, s + j) in avoid for key, s, _ in coords):
            j = -j if j > 0 else 1 - j
        return j

    def description(self) -> dict:
        return {
            "kind": "nk_policy",
            "sigma": list(self.sigma.images),
            "band_rows": self.band_rows,
            "band_pairs": chain_lists(self._band_fwd, self._band_bwd),
            "fixed_tail": sorted(self.fixed_tail),
        }


def oracle_from_description(session: GraphSession, desc: dict) -> OracleBase:
    """Rebuild the oracle a certificate describes; lazy caches become frozen maps.

    A description holds its finite map (``pairs``, or the ``band_pairs``
    of an ``nk_policy``) as the vertex lists ``description`` writes.
    """
    kind = desc.get("kind")
    if kind in ("lazy_fresh", "frozen"):
        return FrozenOracle(session, chain_pairs(desc["pairs"], "the oracle"))
    if kind == "omega_shift":
        return OmegaShiftOracle(session, desc["step"], desc.get("pos_perm"))
    if kind == "nk_policy":
        return NKOracle(session, IndexPerm(tuple(desc["sigma"])),
                        desc.get("band_rows", 0),
                        chain_pairs(desc.get("band_pairs", ()), "the oracle"),
                        desc.get("fixed_tail", ()))
    raise GraphError(f"unknown oracle description kind {kind!r}")
