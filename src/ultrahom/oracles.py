"""Automorphism oracles: total-on-demand extensions of a partial isomorphism.

Engines need a fixed automorphism f they can query pointwise.  For the
random and K_n-free graphs f is realized lazily by matched-neighbourhood
one-point extensions (the cache only ever grows, never retracts).  For
the component graphs f is a closed-form policy, finitely described and
replayable by the verifier without any engine code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError, internal_check
from .graphs import GraphSession, NK_OMEGA, OMEGA_KN, _unzigzag, _zigzag
from .partial_iso import PartialIso, extend, empty as empty_iso, validate
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

    def iterate(self, v: int, k: int) -> int:
        for _ in range(abs(k)):
            v = self.image(v) if k > 0 else self.preimage(v)
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

    def finite_pairs(self):
        return self.iso.pairs()

    def description(self) -> dict:
        return {"kind": "frozen", "pairs": [list(p) for p in self.iso.pairs()]}


class LazyOracle(OracleBase):
    """Ultrahomogeneity in action: any partial isomorphism extends on demand.

    Image queries on new points pick a fresh witness whose neighbourhood
    inside the current range mirrors the source neighbourhood, so the
    cache stays a partial isomorphism forever.  Fresh images are always
    new vertices, hence every queried point lies in the support: the
    oracle certifies infinite support by construction.
    """

    def __init__(self, session: GraphSession, base: PartialIso | None = None):
        if not session.kind.is_lazy:
            raise GraphError("lazy oracles exist only for random / K_n-free sessions")
        self.session = session
        self.cache = base if base is not None else empty_iso(session)

    def try_image(self, v: int) -> int:
        got = self.cache.apply(v)
        if got is not None:
            return got
        s = self.session
        matched = {self.cache.apply(u) for u in s.neighbors_within(v, self.cache.dom())}
        y = s.alice_witness(matched, self.cache.ran() - matched, forbidden=(v,))
        self.cache = extend(self.cache, v, y)
        return y

    def try_preimage(self, v: int) -> int:
        got = self.cache.unapply(v)
        if got is not None:
            return got
        s = self.session
        matched = {self.cache.unapply(u) for u in s.neighbors_within(v, self.cache.ran())}
        x = s.alice_witness(matched, self.cache.dom() - matched, forbidden=(v,))
        self.cache = extend(self.cache, x, v)
        return x

    def fresh_support_point(self, avoid=()) -> int:
        """A point x with (x)f != x, outside ``avoid``; possible for any finite avoid set."""
        x = self.session.alice_witness((), ())
        y = self.image(x)
        internal_check(x != y and x not in set(avoid), "fresh-support",
                       "fresh witness collided with avoid set")
        return x

    def description(self) -> dict:
        return {"kind": "lazy_fresh", "pairs": [list(p) for p in self.cache.pairs()]}


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
        if sorted(self.pos_perm) != list(range(n)):
            raise GraphError(f"pos_perm must permute 0..{n - 1}")
        self._inv = tuple(self.pos_perm.index(p) for p in range(n))

    def try_image(self, v: int) -> int:
        s = self.session
        return s.vertex(s.component_of(v) + self.step,
                        self.pos_perm[s.position_of(v)])

    def try_preimage(self, v: int) -> int:
        s = self.session
        return s.vertex(s.component_of(v) - self.step,
                        self._inv[s.position_of(v)])

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
    fix / support / finite-orbit questions decidable.
    """

    def __init__(self, session: GraphSession, sigma: IndexPerm,
                 band_rows: int = 0, band_pairs=(), fixed_tail=()):
        if session.kind.tag != NK_OMEGA:
            raise GraphError("policy oracle needs an n K_omega session")
        n = session.kind.n
        if sigma.n != n:
            raise GraphError("sigma size does not match the session")
        self.session = session
        self.sigma = sigma
        self.band_rows = band_rows
        self.fixed_tail = frozenset(fixed_tail)
        for c in self.fixed_tail:
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
        self._memo_fwd: dict[int, int] = {}
        self._memo_bwd: dict[int, int] = {}

    def index_perm(self) -> IndexPerm:
        return self.sigma

    def _spine(self, c: int, t: int, forward: bool) -> int:
        s = self.session
        cyc, i = self._cycle_pos[c]
        u = t - self.band_rows
        if forward:
            c2 = cyc[(i + 1) % len(cyc)]
            u2 = _zigzag(_unzigzag(u) + 1) if i == len(cyc) - 1 else u
        else:
            c2 = cyc[(i - 1) % len(cyc)]
            u2 = _zigzag(_unzigzag(u) - 1) if i == 0 else u
        return s.vertex(c2, u2 + self.band_rows)

    def try_image(self, v: int) -> int:
        out = self._memo_fwd.get(v)
        if out is not None:
            return out
        s = self.session
        c, t = s.component_of(v), s.position_of(v)
        if t < self.band_rows:
            out = self._band_fwd[v]
        elif c in self.fixed_tail:
            out = v
        else:
            out = self._spine(c, t, forward=True)
        self._memo_fwd[v] = out
        return out

    def try_preimage(self, v: int) -> int:
        out = self._memo_bwd.get(v)
        if out is not None:
            return out
        s = self.session
        c, t = s.component_of(v), s.position_of(v)
        if t < self.band_rows:
            out = self._band_bwd[v]
        elif c in self.fixed_tail:
            out = v
        else:
            out = self._spine(c, t, forward=False)
        self._memo_bwd[v] = out
        return out

    # -- orbit structure -----------------------------------------------------

    def fixed_components(self) -> set[int]:
        """Components whose tail is pointwise fixed (fix(f) infinite there)."""
        return set(self.fixed_tail)

    def fixed_band_points(self) -> set[int]:
        return {v for v, w in self._band_fwd.items() if v == w}

    def fixed_tail_point(self, component: int, avoid=()) -> int:
        """Lowest fixed tail point of a fixed component outside ``avoid``."""
        if component not in self.fixed_tail:
            raise GraphError(f"component {component} has no fixed tail")
        avoid = set(avoid)
        t = self.band_rows
        while self.session.vertex(component, t) in avoid:
            t += 1
        return self.session.vertex(component, t)

    def band_orbits(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for v in sorted(self._band_fwd):
            if v in seen:
                continue
            orb = [v]
            u = self._band_fwd[v]
            while u != v:
                orb.append(u)
                u = self._band_fwd[u]
            seen.update(orb)
            out.append(tuple(orb))
        return out

    def orbit_meetings(self, v: int, targets: set[int]) -> list[tuple[int, int]]:
        """All (j, u) with (v)f^j = u in targets, j != 0; finite by policy."""
        out = []
        bound = self._orbit_scan_bound(targets)
        for direction in (1, -1):
            u = v
            for j in range(1, bound + 1):
                u = self.image(u) if direction > 0 else self.preimage(u)
                if u == v:
                    break  # finite orbit fully scanned
                if u in targets:
                    out.append((direction * j, u))
        return sorted(out)

    def escape_power(self, v: int, avoid: set[int]) -> int:
        """Smallest-|j| nonzero j with (v)f^j outside ``avoid``; None on finite trapped orbits."""
        bound = self._orbit_scan_bound(avoid) + len(avoid) + 2
        for j in range(1, bound + 1):
            for sj in (j, -j):
                if self.iterate(v, sj) not in avoid:
                    return sj
        return None

    def _orbit_scan_bound(self, pts: set[int]) -> int:
        maxpos = max((self.session.position_of(u) for u in pts), default=0)
        n = self.session.kind.n
        return n * (2 * maxpos + self.band_rows + 6) + len(self._band_fwd) + 4

    def description(self) -> dict:
        return {
            "kind": "nk_policy",
            "sigma": list(self.sigma.images),
            "band_rows": self.band_rows,
            "band_pairs": [[x, y] for x, y in sorted(self._band_fwd.items())],
            "fixed_tail": sorted(self.fixed_tail),
        }


def oracle_from_description(session: GraphSession, desc: dict) -> OracleBase:
    """Rebuild the oracle a certificate describes; lazy caches become frozen maps."""
    kind = desc.get("kind")
    if kind in ("lazy_fresh", "frozen"):
        return FrozenOracle(session, [tuple(p) for p in desc["pairs"]])
    if kind == "omega_shift":
        return OmegaShiftOracle(session, desc["step"], desc.get("pos_perm"))
    if kind == "nk_policy":
        return NKOracle(session, IndexPerm(tuple(desc["sigma"])),
                        desc.get("band_rows", 0),
                        [tuple(p) for p in desc.get("band_pairs", ())],
                        desc.get("fixed_tail", ()))
    raise GraphError(f"unknown oracle description kind {kind!r}")
