"""Density-witness constructions for countably many disjoint copies of K_n.

Components are indexed by the integers.  Partial isomorphisms whose
domain is a union of components are handled through their induced index
map; orbit-representative bookkeeping rides on the one-hit-per-chain
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import OMEGA_CLAIM, WitnessCertificate, certify
from .errors import GraphError, HypothesisError, internal_check
from .graphs import FreshComponents, GraphSession, _unzigzag, _zigzag
from .oracles import OmegaShiftOracle
from .partial_iso import (IsoBuilder, PartialIso, chain_lists, orbit_rep_profile, power,
                          validate)


@dataclass(frozen=True)
class SigmaPlacement:
    """A finite orbit-representative candidate set, summarized per component."""

    vertices: tuple[int, ...]
    counts: dict[int, int]

    @staticmethod
    def from_counts(session: GraphSession, counts: dict[int, int]) -> "SigmaPlacement":
        verts = []
        for c, k in sorted(counts.items()):
            if not 0 <= k <= session.kind.n:
                raise GraphError(f"count {k} impossible in a K_{session.kind.n} component")
            verts.extend(session.vertex(c, p) for p in range(k))
        return SigmaPlacement(tuple(verts), {c: k for c, k in counts.items() if k})

    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class WholeComponentIso:
    """Map between disjoint unions of whole components, cycle-free on indices."""

    iso: PartialIso

    def __post_init__(self):
        iso = self.iso
        s = iso.session
        dom, ran = iso.dom(), iso.ran()
        if dom & ran:
            raise HypothesisError("whole-disjoint", "domain meets range")
        imap = iso.index_map()
        for c in imap:
            if not set(s.component_vertices(c)) <= dom:
                raise HypothesisError("whole-dom", f"component {c} only partly in the domain")
        for c in imap.values():
            if not set(s.component_vertices(c)) <= ran:
                raise HypothesisError("whole-ran", f"component {c} only partly in the range")
        if _index_cycles(imap):
            raise HypothesisError("index-cycle-free", "induced index map has a cycle")


def _index_cycles(imap: dict[int, int]) -> bool:
    """True iff the (injective) index map has a cycle: a closed ``chain_lists`` list."""
    return any(ch[0] == ch[-1] for ch in chain_lists(imap, {d: c for c, d in imap.items()}))


def _index_chains(imap: dict[int, int]) -> list[list[int]]:
    """Chains of the (injective, acyclic) index map, heads first, sorted by zig-zag head."""
    return sorted(chain_lists(imap, {d: c for c, d in imap.items()}), key=lambda ch: _zigzag(ch[0]))


def in_orbit_rep_class(q: IsoBuilder, sigma) -> bool:
    """Can q grow to an automorphism with no finite orbit and sigma as orbit reps?

    Requires dom(q) to be a union of components with sigma inside it
    hitting every component of q exactly once; the answer is then read
    off the induced index map: no cycles.  The builder keeps the index
    map and the domain's share of each component; only a failing
    requirement scans the map, to name it.
    """
    s = q.session
    sigma = set(sigma)
    comp, n = s.component_of, s.kind.n
    if any(k != n for k in q.pairs_from.values()):
        dom = set(q._fwd)
        for c in {comp(v) for v in dom}:
            missing = set(s.component_vertices(c)) - dom
            if missing:
                raise HypothesisError("dom-union-of-components",
                                      f"component {c} missing vertex {min(missing)}")
    if not q._fwd.keys() >= sigma:
        raise HypothesisError("sigma-in-dom", f"vertex {min(sigma - q._fwd.keys())} outside dom(q)")
    if any(len(sigma.intersection(verts)) != 1 for verts in q.chain_lists()):
        for head, k in orbit_rep_profile(q, sigma).items():
            if k != 1:
                raise HypothesisError("sigma-one-per-component",
                                      f"component of {head} has {k} representatives")
    return not _index_cycles(q.cmap)


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of the component indices into r infinite parts.

    Only the finitely many representative-carrying indices are explicit;
    every other index joins the parts round-robin in zig-zag order.
    """

    n: int
    parts: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.parts)

    def tail_stream(self):
        carriers = {c for part in self.parts for c in part}
        u = 0
        while True:
            c = _unzigzag(u)
            if c not in carriers:
                yield c
            u += 1

    def part_members(self, i: int, count: int) -> list[int]:
        """First ``count`` members of part i: explicit carriers then its tail share."""
        out = list(self.parts[i])
        gen = self.tail_stream()
        k = 0
        while len(out) < count:
            c = next(gen)
            if k % self.r == i:
                out.append(c)
            k += 1
        return out[:count]


def feasible_partition(n: int, placement: SigmaPlacement) -> OrbitPartition | None:
    """Partition decision for orbit representatives: blocks of weight exactly n.

    None when the class is empty: size not a positive multiple of n, or
    the per-component counts cannot be grouped into blocks summing to n.
    """
    total = placement.size()
    if total == 0 or total % n != 0:
        return None
    r = total // n
    carriers = sorted(placement.counts.items(), key=lambda kv: _zigzag(kv[0]))
    loads = [0] * r
    blocks: list[list[int]] = [[] for _ in range(r)]

    def assign(i: int) -> bool:
        if i == len(carriers):
            return all(load == n for load in loads)
        comp, weight = carriers[i]
        tried = set()
        for j in range(r):
            if loads[j] in tried or loads[j] + weight > n:
                continue
            tried.add(loads[j])  # parts with equal load are symmetric
            loads[j] += weight
            blocks[j].append(comp)
            if assign(i + 1):
                return True
            loads[j] -= weight
            blocks[j].pop()
        return False

    if not assign(0):
        return None
    return OrbitPartition(n, tuple(tuple(b) for b in blocks))


def build_from_partition(session: GraphSession, placement: SigmaPlacement,
                         partition: OrbitPartition, depth: int) -> PartialIso:
    """Interleaved truncation of the automorphism the partition promises.

    Per part: stage 1 is a bijection between the part's first two
    components; even stages extend on the left, odd stages on the right,
    always routing representative vertices onto chains that carry none
    yet.  ``depth`` counts bijection stages per part; stages are
    monotone, so deepening never rewrites earlier pairs.
    """
    n = session.kind.n
    sigma = set(placement.vertices)
    pairs: list[tuple[int, int]] = []
    for i in range(partition.r):
        members = partition.part_members(i, depth + 2)
        stream = iter(members)
        chains: list[dict] = []  # per vertex chain: head, tail, hit

        def seed(a: int, b: int):
            av = sorted(session.component_vertices(a))
            bv = sorted(session.component_vertices(b))
            a_hot = [v for v in av if v in sigma]
            a_cold = [v for v in av if v not in sigma]
            b_hot = [v for v in bv if v in sigma]
            b_cold = [v for v in bv if v not in sigma]
            if len(a_hot) + len(b_hot) > n:
                raise HypothesisError("partition-weight",
                                      f"components {a},{b} overload their part")
            targets = b_cold[:len(a_hot)] + b_hot + b_cold[len(a_hot):]
            for v, w in zip(a_hot + a_cold, targets):
                pairs.append((v, w))
                chains.append({"head": v, "tail": w, "hit": v in sigma or w in sigma})

        def extend_left(comp: int):
            src = sorted(session.component_vertices(comp))
            hot = [v for v in src if v in sigma]
            cold = [v for v in src if v not in sigma]
            free = sorted(c["head"] for c in chains if not c["hit"])
            used = sorted(c["head"] for c in chains if c["hit"])
            if len(hot) > len(free):
                raise HypothesisError("partition-weight",
                                      f"component {comp} overloads its part")
            heads = free[:len(hot)] + used + free[len(hot):]
            by_head = {c["head"]: c for c in chains}
            for v, head in zip(hot + cold, heads):
                pairs.append((v, head))
                c = by_head[head]
                c["head"] = v
                c["hit"] = c["hit"] or v in sigma

        def extend_right(comp: int):
            dst = sorted(session.component_vertices(comp))
            hot = [v for v in dst if v in sigma]
            cold = [v for v in dst if v not in sigma]
            free = sorted(c["tail"] for c in chains if not c["hit"])
            used = sorted(c["tail"] for c in chains if c["hit"])
            if len(hot) > len(free):
                raise HypothesisError("partition-weight",
                                      f"component {comp} overloads its part")
            tails = free[:len(hot)] + used + free[len(hot):]
            by_tail = {c["tail"]: c for c in chains}
            for v, tail in zip(hot + cold, tails):
                pairs.append((tail, v))
                c = by_tail[tail]
                c["tail"] = v
                c["hit"] = c["hit"] or v in sigma

        if depth >= 1:
            seed(next(stream), next(stream))
        for stage in range(2, depth + 1):
            if stage % 2 == 0:
                extend_left(next(stream))
            else:
                extend_right(next(stream))

    out = validate(session, pairs)
    profile = orbit_rep_profile(out, sigma)
    internal_check(all(k <= 1 for k in profile.values()), "one-hit-per-chain")
    return out


def _add_bijection(b: IsoBuilder, src: int, dst: int) -> None:
    """Add the position-sorted bijection L_src -> L_dst to b."""
    s = b.session
    b.add_pairs(src, dst, zip(s.component_vertices(src), s.component_vertices(dst)))


def density_witness_omega(f: OmegaShiftOracle, q: PartialIso,
                          p: WholeComponentIso, sigma) -> WitnessCertificate:
    """Build h extending q with (h^m f) h (h^m f)^{-1} extending p.

    Stages: absorb the components of p into the chains of q and equalize
    chain lengths to m components; march every chain m components
    further through indices moved by f and clear of everything seen so
    far; conjugate p by r^m f into a whole-component map u away from r;
    close up with one bridging bijection per gap so the chain count
    stays exactly |sigma|.

    One builder grows through all three stages, frozen where a stage's
    result is read as a value: the padded q, the marched r and h.  Each
    fresh component is the lowest one in zig-zag order outside a set
    that only grows, so one cursor serves every stage, and each stage is
    linear in |q|.
    """
    s = q.session
    sigma = sorted(set(sigma))
    if not sigma:
        raise HypothesisError("class-nonempty", "no orbit representatives given")
    b = IsoBuilder(q)
    if not in_orbit_rep_class(b, sigma):
        raise HypothesisError("class-membership", "index map of q has a cycle")
    q_in = q
    piso = p.iso

    # -- stage 0: absorb p's components, then equalize chain lengths ---------
    heads = b.cmap.keys() - b.cinv.keys()
    internal_check(len(heads) * s.kind.n == len(sigma), "chain-count")
    p_comps = sorted({s.component_of(v) for v in piso.support()}, key=_zigzag)
    fresh = FreshComponents(b.cmap.keys() | b.cinv.keys() | set(p_comps))
    for c in p_comps:
        if c in b.cmap:
            continue
        if c in b.cinv:
            # tail component: push the chain one fresh component further
            _add_bijection(b, c, fresh.take())
        else:
            # fresh component: make it the new head of the first chain
            head = min(heads, key=_zigzag)
            _add_bijection(b, c, head)
            heads.remove(head)
            heads.add(c)

    chains = _index_chains(b.cmap)
    m = max(len(ch) for ch in chains)
    for ch in chains:
        while len(ch) < m:
            nc = fresh.take()
            _add_bijection(b, ch[-1], nc)
            ch.append(nc)
    q = b.freeze()
    internal_check(in_orbit_rep_class(b, sigma), "padded-class-membership")

    # -- stage 1: march each chain m components through moving indices -------
    # avoid every component seen so far, with its f-index image and preimage
    avoid = fresh.taken
    avoid.update([f.index_image(c) for c in avoid] + [f.index_preimage(c) for c in avoid])
    marched: list[list[int]] = []
    for ch in chains:
        row = [ch[-1]]
        for _ in range(m):
            nc = fresh.take()
            internal_check(f.index_image(nc) != nc, "march-component-moves")
            _add_bijection(b, row[-1], nc)
            avoid.update((f.index_image(nc), f.index_preimage(nc)))
            row.append(nc)
        marched.append(row)
    r = b.freeze()

    r_comps = b.cmap.keys() | b.cinv.keys()
    for row in marched:
        for c in row[1:]:
            internal_check(f.index_image(c) not in r_comps, "march-escapes-forward")
            internal_check(f.index_preimage(c) not in r_comps, "march-escapes-backward")
    # r^m, one walk per chain: (x)r^m is defined exactly where m steps remain past x
    r_m = power(r, m)
    for x in q.dom():
        internal_check(r_m.apply(x) is not None, "march-depth")

    # -- stage 2: conjugate p through r^m f and close up ----------------------
    u_pairs = []
    for z in sorted(piso.dom()):
        left = f.image(r_m.apply(z))
        right = f.image(r_m.apply(piso.apply(z)))
        u_pairs.append((left, right))
    u = validate(s, u_pairs)
    internal_check(not any(map(b.in_support, u.support())), "conjugate-avoids-r")
    u_imap = u.index_map()
    internal_check(not _index_cycles(u_imap), "conjugate-cycle-free")

    u_chains = _index_chains(u_imap)
    if u_chains:
        for left, right in zip(u_chains, u_chains[1:]):
            _add_bijection(b, left[-1], right[0])
        _add_bijection(b, marched[-1][-1], u_chains[0][0])
        for x, y in u.pairs():
            b.add(x, y)
    h = b.freeze()

    # b.count counts chains and cycles, and b is cycle-free when every one is a chain
    internal_check(b.count == len(sigma) and b.cycle_free(), "chain-count-final")
    internal_check(in_orbit_rep_class(b, sigma), "h-class-membership")
    return certify(OMEGA_CLAIM, f, q_in, piso, h, {"m": m, "sigma": sigma})
