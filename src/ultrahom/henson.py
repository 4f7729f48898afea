"""Density-witness constructions for the universal K_n-free graphs.

Everything here manufactures finite cycle-free partial isomorphisms by
repeated extension-property witnesses: matched one-point extensions,
the even-length linking chain, the conjugator h with h^{2m} extending a
separated target, and the full witness for the product
h^m f h^{2l} f^{-1} h^{-m}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import HENSON_CLAIM, WitnessCertificate, certify
from .errors import HypothesisError, IsoError, internal_check
from .oracles import LazyOracle
from .partial_iso import IsoBuilder, PartialIso, cycle_free, power, validate
from .partial_iso import extend  # noqa: F401  (perfbench's tracer test patches this binding)


@dataclass(frozen=True)
class SeparatedIso:
    """Partial isomorphism whose domain and range are disjoint with no edges between."""

    iso: PartialIso

    def __post_init__(self):
        dom, ran = self.iso.dom(), self.iso.ran()
        if dom & ran:
            raise HypothesisError("separated-disjoint",
                                  f"domain meets range at {min(dom & ran)}")
        edge = self.iso.session.first_edge(dom, ran)
        if edge is not None:
            raise HypothesisError("separated-no-edges", f"edge between {edge[0]} and {edge[1]}")


def neigh_extend(b: IsoBuilder, x: int, y: int) -> None:
    """Adjoin (x, y) to b when y's neighbourhood inside ran(b) mirrors x's image.

    Hypothesis: x not in dom(b) and N(y) cap ran(b) = (N(x))b.
    """
    if b.apply(x) is not None:
        raise HypothesisError("x-free", f"{x} already in the domain")
    try:
        b.add(x, y)
    except IsoError as e:
        if e.reason != "adjacency-mismatch":
            raise
        off = e.pairs[1][1]  # the earliest pair's image: in N(y) or in (N(x))q, not both
        raise HypothesisError("neighbourhood-match",
                              f"range vertex {off} unmatched between N(y) and (N(x))q") from None


def one_point_extend(b: IsoBuilder, x: int) -> int:
    """Extend b at x with a new vertex adjacent to exactly (N(x))b; return it."""
    if x in b.dom():
        raise HypothesisError("x-free", f"{x} already in the domain")
    return b.add_witness(x)


def pad_components(b: IsoBuilder) -> int:
    """Extend chain tails until every component has the same vertex count.

    No engine calls this: ``chain_link`` takes gamma components of up to
    2m vertices, so neither Henson stage pads.  Shortest components
    first, ties broken by lowest vertex id, each tail extended by
    ``one_point_extend``.  Returns the common length m (at least 1 even
    when b is empty).
    """
    if not b.cycle_free():
        raise HypothesisError("cycle-free", "cannot pad a map with complete components")
    chains = {c[0]: list(c) for c in b.chains()}
    m = max((len(v) for v in chains.values()), default=1)
    while True:
        short = sorted((len(v), head) for head, v in chains.items() if len(v) < m)
        if not short:
            break
        _, head = short[0]
        chain = chains[head]
        chain.append(one_point_extend(b, chain[-1]))
    return m


def chain_link(b: IsoBuilder, delta: set[int], gamma_fixed: set[int],
               pairs: list[tuple[int, int]], m: int,
               sigma1: set[int], sigma2: set[int]) -> None:
    """Join each x to its y in b by a fresh chain of 2m edges, pair by pair.

    On entry the support of b must split as delta | gamma_fixed with
    gamma_fixed a union of incomplete components of at most 2m vertices
    each; sigma1 avoids ran(b), sigma2 avoids dom(b), and both avoid
    gamma_fixed.  Linking cannot break these: every chain's interior is
    fresh and its endpoints lie outside the support, so each link only
    adds its vertices to delta.  Per pair, x and y must lie outside the
    support and agree through b^{2m} on their delta-neighbourhoods.  The
    fresh interior vertices land outside sigma1 u sigma2 with no edges
    into it.

    Why 2m vertices suffice: the chain x = xs[0], ..., xs[2m] = y is built
    one witness at a time, each xs[k+1] adjacent in ran(b) to exactly
    (N(xs[k]))b, so only the last step, xs[2m-1] -> y, is a condition.  It
    asks N(y) cap ran(b) = (N(xs[2m-1]))b, and by induction on k the right
    side is (N(x))b^{2m} plus the images of chain vertices (which lie in
    delta).  A gamma vertex could enter it only as the b^{2m}-image of a
    neighbour of x, and b^{2m} is undefined on any component of at most 2m
    vertices.  So gamma drops out, and the delta checks below decide.
    """
    s = b.session
    if delta & gamma_fixed:
        raise HypothesisError("delta-gamma-disjoint")
    if delta | gamma_fixed != b.support():
        raise HypothesisError("support-partition",
                              "delta and gamma_fixed must cover dom(q) u ran(q)")
    gamma_comps = [c for c in b.components().components if set(c.vertices) & gamma_fixed]
    for c in gamma_comps:
        if not set(c.vertices) <= gamma_fixed:
            raise HypothesisError("gamma-union-of-components")
        if c.complete or len(c) > 2 * m:
            raise HypothesisError("gamma-length", f"component of {c.head} has {len(c)} vertices")
    if sigma1 & b.ran() or sigma2 & b.dom():
        raise HypothesisError("sigma-avoids-q")
    if (sigma1 | sigma2) & gamma_fixed:
        raise HypothesisError("sigma-avoids-gamma")

    # as identity maps, so mapped_neighbours reads N(v) cap delta and N(v) cap fence
    # in O(degree); delta lies in the support of b, whose vertices are realized
    delta_id = {v: v for v in delta}
    fence = {v: v for v in sigma1 | sigma2}
    s._require(fence)
    for x, y in pairs:
        if b.in_support(x) or b.in_support(y) or x == y:
            raise HypothesisError("endpoints-free", "x, y must avoid the support of q")
        images = {v: b.chase(v, 2 * m) for v in s.mapped_neighbours(x, delta_id)}
        escaped = [v for v, w in images.items() if w is None]
        if escaped:
            raise HypothesisError("delta-neighbourhood-domain",
                                  f"neighbour {min(escaped)} of x escapes dom(q^2m)")
        if set(images.values()) != s.mapped_neighbours(y, delta_id):
            raise HypothesisError("delta-neighbourhood-match")

        xs = [x]
        for _ in range(2 * m - 1):
            xs.append(b.add_witness(xs[-1]))
        neigh_extend(b, xs[-1], y)
        xs.append(y)
        delta_id.update((v, v) for v in xs)

        for v in xs[1:-1]:
            internal_check(v not in fence, "interior-avoids-sigma")
            internal_check(not s.mapped_neighbours(v, fence), "interior-no-sigma-edges")
        internal_check(b.chase(x, 2 * m) == y, "chain-connects",
                       lambda: f"{x} does not reach {y}")
        internal_check(b.cycle_free(), "result-cycle-free")


def build_conjugator(q: PartialIso | IsoBuilder,
                     p: SeparatedIso) -> tuple[PartialIso | IsoBuilder, int]:
    """Extend q to h with h^{2m} extending the separated map p.

    q must be cycle-free and supported away from p.  One linking chain
    per point of dom(p), of 2m edges with m = max(1, ceil(L/2)) for q's
    longest component of L vertices, so every component has at most 2m
    vertices as ``chain_link`` asks.  The chains grow q itself when it is
    an ``IsoBuilder``, so a caller's builder carries on, and a new builder
    otherwise, leaving q unchanged.  Returns (h, m), with h the builder q
    when q is one, and the new builder's value otherwise.
    """
    b = q if isinstance(q, IsoBuilder) else IsoBuilder(q)
    if not b.cycle_free():
        raise HypothesisError("cycle-free", "q has a complete component")
    piso = p.iso
    support = b.support()
    if support & piso.support():
        raise HypothesisError("supports-disjoint", "q and p share vertices")
    m = max(1, (b.longest_component() + 1) // 2)
    chain_link(b, set(), support, [(x, piso.apply(x)) for x in sorted(piso.dom())], m,
               sigma1=piso.dom(), sigma2=piso.ran())
    internal_check(power(b, 2 * m).extends(piso), "power-extends-target")
    return (b if b is q else b.freeze()), m


def density_witness_henson(f: LazyOracle, q: PartialIso,
                           p: SeparatedIso) -> WitnessCertificate:
    """Build h extending q with h^m f h^{2l} f^{-1} h^{-m} extending p.

    Stages: absorb the support of p into dom(q), and let m be the longest
    chain after that; march every chain m further steps through the
    support of f, so r^m is defined on all of dom(q) and the final images
    escape under f; conjugate p by r^m f into a separated map u away from
    r; extend r to h with h^{2l} extending u.  One builder carries the map
    from the absorb to h, which alone is frozen, for the certificate.
    """
    s = q.session
    if not cycle_free(q):
        raise HypothesisError("cycle-free", "q has a complete component")
    piso = p.iso
    b = IsoBuilder(q)
    for v in sorted(piso.support()):
        if v not in b.dom():
            one_point_extend(b, v)
    m = b.longest_component()
    absorbed_dom = sorted(b.dom())

    # Each march step queries f, then f^-1, on what joined the builder since
    # the last one (the first step its whole support, in set order), then f
    # on buddy: misses create witnesses, so this order fixes vertex ids, and
    # it makes f and f^-1 of the support real before nxt, which then has no
    # neighbour among them outside its U.  The march grows the absorb builder.
    tails = sorted(b.ran() - b.dom())
    new = list(b.support())
    seen = len(b.arrivals)
    marched: list[int] = []
    for tail in tails:
        cur = tail
        for _ in range(m):
            x_sup = f.fresh_support_point()
            for v in new:
                f.image(v)
            for v in new:
                f.preimage(v)
            buddy = s.alice_witness({x_sup})
            f.image(buddy)
            nxt = b.add_witness(cur, extra=(buddy,))
            internal_check(f.image(nxt) != nxt, "march-in-support")
            new = b.arrivals[seen:]
            seen = len(b.arrivals)
            marched.append(nxt)
            cur = nxt

    # b now holds r; its support and r^m are read before the conjugator grows it
    r_support = b.support()
    for v in marched:
        internal_check(f.image(v) not in r_support, "march-escapes-forward")
    # r^m read off each chain in one walk; the f queries go in z order, for vertex ids
    r_m = power(b, m)
    for z in absorbed_dom:
        zz = r_m.apply(z)
        internal_check(zz is not None and f.image(zz) not in r_support,
                       "domain-image-escapes")

    u_pairs = []
    for z in sorted(piso.dom()):
        left = f.image(r_m.apply(z))
        right = f.image(r_m.apply(piso.apply(z)))
        u_pairs.append((left, right))
    u = SeparatedIso(validate(s, u_pairs))
    internal_check(not (u.iso.dom() | u.iso.ran()) & r_support, "conjugate-avoids-r")

    _, l = build_conjugator(b, u)
    return certify(HENSON_CLAIM, f, q, piso, b.freeze(), {"m": m, "l": l})
