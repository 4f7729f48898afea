"""Density-witness constructions for the universal K_n-free graphs.

Everything here manufactures finite cycle-free partial isomorphisms by
repeated extension-property witnesses: matched one-point extensions,
the even-length linking chain, the conjugator h with h^{2m} extending a
separated target, and the full witness for the product
h^m f h^{2l} f^{-1} h^{-m}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import HENSON_CLAIM, WitnessCertificate
from .errors import HypothesisError, IsoError, internal_check
from .oracles import LazyOracle
from .partial_iso import (PartialIso, cycle_free, extend, power, validate)


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


def neigh_extend(q: PartialIso, x: int, y: int) -> PartialIso:
    """Adjoin (x, y) when y's neighbourhood inside ran(q) mirrors x's image.

    Hypothesis: x not in dom(q) and N(y) cap ran(q) = (N(x))q.
    """
    if q.apply(x) is not None:
        raise HypothesisError("x-free", f"{x} already in the domain")
    try:
        return extend(q, x, y)
    except IsoError as e:
        if e.reason != "adjacency-mismatch":
            raise
        off = e.pairs[1][1]  # the earliest pair's image: in N(y) or in (N(x))q, not both
        raise HypothesisError("neighbourhood-match",
                              f"range vertex {off} unmatched between N(y) and (N(x))q") from None


def one_point_extend(q: PartialIso, x: int, avoid=()) -> tuple[PartialIso, int]:
    """Extend q at x with a fresh matched witness avoiding the given set."""
    s = q.session
    if x in q.dom():
        raise HypothesisError("x-free", f"{x} already in the domain")
    matched = {q.apply(u) for u in s.neighbors_within(x, q.dom())}
    y = s.alice_witness(matched, (q.ran() | {x} | set(avoid)) - matched)
    return neigh_extend(q, x, y), y


def pad_components(q: PartialIso, target_len: int | None = None,
                   avoid=()) -> tuple[PartialIso, int]:
    """Extend chain tails until every component has the same vertex count.

    Shortest components first, ties broken by lowest vertex id.  Returns
    the padded map and the common length m (at least 1 even when q is
    empty, so a linking chain always has positive length).
    """
    if not cycle_free(q):
        raise HypothesisError("cycle-free", "cannot pad a map with complete components")
    comps = {c.head: list(c.vertices) for c in q.components().components}
    m = max((len(v) for v in comps.values()), default=1)
    if target_len is not None:
        m = max(m, target_len)
    while True:
        short = sorted((len(v), head) for head, v in comps.items() if len(v) < m)
        if not short:
            break
        _, head = short[0]
        chain = comps[head]
        q, y = one_point_extend(q, chain[-1], avoid)
        chain.append(y)
    return q, m


def chain_link(q: PartialIso, delta: set[int], gamma_fixed: set[int],
               x: int, y: int, m: int,
               sigma1: set[int], sigma2: set[int]) -> PartialIso:
    """Join x to y by a fresh chain of 2m edges compatible with q.

    The support of q must split as delta | gamma_fixed with gamma_fixed a
    union of incomplete components all of m vertices; x and y must agree
    through q^{2m} on their delta-neighbourhoods; sigma1 avoids ran(q),
    sigma2 avoids dom(q), and both avoid gamma_fixed.  The fresh interior
    vertices land outside sigma1 u sigma2 with no edges into it.
    """
    s = q.session
    support = q.dom() | q.ran()
    if delta & gamma_fixed:
        raise HypothesisError("delta-gamma-disjoint")
    if delta | gamma_fixed != support:
        raise HypothesisError("support-partition",
                              "delta and gamma_fixed must cover dom(q) u ran(q)")
    gamma_comps = [c for c in q.components().components if set(c.vertices) & gamma_fixed]
    for c in gamma_comps:
        if not set(c.vertices) <= gamma_fixed:
            raise HypothesisError("gamma-union-of-components")
        if c.complete or len(c) != m:
            raise HypothesisError("gamma-length", f"component of {c.head} has {len(c)} vertices")
    if x in support or y in support or x == y:
        raise HypothesisError("endpoints-free", "x, y must avoid the support of q")
    q2m = power(q, 2 * m)
    nx_delta = s.neighbors_within(x, delta)
    if not nx_delta <= q2m.dom():
        raise HypothesisError("delta-neighbourhood-domain",
                              f"neighbour {min(nx_delta - q2m.dom())} of x escapes dom(q^2m)")
    if {q2m.apply(v) for v in nx_delta} != s.neighbors_within(y, delta):
        raise HypothesisError("delta-neighbourhood-match")
    if sigma1 & q.ran() or sigma2 & q.dom():
        raise HypothesisError("sigma-avoids-q")
    if (sigma1 | sigma2) & gamma_fixed:
        raise HypothesisError("sigma-avoids-gamma")

    fence = sigma1 | sigma2
    xs = [x]
    qi = q
    for i in range(2 * m - 1):
        horizon = qi.dom() | qi.ran() | fence | {x, y}
        matched = {qi.apply(u) for u in s.neighbors_within(xs[-1], qi.dom())}
        nxt = s.alice_witness(matched, horizon - matched)
        qi = neigh_extend(qi, xs[-1], nxt)
        xs.append(nxt)
    qi = neigh_extend(qi, xs[-1], y)
    xs.append(y)

    for v in xs[1:-1]:
        internal_check(v not in fence, "interior-avoids-sigma")
        internal_check(not s.neighbors_within(v, fence), "interior-no-sigma-edges")
    internal_check(qi.chase(x, 2 * m) == y, "chain-connects", f"{x} does not reach {y}")
    internal_check(cycle_free(qi), "result-cycle-free")
    return qi


def build_conjugator(q: PartialIso, p: SeparatedIso) -> tuple[PartialIso, int]:
    """Extend q to h with h^{2m} extending the separated map p.

    q must be cycle-free and supported away from p.  One linking chain
    per point of dom(p), after padding q's components to a common length
    m.
    """
    if not cycle_free(q):
        raise HypothesisError("cycle-free", "q has a complete component")
    piso = p.iso
    p_support = piso.dom() | piso.ran()
    if (q.dom() | q.ran()) & p_support:
        raise HypothesisError("supports-disjoint", "q and p share vertices")
    q, m = pad_components(q, avoid=p_support)
    gamma = q.dom() | q.ran()
    h = q
    for x in sorted(piso.dom()):
        delta = (h.dom() | h.ran()) - gamma
        h = chain_link(h, delta, gamma, x, piso.apply(x), m,
                       sigma1=piso.dom(), sigma2=piso.ran())
    h2m = power(h, 2 * m)
    internal_check(h2m.extends(piso), "power-extends-target")
    return h, m


def _materialize_images(f: LazyOracle, pts) -> set[int]:
    return {f.image(v) for v in pts}


def _materialize_preimages(f: LazyOracle, pts) -> set[int]:
    return {f.preimage(v) for v in pts}


def density_witness_henson(f: LazyOracle, q: PartialIso,
                           p: SeparatedIso) -> WitnessCertificate:
    """Build h extending q with h^m f h^{2l} f^{-1} h^{-m} extending p.

    Stages: absorb the support of p into dom(q) and pad to uniform
    component length m; march every chain m further steps through the
    support of f so the final images escape under f; conjugate p by
    r^m f into a separated map u away from r; extend r to h with h^{2l}
    extending u.
    """
    s = q.session
    if not cycle_free(q):
        raise HypothesisError("cycle-free", "q has a complete component")
    q_in = q
    piso = p.iso
    p_support = sorted(piso.dom() | piso.ran())

    for v in p_support:
        if v not in q.dom():
            q, _ = one_point_extend(q, v, avoid=set(p_support))
    q, m = pad_components(q, avoid=set(p_support))

    tails = sorted(q.ran() - q.dom())
    r = q
    marched: list[int] = []
    for tail in tails:
        cur = tail
        for _ in range(m):
            gamma_set = r.dom() | r.ran()
            x_sup = f.fresh_support_point(avoid=gamma_set)
            gamma_f = _materialize_images(f, gamma_set)
            gamma_fi = _materialize_preimages(f, gamma_set)
            buddy = s.alice_witness({x_sup},
                                    (gamma_set | gamma_fi | {f.image(x_sup)}) - {x_sup})
            buddy_img = f.image(buddy)
            matched = {r.apply(u) for u in s.neighbors_within(cur, r.dom())}
            u_set = matched | {buddy}
            fence = gamma_set | gamma_f | gamma_fi | {buddy_img} | {x_sup, f.image(x_sup)}
            nxt = s.alice_witness(u_set, fence - u_set)
            internal_check(f.image(nxt) != nxt, "march-in-support")
            r = neigh_extend(r, cur, nxt)
            marched.append(nxt)
            cur = nxt

    r_support = r.dom() | r.ran()
    for v in marched:
        internal_check(f.image(v) not in r_support, "march-escapes-forward")
    for z in sorted(q.dom()):
        zz = r.chase(z, m)
        internal_check(zz is not None and f.image(zz) not in r_support,
                       "domain-image-escapes")

    u_pairs = []
    for z in sorted(piso.dom()):
        left = f.image(r.chase(z, m))
        right = f.image(r.chase(piso.apply(z), m))
        u_pairs.append((left, right))
    u = SeparatedIso(validate(s, u_pairs))
    internal_check(not (u.iso.dom() | u.iso.ran()) & r_support, "conjugate-avoids-r")

    h, l = build_conjugator(r, u)

    for x in sorted(piso.dom()):
        v = h.chase(x, m)
        v = f.image(v)
        v = h.chase(v, 2 * l)
        v = f.preimage(v)
        v = h.chase(v, -m)
        internal_check(v == piso.apply(x), "product-extends-target", f"at {x}")

    return WitnessCertificate(
        family=s.kind,
        claim=HENSON_CLAIM,
        transcript=s.transcript(),
        oracle=f.description(),
        q=[list(t) for t in q_in.pairs()],
        p=[list(t) for t in piso.pairs()],
        h=[list(t) for t in h.pairs()],
        data={"m": m, "l": l},
    )
