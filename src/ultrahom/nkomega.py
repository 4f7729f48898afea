"""Density-witness constructions for n disjoint copies of K_omega.

The pipeline builds extensions h of a partial isomorphism q together
with words in the letters {a -> h, b -> f} whose realizations drive a
finite target set out of dom(q), governed by the six-clause word
condition.  All free choices take the lowest eligible vertex, so every
construction replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import N2_CLAIM, NKOMEGA_CLAIM, WitnessCertificate
from .errors import GraphError, HypothesisError, internal_check
from .oracles import NKOracle
from .partial_iso import (FreshWindow, IsoBuilder, PartialIso, compose, extend,
                          index_perm_of, invert, orbit_rep_profile, power, validate)
from .perms import IndexPerm, all_perms, generates_symmetric, word_to
from .words import (FreeWord, WordWalks, b_count, chase, check_word_condition,
                    concat, empty_word, evaluate, landing_orbit, reduce_word,
                    swap_a_sign, word_index_image)


@dataclass(frozen=True)
class IndexFixingIso:
    """Disjoint partial isomorphism mapping every component into itself."""

    iso: PartialIso

    def __post_init__(self):
        if self.iso.dom() & self.iso.ran():
            raise HypothesisError("fixing-disjoint", "domain meets range")
        for c, d in self.iso.index_map().items():
            if c != d:
                raise HypothesisError("index-fixing", f"component {c} sent to {d}")


@dataclass
class AFSigmaContext:
    """A fixed automorphism f and orbit-representative candidate set sigma."""

    f: NKOracle
    sigma: tuple[int, ...]

    def __post_init__(self):
        self.sigma = tuple(sorted(set(self.sigma)))
        self.session = self.f.session
        self.n = self.session.kind.n

    def sigma_set(self) -> set[int]:
        return set(self.sigma)


def check_admissible(ctx: AFSigmaContext, q: PartialIso) -> IndexPerm:
    """Hypotheses shared by the pipeline ops; returns the total index perm of q.

    q must induce a full index permutation generating S_n together with
    f's; sigma must sit inside the support of q hitting each component
    at most once (exactly once on complete ones) and reach every graph
    component along the index permutation from some chain-borne
    representative.
    """
    n = ctx.n
    sq = index_perm_of(q, n)
    if sq is None:
        raise HypothesisError("index-perm-total", "q does not cover every component")
    if not generates_symmetric(n, [ctx.f.index_perm(), sq]):
        raise HypothesisError("generates-symmetric",
                              f"<{ctx.f.index_perm()}, {sq}> is a proper subgroup")
    sig = ctx.sigma_set()
    if not sig <= q.support():
        raise HypothesisError("sigma-in-support",
                              f"representative {min(sig - q.support())} outside q")
    s = ctx.session
    chain_comps = set()
    for c in q.components().components:
        hits = sig & set(c.vertices)
        if len(hits) > 1:
            raise HypothesisError("sigma-at-most-one",
                                  f"component of {c.head} has {len(hits)} representatives")
        if c.complete and len(hits) != 1:
            raise HypothesisError("sigma-complete-one",
                                  f"cycle at {c.head} has {len(hits)} representatives")
        if hits and not c.complete:
            chain_comps.update(s.component_of(v) for v in c.vertices
                               if v in sig)
    for i in range(1, n + 1):
        if not set(sq.orbit(i)) & chain_comps:
            raise HypothesisError("sigma-reachability",
                                  f"no chain-borne representative reaches component {i}")
    return sq


def easy_one_point(q: PartialIso, x: int, y: int) -> PartialIso:
    """Union q u {(x, y)} for component-matched fresh points."""
    s = q.session
    n = s.kind.n
    sq = index_perm_of(q, n)
    if sq is None:
        raise HypothesisError("index-perm-total")
    a = s.component_of(x)
    if x in q.dom():
        raise HypothesisError("x-free", f"{x} already in dom(q)")
    if s.component_of(y) != sq(a) or y in q.ran():
        raise HypothesisError("component-match",
                              f"y must be a fresh point of component {sq(a)}, "
                              f"x lives in {a}")
    return extend(q, x, y)


def _restriction_index_perm(b: IsoBuilder, dropped: set[int]) -> IndexPerm | None:
    """Total index permutation of b minus the pairs rooted in ``dropped``.

    Restrictions of a valid map stay valid and induce a restriction of
    its index map, so the result is b's own index permutation as long as
    every component index keeps a pair leaving it, and None otherwise.
    """
    lost: dict[int, int] = {}
    for u in dropped:
        if u in b.dom():
            c = b.session.component_of(u)
            lost[c] = lost.get(c, 0) + 1
    if any(b.pairs_from[c] == k for c, k in lost.items()):
        return None
    return b.index_perm()


def _class_extend(ctx: AFSigmaContext, b: IsoBuilder, x: int, y: int) -> None:
    """One-point extension staying in the orbit-representative class.

    Mirror-closed variant: the class is closed under inversion, so sigma
    may sit on either side of the map (the strict public op pins it to
    the domain side).
    """
    sq = b.index_perm()
    if sq is None:
        raise HypothesisError("index-perm-total")
    if not all(b.in_support(v) for v in ctx.sigma):
        raise HypothesisError("sigma-in-support")
    if x in b.dom():
        raise HypothesisError("x-free", f"{x} already in dom(q)")
    if b.in_support(y):
        raise HypothesisError("y-fresh", f"{y} already in the support of q")
    if x == y:
        raise HypothesisError("x-ne-y")
    if ctx.session.component_of(y) != sq(ctx.session.component_of(x)):
        raise HypothesisError("component-match")
    b.add(x, y)


def class_one_point(ctx: AFSigmaContext, q: PartialIso, x: int, y: int) -> PartialIso:
    """q u {(x, y)} certified to stay extendable with sigma as orbit reps."""
    if not ctx.sigma_set() <= q.dom():
        raise HypothesisError("sigma-in-dom", "sigma must lie in dom(q)")
    b = IsoBuilder(q)
    _class_extend(ctx, b, x, y)
    return b.freeze()


def amalgamate(ctx: AFSigmaContext, q: PartialIso | IsoBuilder, x: int, y: int):
    """Join two chains of q at (x, y) without orphaning a representative.

    x must end one incomplete component, y begin a different one, at
    most one of the two carrying a representative, and dropping either
    component must leave the induced index permutation intact.  Returns
    the joined map; an ``IsoBuilder`` is joined in place and returned.
    """
    b = q if isinstance(q, IsoBuilder) else IsoBuilder(q)
    A = b.component(x)
    B = b.component(y)
    if A.complete or B.complete:
        raise HypothesisError("incomplete-components")
    if A == B:
        raise HypothesisError("distinct-components", "x and y share a component")
    if x in b.dom():
        raise HypothesisError("x-ends-chain", f"{x} is not the end of its chain")
    if y in b.ran():
        raise HypothesisError("y-heads-chain", f"{y} is not the head of its chain")
    sig = ctx.sigma_set()
    if sig & set(A.vertices) and sig & set(B.vertices):
        raise HypothesisError("would-orphan-representative",
                              "both components carry a representative")
    rest_a = _restriction_index_perm(b, set(A.vertices))
    rest_b = _restriction_index_perm(b, set(B.vertices))
    if rest_a is None or rest_b is None or rest_a != rest_b:
        raise HypothesisError("index-perm-redundant",
                              "dropping either component must leave the same total "
                              "index permutation")
    count = b.count
    b.add(x, y)
    internal_check(b.count == count - 1, "merge-count")
    return b if b is q else b.freeze()


def extend_orbit_reps(ctx: AFSigmaContext, q: PartialIso, depth: int) -> PartialIso:
    """Finite truncation of an extension with sigma as its orbit representatives.

    Pushes every boundary point out of dom(q), merges representative-free
    chains into representative-carrying ones, then absorbs the first
    ``depth`` session vertices into dom cap ran.  Complete components are
    never touched; chains never merge with one another once each carries
    its representative.
    """
    s = ctx.session
    sq = check_admissible(ctx, q)
    sig = ctx.sigma_set()
    if not sig <= q.dom():
        raise HypothesisError("sigma-in-dom")
    q0 = q
    b = IsoBuilder(q)

    def fresh(comp: int, *extra) -> int:
        avoid = set(sig)
        for e in extra:
            avoid |= set(e)
        return b.fresh(comp, avoid)

    for x in sorted(q0.ran() - q0.dom()):
        a = s.component_of(x)
        _class_extend(ctx, b, x, fresh(sq(a)))
    for x in sorted(q0.ran() - q0.dom()):
        internal_check(b.apply(x) not in q0.dom(), "boundary-escapes")

    def sigma_chain_tail_in_orbit(target_comp: int) -> tuple[int, int]:
        """(tail vertex, steps m >= 1) of a representative chain reaching target_comp."""
        for c in b.components().components:
            if c.complete or not sig & set(c.vertices):
                continue
            tail_comp = s.component_of(c.tail)
            for m in range(1, sq.order() + 1):
                if sq.power(m)(tail_comp) == target_comp:
                    return c.tail, m
        raise HypothesisError("sigma-reachability",
                              f"no representative chain reaches component {target_comp}")

    def join_to_sigma_chain(x: int):
        """Grow a representative chain through fresh points onto x (x heads a chain)."""
        a = s.component_of(x)
        tail, m = sigma_chain_tail_in_orbit(a)
        cur = tail
        for i in range(1, m):
            nxt = fresh(sq.power(i)(s.component_of(tail)), [x])
            _class_extend(ctx, b, cur, nxt)
            cur = nxt
        b.add(cur, x)  # lands on the chain head; merge is the construction's point

    for c in list(b.components().components):
        if c.complete or sig & set(c.vertices):
            continue
        join_to_sigma_chain(c.head)

    for v in range(depth):
        while not (v in b.dom() and v in b.ran()):
            if v in b.ran() and v not in b.dom():
                _class_extend(ctx, b, v, fresh(sq(s.component_of(v))))
            elif v in b.dom() and v not in b.ran():
                a = s.component_of(v)
                b.add(fresh(sq.inverse()(a)), v)
            else:
                join_to_sigma_chain(v)

    profile = orbit_rep_profile(b, sig)
    internal_check(all(k == 1 for k in profile.values()), "one-rep-per-component")
    internal_check(b.extends(q0), "extends-input")
    return b.freeze()


def piccard_partner(a: IndexPerm) -> IndexPerm | None:
    """Smallest b with <a, b> the full symmetric group, or None if there is none.

    Exhaustive closure search; the identity input follows the convention
    of returning the lone generator for n <= 2 and None above.
    """
    n = a.n
    if n > 8:
        raise GraphError("out of desk range: n must be at most 8")
    if a.is_identity():
        if n == 1:
            return IndexPerm.identity(1)
        if n == 2:
            return IndexPerm.from_cycles(2, [(1, 2)])
        return None
    for b in all_perms(n):
        if generates_symmetric(n, [a, b]):
            return b
    return None


def class_witness_perm(ctx: AFSigmaContext) -> IndexPerm | None:
    """An index permutation making the orbit-representative class nonempty.

    Needs <f-index, sigma> = S_n and every component reachable along
    sigma-orbits from a representative-carrying component.
    """
    n = ctx.n
    if n > 8:
        raise GraphError("out of desk range: n must be at most 8")
    carriers = {ctx.session.component_of(v) for v in ctx.sigma}
    if not carriers:
        return None
    sf = ctx.f.index_perm()
    for cand in all_perms(n):
        if all(set(cand.orbit(i)) & carriers for i in range(1, n + 1)) \
                and generates_symmetric(n, [sf, cand]):
            return cand
    return None


@dataclass
class StabVerdict:
    stabilizing: bool
    witness: tuple[int, ...] | None
    detail: str


def classify_stabilizing(f: NKOracle, bound: int) -> StabVerdict:
    """Search for a finite f-stabilized set meeting every component equally.

    Finite stabilized sets are unions of finite orbits; under the policy
    those are exactly the band orbits plus single points of fixed tails,
    so the search is exhaustive: dynamic programming over band-orbit
    count vectors, with fixed-tail components topping up freely.  The
    verdict is exact relative to the policy class.
    """
    if bound < 1:
        raise GraphError("bound must be at least 1")
    s = f.session
    n = s.kind.n
    ft = f.fixed_components()
    free = [c for c in range(1, n + 1) if c not in ft]
    if not free:
        witness = tuple(s.vertex(c, f.band_rows) for c in sorted(ft))
        return StabVerdict(True, witness, "every tail is fixed pointwise")
    orbits = f.band_orbits()
    vectors: dict[tuple[int, ...], list[int]] = {tuple([0] * n): []}
    for idx, orb in enumerate(orbits):
        vec = [0] * n
        for v in orb:
            vec[s.component_of(v) - 1] += 1
        for base, picks in list(vectors.items()):
            new = tuple(b + d for b, d in zip(base, vec))
            if new not in vectors:
                vectors[new] = picks + [idx]
    cap = min(bound, sum(len(o) for o in orbits) + 1)
    for m in range(1, cap + 1):
        for vec, picks in sorted(vectors.items()):
            if all(vec[c - 1] == m for c in free) and \
                    all(vec[c - 1] <= m for c in ft):
                pts: list[int] = []
                for idx in picks:
                    pts.extend(orbits[idx])
                for c in sorted(ft):
                    need = m - sum(1 for v in pts if s.component_of(v) == c)
                    pts.extend(s.vertex(c, f.band_rows + 2 * i) for i in range(need))
                return StabVerdict(True, tuple(sorted(pts)),
                                   f"equal count {m} per component")
    return StabVerdict(False, None,
                       "all finite orbits enumerated under the policy; no nonempty "
                       "equal-count stabilized union exists")


def escape_exponents(f: NKOracle, q: PartialIso, x: int) -> list[int]:
    """Exponents m1, m2, ..., odd positions positive, driving x out of dom(q).

    Realizes the alternating product q^{m1} f^{m2} q^{m3} ...; breadth
    first over the finite support of q, so the product is shortest and
    deterministic.  The empty list means x is already outside dom(q).
    """
    if x not in q.dom():
        return []
    dom = q.dom()

    def q_moves(v: int) -> list[tuple[int, int]]:
        out = []
        cur = v
        for k in range(1, len(q) + 1):
            cur = q.apply(cur)
            if cur is None:
                break
            out.append((k, cur))
            if cur == v:
                break
        return out

    start = ("pre", x)
    prev: dict[tuple[str, int], tuple] = {start: None}
    frontier = [start]
    goal = None
    while frontier and goal is None:
        nxt = []
        for state in frontier:
            phase, v = state
            if phase == "pre":
                for k, w in q_moves(v):
                    if w not in dom:
                        goal = (state, k, None)
                        break
                    tgt = ("post", w)
                    if tgt not in prev:
                        prev[tgt] = (state, k)
                        nxt.append(tgt)
                if goal:
                    break
            else:
                j = f.escape_power(v, dom)
                if j is not None:
                    goal = (state, j, None)
                    break
                for j, u in f.orbit_meetings(v, dom):
                    tgt = ("pre", u)
                    if tgt not in prev:
                        prev[tgt] = (state, j)
                        nxt.append(tgt)
        frontier = sorted(nxt, key=lambda st: (st[0], st[1]))
    internal_check(goal is not None, "escape-exists",
                   "non-stabilizing certificate violated: no escape product")

    steps = [goal[1]]
    state = goal[0]
    while prev[state] is not None:
        parent, exp = prev[state]
        steps.append(exp)
        state = parent
    steps.reverse()
    if len(steps) % 2 == 1:
        steps.append(0)  # trailing f^0, removed by word reduction
    for i in range(0, len(steps), 2):
        internal_check(steps[i] > 0, "odd-positions-positive")
    return steps


def _exponents_word(exps: list[int]) -> FreeWord:
    sylls = []
    for i, e in enumerate(exps):
        if e:
            sylls.append(("a" if i % 2 == 0 else "b", e))
    return reduce_word(sylls)


def _absorb_into_dom(ctx: AFSigmaContext, b: IsoBuilder, pts, avoid=()) -> None:
    """Pull the given points into dom(b) by fresh one-point extensions."""
    s = ctx.session
    sq = b.index_perm()
    pts = sorted(set(pts))
    blocked = set(avoid) | set(pts)
    for x in pts:
        if x in b.dom():
            continue
        _class_extend(ctx, b, x, b.fresh(sq(s.component_of(x)), blocked))


def _orbit_avoids(b: IsoBuilder, z: int, phi) -> bool:
    return not any(v in phi for v in landing_orbit(b, z))


def _base_step(ctx: AFSigmaContext, b: IsoBuilder, lam: FreeWord,
               established: list[int], x: int, phi: frozenset[int],
               delta: set[int], depth: int):
    """Absorb one more target point into the word bookkeeping.

    Extends the word by an escape block, a long run of the first letter
    landing in the support of f's index permutation, one f-letter and
    one more first letter; then extends b point by point until the
    target's defined prefix reaches the word's second-to-last letter,
    keeping the previously established points' landings untouched.
    Returns the new word and the established points.
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    sq = b.index_perm()
    sf = f.index_perm()
    internal_check(depth <= 1, "role-switch-once",
                   "a second role switch should be impossible")

    end = chase(lam, x, b, f)
    nu = _exponents_word(escape_exponents(f, b, end)) if end is not None else empty_word()
    lam_nu = concat(lam, nu)
    internal_check(chase(concat(lam_nu, reduce_word([("a", 1)])), x, b, f) is None,
                   "x-dies-before-alpha")

    if n == 2 and sf.is_identity():
        m = len(lam_nu) + 1
    else:
        c = word_index_image(lam_nu, sq, sf)(s.component_of(x))
        m = None
        for cand in range(len(lam_nu) + 1, len(lam_nu) + 1 + sq.order()):
            if sq.power(cand)(c) in sf.support():
                m = cand
                break
        internal_check(m is not None, "support-reachable",
                       "the index orbit never meets supp(f-index)")
    lam1 = concat(lam_nu, reduce_word([("a", m), ("b", 1), ("a", 1)]))
    rho_len = len(lam1) - 1

    walks = WordWalks(lam1, b, f, established + [x])
    x_val = walks.value(x)
    partners = [u for u in established if walks.value(u) == x_val]
    internal_check(len(partners) <= 1, "partner-unique")
    y = partners[0] if partners else None
    if y is not None and walks.consumed(y) > walks.consumed(x):
        swapped = [u for u in established if u != y] + [x]
        return _base_step(ctx, b, lam1, swapped, y, phi, delta, depth + 1)

    entry_prefix = {u: walks.consumed(u) for u in established}
    window = FreshWindow(f, b_count(lam1))
    k = 0
    while True:
        x_len, x_val = walks.consumed(x), walks.value(x)
        internal_check(k <= x_len <= rho_len, "inner-i")
        internal_check(not b.ran() & delta, "inner-ii")
        for u in established:
            if u != y:
                internal_check(walks.consumed(u) == entry_prefix[u], "inner-iii")
        vals = [walks.value(u) for u in established]
        internal_check(len(set(vals)) == len(vals), "inner-iv")
        for v in vals:
            internal_check(_orbit_avoids(b, v, phi), "inner-v")
        internal_check(x_val not in b.dom(), "inner-vi")
        internal_check(all(x_val != walks.value(u) for u in established if u != y),
                       "inner-vi-distinct")
        if x_len == rho_len:
            internal_check(not b.in_support(x_val), "rho-value-free")
            if y is not None:
                internal_check(x_val != walks.value(y), "collision-resolved")
            break
        z = x_val
        z2 = window.fresh(b, sq(s.component_of(z)), delta | walks.values())
        _class_extend(ctx, b, z, z2)
        walks.on_add(z, z2)
        k += 1
        internal_check(k <= rho_len + 1, "inner-terminates")

    out_est = established + [x]
    internal_check(not b.ran() & delta, "post-I")
    vals = [walks.value(u) for u in out_est]
    internal_check(len(set(vals)) == len(vals), "post-II")
    for u in out_est:
        internal_check(_orbit_avoids(b, walks.value(u), phi), "post-III")
        internal_check(walks.consumed(u) < len(lam1), "post-IV")
    return lam1, out_est


def build_base_word(ctx: AFSigmaContext, q: PartialIso, gamma, delta):
    """Extension h of q and a word w driving all of gamma out of dom(w(h)).

    w starts with the first letter and never uses its inverse; h
    satisfies the word condition with an empty covered set, range
    avoiding delta, and landings clear of the prepared domain (which is
    returned as the phi of the rest of the pipeline).
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    gamma = sorted(set(gamma))
    delta = set(delta)
    if q.ran() & delta:
        raise HypothesisError("ran-avoids-delta")
    check_admissible(ctx, q)
    specials: set[int] = set()
    if n == 2 and f.index_perm().is_identity():
        if f.fixed_components():
            raise HypothesisError("fix-finite",
                                  "fix(f) is infinite; route to the n=2 special witness")
        specials = f.fixed_band_points()
    b = IsoBuilder(q)
    _absorb_into_dom(ctx, b, set(gamma) | ctx.sigma_set() | specials, avoid=delta)
    phi = frozenset(b.dom())

    lam = reduce_word([("a", 1)])
    established: list[int] = []
    for x in gamma:
        lam, established = _base_step(ctx, b, lam, established, x, phi, delta, 0)

    sq = b.index_perm()
    target = word_index_image(lam, sq, f.index_perm()).inverse()
    suffix = word_to(n, sq, f.index_perm(), target)
    w = reduce_word(list(lam.syllables) + suffix)
    internal_check(w.starts_with("a") and not w.has_negative("a"), "word-shape")
    q = b.freeze()
    rep = check_word_condition(q, gamma, (), phi, delta, w, f)
    internal_check(rep.holds, "base-word-condition", str(rep))
    return q, w, phi


def extend_word_domain(ctx: AFSigmaContext, q: PartialIso, gamma, theta,
                       phi, delta, w: FreeWord, x: int,
                       window: FreshWindow | None = None) -> PartialIso:
    """Extend q so that x joins dom(w(q)) while the word condition survives.

    One fresh pair per first-letter death point of x's walk; the other
    target points' landings are pinned by the exclusion windows around
    every choice.  ``window`` (radius b_count(w)) may carry its marks
    over from an earlier call whose result q extends.
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    gamma = sorted(set(gamma))
    theta = set(theta)
    phi = set(phi)
    delta = set(delta)
    rep = check_word_condition(q, gamma, theta, phi, delta, w, f)
    if not rep.holds:
        raise HypothesisError("word-condition-entry", str(rep))
    if x not in set(gamma) - theta:
        raise HypothesisError("x-new", f"{x} must be an uncovered target point")
    if not w.starts_with("a") or w.has_negative("a"):
        raise HypothesisError("word-shape")
    if not set(gamma) <= q.dom() or not phi <= q.dom():
        raise HypothesisError("gamma-phi-in-dom")

    b = IsoBuilder(q)
    sq = b.index_perm()
    B = b_count(w)
    W = len(w)
    others = [u for u in gamma if u != x]
    walks = WordWalks(w, b, f, gamma)
    if window is None:
        window = FreshWindow(f, B)
    if window.radius != B:
        raise HypothesisError("window-radius", f"the window must have radius b_count(w) = {B}")
    entry = {u: walks.consumed(u) for u in others}
    guard = 0
    internal_check(2 <= walks.consumed(x) + 1 <= W, "death-position")
    while True:
        k = walks.consumed(x)
        if k == W:
            break
        internal_check(walks.next_letter(x) == ("a", 1), "death-at-alpha")
        y = walks.value(x)
        internal_check(y not in b.dom(), "death-point-free")
        z = window.fresh(b, sq(s.component_of(y)), delta | walks.values())
        _class_extend(ctx, b, y, z)
        walks.on_add(y, z)
        guard += 1
        internal_check(guard <= W + 1, "fill-terminates")

        internal_check(not b.ran() & delta, "fill-i")
        for u in others:
            internal_check(walks.consumed(u) == entry[u]
                           and walks.value(u) not in b.dom(), "fill-ii")
        newval = walks.value(x)
        internal_check(walks.consumed(x) > k, "fill-progress")
        if walks.consumed(x) < W:
            radius = B - b_count(walks.prefix(x))
            for i in range(-radius, radius + 1):
                internal_check(f.iterate(newval, i) not in b.dom(), "fill-iii")
        internal_check(all(newval != walks.value(u) for u in others), "fill-iv")
        for u in others:
            internal_check(_orbit_avoids(b, walks.value(u), phi), "fill-v")
        internal_check(_orbit_avoids(b, newval, phi), "fill-v-x")

    qj = b.freeze()
    rep = check_word_condition(qj, gamma, theta | {x}, phi, delta, w, f)
    internal_check(rep.holds, "word-condition-exit", str(rep))
    return qj


def build_covering_word(ctx: AFSigmaContext, q: PartialIso, gamma, delta):
    """Base word plus one fill round per target point: the full word condition."""
    gamma = sorted(set(gamma))
    delta = sorted(set(delta))
    if set(gamma) & set(delta):
        raise HypothesisError("gamma-delta-disjoint")
    h, w, phi = build_base_word(ctx, q, gamma, delta)
    window = FreshWindow(ctx.f, b_count(w))
    done: list[int] = []
    for x in gamma:
        h = extend_word_domain(ctx, h, gamma, done, phi, delta, w, x, window)
        done.append(x)
    rep = check_word_condition(h, gamma, gamma, phi, delta, w, ctx.f)
    internal_check(rep.holds, "covering-word-condition", str(rep))
    return h, w, phi


def density_witness_nkomega(ctx: AFSigmaContext, q: PartialIso,
                            p: IndexFixingIso,
                            stab_bound: int = 64) -> WitnessCertificate:
    """Build h extending q with w1(h) h^k w2(h)^-1 extending p.

    k is the order of q's index permutation.  Staging: a covering word
    for dom(p); absorption of its landings into the boundary of the
    extension; an inverted covering word for ran(p) kept clear of those
    landings; redundancy chains so single components stay droppable;
    k - 1 rounds pushing the landings forward; closing pairs glued by
    chain amalgamation.
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    if n == 2 and f.index_perm().is_identity() and f.fixed_components():
        return density_witness_n2(ctx, q, p)
    verdict = classify_stabilizing(f, stab_bound)
    if verdict.stabilizing:
        raise HypothesisError("non-stabilizing", verdict.detail)
    sq = check_admissible(ctx, q)
    if not ctx.sigma_set() <= q.dom():
        raise HypothesisError("sigma-in-dom")
    q_in = q
    piso = p.iso
    d_pts = sorted(piso.dom())
    b = IsoBuilder(q)
    _absorb_into_dom(ctx, b, piso.support())
    q = b.freeze()
    k = sq.order()

    q1, w1, _ = build_covering_word(ctx, q, d_pts, ())
    vals1 = {x: chase(w1, x, q1, f) for x in d_pts}
    internal_check(all(v is not None for v in vals1.values()), "w1-defined")
    b = IsoBuilder(q1)
    for x in d_pts:
        v = vals1[x]
        if v not in b.ran():
            xnew = b.fresh(sq.inverse()(s.component_of(v)), set(vals1.values()))
            _class_extend(ctx, b, xnew, v)
    q1 = b.freeze()
    internal_check({x: chase(w1, x, q1, f) for x in d_pts} == vals1, "w1-stable")
    val1set = set(vals1.values())
    internal_check(val1set <= q1.ran() - q1.dom(), "w1-values-boundary")

    r_pts = sorted(piso.ran())
    q2i, w2i, _ = build_covering_word(ctx, invert(q1), r_pts, sorted(val1set))
    q2 = invert(q2i)
    w2 = swap_a_sign(w2i)
    vals2 = {y: chase(w2, y, q2, f) for y in r_pts}
    internal_check(all(v is not None for v in vals2.values()), "w2-defined")
    val2set = set(vals2.values())
    internal_check(not q2.dom() & val1set, "w1-values-clear-of-dom")
    internal_check(not q2.ran() & val2set, "w2-values-clear-of-ran")
    internal_check({x: chase(w1, x, q2, f) for x in d_pts} == vals1, "w1-still-stable")

    # redundancy chains: one spare cycle-walk per index orbit
    h = IsoBuilder(q2)
    chosen: set[int] = set()
    for cyc in sorted(sq.cycles(include_fixed=True)):
        verts = []
        for comp in cyc + (cyc[0],):
            v = h.fresh(comp, val2set | chosen)
            chosen.add(v)
            verts.append(v)
        for xk, yk in zip(verts, verts[1:]):
            _class_extend(ctx, h, xk, yk)
    for chain in h.chains():
        internal_check(_restriction_index_perm(h, set(chain)) is not None,
                       "spare-chain-redundancy")

    for j in range(k - 1):
        ys = []
        for x in d_pts:
            v = h.chase(chase(w1, x, h, f), j)
            internal_check(v is not None and v not in h.dom(), "ladder-free")
            ys.append(v)
        internal_check(len(set(ys)) == len(ys), "ladder-distinct")
        for yv in ys:
            _class_extend(ctx, h, yv, h.fresh(sq(s.component_of(yv)), val2set))

    for x in d_pts:
        Y = h.chase(chase(w1, x, h, f), k - 1)
        Z = vals2[piso.apply(x)]
        internal_check(Y is not None and Y not in h.dom(), "closing-source-free")
        internal_check(Z not in h.ran(), "closing-target-free")
        if h.in_support(Z):
            amalgamate(ctx, h, Y, Z)
        else:
            _class_extend(ctx, h, Y, Z)
    h = h.freeze()

    product = compose(evaluate(w1, h, f), power(h, k), invert(evaluate(w2, h, f)))
    internal_check(product.extends(piso), "product-extends-target")
    internal_check(h.extends(q_in), "h-extends-q")

    return WitnessCertificate(
        family=s.kind,
        claim=NKOMEGA_CLAIM,
        transcript=[],
        oracle=f.description(),
        q=[list(t) for t in q_in.pairs()],
        p=[list(t) for t in piso.pairs()],
        h=[list(t) for t in h.pairs()],
        data={"k": k, "w1": str(w1), "w2": str(w2),
              "sigma": list(ctx.sigma),
              "product_pairs": [list(t) for t in product.pairs()]},
    )


def density_witness_n2(ctx: AFSigmaContext, q: PartialIso,
                       p: IndexFixingIso,
                       stab_bound: int = 64) -> WitnessCertificate:
    """Two-component special case: identity index map with an infinite fixed line.

    Builds h and exponents m1..m4 so that the single word
    b^m1 a b^m2 a^2 b^-m4 a b^-m3 realizes an extension of p: the
    domain side is parked on fixed points of f, the range side mirrored,
    and the two halves glued through fresh middle points.
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    sf = f.index_perm()
    if n != 2 or not sf.is_identity() or not f.fixed_components():
        raise HypothesisError("routing",
                              "needs n = 2, identity index map and an infinite fixed line")
    verdict = classify_stabilizing(f, stab_bound)
    if verdict.stabilizing:
        raise HypothesisError("non-stabilizing", verdict.detail)
    sq = check_admissible(ctx, q)
    internal_check(not sq.is_identity(), "index-transposition")
    if not ctx.sigma_set() <= q.dom():
        raise HypothesisError("sigma-in-dom")
    q_in = q
    piso = p.iso
    piso_support = piso.support()
    h = IsoBuilder(q)
    _absorb_into_dom(ctx, h, piso_support)

    ell2 = min(f.fixed_components())
    ell1 = 3 - ell2
    dp1 = sorted(v for v in piso.dom() if s.component_of(v) == ell1)
    dp2 = sorted(v for v in piso.dom() if s.component_of(v) == ell2)
    rp1 = sorted(v for v in piso.ran() if s.component_of(v) == ell1)
    rp2 = sorted(v for v in piso.ran() if s.component_of(v) == ell2)

    def escape_exp(pts, blocked) -> int:
        if not pts:
            return 0
        bound = f._orbit_scan_bound(set(blocked) | set(pts)) + 2
        for mag in range(0, bound):
            for mm in ((0,) if mag == 0 else (mag, -mag)):
                if all(f.iterate(v, mm) not in blocked for v in pts):
                    return mm
        raise HypothesisError("escape-power", "no power of f clears the blocked set")

    # stage 1: park the domain side on fixed points of f
    m1 = escape_exp(dp1, h.support())
    for v in dp1:
        y = f.fixed_tail_point(ell2, h.support() | piso_support)
        _class_extend(ctx, h, f.iterate(v, m1), y)
    for v in dp2:
        vv = f.iterate(v, m1)
        if vv not in h.dom():
            _class_extend(ctx, h, vv, h.fresh(ell1, piso_support))
    pts2 = [h.apply(f.iterate(v, m1)) for v in dp2]
    m2 = escape_exp(pts2, h.support())
    a_vals = {x: f.iterate(h.apply(f.iterate(x, m1)), m2) for x in dp2}
    a_vals.update({x: h.apply(f.iterate(x, m1)) for x in dp1})  # fixed points
    a_set = set(a_vals.values())
    internal_check(not a_set & h.dom(), "stage1-clear-of-dom")

    # stage 2: the range side, mirrored
    m3 = escape_exp(rp1, h.support() | a_set)
    for v in rp1:
        x2 = f.fixed_tail_point(ell2, h.support() | a_set | piso_support)
        h.add(x2, f.iterate(v, m3))
    for v in rp2:
        vv = f.iterate(v, m3)
        if vv not in h.ran():
            h.add(h.fresh(ell1, a_set | piso_support), vv)
    pts4 = [h.unapply(f.iterate(v, m3)) for v in rp2]
    m4 = escape_exp(pts4, h.support() | a_set)
    b_vals = {x: f.iterate(h.unapply(f.iterate(piso.apply(x), m3)), m4)
              for x in dp1 + dp2}
    b_set = set(b_vals.values())
    internal_check(not b_set & h.ran(), "stage2-clear-of-ran")
    internal_check(not a_set & h.dom(), "stage1-still-clear")

    # stage 3: glue the halves through fresh middle points
    y_pts = {}
    for x in sorted(piso.dom()):
        yv = h.fresh(s.component_of(x), a_set | b_set)
        _class_extend(ctx, h, a_vals[x], yv)
        y_pts[x] = yv
    for x in sorted(piso.dom()):
        Z = b_vals[x]
        if h.in_support(Z):
            amalgamate(ctx, h, y_pts[x], Z)
        else:
            _class_extend(ctx, h, y_pts[x], Z)
    h = h.freeze()

    raw = [("b", m1), ("a", 1), ("b", m2), ("a", 2), ("b", -m4), ("a", 1), ("b", -m3)]
    word = reduce_word([syl for syl in raw if syl[1] != 0])
    for x in sorted(piso.dom()):
        internal_check(chase(word, x, h, f) == piso.apply(x),
                       "product-extends-target", f"at {x}")
    internal_check(h.extends(q_in), "h-extends-q")

    return WitnessCertificate(
        family=s.kind,
        claim=N2_CLAIM,
        transcript=[],
        oracle=f.description(),
        q=[list(t) for t in q_in.pairs()],
        p=[list(t) for t in piso.pairs()],
        h=[list(t) for t in h.pairs()],
        data={"word": str(word), "exponents": [m1, m2, m3, m4],
              "sigma": list(ctx.sigma)},
    )


def split_index_fixing(q: PartialIso):
    """Factor q as adjust * p1 * p2 with p1, p2 disjoint and index-fixing.

    ``adjust`` carries all the index movement of q (the identity map on
    dom(q) when q already fixes every component index).
    """
    s = q.session
    n = s.kind.n
    imap = q.index_map()
    img = dict(imap)
    free = [j for j in range(1, n + 1) if j not in set(img.values())]
    for i in range(1, n + 1):
        if i not in img:
            img[i] = free.pop(0)
    sigma = IndexPerm(tuple(img[i] for i in range(1, n + 1)))

    taken = set(q.support())
    identity_adjust = all(c == d for c, d in imap.items())
    adj_pairs, p1_pairs, p2_pairs = [], [], []
    for x in sorted(q.dom()):
        cx = s.component_of(x)
        if identity_adjust:
            ax = x
        else:
            ax = s.fresh_in_component(sigma(cx), taken)
            taken.add(ax)
        bx = s.fresh_in_component(sigma(cx), taken)
        taken.add(bx)
        adj_pairs.append((x, ax))
        p1_pairs.append((ax, bx))
        p2_pairs.append((bx, q.apply(x)))
    adjust = validate(s, adj_pairs)
    p1 = IndexFixingIso(validate(s, p1_pairs))
    p2 = IndexFixingIso(validate(s, p2_pairs))
    internal_check(compose(adjust, p1.iso, p2.iso).extends(q), "factorization")
    return p1, p2, adjust
