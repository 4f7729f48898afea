"""Density-witness constructions for n disjoint copies of K_omega.

The pipeline builds extensions h of a partial isomorphism q together
with words in the letters {a -> h, b -> f} whose realizations drive a
finite target set out of dom(q), governed by the six-clause word
condition.  All free choices take the lowest eligible vertex, so every
construction replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import N2_CLAIM, NKOMEGA_CLAIM, WitnessCertificate, certify
from .errors import GraphError, HypothesisError, internal_check
from .oracles import NKOracle
from .partial_iso import FreshWindow, IsoBuilder, PartialIso
from .perms import IndexPerm, all_perms, generates_symmetric, word_to
from .words import (FreeWord, WordConditionReport, WordWalks, b_count, chase,
                    check_word_condition, concat, empty_word, landing_orbit, reduce_word,
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
        # checks already made on a growing builder, so that none is asked twice:
        # the builder whose support holds sigma (a support only grows); the builder
        # density_witness_nkomega opened on q once check_admissible passed, which
        # only _class_extend, amalgamate and IsoBuilder.invert grow, and they keep
        # every clause of that check; and the last word-condition report, with
        # the builder version and the arguments it read
        self._sigma_held: IsoBuilder | None = None
        self._own: IsoBuilder | None = None
        self._word_check: tuple[tuple, WordConditionReport] | None = None

    def sigma_set(self) -> set[int]:
        return set(self.sigma)


def check_admissible(ctx: AFSigmaContext, q: PartialIso | IsoBuilder) -> IndexPerm:
    """Hypotheses shared by the pipeline ops; returns the total index perm of q.

    q must induce a full index permutation generating S_n together with
    f's; sigma must sit inside the support of q hitting each component
    at most once (exactly once on complete ones) and reach every graph
    component along the index permutation from some chain-borne
    representative.
    """
    n = ctx.n
    sq = q.index_perm()
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

    The class is closed under inversion, so sigma need only lie in the
    support of the map, on either side of it.  The support only grows, so
    that is tested once per builder.
    """
    sq = b.index_perm()
    if sq is None:
        raise HypothesisError("index-perm-total")
    if ctx._sigma_held is not b:
        if not all(b.in_support(v) for v in ctx.sigma):
            raise HypothesisError("sigma-in-support")
        ctx._sigma_held = b
    if x in b.dom():
        raise HypothesisError("x-free", f"{x} already in dom(q)")
    if b.in_support(y):
        raise HypothesisError("y-fresh", f"{y} already in the support of q")
    if x == y:
        raise HypothesisError("x-ne-y")
    if ctx.session.component_of(y) != sq(ctx.session.component_of(x)):
        raise HypothesisError("component-match")
    b.add(x, y)


def amalgamate(ctx: AFSigmaContext, b: IsoBuilder, x: int, y: int) -> None:
    """Join two chains of b at (x, y), in place, without orphaning a representative.

    x must end one incomplete component, y begin a different one, at
    most one of the two carrying a representative, and dropping either
    component must leave the induced index permutation intact.
    """
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


# piccard_partner's answers, by a: at most one per permutation of n <= 8 points
_PARTNERS: dict[IndexPerm, IndexPerm | None] = {}


def piccard_partner(a: IndexPerm) -> IndexPerm | None:
    """Smallest b, in ``all_perms`` order, with <a, b> the full symmetric group, or
    None if there is none.

    Scans ``all_perms`` with ``generates_symmetric``, once per a: the
    answer is kept.  The identity input follows the convention of
    returning the lone generator for n <= 2 and None above.
    """
    n = a.n
    if n > 8:
        raise GraphError("out of desk range: n must be at most 8")
    if a in _PARTNERS:
        return _PARTNERS[a]
    if a.is_identity():
        found = {1: IndexPerm.identity(1), 2: IndexPerm.from_cycles(2, [(1, 2)])}.get(n)
    else:
        found = next((b for b in all_perms(n) if generates_symmetric(n, [a, b])), None)
    _PARTNERS[a] = found
    return found


@dataclass
class StabVerdict:
    stabilizing: bool
    witness: tuple[int, ...] | None
    detail: str


def classify_stabilizing(f: NKOracle) -> StabVerdict:
    """Whether some finite f-stabilized set meets every component equally, with one.

    Finite stabilized sets are unions of finite orbits, and under the policy
    those are the band orbits and the points of fixed tails.  The band maps
    onto itself and holds ``band_rows`` vertices of every component, so it
    is one whenever it is not empty.  Without it only fixed tails hold finite
    orbits, so every component needs one.  The verdict is exact for the
    policy class, and a witness is one fixed tail point per component when
    every tail is fixed, or else the band.
    """
    s = f.session
    n = s.kind.n
    loose = [c for c in range(1, n + 1) if c not in f.fixed_tail]
    if not loose:
        witness = tuple(s.vertex(c, f.band_rows) for c in range(1, n + 1))
        return StabVerdict(True, witness, "every tail is fixed pointwise")
    if f.band_rows:
        witness = tuple(sorted(s.vertex(c, t) for c in range(1, n + 1)
                               for t in range(f.band_rows)))
        return StabVerdict(True, witness, f"the band: {f.band_rows} per component")
    return StabVerdict(False, None,
                       f"no band, and component {loose[0]} has no fixed tail, so no "
                       "finite orbit meets it")


def escape_exponents(f: NKOracle, q: PartialIso, x: int) -> list[int]:
    """[m1, m2], m1 > 0, with (x)q^m1 f^m2 outside dom(q); [] if x is outside already.

    m1 is the least exponent that takes x out along its chain of q (with
    m2 = 0), or else x's q-cycle is searched by least vertex for the
    least-|m2| escape of f.  f has no band: then an orbit of f that dom(q)
    traps is a fixed tail point, which f carries onto no other point of
    dom(q), so no longer alternating product escapes where these do not.
    """
    if f.band_rows:
        raise HypothesisError("no-band", "escape products are searched for band-free f only")
    dom = q.dom()
    if x not in dom:
        return []
    cycle: dict[int, int] = {}
    v, k = x, 0
    while x not in cycle:
        v, k = q.apply(v), k + 1
        if v not in dom:
            return [k, 0]
        cycle[v] = k
    for v in sorted(cycle):
        j = f.escape_power((v,), dom)
        if j is not None:
            return [cycle[v], j]
    internal_check(False, "escape-exists",
                   "non-stabilizing certificate violated: no escape product")


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


def _orbit_avoids(b: IsoBuilder, z: int, phi: frozenset[int]) -> bool:
    """Whether z's component in b misses phi: O(1) through b's chain marks once b is
    marked with phi, unless z lies inside a chain or on a cycle."""
    hits = b.chain_marks(z) if b.marked is phi else None
    if hits is None:
        return phi.isdisjoint(landing_orbit(b, z))
    return hits == 0


def _run_exponent(ctx: AFSigmaContext, sq: IndexPerm, lam_nu: FreeWord, x: int,
                  floor: int) -> int:
    """Smallest m >= floor whose a-run ends x's walk of lam_nu a^m in a component
    f's index permutation moves (see README, "The a-run exponent").

    The n = 2 identity-index branch keeps the paper's m = |lam_nu| + 1.
    """
    sf = ctx.f.index_perm()
    if ctx.n == 2 and sf.is_identity():
        return len(lam_nu) + 1
    c = word_index_image(lam_nu, sq, sf)(ctx.session.component_of(x))
    m = next((cand for cand in range(floor, floor + sq.order())
              if sq.power(cand)(c) in sf.support()), None)
    internal_check(m is not None, "support-reachable",
                   "the index orbit never meets supp(f-index)")
    return m


def _base_step(ctx: AFSigmaContext, b: IsoBuilder, lam: FreeWord,
               established: list[int], x: int, phi: frozenset[int],
               delta: set[int], window: FreshWindow, depth: int):
    """Absorb one more target point into the word bookkeeping.

    Extends the word by an escape block, the shortest run of the first
    letter that lands in the support of f's index permutation and
    outlasts x's lead over a partner walk it shares a value with, one
    f-letter and one more first letter; then extends b point by point
    until the target's defined prefix reaches the word's second-to-last
    letter, keeping the previously established points' landings
    untouched.  ``window``, which fences delta, is widened to the new
    word's b-count.  Returns the new word and the established points.
    """
    f, s = ctx.f, ctx.session
    sq = b.index_perm()
    internal_check(depth <= 1, "role-switch-once",
                   "a second role switch should be impossible")

    end = chase(lam, x, b, f)
    nu = _exponents_word(escape_exponents(f, b, end)) if end is not None else empty_word()
    lam_nu = concat(lam, nu)
    internal_check(chase(concat(lam_nu, reduce_word([("a", 1)])), x, b, f) is None,
                   "x-dies-before-alpha")

    def extended(m: int) -> tuple[FreeWord, WordWalks]:
        word = concat(lam_nu, reduce_word([("a", m), ("b", 1), ("a", 1)]))
        return word, WordWalks(word, b, f, established + [x])

    m = _run_exponent(ctx, sq, lam_nu, x, 1)
    lam1, walks = extended(m)
    # every walk stops inside lam_nu a, so no stop depends on m
    x_val = walks.value(x)
    partners = [u for u in established if walks.value(u) == x_val]
    internal_check(len(partners) <= 1, "partner-unique")
    y = partners[0] if partners else None
    if y is not None:
        lead = walks.consumed(x) - walks.consumed(y)
        if lead < 0:
            swapped = [u for u in established if u != y] + [x]
            return _base_step(ctx, b, lam_nu, swapped, y, phi, delta, window, depth + 1)
        if m < lead:
            m = _run_exponent(ctx, sq, lam_nu, x, lead)
            lam1, walks = extended(m)
    rho_len = len(lam1) - 1

    entry_prefix = {u: walks.consumed(u) for u in established}
    window.widen(b_count(lam1))
    k = 0
    while True:
        x_len, x_val = walks.consumed(x), walks.value(x)
        internal_check(k <= x_len <= rho_len, "inner-i")
        internal_check(b.ran().isdisjoint(delta), "inner-ii")
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
        z2 = window.fresh(b, sq(s.component_of(z)), walks.values())
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


def build_base_word(ctx: AFSigmaContext, b: IsoBuilder, gamma, delta,
                    window: FreshWindow):
    """Grow b in place, from q, to h with a word w driving all of gamma out of dom(w(h)).

    w starts with the first letter and never uses its inverse; h
    satisfies the word condition with an empty covered set, range
    avoiding delta, and landings clear of the prepared domain (which is
    returned as the phi of the rest of the pipeline).  ``window`` serves
    b's fresh choices: it fences delta and widens with the word.  b must
    be admissible, and is checked unless it is the builder of the n K_omega
    witness, checked when it was opened.  Returns (w, phi).
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    gamma = sorted(set(gamma))
    delta = set(delta)
    if b.ran() & delta:
        raise HypothesisError("ran-avoids-delta")
    if b is not ctx._own:
        check_admissible(ctx, b)
    if n == 2 and f.index_perm().is_identity() and f.fixed_components():
        raise HypothesisError("fix-finite", "fix(f) is infinite; route to the n=2 special witness")
    _absorb_into_dom(ctx, b, set(gamma) | ctx.sigma_set(), avoid=delta)
    phi = frozenset(b.dom())
    b.mark(phi)
    window.fence(delta)

    lam = reduce_word([("a", 1)])
    established: list[int] = []
    for x in gamma:
        lam, established = _base_step(ctx, b, lam, established, x, phi, delta, window, 0)

    sq = b.index_perm()
    target = word_index_image(lam, sq, f.index_perm()).inverse()
    suffix = word_to(n, sq, f.index_perm(), target)
    w = reduce_word(list(lam.syllables) + suffix)
    internal_check(w.starts_with("a") and not w.has_negative("a"), "word-shape")
    rep = _word_condition(ctx, b, gamma, (), phi, delta, w)
    internal_check(rep.holds, "base-word-condition", str(rep))
    return w, phi


def _word_condition(ctx: AFSigmaContext, b: IsoBuilder, gamma, theta, phi, delta,
                    w: FreeWord) -> WordConditionReport:
    """``check_word_condition`` on b, once per builder state and arguments: a check
    that repeats the last one, on the same version of b, returns its report."""
    key = (b, b.version, tuple(gamma), frozenset(theta), frozenset(phi), frozenset(delta), w)
    last = ctx._word_check
    if last is not None and last[0] == key:
        return last[1]
    rep = check_word_condition(b, gamma, theta, phi, delta, w, ctx.f)
    ctx._word_check = key, rep
    return rep


def extend_word_domain(ctx: AFSigmaContext, b: IsoBuilder, gamma, theta,
                       phi, delta, w: FreeWord, x: int, window: FreshWindow) -> None:
    """Grow b in place so that x joins dom(w(b)) while the word condition survives.

    One fresh pair per first-letter death point of x's walk; the other
    target points' landings are pinned by the exclusion windows around
    every choice.  ``window`` must have radius b_count(w); it fences
    delta and carries its centres over from earlier growth of b.  A
    builder grown on from the base word keeps the chain counts of phi that
    ``build_base_word`` marked; on any other, the landing checks walk the
    orbit (``_orbit_avoids``).  The entry check on b is the base
    word's final check or the previous fill's exit check whenever those
    read the same state with the same arguments, and then reuses it.
    """
    f, s, n = ctx.f, ctx.session, ctx.n
    gamma = sorted(set(gamma))
    theta = set(theta)
    phi = frozenset(phi)  # the same set when phi is one already, so b's marks carry over
    delta = set(delta)
    rep = _word_condition(ctx, b, gamma, theta, phi, delta, w)
    if not rep.holds:
        raise HypothesisError("word-condition-entry", str(rep))
    if x not in set(gamma) - theta:
        raise HypothesisError("x-new", f"{x} must be an uncovered target point")
    if not w.starts_with("a") or w.has_negative("a"):
        raise HypothesisError("word-shape")
    dom = b.dom()
    if not all(v in dom for v in gamma) or not all(v in dom for v in phi):
        raise HypothesisError("gamma-phi-in-dom")

    sq = b.index_perm()
    B = b_count(w)
    W = len(w)
    others = [u for u in gamma if u != x]
    walks = WordWalks(w, b, f, gamma)
    if window.radius != B:
        raise HypothesisError("window-radius", f"the window must have radius b_count(w) = {B}")
    window.fence(delta)
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
        z = window.fresh(b, sq(s.component_of(y)), walks.values())
        _class_extend(ctx, b, y, z)
        walks.on_add(y, z)
        guard += 1
        internal_check(guard <= W + 1, "fill-terminates")

        internal_check(b.ran().isdisjoint(delta), "fill-i")
        for u in others:
            internal_check(walks.consumed(u) == entry[u]
                           and walks.value(u) not in b.dom(), "fill-ii")
        newval = walks.value(x)
        internal_check(walks.consumed(x) > k, "fill-progress")
        if walks.consumed(x) < W:
            radius = B - walks.b_consumed(x)
            internal_check(dom.isdisjoint(window.window(newval, radius)), "fill-iii")
        internal_check(all(newval != walks.value(u) for u in others), "fill-iv")
        for u in others:
            internal_check(_orbit_avoids(b, walks.value(u), phi), "fill-v")
        internal_check(_orbit_avoids(b, newval, phi), "fill-v-x")

    rep = _word_condition(ctx, b, gamma, theta | {x}, phi, delta, w)
    internal_check(rep.holds, "word-condition-exit", str(rep))


def build_covering_word(ctx: AFSigmaContext, q: PartialIso | IsoBuilder, gamma, delta):
    """Base word plus one fill round per target point: the full word condition.

    One builder grows from q through the base word and every fill: q
    itself when it is an ``IsoBuilder``, so a caller can grow it on,
    and a new one otherwise, leaving q unchanged.  One window serves all
    their fresh choices: it fences delta once and widens from the base
    steps' b-counts to b_count(w), so each centre joins it once per
    covering word.  Each check of the word condition runs once: a fill's
    entry check is the check before it.  Returns (h, w, phi), with h the
    builder q when q is one, and the new builder's value otherwise.
    """
    gamma = sorted(set(gamma))
    delta = sorted(set(delta))
    if set(gamma) & set(delta):
        raise HypothesisError("gamma-delta-disjoint")
    b = q if isinstance(q, IsoBuilder) else IsoBuilder(q)
    window = FreshWindow(ctx.f)
    w, phi = build_base_word(ctx, b, gamma, delta, window)
    window.widen(b_count(w))
    done: list[int] = []
    for x in gamma:
        extend_word_domain(ctx, b, gamma, done, phi, delta, w, x, window)
        done.append(x)
    # the last fill's exit check (or, for empty gamma, the base check) is the full condition
    return (b if b is q else b.freeze()), w, phi


def density_witness_nkomega(ctx: AFSigmaContext, q: PartialIso,
                            p: IndexFixingIso) -> WitnessCertificate:
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
    verdict = classify_stabilizing(f)
    if verdict.stabilizing:
        raise HypothesisError("non-stabilizing", verdict.detail)
    sq = check_admissible(ctx, q)
    if not ctx.sigma_set() <= q.dom():
        raise HypothesisError("sigma-in-dom")
    # one builder carries q from the absorb to the closing pairs; every stage grows
    # it in the class, so it is not checked again (see AFSigmaContext)
    h = ctx._own = IsoBuilder(q)
    piso = p.iso
    d_pts = sorted(piso.dom())
    k = sq.order()

    _absorb_into_dom(ctx, h, piso.support())
    _, w1, _ = build_covering_word(ctx, h, d_pts, ())
    vals1 = {x: chase(w1, x, h, f) for x in d_pts}
    internal_check(all(v is not None for v in vals1.values()), "w1-defined")
    for x in d_pts:
        v = vals1[x]
        if v not in h.ran():
            xnew = h.fresh(sq.inverse()(s.component_of(v)), set(vals1.values()))
            _class_extend(ctx, h, xnew, v)
    internal_check({x: chase(w1, x, h, f) for x in d_pts} == vals1, "w1-stable")
    val1set = set(vals1.values())
    internal_check(all(v in h.ran() and v not in h.dom() for v in val1set),
                   "w1-values-boundary")

    # covering word 2 is built for the inverse map, inverted in place and back
    r_pts = sorted(piso.ran())
    h.invert()
    _, w2i, _ = build_covering_word(ctx, h, r_pts, sorted(val1set))
    h.invert()
    w2 = swap_a_sign(w2i)
    vals2 = {y: chase(w2, y, h, f) for y in r_pts}
    internal_check(all(v is not None for v in vals2.values()), "w2-defined")
    val2set = set(vals2.values())
    internal_check(h.dom().isdisjoint(val1set), "w1-values-clear-of-dom")
    internal_check(h.ran().isdisjoint(val2set), "w2-values-clear-of-ran")
    internal_check({x: chase(w1, x, h, f) for x in d_pts} == vals1, "w1-still-stable")

    # redundancy chains: one spare cycle-walk per index orbit
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
            v = h.chase(vals1[x], j)
            internal_check(v is not None and v not in h.dom(), "ladder-free")
            ys.append(v)
        internal_check(len(set(ys)) == len(ys), "ladder-distinct")
        for yv in ys:
            _class_extend(ctx, h, yv, h.fresh(sq(s.component_of(yv)), val2set))

    for x in d_pts:
        Y = h.chase(vals1[x], k - 1)
        Z = vals2[piso.apply(x)]
        internal_check(Y is not None and Y not in h.dom(), "closing-source-free")
        internal_check(Z not in h.ran(), "closing-target-free")
        if h.in_support(Z):
            amalgamate(ctx, h, Y, Z)
        else:
            _class_extend(ctx, h, Y, Z)
    h = h.freeze()
    # the orbit-representative claim, on the finished h: each stage keeps the class,
    # and this asks it of the whole map once
    try:
        check_admissible(ctx, h)
    except HypothesisError as e:
        internal_check(False, "h-admissible", str(e))

    data = {"k": k, "w1": str(w1), "w2": str(w2), "sigma": list(ctx.sigma)}
    return certify(NKOMEGA_CLAIM, f, q, piso, h, data)


def density_witness_n2(ctx: AFSigmaContext, q: PartialIso,
                       p: IndexFixingIso) -> WitnessCertificate:
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
    verdict = classify_stabilizing(f)
    if verdict.stabilizing:
        raise HypothesisError("non-stabilizing", verdict.detail)
    sq = check_admissible(ctx, q)
    internal_check(not sq.is_identity(), "index-transposition")
    if not ctx.sigma_set() <= q.dom():
        raise HypothesisError("sigma-in-dom")
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
        mm = f.escape_power(pts, blocked)
        if mm is None:
            raise HypothesisError("escape-power", "no power of f clears the blocked set")
        return mm

    # stage 1: park the domain side on fixed points of f
    m1 = escape_exp(dp1, h.support())
    for v in dp1:
        _class_extend(ctx, h, f.iterate(v, m1), h.fresh(ell2, piso_support))
    for v in dp2:
        # f fixes ell2 pointwise, and _absorb_into_dom put all of supp(p) into dom(h)
        internal_check(f.iterate(v, m1) in h.dom(), "dp2-in-dom")
    pts2 = [h.apply(f.iterate(v, m1)) for v in dp2]
    m2 = escape_exp(pts2, h.support())
    a_vals = {x: f.iterate(h.apply(f.iterate(x, m1)), m2) for x in dp2}
    a_vals.update({x: h.apply(f.iterate(x, m1)) for x in dp1})  # fixed points
    a_set = set(a_vals.values())
    internal_check(not a_set & h.dom(), "stage1-clear-of-dom")

    # stage 2: the range side, mirrored
    m3 = escape_exp(rp1, h.support() | a_set)
    for v in rp1:
        h.add(h.fresh(ell2, a_set | piso_support), f.iterate(v, m3))
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
    data = {"word": str(reduce_word([syl for syl in raw if syl[1] != 0])),
            "sigma": list(ctx.sigma)}
    return certify(N2_CLAIM, f, q, piso, h, data)
