"""Finite partial isomorphism algebra.

A partial isomorphism is a finite injective adjacency-preserving vertex
map, composed left to right: ``(x)(f * g) = ((x)f)g`` on the domain
``{x in dom(f) : (x)f in dom(g)}``.  Values are immutable; every
extension returns a new value so construction chains keep all their
intermediate stages.  Engines that grow one map pair by pair use an
``IsoBuilder`` instead and freeze it to a value at stage boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, KeysView

from .errors import IsoError
from .graphs import GraphSession
from .perms import IndexPerm


class _MapReads:
    """Pointwise queries shared by frozen and growing maps over ``_fwd`` / ``_bwd``."""

    _fwd: dict[int, int]
    _bwd: dict[int, int]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._fwd.items()))

    def apply(self, x: int) -> int | None:
        return self._fwd.get(x)

    def unapply(self, y: int) -> int | None:
        return self._bwd.get(y)

    def chase(self, x: int, k: int) -> int | None:
        """(x)f^k with the empty product at k=0; None when undefined."""
        v = x
        step = self._fwd if k >= 0 else self._bwd
        for _ in range(abs(k)):
            v = step.get(v)
            if v is None:
                return None
        return v

    def __len__(self) -> int:
        return len(self._fwd)

    def extends(self, other: "PartialIso") -> bool:
        return all(self._fwd.get(x) == y for x, y in other._fwd.items())

    def components(self) -> "ComponentView":
        return ComponentView.of(self)

    def longest_component(self) -> int:
        """Vertices on the longest chain or cycle (0 for the empty map)."""
        return max((len(c) for c in self.components().components), default=0)


@dataclass(frozen=True)
class PartialIso(_MapReads):
    session: GraphSession
    _fwd: dict[int, int] = field(repr=False)
    _bwd: dict[int, int] = field(repr=False)
    # structure already known when a builder froze this value
    _longest: int | None = field(default=None, repr=False, compare=False)
    _index_perm: IndexPerm | None = field(default=None, repr=False, compare=False)
    _components: "ComponentView | None" = field(default=None, repr=False, compare=False)

    # -- queries ---------------------------------------------------------------

    def dom(self) -> set[int]:
        return set(self._fwd)

    def ran(self) -> set[int]:
        return set(self._bwd)

    def support(self) -> set[int]:
        return set(self._fwd) | set(self._bwd)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialIso) and self._fwd == other._fwd

    def __hash__(self):
        return hash(self.pairs())

    def __repr__(self) -> str:
        return f"PartialIso({dict(sorted(self._fwd.items()))})"

    # -- structure ---------------------------------------------------------------

    def components(self) -> "ComponentView":
        if self._components is None:  # a value never changes, so compute once
            object.__setattr__(self, "_components", ComponentView.of(self))
        return self._components

    def longest_component(self) -> int:
        if self._longest is None:
            return super().longest_component()
        return self._longest

    def index_map(self) -> dict[int, int]:
        """Induced partial map on graph-component indices (component families).

        Well defined and injective for every valid partial isomorphism,
        because adjacency inside components is complete.
        """
        s = self.session
        out: dict[int, int] = {}
        for x, y in self._fwd.items():
            out[s.component_of(x)] = s.component_of(y)
        return out


def validate(session: GraphSession, pairs: Iterable[tuple[int, int]]) -> PartialIso:
    """Check injectivity and adjacency preservation; raise IsoError otherwise."""
    if session.kind.is_component:
        return _validate_component(session, pairs)
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    for x, y in pairs:
        session._require((x, y))
        prev = fwd.get(x)
        if prev is not None:
            if prev != y:
                raise IsoError("not-injective", [(x, prev), (x, y)], "two images for one point")
            continue
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)], "two preimages for one point")
        for x2, y2 in items:
            if session.adjacent(x, x2) != session.adjacent(y, y2):
                _raise_adjacency(session, (x, y), (x2, y2))
        fwd[x] = y
        bwd[y] = x
        items.append((x, y))
    return PartialIso(session, fwd, bwd)


def _validate_component(session: GraphSession, pairs) -> PartialIso:
    """Component graphs: adjacency preservation is exactly a well-defined,
    injective induced index map, checkable pair by pair."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    cmap: dict[int, tuple[int, tuple[int, int]]] = {}
    cinv: dict[int, tuple[int, tuple[int, int]]] = {}
    comp = session.component_of
    for x, y in pairs:
        prev = fwd.get(x)
        if prev is not None:
            if prev != y:
                raise IsoError("not-injective", [(x, prev), (x, y)], "two images for one point")
            continue
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)], "two preimages for one point")
        cx, cy = comp(x), comp(y)
        seen = cmap.get(cx)
        if seen is not None and seen[0] != cy:
            raise IsoError("component-split", [seen[1], (x, y)],
                           f"component {cx} mapped into both {seen[0]} and {cy};"
                           " induced index map ill-defined")
        hit = cinv.get(cy)
        if hit is not None and hit[0] != cx:
            raise IsoError("component-collision", [hit[1], (x, y)],
                           f"components {hit[0]} and {cx} both mapped into {cy};"
                           " induced index map not injective")
        cmap[cx] = (cy, (x, y))
        cinv[cy] = (cx, (x, y))
        fwd[x] = y
        bwd[y] = x
    return PartialIso(session, fwd, bwd)


def _raise_adjacency(session, p1, p2):
    if session.kind.is_component:
        c1, c2 = session.component_of(p1[0]), session.component_of(p2[0])
        d1, d2 = session.component_of(p1[1]), session.component_of(p2[1])
        if c1 == c2 and d1 != d2:
            raise IsoError("component-split", [p1, p2],
                           f"component {c1} mapped into both {d1} and {d2};"
                           " induced index map ill-defined")
        if c1 != c2 and d1 == d2:
            raise IsoError("component-collision", [p1, p2],
                           f"components {c1} and {c2} both mapped into {d1};"
                           " induced index map not injective")
    raise IsoError("adjacency-mismatch", [p1, p2])


def empty(session: GraphSession) -> PartialIso:
    return PartialIso(session, {}, {})


def from_pairs(session: GraphSession, pairs: Iterable[tuple[int, int]]) -> PartialIso:
    return validate(session, pairs)


def identity_on(session: GraphSession, S: Iterable[int]) -> PartialIso:
    return PartialIso(session, {v: v for v in S}, {v: v for v in S})


def extend(f: PartialIso, x: int, y: int) -> PartialIso:
    """f u {(x, y)}, checking only the new pair (f is already valid)."""
    if f.apply(x) is not None:
        if f.apply(x) == y:
            return f
        raise IsoError("not-injective", [(x, f.apply(x)), (x, y)])
    if f.unapply(y) is not None:
        raise IsoError("not-injective", [(f.unapply(y), y), (x, y)])
    s = f.session
    if s.kind.is_component:
        comp = s.component_of
        cx, cy = comp(x), comp(y)
        for x2, y2 in f._fwd.items():
            if (comp(x2) == cx) != (comp(y2) == cy):
                _raise_adjacency(s, (x, y), (x2, y2))
    else:
        s._require((x, y))
        for x2, y2 in f._fwd.items():
            if s.adjacent(x, x2) != s.adjacent(y, y2):
                _raise_adjacency(s, (x, y), (x2, y2))
    fwd = dict(f._fwd)
    bwd = dict(f._bwd)
    fwd[x] = y
    bwd[y] = x
    return PartialIso(f.session, fwd, bwd)


def union_extend(f: PartialIso, pairs: Iterable[tuple[int, int]]) -> PartialIso:
    """Validated union; the first conflicting pair is named in the rejection."""
    g = f
    for x, y in pairs:
        g = extend(g, x, y)
    return g


def compose(f: PartialIso, g: PartialIso, *rest: PartialIso) -> PartialIso:
    """Apply f first, then g: domain {x in dom(f) : (x)f in dom(g)}."""
    if f.session is not g.session:
        raise IsoError("session-mismatch", [], "operands belong to different sessions")
    fwd = {}
    for x, y in f._fwd.items():
        z = g.apply(y)
        if z is not None:
            fwd[x] = z
    out = PartialIso(f.session, fwd, {z: x for x, z in fwd.items()})
    for r in rest:
        out = compose(out, r)
    return out


def invert(f: PartialIso) -> PartialIso:
    return PartialIso(f.session, dict(f._bwd), dict(f._fwd), f._longest)


def power(f: PartialIso, k: int) -> PartialIso:
    """f^k by iterated composition; f^0 is the identity on dom(f)."""
    if k == 0:
        return identity_on(f.session, f.dom())
    step = f._fwd if k > 0 else f._bwd
    fwd = {}
    for x in (f._fwd if k > 0 else f._bwd):
        v = x
        for _ in range(abs(k)):
            v = step.get(v)
            if v is None:
                break
        if v is not None:
            fwd[x] = v
    return PartialIso(f.session, fwd, {y: x for x, y in fwd.items()})


@dataclass(frozen=True)
class Component:
    """One forward-orbit block of a partial bijection.

    ``vertices`` follow the map order; a complete component is a cycle
    (the last vertex maps back to the first), an incomplete one is a
    chain whose head is outside ran and tail outside dom.  Length is
    counted in vertices.
    """

    vertices: tuple[int, ...]
    complete: bool

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def head(self) -> int:
        return self.vertices[0]

    @property
    def tail(self) -> int:
        return self.vertices[-1]


@dataclass(frozen=True)
class ComponentView:
    components: tuple[Component, ...]

    @staticmethod
    def of(f: PartialIso) -> "ComponentView":
        seen: set[int] = set()
        comps: list[Component] = []
        for v in sorted(f.support()):
            if v in seen:
                continue
            start = v
            complete = False
            while True:
                prev = f.unapply(start)
                if prev is None:
                    break
                if prev == v:
                    complete = True  # walked a full cycle
                    start = v
                    break
                start = prev
            chain = [start]
            cur = start
            while True:
                nxt = f.apply(cur)
                if nxt is None or nxt == start:
                    break
                chain.append(nxt)
                cur = nxt
            seen.update(chain)
            comps.append(Component(tuple(chain), complete))
        return ComponentView(tuple(comps))

    def find(self, v: int) -> Component:
        for c in self.components:
            if v in c.vertices:
                return c
        raise KeyError(v)

    def complete_components(self) -> list[Component]:
        return [c for c in self.components if c.complete]

    def incomplete_components(self) -> list[Component]:
        return [c for c in self.components if not c.complete]


def cycle_free(f: PartialIso) -> bool:
    """True iff f has no complete component (so f extends to a map with no finite orbit)."""
    return not f.components().complete_components()


def orbit_rep_profile(f: PartialIso, sigma: Iterable[int]) -> dict[int, int]:
    """Per-component count of hits by sigma, keyed by the component's head vertex."""
    sig = set(sigma)
    out = {}
    for c in f.components().components:
        out[c.head] = len(sig & set(c.vertices))
    return out


def index_perm_of(f: PartialIso, n: int) -> IndexPerm | None:
    """Total induced index permutation for an n K_omega map, or None if partial."""
    if f._index_perm is not None and f._index_perm.n == n:
        return f._index_perm
    imap = f.index_map()
    if set(imap) != set(range(1, n + 1)):
        return None
    return IndexPerm(tuple(imap[i] for i in range(1, n + 1)))


class IsoBuilder(_MapReads):
    """A partial isomorphism grown in place, one pair at a time.

    Besides the two maps it keeps up to date, at O(1) cost per added pair,
    what the engines ask after every step: the induced component-index
    map ``cmap`` / ``cinv`` with the number of pairs leaving each index
    (so checking a new pair on a component graph costs two lookups),
    chain head and tail links with chain lengths, the longest component,
    the number of components, the total index permutation once it
    exists, and per component a cursor at the lowest position outside
    the support (it only moves forward, because the support only grows).
    ``add`` accepts and rejects exactly the pairs ``extend`` does, with
    the same ``IsoError`` reasons.

    ``freeze`` returns the value at a stage boundary, where the map is
    returned, certified or checked; a builder belongs to one stage.
    ``dom()`` and ``ran()`` are live views that follow later adds.
    """

    def __init__(self, base: PartialIso):
        self.session = base.session
        self._fwd: dict[int, int] = {}
        self._bwd: dict[int, int] = {}
        self._comp = self.session.component_of if self.session.kind.is_component else None
        self.cmap: dict[int, int] = {}
        self.cinv: dict[int, int] = {}
        self.pairs_from: dict[int, int] = {}  # component index -> pairs leaving it
        # the earliest pair leaving / entering each component index, as (order, x, y)
        self._first_from: dict[int, tuple[int, int, int]] = {}
        self._first_into: dict[int, tuple[int, int, int]] = {}
        self._head_of: dict[int, int] = {}    # chain tail -> chain head
        self._tail_of: dict[int, int] = {}    # chain head -> chain tail
        self._chain_len: dict[int, int] = {}  # chain head -> vertices on the chain
        self._longest = 0
        self.count = 0
        self.arrivals: list[int] = []         # support vertices in the order they joined
        self._cursor: dict[int, int] = {}
        self._perm: IndexPerm | None = None
        for x, y in base._fwd.items():
            self._record(x, y)

    # -- queries ---------------------------------------------------------------

    def dom(self) -> KeysView[int]:
        return self._fwd.keys()

    def ran(self) -> KeysView[int]:
        return self._bwd.keys()

    def support(self) -> set[int]:
        return set(self._fwd) | set(self._bwd)

    def in_support(self, v: int) -> bool:
        return v in self._fwd or v in self._bwd

    def longest_component(self) -> int:
        return self._longest

    def index_perm(self) -> IndexPerm | None:
        """Total induced index permutation (n K_omega), or None while partial."""
        if self._perm is None:
            n = self.session.kind.n
            if len(self.cmap) == n:
                self._perm = IndexPerm(tuple(self.cmap[i] for i in range(1, n + 1)))
        return self._perm

    def fresh(self, comp: int, avoid: set[int] | frozenset[int] = frozenset()) -> int:
        """Lowest-position vertex of the component outside the support and ``avoid``."""
        vertex = self.session.vertex
        fwd, bwd = self._fwd, self._bwd
        p = self._cursor.get(comp, 0)
        v = vertex(comp, p)
        while v in fwd or v in bwd:
            p += 1
            v = vertex(comp, p)
        self._cursor[comp] = p
        while v in avoid or v in fwd or v in bwd:
            p += 1
            v = vertex(comp, p)
        return v

    def component(self, v: int) -> "Component":
        """The chain or cycle through v, as ``ComponentView.find`` gives it."""
        if not self.in_support(v):
            raise KeyError(v)
        start, complete = v, False
        while (prev := self._bwd.get(start)) is not None:
            if prev == v:
                complete = True
                break
            start = prev
        verts = [start]
        nxt = self._fwd.get(start)
        while nxt is not None and nxt != start:
            verts.append(nxt)
            nxt = self._fwd.get(nxt)
        if complete:
            i = verts.index(min(verts))
            verts = verts[i:] + verts[:i]
        return Component(tuple(verts), complete)

    def chains(self) -> list[tuple[int, ...]]:
        """Vertices of every incomplete component, head first."""
        out = []
        for head, tail in self._tail_of.items():
            verts = [head]
            while verts[-1] != tail:
                verts.append(self._fwd[verts[-1]])
            out.append(tuple(verts))
        return out

    def freeze(self) -> PartialIso:
        return PartialIso(self.session, dict(self._fwd), dict(self._bwd),
                          self._longest, self._perm)

    # -- growth ------------------------------------------------------------------

    def add(self, x: int, y: int) -> None:
        """Add (x, y), checking only the new pair; adding a present pair does nothing."""
        fwd, bwd = self._fwd, self._bwd
        prev = fwd.get(x)
        if prev is not None:
            if prev == y:
                return
            raise IsoError("not-injective", [(x, prev), (x, y)])
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)])
        s = self.session
        if self._comp is not None:
            # extend names the earliest pair in conflict: the first one leaving
            # x's component for another, or entering y's from another
            cx, cy = self._comp(x), self._comp(y)
            clash = []
            if self.cmap.get(cx, cy) != cy:
                clash.append(self._first_from[cx])
            if self.cinv.get(cy, cx) != cx:
                clash.append(self._first_into[cy])
            if clash:
                _, x2, y2 = min(clash)
                _raise_adjacency(s, (x, y), (x2, y2))
        else:
            s._require((x, y))
            for x2, y2 in fwd.items():
                if s.adjacent(x, x2) != s.adjacent(y, y2):
                    _raise_adjacency(s, (x, y), (x2, y2))
        self._record(x, y)

    def _record(self, x: int, y: int) -> None:
        fwd, bwd = self._fwd, self._bwd
        x_ends_chain = x in bwd
        y_heads_chain = y in fwd
        if not x_ends_chain:
            self.arrivals.append(x)
        if not y_heads_chain and y != x:
            self.arrivals.append(y)
        head_of, tail_of, chain_len = self._head_of, self._tail_of, self._chain_len
        if x == y:
            size = 1
            self.count += 1
        elif x_ends_chain and y_heads_chain:
            head = head_of.pop(x)
            tail = tail_of.pop(y)
            size = chain_len.pop(y)
            if head != y:  # two chains join; otherwise the chain closes into a cycle
                size += chain_len[head]
                chain_len[head] = size
                tail_of[head] = tail
                head_of[tail] = head
                self.count -= 1
        elif x_ends_chain:
            head = head_of.pop(x)
            tail_of[head] = y
            head_of[y] = head
            size = chain_len[head] = chain_len[head] + 1
        elif y_heads_chain:
            tail = tail_of.pop(y)
            tail_of[x] = tail
            head_of[tail] = x
            size = chain_len[x] = chain_len.pop(y) + 1
        else:
            tail_of[x] = y
            head_of[y] = x
            size = chain_len[x] = 2
            self.count += 1
        if size > self._longest:
            self._longest = size
        if self._comp is not None:
            cx, cy = self._comp(x), self._comp(y)
            self.pairs_from[cx] = self.pairs_from.get(cx, 0) + 1
            if cx not in self.cmap:
                self.cmap[cx] = cy
                self._first_from[cx] = (len(fwd), x, y)
            if cy not in self.cinv:
                self.cinv[cy] = cx
                self._first_into[cy] = (len(fwd), x, y)
        fwd[x] = y
        bwd[y] = x


class FreshWindow:
    """Lowest vertices outside the radius-B f-window of a growing map's support.

    A vertex v lies in the window {(u)f^i : u in S, |i| <= B} exactly when
    (v)f^i is in S for some |i| <= B, because f is a bijection.  The
    window of each support vertex is marked once, when the vertex joins
    the support, so rejecting a candidate costs one set lookup, not 2B
    oracle steps; a per-component cursor skips the marked prefix.  One
    window may serve a sequence of builders whose maps extend one another.
    """

    def __init__(self, f, radius: int):
        self.f = f
        self.radius = radius
        self.marked: set[int] = set()
        self._centers: set[int] = set()
        self._builder: IsoBuilder | None = None
        self._seen = 0
        self._cursor: dict[int, int] = {}
        self._windows: dict[int, list[int]] = {}

    def window(self, v: int) -> list[int]:
        """(v)f^i for |i| <= radius."""
        out = self._windows.get(v)
        if out is None:
            out = [v]
            fw = bw = v
            for _ in range(self.radius):
                fw = self.f.image(fw)
                bw = self.f.preimage(bw)
                out += (fw, bw)
            self._windows[v] = out
        return out

    def fresh(self, b: IsoBuilder, comp: int, near: Iterable[int] = ()) -> int:
        """Lowest-position vertex of the component outside the window of b's support and ``near``."""
        if b is not self._builder:
            self._builder, self._seen = b, 0
        marked, centers = self.marked, self._centers
        for v in b.arrivals[self._seen:]:
            if v not in centers:
                centers.add(v)
                marked.update(self.window(v))
        self._seen = len(b.arrivals)
        blocked = set()
        for v in near:
            blocked.update(self.window(v))
        vertex = b.session.vertex
        p = self._cursor.get(comp, 0)
        while vertex(comp, p) in marked:
            p += 1
        self._cursor[comp] = p
        v = vertex(comp, p)
        while v in marked or v in blocked:
            p += 1
            v = vertex(comp, p)
        return v
