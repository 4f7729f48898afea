"""Finite partial isomorphism algebra.

A partial isomorphism is a finite injective adjacency-preserving vertex
map, composed left to right: ``(x)(f * g) = ((x)f)g`` on the domain
``{x in dom(f) : (x)f in dom(g)}``.  Values are immutable.  Every
engine grows its maps pair by pair in an ``IsoBuilder`` and freezes it
to a value at stage boundaries; ``extend`` is the one-pair reference
that ``IsoBuilder.add`` is tested against.  On the lazy graphs the
back-and-forth step, a fresh witness adjacent to exactly the image of
N(x), is ``IsoBuilder.add_witness``, shared by the lazy oracle and the
Henson engine.

``chain_lists`` is the one walk over a whole map's chains and cycles:
certificates write maps with it, and ``power``, ``ComponentView``,
``cycle_free``, ``longest_component`` and ``IsoBuilder.chains`` read its
lists.  A value holds only its session and its two maps.  On a component
graph, ``validate``, ``extend`` and ``IsoBuilder.add`` name a rejected
pair's conflict by one rule: the earliest pair of the map, in insertion
order, that it disagrees with on components.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain, pairwise
from typing import Iterable, KeysView

from .errors import GraphError, HypothesisError, IsoError
from .graphs import GraphSession
from .perms import IndexPerm


class _MapReads:
    """Pointwise queries shared by frozen and growing maps over ``_fwd`` / ``_bwd``."""

    _fwd: dict[int, int]
    _bwd: dict[int, int]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._fwd.items()))

    def chain_lists(self) -> list[list[int]]:
        """The map as certificate vertex lists (see ``chain_lists``)."""
        return chain_lists(self._fwd, self._bwd)

    def apply(self, x: int) -> int | None:
        return self._fwd.get(x)

    def unapply(self, y: int) -> int | None:
        return self._bwd.get(y)

    def chase(self, x: int, k: int) -> int | None:
        """(x)f^k with the empty product at k=0; None when undefined.

        At most 2|f| lookups whatever k is: within |f| steps the walk
        either leaves the map or comes back to x, and then |k| is reduced
        mod the length of that cycle.
        """
        v = x
        step = self._fwd if k >= 0 else self._bwd
        n = abs(k)
        for i in range(1, n + 1):
            v = step.get(v)
            if v is None:
                return None
            if v == x:
                for _ in range(n % i):
                    v = step[v]
                return v
        return v

    def __len__(self) -> int:
        return len(self._fwd)

    def extends(self, other: "PartialIso") -> bool:
        return all(self._fwd.get(x) == y for x, y in other._fwd.items())

    def in_support(self, v: int) -> bool:
        return v in self._fwd or v in self._bwd

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

    def components(self) -> "ComponentView":
        return ComponentView.of(self)

    def longest_component(self) -> int:
        """Vertices on the longest chain or cycle (0 for the empty map): a list that
        closes on its first vertex is a cycle, one vertex shorter than the list."""
        return max((len(verts) - (verts[0] == verts[-1]) for verts in self.chain_lists()),
                   default=0)


@dataclass(frozen=True)
class PartialIso(_MapReads):
    session: GraphSession
    _fwd: dict[int, int] = field(repr=False)
    _bwd: dict[int, int] = field(repr=False)

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

    def index_perm(self) -> IndexPerm | None:
        """Total induced index permutation (n K_omega), or None while partial."""
        n = self.session.kind.n
        imap = self.index_map()
        if set(imap) != set(range(1, n + 1)):
            return None
        return IndexPerm(tuple(imap[i] for i in range(1, n + 1)))


def validate(session: GraphSession, pairs: Iterable[tuple[int, int]]) -> PartialIso:
    """Check injectivity and adjacency preservation; raise IsoError otherwise."""
    if session.kind.is_component:
        return _validate_component(session, pairs)
    adj = session._adj
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in pairs:
        nx, ny = adj.get(x), adj.get(y)
        if nx is None or ny is None:
            raise GraphError(f"unknown vertex {x if nx is None else y}")
        prev = fwd.get(x)
        if prev is not None:
            if prev != y:
                raise IsoError("not-injective", [(x, prev), (x, y)], "two images for one point")
            continue
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)], "two preimages for one point")
        # (x, y) keeps adjacency with every earlier pair exactly when the images of
        # N(x) cap dom are N(y) cap ran; only a failure asks which pair breaks
        if {fwd[u] for u in nx if u in fwd} != {v for v in ny if v in bwd}:
            _check_lazy_pair(session, fwd, bwd, x, y)
        fwd[x] = y
        bwd[y] = x
    return PartialIso(session, fwd, bwd)


def _check_lazy_pair(session: GraphSession, fwd: dict[int, int], bwd: dict[int, int],
                     x: int, y: int) -> None:
    """Raise IsoError naming the earliest pair of the lazy-graph map that (x, y) breaks."""
    conflict = session.adjacency_conflict(fwd, bwd, x, y)
    if conflict is not None:
        raise IsoError("adjacency-mismatch", [(x, y), conflict])


def _validate_component(session: GraphSession, pairs) -> PartialIso:
    """Component graphs: adjacency preservation is exactly a well-defined,
    injective induced index map, checkable pair by pair."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    cmap: dict[int, int] = {}  # component key -> the key its pairs go to
    cinv: dict[int, int] = {}  # component key -> the key its pairs come from
    comp = session.component_key()
    for x, y in pairs:
        if x < 0 or y < 0:  # no vertex of a component graph has a negative id
            raise GraphError(f"unknown vertex {x if x < 0 else y}")
        prev = fwd.get(x)
        if prev is not None:
            if prev != y:
                raise IsoError("not-injective", [(x, prev), (x, y)], "two images for one point")
            continue
        if y in bwd:
            raise IsoError("not-injective", [(bwd[y], y), (x, y)], "two preimages for one point")
        cx, cy = comp(x), comp(y)
        if cmap.setdefault(cx, cy) != cy or cinv.setdefault(cy, cx) != cx:
            _raise_component_conflict(session, _component_clash(fwd, comp, x, y), (x, y))
        fwd[x] = y
        bwd[y] = x
    return PartialIso(session, fwd, bwd)


def _component_clash(fwd: dict[int, int], comp, x: int, y: int) -> tuple[int, int]:
    """The earliest pair of fwd, in insertion order, that (x, y) disagrees with on
    components (one side in the same component, the other not), for a rejected
    (x, y): one scan, on the failure path only."""
    cx, cy = comp(x), comp(y)
    return next((x2, y2) for x2, y2 in fwd.items() if (comp(x2) == cx) != (comp(y2) == cy))


def _raise_component_conflict(session, p1, p2):
    """Name the component-graph conflict between two pairs that disagree on adjacency."""
    c1, c2 = session.component_of(p1[0]), session.component_of(p2[0])
    d1, d2 = session.component_of(p1[1]), session.component_of(p2[1])
    if c1 == c2 and d1 != d2:
        raise IsoError("component-split", [p1, p2],
                       f"component {c1} mapped into both {d1} and {d2};"
                       " induced index map ill-defined")
    raise IsoError("component-collision", [p1, p2],
                   f"components {c1} and {c2} both mapped into {d1};"
                   " induced index map not injective")


def chain_lists(fwd: dict[int, int], bwd: dict[int, int]) -> list[list[int]]:
    """A finite partial bijection as vertex lists, the way certificates write maps.

    Each chain is listed head first.  Each cycle is rotated to start at
    its least vertex and closed by repeating that vertex, so a fixed
    point is [x, x].  Lists are sorted by their first vertex, which no
    two lists share, so the lists are determined by the map.  One walk
    per component: linear in the map, plus the sort of the heads.
    """
    out = []
    reached = 0
    for x in fwd:
        if x not in bwd:  # a chain head
            verts = [x]
            v = fwd[x]
            while v is not None:
                verts.append(v)
                v = fwd.get(v)
            reached += len(verts) - 1
            out.append(verts)
    if reached < len(fwd):  # a vertex of dom that no chain reached lies on a cycle
        on_chains = set().union(*out)
        for x in fwd:
            if x in on_chains:
                continue
            verts = [x]
            v = fwd[x]
            while v != x:
                verts.append(v)
                v = fwd[v]
            on_chains.update(verts)
            i = verts.index(min(verts))
            verts = verts[i:] + verts[:i]
            verts.append(verts[0])
            out.append(verts)
    out.sort()
    return out


def chain_pairs(lists, name: str = "map") -> list[tuple[int, int]]:
    """The pairs that ``chain_lists`` vertex lists describe, in time linear in the lists.

    A list that ends on its first vertex is a cycle; any other list is a
    chain.  Raise IsoError when a list has fewer than two vertices, or
    when a vertex appears twice: on two lists, twice on one list, as a
    chain's tail that heads another list, or as a repeat that does not
    close its list.  ``name`` names the map in the message.

    Each list's pairs come from ``itertools.pairwise``, so the one Python
    step per list checks its length and whether it closes: a lazy
    oracle's map is hundreds of lists of two or three vertices.
    """
    pairs = list(chain.from_iterable(map(pairwise, lists)))
    closed = 0
    for verts in lists:
        if len(verts) < 2:
            raise IsoError("short-list", (), f"{name} holds a list of {len(verts)} vertices")
        if verts[0] == verts[-1]:
            closed += 1
    # a list of k vertices gives k - 1 pairs, and each cycle repeats its first
    # vertex once at its end; any other repeat is a fault
    if len(set(chain.from_iterable(lists))) < len(pairs) + len(lists) - closed:
        seen: set[int] = set()
        for verts in lists:
            for v in (verts[:-1] if verts[-1] == verts[0] else verts):
                if v in seen:
                    raise IsoError("repeated-vertex", (), f"vertex {v} appears twice in {name}")
                seen.add(v)
    return pairs


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
                _raise_component_conflict(s, (x, y), (x2, y2))
    else:
        _check_lazy_pair(s, f._fwd, f._bwd, x, y)
    fwd = dict(f._fwd)
    bwd = dict(f._bwd)
    fwd[x] = y
    bwd[y] = x
    return PartialIso(f.session, fwd, bwd)


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


def power(f: PartialIso, k: int) -> PartialIso:
    """f^k; f^0 is the identity on dom(f).

    Linear in |f| whatever k is, read off ``chain_lists``: a vertex moves
    |k| places along its chain, or |k| mod the length of its cycle, each
    list reversed first when k < 0.
    """
    if k == 0:
        return identity_on(f.session, f.dom())
    n = abs(k)
    fwd: dict[int, int] = {}
    for verts in f.chain_lists():
        if k < 0:
            verts.reverse()
        if verts[0] == verts[-1]:  # a cycle, closed by its repeated first vertex
            verts.pop()
            r = n % len(verts)
            fwd.update(zip(verts, verts[r:] + verts[:r]))
        else:
            fwd.update(zip(verts, verts[n:]))
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


@dataclass(frozen=True)
class ComponentView:
    components: tuple[Component, ...]

    @staticmethod
    def of(f: PartialIso | IsoBuilder) -> "ComponentView":
        """One component per ``chain_lists`` list, ordered by least vertex."""
        comps = [Component(tuple(verts[:-1]), True) if verts[0] == verts[-1]
                 else Component(tuple(verts), False) for verts in f.chain_lists()]
        comps.sort(key=lambda c: min(c.vertices))
        return ComponentView(tuple(comps))

    def find(self, v: int) -> Component:
        for c in self.components:
            if v in c.vertices:
                return c
        raise KeyError(v)


def cycle_free(f: PartialIso) -> bool:
    """True iff f has no complete component (so f extends to a map with no finite orbit):
    no ``chain_lists`` list is closed."""
    return all(verts[0] != verts[-1] for verts in f.chain_lists())


def orbit_rep_profile(f: PartialIso, sigma: Iterable[int]) -> dict[int, int]:
    """Per-component count of hits by sigma, keyed by the component's head vertex."""
    sig = set(sigma)
    out = {}
    for c in f.components().components:
        out[c.head] = len(sig & set(c.vertices))
    return out


class IsoBuilder(_MapReads):
    """A partial isomorphism grown in place, one pair at a time.

    Besides the two maps it keeps up to date, at O(1) cost per added pair,
    what the engines ask after every step: the induced component-index
    map ``cmap`` / ``cinv`` with the number of pairs leaving each index
    (so checking a new pair on a component graph costs two lookups),
    chain head and tail links, the number of components, the total index
    permutation once it exists, per component a cursor at the lowest
    position outside the support (it only moves forward, because the
    support only grows), and per chain the number of its vertices in the
    set ``mark`` was given.  What only a rare caller asks is read off the
    map when asked: the longest component from ``chain_lists``, and the
    pair a rejected pair clashes with from one scan of the map.  ``add``
    accepts and rejects exactly the pairs ``extend`` does, with the same
    ``IsoError`` reasons and pairs.

    ``freeze`` returns the value wherever the map must stay fixed: where
    it is returned or certified, and where a later step reads it while
    the builder grows on.  ``dom()`` and ``ran()`` are live views that
    follow later adds.  Growth only adds pairs, and ``invert`` turns the
    map into its inverse in place, so one builder may carry a map through
    several stages.
    """

    def __init__(self, base: PartialIso):
        self.session = base.session
        self._fwd: dict[int, int] = {}
        self._bwd: dict[int, int] = {}
        self._comp = self.session.component_of if self.session.kind.is_component else None
        self.cmap: dict[int, int] = {}
        self.cinv: dict[int, int] = {}
        self.pairs_from: dict[int, int] = {}  # component index -> pairs leaving it
        self._head_of: dict[int, int] = {}    # chain tail -> chain head
        self._tail_of: dict[int, int] = {}    # chain head -> chain tail
        self.marked: frozenset[int] = frozenset()
        self._marks: dict[int, int] | None = None  # chain head -> its vertices in marked
        self.count = 0
        self.arrivals: list[int] = []         # support vertices in the order they joined
        self._cursor: dict[int, int] = {}
        self._perm: IndexPerm | None = None
        self._inversions = 0
        comp = self._comp
        if comp is None:
            for x, y in base._fwd.items():
                self._record(x, y)
        else:
            for x, y in base._fwd.items():
                self._record(x, y, comp(x), comp(y))

    # -- queries ---------------------------------------------------------------

    def dom(self) -> KeysView[int]:
        return self._fwd.keys()

    def ran(self) -> KeysView[int]:
        return self._bwd.keys()

    def support(self) -> set[int]:
        return set(self._fwd) | set(self._bwd)

    @property
    def version(self) -> tuple[int, int]:
        """Names the map the builder holds among all it has held: growth only adds
        pairs, so the size names the map between inversions."""
        return len(self._fwd), self._inversions

    def cycle_free(self) -> bool:
        """True iff no component is a cycle (a fixed point is a cycle of one)."""
        return len(self._tail_of) == self.count

    def mark(self, marked: frozenset[int]) -> None:
        """Count the vertices of ``marked`` on every chain; later adds keep the counts."""
        self.marked = marked
        self._marks = {chain[0]: sum(v in marked for v in chain) for chain in self.chains()}

    def chain_marks(self, v: int) -> int | None:
        """Marked vertices on v's component, in O(1) when v is outside the support
        (v alone) or a chain's head or tail; None for v inside a chain or on a cycle."""
        in_dom, in_ran = v in self._fwd, v in self._bwd
        if in_dom and in_ran:
            return None
        if self._marks is None:  # nothing marked yet
            return 0
        if in_dom:
            return self._marks[v]
        if in_ran:
            return self._marks[self._head_of[v]]
        return int(v in self.marked)

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

    def chains(self) -> list[list[int]]:
        """Vertices of every incomplete component, head first: the open ``chain_lists``."""
        return [verts for verts in self.chain_lists() if verts[0] != verts[-1]]

    def freeze(self) -> PartialIso:
        return PartialIso(self.session, dict(self._fwd), dict(self._bwd))

    def invert(self) -> None:
        """Turn the map into its inverse in place, in O(components).

        Afterwards the builder reads exactly as ``IsoBuilder`` re-recorded
        from the inverse map: the same ``_fwd`` order, structure and
        clashes, and no marks.  Only ``arrivals`` keeps the order in which
        the support joined.
        """
        self._fwd, self._bwd = self._bwd, self._fwd
        # every pair leaving index cx enters cmap[cx], and no other pair does
        self.pairs_from = {cy: self.pairs_from[cx] for cx, cy in self.cmap.items()}
        self.cmap, self.cinv = self.cinv, self.cmap
        # each chain now runs from its old tail to its old head
        self._head_of, self._tail_of = self._tail_of, self._head_of
        self.marked, self._marks = frozenset(), None
        if self._perm is not None:
            self._perm = self._perm.inverse()
        self._inversions += 1

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
        comp = self._comp
        if comp is not None:
            cx, cy = comp(x), comp(y)
            if self.cmap.get(cx, cy) != cy or self.cinv.get(cy, cx) != cx:
                _raise_component_conflict(s, (x, y), _component_clash(fwd, comp, x, y))
            self._record(x, y, cx, cy)
        else:
            _check_lazy_pair(s, fwd, bwd, x, y)
            self._record(x, y)

    def add_witness(self, v: int, forward: bool = True, extra: Iterable[int] = ()) -> int:
        """Extend the map at v by a fresh witness w and return w; lazy graphs only.

        Forward, w is adjacent to exactly (N(v) cap dom) mapped forward plus
        ``extra``, and (v, w) is added; backward, to (N(v) cap ran) mapped
        back plus ``extra``, and (w, v) is added.  The mapped neighbourhood
        is read once, for the witness and for the pair check, which asks
        that N(w) meet ran (dom) in exactly that set.  Only a pair the
        check refuses goes through ``add``: a v already mapped, or an
        ``extra`` vertex of ran (dom) outside that set, raises the
        ``IsoError`` that ``add`` raises, once w exists.
        """
        s = self.session
        src, dst = (self._fwd, self._bwd) if forward else (self._bwd, self._fwd)
        mapped = s.mapped_neighbours(v, src)
        w = s.alice_witness(mapped.union(extra) if extra else mapped)
        x, y = (v, w) if forward else (w, v)
        if v in src or (s._adj[w] & dst.keys()) != mapped:
            self.add(x, y)
        else:
            self._record(x, y)
        return w

    def add_pairs(self, cx: int, cy: int, pairs: Iterable[tuple[int, int]]) -> None:
        """Add pairs from component cx to component cy, no x and no y twice, as ``add``
        would one by one, checking the component pair once.

        Only a present pair or a clash goes pair by pair through ``add``,
        which skips the one and names the other.
        """
        pairs = list(pairs)
        fwd, bwd = self._fwd, self._bwd
        if (self.cmap.get(cx, cy) != cy or self.cinv.get(cy, cx) != cx
                or any(x in fwd or y in bwd for x, y in pairs)):
            for x, y in pairs:
                self.add(x, y)
            return
        for x, y in pairs:
            self._record(x, y, cx, cy)

    def _record(self, x: int, y: int, cx: int | None = None, cy: int | None = None) -> None:
        """Record (x, y); on a component graph cx and cy are the components of x and y."""
        fwd, bwd = self._fwd, self._bwd
        x_ends_chain = x in bwd
        y_heads_chain = y in fwd
        if not x_ends_chain:
            self.arrivals.append(x)
        if not y_heads_chain and y != x:
            self.arrivals.append(y)
        head_of, tail_of = self._head_of, self._tail_of
        marked, marks = self.marked, self._marks  # marks is None until mark() is called
        if x == y:
            self.count += 1
        elif x_ends_chain and y_heads_chain:
            head = head_of.pop(x)
            tail = tail_of.pop(y)
            hits = marks.pop(y) if marks is not None else 0
            if head != y:  # two chains join; otherwise the chain closes into a cycle
                if marks is not None:
                    marks[head] += hits
                tail_of[head] = tail
                head_of[tail] = head
                self.count -= 1
        elif x_ends_chain:
            head = head_of.pop(x)
            tail_of[head] = y
            head_of[y] = head
            if marks is not None:
                marks[head] += y in marked
        elif y_heads_chain:
            tail = tail_of.pop(y)
            tail_of[x] = tail
            head_of[tail] = x
            if marks is not None:
                marks[x] = marks.pop(y) + (x in marked)
        else:
            tail_of[x] = y
            head_of[y] = x
            if marks is not None:
                marks[x] = (x in marked) + (y in marked)
            self.count += 1
        if cx is not None:
            self.pairs_from[cx] = self.pairs_from.get(cx, 0) + 1
            self.cmap.setdefault(cx, cy)
            self.cinv.setdefault(cy, cx)
        fwd[x] = y
        bwd[y] = x


def _clear(lists: list[list[int]], s: int, step: int, radius: int) -> int:
    """Fewest steps k >= 0 such that s + k * step, on an infinite orbit, lies farther
    than radius from every coordinate in the sorted lists.

    Each pass jumps past the farthest coordinate, in the direction of
    travel, whose reach covers the current point.
    """
    k = 0
    while True:
        t = s + k * step
        lo, hi = t - radius, t + radius
        hit = None
        for pts in lists:
            i = bisect_left(pts, lo)
            if i < len(pts) and pts[i] <= hi:
                h = pts[bisect_right(pts, hi) - 1] if step > 0 else pts[i]
                if hit is None or (h > hit if step > 0 else h < hit):
                    hit = h
        if hit is None:
            return k
        if step > 0:
            k = (hit + radius - s) // step + 1
        else:
            k = (s - hit + radius) // -step + 1


class FreshWindow:
    """Lowest vertices outside the radius-B f-window of a growing map's support, for a
    band-free f.

    A vertex v lies in the window {(u)f^i : u in S, |i| <= B} exactly when
    v and some u in S share an f-orbit at distance at most B along it.
    Without a band, f has two kinds of orbit (see ``NKOracle``): a
    fixed-tail vertex is its own orbit, in the window exactly when it is a
    centre, and a tail line is one infinite orbit, on which f gives the
    distance in closed form through ``orbit_coord`` and ``tail_line``.  So
    each centre (a support vertex, or a vertex ``fence`` adds) is kept as
    its coordinate in a sorted list per orbit: testing a candidate costs
    no oracle step, and ``widen`` only sets the radius.  The support, the
    fence and the radius only grow, so the covered set only grows and the
    per-component cursors only move forward.  One window may serve a
    sequence of builders whose maps extend one another.

    A band is itself a finite f-stabilized set, so no n K_omega build
    reaches a window with one: both witnesses refuse a stabilizing f.
    """

    def __init__(self, f):
        if f.band_rows:
            raise HypothesisError("no-band", "fresh windows serve band-free f only")
        self.f = f
        self.radius = 0
        self._centers: set[int] = set()
        self._orbits: dict[int, list[int]] = {}  # orbit key -> sorted centre coordinates
        self._builder: IsoBuilder | None = None
        self._seen = 0
        # component -> lowest uncovered fixed-tail position, and steps taken along
        # its two tail rays
        self._cursor: dict[int, int] = {}
        self._rays: dict[int, list[int]] = {}

    def window(self, v: int, radius: int | None = None) -> list[int]:
        """(v)f^i for |i| <= radius (the window's own by default), in the order
        v, (v)f, (v)f^-1, (v)f^2, ..."""
        key, s, _ = self.f.orbit_coord(v)
        at = self.f.vertex_at
        out = [v]
        for i in range(1, (self.radius if radius is None else radius) + 1):
            out += (at(key, s + i), at(key, s - i))
        return out

    def widen(self, radius: int) -> None:
        """Grow the radius to ``radius``."""
        if radius < self.radius:
            raise GraphError(f"a window only widens: radius {radius} < {self.radius}")
        self.radius = radius

    def fence(self, vertices: Iterable[int]) -> None:
        """Make ``vertices`` centres, whose windows later ``fresh`` calls avoid."""
        centers, orbits, coord = self._centers, self._orbits, self.f.orbit_coord
        for v in vertices:
            if v not in centers:
                centers.add(v)
                key, s, _ = coord(v)
                insort(orbits.setdefault(key, []), s)

    def fresh(self, b: IsoBuilder, comp: int, near: Iterable[int] = ()) -> int:
        """Lowest-position vertex of the component outside the window of b's support,
        the fence and ``near``."""
        if b is not self._builder:
            self._builder, self._seen = b, 0
        self.fence(b.arrivals[self._seen:])
        self._seen = len(b.arrivals)
        f, vertex = self.f, b.session.vertex
        line = f.tail_line(comp)
        if line is None:  # a fixed tail: each vertex its own orbit
            centers, near = self._centers, set(near)
            p = self._cursor.get(comp, 0)
            while vertex(comp, p) in centers:
                p += 1
            self._cursor[comp] = p
            while vertex(comp, p) in centers or vertex(comp, p) in near:
                p += 1
            return vertex(comp, p)
        # the tail is one infinite orbit, on which position u sits at unzigzag(u) * L + i:
        # even u (z = 0, 1, ...) and odd u (z = -1, -2, ...) are two rays along it, each
        # with a cursor past the centres' windows
        key, length, i = line
        radius = self.radius
        centres = [self._orbits[key]] if key in self._orbits else []
        near_pts = sorted(s for k, s, _ in map(f.orbit_coord, near) if k == key)
        rays = self._rays.setdefault(comp, [0, 0])
        up = rays[0] = rays[0] + _clear(centres, i + rays[0] * length, length, radius)
        down = rays[1] = rays[1] + _clear(centres, i - (rays[1] + 1) * length, -length, radius)
        if near_pts:
            both = centres + [near_pts]
            up += _clear(both, i + up * length, length, radius)
            down += _clear(both, i - (down + 1) * length, -length, radius)
        return vertex(comp, min(2 * up, 2 * down + 1))
