"""Lazily realized countable ultrahomogeneous graphs.

Four families are supported: the random graph, the universal K_n-free
graphs (n >= 3), countably many disjoint copies of K_n, and n disjoint
copies of the countably infinite complete graph.  A session is the sole
source of adjacency truth.  For the first two families vertices are
created on demand by extension-property witnesses; the component
families have closed-form adjacency and need no growth.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import GraphError

RANDOM = "random"
HENSON = "henson_free"
OMEGA_KN = "omega_kn"
NK_OMEGA = "nk_omega"


@dataclass(frozen=True)
class GraphKind:
    """One of the four countable ultrahomogeneous graph families."""

    tag: str
    n: int | None = None

    @staticmethod
    def random() -> "GraphKind":
        return GraphKind(RANDOM)

    @staticmethod
    def henson(n: int) -> "GraphKind":
        if n < 3:
            raise GraphError(f"K_n-free family needs n >= 3, got {n}")
        return GraphKind(HENSON, n)

    @staticmethod
    def omega_kn(n: int) -> "GraphKind":
        if n < 1:
            raise GraphError(f"omega K_n needs n >= 1, got {n}")
        return GraphKind(OMEGA_KN, n)

    @staticmethod
    def nk_omega(n: int) -> "GraphKind":
        if n < 2:
            raise GraphError(f"n K_omega needs n >= 2, got {n}")
        return GraphKind(NK_OMEGA, n)

    @property
    def is_lazy(self) -> bool:
        return self.tag in (RANDOM, HENSON)

    @property
    def is_component(self) -> bool:
        return self.tag in (OMEGA_KN, NK_OMEGA)

    def to_dict(self) -> dict:
        return {"tag": self.tag, "n": self.n}

    @staticmethod
    def from_dict(d: dict) -> "GraphKind":
        tag, n = d.get("tag"), d.get("n")
        if tag == RANDOM:
            return GraphKind.random()
        make = {HENSON: GraphKind.henson, OMEGA_KN: GraphKind.omega_kn,
                NK_OMEGA: GraphKind.nk_omega}.get(tag)
        if make is None:
            raise GraphError(f"unknown graph family tag {tag!r}")
        if type(n) is not int:
            raise GraphError(f"graph family {tag} needs an integer n, got {n!r}")
        return make(n)


def _zigzag(c: int) -> int:
    """Signed integer -> natural number, bijectively."""
    return 2 * c if c >= 0 else -2 * c - 1


def _unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


class FreshComponents:
    """Lowest component indices, in zig-zag order on Z, outside a set that only grows.

    ``taken`` may only grow, so every index below the cursor stays taken
    and no call scans from 0 again: n calls over a set of size t cost
    O(n + t) set lookups together.
    """

    def __init__(self, taken: Iterable[int] = ()):
        self.taken = set(taken)
        self._u = 0

    def take(self) -> int:
        """The lowest index outside ``taken``; it joins ``taken``."""
        taken, u = self.taken, self._u
        while _unzigzag(u) in taken:
            u += 1
        self._u = u + 1
        c = _unzigzag(u)
        taken.add(c)
        return c


class GraphSession:
    """A finite, monotonically growing realization of one graph.

    Random / K_n-free: vertices carry rising ids in creation order (0, 1, 2,
    ... unless a replayed transcript skips some) and
    a new vertex's adjacencies to all earlier vertices are fixed at
    creation (edges exactly to the requested U set), so replaying a
    transcript reproduces ids and adjacency answers bit for bit.

    Component families: vertex ids encode (component, position) through a
    pairing function and adjacency is computed from the encoding; there
    is nothing to grow.

    On lazy graphs every adjacency question reads the neighbour sets in
    ``_adj``: a pair test is one set lookup and a neighbourhood inside S
    is one set intersection.
    """

    def __init__(self, kind: GraphKind):
        self.kind = kind
        self._lazy = kind.is_lazy
        # the clique size no witness set U may hold: K_{n-1} on the K_n-free family
        self._forbidden_clique = kind.n - 1 if kind.tag == HENSON else 0
        self._adj: dict[int, set[int]] = {}
        self._next = 0  # the id the next witness takes: past every vertex made
        self._transcript: list[tuple[tuple[int, ...], int]] = []
        # a vertex's component index and position, bound once per family: engines ask
        # them of every vertex they touch
        self.component_of, self.position_of = _coordinates(kind)

    # -- vertex bookkeeping -------------------------------------------------

    def realized(self) -> list[int]:
        if not self._lazy:
            raise GraphError("component graphs do not track realized vertices")
        return sorted(self._adj)

    def is_realized(self, v: int) -> bool:
        if self._lazy:
            return v in self._adj
        return v >= 0

    def _require(self, vs: Collection[int]) -> None:
        """Raise GraphError naming the first vertex of ``vs`` not realized.

        On lazy graphs one subset test; the ordered scan runs only to name
        the vertex.
        """
        if self._lazy and self._adj.keys() >= set(vs):
            return
        for v in vs:
            if not self.is_realized(v):
                raise GraphError(f"unknown vertex {v}")

    # -- component encoding (omega K_n / n K_omega) --------------------------

    def vertex(self, component: int, position: int) -> int:
        """Encode (component, position) as a vertex id."""
        n = self.kind.n
        if self.kind.tag == OMEGA_KN:
            if not 0 <= position < n:
                raise GraphError(f"position {position} out of range for K_{n} component")
            return _zigzag(component) * n + position
        if self.kind.tag == NK_OMEGA:
            if not 1 <= component <= n:
                raise GraphError(f"component {component} out of range 1..{n}")
            if position < 0:
                raise GraphError("position must be a natural number")
            return position * n + (component - 1)
        raise GraphError(f"{self.kind.tag} vertices are not component-encoded")

    def component_key(self) -> Callable[[int], int]:
        """A function that names each vertex's component by an integer, one per
        component but not its index, in one arithmetic step: for checks that only
        compare components."""
        n = self.kind.n
        if self.kind.tag == OMEGA_KN:
            return lambda v: v // n
        if self.kind.tag == NK_OMEGA:
            return lambda v: v % n
        raise GraphError(f"{self.kind.tag} vertices are not component-encoded")

    def component_vertices(self, component: int) -> list[int]:
        """All vertices of one component (finite families only)."""
        if self.kind.tag != OMEGA_KN:
            raise GraphError("only omega K_n components are finite")
        return [self.vertex(component, p) for p in range(self.kind.n)]

    def fresh_in_component(self, component: int, avoid: Iterable[int] = ()) -> int:
        """Lowest-position vertex of the component outside ``avoid``."""
        avoid = set(avoid)
        n = self.kind.n
        limit = n if self.kind.tag == OMEGA_KN else len(avoid) + 1
        for p in range(limit):
            v = self.vertex(component, p)
            if v not in avoid:
                return v
        raise GraphError(f"component {component} exhausted")

    # -- adjacency ------------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if self._lazy:
            adj = self._adj
            nu = adj.get(u)
            if nu is None or v not in adj:
                raise GraphError(f"unknown vertex {u if nu is None else v}")
            return v in nu
        return self.component_of(u) == self.component_of(v)

    def neighbors_within(self, x: int, S: Iterable[int]) -> set[int]:
        """The neighbours of x inside S.

        On lazy graphs this is one set intersection, after an O(|S|) check
        that every vertex of S is realized; an unknown vertex raises
        GraphError.  To map x's neighbours through a builder, whose
        vertices were each checked realized when they joined it, use
        ``mapped_neighbours(x, b._fwd)`` (or ``b._bwd``), which costs
        O(degree).
        """
        if self._lazy:
            if isinstance(S, AbstractSet):
                members = S
            else:
                S = list(S)  # keeps the order the loop below names an unknown vertex in
                members = set(S)
            adj = self._adj
            nx = adj.get(x)
            if nx is not None and adj.keys() >= members:
                return nx & members
        return {v for v in S if self.adjacent(x, v)}

    def first_edge(self, A: Iterable[int], B: Iterable[int]) -> tuple[int, int] | None:
        """The first adjacent (a, b) with a in A and b in B, A then B in order; None if none.

        Raises GraphError if any vertex of A or B is unknown.
        """
        A, B = list(A), list(B)
        self._require(A + B)
        members = set(B)
        for a in A:
            hits = self._adj[a] & members if self._lazy else self.neighbors_within(a, members)
            if hits:
                return a, next(b for b in B if b in hits)
        return None

    def adjacency_conflict(self, fwd: dict[int, int], bwd: dict[int, int],
                           x: int, y: int) -> tuple[int, int] | None:
        """The first pair (x2, y2) of the map fwd, in its order, that (x, y) breaks.

        Lazy graphs only.  fwd and bwd are mutually inverse, x lies outside
        dom and y outside ran.  (x, y) agrees with every (x2, y2) exactly when
        the images of N(x) cap dom are N(y) cap ran, which costs
        O(min(degree, |map|)), not O(|map|).  None when nothing conflicts.
        """
        if not self._lazy:
            raise GraphError("neighbour sets exist only for the random / K_n-free families")
        self._require((x, y))
        mapped = self.mapped_neighbours(x, fwd)
        seen = self._adj[y] & bwd.keys()
        if mapped == seen:
            return None
        off = mapped ^ seen
        return next(pair for pair in fwd.items() if pair[1] in off)

    def mapped_neighbours(self, x: int, m: dict[int, int]) -> set[int]:
        """{(u)m : u in N(x) cap dom m}, in O(degree); lazy graphs only.

        x must be realized.  The keys of m are not checked: every caller
        passes a map whose vertices were checked realized as they joined it.
        """
        nx = self._adj.get(x)
        if nx is None:
            raise GraphError(f"unknown vertex {x}")
        return {m[u] for u in nx & m.keys()}

    def kn_free_check(self, S: Iterable[int], k: int) -> bool:
        """True iff no k-subset of S induces a complete graph.

        Exhaustive over subsets, with neighbour-intersection pruning so
        sparse sessions stay cheap.
        """
        if k < 2:
            raise GraphError(f"clique size must be >= 2, got {k}")
        verts = sorted(set(S))
        self._require(verts)
        return self._clique_free(verts, set(verts), k)

    def _clique_free(self, verts: list[int], members: set[int], k: int) -> bool:
        """kn_free_check on sorted, distinct, realized ``verts``, whose set is ``members``."""
        if len(verts) < k:  # most witness sets U: no room for a k-clique
            return True
        if self._lazy:
            adj = self._adj
            if k == 2:  # a 2-clique is an edge
                for v in verts:
                    if not adj[v].isdisjoint(members):
                        return False
                return True
            within = {v: adj[v] & members for v in verts}
        else:
            within = {v: self.neighbors_within(v, members) for v in verts}

        def grow(cands: list[int], depth: int) -> bool:
            if depth == k:
                return True
            need = k - depth - 1
            for i, v in enumerate(cands):
                nv = within[v]
                if len(nv) < need:
                    continue
                nxt = [w for w in cands[i + 1:] if w in nv]
                if len(nxt) >= need and grow(nxt, depth + 1):
                    return True
            return False

        return not grow(verts, 0)

    # -- extension-property witnesses -----------------------------------------

    def alice_witness(self, U: Iterable[int], V: Iterable[int] = (),
                      forbidden: Iterable[int] = ()) -> int:
        """Create a fresh vertex adjacent to every vertex of U and nothing else.

        The new w has N(w) = U within the realized session, so it misses
        every other realized vertex; engines pass U only.  For the K_n-free
        family U must not contain a (n-1)-clique.  The fences V and
        forbidden, kept for positional callers, are checked (disjoint from
        U, every vertex known) only when given, and never recorded: the
        transcript entry is (sorted U, w), all that fixes the graph.
        U is sorted once, and the clique test
        runs once on that list, reading neighbour sets directly: for n = 3
        it is one disjointness test per vertex of U, since a 2-clique is
        an edge.
        """
        if not self._lazy:
            raise GraphError("witnesses exist only for the random / K_n-free families")
        members = set(U)
        adj = self._adj
        if V or forbidden:
            _check_fences(members, V, forbidden, adj.keys())
        elif not adj.keys() >= members:
            raise GraphError(f"unknown vertex {min(members - adj.keys())}")
        return self._witness(members)

    def _witness(self, members: set[int]) -> int:
        """``alice_witness`` past its argument checks: the clique test on ``members``, then
        a new w with N(w) = ``members``, a set the session keeps, and its transcript entry.

        ``IsoBuilder.add_witness`` calls it on a mapped neighbourhood, whose
        vertices were each checked realized when they joined the builder.
        """
        adj = self._adj
        verts = sorted(members)
        clique = self._forbidden_clique
        if clique and len(verts) >= clique and not self._clique_free(verts, members, clique):
            raise GraphError("forbidden clique in U")
        w = self._next
        self._next = w + 1
        adj[w] = members
        for u in verts:
            adj[u].add(w)
        self._transcript.append((tuple(verts), w))
        return w

    def check_witness_contract(self, entry_index: int = -1) -> bool:
        """Re-verify one transcript entry against the session: N(w) cap {v < w} = U."""
        U, w = self._transcript[entry_index]
        return {v for v in self._adj[w] if v < w} == set(U)

    # -- transcripts ------------------------------------------------------------

    def transcript(self) -> list[tuple[tuple[int, ...], int]]:
        return list(self._transcript)

    def transcript_text(self) -> str:
        """One line per witness call: ``<id>: U=..`` (ids comma separated)."""
        return "\n".join(f"{w}: U={','.join(map(str, U))}" for U, w in self._transcript)

    @staticmethod
    def replay(kind: GraphKind,
               entries: Iterable[Sequence[Sequence[int] | int]]) -> "GraphSession":
        """Rebuild a session from (U, id) or (U, V, F, id) transcript entries, each
        checked as ``entry_sets`` hands it to ``replay_sets``."""
        return GraphSession.replay_sets(kind, entry_sets(entries))

    @staticmethod
    def replay_sets(kind: GraphKind,
                    entries: Iterable[tuple[int, Iterable[int]]]) -> "GraphSession":
        """Rebuild a session from (id, U) entries, ids strictly rising: entry (w, U) makes
        vertex w with N(w) = U, after the checks ``alice_witness`` makes.  An id no entry
        names makes no vertex, so a skip costs nothing, and the session's next witness
        id comes after the largest."""
        s = GraphSession(kind)
        witness = s.alice_witness
        for w, U in entries:
            if w < s._next:
                raise GraphError(f"transcript ids must rise: {w} where {s._next} or more was due")
            s._next = w
            witness(U)
        return s

    @staticmethod
    def replay_text(kind: GraphKind, text: str) -> "GraphSession":
        """Replay ``transcript_text`` lines, each at the id it states, as ``replay_sets``
        reads them; text with older ``V=``/``F=`` lines reads as schema-1 entries, through
        ``entry_sets``."""
        entries, fenced = [], False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            head, rest = line.split(":", 1)
            sets = {}
            for field in rest.split():
                key, _, val = field.partition("=")
                sets[key] = tuple(int(x) for x in val.split(",") if x)
            U = sets.pop("U")
            fenced = fenced or bool(sets)
            entries.append((U, sets.get("V", ()), sets.get("F", ()), int(head)))
        if fenced:
            return GraphSession.replay(kind, entries)
        return GraphSession.replay_sets(kind, ((w, U) for U, _, _, w in entries))

    def __repr__(self) -> str:
        size = len(self._adj) if self.kind.is_lazy else "closed-form"
        return f"GraphSession({self.kind.tag}, n={self.kind.n}, realized={size})"


def _coordinates(kind: GraphKind) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """(component_of, position_of): a vertex's component index and its position in the
    component, in closed form on the component families; on the lazy families both
    raise GraphError."""
    n = kind.n
    if kind.tag == OMEGA_KN:
        return (lambda v: _unzigzag(v // n)), (lambda v: v % n)
    if kind.tag == NK_OMEGA:
        return (lambda v: v % n + 1), (lambda v: v // n)

    def not_encoded(v: int) -> int:
        raise GraphError(f"{kind.tag} vertices are not component-encoded")

    return not_encoded, not_encoded


def _check_fences(members: set[int], V, F, known: AbstractSet[int]) -> None:
    """Raise GraphError where a witness call's fences fail: V meets U, or a vertex of U,
    V or F is not ``known``, one of the vertices made so far."""
    fences = set(V), set(F)
    if members & fences[0]:
        raise GraphError(f"U and V overlap: {sorted(members & fences[0])}")
    for part in (members, *fences):
        if not known >= part:
            raise GraphError(f"unknown vertex {min(part - known)}")


def entry_sets(entries: Iterable[Sequence[Sequence[int] | int]]
               ) -> Iterator[tuple[int, Sequence[int]]]:
    """(w, U) of the w-th (U, id) or schema-1 (U, V, F, id) entry, for
    ``GraphSession.replay_sets``.  Entry w must state id w.  V and F are checked before
    U is handed over and the id after the call has made vertex w: the order a fenced
    ``alice_witness`` and an id check met them."""
    made: set[int] = set()
    for w, entry in enumerate(entries):
        if len(entry) == 2:
            U, stated = entry
        elif len(entry) == 4:
            U, V, F, stated = entry
            if V or F:
                _check_fences(set(U), V, F, made)
        else:
            raise GraphError(f"transcript entry of {len(entry)} items;"
                             " expected (U, id) or (U, V, F, id)")
        yield w, U
        if stated != w:
            raise GraphError(f"transcript replay diverged: expected id {stated}, got {w}")
        made.add(w)
