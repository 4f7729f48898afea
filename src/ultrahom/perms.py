"""Permutations of {1..n} acting on graph-component indices.

Images are written on the right throughout: ``(i)(p * q) = ((i)p)q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd
from typing import Iterable

from .errors import GraphError


@dataclass(frozen=True)
class IndexPerm:
    """A permutation of 1..n.  Construction checks the images; products,
    inverses and powers of valid permutations are valid, so they are
    built by ``_of`` without the check.  ``cycles`` and ``order`` are
    computed once per value."""

    images: tuple[int, ...]  # images[i-1] = image of i

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise GraphError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def _of(images: tuple[int, ...]) -> "IndexPerm":
        """The permutation with these images, which must already form a permutation."""
        out = object.__new__(IndexPerm)
        object.__setattr__(out, "images", images)
        return out

    @staticmethod
    def identity(n: int) -> "IndexPerm":
        return IndexPerm._of(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles) -> "IndexPerm":
        img = list(range(1, n + 1))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                if not 1 <= a <= n:
                    raise GraphError(f"point {a} of cycle {tuple(cyc)} outside 1..{n}")
                img[a - 1] = cyc[(i + 1) % len(cyc)]
        return IndexPerm(tuple(img))

    @staticmethod
    def parse(n: int, text: str) -> "IndexPerm":
        """Parse cycle notation like ``(1 2)(3 4)``; ``id`` or ``()`` is the identity."""
        text = text.strip()
        if text in ("id", "()", ""):
            return IndexPerm.identity(n)
        cycles = []
        for chunk in text.replace(")", ")|").split("|"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise GraphError(f"bad cycle notation: {text!r}")
            body = chunk[1:-1].replace(",", " ").split()
            cycles.append([int(x) for x in body])
        return IndexPerm.from_cycles(n, cycles)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "IndexPerm") -> "IndexPerm":
        return IndexPerm._of(tuple(other.images[x - 1] for x in self.images))

    def inverse(self) -> "IndexPerm":
        img = [0] * self.n
        for i, x in enumerate(self.images, start=1):
            img[x - 1] = i
        return IndexPerm._of(tuple(img))

    def power(self, k: int) -> "IndexPerm":
        """self^k for any integer k, in O(n): each point moves k places round its cycle."""
        img = [0] * self.n
        for cyc in self.cycles(include_fixed=True):
            r = k % len(cyc)
            for a, b in zip(cyc, cyc[r:] + cyc[:r]):
                img[a - 1] = b
        return IndexPerm._of(tuple(img))

    def is_identity(self) -> bool:
        return all(self(i) == i for i in range(1, self.n + 1))

    def support(self) -> set[int]:
        return {i for i in range(1, self.n + 1) if self(i) != i}

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        all_cycles = self.__dict__.get("_cycles")
        if all_cycles is None:
            images = self.images
            seen: set[int] = set()
            found = []
            for i in range(1, self.n + 1):
                if i in seen:
                    continue
                cyc = [i]
                j = images[i - 1]
                while j != i:
                    cyc.append(j)
                    j = images[j - 1]
                seen.update(cyc)
                found.append(tuple(cyc))
            all_cycles = tuple(found)
            object.__setattr__(self, "_cycles", all_cycles)
        return [c for c in all_cycles if include_fixed or len(c) > 1]

    def orbit(self, i: int) -> list[int]:
        cyc = [i]
        j = self(i)
        while j != i:
            cyc.append(j)
            j = self(j)
        return cyc

    def order(self) -> int:
        out = self.__dict__.get("_order")
        if out is None:
            out = 1
            for cyc in self.cycles(include_fixed=True):
                out = out * len(cyc) // gcd(out, len(cyc))
            object.__setattr__(self, "_order", out)
        return out

    def cycle_notation(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    def __repr__(self) -> str:
        return f"IndexPerm[{self.cycle_notation()}]"


def all_perms(n: int):
    for img in permutations(range(1, n + 1)):
        yield IndexPerm._of(img)


def closure(n: int, gens: list[IndexPerm]) -> set[IndexPerm]:
    """Subgroup generated by gens, by breadth-first multiplication: up to n! elements.

    The reference that ``group_order`` is tested against.
    """
    seen = {IndexPerm.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _inverse(u: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x] = i
    return tuple(out)


def _sift(table: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]],
          g: tuple[int, ...]) -> None:
    """Sims' filter: keep g, or what is left of it, in a table of at most n(n-1)/2
    permutations that generates the same group as the table and g together.

    Permutations are 0-based image tuples.  The table holds at most one
    permutation, with its inverse, per (i, j): i its first moved point and
    j the image of i.  A permutation that meets a taken slot is divided by
    the one there, which moves i to j as well, so the quotient fixes i and
    its first moved point moves up, until it is the identity or finds a
    free slot.
    """
    i, n = 0, len(g)
    while True:
        while i < n and g[i] == i:
            i += 1
        if i == n:
            return
        held = table.get((i, g[i]))
        if held is None:
            table[i, g[i]] = (g, _inverse(g))
            return
        inv = held[1]
        g = tuple([inv[x] for x in g])


def group_order(n: int, gens: list[IndexPerm]) -> int:
    """Order of the subgroup of S_n that gens generate, by deterministic Schreier-Sims.

    Walks the stabilizer chain of the base 1, 2, ..., n: the orbit of each
    base point under its level's generators is the index of the next
    level, and Schreier's lemma gives the next level's generators, which
    Sims' filter cuts to at most n(n-1)/2 (Sims 1970; Seress, *Permutation
    Group Algorithms*, 2003, ch. 4).  Polynomial in n; nothing enumerates
    the group.
    """
    level = [tuple(x - 1 for x in g.images) for g in gens if not g.is_identity()]
    order = 1
    for base in range(n):
        if not level:
            break
        # the orbit of base, with for each point p a u in the group taking base to p
        reps = {base: tuple(range(n))}
        frontier = [base]
        for p in frontier:
            u = reps[p]
            for g in level:
                if g[p] not in reps:
                    reps[g[p]] = tuple([g[x] for x in u])
                    frontier.append(g[p])
        order *= len(reps)
        # Schreier generators u_p g u_(p)g^-1 of the stabilizer of base
        inverses = {p: _inverse(u) for p, u in reps.items()}
        table: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for p, u in reps.items():
            for g in level:
                inv = inverses[g[p]]
                _sift(table, tuple([inv[g[x]] for x in u]))
        level = [g for g, _ in table.values()]
    return order


def generates_symmetric(n: int, gens: Iterable[IndexPerm]) -> bool:
    """Whether gens generate all of S_n.

    Two O(n) screens come first: S_n is transitive and holds odd
    permutations, so a generating set has one orbit and an odd member.
    Past them, ``group_order`` decides.  The answer is a function of n and
    the tuple of gens, so it is kept in a bounded cache (``_generates_symmetric``):
    an n K_omega build asks the same question of q and of h, and one process
    asks it again for each instance that shares both index permutations.
    """
    return _generates_symmetric(n, tuple(gens))


@lru_cache(maxsize=1024)
def _generates_symmetric(n: int, gens: tuple[IndexPerm, ...]) -> bool:
    reached, frontier = {1}, [1]
    for i in frontier:
        for g in gens:
            if g(i) not in reached:
                reached.add(g(i))
                frontier.append(g(i))
    if len(reached) < n:
        return False
    if n > 1 and not any((n - len(g.cycles(include_fixed=True))) % 2 for g in gens):
        return False
    return group_order(n, gens) == factorial(n)


def word_to(n: int, a: IndexPerm, b: IndexPerm, target: IndexPerm) -> list[tuple[str, int]]:
    """Shortest syllable word over {a (positively), b, b^-1} whose image is target.

    Breadth-first search over the subgroup; raises if target is not reached.
    Returns letter steps as (letter, +-1) with letter 'a' only positive.
    """
    start = IndexPerm.identity(n)
    moves = [("a", 1, a), ("b", 1, b), ("b", -1, b.inverse())]
    prev: dict[IndexPerm, tuple[IndexPerm, str, int] | None] = {start: None}
    frontier = [start]
    while frontier and target not in prev:
        nxt = []
        for p in frontier:
            for letter, sign, g in moves:
                q = p * g
                if q not in prev:
                    prev[q] = (p, letter, sign)
                    nxt.append(q)
        frontier = nxt
    if target not in prev:
        raise GraphError(f"{target} not generated by the given permutations")
    steps: list[tuple[str, int]] = []
    cur = target
    while prev[cur] is not None:
        p, letter, sign = prev[cur]
        steps.append((letter, sign))
        cur = p
    steps.reverse()
    return steps
