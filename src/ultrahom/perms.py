"""Permutations of {1..n} acting on graph-component indices.

Images are written on the right throughout: ``(i)(p * q) = ((i)p)q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import gcd

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


def closure(n: int, gens: list[IndexPerm], stop_at: int | None = None) -> set[IndexPerm]:
    """Subgroup generated by gens, by breadth-first multiplication."""
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
                    if stop_at is not None and len(seen) >= stop_at:
                        return seen
        frontier = nxt
    return seen


def generates_symmetric(n: int, gens: list[IndexPerm]) -> bool:
    size = 1
    for k in range(2, n + 1):
        size *= k
    return len(closure(n, gens, stop_at=size)) == size


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
