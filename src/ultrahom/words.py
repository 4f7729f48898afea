"""Reduced words over two letters and their evaluation as partial maps.

A word over the alphabet {a, b} is evaluated at a partial isomorphism p
and an automorphism oracle f: 'a' syllables act by powers of p, 'b'
syllables by powers of f, multiplied left to right under the partial
composition domain rule.  Words and their realizations are kept as
distinct types; conversion is always explicit through ``evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GraphError, HypothesisError
from .partial_iso import PartialIso, identity_on
from .perms import IndexPerm

Syllable = tuple[str, int]


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced: adjacent syllables use distinct letters, exponents nonzero."""

    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        last = None
        for letter, exp in self.syllables:
            if letter not in ("a", "b"):
                raise GraphError(f"unknown letter {letter!r}")
            if exp == 0:
                raise GraphError("zero exponent in word")
            if letter == last:
                raise GraphError(f"word not reduced at letter {letter!r}")
            last = letter

    def __len__(self) -> int:
        """Length in letters."""
        return sum(abs(e) for _, e in self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def letters(self) -> list[Syllable]:
        """Expanded letter-by-letter view: [('a', 1), ('a', 1), ('b', -1), ...]."""
        out = []
        for letter, exp in self.syllables:
            sign = 1 if exp > 0 else -1
            out.extend((letter, sign) for _ in range(abs(exp)))
        return out

    def prefix(self, k: int) -> "FreeWord":
        """First k >= 0 letters (syllables split as needed)."""
        for i, (_, exp) in enumerate(self.syllables):
            if k < abs(exp):
                return _prefix(self.syllables, i, k)
            k -= abs(exp)
        return self

    def starts_with(self, letter: str) -> bool:
        return bool(self.syllables) and self.syllables[0][0] == letter \
            and self.syllables[0][1] > 0

    def has_negative(self, letter: str) -> bool:
        return any(l == letter and e < 0 for l, e in self.syllables)

    def is_prefix_of(self, other: "FreeWord") -> bool:
        mine, theirs = self.letters(), other.letters()
        return theirs[: len(mine)] == mine

    def __str__(self) -> str:
        if not self.syllables:
            return "e"
        return " ".join(l if e == 1 else f"{l}^{e}" for l, e in self.syllables)

    def __repr__(self) -> str:
        return f"FreeWord({self})"


def reduce_word(raw: Iterable[Syllable]) -> FreeWord:
    """Canonical reduced form of a raw syllable list; idempotent."""
    stack: list[list] = []
    for letter, exp in raw:
        if letter not in ("a", "b"):
            raise GraphError(f"unknown letter {letter!r}")
        if exp == 0:
            raise GraphError("zero exponent in raw syllables")
        if stack and stack[-1][0] == letter:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([letter, exp])
    return FreeWord(tuple((l, e) for l, e in stack))


def word(*syllables: Syllable) -> FreeWord:
    return reduce_word(syllables)


def empty_word() -> FreeWord:
    return FreeWord(())


def concat(u: FreeWord, v: FreeWord) -> FreeWord:
    return reduce_word(u.syllables + v.syllables)


def invert_word(w: FreeWord) -> FreeWord:
    return FreeWord(tuple((l, -e) for l, e in reversed(w.syllables)))


def swap_a_sign(w: FreeWord) -> FreeWord:
    """Replace every a by a^-1 and vice versa; b syllables unchanged."""
    return FreeWord(tuple((l, -e if l == "a" else e) for l, e in w.syllables))


def parse_word(text: str) -> FreeWord:
    """Parse the compact form, e.g. ``a^3 b^-1 a``; ``e`` is the empty word."""
    text = text.strip()
    if text in ("e", ""):
        return empty_word()
    sylls = []
    for chunk in text.split():
        if "^" in chunk:
            letter, _, exp = chunk.partition("^")
            sylls.append((letter, int(exp)))
        else:
            sylls.append((chunk, 1))
    return reduce_word(sylls)


def b_count(w: FreeWord) -> int:
    """Total occurrences of b and b^-1."""
    return sum(abs(e) for l, e in w.syllables if l == "b")


def _steps(syllables, p, f) -> list:
    """The word compiled against p and f: one step function per letter.

    'a' letters step through p's maps (which a growing map updates in
    place), 'b' letters through the oracle's image and preimage.
    """
    out = []
    for letter, exp in syllables:
        if letter == "a":
            step = p._fwd.get if exp > 0 else p._bwd.get
        else:
            step = f.try_image if exp > 0 else f.try_preimage
        out += [step] * abs(exp)
    return out


def _walk(steps: list, v: int, k: int = 0) -> tuple[int, int]:
    """Apply steps k, k+1, ... to v until one is undefined.

    Returns (letters applied in all, last defined value); the first is
    len(steps) when the whole word is defined.
    """
    for k in range(k, len(steps)):
        u = steps[k](v)
        if u is None:
            return k, v
        v = u
    return len(steps), v


def chase(w: FreeWord | Sequence[Syllable], x: int, p: PartialIso, f) -> int | None:
    """Image of x under the word's realization, or None when undefined."""
    sylls = w.syllables if isinstance(w, FreeWord) else reduce_word(w).syllables
    steps = _steps(sylls, p, f)
    k, v = _walk(steps, x)
    return v if k == len(steps) else None


def evaluate(w, p: PartialIso, f) -> PartialIso:
    """Realize a word as a finite partial isomorphism.

    Accepts a FreeWord or a raw syllable sequence (evaluated literally,
    letter by letter, under the composition domain rule, so e.g. the raw
    sequence a^-1 a realizes the identity on ran(p)).  The empty word
    realizes the identity on the support of p.  A word whose letters are
    all b requires f to be finitely enumerable.
    """
    if isinstance(w, FreeWord):
        sylls = w.syllables
    else:
        sylls = tuple(w)
        if any(exp == 0 for _, exp in sylls):
            raise GraphError("zero exponent in raw syllables")
    if not sylls:
        return identity_on(p.session, p.support())

    first_a = next((i for i, (l, _) in enumerate(sylls) if l == "a"), None)
    if first_a is None:
        pairs_fn = getattr(f, "finite_pairs", None)
        if pairs_fn is None:
            raise GraphError("all-b word over a total oracle has no finite realization")
        candidates = {x for x, _ in pairs_fn()} | {y for _, y in pairs_fn()}
    else:
        # pull the a-anchored seed set back through the leading b-syllables
        candidates = p.dom() if sylls[first_a][1] > 0 else p.ran()
        for _, exp in reversed(sylls[:first_a]):
            back_step = f.try_preimage if exp > 0 else f.try_image
            for _ in range(abs(exp)):
                back = set()
                for v in candidates:
                    u = back_step(v)
                    if u is not None:
                        back.add(u)
                candidates = back

    fwd = {}
    steps = _steps(sylls, p, f)
    end = len(steps)
    for x in sorted(candidates):
        k, v = _walk(steps, x)
        if k == end:
            fwd[x] = v
    # a word realization is automatically injective and adjacency-preserving
    return PartialIso(p.session, fwd, {y: x for x, y in fwd.items()})


def _prefix(syllables, i: int, off: int) -> FreeWord:
    """The word made of the first i syllables and ``off`` letters of the next."""
    head = tuple(syllables[:i])
    if off:
        letter, exp = syllables[i]
        head += ((letter, off if exp > 0 else -off),)
    return FreeWord(head)


def largest_defined_prefix(w: FreeWord, p: PartialIso, f, x: int) -> FreeWord:
    """The longest prefix of w (in letters) whose realization is defined at x."""
    k, _ = _walk(_steps(w.syllables, p, f), x)
    return w.prefix(k)


class WordWalks:
    """Walks of one word from several start points, kept current as the map grows.

    p is a growing map (an ``IsoBuilder``); call ``on_add(y, z)`` after each
    pair it gains.  Each point's walk is (letters consumed, value): its
    largest defined prefix and the image there.  Adding (y, z) can only
    advance walks that stopped on an 'a' at y or on an 'a^-1' at z, so
    only those resume; 'b' letters do not depend on the map.
    """

    def __init__(self, w: FreeWord, p, f, points: Iterable[int]):
        self.w = w
        self._steps = _steps(w.syllables, p, f)
        self._letters = w.letters()
        self._at: dict[int, tuple[int, int]] = {}
        # walks stopped on 'a' (slot 0) or 'a^-1' (slot 1), by the value they wait at
        self._waiting: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
        for u in points:
            self._resume(u, 0, u)

    def _resume(self, u: int, k: int, v: int) -> None:
        k, v = self._at[u] = _walk(self._steps, v, k)
        if k < len(self._letters) and self._letters[k][0] == "a":
            self._waiting[self._letters[k][1] < 0].setdefault(v, []).append(u)

    def on_add(self, y: int, z: int) -> None:
        for u in self._waiting[0].pop(y, []) + self._waiting[1].pop(z, []):
            self._resume(u, *self._at[u])

    def consumed(self, u: int) -> int:
        """Length in letters of u's largest defined prefix."""
        return self._at[u][0]

    def value(self, u: int) -> int:
        """Image of u under its largest defined prefix."""
        return self._at[u][1]

    def values(self) -> set[int]:
        return {v for _, v in self._at.values()}

    def prefix(self, u: int) -> FreeWord:
        return self.w.prefix(self._at[u][0])

    def next_letter(self, u: int) -> Syllable | None:
        """The first letter of u's walk that is undefined, as (letter, sign); None once complete."""
        k = self._at[u][0]
        return self._letters[k] if k < len(self._letters) else None


def word_index_image(w: FreeWord, p_index: IndexPerm, f_index: IndexPerm) -> IndexPerm:
    """Image of the word in the index-permutation group (a -> p_index, b -> f_index)."""
    out = IndexPerm.identity(p_index.n)
    for letter, exp in w.syllables:
        base = p_index if letter == "a" else f_index
        out = out * base.power(exp)
    return out


@dataclass
class WordConditionReport:
    """Outcome of the six-clause check governing word-built extensions."""

    holds: bool
    failed_clauses: list[int]
    witnesses: dict[int, object]

    def __str__(self) -> str:
        if self.holds:
            return "word condition holds (clauses 1-6)"
        parts = [f"clause {c}: {self.witnesses[c]}" for c in self.failed_clauses]
        return "word condition fails -- " + "; ".join(parts)


def landing_orbit(p: PartialIso, z: int, longest: int | None = None) -> list[int]:
    """{(z)p^m : m in Z, defined}, scanning one step past the component bound.

    p^0 is read as the empty product here, so z itself is always included.
    """
    if longest is None:
        longest = p.longest_component()
    seen = [z]
    v = z
    for m in range(longest + 1):
        v = p.apply(v)
        if v is None or v == z:
            break
        seen.append(v)
    else:
        raise GraphError("component scan exceeded the longest-component bound")
    v = z
    for m in range(longest + 1):
        v = p.unapply(v)
        if v is None or v in seen:
            break
        seen.append(v)
    else:
        raise GraphError("component scan exceeded the longest-component bound")
    return seen


def check_word_condition(p: PartialIso, gamma: Iterable[int], theta: Iterable[int],
                         phi: Iterable[int], delta: Iterable[int],
                         w: FreeWord, f) -> WordConditionReport:
    """Check the six clauses tying a word realization w(p) to the sets given.

    (1) the induced index permutation of w(p) is the identity;
    (2) ran(p) is disjoint from delta;
    (3) dom(w(p)) meets gamma exactly in theta;
    (4) the image of theta under w(p) avoids dom(p);
    (5) the per-point largest-prefix images are pairwise distinct on gamma;
    (6) from each largest-prefix image, the whole p-component stays out of phi.
    """
    gamma = sorted(set(gamma))
    theta = sorted(set(theta))
    phi = set(phi)
    delta = set(delta)
    if not set(theta) <= set(gamma):
        raise HypothesisError("theta-subset", "theta must be contained in gamma")

    failed: dict[int, object] = {}

    n = p.session.kind.n
    from .partial_iso import index_perm_of

    sigma_p = index_perm_of(p, n)
    if sigma_p is not None and getattr(f, "index_perm", None) is not None:
        img = word_index_image(w, sigma_p, f.index_perm())
        if not img.is_identity():
            failed[1] = f"index image {img.cycle_notation()}"
    else:
        wp = evaluate(w, p, f)
        bad = [x for x in wp.dom()
               if p.session.component_of(x) != p.session.component_of(wp.apply(x))]
        if bad:
            failed[1] = f"component moved at {bad[0]}"

    overlap = p.ran() & delta
    if overlap:
        failed[2] = f"ran(p) meets delta at {min(overlap)}"

    steps = _steps(w.syllables, p, f)
    walks = {x: _walk(steps, x) for x in gamma}
    in_dom = {x for x in gamma if walks[x][0] == len(steps)}
    if in_dom != set(theta):
        failed[3] = f"dom(w(p)) cap gamma = {sorted(in_dom)} != theta {theta}"

    bad4 = [x for x in theta if x in in_dom and p.apply(walks[x][1]) is not None]
    if bad4:
        failed[4] = f"image of {bad4[0]} lands in dom(p)"

    # each point's largest-prefix image: the value its walk stopped at
    values = {x: walks[x][1] for x in gamma}
    for i, x in enumerate(gamma):
        for y in gamma[i + 1:]:
            if values[x] == values[y]:
                failed.setdefault(5, f"points {x} and {y} collide at {values[x]}")

    longest = p.longest_component()
    for x in gamma:
        hits = phi & set(landing_orbit(p, values[x], longest))
        if hits:
            failed.setdefault(6, f"point {x} reaches phi at {min(hits)}")
            break

    return WordConditionReport(not failed, sorted(failed), failed)
