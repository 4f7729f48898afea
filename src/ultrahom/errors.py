"""Exception types shared across the package."""

from __future__ import annotations

from typing import Callable


class GraphError(ValueError):
    """Malformed graph request: unknown vertex, bad family parameter, etc."""


class IsoError(ValueError):
    """A pair set fails to be a partial isomorphism.

    ``reason`` is a short machine-readable tag and ``pairs`` holds the
    offending pair(s), so property-test shrinking stays informative.
    """

    def __init__(self, reason: str, pairs=(), detail: str = ""):
        self.reason = reason
        self.pairs = tuple(pairs)
        msg = f"{reason}: {detail}" if detail else reason
        if self.pairs:
            msg += f" (pairs {list(self.pairs)})"
        super().__init__(msg)


class HypothesisError(ValueError):
    """A construction was called outside its documented hypotheses.

    ``clause`` names the violated clause of the operation's contract.
    """

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"hypothesis {clause} fails" + (f": {detail}" if detail else ""))


class InternalCheckError(RuntimeError):
    """An invariant that the construction guarantees was found broken.

    These indicate a bug in the engine (or a misunderstanding of the
    construction), never bad user input; they are surfaced loudly.
    """

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"internal check {clause} failed" + (f": {detail}" if detail else ""))


def internal_check(cond: bool, clause: str, detail: str | Callable[[], str] = "") -> None:
    """Raise InternalCheckError unless cond holds.  A detail that costs work to write
    may be passed as a function, which is called only on failure."""
    if not cond:
        raise InternalCheckError(clause, detail() if callable(detail) else detail)
