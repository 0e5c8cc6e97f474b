"""Per-query deadlines with contextvar propagation.

A :class:`Deadline` is an absolute expiry on the monotonic clock.  The
server opens a :func:`deadline_scope` around each query or batch; deep
library code — notably the DAG executor, which checks between node
dispatches — calls :func:`check_deadline`, which raises
:class:`~repro.errors.QueryTimeout` once the budget is spent and is a cheap
no-op when no deadline is active.

Propagation uses :mod:`contextvars` (exactly like :mod:`repro.obs`), so a
deadline set by the server is visible throughout assembly and in the
executor's scheduler loop without threading an argument through every
call.  Worker threads of a :class:`~concurrent.futures.ThreadPoolExecutor`
do not inherit the context, but the scheduler loop runs on the calling
thread, which is where cancellation decisions are made.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from ..errors import InvalidQueryError, QueryTimeout

__all__ = [
    "SERVING",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "check_deadline",
]


class Deadline:
    """An absolute expiry on ``time.monotonic``."""

    __slots__ = ("expires_at", "budget_ms")

    def __init__(self, expires_at: float, budget_ms: float | None = None):
        self.expires_at = expires_at
        self.budget_ms = budget_ms

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (negative means already expired,
        ``inf`` never expires).  A NaN budget would silently never expire,
        so it is refused as an :class:`InvalidQueryError`."""
        if seconds != seconds:
            raise InvalidQueryError("deadline_ms must not be NaN")
        return cls(time.monotonic() + seconds, budget_ms=seconds * 1e3)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`QueryTimeout` when the budget is spent."""
        over = time.monotonic() - self.expires_at
        if over >= 0:
            budget = self.budget_ms
            raise QueryTimeout(
                f"deadline exceeded{f' at {site}' if site else ''}"
                + (f" (budget {budget:.1f}ms)" if budget is not None else ""),
                elapsed_ms=(budget + over * 1e3) if budget is not None else None,
                budget_ms=budget,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining() * 1e3:.1f}ms)"


_ACTIVE_DEADLINE: ContextVar[Deadline | None] = ContextVar(
    "repro_deadline", default=None
)

#: The serve envelope of the call being served (``None`` outside one, e.g.
#: during a migration).  A path that answers from a fallback calls its
#: ``note_degraded(target, targets)``: that counts ``server_degraded_total``
#: and marks the envelope, which the alert feed reads when the call ends.
#: Scatter legs run under :func:`contextvars.copy_context`, so they mark
#: the envelope object this variable holds, never the variable itself.
SERVING: ContextVar = ContextVar("repro_serving", default=None)


def current_deadline() -> Deadline | None:
    """The innermost active deadline, or ``None``."""
    return _ACTIVE_DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Make ``deadline`` ambient within the block (``None`` = pass-through).

    Nested scopes keep whichever deadline expires first, so a caller budget
    can only tighten, never extend, an outer one.
    """
    if deadline is None:
        yield None
        return
    outer = _ACTIVE_DEADLINE.get()
    if outer is not None and outer.expires_at <= deadline.expires_at:
        yield outer
        return
    token = _ACTIVE_DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE_DEADLINE.reset(token)


def check_deadline(site: str = "") -> None:
    """Raise :class:`QueryTimeout` if the ambient deadline has expired."""
    deadline = _ACTIVE_DEADLINE.get()
    if deadline is not None:
        deadline.check(site)
