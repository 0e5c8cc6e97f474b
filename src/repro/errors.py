"""Typed error taxonomy for the serving stack.

Every failure the serving path can surface deliberately is an instance of
:class:`ReproError`, so callers can catch one base class at the edge and
branch on the concrete type for policy:

- :class:`QueryTimeout` — a per-query/batch deadline expired; the work was
  cancelled and the admission slot released.  Retrying verbatim is safe.
- :class:`AdmissionRejected` — the server's in-flight bound was reached and
  the caller chose fail-fast (or the bounded wait elapsed).  Back off and
  retry; the query itself was never started.
- :class:`IntegrityError` — stored bytes failed verification: a truncated
  archive, a missing array, or a checksum mismatch.  The damaged element is
  quarantined (or the load refused); answers stay correct via perfect
  reconstruction from surviving elements or the base cube.
- :class:`TransientFault` — a retryable infrastructure fault (in this
  reproduction, injected by :mod:`repro.resilience.faults`); the server
  retries these with backoff before giving up.
- :class:`IncompleteSetError` — the stored element set cannot generate a
  requested element (Procedure 3 has no route).  Subclasses
  :class:`ValueError` for compatibility with the historical signature.
- :class:`InvalidUpdateError` — an update batch was refused where its
  :class:`~repro.core.delta.DeltaBatch` is built: wrong rank, a coordinate
  that is not an integer inside the cube, or a non-finite delta.  Nothing
  was logged or applied.  Subclasses :class:`ValueError` likewise.
- :class:`InvalidQueryError` — a read request named a roll-up level or a
  range bound that is not an integer (``1.9``, ``True``); refused before
  anything is resolved instead of being truncated to a different request.
  The partial-aggregation operators raise it for a ``uint64`` operand,
  which no signed 64-bit sum or difference holds exactly.  Subclasses
  :class:`ValueError` likewise.

The taxonomy is deliberately small: everything else propagating out of the
library is a programming error, not a serving condition.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "QueryTimeout",
    "AdmissionRejected",
    "IntegrityError",
    "TransientFault",
    "IncompleteSetError",
    "InvalidUpdateError",
    "InvalidQueryError",
]


class ReproError(Exception):
    """Base class of every deliberate serving-path failure."""


class QueryTimeout(ReproError):
    """A query or batch exceeded its deadline and was cancelled.

    ``elapsed_ms``/``budget_ms`` record how far past the budget the query
    ran when the expiry was observed (both ``None`` when unknown).
    """

    def __init__(
        self,
        message: str = "query deadline exceeded",
        *,
        elapsed_ms: float | None = None,
        budget_ms: float | None = None,
    ):
        super().__init__(message)
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


class AdmissionRejected(ReproError):
    """The server is at its in-flight query bound; the query never ran."""

    def __init__(
        self,
        message: str = "server at capacity",
        *,
        in_flight: int | None = None,
        limit: int | None = None,
    ):
        super().__init__(message)
        self.in_flight = in_flight
        self.limit = limit


class IntegrityError(ReproError):
    """Stored data failed verification (truncation, missing key, checksum)."""

    def __init__(self, message: str, *, detail: str | None = None):
        super().__init__(message)
        self.detail = detail


class TransientFault(ReproError):
    """A retryable fault; the serving layer retries these with backoff."""

    def __init__(self, message: str = "transient fault", *, site: str | None = None):
        super().__init__(message)
        self.site = site


class IncompleteSetError(ReproError, ValueError):
    """The stored set cannot generate the requested element."""


class InvalidUpdateError(ReproError, ValueError):
    """An update batch failed validation; nothing was logged or applied."""


class InvalidQueryError(ReproError, ValueError):
    """A request's level or bound is not an integer or lies outside the
    cube (a range bound past an extent, a level above a hierarchy's
    depth), a range is not one ``(start, stop)`` pair per dimension, a
    deadline is NaN, ``max_workers`` is below 1, or an operand's dtype
    cannot be aggregated exactly; nothing was served."""
