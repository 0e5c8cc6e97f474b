"""The one transient-fault retry loop of the serving stack.

:func:`retry_transient` is the only place in ``repro`` that counts
attempts or sleeps between them.  Its callers — the server's element,
batch and range paths, and the sharded set's scatter leg and migration
assemble — pass what to attempt and keep only their own fallback (base
cube, per-element recovery, base slab) for the fault it re-raises.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TypeVar

from ..core.operators import OpCounter
from ..errors import TransientFault
from .deadline import current_deadline

__all__ = ["BACKOFF_MS", "retry_transient"]

T = TypeVar("T")

#: Base of the exponential backoff between retries, in milliseconds; read
#: when the sleep is taken, so a test patches it here.
BACKOFF_MS = 5.0


def retry_transient(
    attempt: Callable[[OpCounter], T],
    counter: OpCounter,
    *,
    max_retries: int,
    on_retry: Callable[[int], None] | None = None,
) -> T:
    """Run ``attempt(scratch)`` until it returns, retrying transient faults.

    Every try gets a fresh scratch :class:`OpCounter`, merged into
    ``counter`` only for the try that returned — the caller's accounting
    reflects the answer actually served, never the abandoned work.  Each
    :class:`~repro.errors.TransientFault` calls ``on_retry(n)`` with the
    number of faults so far (1, 2, …); after more than ``max_retries`` of
    them the last fault is re-raised, otherwise the loop sleeps
    ``BACKOFF_MS * 2**(n - 1)`` milliseconds — never longer than the ambient
    :class:`~repro.resilience.deadline.Deadline` has left, and an expired
    deadline raises :class:`~repro.errors.QueryTimeout` instead of
    sleeping.  Any other exception propagates untouched.
    """
    faults = 0
    while True:
        scratch = OpCounter()
        try:
            result = attempt(scratch)
        except TransientFault:
            faults += 1
            if on_retry is not None:
                on_retry(faults)
            if faults > max_retries:
                raise
            delay = (BACKOFF_MS / 1e3) * (2 ** (faults - 1))
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("retry")
                delay = min(delay, max(0.0, deadline.remaining()))
            if delay > 0:
                time.sleep(delay)
        else:
            counter.merge(scratch)
            return result
