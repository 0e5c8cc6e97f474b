"""Multi-window SLO burn-rate alerting over the serving outcome stream.

The server already *measures* its SLOs (``server_latency_ms``,
timeout/rejection/degraded rates); this module decides when those
measurements constitute an incident.  It implements the standard
multi-window **burn-rate** scheme: for each rule, outcomes are bucketed
into fixed-width time buckets and the *burn rate*

    burn = (bad / total) / objective

is evaluated over a **fast** window (catches sharp regressions quickly)
and a **slow** window (filters one-off blips).  A rule fires only when
*both* windows burn at or above the rule's threshold — a sustained
failure looks bad in both, a transient spike only in the fast window,
and a long-recovered incident only in the slow one.

Determinism is a design requirement (the triage gate predicts the exact
query index an alert fires on): the engine takes an injectable ``clock``
(:class:`ManualClock` in tests, ``time.monotonic`` in production) and
evaluates on records, never on wall-clock timers or threads.  A record
triggers an evaluation pass only when a transition is possible — some rule
is firing (it may resolve) or holds a bad sample in its slow window (it may
fire) — which yields exactly the fire/resolve sequence of evaluating after
every record.  On an all-healthy stream no transition is possible at all,
so a good record only queues its clock reading, and the queue is counted
per bucket when the engine is next read or recorded into.

Alert lifecycle is transition-based: one ``firing`` event when a rule
crosses its threshold, one ``resolved`` event when it drops back, with
``on_fire``/``on_resolve`` callbacks (the server hooks flight-recorder
bundle dumps onto ``on_fire``) and a bounded history for ``health()``.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

__all__ = [
    "AlertEngine",
    "BurnRateRule",
    "ManualClock",
    "default_rules",
]


#: Burn-rate windows in seconds: the fast one catches sharp SLO
#: regressions (bucket width is 1/6 of it), the slow one filters one-off
#: blips.
FAST_WINDOW_S = 60.0
SLOW_WINDOW_S = 600.0
#: Fire/resolve events an :class:`AlertEngine` keeps for ``history()``.
MAX_HISTORY = 128
#: Good samples waiting in an engine's inbox before ``record()`` folds
#: them itself, without waiting for a reader.
FOLD_AT = 1024


class ManualClock:
    """A hand-advanced clock for deterministic alert tests."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += float(seconds)
        return self.now


@dataclass(frozen=True)
class BurnRateRule:
    """One SLO rule: what counts as *bad* and how fast the budget may burn.

    ``objective`` is the acceptable bad fraction (the error budget): with
    ``objective=0.02`` and ``burn_threshold=1.0`` the rule fires when more
    than 2% of recent outcomes are bad — in both windows.  ``min_samples``
    applies to the slow window, so a rule cannot fire off a handful of
    queries at startup.
    """

    name: str
    objective: float
    burn_threshold: float = 1.0
    fast_window_s: float = FAST_WINDOW_S
    slow_window_s: float = SLOW_WINDOW_S
    min_samples: int = 64
    bad_outcomes: tuple = ()
    latency_over_ms: float | None = None
    bad_if_degraded: bool = False
    description: str = ""

    def __post_init__(self):
        if self.objective <= 0:
            raise ValueError("objective must be positive")
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast_window_s <= slow_window_s"
            )

    def is_bad(self, outcome: str, latency_ms: float, degraded: bool) -> bool:
        if outcome in self.bad_outcomes:
            return True
        if self.bad_if_degraded and degraded:
            return True
        return (
            self.latency_over_ms is not None
            and latency_ms >= self.latency_over_ms
        )


def default_rules(
    fast_window_s: float = FAST_WINDOW_S, slow_window_s: float = SLOW_WINDOW_S
) -> tuple[BurnRateRule, ...]:
    """The stock rule set over the outcomes the serve envelope labels."""
    return (
        BurnRateRule(
            name="failures",
            objective=0.05,
            bad_outcomes=("timeout", "error"),
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            description="timed-out or failed queries burning >5% budget",
        ),
        BurnRateRule(
            name="rejections",
            objective=0.05,
            bad_outcomes=("rejected",),
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            description="admission-control rejections burning >5% budget",
        ),
        BurnRateRule(
            name="degraded",
            objective=0.10,
            bad_if_degraded=True,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            description="degraded (fallback) answers burning >10% budget",
        ),
    )


#: Buckets per fast window — the bucket width is ``fast_window_s / 6``,
#: the usual granularity trade-off (fine enough that the fast window
#: reacts within ~1/6 of its span, coarse enough to stay O(slow/fast)
#: buckets per rule).
FAST_BUCKETS = 6


class _RuleState:
    """Bucketed (total, bad) counts for one rule (engine lock held).

    The slow-window sums are kept running as buckets are added and pruned;
    the fast window is the newest :data:`FAST_BUCKETS` buckets, summed from
    the right when a pass needs it.
    """

    __slots__ = (
        "rule",
        "width",
        "keep",
        "buckets",
        "slow_total",
        "slow_bad",
        "firing",
        "fired_at",
        "firing_event",
    )

    def __init__(self, rule: BurnRateRule):
        self.rule = rule
        self.width = rule.fast_window_s / FAST_BUCKETS
        self.keep = int(math.ceil(rule.slow_window_s / self.width))
        self.buckets: deque = deque()  # [bucket_index, total, bad]
        self.slow_total = 0
        self.slow_bad = 0
        self.firing = False
        self.fired_at: float | None = None
        self.firing_event: dict | None = None

    def add(self, now: float, bad: bool) -> bool:
        """Count one sample; whether this rule could change state now."""
        self._count(int(now // self.width), 1, int(bad))
        return self.armed

    def add_good(self, runs: list[list[int]]) -> None:
        """Count good samples given as ``[bucket index, count]`` runs in
        clock order: what :meth:`add` would leave, one step per bucket."""
        for index, count in runs:
            self._count(index, count, 0)

    def _count(self, index: int, total: int, bad: int) -> None:
        buckets = self.buckets
        if buckets and buckets[-1][0] == index:
            newest = buckets[-1]
            newest[1] += total
            newest[2] += bad
        else:
            buckets.append([index, total, bad])
            horizon = index - self.keep
            while buckets[0][0] <= horizon:
                _, old_total, old_bad = buckets.popleft()
                self.slow_total -= old_total
                self.slow_bad -= old_bad
        self.slow_total += total
        self.slow_bad += bad

    @property
    def armed(self) -> bool:
        """Whether a sample could change this rule's state: it can
        resolve only while firing, and fire only with a bad sample in its
        slow window (or a burn threshold no burn rate is below)."""
        return (
            self.firing
            or self.slow_bad > 0
            or self.rule.burn_threshold <= 0
        )

    def window_counts(self, now: float) -> tuple[int, int, int, int]:
        """(fast_total, fast_bad, slow_total, slow_bad) as of ``now``."""
        fast_floor = int(now // self.width) - FAST_BUCKETS
        fast_total = fast_bad = 0
        for b, total, bad in reversed(self.buckets):
            if b <= fast_floor:
                break
            fast_total += total
            fast_bad += bad
        return fast_total, fast_bad, self.slow_total, self.slow_bad


def _bucket_runs(times: list[float], width: float) -> list[list[int]]:
    """``[bucket index, samples]`` runs of clock-ordered ``times``: one
    binary search per bucket, since the bucket index never decreases."""

    def bucket(now: float) -> int:
        return int(now // width)

    runs: list[list[int]] = []
    start = 0
    while start < len(times):
        index = bucket(times[start])
        stop = bisect_right(times, index, lo=start, key=bucket)
        runs.append([index, stop - start])
        start = stop
    return runs


class AlertEngine:
    """Evaluates burn-rate rules over a stream of serving outcomes.

    ``record()`` is called once per finished query (the server's serve
    envelope does this).  A good outcome while every rule is quiet only
    appends its clock reading to an inbox: no rule can change state on
    it.  The inbox is folded — its samples counted per bucket, in clock
    order — by every reader (:meth:`evaluate`, :meth:`active`,
    :meth:`history`, :meth:`snapshot`), whenever :data:`FOLD_AT` samples
    are waiting, and before any other record.  A bad outcome, or any
    outcome while a rule is firing or holds a bad sample, takes the
    per-record path: folded first, then counted, and evaluated when a
    rule could change state (see the module notes).  Thread-safe;
    fire/resolve callbacks run outside the lock and are
    exception-isolated.
    """

    def __init__(
        self,
        rules: tuple[BurnRateRule, ...] | None = None,
        clock=time.monotonic,
    ):
        self.rules = tuple(rules) if rules is not None else default_rules()
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.clock = clock
        self.on_fire: list = []
        self.on_resolve: list = []
        self._lock = threading.Lock()
        self._states = {rule.name: _RuleState(rule) for rule in self.rules}
        self._history: deque = deque(maxlen=MAX_HISTORY)
        self._records = 0
        self._evaluations = 0
        self._fired_total = 0
        #: Clock readings of good samples not yet folded.
        self._inbox: deque = deque()
        #: The latest clock reading counted, so a sample that raced in
        #: late never lands in a bucket older than the newest.
        self._last_now = -math.inf
        #: Whether some rule is armed (:attr:`_RuleState.armed`).
        self._armed = any(state.armed for state in self._states.values())
        #: What any rule counts as bad, so ``record()`` can tell a good
        #: outcome without asking every rule.
        self._bad_outcomes = frozenset(
            outcome for rule in self.rules for outcome in rule.bad_outcomes
        )
        self._bad_if_degraded = any(r.bad_if_degraded for r in self.rules)
        self._latency_bar = min(
            (
                rule.latency_over_ms
                for rule in self.rules
                if rule.latency_over_ms is not None
            ),
            default=math.inf,
        )

    # ------------------------------------------------------------------
    # Feeding

    def record(
        self,
        outcome: str,
        latency_ms: float = 0.0,
        degraded: bool = False,
    ) -> list[dict]:
        """Account one finished query; returns any fire/resolve events."""
        if not (
            self._armed
            or outcome in self._bad_outcomes
            or (degraded and self._bad_if_degraded)
            or latency_ms >= self._latency_bar
        ):
            inbox = self._inbox
            inbox.append(self.clock())
            if len(inbox) >= FOLD_AT:
                self.fold()
            return []
        with self._lock:
            transitions = self._fold_locked()
            now = max(self.clock(), self._last_now)
            bad = [r.is_bad(outcome, latency_ms, degraded) for r in self.rules]
            transitions += self._count_locked(now, bad)
        self._notify(transitions)
        return transitions

    def _count_locked(self, now: float, bad: list[bool]) -> list[dict]:
        """The per-record path: one sample per rule, evaluated when a rule
        could change state (lock held)."""
        self._last_now = now
        self._records += 1
        possible = False
        for state, is_bad in zip(self._states.values(), bad):
            possible |= state.add(now, is_bad)
        self._armed = possible
        if not possible:
            return []
        transitions = self._evaluate_locked(now)
        self._armed = any(state.armed for state in self._states.values())
        return transitions

    def fold(self) -> None:
        """Count every waiting good sample (what every reader does first)."""
        if not self._inbox:
            return
        with self._lock:
            transitions = self._fold_locked()
        self._notify(transitions)

    def _fold_locked(self) -> list[dict]:
        """Count every waiting good sample, in clock order (lock held).

        While a rule is armed (only when a sample raced in behind the
        record that armed it) samples take the per-record path; the rest
        cannot change any rule's state and are counted per bucket.
        """
        inbox = self._inbox
        if not inbox:
            return []
        pop = inbox.popleft
        times = [pop() for _ in range(len(inbox))]
        times.sort()
        if times[0] < self._last_now:
            last = self._last_now
            times = [max(now, last) for now in times]
        transitions: list[dict] = []
        good = [False] * len(self.rules)
        start = 0
        while start < len(times) and self._armed:
            transitions += self._count_locked(times[start], good)
            start += 1
        if start < len(times):
            times = times[start:]
            # Rules of one fast window share their bucket width.
            runs_of: dict[float, list[list[int]]] = {}
            for state in self._states.values():
                runs = runs_of.get(state.width)
                if runs is None:
                    runs = runs_of[state.width] = _bucket_runs(
                        times, state.width
                    )
                state.add_good(runs)
            self._records += len(times)
            self._last_now = times[-1]
        return transitions

    def evaluate(self) -> list[dict]:
        """Force an evaluation pass (e.g. on a health() poll)."""
        with self._lock:
            transitions = self._fold_locked()
            transitions += self._evaluate_locked(self.clock())
            self._armed = any(state.armed for state in self._states.values())
        self._notify(transitions)
        return transitions

    def _evaluate_locked(self, now: float) -> list[dict]:
        self._evaluations += 1
        transitions: list[dict] = []
        for rule in self.rules:
            state = self._states[rule.name]
            fast_total, fast_bad, slow_total, slow_bad = state.window_counts(
                now
            )
            fast_burn = (
                (fast_bad / fast_total) / rule.objective if fast_total else 0.0
            )
            slow_burn = (
                (slow_bad / slow_total) / rule.objective if slow_total else 0.0
            )
            burning = (
                slow_total >= rule.min_samples
                and fast_total > 0
                and fast_burn >= rule.burn_threshold
                and slow_burn >= rule.burn_threshold
            )
            if burning and not state.firing:
                state.firing = True
                state.fired_at = now
                self._fired_total += 1
                event = {
                    "state": "firing",
                    "rule": rule.name,
                    "description": rule.description,
                    "at": now,
                    "objective": rule.objective,
                    "burn_threshold": rule.burn_threshold,
                    "fast_burn": round(fast_burn, 4),
                    "slow_burn": round(slow_burn, 4),
                    "fast": {"total": fast_total, "bad": fast_bad},
                    "slow": {"total": slow_total, "bad": slow_bad},
                    "records": self._records,
                }
                state.firing_event = event
                self._history.append(event)
                transitions.append(event)
            elif state.firing and not burning:
                state.firing = False
                state.firing_event = None
                event = {
                    "state": "resolved",
                    "rule": rule.name,
                    "at": now,
                    "fired_at": state.fired_at,
                    "duration_s": (
                        now - state.fired_at
                        if state.fired_at is not None
                        else 0.0
                    ),
                    "records": self._records,
                }
                state.fired_at = None
                self._history.append(event)
                transitions.append(event)
        return transitions

    def _notify(self, transitions: list[dict]) -> None:
        for event in transitions:
            callbacks = (
                self.on_fire if event["state"] == "firing" else self.on_resolve
            )
            for callback in list(callbacks):
                try:
                    callback(event)
                except Exception:
                    pass

    # ------------------------------------------------------------------
    # Reading

    def active(self) -> tuple[dict, ...]:
        """Currently-firing alerts (their original firing events)."""
        self.fold()
        with self._lock:
            return tuple(
                state.firing_event
                for state in self._states.values()
                if state.firing and state.firing_event is not None
            )

    def history(self) -> tuple[dict, ...]:
        self.fold()
        with self._lock:
            return tuple(self._history)

    def snapshot(self) -> dict:
        """JSON-friendly engine state for ``health()`` and diag bundles."""
        self.fold()
        with self._lock:
            now = self.clock()
            rules = {}
            for rule in self.rules:
                state = self._states[rule.name]
                fast_total, fast_bad, slow_total, slow_bad = (
                    state.window_counts(now)
                )
                rules[rule.name] = {
                    "firing": state.firing,
                    "objective": rule.objective,
                    "burn_threshold": rule.burn_threshold,
                    "fast_burn": round(
                        (fast_bad / fast_total) / rule.objective
                        if fast_total
                        else 0.0,
                        4,
                    ),
                    "slow_burn": round(
                        (slow_bad / slow_total) / rule.objective
                        if slow_total
                        else 0.0,
                        4,
                    ),
                    "fast": {"total": fast_total, "bad": fast_bad},
                    "slow": {"total": slow_total, "bad": slow_bad},
                }
            return {
                "records": self._records,
                "evaluations": self._evaluations,
                "fired_total": self._fired_total,
                "firing_now": sorted(
                    name
                    for name, state in self._states.items()
                    if state.firing
                ),
                "rules": rules,
                "history": [dict(event) for event in self._history][-16:],
            }
