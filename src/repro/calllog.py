"""The served-call log: a served call appends one record, readers fold it.

The paper prices a cached answer at zero scalar operations, so on a hot
dashboard the bookkeeping around an answer is most of what the query
costs.  An :class:`~repro.server.OLAPServer` call that is served appends
one tuple, ``(kind, queries, operations, tracked, latency_ms, now)``, to
its :class:`CallLog`, and so does an update burst: ``("ingest", cells, 0,
(), None, None)``, its fingerprint note.  :meth:`CallLog.fold` replays the
records, in arrival order, through the writes each call used to make:

- the ``server_queries_total`` and ``server_operations_total`` counters;
- the ``server_latency_ms{outcome="ok"}`` histogram;
- :class:`ServerStats`;
- one :class:`~repro.core.adaptive.AccessTracker` record per tracked
  element, all in one :meth:`~repro.core.adaptive.AccessTracker.
  record_many` call per fold;
- the fingerprint's query ticks and ingest notes, in call order, one lock
  hold per fold (an ingest record writes nothing else);
- the burn-rate engine's good sample, at ``now``, the engine clock's
  reading at call time (``None`` when there is no engine, or the call was
  recorded at once: :meth:`~repro.obs.alerts.AlertEngine.defer`).

It runs whenever one of them is read — a metrics-registry read (a pre-read
hook), a ``stats``, tracker or alert-engine read, the server's own readers
— and when :data:`FOLD_AT` records wait.  Aggregating at read time over an
append-only log is the column-store move of *Scalable Data Cube Analysis
over Big Data* (PAPERS.md).
"""

from __future__ import annotations

from collections import deque

__all__ = ["CallLog", "ServerStats"]

#: Records waiting in the log before the serving thread folds them itself,
#: without waiting for a reader.
FOLD_AT = 1024


class ServerStats:
    """Cumulative service statistics.

    ``queries`` and ``operations`` are folded from the call log when they
    are read (``_pre_read``), so a reference held across calls reads exact
    totals.
    """

    #: The owning log's fold, run before ``queries`` / ``operations``.
    _pre_read = None

    def __init__(self):
        self._queries = 0
        self._operations = 0
        self.reconfigurations = 0
        self.last_expected_cost = float("nan")

    def _before_read(self) -> None:
        if self._pre_read is not None:
            self._pre_read()

    @property
    def queries(self) -> int:
        """Served queries (a batch counts its members)."""
        self._before_read()
        return self._queries

    @property
    def operations(self) -> int:
        """Scalar operations spent on served queries."""
        self._before_read()
        return self._operations

    @property
    def operations_per_query(self) -> float:
        """Mean scalar operations per served query."""
        self._before_read()
        return self._operations / self._queries if self._queries else 0.0


class CallLog:
    """One record per served call, and the fold that accounts for it.

    ``series`` holds the server's bound series (``queries_of[kind]``,
    ``latency_ok_of[kind]``, ``latency``, ``operations``).  The log sets
    itself as the pre-read hook of ``stats``, ``tracker`` and ``alerts``
    (``None`` without an engine).  ``lock``
    guards the fold, and so both of them; it is re-entrant, so a reader
    that holds it may read through the tracker's hook.  The fold drains
    with ``popleft`` over the records present when it starts, so a record
    appended meanwhile waits for the next fold and none is lost.
    """

    def __init__(self, series, tracker, fingerprints, alerts, lock):
        self.records: deque = deque()
        self.stats = ServerStats()
        self.lock = lock
        self._series = series
        self._tracker = tracker
        self._fingerprints = fingerprints
        self._alerts = alerts
        tracker._pre_read = self.stats._pre_read = self.fold
        if alerts is not None:
            alerts._pre_read = self.fold

    def append(self, record: tuple) -> None:
        """Log one served call; fold once :data:`FOLD_AT` records wait."""
        records = self.records
        records.append(record)
        if len(records) >= FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Account every waiting record, in arrival order."""
        records = self.records
        with self.lock:
            if not records:
                return
            series = self._series
            queries_of, latency_of = series.queries_of, series.latency_ok_of
            pop = records.popleft
            operations = 0
            queries: dict[str, int] = {}  # per kind
            notes = []  # per record, for the fingerprint's ticks
            times = []
            accessed = []  # every tracked element, in order
            for _ in range(len(records)):
                kind, n, spent, tracked, latency_ms, now = pop()
                notes.append((kind, n))
                if latency_ms is None:
                    continue  # a burst's ingest note, nothing else
                queries[kind] = queries.get(kind, 0) + n
                latency_of[kind].observe(latency_ms)
                operations += spent
                accessed += tracked
                if now is not None:
                    times.append(now)
            self._tracker.record_many(accessed)
            self._fingerprints.note(notes)
            for kind, n in queries.items():
                queries_of[kind].inc(n)
            self.stats._queries += sum(queries.values())
            self.stats._operations += operations
            series.operations.inc(operations)
            if times:
                # Under the lock, so samples reach the engine in arrival
                # order; its callbacks run once every record is accounted.
                self._alerts.record_good(times)

    def failed(
        self,
        kind: str,
        queries: int,
        started: bool,
        outcome: str,
        latency_ms: float,
    ) -> None:
        """A call that timed out, was rejected, invalid or failed: fold the
        log, then write its counts at once, so they stay in order.  It is
        counted as asked once ``started`` — admitted and its deadline
        parsed, where its span opens when the server traces, with tracing
        on or off alike — and never as served."""
        self.fold()
        series = self._series
        if started:
            series.queries_of[kind].inc(queries)
            self._fingerprints.note_query(kind, queries)
        series.latency.observe(latency_ms, kind=kind, outcome=outcome)
