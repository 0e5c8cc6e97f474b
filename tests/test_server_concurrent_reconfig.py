"""Concurrent reconfiguration vs. readers: snapshot-consistency of serving.

:meth:`OLAPServer.reconfigure` swaps the whole serving state —
``(materialized, range_engine, epoch, cache)`` — in one reference
assignment.  These tests hammer that swap with reader threads and assert
every answer is bit-identical to the fault-free expectation: a reader must
see either the old configuration or the new one in full, never a mix
(e.g. a new materialized set with an old epoch's cache entries).

The cube holds integer values, so every assembly route — including
re-routes chosen mid-swap — is exact in float64 and the bit-identity
assertion is meaningful.
"""

import threading

import numpy as np

from repro.replay import seeded_cube
from repro.server import OLAPServer


def _make_server(seed=5, sizes=(8, 8), **kwargs):
    return OLAPServer(seeded_cube(seed, sizes), **kwargs)


def _expected_answers(seed=5, sizes=(8, 8)):
    """Fault-free single-threaded answers for every view request."""
    server = _make_server(seed=seed, sizes=sizes)
    requests = [[], ["d0"], ["d1"], ["d0", "d1"]]
    return requests, {
        tuple(request): server.view(request).tobytes() for request in requests
    }


class TestConcurrentReconfigure:
    #: Overridden by the sharded subclass; the expectations stay
    #: monolithic either way, so the sharded run doubles as a concurrent
    #: differential check.
    server_kwargs: dict = {}

    def _run(self, serve, reconfigures=6, readers=4):
        """Drive ``serve(request)`` from reader threads across reconfigs."""
        requests, expected = _expected_answers()
        stop = threading.Event()
        mismatches: list = []
        errors: list = []

        def reader(index: int):
            i = index
            while not stop.is_set():
                request = requests[i % len(requests)]
                i += 1
                try:
                    answers = serve(request)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(f"{type(exc).__name__}: {exc}")
                    return
                if answers != expected[tuple(request)]:
                    mismatches.append(tuple(request))
                    return

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(readers)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(reconfigures):
                self.server.reconfigure()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors, errors
        assert not mismatches, mismatches

    def test_views_stay_bit_identical_across_reconfigurations(self):
        self.server = _make_server(**self.server_kwargs)

        def serve(request):
            return self.server.view(request).tobytes()

        self._run(serve)
        assert self.server.epoch >= 6

    def test_batches_stay_bit_identical_across_reconfigurations(self):
        self.server = _make_server(**self.server_kwargs)

        def serve(request):
            answers = self.server.query_batch([request, ["d0"]])
            return answers[0].tobytes()

        requests, expected = _expected_answers()

        def serve_checked(request):
            blob = serve(request)
            # Also pin the second slot of every batch.
            second = self.server.query_batch([request, ["d0"]])[1].tobytes()
            assert second == expected[("d0",)]
            return blob

        self._run(serve_checked, reconfigures=4, readers=3)

    def test_epoch_and_materialized_swap_together(self):
        server = _make_server(**self.server_kwargs)
        seen: list = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                state = server._state
                # One snapshot object is internally consistent by
                # construction; the public properties must agree with it
                # when read through a single reference.
                seen.append(
                    (state.epoch, state.materialized is state.materialized)
                )

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(5):
                server.reconfigure()
        finally:
            stop.set()
            thread.join(timeout=10)
        epochs = [epoch for epoch, _ in seen]
        assert epochs == sorted(epochs)  # epochs only move forward

    def test_range_sums_survive_reconfiguration(self):
        server = _make_server(**self.server_kwargs)
        expected = server.range_sum(((1, 7), (2, 6)))
        stop = threading.Event()
        bad: list = []

        def reader():
            while not stop.is_set():
                value = server.range_sum(((1, 7), (2, 6)))
                if value != expected:
                    bad.append(value)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(4):
                server.reconfigure()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not bad, bad


class TestConcurrentUpdates:
    """Updates racing reconfigure: no delta may miss the next snapshot.

    Regression: :meth:`OLAPServer.update` used to mutate ``cube.values``
    after patching the snapshot's materialized set *outside* the
    reconfigure lock, so a concurrent ``reconfigure()`` could rebuild the
    new serving state from a base cube that had the stored-set half of an
    in-flight delta but not the base-cube half (or vice versa).  Updates
    now run under the same ordering guarantee as the snapshot swap; after
    any interleaving, the cube and every served view must carry exactly
    the sum of all applied deltas.
    """

    server_kwargs: dict = {}

    def _hammer(self, updaters=2, updates_each=40, reconfigures=8):
        server = _make_server(**self.server_kwargs)
        base = server.cube.values.copy()
        applied = np.zeros_like(base)
        lock = threading.Lock()
        errors: list = []

        def updater(worker: int):
            rng = np.random.default_rng(worker)
            try:
                for step in range(updates_each):
                    i = int(rng.integers(0, base.shape[0]))
                    j = int(rng.integers(0, base.shape[1]))
                    delta = float(rng.integers(1, 5))
                    if step % 3 == 2:
                        server.update_many(
                            np.array([[i, j], [0, 0]]), [delta, 1.0]
                        )
                        with lock:
                            applied[i, j] += delta
                            applied[0, 0] += 1.0
                    else:
                        server.update(delta, d0=i, d1=j)
                        with lock:
                            applied[i, j] += delta
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=updater, args=(w,))
            for w in range(updaters)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(reconfigures):
                server.reconfigure()
        finally:
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors
        return server, base + applied

    def test_no_delta_is_lost_across_reconfigurations(self):
        server, expected = self._hammer()
        assert np.array_equal(server.cube.values, expected)
        # Served answers must reflect every delta too — the materialized
        # set the last reconfigure built, plus any updates patched into
        # it afterwards.
        assert np.array_equal(
            server.view(["d0"]).ravel(), expected.sum(axis=1)
        )
        assert np.array_equal(
            server.view(["d0", "d1"]), expected
        )
        assert server.range_sum(((0, 8), (0, 8))) == expected.sum()


class TestShardedConcurrentUpdates(TestConcurrentUpdates):
    server_kwargs = {"shards": 2}


class TestShardedConcurrentReconfigure(TestConcurrentReconfigure):
    """The same hammer against a two-shard server.

    ``sizes=(8, 8)`` shards along axis 1 (largest extent, ties break to
    the last axis).  Expectations are still computed monolithically, so
    every reader doubles as a scatter-gather differential check while
    ``reconfigure`` migrates both shards' selections mid-flight.
    """

    server_kwargs = {"shards": 2}

    def test_shard_epochs_advance_with_reconfiguration(self):
        server = _make_server(**self.server_kwargs)
        before = server._state.materialized.epochs
        server.reconfigure()
        after = server._state.materialized.epochs
        assert len(after) == 2
        assert all(b < a for b, a in zip(before, after))

    def test_quarantined_shard_reroutes_under_concurrent_readers(self):
        """Corrupt one shard's root copy, then hammer it with concurrent
        batch readers across reconfigurations: the damaged shard must
        degrade to its base slab without a single wrong byte and without
        taking down the server."""
        from repro.resilience.faults import FaultInjector, FaultRule

        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.store",
                    kind="corrupt",
                    probability=1.0,
                    start_after=1,
                    max_fires=1,
                )
            ],
            seed=13,
        )
        with injector.activate():
            # Constructor stores the root shard by shard: shard 1's copy
            # is the second store invocation and gets damaged.
            self.server = _make_server(**self.server_kwargs)

            def serve(request):
                return self.server.query_batch([request])[0].tobytes()

            self._run(serve, reconfigures=4, readers=3)
        assert (
            self.server.metrics.counter("integrity_failures_total").total()
            >= 1
        )
