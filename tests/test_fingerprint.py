"""Workload fingerprinting: the decayed tracker, the fingerprint vector,
the per-site continuous profiler, and the section ``health()`` reports.
"""

import numpy as np
import pytest

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro import server as server_module
from repro.obs import Tracer, fingerprint
from repro.obs.fingerprint import (
    FingerprintTracker,
    SiteProfiler,
    WorkloadFingerprint,
)
from repro.server import OLAPServer
from repro.soak import SoakConfig, run_soak

TINY = SoakConfig(
    sizes=(16, 8, 4),
    batches=12,
    phase_batches=4,
    batch_size=3,
    burst_every=4,
    burst_cells=8,
)


class TestWorkloadFingerprint:
    def test_vector_and_distance(self):
        a = WorkloadFingerprint(view_frac=1.0)
        b = WorkloadFingerprint(rollup_frac=1.0)
        assert a.distance(a) == 0.0
        assert a.distance(b) == pytest.approx(2**0.5)
        assert len(a.to_vector()) == 6

    def test_dict_round_trip(self):
        fp = WorkloadFingerprint(0.5, 0.25, 0.25, 0.8, 0.3, 0.1)
        assert WorkloadFingerprint.from_dict(fp.to_dict()) == fp
        # Missing keys default to zero (forward compatibility).
        assert WorkloadFingerprint.from_dict({}) == WorkloadFingerprint()


class TestFingerprintTracker:
    def test_mix_fractions(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "DECAY", 1.0)
        tracker = FingerprintTracker()
        for _ in range(7):
            tracker.note_query("view")
        for _ in range(2):
            tracker.note_query("rollup")
        tracker.note_query("range")
        fp = tracker.fingerprint()
        assert fp.view_frac == pytest.approx(0.7)
        assert fp.rollup_frac == pytest.approx(0.2)
        assert fp.range_frac == pytest.approx(0.1)

    def test_empty_tracker_is_zero(self):
        assert FingerprintTracker().fingerprint() == WorkloadFingerprint()

    def test_unknown_kind_ignored(self):
        tracker = FingerprintTracker()
        tracker.note_query("mystery")
        assert tracker.queries == 0

    def test_decay_forgets_old_regime(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "DECAY", 0.5)
        tracker = FingerprintTracker()
        for _ in range(20):
            tracker.note_query("view")
        for _ in range(20):
            tracker.note_query("range")
        fp = tracker.fingerprint()
        # After 20 half-life ticks the view era is noise.
        assert fp.range_frac > 0.99

    def test_hot_share_reflects_skew(self, monkeypatch):
        # Key skew is read from the server's one per-element table (the
        # AccessTracker the serve envelope feeds), not a second one here.
        monkeypatch.setattr(server_module, "DECAY", 1.0)
        names = [f"d{i}" for i in range(4)]
        subsets = [
            [name for bit, name in enumerate(names) if mask >> bit & 1]
            for mask in range(16)
        ]

        def served(requests) -> dict:
            dims = [Dimension(name, list(range(4))) for name in names]
            cube = DataCube(np.ones((4, 4, 4, 4)), dims, measure="amount")
            with OLAPServer(cube) as server:
                for retained in requests:
                    server.view(retained)
                section = server.health()["fingerprint"]
                assert section["tracked_elements"] == len(
                    server.tracker.weights()
                )
                return section

        skewed = served([subsets[3]] * 40 + [subsets[5]] * 40)
        uniform = served(subsets * 5)
        hot_top = uniform["hot_top"]
        assert skewed["tracked_elements"] == 2
        assert skewed["fingerprint"]["hot_share"] == pytest.approx(1.0)
        assert uniform["tracked_elements"] == 16
        assert uniform["fingerprint"]["hot_share"] == pytest.approx(
            hot_top / 16
        )

    def test_ingest_and_divergence_norms(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "DECAY", 1.0)
        tracker = FingerprintTracker()
        tracker.note_query("view")
        tracker.note_ingest(3)
        fp = tracker.fingerprint()
        assert fp.ingest_norm == pytest.approx(3 / 4)  # rate 3 -> 0.75
        tracker.note_divergence(1.0)
        assert tracker.fingerprint().divergence_norm == pytest.approx(0.5)

    def test_snapshot_shape(self):
        tracker = FingerprintTracker()
        tracker.note_query("view")
        snap = tracker.snapshot(hot_share=0.25)
        # health() adds the sixth key, ``tracked_elements``, from the
        # server's AccessTracker.
        assert set(snap) == {
            "fingerprint",
            "queries",
            "ingest_batches",
            "decay",
            "hot_top",
        }
        assert snap["queries"] == 1
        assert snap["fingerprint"]["hot_share"] == 0.25


class TestSiteProfiler:
    def test_sites_accumulate_past_tracer_ring(self):
        tracer = Tracer(max_spans=4)  # tiny ring: spans evict fast
        profiler = SiteProfiler(tracer)
        with tracer.activate():
            for _ in range(50):
                with tracer.span("materialize.assemble"):
                    pass
        snap = profiler.snapshot()
        site = snap["materialize.assemble"]
        assert site["count"] == 50  # profiler never forgot evicted spans
        assert site["p50_ms"] >= 0.0
        assert site["p95_ms"] >= site["p50_ms"]
        assert site["max_ms"] >= site["p95_ms"]
        profiler.close()

    def test_site_table_bounded(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "MAX_SITES", 2)
        tracer = Tracer()
        profiler = SiteProfiler(tracer)
        with tracer.activate():
            for name in ("a", "b", "c", "d"):
                with tracer.span(name):
                    pass
        snap = profiler.snapshot()
        assert snap["_overflow_sites"] == 2
        assert set(snap) == {"a", "b", "_overflow_sites"}
        profiler.close()

    def test_close_detaches(self):
        tracer = Tracer()
        profiler = SiteProfiler(tracer)
        profiler.close()
        with tracer.activate():
            with tracer.span("late"):
                pass
        assert profiler.snapshot() == {}


class TestRoundTrip:
    def test_health_without_library_has_no_nearest(self):
        report = run_soak(TINY)
        section = report["fingerprint"]
        assert section is not None
        assert "nearest_profile" not in section
