"""Tests for the ``python -m repro`` command-line entry point."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "923,521" in out
        assert "MISMATCH" not in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "{V3,V6,V7}" in out
        assert "MISMATCH" not in out

    def test_figure8_with_trials(self, capsys):
        assert main(["figure8", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean V/D" in out

    def test_figure9_quick(self, capsys):
        assert main(["figure9", "--trials", "1", "--budgets", "3"]) == 0
        out = capsys.readouterr().out
        assert "point b" in out or "cube only" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestStatsCLI:
    def test_stats_text(self, capsys):
        assert main(["stats", "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "view_cache_hits_total" in out
        assert "server.query" in out
        assert "cache hit rate" in out

    def test_stats_json_exposes_spans_and_cache_hits(self, capsys):
        import json

        assert main(["stats", "--json", "--queries", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        # The repeated aggregated-view queries were answered from cache.
        assert sum(metrics["view_cache_hits_total"]["values"].values()) > 0
        # Reconfiguration bumped the epoch gauge.
        assert metrics["server_epoch"]["values"][""] == 1.0
        # Per-stage spans with op counts are present.
        names = {s["name"] for s in payload["spans"]}
        assert {"server.query", "exec.node"} <= names
        query_spans = [
            s for s in payload["spans"] if s["name"] == "server.query"
        ]
        assert any(s["attributes"].get("cache_hits") for s in query_spans)
        assert all("duration_ms" in s for s in payload["spans"])
        assert payload["span_summary"]["server.query"]["count"] == len(
            query_spans
        )

    def test_stats_surfaces_update_patch_counters(self, capsys):
        import json

        assert main(["stats", "--json", "--queries", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        health = payload["health"]
        assert health["updates"] == 4.0  # one point + three bulk cells
        assert health["updates_cache_patched"] > 0
        assert health["updates_cache_cleared"] == 0.0
        metrics = payload["metrics"]
        assert (
            sum(
                metrics["server_update_cache_patched_total"][
                    "values"
                ].values()
            )
            > 0
        )
        names = {s["name"] for s in payload["spans"]}
        assert {"server.update", "update.propagate"} <= names


class TestUpdateCLI:
    def test_update_gate_passes(self, capsys):
        assert main(["update", "--shards", "1,2", "--seed", "23"]) == 0
        out = capsys.readouterr().out
        assert "BIT-IDENTICAL" in out
        assert "coarse_cleared=0" in out
        assert out.rstrip().endswith("PASS")

    def test_update_gate_json_and_output(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "update",
                    "--shards",
                    "1",
                    "--json",
                    "--output",
                    str(report_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert json.loads(report_path.read_text()) == payload

    def test_update_replays_a_trace_file(self, capsys, tmp_path):
        from repro.replay import save_trace
        from repro.workloads import flat_trace

        trace_path = tmp_path / "trace.json"
        save_trace(flat_trace(23, (8, 16, 16), 12), trace_path)
        assert (
            main(["update", "--shards", "1", "--trace", str(trace_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "trace_ops=13" in out  # 12 steps + the mid-trace reconfigure
        assert "PASS" in out


class TestRemovedTuningCLI:
    def test_tune_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tune"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    def test_shard_is_an_unknown_command(self, capsys):
        """``update --shards 1,2,4`` is the shard gate now."""
        with pytest.raises(SystemExit) as exit_info:
            main(["shard"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err

    def test_soak_has_no_tuning_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["soak", "--tuning", "x.json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tuning" in capsys.readouterr().err


class TestIntegerFlags:
    """A bad integer flag is a usage error naming it, not a traceback."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["chaos", "--seed", "-1"], "--seed"),
            (["update", "--seed", "-1"], "--seed"),
            (["diag", "--seed", "-1"], "--seed"),
            (["soak", "--seed", "-1"], "--seed"),
            (["soak", "--batches", "0"], "--batches"),
            (["figure9", "--budgets", "0"], "--budgets"),
            (["figure8", "--trials", "0"], "--trials"),
            (["trace", "--workers", "0"], "--workers"),
            (["update", "--shards", "3"], "--shards"),
            (["recover", "--shards", "1,3"], "--shards"),
            (["update", "--shards", "1,two"], "--shards"),
            (["stats", "--queries", "-1"], "--queries"),
            (["stats", "--seed", "x"], "--seed"),
        ],
    )
    def test_is_refused_with_a_usage_message(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}:" in err

    def test_stats_serves_on_the_first_shard_count(self, capsys):
        import json

        assert main(["stats", "--json", "--queries", "2", "--shards", "2,4"]) == 0
        health = json.loads(capsys.readouterr().out)["health"]
        assert health["shards"]["count"] == 2
