"""Tests of the benchmark itself: ``pytest benchmarks/e2e`` (not tier-1)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics as catalogue  # noqa: E402
import pins  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Load: seeded, pinned


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_trace_is_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    a = workloads.build_round(workload, 7)
    b = workloads.build_round(workload, 7)
    c = workloads.build_round(workload, 8)
    assert workloads.trace_digest(a) == workloads.trace_digest(b)
    # The seed draws the data: the cube, and the deltas of a workload that
    # writes.  The shape of the round is the same whatever the seed.
    assert not np.array_equal(
        workloads.cube_values(workload, 7), workloads.cube_values(workload, 8)
    )
    writes = "update_many" in workload.counts
    assert (workloads.trace_digest(a) != workloads.trace_digest(c)) == writes
    for ops in (a, c):
        kinds = [kind for kind, _ in ops]
        assert {k: kinds.count(k) for k in workload.counts} == workload.counts
    assert [kind for kind, _ in a] == [kind for kind, _ in c]


def test_default_seed_matches_the_pins():
    assert pins.current() == pins.load()


def test_a_changed_generator_aborts_the_run():
    workload = workloads.WORKLOADS["dash_hot"]
    ops = workloads.build_round(workload, workloads.DEFAULT_SEED)
    pins.check(workload, workloads.DEFAULT_SEED, ops)
    with pytest.raises(SystemExit):
        pins.check(workload, workloads.DEFAULT_SEED, ops[:-1])


def test_view_schedule_is_smooth():
    order = workloads.smooth_schedule(workloads.VIEW_WEIGHTS)
    assert [order.count(i) for i in range(8)] == list(workloads.VIEW_WEIGHTS)
    # The heaviest view (8 of 30 slots) is spread out, not bunched.
    heavy = [i for i, v in enumerate(order * 2) if v == 1]
    assert max(b - a for a, b in zip(heavy, heavy[1:])) <= 5


# ----------------------------------------------------------------------
# Tail percentile


def test_tail_rule():
    assert workloads.tail_rule(4000) == 99
    assert workloads.tail_rule(1000) == 99
    assert workloads.tail_rule(999) == 95
    assert workloads.tail_rule(200) == 95
    assert workloads.tail_rule(199) == 90
    assert workloads.tail_rule(100) == 90
    with pytest.raises(ValueError):
        workloads.tail_rule(99)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tail_percentile_is_fixed_by_the_rule(name):
    workload = workloads.WORKLOADS[name]
    assert workload.tail_percentile == workloads.tail_rule(
        workloads.reads_per_round(workload)
    )


# ----------------------------------------------------------------------
# Rounds and the machine probe


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_round_count_is_fixed_by_the_arguments(name):
    import run

    workload = workloads.WORKLOADS[name]
    run_seconds = spec()["run_seconds"]
    assert run.round_count(workload, None) == workload.rounds >= run.MIN_ROUNDS
    assert run.round_count(workload, run_seconds) == workload.rounds
    assert run.round_count(workload, 2 * run_seconds) == 2 * workload.rounds
    assert run.round_count(workload, 1) == run.MIN_ROUNDS


@pytest.mark.parametrize("memory_bound", [False, True])
def test_a_busy_thread_of_the_program_does_not_slow_the_probe(memory_bound):
    # A probe that released the interpreter lock would wait a switch
    # interval for it each time (measured: 270x slower) and the scaling
    # would turn such a regression into a gain.
    import threading

    import harness

    probe = harness.MachineProbe(memory_bound)
    quiet = harness.median([probe.sample() for _ in range(60)])
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        busy = harness.median([probe.sample() for _ in range(60)])
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert busy < 2 * quiet


def test_scaling_to_the_reference_speed():
    import harness

    values = {"view_p50_ms": 3.0, "ops_per_s": 100.0, "scalar_ops_per_query": 7.0,
              "update_wall_share": 0.5, "slowness": 1.5}
    assert harness.at_reference(values) == {
        "view_p50_ms": 2.0, "ops_per_s": 150.0, "scalar_ops_per_query": 7.0,
        "update_wall_share": 0.5, "slowness": 1.5,
    }


# ----------------------------------------------------------------------
# Span arithmetic


def test_self_time_is_duration_minus_child_coverage():
    # parent 0..10; two overlapping children on pool threads (1..4, 3..6),
    # one child running past the parent's end (8..12), one grandchild.
    spans = [
        ["parent", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["b", 3.0, 6.0, 0, 1, None],
        ["late", 8.0, 12.0, 0, 1, None],
        ["grandchild", 1.5, 2.5, 1, 1, None],
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    summary = tracing.summarize(spans)
    assert summary["parent"] == {"count": 1, "total_s": 10.0, "self_s": pytest.approx(3.0)}


def test_union_length():
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (3.2, 3.4)]) == pytest.approx(3.0)
    assert tracing.union_length([]) == 0.0


# ----------------------------------------------------------------------
# Wrappers


def test_wrappers_record_nested_spans_and_are_fully_removed():
    import harness
    import repro.core.exec as exec_module
    import repro.core.materialize as materialize_module
    from repro.obs.cache import LRUCache
    from repro.server import OLAPServer

    originals = (
        OLAPServer.__dict__["view"],
        OLAPServer.__dict__["restore"],
        LRUCache.__dict__["get"],
        exec_module.execute_plan,
        materialize_module.execute_plan,
    )
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        assert materialize_module.execute_plan is exec_module.execute_plan
        assert materialize_module.execute_plan is not originals[3]
        workload = pins.smoke(workloads.WORKLOADS["miss_mix"])
        server = harness.make_server(workload, workloads.cube_values(workload, 1))
        server.rollup_batch([{"d0": 1, "d1": 1}, {"d0": 2}])
        server.close()
    finally:
        installed.remove()
    assert not recorder.warnings
    assert (
        OLAPServer.__dict__["view"],
        OLAPServer.__dict__["restore"],
        LRUCache.__dict__["get"],
        exec_module.execute_plan,
        materialize_module.execute_plan,
    ) == originals
    assert harness._still_wrapped() == []
    names = [s[tracing.NAME] for s in recorder.spans]
    assert names[0] == "server.rollup_batch"
    assert "exec.execute_plan" in names and "cache.get" in names
    root_trace = recorder.spans[0][tracing.TRACE]
    assert all(s[tracing.TRACE] == root_trace for s in recorder.spans)
    assert all(s[tracing.END] >= s[tracing.START] for s in recorder.spans)


def test_recorder_keeps_every_span_whole_under_concurrent_begins():
    # Four threads on two cores, switching every microsecond: an index taken
    # and a span appended in two steps would hand one thread another's span.
    import threading

    recorder = tracing.Recorder()
    per_thread, threads = 20000, 4

    def work():
        for _ in range(per_thread):
            index, token = recorder.begin("leaf")
            recorder.end(index, token)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(recorder.spans) == per_thread * threads and recorder.dropped == 0
    assert all(s[tracing.END] >= s[tracing.START] > 0 for s in recorder.spans)


def test_a_missing_layer_point_is_a_warning_not_a_crash():
    recorder = tracing.Recorder()
    gone = tracing.Point("gone.fn", "repro.core.exec", "no_such_function")
    tracing.install(recorder, points=(gone,)).remove()
    assert len(recorder.warnings) == 1 and "gone.fn" in recorder.warnings[0]


# ----------------------------------------------------------------------
# BENCHMARK.json and the output schema


def test_benchmark_json_matches_the_catalogue():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [row[:4] for row in catalogue.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in catalogue.PER_LAYER
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [w["name"] for w in doc["workloads"]])
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60


def run_smoke(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_the_contract_schema(name):
    doc = spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run_smoke(name, trace)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in doc[section]}
        units = {m["name"]: m["unit"] for m in doc[section]}
        for metric, cell in result["metrics"].items():
            assert set(cell) == {"value", "unit"} and cell["unit"] == units[metric]
            assert isinstance(cell["value"], (int, float))
            if section == "end_to_end":
                assert cell["value"] > 0, metric
        if trace:
            assert result["metrics"]["trace.dropped"]["value"] == 0
            assert result["metrics"]["verify.mismatches"]["value"] == 0
            assert (HERE / "out" / f"trace_{name}.json").is_file()
    assert not list((HERE / "out").glob("tmp-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_smoke("dash_hot", 0, cwd=tmp_path,
                     script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
