"""End-to-end benchmark of ``repro.server.OLAPServer``.

The driver's form — one workload, one JSON object on the last line::

    python3 benchmarks/e2e/run.py --workload dash_hot --seed 15 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off), ``--trace 1``
the per-layer metrics of a traced run.  A run is a fixed number of rounds
per workload, sized for ``run_seconds`` of ``BENCHMARK.json``; another
``--seconds`` scales the count, never below :data:`MIN_ROUNDS`.  Without
``--workload`` every workload runs both ways, each in a fresh process, and
the whole report is printed by name and unit (``--report FILE`` also saves
it).  ``--aa N`` makes N such sets and fails when two of them disagree by
more than a metric's bound; ``--compare A B`` reads two saved reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MIN_ROUNDS = 7
SMOKE_ROUNDS = 3

#: One BLAS/OpenMP thread and a fixed hash seed: the load generator is one
#: thread and dict order must not differ between two runs of one commit.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=15)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced op counts, 3 rounds: a functional check, not a measurement")
    p.add_argument("--aa", type=int, metavar="N")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--report", metavar="FILE")
    return p.parse_args(argv)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def round_count(workload, seconds: float | None) -> int:
    """Timed rounds of one run.  The count depends on the arguments only,
    never on how fast this machine is: both commits of a comparison take
    their medians over the same number of rounds."""
    run_seconds = benchmark_spec()["run_seconds"]
    if seconds is None:
        seconds = run_seconds
    return max(MIN_ROUNDS, round(workload.rounds * seconds / run_seconds))


def prefault(megabytes: int) -> None:
    """Touch the workload's expected peak memory once, in a child, before
    any timer: first-touch faults of a fresh VM otherwise land in set-up.
    A child, because this process's own ``ru_maxrss`` is a metric."""
    code = f"import numpy; numpy.ones({megabytes} << 20, dtype='u1')"
    subprocess.run([sys.executable, "-c", code], check=False)


def pin_and_reexec(workload) -> None:
    if os.environ.get("E2E_PINNED") == "1":
        return
    prefault(workload.prefault_mb)
    env = {**os.environ, **PINNED_ENV, "E2E_PINNED": "1"}
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def anon_huge_mb() -> float:
    """Transparent huge pages backing this process, where the kernel says."""
    try:
        with open("/proc/self/smaps_rollup") as fh:
            return sum(int(line.split()[1]) for line in fh if line.startswith("AnonHugePages")) / 1024
    except OSError:
        return 0.0


# ----------------------------------------------------------------------
# One workload, in this process


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: src/repro not found next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    pin_and_reexec(workload)
    import harness
    import metrics as catalogue
    import pins

    if args.smoke:
        workload, rounds = pins.smoke(workload), SMOKE_ROUNDS
    else:
        rounds = round_count(workload, args.seconds)
    ops = workloads.build_round(workload, args.seed)
    if not args.smoke:
        pins.check(workload, args.seed, ops)
    before = machine()
    if args.trace:
        trace_path = harness.OUT_DIR / f"trace_{workload.name}.json"
        values, tally, notes = harness.run_traced(workload, args.seed, ops, trace_path)
    else:
        values, tally, notes = harness.run_end_to_end(workload, args.seed, rounds, ops)
    notes["machine"] = {**before, "loadavg_after": os.getloadavg(),
                        "anon_huge_mb": anon_huge_mb()}
    print(f"# notes: {json.dumps(notes)}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload.name}/{name} = {value:.6g} {catalogue.UNITS[name]}", file=sys.stderr)
    for name, value in notes.get("raw", {}).items():
        print(f"{workload.name}/raw.{name} = {value:.6g} {catalogue.UNITS[name]}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": catalogue.UNITS[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


# ----------------------------------------------------------------------
# Sets of runs, each run a fresh process


def run_child(workload: str, seed: int, seconds, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    notes = [line for line in done.stderr.splitlines() if line.startswith("# notes: ")]
    result["raw"] = json.loads(notes[-1][len("# notes: "):]).get("raw", {}) if notes else {}
    return result


def run_set(args, seed: int) -> dict:
    """Every workload, untraced then traced: ``{workload: {metric: value}}``."""
    report = {}
    for spec in benchmark_spec()["workloads"]:
        name = spec["name"]
        row = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "raw": {}}
        for trace in (0, 1):
            result = run_child(name, seed, args.seconds, trace, args.smoke)
            row["correct"] &= result["correct"]
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row["metrics"].update(result["metrics"])
            row["raw"].update(result["raw"])
        report[name] = row
        for metric, cell in row["metrics"].items():
            print(f"{name}/{metric} = {cell['value']:.6g} {cell['unit']}")
            if metric in row["raw"]:
                print(f"{name}/raw.{metric} = {row['raw'][metric]:.6g} {cell['unit']}")
        print(f"{name}: attempted {row['attempted']}, failed {row['failed']}")
    return report


def bounds() -> dict:
    return {m["name"]: m for m in benchmark_spec()["end_to_end"]}


def run_all(args) -> int:
    report = {"machine": machine(), "sets": [run_set(args, args.seed)]}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if all(row["correct"] for row in report["sets"][0].values()) else 1


def run_aa(args) -> int:
    """N sets of the same code: the worst disagreement of each end-to-end
    metric, beside its bound (and, for a timing, the disagreement of the
    values as measured, before scaling to the reference machine speed)."""
    sets = [run_set(args, args.seed) for _ in range(args.aa)]
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"machine": machine(), "sets": sets}, fh, indent=1)
    worst_ok = all(row["correct"] for s in sets for row in s.values())
    def disagreement(values):
        return (max(values) - min(values)) / statistics.median(values)

    print(f"\n{'workload/metric':44s} {'min':>12s} {'max':>12s} {'disagree':>9s} "
          f"{'bound':>6s} {'raw':>7s}")
    for name, meta in bounds().items():
        for workload in sets[0]:
            values = [s[workload]["metrics"][name]["value"] for s in sets]
            raw = [s[workload]["raw"][name] for s in sets if name in s[workload]["raw"]]
            disagree = disagreement(values)
            flag = "" if disagree <= meta["bound"] else "  ABOVE BOUND"
            worst_ok &= not flag
            print(f"{workload + '/' + name:44s} {min(values):12.5g} {max(values):12.5g} "
                  f"{disagree:9.4f} {meta['bound']:6.2f} "
                  f"{format(disagreement(raw), '7.4f') if raw else '      -'}{flag}")
    return 0 if worst_ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric): both medians and quartiles, the
    bound, improved / unchanged / regressed / unresolved, and for a timing
    the change of the medians as measured (before scaling)."""
    with open(path_a) as fh:
        a = json.load(fh)["sets"]
    with open(path_b) as fh:
        b = json.load(fh)["sets"]
    regressed = False
    print(f"{'workload/metric':40s} {'A median [q1,q3]':>34s} {'B median [q1,q3]':>34s} "
          f"{'bound':>6s} {'verdict':10s} raw B/A")
    for name, meta in bounds().items():
        sign = 1.0 if meta["better"] == "lower" else -1.0
        for workload in a[0]:
            va = [s[workload]["metrics"][name]["value"] for s in a]
            vb = [s[workload]["metrics"][name]["value"] for s in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
            worse = sign * (mb - ma) / ma
            spread = max(a3 - a1, b3 - b1) / ma
            separated = (
                min(vb) > max(va) or max(vb) < min(va) if len(va) > 1 and len(vb) > 1 else False
            )
            if worse > meta["bound"]:
                verdict = "regressed"
            elif spread > meta["bound"] and not separated:
                verdict = "unresolved"
            elif -worse > spread and separated:
                verdict = "improved"
            else:
                verdict = "unchanged"
            regressed |= verdict == "regressed"
            ra = [s[workload]["raw"][name] for s in a if name in s[workload].get("raw", {})]
            rb = [s[workload]["raw"][name] for s in b if name in s[workload].get("raw", {})]
            raw = f"{statistics.median(rb) / statistics.median(ra):.3f}" if ra and rb else "-"
            print(f"{workload + '/' + name:40s} "
                  f"{ma:12.5g} [{a1:9.4g},{a3:9.4g}] {mb:12.5g} [{b1:9.4g},{b3:9.4g}] "
                  f"{meta['bound']:6.2f} {verdict:10s} {raw}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    args = parse(argv if argv is not None else sys.argv[1:])
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    if args.aa:
        return run_aa(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
