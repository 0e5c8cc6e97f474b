"""Deterministic SLO-triage gate: predictable alert → bundle → evidence.

The acceptance harness for the incident-observability layer
(:mod:`repro.obs.flight` / :mod:`repro.obs.alerts`).  It replays the same
deterministic query script twice against servers whose alert engine runs
on a hand-advanced :class:`~repro.obs.alerts.ManualClock`:

- a **healthy** run with no faults, which must fire **zero** alerts, and
- a **faulted** run with a seeded probability-1 error rule at
  ``materialize.assemble`` from query ``fail_from`` onward (and a
  zero-retry server, so every fault is a served error), where the
  burn-rate alert must fire on an **analytically predictable** query
  index.

Predictability is the point: the script serves one distinct roll-up per
query (every query is a cache miss → exactly one assemble invocation →
the fault schedule aligns 1:1 with query indices) and advances the clock
by exactly one alert bucket per query, so a closed-form reference loop
(:func:`predicted_fire_index`) — written against the *definition* of
multi-window burn rate, not the engine — computes the firing query, and
the gate asserts the engine agrees.

The firing alert auto-dumps a diagnostic bundle (the server is built with
a ``diagnostics_dir``); the gate then validates the bundle
(:func:`~repro.obs.flight.validate_bundle`) and asserts tail sampling
kept an exemplar trace of a *faulted* query (keep reason ``error``).

``python -m repro diag [--check] [--json] [--output DIR]`` drives this.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import TransientFault
from ..obs.alerts import FAST_BUCKETS, AlertEngine, BurnRateRule, ManualClock
from ..obs.flight import load_bundle, validate_bundle
from ..replay import seeded_cube
from .faults import FaultInjector, FaultRule

__all__ = [
    "TriageConfig",
    "predicted_fire_index",
    "render_triage_report",
    "run_triage",
]


@dataclass(frozen=True)
class TriageConfig:
    """Knobs of one triage replay (defaults are the CI gate)."""

    seed: int = 7
    sizes: tuple[int, ...] = (16, 16, 8)
    #: Distinct roll-up queries served (must fit the level universe).
    queries: int = 40
    #: First query index (0-based) whose assembly faults.
    fail_from: int = 12
    #: Clock advance per query — exactly one alert bucket
    #: (``fast_window_s / 6``), so each query lands in its own bucket.
    fast_window_s: float = 60.0
    slow_window_s: float = 600.0
    #: Error budget: the alert fires once errors exceed this fraction in
    #: both windows.
    objective: float = 0.25
    burn_threshold: float = 1.0
    min_samples: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.fail_from < self.queries:
            raise ValueError("fail_from must be inside the query script")
        # Every query must stay inside the slow window, or the closed-form
        # reference (which assumes the slow window sees everything) lies.
        if self.queries * self.bucket_s > self.slow_window_s:
            raise ValueError(
                "query script outruns the slow window; shrink queries or "
                "widen slow_window_s"
            )

    @property
    def bucket_s(self) -> float:
        return self.fast_window_s / FAST_BUCKETS

    @property
    def rule(self) -> BurnRateRule:
        return BurnRateRule(
            name="triage-errors",
            objective=self.objective,
            burn_threshold=self.burn_threshold,
            fast_window_s=self.fast_window_s,
            slow_window_s=self.slow_window_s,
            min_samples=self.min_samples,
            bad_outcomes=("error", "timeout"),
            description="seeded triage gate: served errors burning budget",
        )


def predicted_fire_index(config: TriageConfig) -> int | None:
    """The 0-based query index the alert must fire on — closed form.

    Mirrors the burn-rate *definition*: query ``i`` occupies its own
    bucket, so after ``i`` the slow window holds ``i + 1`` outcomes of
    which ``max(0, i - fail_from + 1)`` are bad, and the fast window the
    most recent ``min(i + 1, 6)``.  Independent of the engine's
    internals, so an engine bug cannot hide in the expectation.
    """
    for i in range(config.queries):
        total = i + 1
        bad = max(0, i - config.fail_from + 1)
        fast_total = min(total, FAST_BUCKETS)
        fast_bad = min(bad, fast_total)
        fast_burn = (fast_bad / fast_total) / config.objective
        slow_burn = (bad / total) / config.objective
        if (
            total >= config.min_samples
            and fast_burn >= config.burn_threshold
            and slow_burn >= config.burn_threshold
        ):
            return i
    return None


def _query_script(config: TriageConfig) -> list[dict]:
    """``queries`` *distinct* roll-ups: every serve is a cache miss, so
    assemble-invocation counts align 1:1 with query indices."""
    # Imported lazily: repro.workloads sits above the packages that
    # import repro.resilience.
    from ..workloads.traces import rollup_universe

    script = rollup_universe(config.sizes)
    if len(script) < config.queries:
        raise ValueError(
            f"level universe holds {len(script)} roll-ups < "
            f"{config.queries} queries; use a deeper cube"
        )
    return script[: config.queries]


def _run_once(
    config: TriageConfig,
    faulted: bool,
    diagnostics_dir: Path,
) -> dict:
    """One replay; returns engine/bundle evidence for the report."""
    from ..server import OLAPServer

    clock = ManualClock()
    engine = AlertEngine(rules=(config.rule,), clock=clock)
    server = OLAPServer(
        seeded_cube(config.seed, config.sizes),
        max_retries=0,
        alerts=engine,
        diagnostics_dir=diagnostics_dir,
    )
    injector = None
    if faulted:
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="error",
                    probability=1.0,
                    error=TransientFault,
                    start_after=config.fail_from,
                )
            ],
            seed=config.seed,
        )
    script = _query_script(config)
    errors = 0
    fired_index: int | None = None
    try:
        for index, levels in enumerate(script):
            clock.advance(config.bucket_s)
            try:
                if injector is not None:
                    with injector.activate():
                        server.rollup(levels)
                else:
                    server.rollup(levels)
            except TransientFault:
                errors += 1
        for event in engine.history():
            if event["state"] == "firing":
                # records counts queries fed so far; the query index that
                # tripped the rule is one less.
                fired_index = int(event["records"]) - 1
                break
        health = server.health()
        return {
            "errors": errors,
            "fired_index": fired_index,
            "alerts_fired": engine.snapshot()["fired_total"],
            "firing_now": health["alerts"]["firing_now"],
            "flight_kept": health["flight"]["kept"],
            "bundles": sorted(
                str(p.name) for p in diagnostics_dir.glob("diag-*")
            ),
        }
    finally:
        server.close()


def run_triage(
    config: TriageConfig | None = None,
    directory: str | Path | None = None,
) -> dict:
    """The full gate: healthy and faulted replays plus bundle validation.

    ``directory`` receives the auto-dumped diagnostic bundles (a
    temporary directory is used — and discarded — when omitted).  Returns
    a JSON-friendly report whose ``ok`` aggregates every check.
    """
    config = config if config is not None else TriageConfig()
    predicted = predicted_fire_index(config)
    if predicted is None:
        raise ValueError(
            "triage config never fires; raise fail_from/queries coherence"
        )
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(directory) if directory is not None else Path(scratch)
        healthy_dir = base / "healthy"
        faulted_dir = base / "faulted"
        healthy_dir.mkdir(parents=True, exist_ok=True)
        faulted_dir.mkdir(parents=True, exist_ok=True)
        healthy = _run_once(config, faulted=False, diagnostics_dir=healthy_dir)
        faulted = _run_once(config, faulted=True, diagnostics_dir=faulted_dir)
        bundle_report: dict = {"path": None, "problems": ["no bundle dumped"]}
        if faulted["bundles"]:
            bundle_path = faulted_dir / faulted["bundles"][0]
            problems = validate_bundle(bundle_path)
            bundle = load_bundle(bundle_path)
            exemplars = bundle.get("exemplar_traces") or []
            error_exemplars = [
                t for t in exemplars if t.get("reason") == "error"
            ]
            if not error_exemplars:
                problems = list(problems) + [
                    "bundle holds no error-reason exemplar trace"
                ]
            bundle_report = {
                "path": str(bundle_path),
                "problems": problems,
                "exemplars": len(exemplars),
                "error_exemplars": len(error_exemplars),
                "trigger": bundle.get("manifest", {}).get("trigger"),
            }
        checks = {
            "healthy_zero_alerts": healthy["alerts_fired"] == 0,
            "faulted_alert_fired": faulted["alerts_fired"] >= 1,
            "fired_on_predicted_query": faulted["fired_index"] == predicted,
            "bundle_valid": not bundle_report["problems"],
            "bundle_has_faulted_exemplar": (
                bundle_report.get("error_exemplars", 0) >= 1
            ),
        }
        return {
            "ok": all(checks.values()),
            "checks": checks,
            "predicted_fire_index": predicted,
            "healthy": healthy,
            "faulted": faulted,
            "bundle": bundle_report,
            "config": {
                **asdict(config),
                "sizes": list(config.sizes),
                "bucket_s": config.bucket_s,
            },
        }


def render_triage_report(report: dict) -> str:
    """The triage report as terse human-readable lines."""
    lines = [
        "SLO triage gate "
        + ("PASSED" if report["ok"] else "FAILED"),
        f"  predicted fire index : {report['predicted_fire_index']}",
        f"  faulted fire index   : {report['faulted']['fired_index']}",
        f"  healthy alerts fired : {report['healthy']['alerts_fired']}",
        f"  faulted alerts fired : {report['faulted']['alerts_fired']}",
        f"  served errors        : {report['faulted']['errors']}",
        f"  bundle               : {report['bundle'].get('path')}",
        f"  bundle exemplars     : {report['bundle'].get('exemplars', 0)} "
        f"({report['bundle'].get('error_exemplars', 0)} error-kept)",
    ]
    for name, passed in report["checks"].items():
        lines.append(f"  [{'ok' if passed else 'FAIL'}] {name}")
    problems = report["bundle"].get("problems") or []
    for problem in problems:
        lines.append(f"  bundle problem: {problem}")
    return "\n".join(lines)
