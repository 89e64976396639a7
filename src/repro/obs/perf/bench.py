"""Engine benchmark harness: ticks/sec, decisions/sec, phase breakdown.

Measures the simulator's two throughput axes —

* **ticks/sec** across scenario scales (an idle engine, the paper's
  relaxed {5, 60} and congested {5, 20} arrival regimes), and
* **decisions/sec** for the full Adrias decision path (history window →
  Ŝ → batched two-mode forward → β/QoS rule) at 1–1000 candidate
  placements arriving within one tick —

plus a per-phase cost breakdown of a congested policy-driven scenario
(recorded by :mod:`repro.obs.perf.accounting`), so a regression caught
by the gate is attributable to the phase that slowed down.

The report is emitted as ``BENCH_engine.json`` (CLI wrapper:
``benchmarks/bench_engine.py``); the committed baseline lives at
``benchmarks/baselines/BENCH_engine.json`` and is enforced by
``repro obs perfcheck`` / the CI ``perf-smoke`` job via
:mod:`repro.obs.perf.gate`.

Models are fabricated (random weights, fitted scalers): inference cost
does not depend on weight values, and this keeps the benchmark free of a
multi-minute training phase.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.engine import ClusterEngine
from repro.cluster.scenario import ScenarioConfig, default_pool, run_scenario
from repro.hardware.config import TestbedConfig
from repro.hardware.testbed import Testbed
from repro.models.features import FeatureConfig
from repro.models.performance import PerformancePredictor
from repro.models.predictor import Predictor
from repro.models.signatures import SignatureLibrary
from repro.models.system_state import SystemStatePredictor
from repro.obs.perf.accounting import phase_table, phases_session
from repro.orchestrator.policies import AdriasPolicy
from repro.workloads import MemoryMode, spark_profile
from repro.workloads.base import WorkloadKind

__all__ = [
    "fabricate_predictor",
    "bench_ticks",
    "bench_decisions",
    "bench_fleet",
    "bench_phases",
    "congested_adrias",
    "profile_run",
    "run_engine_bench",
    "format_report",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

#: Candidate-placement counts of the full decision sweep (1–1000).
DEFAULT_CANDIDATES = (1, 8, 64, 256, 1000)
SMOKE_CANDIDATES = (1, 8, 64)

#: Rack sizes of the fleet tick sweep (per-tick pool arbitration cost).
DEFAULT_FLEET_SIZES = (1, 8, 64)


def fabricate_predictor(
    config: FeatureConfig | None = None,
    lstm_hidden: int = 32,
    seed: int = 0,
    with_lc: bool = True,
) -> Predictor:
    """A fully wired Predictor with fabricated (untrained) weights.

    Shared by ``benchmarks/bench_predictor.py`` and the engine bench:
    scalers are fitted on synthetic samples so the numeric pipeline runs
    end to end, while the weights stay at their seeded initialization.
    """
    config = config if config is not None else FeatureConfig()
    rng = np.random.default_rng(seed)
    n_metrics = config.n_metrics

    system_state = SystemStatePredictor(
        feature_config=config, lstm_hidden=lstm_hidden, seed=seed
    )
    sample = rng.uniform(0.5, 2.0, size=(64, config.history_steps, n_metrics))
    system_state.input_scaler.fit(sample)
    system_state.target_scaler.fit(sample.mean(axis=1))
    system_state._trained = True

    be = PerformancePredictor(
        feature_config=config, lstm_hidden=lstm_hidden, seed=seed + 1
    )
    be.metric_scaler.fit(sample.reshape(-1, n_metrics))
    # A narrow, realistic runtime range: predictions come out of a log
    # transform, so a wide target scale would exp-amplify 1-ulp GEMM
    # differences past the 1e-12 identity gate on untrained weights.
    be.target_scaler.fit(np.log(rng.uniform(30.0, 60.0, size=(64, 1))))
    be._trained = True

    lc = None
    if with_lc:
        lc = PerformancePredictor(
            feature_config=config, lstm_hidden=lstm_hidden, seed=seed + 2
        )
        lc.metric_scaler.fit(sample.reshape(-1, n_metrics))
        lc.target_scaler.fit(np.log(rng.uniform(2.0, 20.0, size=(64, 1))))
        lc._trained = True

    signatures = SignatureLibrary(feature_config=config)
    signatures.add(
        "gmm",
        rng.uniform(0.5, 2.0, size=(int(config.signature_s), n_metrics)),
    )
    return Predictor(
        system_state=system_state,
        be_performance=be,
        lc_performance=lc,
        signatures=signatures,
        feature_config=config,
    )


def _calibrate(predictor: Predictor, trace) -> None:
    """Refit the fabricated scalers on a real trace's counter rows.

    Fabricated scalers are fitted on synthetic uniforms; real testbed
    counters live on very different magnitudes, and feeding them through
    un-calibrated scalers saturates the log-space performance heads into
    ``inf`` — which the AdriasPolicy (correctly) treats as a predictor
    failure and falls back, so the bench would silently measure the
    degradation ladder instead of the decision path.  The trace must
    span the concurrency range the measured run will see (an idle-to-
    congested warm-up), otherwise peak-load windows still land far
    outside the fitted range.
    """
    from repro.models.features import impute_gaps, subsample

    config = predictor.config
    filled, _ = impute_gaps(trace.metrics)
    sub = subsample(filled, config.sample_period_s, config.dt)
    predictor.system_state.input_scaler.fit(sub)
    predictor.system_state.target_scaler.fit(sub)
    for model in (predictor.be_performance, predictor.lc_performance):
        if model is not None:
            model.metric_scaler.fit(sub)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- ticks/sec ---------------------------------------------------------------
def bench_ticks(
    duration_s: float = 600.0, repeats: int = 3, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Ticks/sec at three app-count scales: idle, relaxed, congested."""
    scales: dict[str, dict[str, float]] = {}

    def idle() -> None:
        engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=seed)))
        engine.run_for(duration_s)

    wall = _best_of(idle, repeats)
    ticks = int(round(duration_s))
    scales["idle"] = {
        "ticks": ticks,
        "mean_apps": 0.0,
        "wall_s": wall,
        "ticks_per_sec": ticks / wall,
    }

    for name, spawn in (("relaxed", (5.0, 60.0)), ("congested", (5.0, 20.0))):
        config = ScenarioConfig(
            duration_s=duration_s, spawn_interval=spawn, seed=seed
        )
        traces = []

        def scenario() -> None:
            traces.append(run_scenario(config))

        wall = _best_of(scenario, repeats)
        trace = traces[-1]  # seeded: every repeat is identical
        ticks = len(trace.times)
        scales[name] = {
            "ticks": ticks,
            "mean_apps": float(np.mean(trace.concurrency)) if ticks else 0.0,
            "wall_s": wall,
            "ticks_per_sec": ticks / wall,
        }
    return scales


# -- decisions/sec -----------------------------------------------------------
def bench_decisions(
    candidate_counts: tuple[int, ...] = DEFAULT_CANDIDATES,
    repeats: int = 3,
    hidden: int = 32,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Adrias decisions/sec for N candidate placements within one tick.

    All candidates of a tick share one history window, so the Ŝ memo
    warms on the first candidate — exactly the production decision path
    exercised by the Fig. 16/17 replays.
    """
    config = FeatureConfig()
    predictor = fabricate_predictor(config, lstm_hidden=hidden, seed=seed)
    policy = AdriasPolicy(predictor)
    profile = spark_profile("gmm")
    predictor.signatures.capture(profile)  # real counters, not synthetic

    engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=seed)))
    engine.deploy(spark_profile("sort"), MemoryMode.LOCAL)
    # Warm enough trace history for the predictor's full window.
    engine.run_for(config.history_s + 5 * config.dt)
    _calibrate(predictor, engine.trace)

    results: dict[str, dict[str, float]] = {}
    for n in candidate_counts:
        def one_tick(n: int = n) -> None:
            predictor.invalidate_memo()  # fresh tick; memo warms on #1
            for _ in range(n):
                policy(profile, engine)

        wall = _best_of(one_tick, repeats)
        results[str(n)] = {
            "candidates": n,
            "wall_s": wall,
            "decisions_per_sec": n / wall,
        }
    return results


# -- fleet ticks/sec ---------------------------------------------------------
def bench_fleet(
    fleet_sizes: tuple[int, ...] = DEFAULT_FLEET_SIZES,
    duration_s: float = 60.0,
    repeats: int = 3,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Fleet ticks/sec vs rack size, pool arbitration on the hot path.

    Every node carries one remote-mode deployment so the per-tick
    water-filling arbitration sees real bandwidth demand; setup (fleet
    construction, placement) is excluded from the timed window.
    """
    from repro.cluster.fleet import ClusterFleet, FleetDecision
    from repro.hardware.pool import RemotePoolConfig

    results: dict[str, dict[str, float]] = {}
    for n in fleet_sizes:
        config = TestbedConfig(seed=seed)
        pool = RemotePoolConfig(
            capacity_gb=config.node.remote_gb * n,
            aggregate_bw_gbps=config.link.capacity_gbps * n * 0.5,
        )
        best = float("inf")
        for _ in range(repeats):
            fleet = ClusterFleet(n_nodes=n, testbed_config=config, pool=pool)
            for i in range(n):
                fleet.deploy(
                    spark_profile("gmm"),
                    FleetDecision(i, MemoryMode.REMOTE),
                    duration_s=duration_s * 2,
                )
            start = time.perf_counter()
            fleet.run_for(duration_s)
            best = min(best, time.perf_counter() - start)
        ticks = int(round(duration_s / fleet.dt))
        results[str(n)] = {
            "nodes": n,
            "ticks": ticks,
            "wall_s": best,
            "fleet_ticks_per_sec": ticks / best,
        }
    return results


# -- phase breakdown ---------------------------------------------------------
def congested_adrias(
    duration_s: float = 300.0, hidden: int = 32, seed: int = 0
) -> tuple[ScenarioConfig, AdriasPolicy]:
    """A congested {5, 20} s scenario and an Adrias policy to replay it.

    Signatures are pre-captured so first-encounter capture runs (whole
    isolated scenarios) do not pollute a measurement; a replay then
    exercises every phase: tick sub-steps, window build, Ŝ, performance
    forwards and the policy rule.
    """
    config = FeatureConfig()
    predictor = fabricate_predictor(config, lstm_hidden=hidden, seed=seed)
    for profile in default_pool():
        if profile.kind is not WorkloadKind.INTERFERENCE:
            predictor.signatures.capture(profile)  # real counter rows
    scenario = ScenarioConfig(
        duration_s=duration_s, spawn_interval=(5.0, 20.0), seed=seed
    )
    # Calibrate on a warm-up replay of the *same* congested scenario so
    # the fitted range covers idle through peak concurrency.
    warm_trace = run_scenario(scenario)
    _calibrate(predictor, warm_trace)
    return scenario, AdriasPolicy(predictor)


def profile_run(
    duration_s: float = 300.0,
    hidden: int = 32,
    seed: int = 0,
    tracer=None,
):
    """Replay :func:`congested_adrias` under phase accounting.

    Returns the :class:`~repro.obs.perf.accounting.PhaseAccounting`
    accumulator (``repro obs profile`` prints its ranked table and, when
    ``tracer`` is a :class:`~repro.obs.tracing.SpanTracer`, dumps the
    per-phase Chrome-trace timeline).
    """
    scenario, policy = congested_adrias(duration_s, hidden, seed)
    with phases_session(tracer=tracer) as acct:
        run_scenario(scenario, scheduler=policy)
    return acct


def bench_phases(
    duration_s: float = 300.0, hidden: int = 32, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Per-phase cost snapshot of a congested, Adrias-driven scenario."""
    return profile_run(
        duration_s=duration_s, hidden=hidden, seed=seed
    ).snapshot()


# -- full report -------------------------------------------------------------
def run_engine_bench(
    smoke: bool = False,
    repeats: int = 3,
    hidden: int = 32,
    candidate_counts: tuple[int, ...] | None = None,
    tick_duration_s: float | None = None,
    phase_duration_s: float | None = None,
    seed: int = 0,
) -> dict:
    """Run every section and assemble the ``BENCH_engine.json`` report."""
    if smoke:
        repeats = min(repeats, 2)
        hidden = min(hidden, 8)
        candidates = (
            candidate_counts if candidate_counts is not None else SMOKE_CANDIDATES
        )
        tick_duration = tick_duration_s if tick_duration_s is not None else 60.0
        phase_duration = (
            phase_duration_s if phase_duration_s is not None else 60.0
        )
    else:
        candidates = (
            candidate_counts if candidate_counts is not None else DEFAULT_CANDIDATES
        )
        tick_duration = tick_duration_s if tick_duration_s is not None else 600.0
        phase_duration = (
            phase_duration_s if phase_duration_s is not None else 300.0
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "engine",
        "smoke": smoke,
        "config": {
            "repeats": repeats,
            "hidden": hidden,
            "tick_duration_s": tick_duration,
            "phase_duration_s": phase_duration,
            "seed": seed,
        },
        "scales": bench_ticks(
            duration_s=tick_duration, repeats=repeats, seed=seed
        ),
        "decisions": bench_decisions(
            candidate_counts=candidates, repeats=repeats, hidden=hidden,
            seed=seed,
        ),
        "fleet": bench_fleet(
            duration_s=tick_duration, repeats=repeats, seed=seed
        ),
        "phases": bench_phases(
            duration_s=phase_duration, hidden=hidden, seed=seed
        ),
    }


def format_report(report: dict) -> str:
    """Human-readable summary of a ``run_engine_bench`` report."""
    config = report.get("config", {})
    lines = [
        f"engine benchmark (hidden={config.get('hidden')}, "
        f"best of {config.get('repeats')}"
        + (", smoke)" if report.get("smoke") else ")"),
        "ticks/sec by scenario scale:",
    ]
    for name, entry in report.get("scales", {}).items():
        lines.append(
            f"  {name:<10} {entry['ticks_per_sec']:>10.0f} ticks/s  "
            f"({entry['ticks']} ticks, {entry['mean_apps']:.1f} mean apps, "
            f"{entry['wall_s'] * 1e3:.1f} ms)"
        )
    lines.append("Adrias decisions/sec by candidates-per-tick:")
    for n, entry in report.get("decisions", {}).items():
        lines.append(
            f"  {n:>5} candidates {entry['decisions_per_sec']:>10.1f} "
            f"decisions/s  ({entry['wall_s'] * 1e3:.1f} ms/tick)"
        )
    fleet = report.get("fleet", {})
    if fleet:
        lines.append("fleet ticks/sec by rack size (pool arbitration):")
        for n, entry in fleet.items():
            lines.append(
                f"  {n:>5} nodes {entry['fleet_ticks_per_sec']:>12.0f} "
                f"ticks/s  ({entry['ticks']} ticks, "
                f"{entry['wall_s'] * 1e3:.1f} ms)"
            )
    phases = report.get("phases", {})
    if phases:
        lines.append("phase breakdown (congested Adrias scenario):")
        lines.extend(f"  {line}" for line in phase_table(phases).splitlines())
    return "\n".join(lines)
