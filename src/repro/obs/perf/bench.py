"""Engine benchmark harness: ticks/sec, decisions/sec, phase breakdown.

Measures the simulator's two throughput axes —

* **ticks/sec** across scenario scales (an idle engine, the paper's
  relaxed {5, 60} and congested {5, 20} arrival regimes), and
* **decisions/sec** for the full Adrias decision path (history window →
  Ŝ → two-mode forward → β/QoS rule), one decision per tick as in every
  replay —

plus the LSTM's inference-mode speedup over its training-mode forward
and a per-phase cost breakdown of a congested policy-driven scenario
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
    "bench_lstm",
    "bench_fleet",
    "bench_phases",
    "congested_adrias",
    "profile_run",
    "run_engine_bench",
    "format_report",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

#: Rack sizes of the fleet tick sweep (per-tick pool arbitration cost).
DEFAULT_FLEET_SIZES = (1, 8, 64)


def fabricate_predictor(
    config: FeatureConfig | None = None,
    lstm_hidden: int = 32,
    seed: int = 0,
) -> Predictor:
    """A fully wired Predictor with fabricated (untrained) weights.

    Scalers are fitted on synthetic samples so the numeric pipeline runs
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
    # A narrow, realistic runtime range; predictions come out of a log
    # transform.
    be.target_scaler.fit(np.log(rng.uniform(30.0, 60.0, size=(64, 1))))
    be._trained = True

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
    repeats: int = 3, hidden: int = 32, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Adrias decisions/sec, one decision per tick.

    Each decision reads the history window, runs Ŝ and both modes'
    performance forward, as every arrival of the Fig. 16/17 replays
    does; no workload makes more than one decision per tick.  The
    report keys the entry by its candidate count, ``"1"``.
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

    wall = _best_of(lambda: policy(profile, engine), repeats)
    return {"1": {"candidates": 1, "wall_s": wall, "decisions_per_sec": 1 / wall}}


# -- LSTM forward modes ------------------------------------------------------
def bench_lstm(
    repeats: int = 3, hidden: int = 32, seed: int = 0
) -> dict[str, float]:
    """Training-mode vs inference-mode forward of the system-state model.

    The training-mode forward keeps the per-step caches BPTT needs; the
    inference mode is cache-free with one input-projection GEMM.  Both
    run one ``(8, T, M)`` batch.
    """
    config = FeatureConfig()
    model = SystemStatePredictor(
        feature_config=config, lstm_hidden=hidden, seed=seed
    ).model
    x = np.random.default_rng(7).normal(
        size=(8, config.history_steps, config.n_metrics)
    )
    model.train()
    t_train = _best_of(lambda: model.forward(x), repeats)
    model.eval()
    t_infer = _best_of(lambda: model.forward(x), repeats)
    return {
        "train_mode_s": t_train,
        "inference_mode_s": t_infer,
        "speedup": t_train / t_infer,
    }


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
    tick_duration_s: float | None = None,
    phase_duration_s: float | None = None,
    seed: int = 0,
) -> dict:
    """Run every section and assemble the ``BENCH_engine.json`` report."""
    if smoke:
        repeats = min(repeats, 2)
        hidden = min(hidden, 8)
        tick_duration = tick_duration_s if tick_duration_s is not None else 60.0
        phase_duration = (
            phase_duration_s if phase_duration_s is not None else 60.0
        )
    else:
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
            repeats=repeats, hidden=hidden, seed=seed
        ),
        "lstm": bench_lstm(repeats=repeats, hidden=hidden, seed=seed),
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
    decision = report.get("decisions", {}).get("1")
    if decision:
        lines.append(
            f"Adrias decisions/sec: {decision['decisions_per_sec']:.1f} "
            f"({decision['wall_s'] * 1e3:.2f} ms per decision)"
        )
    lstm = report.get("lstm")
    if lstm:
        lines.append(
            f"LSTM forward (N=8): training mode "
            f"{lstm['train_mode_s'] * 1e3:.2f} ms, inference mode "
            f"{lstm['inference_mode_s'] * 1e3:.2f} ms "
            f"({lstm['speedup']:.2f}x)"
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
