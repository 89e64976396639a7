"""A congested Adrias replay under phase accounting, on fabricated models.

:func:`profile_run` backs ``repro obs profile``: it replays a congested
{5, 20} s scenario under an :class:`~repro.orchestrator.AdriasPolicy`
and returns the phase table of every layer the replay touched (tick
sub-steps, window build, Ŝ, performance forwards and the policy rule).
Tier-1's work counts replay :func:`congested_adrias` too.

Models are fabricated (random weights, fitted scalers): inference cost
does not depend on weight values, and this keeps a profile free of a
multi-minute training phase.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.scenario import ScenarioConfig, default_pool, run_scenario
from repro.models.features import FeatureConfig
from repro.models.performance import PerformancePredictor
from repro.models.predictor import Predictor
from repro.models.signatures import SignatureLibrary
from repro.models.system_state import SystemStatePredictor
from repro.obs.perf.accounting import phases_session
from repro.orchestrator.policies import AdriasPolicy
from repro.workloads.base import WorkloadKind

__all__ = ["fabricate_predictor", "congested_adrias", "profile_run"]


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
    failure and falls back, so a profile would silently measure the
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
