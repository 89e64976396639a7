"""Continual retraining (§V-C / Fig. 15 operational loop).

Fig. 15 shows that the universal performance model can fail on unseen
applications and that "a continuous collection of representative
application signatures and retraining is crucial".  This module
implements that loop:

* :func:`onboard_application` — the §V-C first-encounter flow: capture
  the newcomer's signature from an isolated remote run;
* :func:`retrain` — rebuild the performance models from an updated
  trace corpus (fresh optimizer state; the system-state model and the
  signature library are reused);
* :func:`evaluate_onboarding` — measure the accuracy gained on the new
  application by retraining with its samples (the Fig. 15b curve as an
  operational primitive).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.cluster.trace import Trace
from repro.models.dataset import build_performance_dataset
from repro.models.performance import PerformancePredictor
from repro.models.predictor import Predictor
from repro.nn.metrics import r2_score
from repro.workloads.base import WorkloadKind, WorkloadProfile

__all__ = [
    "onboard_application",
    "retrain",
    "evaluate_onboarding",
    "retrain_on_drift",
]


def onboard_application(
    predictor: Predictor, profile: WorkloadProfile
) -> np.ndarray:
    """Capture an unknown application's signature (§V-C).

    Runs the application alone on remote memory (the paper's
    capture-first policy) and stores the resulting counter sequence in
    the predictor's signature library.  Returns the stored signature.
    """
    if predictor.has_signature(profile):
        return predictor.signatures.get(profile.name)
    return predictor.signatures.capture(profile)


def retrain(
    predictor: Predictor,
    traces: list[Trace],
    kinds: tuple[WorkloadKind, ...] = (
        WorkloadKind.BEST_EFFORT,
        WorkloadKind.LATENCY_CRITICAL,
    ),
    epochs: int = 50,
    seed: int = 0,
) -> Predictor:
    """Rebuild the performance models from an updated corpus.

    The system-state model, feature configuration and signature library
    carry over; only the performance models are re-fit (they are the
    components Fig. 15 shows degrading on unseen applications).
    Returns a new :class:`Predictor`; the input predictor is untouched.
    """
    if predictor.system_state is None:
        raise ValueError("predictor has no trained system-state model")
    models: dict[WorkloadKind, PerformancePredictor | None] = {
        WorkloadKind.BEST_EFFORT: predictor.be_performance,
        WorkloadKind.LATENCY_CRITICAL: predictor.lc_performance,
    }
    for kind in kinds:
        if kind is WorkloadKind.INTERFERENCE:
            raise ValueError("interference workloads have no performance model")
        data = build_performance_dataset(
            traces, predictor.signatures, kind, predictor.config
        )
        fresh = PerformancePredictor(
            feature_config=predictor.config, seed=seed
        )
        future = predictor.system_state.predict(data.state)
        fresh.fit(
            data.state, data.signature, data.mode, future, data.targets,
            epochs=epochs,
        )
        models[kind] = fresh
    return Predictor(
        system_state=predictor.system_state,
        be_performance=models[WorkloadKind.BEST_EFFORT],
        lc_performance=models[WorkloadKind.LATENCY_CRITICAL],
        signatures=predictor.signatures,
        feature_config=predictor.config,
    )


def retrain_on_drift(
    policy,
    traces: list[Trace],
    *,
    kinds: tuple[WorkloadKind, ...] = (
        WorkloadKind.BEST_EFFORT,
        WorkloadKind.LATENCY_CRITICAL,
    ),
    epochs: int = 50,
    seed: int = 0,
    gate=None,
    chaos=None,
    recovery=None,
) -> Callable:
    """Build an ``on_drift`` callback that closes the retraining loop.

    Wire the result into :func:`repro.obs.enable_live` (``on_drift=...``)
    and a live drift alarm triggers a retrain on ``traces`` and swaps
    the fresh :class:`Predictor` into ``policy.predictor`` — the
    "continuous retraining is crucial" loop of Fig. 15, driven by the
    online Page–Hinkley detector instead of a human.  The policy's next
    decision uses the fresh predictor; no engine holds the stale one.

    Pass ``gate=`` a :class:`repro.models.promotion.GateConfig` to route
    the retrain through :func:`repro.models.promotion.gated_retrain`
    instead: candidates are scored on a held-out slice and only promoted
    if their R² does not regress past the gate's tolerance, with
    divergence recovery (``recovery=``) and trainer-fault injection
    (``chaos=``) applied to the candidate fits.  Without a gate the
    legacy unconditional :func:`retrain` swap is preserved.
    """

    def _on_alarm(alarm) -> None:
        if gate is not None:
            from repro.models.promotion import gated_retrain

            policy.predictor, _ = gated_retrain(
                policy.predictor, traces, kinds=kinds, epochs=epochs,
                seed=seed, gate=gate, chaos=chaos, recovery=recovery,
            )
        else:
            policy.predictor = retrain(
                policy.predictor, traces, kinds=kinds, epochs=epochs, seed=seed
            )
        if obs.enabled():
            obs.metrics().counter(
                "predictor_retrains_total",
                "Performance-model retrains triggered by drift alarms",
            ).inc()
            obs.tracer().instant(
                "drift_retrain", category="obs.live", stream=alarm.stream,
                gated=gate is not None,
            )

    return _on_alarm


def evaluate_onboarding(
    predictor: Predictor,
    traces: list[Trace],
    benchmark: str,
    kind: WorkloadKind = WorkloadKind.BEST_EFFORT,
    epochs: int = 50,
    seed: int = 0,
) -> dict[str, float]:
    """Accuracy on one benchmark before vs after retraining with it.

    "Before" trains the performance model with every sample of
    ``benchmark`` excluded (the Fig. 15a leave-one-out condition);
    "after" retrains on the full corpus.  Both are evaluated on the
    benchmark's samples.
    """
    if predictor.system_state is None:
        raise ValueError("predictor has no trained system-state model")
    data = build_performance_dataset(
        traces, predictor.signatures, kind, predictor.config
    )
    target = data.only_benchmark(benchmark)
    if len(target) < 3:
        raise ValueError(
            f"benchmark {benchmark!r} has only {len(target)} samples"
        )
    others = data.exclude_benchmark(benchmark)

    scores: dict[str, float] = {}
    for label, train in (("before", others), ("after", data)):
        model = PerformancePredictor(feature_config=predictor.config, seed=seed)
        future = predictor.system_state.predict(train.state)
        model.fit(
            train.state, train.signature, train.mode, future, train.targets,
            epochs=epochs,
        )
        predictions = model.predict(
            target.state, target.signature, target.mode,
            predictor.system_state.predict(target.state),
        )
        scores[label] = r2_score(target.targets, predictions)
    scores["gain"] = scores["after"] - scores["before"]
    return scores
