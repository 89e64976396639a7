#!/usr/bin/env python
"""Demo: online drift detection catching a degraded Predictor mid-run.

Drives one randomized scenario under an :class:`AdriasPolicy` whose
predictor is a *scripted* stand-in (isolated-baseline estimates — no
training needed), with live observability streaming to an output
directory.  Halfway through, the predictor is silently degraded (its
estimates are multiplied by a constant factor), as if the workload mix
had drifted away from the training distribution.

The live session joins every decision's prediction against the realized
outcome; the Page–Hinkley detector sees the relative-error jump and
fires a ``drift`` event into ``stream.jsonl`` within a bounded number of
joined decisions.  Watch it afterwards with::

    PYTHONPATH=src python examples/drift_alarm_demo.py --out out/demo
    python -m repro obs watch out/demo/stream.jsonl --once
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.models.features import FeatureConfig
from repro.orchestrator.policies import AdriasPolicy
from repro.workloads.base import MemoryMode, WorkloadKind


class ScriptedPredictor:
    """Duck-typed Predictor stand-in returning isolated baselines.

    Implements exactly the surface :class:`AdriasPolicy` touches
    (``has_signature`` / ``attach`` / ``config`` / ``predict_both_modes``)
    so the demo needs no trained models.  Multiplying ``degradation``
    models a predictor that has drifted off the workload distribution:
    estimates scale away from reality while staying self-consistent, so
    the policy keeps functioning and only the prediction error exposes
    the problem.
    """

    def __init__(self) -> None:
        self.config = FeatureConfig()
        self.degradation = 1.0

    def has_signature(self, profile) -> bool:
        return True

    def attach(self, engine) -> None:
        pass

    def predict_both_modes(self, profile, history, deadline_s=None) -> dict:
        if profile.kind is WorkloadKind.LATENCY_CRITICAL:
            local = profile.base_p99_ms
            remote = profile.base_p99_ms * profile.remote_slowdown
        else:
            local = profile.isolated_runtime(MemoryMode.LOCAL)
            remote = profile.isolated_runtime(MemoryMode.REMOTE)
        return {
            MemoryMode.LOCAL: local * self.degradation,
            MemoryMode.REMOTE: remote * self.degradation,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="out/drift-demo",
                        help="live-session output directory")
    parser.add_argument("--duration", type=float, default=1800.0,
                        help="scenario length in simulated seconds")
    parser.add_argument("--degrade-at", type=float, default=None,
                        help="sim time at which the predictor degrades "
                             "(default: duration / 2)")
    parser.add_argument("--factor", type=float, default=4.0,
                        help="degradation factor applied to estimates")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    degrade_at = (
        args.degrade_at if args.degrade_at is not None else args.duration / 2
    )

    scripted = ScriptedPredictor()
    policy = AdriasPolicy(scripted, beta=0.8, default_qos_ms=6.0)

    def scheduler(profile, engine):
        if engine.now >= degrade_at and scripted.degradation == 1.0:
            scripted.degradation = args.factor
            print(f"[demo] predictor degraded x{args.factor:g} "
                  f"at sim t={engine.now:.0f}s")
        return policy(profile, engine)

    live = obs.enable_live(args.out, flush_every=32)
    # A relaxed arrival rate keeps contention mild, so the scripted
    # isolated-baseline estimates are *good* before the degradation —
    # the error jump is then unambiguous.
    config = ScenarioConfig(
        duration_s=args.duration, spawn_interval=(25.0, 45.0), seed=args.seed
    )
    run_scenario(config, scheduler=scheduler)
    paths = obs.dump(args.out)
    alarms = list(live.drift.alarms)
    obs.disable()  # closes the stream (end record)

    print(f"[demo] scenario finished; artifacts in {Path(args.out)}")
    for name in sorted(paths):
        print(f"  {paths[name]}")
    if not alarms:
        print("[demo] no drift alarm fired (unexpected)")
        return 1
    for alarm in alarms:
        lag = alarm.sim_time - degrade_at
        print(f"[demo] drift alarm: stream={alarm.stream} "
              f"sim t={alarm.sim_time:.0f}s (+{lag:.0f}s after degradation) "
              f"score={alarm.score:.2f} ewma|rel err|={alarm.ewma_abs_error:.2f}")
    first = min(a.sim_time for a in alarms)
    print(json.dumps({
        "degrade_at_s": degrade_at,
        "first_alarm_sim_s": first,
        "detection_lag_s": first - degrade_at,
        "alarms": len(alarms),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
