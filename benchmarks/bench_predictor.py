#!/usr/bin/env python
"""Microbenchmark for the Predictor inference fast path.

Measures a multi-candidate orchestration tick — every candidate arrival
needs performance estimates for both memory modes from the same history
window — and compares:

* **sequential** — the pre-fast-path behaviour: one
  ``predict_performance`` call per (candidate, mode) with the memo
  invalidated before each call, so every call re-subsamples the window
  and re-runs the system-state model.  ``predict_performance`` is one
  ``predict_both_modes`` call, so each of these calls computes both
  modes and keeps one;
* **fast** — ``predict_both_modes``: one state encoding and one head
  pass over both modes per candidate, with the signature encoding
  cached and the sub-sampled window and Ŝ memoized across all
  candidates of the tick.

Also times the LSTM inference mode (cache-free forward, one input
projection GEMM) against the training-mode forward on the system-state
model.

Before any timing is reported, the fast path's estimates are asserted
within 1e-12 of the batched reference: the ``(2, T, M)`` forward that
runs both encoders on the stacked window and signature.  Run::

    PYTHONPATH=src python benchmarks/bench_predictor.py            # full
    PYTHONPATH=src python benchmarks/bench_predictor.py --smoke    # CI

The benchmark fabricates trained models (random weights, fitted
scalers): inference cost does not depend on the weight values, and this
keeps the benchmark free of a multi-minute training phase.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.models.features import FeatureConfig, encode_mode, impute_gaps, subsample
from repro.models.predictor import Predictor
from repro.obs.perf.bench import fabricate_predictor
from repro.workloads import MemoryMode, spark_profile


def build_predictor(
    config: FeatureConfig, lstm_hidden: int, seed: int = 0
) -> Predictor:
    """A fully wired Predictor with fabricated (untrained) weights.

    Fabrication now lives in :func:`repro.obs.perf.bench.fabricate_predictor`
    (shared with the engine benchmark); this wrapper keeps the historical
    BE-only shape this benchmark has always measured.
    """
    return fabricate_predictor(
        config, lstm_hidden=lstm_hidden, seed=seed, with_lc=False
    )


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def batched_reference(
    predictor: Predictor, profile, history: np.ndarray
) -> dict[MemoryMode, float]:
    """Both modes' estimates from the batched ``(2, T, M)`` forward: both
    encoders run on the stacked window and signature, uncached."""
    config = predictor.config
    window = subsample(impute_gaps(history)[0], config.sample_period_s, config.dt)
    s_hat = predictor.predict_system_state(history)
    signature = predictor.signatures.get(profile.name)
    modes = (MemoryMode.LOCAL, MemoryMode.REMOTE)
    estimates = predictor.be_performance.predict(
        np.stack([window, window]),
        np.stack([signature, signature]),
        np.array([[encode_mode(m)] for m in modes]),
        np.stack([s_hat, s_hat]),
    )
    return dict(zip(modes, estimates))


def bench_tick(
    predictor: Predictor,
    history: np.ndarray,
    candidates: int,
    repeats: int,
) -> dict[str, float]:
    profile = spark_profile("gmm")
    modes = (MemoryMode.LOCAL, MemoryMode.REMOTE)

    def sequential() -> list[dict[MemoryMode, float]]:
        out = []
        for _ in range(candidates):
            estimates = {}
            for mode in modes:
                predictor.invalidate_memo()  # pre-fast-path: no reuse at all
                estimates[mode] = predictor.predict_performance(
                    profile, history, mode
                )
            out.append(estimates)
        return out

    def fast() -> list[dict[MemoryMode, float]]:
        predictor.invalidate_memo()  # fresh tick; memo warms on candidate 1
        return [
            predictor.predict_both_modes(profile, history)
            for _ in range(candidates)
        ]

    def fast_per_candidate() -> list[float]:
        """Best-of-1 latency of each candidate within one fast tick."""
        predictor.invalidate_memo()
        latencies = []
        for _ in range(candidates):
            start = time.perf_counter()
            predictor.predict_both_modes(profile, history)
            latencies.append(time.perf_counter() - start)
        return latencies

    # Correctness gate before timing anything.
    reference = batched_reference(predictor, profile, history)
    for estimates in sequential() + fast():
        for mode in modes:
            if abs(estimates[mode] - reference[mode]) > 1e-12:
                raise AssertionError(
                    f"fast path diverged for {mode.value}: "
                    f"{estimates[mode]!r} vs batched {reference[mode]!r}"
                )

    t_seq = _time(sequential, repeats)
    t_fast = _time(fast, repeats)
    per_candidate = fast_per_candidate()
    return {
        "sequential_s": t_seq,
        "fast_s": t_fast,
        "speedup": t_seq / t_fast,
        "per_candidate_s": per_candidate,
    }


def bench_lstm_mode(
    predictor: Predictor, repeats: int
) -> dict[str, float]:
    """Training-mode vs inference-mode forward of the system-state model."""
    model = predictor.system_state.model
    config = predictor.config
    x = np.random.default_rng(7).normal(
        size=(8, config.history_steps, config.n_metrics)
    )

    model.train()
    # Dropout/batch-norm noise does not matter for timing; the encoders
    # dominate the cost.
    t_train = _time(lambda: model.forward(x), repeats)
    model.eval()
    t_infer = _time(lambda: model.forward(x), repeats)
    model.eval()
    return {
        "train_mode_s": t_train,
        "inference_mode_s": t_infer,
        "speedup": t_train / t_infer,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--candidates", type=int, default=8,
        help="candidate arrivals sharing one tick (default 8)",
    )
    parser.add_argument(
        "--repeats", type=int, default=20,
        help="timing repetitions, best-of (default 20)",
    )
    parser.add_argument(
        "--hidden", type=int, default=32,
        help="LSTM hidden width (default 32, the paper's size)",
    )
    parser.add_argument(
        "--check-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless the tick speedup is >= X",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: tiny sizes, single repeat, no thresholds",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as a JSON report (e.g. "
             "BENCH_predictor.json, uploaded as a CI artifact)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.candidates, args.repeats, args.hidden = 4, 2, 8
        args.check_speedup = None

    config = FeatureConfig()
    predictor = build_predictor(config, lstm_hidden=args.hidden)
    history = np.random.default_rng(42).uniform(
        0.5, 2.0, size=(config.history_raw_steps, config.n_metrics)
    )

    tick = bench_tick(predictor, history, args.candidates, args.repeats)
    lstm = bench_lstm_mode(predictor, args.repeats)

    print(f"predict_both_modes tick ({args.candidates} candidates, "
          f"hidden={args.hidden}, best of {args.repeats}):")
    print(f"  sequential (per-call, no memo) : {tick['sequential_s'] * 1e3:8.2f} ms")
    print(f"  batched + memoized fast path   : {tick['fast_s'] * 1e3:8.2f} ms")
    print(f"  speedup                        : {tick['speedup']:8.2f}x")
    print("system-state model forward (N=8):")
    print(f"  training-mode (BPTT caches)    : {lstm['train_mode_s'] * 1e3:8.2f} ms")
    print(f"  inference-mode (cache-free)    : {lstm['inference_mode_s'] * 1e3:8.2f} ms")
    print(f"  speedup                        : {lstm['speedup']:8.2f}x")
    print("outputs: within 1e-12 of the batched (2, T, M) reference")

    if args.json is not None:
        report = {
            "kind": "predictor",
            "candidates": args.candidates,
            "hidden": args.hidden,
            "repeats": args.repeats,
            "smoke": args.smoke,
            "tick": tick,
            "lstm": lstm,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"json report: {args.json}")

    if args.check_speedup is not None and tick["speedup"] < args.check_speedup:
        print(f"FAIL: tick speedup {tick['speedup']:.2f}x < "
              f"required {args.check_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
