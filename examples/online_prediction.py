"""Online predictive monitoring with the Watcher and Predictor.

Demonstrates the run-time loop of Fig. 7: the live cluster's trace
records the Watcher's counter samples, one row per tick.  At the first
arrival past each 200 s mark the Predictor reads the trailing 120 s
window of it (the read the Adrias policy makes), forecasts the system
state over the next horizon window and estimates candidate
applications' performance under both memory modes — the inputs to the
Adrias placement decision.

Usage:  python examples/online_prediction.py
"""

from repro.cluster import ClusterEngine, ScenarioConfig, generate_arrivals
from repro.orchestrator import TrainingBudget, train_predictor
from repro.workloads import MemoryMode, spark_profile

HISTORY_S = 120.0


def main() -> None:
    print("training a quick predictor (one-off, a few seconds)...")
    predictor = train_predictor(TrainingBudget.quick())

    engine = ClusterEngine()

    # Generate background load from a moderate scenario.
    arrivals = generate_arrivals(
        ScenarioConfig(duration_s=600.0, spawn_interval=(5, 40), seed=77)
    )
    candidates = ("nweight", "gmm", "lr", "pca")
    next_check = 200.0

    for arrival in arrivals:
        gap = arrival.time - engine.now
        if gap > 0:
            engine.run_for(gap)
        mode = arrival.mode if arrival.mode is not None else MemoryMode.LOCAL
        try:
            engine.deploy(arrival.profile, mode, duration_s=arrival.duration_s)
        except Exception:
            continue

        if engine.now >= next_check:
            next_check += 200.0
            history = engine.trace.window(engine.now, HISTORY_S)
            s_hat = predictor.predict_system_state(history)
            print(f"\n=== t={engine.now:.0f}s, "
                  f"{len(engine.running)} apps running ===")
            print("predicted mean link latency over next 120 s: "
                  f"{s_hat[-1]:.0f} cycles")
            for name in candidates:
                profile = spark_profile(name)
                estimates = predictor.predict_both_modes(profile, history)
                local = estimates[MemoryMode.LOCAL]
                remote = estimates[MemoryMode.REMOTE]
                verdict = "remote OK" if local >= 0.8 * remote else "keep local"
                print(f"  {name:8s} local≈{local:7.1f}s remote≈{remote:7.1f}s"
                      f"  -> {verdict}")

    print("\ndone: predictions tracked the live congestion of the cluster")


if __name__ == "__main__":
    main()
