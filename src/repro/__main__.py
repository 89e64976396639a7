"""Command-line interface: regenerate paper experiments from the shell.

Usage::

    python -m repro list                       # available experiments
    python -m repro run fig02                  # one experiment
    python -m repro run table1 --scale default
    python -m repro run all --scale quick      # everything (slow)
    python -m repro run fig16 --obs-out out/   # + observability dump
    python -m repro obs out/                   # summarize a dump
    python -m repro obs profile                # ranked phase-cost table
    python -m repro obs perfcheck --headroom 3 # benchmark regression gate
    python -m repro faults sample --out plan.json   # seeded fault plan
    python -m repro run fig16 --faults plan.json    # inject it
    python -m repro train --ckpt fit.ckpt           # crash-safe fit
    python -m repro train --ckpt fit.ckpt --resume  # continue after a crash
    python -m repro retrain --gate                  # gated model promotion
    python -m repro serve --safety env.json         # orchestrator daemon
    python -m repro client health --port 7000       # poke the daemon

Each experiment prints the same rows/series the paper reports.  The
training-based experiments honour ``--scale`` (quick | default | paper).
``--obs-out DIR`` enables the :mod:`repro.obs` layer for the run and
writes ``metrics.json``, ``metrics.prom``, ``trace.json`` (Chrome
trace-event format) and ``decisions.jsonl`` afterwards.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro import obs
from repro.experiments import (
    ablations,
    availability,
    fig02_link_saturation,
    fig03_spark_isolation,
    fig04_lc_isolation,
    fig05_interference_heatmap,
    fig06_correlation,
    fig08_scenarios,
    fig09_10_distributions,
    fig13_be_accuracy,
    fig14_lc_accuracy,
    fig15_generalization,
    fig16_be_orchestration,
    fig17_lc_orchestration,
    fleet_scaling,
    table1_system_state,
    traffic_reduction,
    under_faults,
)
from repro.experiments.common import ExperimentScale, scale_from_env
from repro.workloads import WorkloadKind


def _formatless(run: Callable, *args, **kwargs) -> Callable[[ExperimentScale], str]:
    def runner(scale: ExperimentScale) -> str:
        result = run(*args, **kwargs)
        return result.format()

    return runner


def _scaled(run: Callable, *args, **kwargs) -> Callable[[ExperimentScale], str]:
    def runner(scale: ExperimentScale) -> str:
        result = run(*args, scale=scale, **kwargs)
        return result.format()

    return runner


def _ablation(run: Callable, headers, title) -> Callable[[ExperimentScale], str]:
    from repro.analysis import format_table

    def runner(scale: ExperimentScale) -> str:
        results = run(scale=scale)
        if isinstance(results, dict):
            rows = [(k, f"{v:.3f}") for k, v in sorted(results.items())]
        else:  # beta sweep returns dataclasses
            rows = [
                (f"{p.beta:g}", f"{p.offload_fraction * 100:.1f}%",
                 f"{p.median_drop * 100:+.1f}%")
                for p in results
            ]
        return format_table(headers, rows, title=title)

    return runner


def _recurrent_cell(scale: ExperimentScale) -> str:
    from repro.analysis import format_table

    results = ablations.recurrent_cell_ablation(scale=scale)
    return format_table(
        ["cell", "avg R2", "parameters"],
        [
            (cell, f"{r['r2']:.3f}", f"{int(r['parameters']):,}")
            for cell, r in results.items()
        ],
        title="Recurrent backbone of the system-state model",
    )


EXPERIMENTS: dict[str, tuple[str, Callable[[ExperimentScale], str]]] = {
    "fig02": ("Link saturation sweep (R1-R3)",
              _formatless(fig02_link_saturation.run)),
    "fig03": ("Spark isolation, local vs remote (R4)",
              _formatless(fig03_spark_isolation.run)),
    "fig04": ("LC tail latency vs clients (R4)",
              _formatless(fig04_lc_isolation.run)),
    "fig05": ("Interference heatmap (R5-R7)",
              _formatless(fig05_interference_heatmap.run)),
    "fig06": ("Metric/performance correlation (R8)",
              _scaled(fig06_correlation.run)),
    "fig08": ("Scenario congestion phases",
              _formatless(fig08_scenarios.run)),
    "fig09": ("Spark performance distributions",
              _scaled(fig09_10_distributions.run, WorkloadKind.BEST_EFFORT)),
    "fig10": ("LC performance distributions",
              _scaled(fig09_10_distributions.run, WorkloadKind.LATENCY_CRITICAL)),
    "table1": ("System-state model R2 (Table I)",
               _scaled(table1_system_state.run)),
    "fig13": ("BE model accuracy + stacking ablation",
              _scaled(fig13_be_accuracy.run)),
    "fig14": ("LC model accuracy",
              _scaled(fig14_lc_accuracy.run)),
    "fig15": ("Generalization on unseen applications",
              _scaled(fig15_generalization.run)),
    "fig16": ("BE orchestration vs baselines",
              _scaled(fig16_be_orchestration.run)),
    "fig17": ("LC QoS violations and offloads",
              _scaled(fig17_lc_orchestration.run)),
    "traffic": ("Link data-traffic accounting (§VI-B)",
                _scaled(traffic_reduction.run)),
    "fleet": ("Fleet scaling on the rack memory pool (§VII)",
              _scaled(fleet_scaling.run)),
    "availability": ("Fleet availability under crash/rejoin + device loss",
                     _scaled(availability.run)),
    "fig16-faults": ("BE orchestration under fault injection",
                     _scaled(under_faults.run_fig16)),
    "fig17-faults": ("LC QoS retention under fault injection",
                     _scaled(under_faults.run_fig17)),
    "ablation-window": (
        "History-window ablation",
        _ablation(ablations.window_ablation, ["history s", "avg R2"],
                  "System-state R2 vs history window"),
    ),
    "ablation-capacity": (
        "Model-capacity ablation",
        _ablation(ablations.capacity_ablation, ["hidden", "avg R2"],
                  "System-state R2 vs LSTM hidden width"),
    ),
    "ablation-beta": (
        "Fine-grained beta sweep",
        _ablation(ablations.beta_sweep, ["beta", "offload", "median drop"],
                  "Offload/performance trade-off vs beta"),
    ),
    "ablation-cell": (
        "LSTM vs GRU backbone",
        _recurrent_cell,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from the Adrias paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id or 'all'")
    run.add_argument(
        "--scale", choices=("quick", "default", "paper"), default=None,
        help="effort preset for training-based experiments "
             "(default: $ADRIAS_SCALE or quick)",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="shorthand for --scale quick (CI-sized run)",
    )
    run.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject faults: run every scheduled scenario under the "
             "FaultPlan loaded from PLAN.json (see 'repro faults sample')",
    )
    run.add_argument(
        "--obs-out", metavar="DIR", default=None,
        help="enable observability and dump metrics.json/metrics.prom/"
             "trace.json/decisions.jsonl to DIR after the run",
    )
    run.add_argument(
        "--obs-stream", action="store_true",
        help="also stream per-tick telemetry to DIR/stream.jsonl and "
             "DIR/stream.prom while the run executes (requires --obs-out)",
    )
    faults_cmd = sub.add_parser(
        "faults", help="validate or generate fault-injection plans"
    )
    faults_sub = faults_cmd.add_subparsers(dest="faults_command", required=True)
    validate = faults_sub.add_parser(
        "validate", help="check a plan file and print its schedule"
    )
    validate.add_argument("plan", help="path to a FaultPlan JSON file")
    validate.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="also cross-check node_crash/node_rejoin targets against an "
             "N-node fleet (n0..n{N-1})",
    )
    sample = faults_sub.add_parser(
        "sample", help="emit a representative seeded plan"
    )
    sample.add_argument(
        "--seed", type=int, default=0, help="derivation seed (default: 0)"
    )
    sample.add_argument(
        "--duration", type=float, default=900.0,
        help="scenario runway in simulated seconds (default: 900)",
    )
    sample.add_argument(
        "--trainer", action="store_true",
        help="emit a trainer-side plan instead (NaN gradients, checkpoint "
             "write failures, retrain timeouts on the epoch clock)",
    )
    sample.add_argument(
        "--daemon", action="store_true",
        help="emit a serving-daemon plan instead (connection drops and a "
             "wedged tick loop for 'repro serve --faults')",
    )
    sample.add_argument(
        "--availability", action="store_true",
        help="emit a fleet-side plan instead (node crash/rejoin windows "
             "and a pool-device failure for 'repro run availability')",
    )
    sample.add_argument(
        "--nodes", type=int, default=4,
        help="availability plans: fleet size the node targets are drawn "
             "from (default: 4)",
    )
    sample.add_argument(
        "--epochs", type=int, default=12,
        help="trainer plans: epoch runway (default: 12)",
    )
    sample.add_argument(
        "--out", metavar="PLAN.json", default=None,
        help="write the plan here instead of stdout",
    )
    train = sub.add_parser(
        "train", help="fit the system-state model with crash-safe checkpoints"
    )
    train.add_argument(
        "--ckpt", metavar="FILE", required=True,
        help="fit-checkpoint file (written atomically at each epoch boundary)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="continue bit-identically from the checkpoint if it exists",
    )
    train.add_argument("--epochs", type=int, default=None,
                       help="override the scale's epoch budget")
    train.add_argument("--scale", choices=("quick", "default", "paper"),
                       default=None, help="corpus/effort preset")
    train.add_argument(
        "--kill-after-epoch", type=int, default=None, metavar="N",
        help="SIGKILL the process right after checkpoint N lands "
             "(deterministic crash for resume testing)",
    )
    train.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject trainer-side faults from this plan "
             "(see 'repro faults sample --trainer')",
    )
    train.add_argument("--seed", type=int, default=0)
    retrain_cmd = sub.add_parser(
        "retrain", help="retrain the performance models (optionally gated)"
    )
    retrain_cmd.add_argument(
        "--gate", action="store_true",
        help="evaluate candidates on a held-out slice and promote only if "
             "val R2 does not regress beyond --tolerance",
    )
    retrain_cmd.add_argument(
        "--tolerance", type=float, default=0.02,
        help="max held-out R2 regression a candidate may show (default: 0.02)",
    )
    retrain_cmd.add_argument("--epochs", type=int, default=None,
                             help="override the scale's epoch budget")
    retrain_cmd.add_argument("--scale", choices=("quick", "default", "paper"),
                             default=None, help="corpus/effort preset")
    retrain_cmd.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject trainer-side faults from this plan",
    )
    retrain_cmd.add_argument("--seed", type=int, default=0)
    obs_cmd = sub.add_parser(
        "obs",
        help="summarize an observability dump, watch a stream, "
             "profile phases, or gate benchmark regressions",
    )
    obs_cmd.add_argument(
        "target", nargs="+",
        help="directory written by --obs-out; 'watch STREAM.jsonl' to "
             "render the live dashboard; 'report STREAM.jsonl' to print "
             "an offline stream summary; 'profile' to print a ranked "
             "phase-cost table of a congested Adrias scenario; "
             "'perfcheck' to gate a benchmark report against the "
             "committed baseline",
    )
    obs_cmd.add_argument(
        "--once", action="store_true",
        help="watch: print a single frame and exit (non-interactive/CI)",
    )
    obs_cmd.add_argument(
        "--fleet", action="store_true",
        help="watch/report: render the per-node rack view (node tables, "
             "pool arbitration) instead of the single-engine dashboard",
    )
    obs_cmd.add_argument(
        "--exit-on-end", action=argparse.BooleanOptionalAction, default=None,
        help="watch: exit when the stream's end record arrives (default); "
             "--no-exit-on-end keeps following so the watcher rides across "
             "a daemon warm restart appending to the same stream",
    )
    obs_cmd.add_argument(
        "--interval", type=float, default=1.0,
        help="watch: seconds between dashboard refreshes (default: 1)",
    )
    obs_cmd.add_argument(
        "--duration", type=float, default=300.0,
        help="profile: simulated seconds of the profiled scenario "
             "(default: 300)",
    )
    obs_cmd.add_argument(
        "--hidden", type=int, default=32,
        help="profile: LSTM hidden width of the fabricated models "
             "(default: 32)",
    )
    obs_cmd.add_argument(
        "--seed", type=int, default=0,
        help="profile: scenario seed (default: 0)",
    )
    obs_cmd.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="profile: only print the N most expensive phases",
    )
    obs_cmd.add_argument(
        "--trace", metavar="TRACE.json", default=None,
        help="profile: also dump the per-phase timeline as a Chrome "
             "trace-event file (chrome://tracing / Perfetto)",
    )
    obs_cmd.add_argument(
        "--baseline", metavar="PATH",
        default="benchmarks/baselines/BENCH_engine.json",
        help="perfcheck: committed baseline report "
             "(default: benchmarks/baselines/BENCH_engine.json)",
    )
    obs_cmd.add_argument(
        "--current", metavar="PATH", default=None,
        help="perfcheck: freshly measured report; when omitted a fresh "
             "engine bench is run in-process (smoke scale unless --full)",
    )
    obs_cmd.add_argument(
        "--tolerance", type=float, default=0.2,
        help="perfcheck: relative regression allowed per metric "
             "(default: 0.2)",
    )
    obs_cmd.add_argument(
        "--headroom", type=float, default=1.0,
        help="perfcheck: extra baseline-floor divisor for slower "
             "machines, e.g. 3 on shared CI runners (default: 1)",
    )
    obs_cmd.add_argument(
        "--full", action="store_true",
        help="perfcheck: run the full (non-smoke) bench when measuring "
             "in-process",
    )
    serve_cmd = sub.add_parser(
        "serve",
        help="run the long-running orchestrator daemon with a declarative "
             "safety envelope (DESIGN.md §15)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = OS-assigned, printed on startup)",
    )
    serve_cmd.add_argument("--nodes", type=int, default=2,
                           help="fleet size (default: 2)")
    serve_cmd.add_argument(
        "--max-link-utilization", type=float, default=0.7,
        help="interference-threshold policy knob (default: 0.7)",
    )
    serve_cmd.add_argument(
        "--tick-interval", type=float, default=0.01, metavar="S",
        help="wall seconds per simulated tick (default: 0.01)",
    )
    serve_cmd.add_argument(
        "--watchdog-timeout", type=float, default=1.0, metavar="S",
        help="wall seconds without a completed tick before the watchdog "
             "restarts the engine loop (default: 1)",
    )
    serve_cmd.add_argument(
        "--request-timeout", type=float, default=5.0, metavar="S",
        help="idle seconds before a half-sent request is rejected "
             "(default: 5)",
    )
    serve_cmd.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="S",
        help="simulated seconds the engine breaker stays open after a "
             "watchdog restart (default: 30)",
    )
    serve_cmd.add_argument(
        "--pool-regime", choices=("pooled", "shared-segment"), default=None,
        help="attach a rack memory pool in this regime",
    )
    serve_cmd.add_argument("--pool-capacity", type=float, default=None,
                           metavar="GB", help="rack pool capacity override")
    serve_cmd.add_argument("--pool-bw", type=float, default=None,
                           metavar="GBPS",
                           help="rack fabric aggregate bandwidth override")
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument(
        "--safety", metavar="ENVELOPE.json", default=None,
        help="declarative safety envelope (see --sample-envelope)",
    )
    serve_cmd.add_argument(
        "--sample-envelope", metavar="FILE", nargs="?", const="-",
        default=None,
        help="write a sample safety envelope to FILE (or stdout) and exit",
    )
    serve_cmd.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="daemon-side fault plan (see 'repro faults sample --daemon')",
    )
    serve_cmd.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="write the crash-safe daemon checkpoint here on drain",
    )
    serve_cmd.add_argument(
        "--resume", metavar="FILE", default=None,
        help="warm-restart from a daemon checkpoint (config, envelope and "
             "fault plan come from the checkpoint)",
    )
    serve_cmd.add_argument(
        "--max-wall-s", type=float, default=None, metavar="S",
        help="auto-drain after this much wall time (soak/CI guard)",
    )
    serve_cmd.add_argument(
        "--paused", action="store_true",
        help="start with the tick loop paused (tests drive 'tick' ops)",
    )
    serve_cmd.add_argument(
        "--obs-out", metavar="DIR", default=None,
        help="enable observability; dump artifacts to DIR after the drain",
    )
    serve_cmd.add_argument(
        "--obs-stream", action="store_true",
        help="also stream live telemetry to DIR/stream.jsonl "
             "(requires --obs-out)",
    )
    client_cmd = sub.add_parser(
        "client", help="send one op to a running 'repro serve' daemon"
    )
    client_cmd.add_argument(
        "client_op",
        choices=("deploy", "complete", "query", "drain", "health", "tick"),
        metavar="OP",
        help="deploy | complete | query | drain | health | tick",
    )
    client_cmd.add_argument("--host", default="127.0.0.1")
    client_cmd.add_argument("--port", type=int, required=True)
    client_cmd.add_argument("--app", default=None,
                            help="deploy: workload name (e.g. redis)")
    client_cmd.add_argument("--duration", type=float, default=None,
                            help="deploy: interference duration override")
    client_cmd.add_argument("--id", dest="req_id", default=None,
                            help="complete/query: deployment id")
    client_cmd.add_argument("--count", type=int, default=1,
                            help="deploy: repeat N times (default: 1)")
    client_cmd.add_argument("--n", type=int, default=1,
                            help="tick: ticks to advance (default: 1)")
    client_cmd.add_argument("--timeout", type=float, default=5.0)
    client_cmd.add_argument("--retries", type=int, default=5)
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key, (description, _) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {description}")
        return 0

    if args.command == "faults":
        from repro.faults.errors import FaultPlanError
        from repro.faults.plan import FaultPlan

        if args.faults_command == "sample":
            try:
                variants = [args.trainer, args.daemon, args.availability]
                if sum(variants) > 1:
                    print("--trainer, --daemon and --availability are "
                          "mutually exclusive", file=sys.stderr)
                    return 2
                if args.trainer:
                    plan = FaultPlan.sample_trainer(
                        seed=args.seed, epochs=args.epochs
                    )
                elif args.daemon:
                    plan = FaultPlan.sample_daemon(
                        seed=args.seed, duration_s=args.duration
                    )
                elif args.availability:
                    plan = FaultPlan.sample_availability(
                        seed=args.seed, duration_s=args.duration,
                        n_nodes=args.nodes,
                    )
                else:
                    plan = FaultPlan.sample(
                        seed=args.seed, duration_s=args.duration
                    )
            except FaultPlanError as error:
                print(str(error), file=sys.stderr)
                return 2
            if args.out is not None:
                plan.to_file(args.out)
                print(f"wrote {args.out}: {len(plan)} fault windows, "
                      f"horizon {plan.horizon_s:.0f}s")
            else:
                print(plan.to_json(), end="")
            return 0
        try:
            plan = FaultPlan.from_file(args.plan)
            if args.nodes is not None:
                plan.validate(args.nodes)
        except FileNotFoundError:
            print(f"no such plan file: {args.plan}", file=sys.stderr)
            return 2
        except FaultPlanError as error:
            print(f"invalid plan: {error}", file=sys.stderr)
            return 2
        shape = "" if args.nodes is None else f", {args.nodes}-node fleet"
        print(f"{args.plan}: valid (seed={plan.seed}, "
              f"{len(plan)} windows, horizon {plan.horizon_s:.0f}s{shape})")
        for spec in plan.faults:
            params = ", ".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
            print(f"  {spec.start_s:8.1f}s +{spec.duration_s:6.1f}s  "
                  f"{spec.kind}  {params}")
        return 0

    if args.command in ("train", "retrain"):
        from repro.faults.errors import FaultPlanError
        from repro.faults.plan import FaultPlan

        plan = None
        if args.faults is not None:
            try:
                plan = FaultPlan.from_file(args.faults)
            except (FileNotFoundError, FaultPlanError) as error:
                print(f"--faults: {error}", file=sys.stderr)
                return 2
        if args.scale is not None:
            import os

            os.environ["ADRIAS_SCALE"] = args.scale
        scale = scale_from_env()

        if args.command == "train":
            from repro.models.training_runtime import run_training

            summary = run_training(
                args.ckpt,
                resume=args.resume,
                epochs=args.epochs,
                scale=scale,
                kill_after_epoch=args.kill_after_epoch,
                plan=plan,
                seed=args.seed,
            )
            print(f"== train: system-state model (scale={summary['scale']}) ==")
            print(f"epochs run:        {summary['epochs']}"
                  + (" (resumed)" if summary["resumed"] else ""))
            print(f"train loss:        {summary['train_loss']:.6f}")
            if summary["val_loss"] is not None:
                print(f"val loss:          {summary['val_loss']:.6f}")
            print(f"recoveries:        {summary['recoveries']}")
            if summary["checkpoint_write_failures"]:
                print("ckpt write fails:  "
                      f"{summary['checkpoint_write_failures']}")
            print(f"model digest:      {summary['digest']}")
            print(f"checkpoint:        {summary['checkpoint']}")
            return 0

        from repro.models.promotion import GateConfig
        from repro.models.training_runtime import run_gated_retrain

        gate = (
            GateConfig(tolerance=args.tolerance, seed=args.seed)
            if args.gate else None
        )
        if gate is None:
            from repro.experiments.common import get_predictor, get_traces
            from repro.models.retraining import retrain as plain_retrain

            plain_retrain(
                get_predictor(scale), list(get_traces(scale)),
                epochs=(
                    args.epochs if args.epochs is not None
                    else scale.epochs_performance
                ),
                seed=args.seed,
            )
            print(f"== retrain: ungated (scale={scale.name}) ==")
            print("performance models rebuilt and swapped unconditionally "
                  "(use --gate for held-out promotion gating)")
            return 0
        summary = run_gated_retrain(
            scale=scale, epochs=args.epochs, gate=gate, plan=plan,
            seed=args.seed,
        )
        print(f"== retrain: gated promotion (scale={summary['scale']}) ==")
        for decision in summary["decisions"]:
            verdict = "promoted" if decision["promoted"] else "kept incumbent"
            detail = f"reason={decision['reason']}"
            if decision["candidate_r2"] is not None:
                detail += f" candidate_r2={decision['candidate_r2']:.3f}"
            if decision["incumbent_r2"] is not None:
                detail += f" incumbent_r2={decision['incumbent_r2']:.3f}"
            print(f"  {decision['kind']:<18} {verdict:<15} {detail}")
        print(f"promoted {summary['promoted']}, rejected {summary['rejected']}")
        return 0

    if args.command == "serve":
        from repro.faults.errors import CheckpointError, FaultPlanError
        from repro.faults.plan import FaultPlan
        from repro.serve import (
            DaemonConfig,
            DaemonServer,
            OrchestratorDaemon,
            SafetyConfigError,
            SafetyEnvelope,
        )

        if args.sample_envelope is not None:
            envelope = SafetyEnvelope.sample()
            if args.sample_envelope == "-":
                import json as _json

                print(_json.dumps(envelope.to_dict(), indent=2))
            else:
                envelope.to_file(args.sample_envelope)
                print(f"wrote {args.sample_envelope}: "
                      f"{len(envelope.constraints)} constraints")
            return 0
        envelope = None
        if args.safety is not None:
            try:
                envelope = SafetyEnvelope.from_file(args.safety)
            except SafetyConfigError as error:
                print(f"--safety: {error}", file=sys.stderr)
                return 2
        plan = None
        if args.faults is not None:
            try:
                plan = FaultPlan.from_file(args.faults)
            except (FileNotFoundError, FaultPlanError) as error:
                print(f"--faults: {error}", file=sys.stderr)
                return 2
        if args.obs_stream and args.obs_out is None:
            parser.error("--obs-stream requires --obs-out DIR")
        if args.obs_out is not None:
            if args.obs_stream:
                obs.enable_live(args.obs_out)
            else:
                obs.enable()
        try:
            if args.resume is not None:
                daemon = OrchestratorDaemon.restore(args.resume)
                print(f"serve: warm restart from {args.resume} "
                      f"(clock {daemon.fleet.now:g}s, "
                      f"{len(daemon.ledger)} ledger entries)")
            else:
                config = DaemonConfig(
                    n_nodes=args.nodes,
                    max_link_utilization=args.max_link_utilization,
                    tick_interval_s=args.tick_interval,
                    watchdog_timeout_s=args.watchdog_timeout,
                    request_timeout_s=args.request_timeout,
                    breaker_cooldown_s=args.breaker_cooldown,
                    pool_regime=args.pool_regime,
                    pool_capacity_gb=args.pool_capacity,
                    pool_bw_gbps=args.pool_bw,
                    seed=args.seed,
                    checkpoint_path=args.checkpoint,
                )
                daemon = OrchestratorDaemon(config, envelope=envelope,
                                            plan=plan)
        except (CheckpointError, FaultPlanError, SafetyConfigError) as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        daemon.paused = args.paused
        server = DaemonServer(
            daemon, host=args.host, port=args.port,
            max_wall_s=args.max_wall_s,
        )
        code = server.serve()
        if args.obs_out is not None:
            paths = obs.dump(args.obs_out)
            obs.disable()
            print("observability artifacts:")
            for name in sorted(paths):
                print(f"  {paths[name]}")
        return code

    if args.command == "client":
        import json as _json

        from repro.serve import DaemonClient, DaemonClientError

        client = DaemonClient(
            host=args.host, port=args.port,
            timeout_s=args.timeout, retries=args.retries,
        )
        try:
            if args.client_op == "deploy":
                if args.app is None:
                    print("client deploy requires --app", file=sys.stderr)
                    return 2
                responses = [
                    client.deploy(args.app, duration=args.duration)
                    for _ in range(max(1, args.count))
                ]
                for response in responses:
                    print(_json.dumps(response))
                return 0 if all(r.get("ok") for r in responses) else 1
            if args.client_op in ("complete", "query"):
                if args.req_id is None:
                    print(f"client {args.client_op} requires --id",
                          file=sys.stderr)
                    return 2
                response = getattr(client, args.client_op)(args.req_id)
            elif args.client_op == "tick":
                response = client.tick(args.n)
            else:
                response = getattr(client, args.client_op)()
        except DaemonClientError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(_json.dumps(response))
        return 0 if response.get("ok") else 1

    if args.command == "obs":
        if args.target[0] == "profile":
            from repro.obs.perf.bench import profile_run

            tracer = None
            if args.trace is not None:
                from repro.obs.tracing import SpanTracer

                tracer = SpanTracer()
            acct = profile_run(
                duration_s=args.duration,
                hidden=args.hidden,
                seed=args.seed,
                tracer=tracer,
            )
            print(f"phase profile: congested Adrias scenario, "
                  f"{args.duration:g}s simulated (seed={args.seed}, "
                  f"hidden={args.hidden})")
            print(acct.table(top=args.top))
            if tracer is not None:
                with open(args.trace, "w", encoding="utf-8") as handle:
                    handle.write(tracer.to_json())
                print(f"chrome trace: {args.trace}")
            return 0
        if args.target[0] == "perfcheck":
            from repro.obs.perf import gate

            try:
                baseline = gate.load_report(args.baseline)
                if args.current is not None:
                    current = gate.load_report(args.current)
                else:
                    from repro.obs.perf.bench import run_engine_bench

                    print("measuring fresh engine bench "
                          + ("(full)..." if args.full else "(smoke)..."))
                    current = run_engine_bench(smoke=not args.full)
            except (FileNotFoundError, ValueError) as error:
                print(str(error), file=sys.stderr)
                return 2
            try:
                result = gate.compare_reports(
                    baseline, current,
                    tolerance=args.tolerance, headroom=args.headroom,
                )
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
            print(result.format())
            return 0 if result.ok else 1
        if args.target[0] == "watch":
            if len(args.target) != 2:
                print("usage: python -m repro obs watch STREAM.jsonl",
                      file=sys.stderr)
                return 2
            from repro.obs.live.watch import watch

            return watch(
                args.target[1], interval=args.interval, once=args.once,
                fleet=args.fleet, exit_on_end=args.exit_on_end,
            )
        if args.target[0] == "report":
            if len(args.target) != 2:
                print("usage: python -m repro obs report STREAM.jsonl "
                      "[--fleet]", file=sys.stderr)
                return 2
            from repro.obs.live.watch import read_stream, render_frame

            try:
                records, skipped = read_stream(args.target[1])
            except FileNotFoundError as error:
                print(str(error), file=sys.stderr)
                return 2
            if args.fleet:
                from repro.obs.fleet.report import format_fleet_report

                print(format_fleet_report(records, skipped))
            else:
                print(render_frame(records, skipped))
            return 0
        from repro.obs.report import summarize_dir

        try:
            print(summarize_dir(args.target[0]))
        except FileNotFoundError as error:
            print(str(error), file=sys.stderr)
            return 2
        return 0

    if args.quick and args.scale is None:
        args.scale = "quick"
    if args.scale is not None:
        import os

        os.environ["ADRIAS_SCALE"] = args.scale
    scale = scale_from_env()

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'python -m repro list'",
              file=sys.stderr)
        return 2

    if args.obs_stream and args.obs_out is None:
        parser.error("--obs-stream requires --obs-out DIR")

    fault_plan = None
    if args.faults is not None:
        from repro.faults.errors import FaultPlanError
        from repro.faults.plan import FaultPlan

        try:
            fault_plan = FaultPlan.from_file(args.faults)
        except (FileNotFoundError, FaultPlanError) as error:
            print(f"--faults: {error}", file=sys.stderr)
            return 2

    if args.obs_out is not None:
        if args.obs_stream:
            obs.enable_live(args.obs_out)
        else:
            obs.enable()
    import contextlib

    with contextlib.ExitStack() as stack:
        if fault_plan is not None:
            from repro.faults.runtime import active_plan

            stack.enter_context(active_plan(fault_plan))
            print(f"fault injection: {args.faults} "
                  f"(seed={fault_plan.seed}, {len(fault_plan)} windows)")
        try:
            for target in targets:
                description, runner = EXPERIMENTS[target]
                print(f"== {target}: {description} (scale={scale.name}) ==")
                print(runner(scale))
                print()
        finally:
            if args.obs_out is not None:
                paths = obs.dump(args.obs_out)
                obs.disable()
                print("observability artifacts:")
                for name in sorted(paths):
                    print(f"  {paths[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
