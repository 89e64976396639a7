"""Adrias reproduction: interference-aware memory orchestration for
disaggregated cloud infrastructures (HPCA 2023).

Top-level packages
------------------
``repro.nn``
    Numpy deep-learning library (LSTM, dense blocks, Adam, ...).
``repro.hardware``
    ThymesisFlow-style disaggregated-memory testbed simulator.
``repro.workloads``
    Redis / Memcached / Spark-HiBench / iBench workload models and the
    memtier-style load generator.
``repro.cluster``
    Discrete-time cluster engine, scenario generation and tracing.
``repro.telemetry``
    The Watcher's catalog of the seven monitored performance events
    (the samples themselves are the cluster trace's counter rows).
``repro.models``
    The Predictor: system-state and performance LSTM models, feature
    pipelines and datasets.
``repro.orchestrator``
    The Orchestrator: Adrias policy plus Random / Round-Robin /
    All-Local baselines and evaluation accounting.
``repro.obs``
    Self-observability: metrics registry, span tracing (Chrome
    trace-event export) and the orchestrator decision-audit log.
``repro.analysis``
    Correlation and characterization analyses (Figs. 2-6).
``repro.experiments``
    One driver per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
