"""``repro.obs.perf`` — the repo's single performance-observability
surface.

Two pieces, one theme — *prove each step faster, not slower*:

* :mod:`repro.obs.perf.accounting` — deterministic phase-level
  accounting (wall time + call counts per named phase), the one timer
  on the simulation hot paths, bit-inert when disabled and exportable
  as a Chrome-trace timeline;
* :mod:`repro.obs.perf.gate` — the benchmark-baseline regression gate
  behind ``repro obs perfcheck`` and the CI ``perf-smoke`` job.

:mod:`repro.obs.perf.bench` (imported lazily — it pulls in the model
stack) measures engine ticks/sec and policy decisions/sec and emits
``BENCH_engine.json``.
"""

from repro.obs.perf.accounting import (
    PHASE_NAMES,
    PhaseAccounting,
    accounting,
    disable_phases,
    enable_phases,
    is_envelope,
    phase_table,
    phases_session,
)
from repro.obs.perf.gate import (
    GateCheck,
    GateResult,
    compare_reports,
    extract_metrics,
    load_report,
)

__all__ = [
    # accounting
    "PhaseAccounting",
    "accounting",
    "enable_phases",
    "disable_phases",
    "phases_session",
    "is_envelope",
    "phase_table",
    "PHASE_NAMES",
    # gate
    "GateCheck",
    "GateResult",
    "compare_reports",
    "extract_metrics",
    "load_report",
]
