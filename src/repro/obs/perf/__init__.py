"""``repro.obs.perf`` — the repo's single performance-observability
surface.

* :mod:`repro.obs.perf.accounting` — deterministic phase-level
  accounting (wall time + call counts per named phase), the one timer
  on the simulation hot paths, bit-inert when disabled and exportable
  as a Chrome-trace timeline;
* :mod:`repro.obs.perf.profile` (imported lazily — it pulls in the
  model stack) replays a congested Adrias scenario under that
  accounting for ``repro obs profile``.

Wall time end to end comes from perfbench (``perfbench/README.md``);
tier-1 tests count each layer's work per tick and per decision exactly.
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

__all__ = [
    "PhaseAccounting",
    "accounting",
    "enable_phases",
    "disable_phases",
    "phases_session",
    "is_envelope",
    "phase_table",
    "PHASE_NAMES",
]
