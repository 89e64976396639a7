"""``repro obs watch`` — terminal dashboard over a live JSONL stream.

Tails the ``stream.jsonl`` written by :class:`LiveSession` and renders a
refreshing plain-text dashboard: tick rate, link saturation regime,
per-policy decision mix, drift scores, SLO burn and the hot phases.
Works on a finished stream too (post-mortem), and in ``--once`` mode
renders a single frame and exits — the non-interactive path CI uses.

The reader is deliberately forgiving: a run killed mid-flush can leave a
torn final line, which is skipped (and counted) rather than fatal, so
``watch`` can follow a stream that is still being written.  A stream
file that vanishes *mid-watch* (log rotation, a fresh ``--obs-out`` run
replacing the directory) is likewise survivable: the watcher waits for
it to reappear with bounded exponential backoff, printing a reconnect
notice, and only gives up after the attempt budget is exhausted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.analysis.reporting import format_kv, format_table
from repro.obs.perf.accounting import is_envelope, phase_table

__all__ = ["read_stream", "render_frame", "watch"]

#: Ticks used for the instantaneous tick-rate estimate.
_RATE_WINDOW = 50

#: Reconnect budget when the stream file vanishes mid-watch.
_RECONNECT_ATTEMPTS = 5
_RECONNECT_MAX_DELAY_S = 10.0


def read_stream(path: str | Path) -> tuple[list[dict], int]:
    """Parse a JSONL stream; returns ``(records, skipped_lines)``.

    Lines that fail to parse (a torn tail from a killed run) are
    skipped, never fatal.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no stream at {path}")
    records, skipped = [], 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    return records, skipped


def _tick_rate(ticks: list[dict]) -> float:
    """Simulated ticks per wall-second over the trailing rate window."""
    recent = ticks[-_RATE_WINDOW:]
    if len(recent) < 2:
        return float("nan")
    dw = recent[-1].get("wall", 0.0) - recent[0].get("wall", 0.0)
    dn = recent[-1].get("n", 0) - recent[0].get("n", 0)
    return dn / dw if dw > 0 else float("nan")


def render_frame(records: list[dict], skipped: int = 0) -> str:
    """One dashboard frame from the records parsed so far."""
    ticks = [r for r in records if r.get("t") == "tick"]
    events = [r for r in records if r.get("t") == "event"]
    # Version-1 streams' sampled ``profile`` records carry no phases.
    profiles = [
        r for r in records if r.get("t") == "profile" and r.get("phases")
    ]
    ended = any(r.get("t") == "end" for r in records)
    if not ticks:
        return "live stream: no tick records yet"
    last = ticks[-1]

    sections = []
    header = {
        "status": "finished" if ended else "running",
        "ticks": last.get("n", len(ticks)),
        "session clock s": f"{last.get('clock', 0.0):.0f}",
        "engine / sim s": f"#{last.get('engine', 0)} @ {last.get('sim', 0.0):.0f}",
        "tick rate /s": f"{_tick_rate(ticks):.0f}",
        "running apps": last.get("running", 0),
        "link util": f"{last.get('link_util', 0.0):.3f}",
    }
    if skipped:
        header["torn lines skipped"] = skipped
    sections.append(format_kv(header, title="Live observability"))

    regimes: dict[str, int] = defaultdict(int)
    decisions: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for tick in ticks:
        for regime, count in tick.get("regimes", {}).items():
            regimes[regime] += count
        for policy, modes in tick.get("decisions", {}).items():
            for mode, count in modes.items():
                decisions[policy][mode] += count
    if regimes:
        total = sum(regimes.values())
        sections.append(
            format_table(
                ["regime", "resolves", "share"],
                [
                    (name, count, f"{count / total * 100:.1f}%")
                    for name, count in sorted(regimes.items())
                ],
                title="Link saturation regime",
            )
        )
    if decisions:
        sections.append(
            format_table(
                ["policy", "local", "remote", "total"],
                [
                    (
                        policy,
                        modes.get("local", 0),
                        modes.get("remote", 0),
                        sum(modes.values()),
                    )
                    for policy, modes in sorted(decisions.items())
                ],
                title="Decision mix",
            )
        )

    drift = last.get("drift") or _last_value(ticks, "drift")
    if drift:
        sections.append(
            format_table(
                ["stream", "score", "ewma |rel err|", "joins", "alarms"],
                [
                    (
                        stream,
                        f"{state.get('score', 0.0):.3f}",
                        f"{state.get('ewma', 0.0):.3f}",
                        state.get("n", 0),
                        state.get("alarms", 0),
                    )
                    for stream, state in sorted(drift.items())
                ],
                title="Predictor drift",
            )
        )

    slo = last.get("slo") or _last_value(ticks, "slo")
    if slo:
        windows = sorted(
            {w for state in slo.values() for w in state.get("burn", {})},
            key=float,
        )
        rows = []
        for app, state in sorted(slo.items()):
            rows.append(
                (
                    app,
                    *(
                        f"{state.get('burn', {}).get(w, 0.0):.2f}"
                        for w in windows
                    ),
                    state.get("violations", 0),
                    state.get("total", 0),
                    "ALERT" if state.get("alerting") else "-",
                )
            )
        sections.append(
            format_table(
                ["app", *(f"burn {w}s" for w in windows),
                 "violations", "total", "state"],
                rows,
                title="SLO burn",
            )
        )

    safety = [e for e in events if e.get("kind") in ("safety_veto",
                                                     "safety_clear")]
    if safety:
        state: dict[str, dict] = {}
        for event in safety:
            constraint = event.get("constraint", "?")
            entry = state.setdefault(
                constraint, {"vetoes": 0, "clock": 0.0, "state": "clear"}
            )
            entry["clock"] = event.get("clock", 0.0)
            if event.get("kind") == "safety_veto":
                entry["vetoes"] += 1
                entry["state"] = "TRIPPED"
            else:
                entry["state"] = "clear"
        sections.append(
            format_table(
                ["constraint", "vetoes", "last clock s", "state"],
                [
                    (name, entry["vetoes"], f"{entry['clock']:.0f}",
                     entry["state"])
                    for name, entry in sorted(state.items())
                ],
                title="Safety envelope",
            )
        )

    if events:
        rows = [
            (
                event.get("kind", "?"),
                f"{event.get('clock', 0.0):.0f}",
                event.get("stream") or event.get("app") or "-",
                f"{event.get('score', event.get('violations', 0)):.2f}"
                if isinstance(
                    event.get("score", event.get("violations", 0)), float
                )
                else str(event.get("score", event.get("violations", 0))),
            )
            for event in events[-8:]
        ]
        sections.append(
            format_table(
                ["event", "clock s", "subject", "score"],
                rows,
                title="Recent events",
            )
        )

    if profiles:
        leaves = {
            name: entry
            for name, entry in profiles[-1]["phases"].items()
            if not is_envelope(name)
        }
        sections.append("Hot phases\n" + phase_table(leaves, top=8))

    return "\n\n".join(sections)


def _last_value(ticks: list[dict], key: str):
    for tick in reversed(ticks):
        if tick.get(key):
            return tick[key]
    return None


def _await_stream(path: Path, interval: float, out, sleep) -> bool:
    """Bounded-backoff wait for a vanished stream file to reappear."""
    delay = max(interval, 0.1)
    for attempt in range(1, _RECONNECT_ATTEMPTS + 1):
        print(
            f"watch: stream {path} vanished (rotated?); "
            f"retry {attempt}/{_RECONNECT_ATTEMPTS} in {delay:.1f}s",
            file=out, flush=True,
        )
        sleep(delay)
        if path.exists():
            print(f"watch: stream {path} is back; reconnecting",
                  file=out, flush=True)
            return True
        delay = min(delay * 2, _RECONNECT_MAX_DELAY_S)
    return False


def _end_reason(records: list[dict]) -> str:
    """Reason annotated on the last ``end`` record, if any."""
    for record in reversed(records):
        if record.get("t") == "end":
            return record.get("reason") or "run completed"
    return "run completed"


def watch(
    path: str | Path,
    interval: float = 1.0,
    once: bool = False,
    max_frames: int | None = None,
    out=None,
    sleep=time.sleep,
    fleet: bool = False,
    exit_on_end: bool | None = None,
) -> int:
    """Render the dashboard; refresh until the stream ends.

    ``once`` renders a single frame without clearing the screen (the CI
    mode); otherwise the terminal is redrawn every ``interval`` seconds
    until an ``end`` record appears (or ``max_frames`` is reached).
    When an ``end`` record arrives the watcher says *why* the stream
    ended (daemon drains annotate the record with a reason) instead of
    exiting wordlessly.  ``exit_on_end=False`` keeps following past the
    marker — a warm-restarted daemon appends to the same stream, so the
    watcher should be able to ride across the restart.  ``fleet``
    switches to the per-node rack dashboard
    (:func:`repro.obs.fleet.render_fleet_frame`) fed by the same
    stream.  A stream file deleted mid-watch triggers the reconnect
    loop instead of a crash; in ``once`` mode a missing stream fails
    fast with exit code 2.  ``sleep`` is injectable so tests can drive
    the reconnect path without waiting out the backoff.
    """
    out = out if out is not None else sys.stdout
    path = Path(path)
    frames = 0
    announced_end = False
    if fleet:
        from repro.obs.fleet.report import render_fleet_frame
        renderer = render_fleet_frame
    else:
        renderer = render_frame
    while True:
        try:
            records, skipped = read_stream(path)
        except FileNotFoundError:
            if once or not _await_stream(path, interval, out, sleep):
                print(f"watch: no stream at {path}", file=out, flush=True)
                return 2
            continue
        frame = renderer(records, skipped)
        if once:
            print(frame, file=out)
            return 0
        print("\x1b[2J\x1b[H" + frame, file=out, flush=True)
        frames += 1
        if any(r.get("t") == "end" for r in records):
            if exit_on_end is None or exit_on_end:
                print(f"watch: stream ended: {_end_reason(records)}",
                      file=out, flush=True)
                return 0
            if not announced_end:
                announced_end = True
                print(
                    f"watch: stream ended: {_end_reason(records)} "
                    "(following for a restart; interrupt to stop)",
                    file=out, flush=True,
                )
        if max_frames is not None and frames >= max_frames:
            return 0
        sleep(interval)
