"""Helpers shared by the benchmark's entry points (no numpy at import)."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output (daemon obs dumps, span files, per-run details).
OUT_DIR = ROOT / ".perfbench_out"
PINNED = BENCH_DIR / "pinned.json"

WORKLOADS = ("replay-adrias", "fleet-rack", "serve-daemon")

#: Set-ups per untraced run, each in a fresh process; setup_s is their
#: median.  A set-up of fleet-rack or serve-daemon is a window of about
#: half a second, which one swing of the host's speed can cover whole,
#: and each further set-up costs only that half second.  With three,
#: ten runs of fleet-rack's spread by up to 26 %; with five, 15-19 %,
#: and serve-daemon's still 26-35 % (steadiness.json).  replay-adrias
#: sets up once: its set-up is 13 s of training, a long window on its
#: own, and two more would add half a minute to every run.
SETUP_REPEATS = {"replay-adrias": 1, "fleet-rack": 5, "serve-daemon": 5}

#: The deployment setting every measurement assumes: one BLAS thread.
#: OpenBLAS's default of two threads burns the second vCPU during
#: training for no wall-clock gain and perturbs whatever runs beside it.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


#: Probe time, in seconds, of the reference host that time metrics are
#: reported against (see HostProbe).  Every time metric but setup_s is
#: reported at this reference; the details file keeps each one as
#: measured too, and steadiness.json records the spreads of both.
PROBE_REF_S = 0.002

#: Tails printed with every untraced run but held to no bound.  On the
#: shared host this benchmark was built on, ten runs of a p99 spread by
#: up to 19 % on the replays, and on serve-daemon by up to 22 % for
#: deploys and 92 % for queries (steadiness.json): near or past the
#: largest bound a metric may have.  A p99 is made by the dozen slowest
#: operations, where one stall of the vCPU counts.  A p90 rests on a
#: hundred or more samples, but on serve-daemon the slowest tenth of
#: requests still moves with the host far more than the median: in one
#: run with the host at its slowest, the deploy p90 as measured read
#: 11.8 ms against 4.5-5.7 ms in seven others, its p50 3.9 against
#: 2.6-3.1 ms; and two sets of ten runs of the deploy p90, timed from
#: the due time, spread by 28 % and 33 %.
UNBOUNDED = ("latency_ms_p90", "read_ms_p90", "latency_ms_p99", "read_ms_p99")


class HostProbe:
    """Host-speed probe: random reads over a working set larger than L2.

    On a shared host this program's interpreter- and cache-bound work
    runs up to twice as slow, in swings that last from a fraction of a
    second to tens of minutes.  A probe taken every few operations, in
    the same process, tracks the swings, so a time sample can be taken
    at the reference probe time: divided by the host factor around it,
    the median of the LOCAL nearest probes over PROBE_REF_S.  The probe
    runs no program code, but it shares the caches with the program
    between samples, so a change that shrinks the program's cache
    footprint also speeds the probe up a little and understates its own
    gain.
    """

    CELLS = 200_000
    STEPS = 8_000
    #: Probes on each side of a sample that set its host factor.
    LOCAL = 3

    def __init__(self) -> None:
        rng = random.Random(0)
        self._cells = [rng.random() for _ in range(self.CELLS)]
        self._order = [rng.randrange(self.CELLS) for _ in range(self.STEPS)]
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._local: list[float] | None = None

    def sample(self) -> None:
        cells = self._cells
        start = time.perf_counter()
        acc = 0.0
        for index in self._order:
            acc += cells[index]
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)
        self._local = None

    @property
    def taken(self) -> int:
        return len(self.samples)

    def factor(self) -> float:
        """Median probe time of the whole run over the reference."""
        return median(self.samples) / PROBE_REF_S

    def local(self, taken: int) -> float:
        """Host factor for a moment when ``taken`` probes had run."""
        if self._local is None:
            n, h = len(self.samples), self.LOCAL
            self._local = [
                median(self.samples[max(0, min(k - h, n - 2 * h)):max(k + h, 2 * h)])
                / PROBE_REF_S
                for k in range(n + 1)
            ]
        return self._local[taken]

    def normalize(self, seconds: list[float], taken: list[int]) -> list[float]:
        """Each sample divided by the host factor around it."""
        return [value / self.local(k) for value, k in zip(seconds, taken)]

    def busy(self, start: float, end: float, first: int, last: int) -> float:
        """Wall time of ``[start, end]`` at the reference probe time,
        without the probes ``first .. last - 1`` that ran inside it."""
        total, at = 0.0, start
        for k in range(first, last):
            total += (self.starts[k] - at) / self.local(k)
            at = self.starts[k] + self.samples[k]
        return total + (end - at) / self.local(last)


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def require_source() -> None:
    """Exit 2 (printing no result) when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A Beta-weighted average of the order statistics around the
    quantile, rather than one or two of them: with 1,000 samples a p99
    then rests on the dozen or so slowest samples instead of the tenth
    alone, which narrows the run-to-run spread a few stalls can cause.
    """
    import numpy as np
    from scipy.special import betainc

    data = np.sort(np.asarray(values, dtype=float))
    if not data.size:
        raise ValueError("percentile of no samples")
    n, p = data.size, q / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), data))


def median(values) -> float:
    """The middle sample (mean of the two middle ones)."""
    return statistics.median(values)


def digest(items) -> str:
    """Stable short hash of a sequence of discrete outcomes."""
    h = hashlib.blake2b(digest_size=12)
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def latency_metrics(prefix: str, seconds: list[float]) -> dict:
    """``<prefix>_p50``, ``_p90`` and ``_p99`` in ms over the samples."""
    ms = [s * 1e3 for s in seconds]
    return {
        f"{prefix}_p{q}": metric(percentile(ms, float(q)), "ms", len(ms))
        for q in (50, 90, 99)
    }


def add_setup(result: dict, setups: list[float], traced: bool) -> dict:
    """Record the set-up samples; untraced, setup_s is their median,
    as measured."""
    result["setups_s"] = setups
    if not traced:
        result["metrics"]["setup_s"] = metric(median(setups), "s", len(setups))
    return result


def load_pinned() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.is_file() else {}


def check_pinned(workload: str, seed: int, digests: list[str]) -> list[str]:
    """Problems found comparing per-unit digests with the pinned ones.

    Only the default seed is pinned, and only the units a run at
    BENCHMARK.json's run_seconds replays; a longer run's further units
    are unchecked.
    """
    pinned = load_pinned().get(workload)
    if pinned is None or seed != pinned["seed"]:
        return []
    return [
        f"{workload} unit {index}: outcome digest {got} != pinned {want}"
        for index, (got, want) in enumerate(zip(digests, pinned["digests"]))
        if got != want
    ]
