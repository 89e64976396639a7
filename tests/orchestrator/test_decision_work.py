"""The work of one Adrias decision, counted exactly.

One congested replay runs under counting wrappers around the layers a
decision touches (window read, system-state forward, performance
forward, LSTM rows).  The counts are deterministic for the seed, so
they are asserted with ``==``: a second Ŝ forward per decision, a lost
signature-encoding cache or a window read that copies the whole trace
each change them.
"""

import functools

import pytest

from repro.cluster.scenario import run_scenario
from repro.cluster.trace import Trace
from repro.models.performance import PerformancePredictor
from repro.models.predictor import Predictor
from repro.models.system_state import SystemStatePredictor
from repro.nn.recurrent import LSTM
from repro.obs.perf.profile import congested_adrias


@pytest.fixture(scope="module")
def replay():
    """Counts of one 300 s congested Adrias replay (tiny LSTMs)."""
    scenario, policy = congested_adrias(duration_s=300.0, hidden=4)
    counts = {"lstm_rows": 0, "read": [], "apps": set()}
    patch = pytest.MonkeyPatch()

    def count(owner, attr, note=None):
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        counts[name] = 0

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            result = original(*args, **kwargs)
            if note is not None:
                note(args, result)
            return result

        patch.setattr(owner, attr, counted)

    def lstm_rows(args, result):
        counts["lstm_rows"] += len(args[1])

    count(Predictor, "predict_both_modes",
          lambda args, result: counts["apps"].add(args[1].name))
    count(Trace, "window")
    count(Trace, "_read", lambda args, result: counts["read"].append(len(result)))
    count(SystemStatePredictor, "predict")
    count(PerformancePredictor, "predict")
    count(LSTM, "forward", lstm_rows)
    try:
        run_scenario(scenario, scheduler=policy)
    finally:
        patch.undo()
    counts["history_raw_steps"] = policy.predictor.config.history_raw_steps
    return counts


def predictions(replay) -> int:
    return replay["Predictor.predict_both_modes"]


def test_the_replay_makes_decisions(replay):
    assert predictions(replay) >= 10
    assert len(replay["apps"]) > 1


def test_one_window_read_per_prediction(replay):
    assert replay["Trace.window"] == predictions(replay)
    assert replay["Trace._read"] == replay["Trace.window"]


def test_no_read_stacks_more_than_the_window(replay):
    assert max(replay["read"]) == replay["history_raw_steps"]


def test_one_forward_of_each_model_per_prediction(replay):
    assert replay["SystemStatePredictor.predict"] == predictions(replay)
    assert replay["PerformancePredictor.predict"] == predictions(replay)


def test_lstm_rows_per_prediction(replay):
    """Ŝ's two layers and the state encoder's two, one row each per
    prediction; the signature encoder's two layers once per app."""
    expected = 4 * predictions(replay) + 2 * len(replay["apps"])
    assert replay["lstm_rows"] == expected
