"""Smoke tests: the shipped examples must run end to end.

The training-free examples run fully, and so do the two that train on a
small budget: the offline workflow and online prediction
(``TrainingBudget.quick()``, a few seconds).  ``orchestrate_cluster``
trains for minutes, so it is only imported here and exercised through
its underlying entry points elsewhere (tests/integration/test_pipeline.py)
to keep the suite fast.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_and_reports(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "throughput cap 2.50 Gbps" in out
        assert "mean remote degradation" in out
        assert "nweight" in out


class TestCapacityPlanning:
    def test_runs_and_ranks(self, capsys):
        load_example("capacity_planning").main()
        out = capsys.readouterr().out
        assert "saturation knee" in out
        assert "safest offload candidates" in out
        # The mild benchmarks must rank safest.
        tail = out.split("safest offload candidates:")[1]
        assert "gmm" in tail and "pca" in tail
        assert "nweight" not in tail


class TestMultiNodeFleet:
    def test_runs_and_pooling_throttles_less(self, capsys):
        load_example("multi_node_fleet").main()
        out = capsys.readouterr().out
        assert "pooled" in out
        assert "shared-segment" in out
        assert "more often than the pooled arbiter" in out


class TestHeterogeneousTiers:
    def test_runs_and_keeps_sensitive_apps_local(self, capsys):
        load_example("heterogeneous_tiers").main()
        out = capsys.readouterr().out
        assert "beta = 0.6" in out
        assert "nweight/lr stay in local DRAM" in out


class TestOfflineWorkflow:
    def test_runs_end_to_end(self, capsys, tmp_path, monkeypatch):
        module = load_example("offline_training_workflow")
        monkeypatch.setattr(sys, "argv", ["prog", str(tmp_path)])
        module.main()
        out = capsys.readouterr().out
        assert "verified after reload" in out
        assert (tmp_path / "system_state.npz").exists()
        assert (tmp_path / "scenario_0.npz").exists()


class TestOnlinePrediction:
    def test_runs_and_reports_each_candidate(self, capsys):
        module = load_example("online_prediction")
        module.main()
        out = capsys.readouterr().out
        checks = out.count("predicted mean link latency")
        assert checks >= 1
        for name in ("nweight", "gmm", "lr", "pca"):
            lines = [line for line in out.splitlines() if line.split()[:1] == [name]]
            assert len(lines) == checks
            assert all("local≈" in line and "remote≈" in line for line in lines)
        assert out.rstrip().splitlines()[-1].startswith("done:")


class TestTrainingExamplesImportable:
    @pytest.mark.parametrize("name", ["orchestrate_cluster"])
    def test_module_loads_without_executing(self, name):
        # Importing must not kick off training (guarded by __main__).
        module = load_example(name)
        assert callable(module.main)
