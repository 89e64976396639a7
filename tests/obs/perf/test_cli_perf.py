"""End-to-end: ``repro obs profile``."""

import json

from repro.__main__ import main


class TestProfileCommand:
    def test_prints_ranked_table_and_dumps_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "phases_trace.json"
        code = main([
            "obs", "profile", "--duration", "40", "--hidden", "4",
            "--trace", str(trace_path), "--top", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "engine.tick" in out
        # --top 4 limits the table to header + 4 rows.
        table_rows = [
            line for line in out.splitlines()
            if line.startswith(("engine.", "predictor.", "policy."))
        ]
        assert len(table_rows) == 4
        parsed = json.loads(trace_path.read_text())
        assert any(e.get("cat") == "perf" for e in parsed["traceEvents"])

    def test_profile_leaves_accounting_disabled(self):
        from repro.obs.perf import accounting

        assert main(["obs", "profile", "--duration", "30", "--hidden", "4"]) == 0
        assert accounting() is None
