"""Golden-file and CLI tests for tools/trace_report.py."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_trace_report.txt"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trace_report():
    return _load_tool("trace_report")


def _span(name, seq, dur_s, **attrs):
    record = {
        "type": "span",
        "name": name,
        "seq": seq,
        "parent": 0,
        "t_start_s": 0.1 * seq,
        "dur_s": dur_s,
        "pid": 1234,
        "thread": "MainThread",
    }
    if attrs:
        record["attrs"] = attrs
    return record


def synthetic_records() -> list[dict]:
    """A fixed-timing schema-valid trace of a tiny 3-cell grid run."""
    records = [
        {"type": "meta", "schema": "repro.obs.trace", "version": 1,
         "experiment": "fig4", "scale": "small"},
        {"type": "counter", "name": "cache.memory.hits", "value": 2},
        {"type": "counter", "name": "cache.misses", "value": 1},
        {"type": "counter", "name": "engine.fold_vectors.hits", "value": 1},
        {"type": "counter", "name": "engine.fold_vectors.misses", "value": 2},
        {"type": "counter", "name": "engine.folds.fitted", "value": 10},
        {"type": "counter", "name": "engine.ks.scored", "value": 15},
        {"type": "counter", "name": "engine.targets.hits", "value": 1},
        {"type": "counter", "name": "engine.targets.misses", "value": 2},
        {"type": "counter", "name": "pool.map.calls", "value": 2},
        {"type": "counter", "name": "pool.map.items", "value": 10},
        {"type": "gauge", "name": "pool.worker_utilization", "value": 0.82},
        _span("stage", 1, 1.5, stage="measure"),
        _span("stage", 2, 0.25, stage="featurize"),
        _span("stage", 3, 2.0, stage="fit"),
        _span("cell", 4, 0.8, representation="histogram", model="knn"),
        _span("cell", 5, 1.2, representation="pearsonrnd", model="knn"),
        _span("cell", 6, 3.0, representation="pymaxent", model="knn"),
        _span("stage", 7, 2.25, stage="fit"),
        _span("stage", 8, 0.5, stage="score"),
    ]
    return records


BASELINE = {
    "histogram+knn": 0.8,    # unchanged
    "pearsonrnd+knn": 0.9,   # 1.2 vs 0.9 -> +33% -> regressed at 25%
    # pymaxent+knn absent   -> "new"
}


class TestRenderReport:
    def test_golden_output(self, trace_report):
        text, regressed = trace_report.render_report(
            synthetic_records(), baseline=BASELINE, threshold=0.25
        )
        assert regressed == ["pearsonrnd+knn"]
        assert text == GOLDEN.read_text()

    def test_no_baseline_flags_nothing(self, trace_report):
        text, regressed = trace_report.render_report(synthetic_records())
        assert regressed == []
        assert "REGRESSED" not in text
        assert "base_s" not in text

    def test_higher_threshold_clears_the_flag(self, trace_report):
        _, regressed = trace_report.render_report(
            synthetic_records(), baseline=BASELINE, threshold=0.5
        )
        assert regressed == []


class TestCli:
    def _write_trace(self, path: Path, records) -> Path:
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        return path

    def test_invalid_trace_exits_2(self, trace_report, tmp_path, capsys):
        trace = self._write_trace(tmp_path / "bad.jsonl", [{"type": "mystery"}])
        assert trace_report.main([str(trace)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_regression_exits_1(self, trace_report, tmp_path, capsys):
        trace = self._write_trace(tmp_path / "t.jsonl", synthetic_records())
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(BASELINE))
        code = trace_report.main([str(trace), "--baseline", str(baseline)])
        assert code == 1
        assert "pearsonrnd+knn" in capsys.readouterr().err

    def test_clean_run_exits_0(self, trace_report, tmp_path):
        trace = self._write_trace(tmp_path / "t.jsonl", synthetic_records())
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({k: v * 10 for k, v in BASELINE.items()}))
        assert trace_report.main([str(trace), "--baseline", str(baseline)]) == 0

    def test_without_baseline_flags_nothing(self, trace_report, tmp_path, capsys):
        trace = self._write_trace(tmp_path / "t.jsonl", synthetic_records())
        assert trace_report.main([str(trace)]) == 0
        assert "regressed" not in capsys.readouterr().err

    def test_missing_baseline_path_exits_2(self, trace_report, tmp_path, capsys):
        trace = self._write_trace(tmp_path / "t.jsonl", synthetic_records())
        missing = tmp_path / "nope.json"
        assert trace_report.main([str(trace), "--baseline", str(missing)]) == 2
        assert "baseline not found" in capsys.readouterr().err
        assert trace_report.main([str(trace), "--update-baseline"]) == 2
        assert "needs --baseline" in capsys.readouterr().err

    def test_update_baseline_round_trip(self, trace_report, tmp_path):
        trace = self._write_trace(tmp_path / "t.jsonl", synthetic_records())
        baseline = tmp_path / "new_base.json"
        code = trace_report.main(
            [str(trace), "--baseline", str(baseline), "--update-baseline"]
        )
        assert code == 0
        cells = json.loads(baseline.read_text())
        assert cells == {
            "histogram+knn": 0.8,
            "pearsonrnd+knn": 1.2,
            "pymaxent+knn": 3.0,
        }
        # a trace always passes against its own freshly written baseline
        assert trace_report.main([str(trace), "--baseline", str(baseline)]) == 0
