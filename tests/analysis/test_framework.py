"""Framework mechanics: walker, registry, suppressions, reporters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    all_rules,
    render_json,
    rule_catalog,
    run_analysis,
)
from repro.analysis.obs_contract import documented_names
from repro.analysis.runner import PARSE_ERROR_ID
from repro.analysis.suppressions import parse_suppressions
from repro.analysis.walker import Scope, build_project, parse_source

ROOT = Path(__file__).resolve().parent.parent.parent


class TestWalker:
    def test_scope_classification(self):
        project = build_project(ROOT)
        scopes = {s.relpath: s.scope for s in project.sources}
        assert scopes["src/repro/core/engine.py"] is Scope.LIBRARY
        assert scopes["tests/test_parallel.py"] is Scope.TESTS
        assert scopes["tools/trace_report.py"] is Scope.TOOLS

    def test_fixture_directories_are_excluded_from_repo_walk(self):
        project = build_project(ROOT)
        assert not any("fixtures" in s.relpath.split("/") for s in project.sources)

    def test_fixture_corpus_scans_as_library(self):
        fixtures = Path(__file__).resolve().parent / "fixtures"
        project = build_project(fixtures)
        assert project.sources, "fixture corpus must not be empty"
        assert all(s.scope is Scope.LIBRARY for s in project.sources)

    def test_parent_links(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text('"""m."""\n\n\ndef f():\n    """f."""\n    return 1\n')
        source = parse_source(path, tmp_path)
        ret = source.tree.body[1].body[1]
        assert source.parent(ret) is source.tree.body[1]

    def test_syntax_error_becomes_gen001(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_analysis(root=tmp_path)
        assert [f.rule_id for f in report.findings] == [PARSE_ERROR_ID]
        assert report.exit_code == 1


class TestPartialRuns:
    def test_subtree_run_skips_cross_corpus_rules(self):
        # With only a subtree walked, "never emitted" / "now documented"
        # proves nothing, so OBS002/DOC002 must stay silent.
        report = run_analysis([ROOT / "src" / "repro" / "stats"], root=ROOT)
        assert report.exit_code == 0
        assert not any(
            f.rule_id in ("OBS002", "DOC002") for f in report.findings
        )
        # Per-file rules still run: the vetted DET005 guards show up
        # as suppressed findings.
        assert {f.rule_id for f in report.suppressed} == {"DET005"}


class TestRegistry:
    def test_all_packs_registered(self):
        ids = {rid for rid, _name, _rat in rule_catalog()}
        assert {
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "CONC001", "CONC002", "CONC003", "CONC004",
            "OBS001", "OBS002", "OBS003",
            "DOC001", "DOC002",
            "ASYNC001", "ASYNC002", "ASYNC003", "ASYNC004", "ASYNC005",
        } <= ids

    def test_every_rule_has_name_and_rationale(self):
        for rid, name, rationale in rule_catalog():
            assert rid and name and rationale

    def test_select_and_ignore(self):
        only = all_rules(select=["DET005"])
        assert [r.rule_id for r in only] == ["DET005"]
        without = {r.rule_id for r in all_rules(ignore=["DET005"])}
        assert "DET005" not in without and "DET001" in without

    def test_unknown_ids_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown rule"):
            all_rules(select=["NOPE999"])
        with pytest.raises(ValueError, match="unknown rule"):
            all_rules(ignore=["NOPE999"])

    def test_fresh_instances_per_call(self):
        a = all_rules(select=["OBS002"])[0]
        b = all_rules(select=["OBS002"])[0]
        assert a is not b


class TestSuppressions:
    def test_single_and_multiple_ids(self):
        text = (
            "x = 1  # repro: noqa[DET005]\n"
            "y = 2\n"
            "z = 3  # repro: noqa[DET004, CONC001]\n"
        )
        table = parse_suppressions(text)
        assert table == {
            1: frozenset({"DET005"}),
            3: frozenset({"DET004", "CONC001"}),
        }

    def test_trailing_commentary_allowed(self):
        table = parse_suppressions("s = S()  # repro: noqa[CONC002] — why\n")
        assert table[1] == frozenset({"CONC002"})

    def test_blanket_noqa_is_not_honoured(self):
        assert parse_suppressions("x = 1  # repro: noqa\n") == {}
        assert parse_suppressions("x = 1  # noqa\n") == {}

    def test_suppression_must_share_the_finding_line(self, tmp_path):
        (tmp_path / "m.py").write_text(
            '"""m."""\n'
            "# repro: noqa[DET005]\n"
            "BAD = 1.0 == 1.0\n"
        )
        report = run_analysis(root=tmp_path)
        assert [f.rule_id for f in report.unsuppressed] == ["DET005"]


class TestReporters:
    def test_json_is_stable_and_versioned(self, tmp_path):
        (tmp_path / "m.py").write_text('"""m."""\nX = 1.5 == 1.5\n')
        report = run_analysis(root=tmp_path)
        payload = json.loads(render_json(report))
        assert payload["schema"] == "repro.analysis.report"
        assert payload["version"] == 2
        assert payload["exit_code"] == 1
        assert payload["rules"]["DET005"]["findings"] == 1
        assert render_json(report) == render_json(run_analysis(root=tmp_path))

    def test_finding_format_is_clickable(self):
        finding = Finding("DET001", "src/x.py", 3, 7, "msg")
        assert finding.format() == "src/x.py:3:7 DET001 msg"
        assert finding.as_suppressed().format().endswith("(suppressed)")


class TestDocParsing:
    def test_multi_name_cells_and_prose_exclusion(self):
        doc = (
            "# T\n\n## Counters\n\n"
            "| Name | Meaning |\n|---|---|\n"
            "| `a.hits` / `a.misses` | pair |\n\n"
            "## Prose\n\nmentions `not.a.metric` in passing.\n"
        )
        names = documented_names(doc)
        assert set(names) == {"a.hits", "a.misses"}
        assert names["a.hits"] == 7
