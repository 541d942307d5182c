"""Rule-pack behavior over the fixture corpus.

``fixtures/`` holds one known-bad file per pack (positive cases), one
known-good file per pack (negative cases), a suppression fixture, and a
miniature ``docs/OBSERVABILITY.md`` so the obs-contract rules can be
exercised in both directions without touching the real contract.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def corpus_report():
    return run_analysis(root=FIXTURES)


def _hits(report, path_name):
    return Counter(f.rule_id for f in report.findings if f.path == path_name)


class TestDeterminismPack:
    def test_positive_cases(self, corpus_report):
        hits = _hits(corpus_report, "det_bad.py")
        assert hits["DET001"] == 2  # np.random.seed + np.random.rand
        assert hits["DET002"] == 1  # import random
        assert hits["DET003"] == 2  # unseeded + time-seeded
        assert hits["DET004"] == 2  # set iteration in for + comprehension
        assert hits["DET005"] == 1  # x == 0.3

    def test_negative_cases(self, corpus_report):
        assert not _hits(corpus_report, "det_good.py")

    def test_finding_lines_anchor_to_the_violation(self, corpus_report):
        lines = {
            (f.rule_id, f.line)
            for f in corpus_report.findings
            if f.path == "det_bad.py"
        }
        text = (FIXTURES / "det_bad.py").read_text().splitlines()
        for rule_id, line in lines:
            assert rule_id.split("0")[0] in ("DET",)
            assert 1 <= line <= len(text)


class TestConcurrencyPack:
    def test_positive_cases(self, corpus_report):
        hits = _hits(corpus_report, "conc_bad.py")
        assert hits["CONC001"] == 2  # lambda + nested def
        assert hits["CONC002"] == 1  # bare local store
        assert hits["CONC003"] == 1  # raw SharedMemory(create=True)
        assert hits["CONC004"] == 2  # subscript write + .fill()
        # float64 publish with binned in scope: bound by an assignment, a
        # call keyword and an if-expression
        assert hits["CONC005"] == 3

    @pytest.mark.parametrize(
        "function",
        ["publish_raw_despite_binned_keyword", "publish_raw_despite_binned_ifexp"],
    )
    def test_binned_call_counts_wherever_it_sits(self, corpus_report, function):
        text = (FIXTURES / "conc_bad.py").read_text().splitlines()
        start = next(i for i, line in enumerate(text, 1) if f"def {function}(" in line)
        publish = next(
            i for i, line in enumerate(text, 1) if i > start and line.endswith("# CONC005")
        )
        flagged = {
            f.line
            for f in corpus_report.findings
            if f.path == "conc_bad.py" and f.rule_id == "CONC005"
        }
        assert publish in flagged

    def test_negative_cases(self, corpus_report):
        assert not _hits(corpus_report, "conc_good.py")


class TestObsContractPack:
    def test_positive_cases(self, corpus_report):
        hits = _hits(corpus_report, "obs_bad.py")
        assert hits["OBS001"] == 2  # undocumented counter + span
        assert hits["OBS003"] == 2  # variable name + concatenation

    def test_negative_cases(self, corpus_report):
        assert not _hits(corpus_report, "obs_good.py")

    def test_dead_contract_entry_both_directions(self, corpus_report):
        dead = [f for f in corpus_report.findings if f.rule_id == "OBS002"]
        assert len(dead) == 1
        assert dead[0].path == "docs/OBSERVABILITY.md"
        assert "fixture.dead.counter" in dead[0].message
        # prose-only backticked names never register as contract entries
        assert not any(
            "fixture.not.a.contract.entry" in f.message
            for f in corpus_report.findings
        )


class TestDocstringPack:
    def test_positive_cases(self, corpus_report):
        doc_findings = [
            f for f in corpus_report.findings if f.path == "doc_bad.py"
        ]
        assert Counter(f.rule_id for f in doc_findings)["DOC001"] == 4
        gaps = {f.message.split("`")[1] for f in doc_findings}
        assert gaps == {
            "<module>",
            "undocumented_public",
            "UndocumentedClass",
            "UndocumentedClass.undocumented_method",
        }

    def test_stale_allowlist_skipped_outside_library_tree(self, corpus_report):
        # The fixture corpus has no src/repro tree, so the baseline
        # staleness check must not fire spuriously.
        assert not any(f.rule_id == "DOC002" for f in corpus_report.findings)


class TestSuppressionHandling:
    def test_matching_ids_suppress(self, corpus_report):
        sup = [
            f
            for f in corpus_report.findings
            if f.path == "suppressed.py" and f.suppressed
        ]
        assert Counter(f.rule_id for f in sup) == Counter(
            {"DET005": 2, "DET004": 1}
        )

    def test_non_matching_id_does_not_suppress(self, corpus_report):
        live = [
            f
            for f in corpus_report.findings
            if f.path == "suppressed.py" and not f.suppressed
        ]
        assert [f.rule_id for f in live] == ["DET003"]

    def test_suppressed_findings_do_not_fail_the_run(self, corpus_report):
        # The corpus as a whole is dirty, but only via unsuppressed
        # findings; the suppressed ones are excluded from the exit code.
        assert corpus_report.exit_code == 1
        assert all(
            f.rule_id != "DET005" or f.path != "suppressed.py"
            for f in corpus_report.unsuppressed
        )


def test_corpus_is_dirty_overall(corpus_report):
    # Acceptance: the analyzer exits non-zero on the bad-snippet corpus
    # and every pack contributes at least one finding.
    assert corpus_report.exit_code == 1
    fired = {f.rule_id for f in corpus_report.unsuppressed}
    assert {
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET005",
        "CONC001",
        "CONC002",
        "CONC003",
        "CONC004",
        "CONC005",
        "OBS001",
        "OBS002",
        "OBS003",
        "DOC001",
    } <= fired
