"""Tests for the paper reproduction: table formatting and the paper's shape.

The formatting helpers and result containers are unit-tested; the paper's
qualitative claims (Tables 1-4, Figure 2, the appendix listings) are checked
on one full execution of the declarative paper sweep, the same one
``python -m repro tables`` prints.
"""

import numpy as np
import pytest

from repro.api import execute_spec
from repro.circuits import hard_suite
from repro.experiments import (
    CONFIDENCE,
    appendix_listings,
    figure2_data,
    format_count,
    format_percent,
    format_seconds,
    format_table,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.experiments.appendix import AppendixListing
from repro.experiments.figure2 import Figure2Data
from repro.experiments.table1 import Table1Row, format_table1
from repro.experiments.table3 import Table3Row, format_table3

HARD_KEYS = [entry.key for entry in hard_suite()]


@pytest.fixture(scope="module")
def paper_reports():
    """One serial run of the whole paper sweep (all twelve circuits)."""
    return [execute_spec(spec) for spec in suite_specs()]


class TestFormatting:
    def test_format_count_styles(self):
        assert format_count(None) == "-"
        assert format_count(2500) == "2,500"
        assert format_count(5.6e8) == "5.6e+08"
        assert format_count(float("inf")) == "inf"

    def test_format_percent_and_seconds(self):
        assert format_percent(99.66) == "99.7 %"
        assert format_percent(None) == "-"
        assert format_seconds(12.34) == "12.3 s"
        assert format_seconds(None) == "-"

    def test_format_table_alignment_and_title(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title + header + rule + 2 rows

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_table1_formatter_includes_paper_column(self):
        row = Table1Row("s1", "S1", True, 100, 200, 123456, 5.6e8)
        text = format_table1([row])
        assert "5.6e+08" in text and "S1" in text

    def test_table3_formatter_shows_improvement(self):
        row = Table3Row("s1", "S1", 1_000_000, 10_000, 100.0, 3, 3.5e4)
        assert "x100" in format_table3([row])


class TestSuitePlumbing:
    def test_confidence_is_paper_grade(self):
        assert 0.99 <= CONFIDENCE < 1.0


class TestResultContainers:
    def test_figure2_crossover_gap(self):
        data = Figure2Data("s1", [10, 100], [60.0, 70.0], [80.0, 99.0])
        assert data.crossover_gap() == pytest.approx(20.0)

    def test_appendix_grouping(self):
        listing = AppendixListing("s1", "S1", ["a0", "a1", "a2", "a3"], [0.9, 0.9, 0.1, 0.9])
        groups = listing.grouped()
        assert groups == [("1-2", 0.9), ("3", 0.1), ("4", 0.9)]


class TestPaperShape:
    """The qualitative results of the paper, reproduced on the substituted
    circuits."""

    def test_table1_starred_circuits_need_far_more_patterns(self, paper_reports):
        rows = table1_rows(paper_reports)
        by_key = {row.key: row for row in rows}
        hard = [row.measured_length for row in rows if row.hard]
        easy = sorted(row.measured_length for row in rows if not row.hard)
        assert len(hard) == len(HARD_KEYS) and easy
        # Every starred circuit needs more patterns than the median unstarred
        # one, and the worst starred circuit dwarfs every easy one.
        assert min(hard) > easy[len(easy) // 2]
        assert max(hard) > 100 * max(easy) or max(hard) > 10**6
        # S1's equality chain makes it one of the hardest circuits.
        assert by_key["s1"].measured_length > 10**6

    def test_table2_conventional_test_leaves_faults_undetected(self, paper_reports):
        rows = table2_rows(paper_reports)
        assert [row.key for row in rows] == HARD_KEYS
        for row in rows:
            # The paper reports 77.2-93.9 %: clearly below complete coverage.
            assert row.measured_coverage < 97.0, row
            assert row.n_undetected > 0, row

    def test_table3_optimization_shortens_every_test(self, paper_reports):
        rows = table3_rows(paper_reports)
        assert [row.key for row in rows] == HARD_KEYS
        by_key = {row.key: row for row in rows}
        for row in rows:
            assert row.optimized_length < row.conventional_length, row
        # The comparator is where weighting pays off most (paper: 5.6e8 ->
        # 3.5e4): at least three orders of magnitude on S1, and at least 5x
        # on every starred circuit.
        assert by_key["s1"].improvement_factor > 1_000
        assert all(row.improvement_factor >= 5 for row in rows)

    def test_table4_optimized_patterns_beat_conventional(self, paper_reports):
        conventional = {row.key: row for row in table2_rows(paper_reports)}
        rows = table4_rows(paper_reports)
        assert [row.key for row in rows] == HARD_KEYS
        for row in rows:
            baseline = conventional[row.key]
            assert row.measured_coverage > baseline.measured_coverage, row
            assert row.n_undetected < baseline.n_undetected, row
        # The paper reaches 98.9-99.7 % on all four; the substituted suite does
        # on at least three (the scaled-down divider S2 is the exception).
        assert sum(row.measured_coverage >= 98.0 for row in rows) >= 3

    def test_figure2_optimized_curve_dominates(self, paper_reports):
        data = figure2_data(paper_reports)
        assert data is not None
        assert data.crossover_gap() >= 0.0
        # Optimized approaches full coverage, conventional stalls.
        assert data.optimized[-1] > 97.0
        assert data.conventional[-1] < data.optimized[-1] - 5.0

    def test_appendix_weights_are_on_grid_and_unequiprobable(self, paper_reports):
        listings = appendix_listings(paper_reports)
        assert [listing.circuit_key for listing in listings] == ["s1", "c7552"]
        for listing in listings:
            weights = np.asarray(listing.weights)
            # On the 0.05 grid, never 0 or 1 (Lemma 2: that would make the
            # input's stuck-at fault untestable).
            assert np.allclose(np.round(weights / 0.05) * 0.05, weights, atol=1e-9)
            assert weights.min() >= 0.05 - 1e-9
            assert weights.max() <= 0.95 + 1e-9
            assert np.abs(weights - 0.5).max() > 0.2
