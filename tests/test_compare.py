"""Tests for the run-comparison tool."""

import json

import pytest

from repro.bench.compare import Drift, compare_dirs, compare_reports, render


def report(name, data):
    return {"experiment": name, "title": name, "data": data}


class TestCompareReports:
    def test_no_drift(self):
        a = report("x", {"v": 1.0, "nested": {"w": [1, 2]}})
        assert compare_reports(a, a) == []

    def test_detects_drift(self):
        a = report("x", {"v": 100.0})
        b = report("x", {"v": 120.0})
        drifts = compare_reports(a, b)
        assert len(drifts) == 1
        assert drifts[0].rel_change == pytest.approx(0.2)

    def test_tolerance_respected(self):
        a = report("x", {"v": 100.0})
        b = report("x", {"v": 103.0})
        assert compare_reports(a, b, rel_tolerance=0.05) == []
        assert len(compare_reports(a, b, rel_tolerance=0.01)) == 1

    def test_nested_paths(self):
        a = report("x", {"grid": {"lj": [1.0, 2.0]}})
        b = report("x", {"grid": {"lj": [1.0, 4.0]}})
        drifts = compare_reports(a, b)
        assert drifts[0].path == "grid.lj[1]"

    def test_missing_candidate_leaf_flagged(self):
        """A baseline leaf the candidate lacks is a drift that reads
        ``missing`` at any tolerance, ``wall_*`` leaves included; a leaf
        only the candidate has is ignored."""
        a = report("x", {"v": 1.0, "only_a": 5.0, "wall_s": 1.0})
        b = report("x", {"v": 1.0, "only_b": 9.0})
        drifts = compare_reports(
            a, b, rel_tolerance=1e9, wall_tolerance=float("inf"),
        )
        assert [(d.path, d.after, d.change_text) for d in drifts] == [
            ("only_a", None, "missing"), ("wall_s", None, "missing"),
        ]
        assert "missing" in render(drifts)

    def test_booleans_not_numeric(self):
        a = report("x", {"flag": True})
        b = report("x", {"flag": False})
        assert compare_reports(a, b) == []

    def test_zero_baseline(self):
        a = report("x", {"v": 0.0})
        b = report("x", {"v": 1.0})
        drifts = compare_reports(a, b)
        assert len(drifts) == 1
        assert drifts[0].rel_change == float("inf")


class TestCompareDirs:
    def test_directory_comparison(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        (dir_a / "t.json").write_text(json.dumps(report("t", {"v": 1.0})))
        (dir_b / "t.json").write_text(json.dumps(report("t", {"v": 2.0})))
        (dir_a / "only_a.json").write_text(json.dumps(report("o", {"v": 1})))
        (dir_b / "only_b.json").write_text(json.dumps(report("p", {"v": 1})))
        drifts = compare_dirs(dir_a, dir_b)
        # The baseline's only_a.json has no candidate: a report-level
        # ``missing`` row.  The candidate's extra only_b.json is ignored.
        assert [(d.experiment, d.path, d.change_text) for d in drifts] == [
            ("o", "only_a.json", "missing"),
            ("t", "v", "+100.0%"),
        ]


class TestRender:
    def test_no_drift_message(self):
        assert "no drift" in render([])

    def test_table_output(self):
        d = Drift(experiment="x", path="v", before=1.0, after=2.0)
        out = render([d])
        assert "x" in out and "+100.0%" in out

    def test_zero_baseline_rendered_explicitly(self):
        """A 0 → x transition is shown as such, never as a bare inf%."""
        d = Drift(experiment="x", path="v", before=0.0, after=3.5)
        out = render([d])
        assert "0 → 3.5" in out
        assert "inf" not in out

    def test_zero_to_zero_change_text(self):
        d = Drift(experiment="x", path="v", before=0.0, after=0.0)
        assert d.change_text == "unchanged"


class TestCompareCLI:
    """``python -m repro.bench compare`` is the CI bench gate."""

    def write(self, directory, value):
        directory.mkdir(exist_ok=True)
        (directory / "t.json").write_text(
            json.dumps(report("t", {"v": value}))
        )

    def test_exit_zero_without_drift(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        self.write(tmp_path / "a", 1.0)
        self.write(tmp_path / "b", 1.0)
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_exit_one_on_drift(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        self.write(tmp_path / "a", 1.0)
        self.write(tmp_path / "b", 2.0)
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "+100.0%" in capsys.readouterr().out

    def test_exit_one_on_missing_report(self, tmp_path, capsys):
        """A candidate without the baseline's report fails the gate,
        even when it holds other reports."""
        from repro.bench.__main__ import main

        self.write(tmp_path / "a", 1.0)
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "other.json").write_text(
            json.dumps(report("other", {"v": 1.0}))
        )
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out
        assert "t.json" in out and "missing" in out

    def test_empty_directory_is_an_error_not_a_pass(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        self.write(tmp_path / "a", 1.0)
        (tmp_path / "b").mkdir()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
