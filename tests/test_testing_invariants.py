"""Tests for the invariant checkers, the inline engine flag, the fuzz
driver and the ``python -m repro.testing`` CLI."""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.base import get_problem
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.session import EngineSession
from repro.errors import InvariantViolation
from repro.testing.invariants import (
    check_stats,
    check_timeline,
    check_traversal_result,
)


def _run(graph, problem="bfs", source=0, **cfg):
    config = EtaGraphConfig(check_invariants=True, **cfg)
    with EngineSession(graph, config) as session:
        return session.query(get_problem(problem), source)


class TestInlineEngineFlag:
    @pytest.mark.parametrize("mode", list(MemoryMode))
    def test_real_runs_pass_all_checks(self, skewed_graph, mode):
        result = _run(skewed_graph, memory_mode=mode)
        # The engine already checked inline; re-check the final result
        # explicitly with the label cross-check enabled.
        check_traversal_result(result, problem=get_problem("bfs"))

    def test_weighted_run_passes(self, weighted_skewed_graph):
        result = _run(weighted_skewed_graph, "sssp", degree_limit=4)
        check_traversal_result(result, problem=get_problem("sssp"))

    def test_flag_does_not_change_labels(self, skewed_graph):
        on = _run(skewed_graph)
        with EngineSession(skewed_graph, EtaGraphConfig()) as session:
            off = session.query(get_problem("bfs"), 0)
        assert np.array_equal(on.labels, off.labels)

    def test_early_exit_run_still_checked(self, path10):
        """Point-to-point queries stop early; the stats/label cross-check
        is skipped but structural checks still run."""
        config = EtaGraphConfig(check_invariants=True)
        with EngineSession(path10, config) as session:
            result = session.query(get_problem("bfs"), 0, target=5)
        assert result.labels[5] == 5.0


class TestCheckersRejectCorruptData:
    def test_overlapping_compute_intervals(self, skewed_graph):
        result = _run(skewed_graph)
        timeline = result.timeline
        iv = next(i for i in timeline.intervals if i.kind == "compute")
        clone = replace(iv, start_ms=iv.start_ms + 1e-9)
        timeline.intervals.append(clone)
        with pytest.raises(InvariantViolation, match="overlap"):
            check_timeline(timeline)

    def test_negative_interval(self, skewed_graph):
        result = _run(skewed_graph)
        iv = result.timeline.intervals[0]
        result.timeline.intervals[0] = replace(
            iv, end_ms=iv.start_ms - 1.0
        )
        with pytest.raises(InvariantViolation, match="ends before"):
            check_timeline(result.timeline)

    def test_stats_overcount_visited(self, skewed_graph):
        result = _run(skewed_graph)
        stats = result.stats
        # Claim a seed frontier larger than the graph itself.
        stats.seed_count = stats.num_vertices + 5
        with pytest.raises(InvariantViolation, match="visited"):
            check_stats(stats)

    def test_stats_update_overflow(self, skewed_graph):
        result = _run(skewed_graph)
        s = result.stats.iterations[0]
        result.stats.iterations[0] = replace(s, updates=s.edges_scanned + 1)
        with pytest.raises(InvariantViolation, match="updates"):
            check_stats(result.stats)

    def test_edges_exceed_shadow_budget(self, skewed_graph):
        result = _run(skewed_graph, degree_limit=4)
        s = result.stats.iterations[0]
        result.stats.iterations[0] = replace(
            s, edges_scanned=s.shadow_vertices * 4 + 1, updates=0
        )
        with pytest.raises(InvariantViolation, match="shadow vertices at K"):
            check_stats(result.stats, degree_limit=4)

    def test_label_stats_cross_check(self, skewed_graph):
        result = _run(skewed_graph)
        # Un-reach a reached non-source vertex (the source is always
        # counted as reached regardless of its label).
        reached = np.isfinite(result.labels)
        reached[0] = False
        result.labels[np.flatnonzero(reached)[0]] = np.inf
        with pytest.raises(InvariantViolation, match="labels are reached"):
            check_traversal_result(result, problem=get_problem("bfs"))


class TestFuzzDriver:
    def test_small_sweep_is_green(self):
        from repro.testing import run_fuzz

        report = run_fuzz(max_cases=12, seed=123)
        assert report.ok, report.summary()
        assert report.cases == 12
        # All four problems rotated through.
        assert set(report.cases_per_problem) == {"bfs", "sssp", "sswp", "cc"}
        assert report.engine_runs >= 12 * 7
        assert report.metamorphic_checks > 0
        assert "12 differential cases" in report.summary()

    def test_time_budget_stops_sweep(self):
        from repro.testing import run_fuzz

        report = run_fuzz(max_seconds=0.0, seed=1)
        assert report.cases == 0
        assert report.ok

    def test_failures_carry_replay_coordinates(self):
        from repro.testing import run_fuzz

        report = run_fuzz(max_cases=2, seed=7, baselines=("gunrock",))
        assert report.ok
        report.failures.append("case 1: synthetic")
        assert not report.ok
        assert "FAILURES" in report.summary()
        assert "case 1" in report.summary()


class TestCLI:
    def test_green_sweep_exits_zero(self, capsys):
        from repro.testing.__main__ import main

        rc = main(["--cases", "6", "--seed", "3", "-q",
                   "--baselines", "gunrock", "tigr"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6 differential cases" in out
        assert "no invariant violations" in out

    def test_no_metamorphic_flag(self, capsys):
        from repro.testing.__main__ import main

        rc = main(["--cases", "4", "-q", "--no-metamorphic",
                   "--baselines", "gunrock"])
        assert rc == 0
        assert "0 metamorphic checks" in capsys.readouterr().out

    def test_bad_problem_rejected(self):
        from repro.testing.__main__ import main

        with pytest.raises(SystemExit):
            main(["--problems", "pagerank"])
