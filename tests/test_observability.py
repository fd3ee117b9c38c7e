"""Tests for the observability layer: spans, metrics, exporters, wiring.

The two hard requirements pinned here are the ones the subsystem's
design hangs on:

* telemetry-off runs are bit-identical to telemetry-on runs (labels and
  simulated clocks), and a telemetry-off result carries no trace at all;
* the exporters are byte-deterministic (golden files below), so traces
  can be diffed and CI can gate on their schema.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.session import EngineSession
from repro.gpu.profiler import KernelCounters, Profiler
from repro.gpu.timeline import Timeline
from repro.observability import (
    CATEGORIES,
    MetricsRegistry,
    Tracer,
    load_trace,
    render_summary,
    to_chrome_trace,
    unified_snapshot,
    validate_chrome_trace,
)
from repro.observability.export import dumps_stable, to_jsonl
from repro.observability.metrics import (
    add_error_taxonomy,
    add_kernel_counters,
    series_key,
)
from repro.resilience import FaultPlan, FaultSpec, ResilientSession, RetryPolicy
from repro.resilience.chaos import check_bit_identity, result_digest
from repro.utils.intervals import intersection_length, union, union_length


# ----------------------------------------------------------------------
# Interval arithmetic (shared by Timeline and Trace.busy_ms)
# ----------------------------------------------------------------------


class TestIntervals:
    def test_union_merges_overlaps_and_touching(self):
        assert union([(0, 2), (1, 3), (3, 4), (6, 7)]) == [(0, 4), (6, 7)]

    def test_union_sorts_and_keeps_instants(self):
        # Zero-length intervals stay (they mark instants on a timeline)
        # but add nothing to the covered length.
        assert union([(5, 5), (2, 3), (0, 1)]) == [(0, 1), (2, 3), (5, 5)]
        assert union_length([(5, 5), (2, 3), (0, 1)]) == pytest.approx(2.0)

    def test_intersection_length(self):
        a = union([(0, 4), (6, 8)])
        b = union([(2, 7)])
        assert intersection_length(a, b) == pytest.approx(3.0)

    def test_union_length(self):
        assert union_length([(0, 2), (1, 3), (10, 11)]) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Tracer semantics
# ----------------------------------------------------------------------


def golden_tracer() -> Tracer:
    """The hand-built trace the golden-file tests pin down."""
    tr = Tracer()
    q = tr.start("query", "engine", 0.0, problem="bfs")
    it = tr.start("iteration", "engine", 0.0, index=0)
    tr.emit("transform", "compute", 0.25, 0.0, threads=64)
    tr.emit("vertex_kernel", "compute", 0.5, 0.25)
    tr.emit("um.touch", "migration", 0.125, t_ms=0.25, nbytes=4096.0)
    tr.end(it, 0.75)
    tr.end(q, 1.0, iterations=1)
    return tr


class TestTracer:
    def test_nesting_assigns_parents_in_creation_order(self):
        trace = golden_tracer().trace()
        by_name = {r.name: r for r in trace.records}
        assert by_name["query"].parent is None
        assert by_name["iteration"].parent == by_name["query"].sid
        assert by_name["transform"].parent == by_name["iteration"].sid
        assert by_name["um.touch"].parent == by_name["iteration"].sid
        assert [r.sid for r in trace.spans()] == [0, 1, 2, 3, 4]

    def test_end_attrs_merge_over_start_attrs(self):
        tr = Tracer()
        s = tr.start("q", "engine", 0.0, mode="device", warm=False)
        rec = tr.end(s, 1.0, warm=True, iterations=3)
        assert rec.attrs == {"mode": "device", "warm": True, "iterations": 3}

    def test_end_of_outer_span_aborts_inner_ones(self):
        tr = Tracer()
        outer = tr.start("outer", "engine", 0.0)
        tr.start("inner", "engine", 0.5)
        tr.end(outer, 2.0)
        inner_rec = [r for r in tr.records if r.name == "inner"][0]
        outer_rec = [r for r in tr.records if r.name == "outer"][0]
        assert inner_rec.attrs == {"aborted": True}
        assert inner_rec.end_ms == outer_rec.end_ms == 2.0
        assert tr.depth == 0

    def test_ending_a_closed_span_raises(self):
        tr = Tracer()
        s = tr.start("q", "engine", 0.0)
        tr.end(s, 1.0)
        with pytest.raises(ValueError, match="not open"):
            tr.end(s, 2.0)

    def test_unwind_closes_everything_with_attrs(self):
        tr = Tracer()
        tr.start("a", "engine", 0.0)
        tr.start("b", "engine", 1.0)
        tr.unwind(5.0, error="TransferError")
        assert tr.depth == 0
        assert all(r.attrs == {"error": "TransferError"} for r in tr.records)
        assert all(r.end_ms == 5.0 for r in tr.records)

    def test_base_ms_shifts_recorded_times(self):
        tr = Tracer()
        tr.base_ms = 100.0
        s = tr.start("attempt", "resilience", 0.0)
        tr.emit("kernel", "compute", 2.0, t_ms=1.0)
        tr.end(s, 3.0)
        starts = {r.name: r.start_ms for r in tr.records}
        assert starts == {"kernel": 101.0, "attempt": 100.0}
        assert tr.max_end_ms == 103.0

    def test_negative_duration_clamps_to_instant(self):
        tr = Tracer()
        s = tr.start("q", "engine", 5.0)
        rec = tr.end(s, 3.0)  # clock confusion must not corrupt the file
        assert rec.end_ms == rec.start_ms == 5.0


# ----------------------------------------------------------------------
# Trace queries
# ----------------------------------------------------------------------


class TestTrace:
    def test_filter_and_order(self):
        trace = golden_tracer().trace()
        assert len(trace) == 5
        assert [r.name for r in trace.spans("compute")] == \
            ["transform", "vertex_kernel"]
        assert trace.roots()[0].name == "query"
        kids = trace.children_of(trace.roots()[0].sid)
        assert [r.name for r in kids] == ["iteration"]

    def test_categories_in_track_order_then_alphabetical(self):
        tr = Tracer()
        tr.emit("x", "zebra", 1.0, 0.0)
        tr.emit("y", "migration", 1.0, 1.0)
        tr.emit("z", "engine", 1.0, 2.0)
        assert tr.trace().categories() == ["engine", "migration", "zebra"]
        assert set(CATEGORIES) >= {"engine", "migration"}

    def test_busy_ms_is_a_union_not_a_sum(self):
        tr = Tracer()
        tr.emit("a", "compute", 2.0, t_ms=0.0)
        tr.emit("b", "compute", 2.0, t_ms=1.0)  # overlaps a
        assert tr.trace().busy_ms("compute") == pytest.approx(3.0)

    def test_span_ms(self):
        assert golden_tracer().trace().span_ms == pytest.approx(1.0)
        assert Tracer().trace().span_ms == 0.0


# ----------------------------------------------------------------------
# Exporters: golden files, validation, round-trips
# ----------------------------------------------------------------------

GOLDEN_CHROME = (
    '{"displayTimeUnit":"ms","otherData":{"graph":"6v-12e","problem":"bfs"},'
    '"traceEvents":[{"args":{"name":"repro simulated GPU"},'
    '"cat":"__metadata","name":"process_name","ph":"M","pid":0,"tid":0},'
    '{"args":{"name":"engine"},"cat":"__metadata","name":"thread_name",'
    '"ph":"M","pid":0,"tid":0},{"args":{"sort_index":0},"cat":"__metadata",'
    '"name":"thread_sort_index","ph":"M","pid":0,"tid":0},'
    '{"args":{"name":"compute"},"cat":"__metadata","name":"thread_name",'
    '"ph":"M","pid":0,"tid":1},{"args":{"sort_index":1},"cat":"__metadata",'
    '"name":"thread_sort_index","ph":"M","pid":0,"tid":1},'
    '{"args":{"name":"migration"},"cat":"__metadata","name":"thread_name",'
    '"ph":"M","pid":0,"tid":3},{"args":{"sort_index":3},"cat":"__metadata",'
    '"name":"thread_sort_index","ph":"M","pid":0,"tid":3},'
    '{"args":{"iterations":1,"problem":"bfs","sid":0},"cat":"engine",'
    '"dur":1000.0,"name":"query","ph":"X","pid":0,"tid":0,"ts":0.0},'
    '{"args":{"index":0,"parent":0,"sid":1},"cat":"engine","dur":750.0,'
    '"name":"iteration","ph":"X","pid":0,"tid":0,"ts":0.0},'
    '{"args":{"parent":1,"sid":2,"threads":64},"cat":"compute","dur":250.0,'
    '"name":"transform","ph":"X","pid":0,"tid":1,"ts":0.0},'
    '{"args":{"parent":1,"sid":3},"cat":"compute","dur":500.0,'
    '"name":"vertex_kernel","ph":"X","pid":0,"tid":1,"ts":250.0},'
    '{"args":{"nbytes":4096.0,"parent":1,"sid":4},"cat":"migration",'
    '"dur":125.0,"name":"um.touch","ph":"X","pid":0,"tid":3,"ts":250.0}]}'
)

GOLDEN_JSONL = "\n".join([
    '{"graph":"6v-12e","problem":"bfs","type":"meta"}',
    '{"attrs":{"iterations":1,"problem":"bfs"},"category":"engine",'
    '"end_ms":1.0,"name":"query","parent":null,"sid":0,"start_ms":0.0,'
    '"type":"span"}',
    '{"attrs":{"index":0},"category":"engine","end_ms":0.75,'
    '"name":"iteration","parent":0,"sid":1,"start_ms":0.0,"type":"span"}',
    '{"attrs":{"threads":64},"category":"compute","end_ms":0.25,'
    '"name":"transform","parent":1,"sid":2,"start_ms":0.0,"type":"span"}',
    '{"attrs":{},"category":"compute","end_ms":0.75,'
    '"name":"vertex_kernel","parent":1,"sid":3,"start_ms":0.25,'
    '"type":"span"}',
    '{"attrs":{"nbytes":4096.0},"category":"migration","end_ms":0.375,'
    '"name":"um.touch","parent":1,"sid":4,"start_ms":0.25,"type":"span"}',
]) + "\n"


def golden_trace():
    return golden_tracer().trace(problem="bfs", graph="6v-12e")


class TestExporters:
    def test_chrome_golden_bytes(self):
        assert dumps_stable(to_chrome_trace(golden_trace())) == GOLDEN_CHROME

    def test_jsonl_golden_bytes(self):
        assert to_jsonl(golden_trace()) == GOLDEN_JSONL

    def test_golden_trace_validates(self):
        assert validate_chrome_trace(to_chrome_trace(golden_trace())) == []

    def test_tracks_skip_absent_categories_but_keep_fixed_ids(self):
        obj = to_chrome_trace(golden_trace())
        tids = {
            ev["args"]["name"]: ev["tid"]
            for ev in obj["traceEvents"] if ev.get("name") == "thread_name"
        }
        # No transfer/resilience spans -> no such tracks, but migration
        # keeps its fixed id 3 so traces stay comparable across queries.
        assert tids == {"engine": 0, "compute": 1, "migration": 3}

    def test_chrome_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        golden_trace().save_chrome(path)
        back = load_trace(path)
        assert back.meta == {"graph": "6v-12e", "problem": "bfs"}
        orig = golden_trace()
        assert [(r.name, r.sid, r.parent) for r in back.spans()] == \
            [(r.name, r.sid, r.parent) for r in orig.spans()]
        for a, b in zip(back.spans(), orig.spans()):
            assert a.start_ms == pytest.approx(b.start_ms, abs=1e-6)
            assert a.end_ms == pytest.approx(b.end_ms, abs=1e-6)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        golden_trace().save_jsonl(path)
        back = load_trace(path)
        assert back.meta == {"graph": "6v-12e", "problem": "bfs"}
        assert [r.attrs for r in back.spans()] == \
            [r.attrs for r in golden_trace().spans()]

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
        bad_event = {"name": "x", "cat": "engine", "ph": "X",
                     "ts": -1.0, "dur": 2.0, "pid": 0, "tid": 0}
        problems = validate_chrome_trace({"traceEvents": [bad_event]})
        assert any("negative ts" in p for p in problems)
        missing = {k: v for k, v in bad_event.items() if k != "dur"}
        problems = validate_chrome_trace({"traceEvents": [missing]})
        assert any("missing 'dur'" in p for p in problems)

    def test_timeline_exports_through_same_builder(self):
        tl = Timeline()
        tl.add("compute", 0.0, 2.0, label="kernel-0")
        tl.add("transfer", 1.0, 3.0, nbytes=4096, label="h2d")
        events = tl.to_trace_events()
        assert [ev["name"] for ev in events] == ["kernel-0", "h2d"]
        assert all(ev["ph"] == "X" for ev in events)
        assert events[1]["args"]["nbytes"] == 4096.0
        assert validate_chrome_trace({"traceEvents": events}) == []
        # Same interval arithmetic on both sides of the shared helper.
        assert tl.overlap_ms() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_series_key_sorts_labels(self):
        assert series_key("m", {}) == "m"
        assert series_key("m", {"b": 1, "a": "x"}) == "m{a=x,b=1}"

    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("kernel.launches", 2, problem="bfs")
        reg.inc("kernel.launches", 3, problem="bfs")
        reg.set_gauge("memo.hits", 4)
        reg.set_gauge("memo.hits", 7)  # last write wins
        reg.observe("um.migration_bytes", 2048.0)
        reg.observe("um.migration_bytes", 65536.0)
        snap = reg.snapshot()
        assert snap["counters"]["kernel.launches{problem=bfs}"] == 5
        assert snap["gauges"]["memo.hits"] == 7.0
        hist = snap["histograms"]["um.migration_bytes"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(67584.0)
        assert hist["min"] == 2048.0 and hist["max"] == 65536.0
        assert hist["buckets"] == {"<=1e+04": 1, "<=1e+05": 1}
        assert snap["dropped_series"] == 0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("m")
        with pytest.raises(ValueError, match="counter"):
            reg.set_gauge("m", 1.0)

    def test_cardinality_bound_folds_into_overflow(self):
        reg = MetricsRegistry(max_series=3)
        for v in range(10):
            reg.inc("m", 1, vertex=v)
        snap = reg.snapshot()
        series = snap["counters"]
        assert len(series) == 4  # 3 real + the overflow fold
        assert series["m{overflow=true}"] == 7
        assert snap["dropped_series"] == 7

    def test_merge_adds_counters_and_combines_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.observe("h", 1.0)
        b.observe("h", 9.0)
        b.set_gauge("g", 5.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["n"] == 3
        assert snap["gauges"]["g"] == 5.0
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["max"] == 9.0

    def test_snapshot_is_deterministic_json(self):
        def build():
            reg = MetricsRegistry()
            reg.inc("b.metric", 1, z="1", a="2")
            reg.inc("a.metric", 1)
            reg.observe("h", 3.0)
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert build() == build()


class TestMetricWrappers:
    def test_zero_work_counters_lift_to_zero_ratios(self):
        reg = MetricsRegistry()
        add_kernel_counters(reg, KernelCounters(), problem="bfs")
        snap = reg.snapshot()
        assert snap["counters"]["kernel.launches{problem=bfs}"] == 0.0
        for ratio in ("ipc", "unified_hit_rate", "l2_hit_rate",
                      "dram_read_throughput_gbps"):
            assert snap["gauges"][f"kernel.{ratio}{{problem=bfs}}"] == 0.0

    def test_error_taxonomy_labels_outcomes(self):
        reg = MetricsRegistry()
        add_error_taxonomy(
            reg, {"ok": 3, "oom": 1, "errors": {"TransferError": 2}}
        )
        snap = reg.snapshot()["counters"]
        assert snap["bench.cells{outcome=ok}"] == 3
        assert snap["bench.cells{outcome=oom}"] == 1
        assert snap["bench.cells{outcome=error,type=TransferError}"] == 2

    def test_unified_snapshot_over_live_session(self, skewed_graph):
        with EngineSession(skewed_graph, EtaGraphConfig()) as session:
            result = session.query("bfs", 0)
            snap = unified_snapshot(
                session=session, profiler=result.profiler
            )
        assert snap["gauges"]["session.queries_served"] == 1
        assert snap["counters"]["kernel.launches"] > 0
        assert snap["counters"]["transfer.h2d_bytes"] > 0
        assert "memo.hits" in snap["gauges"]


# ----------------------------------------------------------------------
# Profiler edge cases (the KernelCounters satellite)
# ----------------------------------------------------------------------


class TestProfilerEdgeCases:
    def test_empty_counters_derive_zero_not_nan(self):
        counters = KernelCounters()
        for name, value in counters.derived_dict().items():
            assert value == 0.0, name
            assert math.isfinite(value), name

    def test_zero_duration_kernel_throughputs_are_zero(self):
        counters = KernelCounters(dram_read_bytes=1e9, elapsed_ms=0.0)
        assert counters.dram_read_throughput_gbps == 0.0

    def test_merge_skips_non_finite_contributions(self):
        acc = KernelCounters(instructions=100.0, cycles=50.0)
        acc.merge(KernelCounters(instructions=float("nan"),
                                 cycles=float("inf"), elapsed_ms=1.0))
        assert acc.instructions == 100.0
        assert acc.cycles == 50.0
        assert acc.elapsed_ms == 1.0  # finite fields still accumulate
        assert math.isfinite(acc.ipc)

    def test_structured_views_cover_fields_and_ratios(self):
        counters = KernelCounters(launches=2, instructions=10.0, cycles=5.0)
        as_dict = counters.as_dict()
        assert as_dict["launches"] == 2
        assert set(as_dict) == set(KernelCounters.__dataclass_fields__)
        assert counters.derived_dict()["ipc"] == pytest.approx(2.0)

    def test_profiler_snapshot_survives_nan_sample(self):
        prof = Profiler()
        prof.record_kernel(KernelCounters(instructions=float("nan")))
        assert prof.snapshot().instructions == 0.0


# ----------------------------------------------------------------------
# Engine wiring: the bit-identity contract
# ----------------------------------------------------------------------


class TestTelemetryIdentity:
    @pytest.mark.parametrize(
        "mode", [MemoryMode.DEVICE, MemoryMode.UM_PREFETCH]
    )
    def test_off_and_on_runs_are_bit_identical(self, skewed_graph, mode):
        off_cfg = EtaGraphConfig(memory_mode=mode)
        on_cfg = EtaGraphConfig(memory_mode=mode, telemetry=True)
        with EngineSession(skewed_graph, off_cfg) as off, \
                EngineSession(skewed_graph, on_cfg) as on:
            for source in (0, 5):
                r_off = off.query("bfs", source)
                r_on = on.query("bfs", source)
                assert r_off.trace is None
                assert r_on.trace is not None and len(r_on.trace) > 0
                assert result_digest(r_off) == result_digest(r_on)
                assert np.array_equal(r_off.labels, r_on.labels)

    def test_trace_structure_of_one_query(self, skewed_graph):
        with EngineSession(
            skewed_graph, EtaGraphConfig(telemetry=True)
        ) as session:
            trace = session.query("bfs", 0).trace
        roots = trace.roots()
        assert [r.name for r in roots] == ["query"]
        assert roots[0].attrs["problem"] == "bfs"
        assert roots[0].attrs["iterations"] >= 1
        iterations = trace.spans("engine", "iteration")
        assert len(iterations) == roots[0].attrs["iterations"]
        assert all(r.parent == roots[0].sid for r in iterations)
        # Every iteration is inside the query span on the same clock.
        for it in iterations:
            assert roots[0].start_ms <= it.start_ms
            assert it.end_ms <= roots[0].end_ms + 1e-9
        assert trace.spans("compute", "vertex_kernel")
        assert trace.spans("transfer")  # labels-init / labels-d2h
        assert validate_chrome_trace(trace.to_chrome_trace()) == []

    def test_attached_tracer_wins_and_records(self, skewed_graph):
        tracer = Tracer()
        with EngineSession(skewed_graph, EtaGraphConfig()) as session:
            session.tracer = tracer
            result = session.query("bfs", 0)
        assert result.trace is not None
        assert result.trace.records is not tracer.records  # snapshot copy
        assert len(tracer.records) == len(result.trace)

    def test_untraced_session_has_no_tracer(self, skewed_graph):
        with EngineSession(skewed_graph, EtaGraphConfig()) as session:
            session.query("bfs", 0)
            assert session.tracer is None


# ----------------------------------------------------------------------
# Resilience wiring: stitched serving timelines
# ----------------------------------------------------------------------


class TestResilienceTracing:
    def test_nominal_run_records_serve_and_attempt(self, skewed_graph):
        with ResilientSession(
            skewed_graph, EtaGraphConfig(telemetry=True)
        ) as rs:
            outcome = rs.run("bfs", 0)
        trace = outcome.trace
        assert trace is not None
        serve = trace.spans("resilience", "serve")
        attempts = trace.spans("resilience", "attempt")
        assert len(serve) == 1 and len(attempts) == 1
        assert serve[0].attrs["attempts"] == 1
        assert attempts[0].parent == serve[0].sid
        # The engine's spans are inside the attempt window.
        q = trace.spans("engine", "query")[0]
        assert attempts[0].start_ms <= q.start_ms
        assert q.end_ms <= attempts[0].end_ms + 1e-9

    def test_retry_stitches_attempts_after_backoff(self, skewed_graph):
        with ResilientSession(
            skewed_graph, EtaGraphConfig(telemetry=True),
            fault_plan=FaultPlan(
                specs=(FaultSpec("transfer_fault", at=0),), seed=7,
            ),
            policy=RetryPolicy(max_retries=2, backoff_base_ms=1.5),
        ) as rs:
            outcome = rs.run("bfs", 0)
        assert outcome.num_attempts == 2
        trace = outcome.trace
        attempts = trace.spans("resilience", "attempt")
        backoffs = trace.spans("resilience", "backoff")
        assert len(attempts) == 2 and len(backoffs) == 1
        first, second = attempts
        assert first.attrs["error"] == "TransferError"
        assert backoffs[0].start_ms >= first.end_ms - 1e-9
        assert second.start_ms >= backoffs[0].end_ms - 1e-9
        # The failed attempt keeps its partial engine spans (aborted).
        aborted = [r for r in trace.records if r.attrs.get("aborted")]
        assert aborted
        assert validate_chrome_trace(trace.to_chrome_trace()) == []

    def test_no_fault_bit_identity_including_traced_leg(self, skewed_graph):
        assert check_bit_identity(skewed_graph, ("bfs",), (0, 5)) == []


# ----------------------------------------------------------------------
# Harness wiring: bench --trace-dir
# ----------------------------------------------------------------------


class TestBenchTraceDir:
    def test_run_cell_records_trace_path(self, tmp_path):
        from repro.bench.runner import BenchContext, run_cell

        traced_ctx = BenchContext(trace_dir=tmp_path)
        cell = run_cell(traced_ctx, "etagraph", "bfs", "slashdot")
        assert not cell.oom and cell.error is None
        path = cell.extras["trace_path"]
        obj = json.loads(open(path).read())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["framework"] == "etagraph"
        # Tracing must not move the simulated numbers.
        plain = run_cell(BenchContext(), "etagraph", "bfs", "slashdot")
        assert cell.total_ms == plain.total_ms
        assert cell.kernel_ms == plain.kernel_ms
        assert "trace_path" not in plain.extras


# ----------------------------------------------------------------------
# Summarize + CLI
# ----------------------------------------------------------------------


class TestSummarize:
    def test_render_summary_sections(self):
        text = render_summary(golden_trace(), top=3)
        assert "5 spans over 1.000 ms" in text
        assert "graph=6v-12e" in text
        assert "Tracks" in text and "flame summary" in text
        assert "engine/query" in text
        assert "compute/vertex_kernel" in text

    def test_cli_summarize_and_validate(self, tmp_path, capsys):
        from repro.observability.__main__ import main

        path = tmp_path / "t.json"
        golden_trace().save_chrome(path)
        assert main(["validate", str(path)]) == 0
        assert main(["summarize", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "Top 2 hot spans" in out

    def test_cli_validate_flags_bad_file(self, tmp_path, capsys):
        from repro.observability.__main__ import main

        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"ph": "X", "name": "x"}]}')
        assert main(["validate", str(path)]) == 1

    def test_cli_no_command_prints_usage(self, capsys):
        from repro.observability.__main__ import main

        assert main([]) == 2
        assert "Usage" in capsys.readouterr().out
