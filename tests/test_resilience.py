"""Tests for the fault-injection plane and the resilient serving wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.paths import NO_PARENT, reconstruct_path, verify_path
from repro.baselines.cpu_ligra import LigraLikeCPU
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.session import EngineSession
from repro.errors import (
    ConfigError,
    DataCorruptionError,
    DeadlineExceededError,
    DeviceOutOfMemoryError,
    MigrationStallError,
    SessionClosedError,
    TransferError,
)
from repro.gpu.device import GTX_1080TI
from repro.resilience import (
    FAULT_KINDS,
    STALL_WATCHDOG_MS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LADDER,
    ResilientSession,
    RetryPolicy,
)
from repro.resilience.chaos import result_digest
from repro.testing.differential import oracle_labels
from repro.utils.units import MIB

ALL_MODES = (
    MemoryMode.DEVICE,
    MemoryMode.UM_PREFETCH,
    MemoryMode.UM_ON_DEMAND,
    MemoryMode.ZERO_COPY,
)


def plan(*specs: FaultSpec, seed: int = 7) -> FaultPlan:
    return FaultPlan(specs=tuple(specs), seed=seed)


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FaultSpec("not_a_kind", at=0)
        with pytest.raises(ConfigError):
            FaultSpec("alloc_oom", at=-1)
        with pytest.raises(ConfigError):
            FaultSpec("alloc_oom", at=0, count=0)

    def test_spec_covers_window(self):
        spec = FaultSpec("transfer_fault", at=2, count=3)
        assert [spec.covers(i) for i in range(6)] == \
            [False, False, True, True, True, False]

    def test_random_plan_is_seed_deterministic(self):
        plans = [FaultPlan.random(np.random.default_rng(11)) for _ in range(2)]
        assert plans[0] == plans[1]
        other = FaultPlan.random(np.random.default_rng(12))
        # Different seed, different plan (seed field alone guarantees it).
        assert other != plans[0]

    def test_random_plan_specs_are_valid(self):
        for seed in range(50):
            for spec in FaultPlan.random(seed).specs:
                assert spec.kind in FAULT_KINDS
                assert spec.at >= 0 and spec.count >= 1

    def test_describe_names_every_spec(self):
        p = plan(
            FaultSpec("alloc_oom", at=1),
            FaultSpec("um_stall", at=0, count=2, param=5.0),
        )
        text = p.describe()
        assert "alloc_oom@1" in text
        assert "um_stall@0x2(5)" in text


# ----------------------------------------------------------------------
# FaultInjector hooks
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_alloc_oom_fires_on_schedule(self):
        inj = FaultInjector(plan(FaultSpec("alloc_oom", at=2)))
        inj.on_alloc("a", 10, 0, 100)  # event 0
        inj.on_alloc("b", 10, 10, 100)  # event 1
        with pytest.raises(DeviceOutOfMemoryError) as exc:
            inj.on_alloc("c", 10, 20, 100)  # event 2
        assert (exc.value.requested, exc.value.in_use, exc.value.capacity) \
            == (10, 20, 100)
        inj.on_alloc("d", 10, 20, 100)  # event 3: schedule consumed
        assert inj.events["alloc_oom"] == 4
        assert inj.fired == ["alloc_oom: c (10 B)"]

    def test_transfer_fault_is_typed(self):
        inj = FaultInjector(plan(FaultSpec("transfer_fault", at=0)))
        with pytest.raises(TransferError):
            inj.on_transfer("h2d", 4096)
        inj.on_transfer("d2h", 4096)  # consumed

    def test_um_stall_below_watchdog_returns_stall_ms(self):
        inj = FaultInjector(plan(FaultSpec("um_stall", at=0, param=50.0)))
        assert inj.on_um_migration(1 * MIB) == 50.0
        assert inj.on_um_migration(1 * MIB) == 0.0

    def test_um_stall_at_watchdog_raises(self):
        inj = FaultInjector(plan(
            FaultSpec("um_stall", at=0, param=STALL_WATCHDOG_MS)
        ))
        with pytest.raises(MigrationStallError):
            inj.on_um_migration(1 * MIB)

    def test_bitflip_corrupts_one_bit_then_raises(self):
        inj = FaultInjector(plan(FaultSpec("bitflip", at=0)))
        labels = np.full(16, 3, dtype=np.int32)
        before = labels.copy()
        with pytest.raises(DataCorruptionError):
            inj.on_kernel_launch(labels)
        changed = np.nonzero(labels != before)[0]
        assert len(changed) == 1
        xor = int(labels[changed[0]]) ^ int(before[changed[0]])
        assert xor != 0 and xor & (xor - 1) == 0  # exactly one bit

    def test_memo_invalidate_flushes_session_memo(self):
        class FakeSession:
            memo_entries = 3

            def __init__(self):
                self.flushed = 0

            def invalidate_memo(self):
                self.flushed += 1

        inj = FaultInjector(plan(FaultSpec("memo_invalidate", at=0)))
        session = FakeSession()
        inj.on_memo_lookup(session)
        inj.on_memo_lookup(session)
        assert session.flushed == 1
        assert inj.fired == ["memo_invalidate: 3 entries dropped"]

    def test_injector_rng_is_plan_seeded(self):
        flips = []
        for _ in range(2):
            inj = FaultInjector(plan(FaultSpec("bitflip", at=0), seed=21))
            labels = np.zeros(64, dtype=np.int32)
            with pytest.raises(DataCorruptionError):
                inj.on_kernel_launch(labels)
            flips.append(inj.fired[0])
        assert flips[0] == flips[1]


# ----------------------------------------------------------------------
# ResilientSession: no-fault bit-identity
# ----------------------------------------------------------------------


class TestNoFaultIdentity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_bit_identical_to_engine_session(self, skewed_graph, mode):
        config = EtaGraphConfig(memory_mode=mode)
        with EngineSession(skewed_graph, config) as plain, \
                ResilientSession(skewed_graph, config) as resilient:
            for source in (0, 3):
                expected = result_digest(plain.query("bfs", source))
                outcome = resilient.run("bfs", source)
                assert result_digest(outcome.result) == expected
                assert outcome.num_attempts == 1
                assert not outcome.degraded
                assert outcome.faults_seen == []

    @pytest.mark.parametrize("mode,rung", [
        (MemoryMode.DEVICE, "device"),
        (MemoryMode.UM_PREFETCH, "um_prefetch"),
        (MemoryMode.UM_ON_DEMAND, "um_oversubscribed"),
        (MemoryMode.ZERO_COPY, "zero_copy"),
    ], ids=lambda v: getattr(v, "value", v))
    def test_entry_rung_matches_memory_mode(self, tiny_graph, mode, rung):
        with ResilientSession(
            tiny_graph, EtaGraphConfig(memory_mode=mode)
        ) as rs:
            assert rs.entry_rung == rung
            outcome = rs.run("bfs", 0)
            assert outcome.requested_placement == rung
            assert outcome.final_placement == rung

    def test_memo_invalidation_does_not_change_results(self, skewed_graph):
        config = EtaGraphConfig()
        with ResilientSession(skewed_graph, config) as nominal, \
                ResilientSession(
                    skewed_graph, config,
                    fault_plan=plan(
                        FaultSpec("memo_invalidate", at=0, count=64)
                    ),
                ) as chaotic:
            for source in (0, 1, 2):
                expected = nominal.run("bfs", source)
                outcome = chaotic.run("bfs", source)
                assert result_digest(outcome.result) == \
                    result_digest(expected.result)
                assert outcome.num_attempts == 1  # pure perf fault


# ----------------------------------------------------------------------
# ResilientSession: retries, budgets, degradation
# ----------------------------------------------------------------------


class TestRetryAndDegrade:
    def test_transient_transfer_fault_is_retried_same_rung(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            fault_plan=plan(FaultSpec("transfer_fault", at=0)),
            policy=RetryPolicy(max_retries=2, backoff_base_ms=1.5),
        )
        with rs:
            outcome = rs.run("bfs", 0)
        assert [a.rung for a in outcome.attempts] == \
            ["um_prefetch", "um_prefetch"]
        assert outcome.attempts[0].error.startswith("TransferError")
        assert outcome.attempts[0].backoff_ms == 1.5
        assert outcome.backoff_ms == 1.5
        assert outcome.retried and not outcome.degraded
        assert len(outcome.faults_seen) == 1
        assert np.array_equal(
            outcome.labels, oracle_labels(skewed_graph, "bfs", 0)
        )

    def test_backoff_doubles_per_retry(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            fault_plan=plan(FaultSpec("transfer_fault", at=0, count=2)),
            policy=RetryPolicy(max_retries=2, backoff_base_ms=1.0),
        )
        with rs:
            outcome = rs.run("bfs", 0)
        assert [a.backoff_ms for a in outcome.attempts] == [1.0, 2.0, 0.0]
        assert outcome.backoff_ms == 3.0

    def test_bitflip_detected_and_retried(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            fault_plan=plan(FaultSpec("bitflip", at=0)),
        )
        with rs:
            outcome = rs.run("bfs", 0)
        assert outcome.retried
        assert outcome.attempts[0].error.startswith("DataCorruptionError")
        assert np.array_equal(
            outcome.labels, oracle_labels(skewed_graph, "bfs", 0)
        )

    def test_um_stall_below_watchdog_only_slows_the_query(self, skewed_graph):
        config = EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        with ResilientSession(skewed_graph, config) as nominal:
            baseline = nominal.run("bfs", 0)
        rs = ResilientSession(
            skewed_graph, config,
            fault_plan=plan(FaultSpec("um_stall", at=0, param=50.0)),
        )
        with rs:
            outcome = rs.run("bfs", 0)
        assert outcome.num_attempts == 1 and not outcome.degraded
        assert any("um_stall" in f for f in outcome.faults_seen)
        assert outcome.result.total_ms > baseline.result.total_ms
        assert np.array_equal(outcome.labels, baseline.labels)

    def test_um_stall_watchdog_demotes(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND),
            fault_plan=plan(
                FaultSpec("um_stall", at=0, count=64,
                          param=2 * STALL_WATCHDOG_MS)
            ),
            policy=RetryPolicy(max_retries=0),
        )
        with rs:
            outcome = rs.run("bfs", 0)
        assert outcome.degraded
        assert outcome.attempts[0].rung == "um_oversubscribed"
        assert outcome.attempts[0].error.startswith("MigrationStallError")
        assert np.array_equal(
            outcome.labels, oracle_labels(skewed_graph, "bfs", 0)
        )

    def test_persistent_oom_descends_whole_ladder_to_cpu(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            EtaGraphConfig(memory_mode=MemoryMode.DEVICE),
            fault_plan=plan(FaultSpec("alloc_oom", at=0, count=10_000)),
        )
        with rs:
            outcome = rs.run("bfs", 0)
        assert [a.rung for a in outcome.attempts] == list(LADDER)
        assert outcome.final_placement == "cpu_oracle"
        assert outcome.degraded
        assert outcome.result.extras["cpu_oracle"]
        assert outcome.result.kernel_ms == 0.0
        assert np.array_equal(
            outcome.labels, oracle_labels(skewed_graph, "bfs", 0)
        )

    def test_cpu_fallback_can_be_disallowed(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            fault_plan=plan(FaultSpec("alloc_oom", at=0, count=10_000)),
            policy=RetryPolicy(allow_cpu_fallback=False),
        )
        with rs, pytest.raises(DeviceOutOfMemoryError):
            rs.run("bfs", 0)

    def test_genuine_oom_marks_rung_dead(self, skewed_graph):
        # A device too small for the topology: the device rung's OOM is
        # genuine (requested + in_use > capacity), so it is retired and
        # the next query skips straight to a UM rung.
        device = GTX_1080TI.with_capacity(8 * 1024)
        rs = ResilientSession(
            skewed_graph,
            EtaGraphConfig(memory_mode=MemoryMode.DEVICE),
            device,
        )
        with rs:
            first = rs.run("bfs", 0)
            assert first.attempts[0].rung == "device"
            assert first.attempts[0].error is not None
            assert "device" in rs.dead_rungs
            second = rs.run("bfs", 1)
        assert all(a.rung != "device" for a in second.attempts)
        assert second.degraded
        assert np.array_equal(
            second.labels, oracle_labels(skewed_graph, "bfs", 1)
        )

    def test_injected_oom_does_not_kill_the_rung(self, skewed_graph):
        # Injected OOM on a roomy device is transient from the ladder's
        # point of view: the rung demotes this query but stays available.
        rs = ResilientSession(
            skewed_graph,
            fault_plan=plan(FaultSpec("alloc_oom", at=0)),
        )
        with rs:
            first = rs.run("bfs", 0)
            assert first.degraded
            assert rs.dead_rungs == set()
            second = rs.run("bfs", 0)
        assert not second.degraded

    def test_wall_deadline_raises_typed_error(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph, policy=RetryPolicy(deadline_ms=0.0)
        )
        with rs, pytest.raises(DeadlineExceededError):
            rs.run("bfs", 0)

    def test_iteration_budget_raises_typed_error(self, path10):
        # BFS on a 10-vertex path needs ~9 iterations; budget one.
        rs = ResilientSession(path10, policy=RetryPolicy(max_iterations=1))
        with rs, pytest.raises(DeadlineExceededError):
            rs.run("bfs", 0)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base_ms=-0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_ms=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_iterations=0)


class TestCPUFloor:
    """The ladder's last rung runs the modelled multicore CPU engine, so
    a floor-served answer is charged on the simulated clock."""

    @staticmethod
    def floored(graph, config=None):
        # Every allocation fails: each GPU rung demotes to the floor.
        return ResilientSession(
            graph, config,
            fault_plan=plan(FaultSpec("alloc_oom", at=0, count=10_000)),
        )

    def test_query_costs_the_modelled_cpu_run(self, weighted_skewed_graph):
        for problem in ("bfs", "sssp", "cc"):
            with self.floored(weighted_skewed_graph) as rs:
                outcome = rs.run(problem, 3)
            want = LigraLikeCPU().run(weighted_skewed_graph, problem, 3)
            assert outcome.final_placement == "cpu_oracle"
            assert outcome.result.total_ms == want.total_ms > 0.0
            assert outcome.result.kernel_ms == 0.0
            assert outcome.result.transfer_ms == 0.0
            assert outcome.result.d2h_ms == 0.0
            np.testing.assert_array_equal(outcome.labels, want.labels)

    def test_wave_costs_the_sum_of_its_lanes(self, skewed_graph):
        sources = [0, 3, 7, 11]
        with self.floored(skewed_graph) as rs:
            outcome = rs.run_wave(sources)
        lanes = [LigraLikeCPU().run(skewed_graph, "bfs", s) for s in sources]
        assert outcome.final_placement == "cpu_oracle"
        assert outcome.result.total_ms == sum(r.total_ms for r in lanes)
        np.testing.assert_array_equal(
            outcome.result.levels, np.stack([r.labels for r in lanes]),
        )

    def test_identical_sessions_replay_the_floor(self, skewed_graph):
        def serve():
            with self.floored(skewed_graph) as rs:
                return [
                    result_digest(rs.run(problem, source).result)
                    for problem, source in (("bfs", 0), ("cc", 0), ("bfs", 5))
                ]

        assert serve() == serve()

    def test_floor_parents_witness_shortest_paths(self, skewed_graph):
        with self.floored(skewed_graph) as rs:
            assert rs.run("bfs", 0).result.extras.get("parents") is None
            outcome = rs.run("bfs", 0, parents=True)
        assert outcome.final_placement == "cpu_oracle"
        levels = outcome.labels
        parents = outcome.result.extras["parents"]
        assert parents.dtype == np.int32
        reached = np.flatnonzero(np.isfinite(levels))
        assert len(reached) > 1
        for v in reached:
            path = reconstruct_path(parents, 0, int(v))
            assert verify_path(skewed_graph, path, levels, "bfs")
        assert np.all(parents[~np.isfinite(levels)] == NO_PARENT)


# ----------------------------------------------------------------------
# ResilientSession: lifecycle and determinism
# ----------------------------------------------------------------------


class TestSessionMechanics:
    def test_closed_session_raises_typed_error(self, tiny_graph):
        rs = ResilientSession(tiny_graph)
        rs.close()
        assert rs.closed
        with pytest.raises(SessionClosedError):
            rs.run("bfs", 0)
        rs.close()  # idempotent

    def test_query_is_engine_session_compatible(self, tiny_graph):
        with ResilientSession(tiny_graph) as rs:
            result = rs.query("bfs", 0)
        assert np.array_equal(
            result.labels, oracle_labels(tiny_graph, "bfs", 0)
        )

    def test_same_plan_replays_identically(self, skewed_graph):
        def serve():
            rs = ResilientSession(
                skewed_graph,
                fault_plan=plan(
                    FaultSpec("transfer_fault", at=1),
                    FaultSpec("bitflip", at=0),
                    seed=99,
                ),
            )
            with rs:
                outcomes = [rs.run("bfs", s) for s in (0, 1)]
                return (
                    [a for o in outcomes for a in o.attempts],
                    list(rs.injector.fired),
                    [result_digest(o.result) for o in outcomes],
                )

        assert serve() == serve()

    def test_queries_served_counts_successes_only(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph, policy=RetryPolicy(deadline_ms=0.0)
        )
        with rs:
            with pytest.raises(DeadlineExceededError):
                rs.run("bfs", 0)
            assert rs.queries_served == 0
        rs2 = ResilientSession(skewed_graph)
        with rs2:
            rs2.run("bfs", 0)
            assert rs2.queries_served == 1
