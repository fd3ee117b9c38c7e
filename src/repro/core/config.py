"""EtaGraph configuration.

The three ablation axes of the paper's Fig. 6 are all here:

* ``smp`` — Shared Memory Prefetch on/off ("w/o SMP"),
* ``memory_mode`` — UM with prefetch (EtaGraph), UM on-demand
  ("EtaGraph w/o UMP"), or plain device memory ("w/o UM"),
* ``degree_limit`` — the K of Unified Degree Cut.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class MemoryMode(enum.Enum):
    """Where graph topology lives and how it reaches the GPU."""

    #: Unified Memory + ``cudaMemPrefetchAsync`` (the default EtaGraph).
    UM_PREFETCH = "um_prefetch"
    #: Unified Memory, on-demand page migration ("EtaGraph w/o UMP").
    UM_ON_DEMAND = "um_on_demand"
    #: ``cudaMalloc`` + upfront ``cudaMemcpy`` ("w/o UM" ablation).
    DEVICE = "device"
    #: Pinned host memory accessed over PCIe on every use (Section IV-B
    #: discusses and rejects this: read-only topology re-pays the bus on
    #: every iteration, so UM dominates it for traversal).
    ZERO_COPY = "zero_copy"
    #: Pinned host memory read at 128-byte-sector granularity, touching
    #: only the bytes each frontier actually expands (EMOGI's direct
    #: access).  Unlike ``ZERO_COPY``'s whole-stream bus reads and UM's
    #: 4 KiB page migrations, sparse frontiers pay for exactly their
    #: sectors — the out-of-core placement that wins when the working
    #: set per iteration is far below a page-granular footprint.
    DIRECT_ACCESS = "direct_access"

    @property
    def uses_um(self) -> bool:
        return self in (MemoryMode.UM_PREFETCH, MemoryMode.UM_ON_DEMAND)

    @property
    def host_resident(self) -> bool:
        """Topology stays in pinned host memory (no device copy, no UM
        residency): the zero-copy and direct-access placements."""
        return self in (MemoryMode.ZERO_COPY, MemoryMode.DIRECT_ACCESS)


@dataclass(frozen=True)
class EtaGraphConfig:
    """Tunable parameters of the EtaGraph engine."""

    #: Degree Limit K (Section III-A): out-degree bound of shadow vertices.
    #: 32 keeps a 256-thread block's SMP buffers at 32 KiB — three resident
    #: blocks per SM on the 1080 Ti.
    degree_limit: int = 32
    #: Shared Memory Prefetch (Section V).
    smp: bool = True
    memory_mode: MemoryMode = MemoryMode.UM_PREFETCH
    threads_per_block: int = 256
    #: Iteration safety net; traversal of any real input converges long
    #: before this (Table IV tops out at 200).
    max_iterations: int = 100_000
    #: Fraction of an iteration's on-demand migration time hidden behind
    #: kernel execution (Section IV-B's fine-grained overlap).  Faults
    #: stall the touching warps, so most of the migration is effectively
    #: serial even though the DMA and the kernel coexist on the timeline.
    overlap_efficiency: float = 0.3
    #: UDC placement (Section III-A): "in_core" transforms the active set
    #: on the GPU every iteration (the paper's choice — zero extra
    #: memory); "out_of_core" precomputes all shadow vertices ahead of
    #: time in a device-resident table, trading memory for skipping the
    #: per-iteration transform kernel (VST-like, without the raw-data
    #: copy).
    udc_mode: str = "in_core"
    #: Keep a per-session frontier memo: repeated batch queries hitting
    #: an already-seen frontier reuse its degree-cut result, edge
    #: expansion and kernel :class:`~repro.gpu.traceplan.TracePlan`
    #: instead of recomputing them.  Purely a simulator-side speedup —
    #: memoized values are label-independent, so results and simulated
    #: timings are bit-identical with the memo on or off.  The memo keeps
    #: an entry only while it shows reuse, and its byte budget
    #: (:data:`repro.core.memo.MAX_BYTES` per session) is its one bound.
    frontier_memo: bool = True
    #: Run :mod:`repro.testing.invariants` checks inline on the hot path:
    #: every iteration's shadow slices are verified to exactly partition
    #: their owners' adjacencies, and the finished result's timeline,
    #: statistics and profiler counters are cross-checked.  Off by
    #: default (it costs a sort per iteration); the differential runner
    #: and the fuzz CLI turn it on so correctness sweeps exercise the
    #: real engine path, not a mirror of it.
    check_invariants: bool = False
    #: Record a span trace of every query (:mod:`repro.observability`):
    #: setup phases, per-iteration transform/kernel/transfer/migration
    #: activity, all timestamped on the *simulated* clock.  The trace
    #: hangs off :attr:`TraversalResult.trace <repro.core.engine.
    #: TraversalResult>`.  Off by default and zero-cost when off; on, it
    #: observes without perturbing — labels and simulated timings stay
    #: bit-identical (``python -m repro.observability identity``).
    telemetry: bool = False

    def __post_init__(self):
        if self.degree_limit < 1:
            raise ConfigError(f"degree_limit must be >= 1, got {self.degree_limit}")
        if self.threads_per_block < 32:
            raise ConfigError("threads_per_block must be at least one warp")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0.0 <= self.overlap_efficiency <= 1.0:
            raise ConfigError("overlap_efficiency must be in [0, 1]")
        if self.udc_mode not in ("in_core", "out_of_core"):
            raise ConfigError(
                f"udc_mode must be 'in_core' or 'out_of_core', "
                f"got {self.udc_mode!r}"
            )

    def without_smp(self) -> "EtaGraphConfig":
        from dataclasses import replace

        return replace(self, smp=False)

    def with_memory_mode(self, mode: MemoryMode | str) -> "EtaGraphConfig":
        from dataclasses import replace

        if isinstance(mode, str):
            mode = MemoryMode(mode)
        return replace(self, memory_mode=mode)
