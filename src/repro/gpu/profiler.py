"""nvprof-style counter collection.

The paper's Fig. 7 reports, for BFS on LiveJournal with and without SMP:
IPC, Unified-Cache hit rate, L2 hit rate, read throughput at L2 / unified
cache / DRAM, and global-memory read transactions.  Every one of those is
a counter or a derived ratio collected here; kernels update the counters
through :meth:`Profiler.record_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _ratio(numerator: float, denominator: float) -> float:
    """A derived ratio that is 0.0 — never NaN/inf — when the kernel did
    no work (zero or non-finite denominator)."""
    if denominator <= 0 or not math.isfinite(denominator):
        return 0.0
    value = numerator / denominator
    return value if math.isfinite(value) else 0.0


@dataclass
class KernelCounters:
    """Raw event counts for one kernel launch (or an accumulation)."""

    launches: int = 0
    threads: int = 0
    warps: int = 0
    #: Total instructions issued across all threads.
    instructions: float = 0.0
    #: Elapsed SM cycles of the kernel (per-SM clock; max across SMs).
    cycles: float = 0.0
    elapsed_ms: float = 0.0

    # Memory system -----------------------------------------------------
    global_load_transactions: int = 0
    global_store_transactions: int = 0
    unified_cache_accesses: int = 0
    unified_cache_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    shared_load_bytes: float = 0.0

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate ``other`` into this counter set (cycle counts add —
        kernels in one stream execute back-to-back).

        Non-finite contributions are dropped rather than added: one NaN
        sample must not poison a whole accumulation (and with it every
        derived ratio) for the rest of a session.

        Every kernel launch merges once, so the usual case is one pass
        of plain additions: a sum of the fields is finite exactly when
        every field is (a NaN or an infinity carries through a sum).
        """
        o = other
        total = sum((
            o.launches, o.threads, o.warps, o.instructions, o.cycles,
            o.elapsed_ms, o.global_load_transactions,
            o.global_store_transactions, o.unified_cache_accesses,
            o.unified_cache_hits, o.l2_accesses, o.l2_hits,
            o.dram_read_bytes, o.dram_write_bytes, o.shared_load_bytes,
        ))
        if total - total == 0:
            self.launches += o.launches
            self.threads += o.threads
            self.warps += o.warps
            self.instructions += o.instructions
            self.cycles += o.cycles
            self.elapsed_ms += o.elapsed_ms
            self.global_load_transactions += o.global_load_transactions
            self.global_store_transactions += o.global_store_transactions
            self.unified_cache_accesses += o.unified_cache_accesses
            self.unified_cache_hits += o.unified_cache_hits
            self.l2_accesses += o.l2_accesses
            self.l2_hits += o.l2_hits
            self.dram_read_bytes += o.dram_read_bytes
            self.dram_write_bytes += o.dram_write_bytes
            self.shared_load_bytes += o.shared_load_bytes
            return
        for f in self.__dataclass_fields__:
            value = getattr(other, f)
            if isinstance(value, float) and not math.isfinite(value):
                continue
            setattr(self, f, getattr(self, f) + value)

    # Derived metrics (the Fig. 7 bars) ---------------------------------
    #
    # Every ratio degrades to 0.0 — never NaN, inf or a ZeroDivisionError
    # — when the counter set saw no work (zero launches, zero accesses, a
    # zero-duration kernel).  Empty accumulations are routine: a query
    # that memo-hits every frontier launches nothing, and the metrics
    # registry lifts these values verbatim.

    @property
    def ipc(self) -> float:
        """Instructions per cycle per SM-equivalent (nvprof ``ipc``)."""
        return _ratio(self.instructions, self.cycles)

    @property
    def unified_hit_rate(self) -> float:
        return _ratio(self.unified_cache_hits, self.unified_cache_accesses)

    @property
    def l2_hit_rate(self) -> float:
        return _ratio(self.l2_hits, self.l2_accesses)

    def _throughput(self, nbytes: float) -> float:
        return _ratio(nbytes, self.elapsed_ms * 1e-3) / 1e9  # GB/s

    @property
    def dram_read_throughput_gbps(self) -> float:
        return self._throughput(self.dram_read_bytes)

    @property
    def l2_read_throughput_gbps(self) -> float:
        sector = 32
        return self._throughput(self.l2_accesses * sector)

    @property
    def unified_read_throughput_gbps(self) -> float:
        sector = 32
        return self._throughput(self.unified_cache_accesses * sector)

    # Structured views (consumed by repro.observability.metrics) --------

    def as_dict(self) -> dict[str, float]:
        """Raw counter fields, in declaration order."""
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def derived_dict(self) -> dict[str, float]:
        """The derived ratios/throughputs, each 0.0 on an empty set."""
        return {
            "ipc": self.ipc,
            "unified_hit_rate": self.unified_hit_rate,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_read_throughput_gbps": self.dram_read_throughput_gbps,
            "l2_read_throughput_gbps": self.l2_read_throughput_gbps,
            "unified_read_throughput_gbps": self.unified_read_throughput_gbps,
        }


@dataclass
class Profiler:
    """Accumulates kernel counters and transfer/migration statistics."""

    kernels: KernelCounters = field(default_factory=KernelCounters)
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    h2d_time_ms: float = 0.0
    d2h_time_ms: float = 0.0
    #: Sizes (bytes) of individual UM migrations — Table V's data.
    migration_sizes: list[int] = field(default_factory=list)
    migration_time_ms: float = 0.0

    def record_kernel(self, counters: KernelCounters) -> None:
        self.kernels.merge(counters)

    def record_h2d(self, nbytes: float, time_ms: float) -> None:
        self.h2d_bytes += nbytes
        self.h2d_time_ms += time_ms

    def record_d2h(self, nbytes: float, time_ms: float) -> None:
        self.d2h_bytes += nbytes
        self.d2h_time_ms += time_ms

    def record_migration(self, nbytes: int, time_ms: float) -> None:
        self.migration_sizes.append(int(nbytes))
        self.migration_time_ms += time_ms

    # Table V summary ----------------------------------------------------

    def migration_size_stats(self) -> tuple[float, int, int]:
        """(average, min, max) migrated-chunk size in bytes; zeros if none."""
        if not self.migration_sizes:
            return (0.0, 0, 0)
        sizes = self.migration_sizes
        return (sum(sizes) / len(sizes), min(sizes), max(sizes))

    def snapshot(self) -> KernelCounters:
        """Copy of the accumulated kernel counters (for before/after diffs)."""
        out = KernelCounters()
        out.merge(self.kernels)
        return out
