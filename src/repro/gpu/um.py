"""Unified Memory simulator: page faults, fault merging, prefetch, eviction.

Models the CUDA UM driver behaviour the paper measures:

* On-demand migration (EtaGraph **w/o UMP**): a kernel touching a
  non-resident page triggers a GPU page fault; the driver merges runs of
  *contiguous* faulting 4 KiB pages into one migration, capped at
  ``um_max_migration_bytes`` (1 MiB).  Table V's observed sizes — min
  4 KiB, average ~44 KiB, max just under 1 MiB — are exactly this policy's
  signature, and fall out of it here.
* ``cudaMemPrefetchAsync`` (EtaGraph with UMP): bulk migration in
  ``um_prefetch_chunk_bytes`` (2 MiB) chunks at full PCIe bandwidth, which
  is why Table V's with-UMP sizes cluster at 2048 KiB.
* Oversubscription (Pascal+): residency is capped at device capacity
  minus ``cudaMalloc``'d bytes; exceeding it evicts least-recently-touched
  pages (graph topology is read-only, so evictions are drops, not
  writebacks).  This is what lets EtaGraph process uk-2006.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import DeviceArray, DeviceMemory
from repro.gpu.profiler import Profiler


@dataclass
class _PageState:
    """Residency bookkeeping for one UM allocation."""

    array: DeviceArray
    resident: np.ndarray  # bool per page
    last_touch: np.ndarray  # int64 clock per page

    @property
    def num_pages(self) -> int:
        return len(self.resident)


@dataclass
class MigrationBatch:
    """Result of servicing one ``touch``/``prefetch`` call."""

    migrations: list[int] = field(default_factory=list)  # bytes each
    time_ms: float = 0.0
    evicted_pages: int = 0

    @property
    def bytes_moved(self) -> int:
        return sum(self.migrations)


class UnifiedMemoryManager:
    """Driver-side manager for all UM allocations of one device."""

    def __init__(self, spec: DeviceSpec, memory: DeviceMemory):
        self.spec = spec
        self.memory = memory
        self._states: dict[int, _PageState] = {}
        self._clock = 0
        self.total_resident_pages = 0
        #: Optional :class:`repro.resilience.faults.FaultInjector`
        #: consulted after every migration batch that moved bytes; it may
        #: stretch the batch (stall) or raise
        #: :class:`~repro.errors.MigrationStallError`.
        self.injector = None

    def _inject_stall(self, batch: MigrationBatch) -> MigrationBatch:
        if self.injector is not None and batch.bytes_moved:
            batch.time_ms += self.injector.on_um_migration(batch.bytes_moved)
        return batch

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, array: DeviceArray) -> None:
        if array.kind != "um":
            raise AllocationError(
                f"{array.name!r} is a {array.kind} allocation, not UM"
            )
        n_pages = max(1, -(-array.nbytes // self.spec.page_bytes))
        self._states[array.base_address] = _PageState(
            array=array,
            resident=np.zeros(n_pages, dtype=bool),
            last_touch=np.zeros(n_pages, dtype=np.int64),
        )

    def _state(self, array: DeviceArray) -> _PageState:
        try:
            return self._states[array.base_address]
        except KeyError:
            raise AllocationError(
                f"{array.name!r} is not registered with the UM manager"
            ) from None

    # ------------------------------------------------------------------
    # Residency budget / eviction
    # ------------------------------------------------------------------

    @property
    def resident_budget_pages(self) -> int:
        """How many UM pages may be resident alongside device allocations."""
        free = self.memory.capacity - self.memory.device_bytes_in_use
        return max(0, free // self.spec.page_bytes)

    def _evict_for(self, incoming_pages: int, batch: MigrationBatch) -> None:
        budget = self.resident_budget_pages
        overflow = self.total_resident_pages + incoming_pages - budget
        if overflow <= 0:
            return
        # Gather (last_touch, state, local_page) for all resident pages and
        # drop the least recently touched.  Rare path (oversubscription
        # only), so clarity beats speed here.
        candidates = []
        for state in self._states.values():
            local = np.flatnonzero(state.resident)
            if len(local):
                candidates.append(
                    (state.last_touch[local], np.full(len(local),
                     state.array.base_address, dtype=np.int64), local)
                )
        if not candidates:
            return
        touches = np.concatenate([c[0] for c in candidates])
        bases = np.concatenate([c[1] for c in candidates])
        pages = np.concatenate([c[2] for c in candidates])
        overflow = min(overflow, len(touches))
        victims = np.argpartition(touches, overflow - 1)[:overflow]
        for base in np.unique(bases[victims]):
            state = self._states[base]
            local = pages[victims[bases[victims] == base]]
            state.resident[local] = False
        self.total_resident_pages -= overflow
        batch.evicted_pages += int(overflow)
        # Topology data is read-only: eviction is a TLB shootdown + drop,
        # modelled as one fault-latency charge per eviction burst.
        batch.time_ms += self.spec.um_fault_latency_us * 1e-3

    def _admit(self, missing: np.ndarray, batch: MigrationBatch) -> np.ndarray:
        """Evict for an incoming burst and return the pages that remain
        resident once it completes.

        A burst larger than the whole residency budget thrashes: every
        page still crosses the bus, but the driver evicts the burst's own
        earliest pages to make room for its latest, so only the tail
        survives — residency never exceeds the budget.
        """
        self._evict_for(len(missing), batch)
        capacity = self.resident_budget_pages - self.total_resident_pages
        if capacity >= len(missing):
            return missing
        dropped = len(missing) - max(capacity, 0)
        batch.evicted_pages += int(dropped)
        # The within-burst thrash is one more eviction burst.
        batch.time_ms += self.spec.um_fault_latency_us * 1e-3
        return missing[dropped:]

    # ------------------------------------------------------------------
    # On-demand faulting (w/o UMP path)
    # ------------------------------------------------------------------

    def touch(
        self,
        array: DeviceArray,
        local_pages: np.ndarray,
        profiler: Profiler | None = None,
    ) -> MigrationBatch:
        """Fault in the given pages of ``array`` (kernel access path).

        ``local_pages`` are page indices relative to the allocation start.
        Returns the migrations performed; already-resident pages only get
        their LRU clock refreshed.
        """
        state = self._state(array)
        batch = MigrationBatch()
        pages = np.unique(np.asarray(local_pages, dtype=np.int64))
        if len(pages) == 0:
            return batch
        if pages[0] < 0 or pages[-1] >= state.num_pages:
            raise AllocationError(
                f"page index out of range for {array.name!r}: "
                f"[{pages[0]}, {pages[-1]}] of {state.num_pages}"
            )
        self._clock += 1
        state.last_touch[pages] = self._clock

        missing = pages[~state.resident[pages]]
        if len(missing) == 0:
            return batch

        stay = self._admit(missing, batch)

        # Merge contiguous runs of faulting pages, capped at the driver's
        # maximum migration size — the Table V mechanism.
        max_pages = max(1, self.spec.um_max_migration_bytes // self.spec.page_bytes)
        breaks = np.flatnonzero(np.diff(missing) != 1) + 1
        for run in np.split(missing, breaks):
            for start in range(0, len(run), max_pages):
                chunk = run[start : start + max_pages]
                nbytes = len(chunk) * self.spec.page_bytes
                # Fault-path cost: per-batch fault latency, per-page
                # handling, then the DMA itself.
                time_ms = (
                    self.spec.um_fault_latency_us * 1e-3
                    + len(chunk) * self.spec.um_page_handling_us * 1e-3
                    + self.spec.bytes_time_ms(nbytes, self.spec.pcie_bandwidth_gbps)
                )
                batch.migrations.append(nbytes)
                batch.time_ms += time_ms
                if profiler is not None:
                    profiler.record_migration(nbytes, time_ms)
        state.resident[stay] = True
        self.total_resident_pages += len(stay)
        return self._inject_stall(batch)

    def touch_byte_ranges(
        self,
        array: DeviceArray,
        start_bytes: np.ndarray,
        length_bytes: np.ndarray,
        profiler: Profiler | None = None,
    ) -> MigrationBatch:
        """Fault in all pages overlapped by the given intra-array ranges."""
        start = np.asarray(start_bytes, dtype=np.int64)
        length = np.asarray(length_bytes, dtype=np.int64)
        nonzero = length > 0
        start, length = start[nonzero], length[nonzero]
        if len(start) == 0:
            return MigrationBatch()
        first = start // self.spec.page_bytes
        last = (start + length - 1) // self.spec.page_bytes
        counts = last - first + 1
        from repro.utils.ragged import ragged_arange

        pages = np.repeat(first, counts) + ragged_arange(counts)
        return self.touch(array, pages, profiler)

    # ------------------------------------------------------------------
    # Prefetch (UMP path)
    # ------------------------------------------------------------------

    def prefetch(
        self, array: DeviceArray, profiler: Profiler | None = None
    ) -> MigrationBatch:
        """``cudaMemPrefetchAsync``: migrate all non-resident pages in
        2 MiB chunks at full PCIe bandwidth."""
        state = self._state(array)
        batch = MigrationBatch()
        # The whole array is being staged for use: refresh every page's
        # LRU clock, not just the missing ones — otherwise the resident
        # pages of a just-prefetched array look cold and are the first
        # evicted by the next fault burst.
        self._clock += 1
        state.last_touch[:] = self._clock
        missing = np.flatnonzero(~state.resident)
        if len(missing) == 0:
            return batch
        stay = self._admit(missing, batch)

        chunk_pages = max(1, self.spec.um_prefetch_chunk_bytes // self.spec.page_bytes)
        breaks = np.flatnonzero(np.diff(missing) != 1) + 1
        for run in np.split(missing, breaks):
            for start in range(0, len(run), chunk_pages):
                chunk = run[start : start + chunk_pages]
                nbytes = len(chunk) * self.spec.page_bytes
                # One enqueue latency per chunk, no per-page fault cost.
                time_ms = self.spec.pcie_latency_us * 1e-3 + \
                    self.spec.bytes_time_ms(nbytes, self.spec.pcie_bandwidth_gbps)
                batch.migrations.append(nbytes)
                batch.time_ms += time_ms
                if profiler is not None:
                    profiler.record_migration(nbytes, time_ms)
        state.resident[stay] = True
        self.total_resident_pages += len(stay)
        return self._inject_stall(batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_fraction(self, array: DeviceArray) -> float:
        state = self._state(array)
        return float(state.resident.mean())

    def resident_bytes(self) -> int:
        return self.total_resident_pages * self.spec.page_bytes
