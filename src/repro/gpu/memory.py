"""Simulated device-memory allocator.

Frameworks allocate their *actual* arrays through this allocator, so
footprints — and the O.O.M pattern of Table III — emerge from real data
structure sizes rather than hard-coded formulas.  Two allocation kinds
exist, mirroring CUDA:

* ``device`` — ``cudaMalloc``: must fit in capacity or
  :class:`~repro.errors.DeviceOutOfMemoryError` is raised.
* ``um`` — ``cudaMallocManaged``: never fails for size; pages migrate on
  demand and may oversubscribe capacity (Pascal+ behaviour the paper
  relies on for uk-2006).  Residency is managed by
  :class:`repro.gpu.um.UnifiedMemoryManager`.
* ``zerocopy`` — ``cudaHostAlloc``-style pinned host memory mapped into
  the device address space: consumes no device capacity and never
  migrates; every device access crosses PCIe (Section IV-B's rejected
  alternative to UM).

Addresses are assigned by a monotone bump pointer in a flat virtual
address space; they feed the coalescing and cache models, so two arrays
never alias.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError, DeviceOutOfMemoryError
from repro.gpu.device import DeviceSpec

_ALIGN = 256  # cudaMalloc alignment


@dataclass
class DeviceArray:
    """A named allocation: host-side numpy storage plus a device address."""

    name: str
    base_address: int
    data: np.ndarray
    kind: str  # "device" | "um"
    freed: bool = field(default=False, compare=False)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def itemsize(self) -> int:
        return self.data.itemsize

    def addresses_of(self, indices: np.ndarray) -> np.ndarray:
        """Byte addresses of the given element indices."""
        if self.freed:
            raise AllocationError(f"use after free: {self.name}")
        return self.base_address + np.asarray(indices, dtype=np.int64) * self.itemsize

    def address_range(self) -> tuple[int, int]:
        """[start, end) byte addresses of the allocation."""
        return self.base_address, self.base_address + self.nbytes

    def __repr__(self) -> str:
        return (
            f"DeviceArray({self.name!r}, {self.kind}, {self.nbytes} B "
            f"@ 0x{self.base_address:x})"
        )


class DeviceMemory:
    """Capacity-accounted allocator over a flat virtual address space."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.capacity = spec.memory_capacity
        self._next_address = spec.page_bytes  # keep address 0 unused
        self._device_in_use = 0
        self._allocations: dict[int, DeviceArray] = {}
        #: Optional :class:`repro.resilience.faults.FaultInjector`
        #: consulted on every allocation request (may raise an injected
        #: :class:`~repro.errors.DeviceOutOfMemoryError`).
        self.injector = None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _bump(self, nbytes: int, alignment: int) -> int:
        addr = -(-self._next_address // alignment) * alignment
        self._next_address = addr + nbytes
        return addr

    def alloc(self, name: str, array: np.ndarray, *, kind: str = "device") -> DeviceArray:
        """Place ``array`` on the device (or in UM / pinned-host space)."""
        if kind not in ("device", "um", "zerocopy"):
            raise ValueError(f"unknown allocation kind {kind!r}")
        array = np.ascontiguousarray(array)
        if self.injector is not None:
            self.injector.on_alloc(
                name, array.nbytes, self._device_in_use, self.capacity
            )
        if kind == "device":
            if self._device_in_use + array.nbytes > self.capacity:
                raise DeviceOutOfMemoryError(
                    array.nbytes, self._device_in_use, self.capacity
                )
            self._device_in_use += array.nbytes
        alignment = self.spec.page_bytes if kind in ("um", "zerocopy") else _ALIGN
        base = self._bump(max(array.nbytes, 1), alignment)
        da = DeviceArray(name=name, base_address=base, data=array, kind=kind)
        self._allocations[base] = da
        return da

    def alloc_empty(
        self, name: str, shape, dtype, *, kind: str = "device"
    ) -> DeviceArray:
        return self.alloc(name, np.empty(shape, dtype=dtype), kind=kind)

    def alloc_full(
        self, name: str, shape, fill_value, dtype, *, kind: str = "device"
    ) -> DeviceArray:
        return self.alloc(name, np.full(shape, fill_value, dtype=dtype), kind=kind)

    def free(self, array: DeviceArray) -> None:
        if array.base_address not in self._allocations:
            raise AllocationError(f"unknown or double-freed allocation {array.name!r}")
        del self._allocations[array.base_address]
        if array.kind == "device":
            self._device_in_use -= array.nbytes
        array.freed = True

    def free_all(self) -> None:
        for da in list(self._allocations.values()):
            self.free(da)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def device_bytes_in_use(self) -> int:
        return self._device_in_use

    @property
    def um_bytes_allocated(self) -> int:
        return sum(a.nbytes for a in self._allocations.values() if a.kind == "um")

    def allocations(self) -> list[DeviceArray]:
        return list(self._allocations.values())

    def __repr__(self) -> str:
        return (
            f"DeviceMemory({self._device_in_use}/{self.capacity} B device, "
            f"{self.um_bytes_allocated} B UM, {len(self._allocations)} allocs)"
        )
