"""Framework interface and the one frontier loop every baseline runs.

A framework takes (graph, problem, source) and returns labels plus the
timing split the paper reports for baselines — ``t_kernel / t_total``.
All baselines share one label-propagation semantics, so
:meth:`Framework.run` owns the loop; a framework supplies only its
placement (:meth:`Framework._place`) and its per-iteration charge
(:meth:`Framework._charge`).

OOM is not handled here: frameworks allocate through
:class:`~repro.gpu.memory.DeviceMemory` and let
:class:`~repro.errors.DeviceOutOfMemoryError` propagate; the benchmark
runner renders it as the ``O.O.M`` cells of Table III.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.algorithms.base import TraversalProblem, get_problem
from repro.errors import ConfigError, ConvergenceError
from repro.gpu.cache import CacheHierarchy
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.memory import DeviceMemory
from repro.gpu.profiler import Profiler
from repro.graph.csr import CSRGraph
from repro.utils.ragged import ragged_gather_indices

#: Iteration safety net of the baseline loop.
MAX_ITERATIONS = 100_000


@dataclass
class FrameworkResult:
    """Outcome of one baseline traversal."""

    labels: np.ndarray
    source: int
    problem_name: str
    framework: str
    kernel_ms: float
    total_ms: float  # kernel + H2D transfer (the paper's t_total)
    iterations: int
    profiler: Profiler
    device_bytes: int = 0
    extras: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"FrameworkResult({self.framework}/{self.problem_name}, "
            f"kernel={self.kernel_ms:.3f} ms, total={self.total_ms:.3f} ms)"
        )


@dataclass
class RunContext:
    """One traversal's simulated machine, shared by placement and charge."""

    csr: CSRGraph
    problem: TraversalProblem
    source: int
    mem: DeviceMemory
    caches: CacheHierarchy
    prof: Profiler
    #: Becomes :attr:`FrameworkResult.extras`.
    extras: dict = field(default_factory=dict)


class Step(NamedTuple):
    """One relaxation of the loop, as a framework's charge sees it."""

    active: np.ndarray  # the frontier this iteration ran on
    changed: np.ndarray
    attempted: int
    nbr: np.ndarray
    edges: int


class Framework(ABC):
    """A graph-processing framework under comparison."""

    name: str = "?"

    #: Edge-centric frameworks (CuSha) relax every vertex's out-edges on
    #: each pass; their frontier, all vertices at first and then the
    #: vertices the last pass changed, only decides whether another pass
    #: runs.
    edge_centric: bool = False

    def __init__(self, device: DeviceSpec | None = None):
        self.device = device or GTX_1080TI

    def run(
        self, csr: CSRGraph, problem: TraversalProblem | str, source: int
    ) -> FrameworkResult:
        """Execute one traversal; may raise DeviceOutOfMemoryError."""
        problem = self._resolve(csr, problem, source)
        ctx = RunContext(csr, problem, source, DeviceMemory(self.device),
                         CacheHierarchy(self.device), Profiler())
        arrays, labels, transfer_ms = self._place(ctx)

        everyone = (np.arange(csr.num_vertices, dtype=np.int64)
                    if self.edge_centric else None)
        active = (problem.initial_frontier(csr.num_vertices, source)
                  if everyone is None else everyone)
        kernel_ms = 0.0
        iterations = 0
        while len(active):
            if iterations >= MAX_ITERATIONS:
                raise ConvergenceError(
                    f"{self.name} exceeded {MAX_ITERATIONS} iterations"
                )
            relaxed = active if everyone is None else everyone
            step = Step(active, *propagate_step(csr, labels, relaxed, problem))
            launches_ms, streamed_ms = self._charge(ctx, arrays, step)
            # One add per launch, in launch order: the totals' rounding is
            # part of the simulated output.
            for ms in launches_ms:
                kernel_ms += ms
            transfer_ms += streamed_ms
            active = step.changed
            iterations += 1

        return FrameworkResult(
            labels=labels,
            source=source,
            problem_name=problem.name,
            framework=self.name,
            kernel_ms=kernel_ms,
            total_ms=kernel_ms + transfer_ms,
            iterations=iterations,
            profiler=ctx.prof,
            device_bytes=ctx.mem.device_bytes_in_use,
            extras=ctx.extras,
        )

    @abstractmethod
    def _place(self, ctx: RunContext) -> tuple[dict, np.ndarray, float]:
        """Allocate this framework's structures in ``ctx.mem``.

        Returns ``(arrays, labels, transfer_ms)``: what the charge reads
        by name (device arrays and any host-side tables built with
        them), the labels the loop relaxes in place, and the upfront H2D
        copy time.
        """

    @abstractmethod
    def _charge(
        self, ctx: RunContext, arrays: dict, step: Step
    ) -> tuple[Sequence[float], float]:
        """Cost of one iteration: the ms of each kernel launch, in launch
        order, and the ms of any transfer streamed during the iteration."""

    def _resolve(self, csr: CSRGraph, problem, source: int) -> TraversalProblem:
        if isinstance(problem, str):
            problem = get_problem(problem)
        problem.check_graph(csr)
        if not 0 <= source < csr.num_vertices:
            raise ConfigError(f"source {source} out of range")
        return problem


def edge_ranges(
    csr: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, degrees)`` of ``vertices``' adjacency slices, as int64."""
    offsets = csr.row_offsets
    starts = offsets[vertices].astype(np.int64)
    return starts, offsets[vertices + 1].astype(np.int64) - starts


def propagate_step(
    csr: CSRGraph,
    labels: np.ndarray,
    active: np.ndarray,
    problem: TraversalProblem,
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """One synchronous frontier relaxation of the baselines' loop.

    Pushes candidates along every out-edge of ``active`` and atomically
    reduces them into ``labels`` (in place).

    Returns ``(changed_vertices, attempted_updates, neighbor_ids,
    edges_scanned)``.
    """
    starts, degs = edge_ranges(csr, active)
    edge_idx = ragged_gather_indices(starts, degs)
    if len(edge_idx) == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64), 0
    nbr = csr.column_indices[edge_idx].astype(np.int64)
    src_per_edge = np.repeat(labels[active], degs)
    w = csr.edge_weights[edge_idx] if csr.edge_weights is not None else None
    cand = problem.candidates(src_per_edge, w)
    attempted = int(problem.improves(cand, labels[nbr]).sum())
    dests = np.unique(nbr)
    before = labels[dests].copy()
    problem.scatter_reduce(labels, nbr, cand)
    changed = dests[labels[dests] != before]
    return changed, attempted, nbr, len(edge_idx)


def get_framework(name: str, device: DeviceSpec = GTX_1080TI) -> Framework:
    """Instantiate a Table III baseline by name."""
    from repro.baselines.cpu_ligra import LigraLikeCPU
    from repro.baselines.cusha import CuShaFramework
    from repro.baselines.gts import GTSFramework
    from repro.baselines.gunrock import GunrockFramework
    from repro.baselines.tigr import TigrFramework
    from repro.baselines.simple_vc import SimpleVertexCentric

    registry = {
        "cusha": CuShaFramework,
        "gunrock": GunrockFramework,
        "tigr": TigrFramework,
        "simple-vc": SimpleVertexCentric,
        "gts": GTSFramework,
        "cpu-ligra": LigraLikeCPU,
    }
    try:
        return registry[name.lower()](device)
    except KeyError:
        raise ConfigError(
            f"unknown framework {name!r}; known: {sorted(registry)}"
        ) from None
