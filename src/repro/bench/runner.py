"""Experiment orchestration: run one (framework, algorithm, dataset) cell.

``run_cell`` is the single execution path every experiment uses: it loads
the (cached) surrogate dataset, instantiates the requested engine on the
capacity-scaled device, and returns a uniform :class:`CellResult` — with
``oom=True`` instead of timings when the framework exhausts device memory,
exactly how Table III reports it.

:func:`run_experiments` is the multi-experiment driver behind
``python -m repro.bench all``: serial by default, or fanned out over a
process pool with ``jobs > 1``.  Parallel mode is *observationally
identical* to serial mode — every experiment seeds its own RNGs (no
global random state exists in the suite), results are merged back in
request order, and the saved JSON is byte-for-byte what the serial path
writes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import get_framework
from repro.bench import workloads
from repro.core.api import EtaGraph
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.errors import ConfigError, DeviceOutOfMemoryError, ReproError
from repro.graph import datasets
from repro.gpu.device import DeviceSpec


@dataclass
class CellResult:
    """One cell of a results grid."""

    framework: str
    algorithm: str
    dataset: str
    oom: bool = False
    #: Name of the non-OOM ``ReproError`` type that killed the run, if
    #: any.  Only typed errors land here — anything else propagates, so
    #: fault-injected bench runs can't silently swallow real bugs.
    error: str | None = None
    kernel_ms: float = float("nan")
    total_ms: float = float("nan")
    iterations: int = 0
    labels: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def cell_text(self, etagraph_style: bool = False) -> str:
        """Render like the paper: ``t_kernel/t_total`` for baselines,
        a single total for EtaGraph variants, ``O.O.M`` on exhaustion,
        ``ERR:<Type>`` for any other typed failure."""
        if self.oom:
            return "O.O.M"
        if self.error is not None:
            return f"ERR:{self.error}"
        if etagraph_style:
            return f"{self.total_ms:.3f}"
        return f"{self.kernel_ms:.3f}/{self.total_ms:.3f}"


@dataclass
class ExperimentReport:
    """What every experiment's ``run`` returns."""

    experiment: str
    title: str
    text: str
    data: dict

    def __str__(self) -> str:
        return self.text


class BenchContext:
    """Caches loaded datasets across experiments within one process.

    ``trace_dir`` (optional) turns on per-cell telemetry for EtaGraph
    cells: every cell writes a Chrome trace-event file there — including
    cells that end in ``O.O.M``/``ERR:<Type>``, whose partial trace is
    the diagnosis — and records its path in
    ``cell.extras["trace_path"]``.
    """

    def __init__(self, device: DeviceSpec | None = None, trace_dir=None):
        self.device = device or workloads.bench_device()
        self.trace_dir = trace_dir
        self._graphs: dict[tuple[str, bool], tuple] = {}

    def load(self, name: str, weighted: bool):
        key = (name, weighted)
        if key not in self._graphs:
            self._graphs[key] = datasets.load(name, weighted=weighted)
        return self._graphs[key]


def _etagraph_config(variant: str) -> EtaGraphConfig:
    if variant == "etagraph":
        return EtaGraphConfig()
    if variant == "etagraph-noump":
        return EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
    if variant == "etagraph-nosmp":
        return EtaGraphConfig(smp=False)
    if variant == "etagraph-noum":
        return EtaGraphConfig(memory_mode=MemoryMode.DEVICE)
    raise ConfigError(f"unknown EtaGraph variant {variant!r}")


def run_cell(
    ctx: BenchContext,
    framework: str,
    algorithm: str,
    dataset: str,
    *,
    keep_labels: bool = False,
) -> CellResult:
    """Execute one grid cell; OOM becomes a marked cell, and any other
    typed ``ReproError`` becomes an ``ERR:<Type>`` cell.  Untyped
    exceptions propagate — a bench run must never mask a real bug."""
    weighted = algorithm in ("sssp", "sswp")
    csr, source = ctx.load(dataset, weighted)
    cell = CellResult(framework=framework, algorithm=algorithm, dataset=dataset)
    # Resolve the framework/config before entering the guarded region: an
    # unknown variant is a caller bug and must raise, not become a cell.
    is_etagraph = framework.startswith("etagraph")
    cfg = _etagraph_config(framework) if is_etagraph else None
    fw = None if is_etagraph else get_framework(framework, ctx.device)
    try:
        if is_etagraph and ctx.trace_dir is not None:
            result = _run_traced_etagraph(
                ctx, cell, csr, cfg, algorithm, source
            )
        elif is_etagraph:
            result = EtaGraph(csr, cfg, ctx.device).run(algorithm, source)
        else:
            result = fw.run(csr, algorithm, source)
        cell.kernel_ms = result.kernel_ms
        cell.total_ms = result.total_ms
        cell.iterations = result.iterations
        if is_etagraph:
            cell.extras.update(
                stats=result.stats,
                timeline=result.timeline,
                profiler=result.profiler,
                oversubscribed=result.oversubscribed,
            )
        else:
            cell.extras.update(profiler=result.profiler)
        if keep_labels:
            cell.labels = result.labels
    except DeviceOutOfMemoryError:
        cell.oom = True
    except ReproError as exc:
        cell.error = type(exc).__name__
    return cell


def _run_traced_etagraph(
    ctx: BenchContext,
    cell: CellResult,
    csr,
    cfg: EtaGraphConfig,
    algorithm: str,
    source: int,
):
    """One EtaGraph cell with telemetry: the engine session records into
    an externally-owned tracer so the trace survives a typed failure, and
    the Chrome trace file lands next to the cell either way (its path in
    ``cell.extras["trace_path"]``).  ``EtaGraph.run`` is a session-of-one
    over the same :class:`~repro.core.session.EngineSession` code path,
    so timings and labels are bit-identical to the untraced cell."""
    from pathlib import Path

    from repro.core.session import EngineSession
    from repro.observability.export import write_chrome_trace
    from repro.observability.spans import Tracer

    trace_dir = Path(ctx.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{cell.framework}-{cell.algorithm}-{cell.dataset}.json"
    tracer = Tracer()
    try:
        with EngineSession(csr, cfg, ctx.device) as session:
            session.tracer = tracer
            return session.query(algorithm, source)
    except BaseException as exc:
        # Close whatever the failure left open, then let run_cell's typed
        # handling decide the cell's fate.
        tracer.unwind(tracer.max_end_ms, error=type(exc).__name__)
        raise
    finally:
        write_chrome_trace(
            tracer.trace(
                framework=cell.framework, algorithm=cell.algorithm,
                dataset=cell.dataset, source=source,
            ),
            path,
        )
        cell.extras["trace_path"] = str(path)


def error_taxonomy(cells) -> dict:
    """Count an iterable of :class:`CellResult` by outcome, mirroring how
    the paper tabulates O.O.M: ``{"ok": n, "oom": n, "errors": {type: n}}``."""
    taxonomy: dict = {"ok": 0, "oom": 0, "errors": {}}
    for cell in cells:
        if cell.oom:
            taxonomy["oom"] += 1
        elif cell.error is not None:
            taxonomy["errors"][cell.error] = \
                taxonomy["errors"].get(cell.error, 0) + 1
        else:
            taxonomy["ok"] += 1
    return taxonomy


# ----------------------------------------------------------------------
# Multi-experiment driver (serial or process-parallel)
# ----------------------------------------------------------------------


@dataclass
class ExperimentRun:
    """One completed experiment: the rendered report (as a plain dict so
    it crosses process boundaries losslessly) plus its wall time."""

    name: str
    text: str
    report_dict: dict
    elapsed_s: float


def _run_one(name: str, quick: bool, ctx: "BenchContext | None",
             trace_dir=None) -> ExperimentRun:
    # Imported here: the experiment modules import this module.
    from repro.bench.experiments import REPORTS
    from repro.bench.export import report_to_dict

    t0 = time.time()
    report = REPORTS[name](
        quick=quick, ctx=ctx or BenchContext(trace_dir=trace_dir)
    )
    return ExperimentRun(
        name=name,
        text=report.text,
        report_dict=report_to_dict(report),
        elapsed_s=time.time() - t0,
    )


def _run_one_job(args: tuple[str, bool, object]) -> ExperimentRun:
    """Process-pool entry point: fresh context per worker invocation."""
    name, quick, trace_dir = args
    return _run_one(name, quick, None, trace_dir)


def run_experiments(
    names: list[str], *, quick: bool = False, jobs: int = 1,
    trace_dir=None,
):
    """Yield one :class:`ExperimentRun` per name, always in ``names``
    order.  ``jobs > 1`` fans the experiments out over a process pool
    (results still stream back in order); the report dicts are identical
    to what a serial run produces.  ``trace_dir`` enables per-cell
    telemetry (see :class:`BenchContext`); trace files are written by
    whichever process runs the cell."""
    if jobs <= 1 or len(names) <= 1:
        ctx = BenchContext(trace_dir=trace_dir)
        for name in names:
            yield _run_one(name, quick, ctx)
        return

    import multiprocessing as mp

    # spawn (not fork): workers start from a clean interpreter, so no
    # inherited module/RNG/threading state can differ from a fresh
    # serial run.
    with mp.get_context("spawn").Pool(min(jobs, len(names))) as pool:
        yield from pool.imap(
            _run_one_job, [(name, quick, trace_dir) for name in names],
            chunksize=1,
        )
