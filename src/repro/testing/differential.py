"""Differential correctness runner.

The engine's core claim is functional exactness: EtaGraph labels must
match the CPU oracles *bit-for-bit* across every configuration, and so
must every baseline (all frameworks share the same label-propagation
semantics; only the cost models differ — Section VI-B).  This module
turns that claim into machinery: one call runs a problem through the
EtaGraph engine, every baseline and the CPU oracle, diffs the label
vectors exactly, and reports first-divergence context when they disagree.

Typical use::

    from repro.testing import run_differential_case

    report = run_differential_case(graph, "bfs", source=0)
    assert report.ok, report.summary()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.algorithms.base import get_problem
from repro.algorithms.cpu_reference import reference_labels
from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph, WEIGHT_DTYPE

#: Baseline frameworks included in a differential case by default
#: (Table III's comparison set plus the motivation baseline).
ALL_BASELINES: tuple[str, ...] = (
    "cusha", "gunrock", "tigr", "simple-vc", "gts", "cpu-ligra",
)

#: Problems a differential case can exercise.
ALL_PROBLEMS: tuple[str, ...] = ("bfs", "sssp", "sswp", "cc")

#: How many mismatching vertices a :class:`LabelDiff` records in detail.
MAX_DIFF_EXAMPLES = 5


def cc_reference(csr: CSRGraph) -> np.ndarray:
    """CPU oracle for connected components: min-label flooding to the
    fixed point, one whole-edge-set relaxation per round.

    The (min, id) fixed point is unique, so any schedule — this serial
    sweep, the engine's frontier-driven one, CuSha's shard passes —
    converges to identical labels.
    """
    labels = np.arange(csr.num_vertices, dtype=WEIGHT_DTYPE)
    src = csr.edge_sources().astype(np.int64)
    dst = csr.column_indices.astype(np.int64)
    for _ in range(max(csr.num_vertices, 1)):
        before = labels.copy()
        np.minimum.at(labels, dst, labels[src])
        if np.array_equal(labels, before):
            break
    return labels


def oracle_labels(csr: CSRGraph, problem_name: str, source: int) -> np.ndarray:
    """Dispatch to the serial CPU oracle for any supported problem."""
    if problem_name == "cc":
        return cc_reference(csr)
    return reference_labels(csr, source, problem_name)


@dataclass(frozen=True)
class LabelDiff:
    """First-divergence context between an engine and the oracle."""

    num_mismatches: int
    num_vertices: int
    #: First few mismatching vertex ids with (expected, actual) labels.
    examples: tuple[tuple[int, float, float], ...]
    #: Out-degree of the first mismatching vertex (degenerate cuts are a
    #: frequent culprit, so this is the first thing to look at).
    first_out_degree: int
    #: Whether the oracle considers the first mismatching vertex reached.
    first_reached: bool

    def __str__(self) -> str:
        v, exp, act = self.examples[0]
        lines = [
            f"{self.num_mismatches}/{self.num_vertices} labels differ; "
            f"first at vertex {v} (out-degree {self.first_out_degree}, "
            f"{'reached' if self.first_reached else 'unreached'} in oracle): "
            f"expected {exp!r}, got {act!r}",
        ]
        for u, e, a in self.examples[1:]:
            lines.append(f"  vertex {u}: expected {e!r}, got {a!r}")
        return "\n".join(lines)


def diff_labels(
    expected: np.ndarray, actual: np.ndarray, csr: CSRGraph | None = None
) -> LabelDiff | None:
    """Exact (bit-for-bit) label comparison; ``None`` when identical."""
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    if expected.shape != actual.shape:
        return LabelDiff(
            num_mismatches=max(len(expected), len(actual)),
            num_vertices=len(expected),
            examples=((-1, float(len(expected)), float(len(actual))),),
            first_out_degree=-1,
            first_reached=False,
        )
    # NaN-safe exact equality: two NaNs count as equal, anything else
    # must match bit-for-bit (inf == inf holds under ==).
    both_nan = np.isnan(expected) & np.isnan(actual)
    mismatch = ~((expected == actual) | both_nan)
    if not mismatch.any():
        return None
    where = np.flatnonzero(mismatch)
    first = int(where[0])
    examples = tuple(
        (int(v), float(expected[v]), float(actual[v]))
        for v in where[:MAX_DIFF_EXAMPLES]
    )
    return LabelDiff(
        num_mismatches=int(mismatch.sum()),
        num_vertices=len(expected),
        examples=examples,
        first_out_degree=csr.out_degree(first) if csr is not None else -1,
        first_reached=bool(np.isfinite(expected[first]) if len(expected) else False),
    )


@dataclass(frozen=True)
class EngineReport:
    """Outcome of one engine within a differential case."""

    engine: str
    ok: bool
    diff: LabelDiff | None = None
    error: str | None = None


@dataclass
class DifferentialReport:
    """Every engine's labels diffed against the CPU oracle."""

    problem: str
    source: int
    num_vertices: int
    num_edges: int
    config: EtaGraphConfig
    engines: list[EngineReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.engines)

    @property
    def failures(self) -> list[EngineReport]:
        return [e for e in self.engines if not e.ok]

    def summary(self) -> str:
        head = (
            f"{self.problem} from {self.source} on |V|={self.num_vertices} "
            f"|E|={self.num_edges} (K={self.config.degree_limit}, "
            f"smp={self.config.smp}, "
            f"memory={self.config.memory_mode.value}, "
            f"udc={self.config.udc_mode})"
        )
        if self.ok:
            return f"OK: {head}: {len(self.engines)} engines agree with oracle"
        lines = [f"FAIL: {head}"]
        for e in self.failures:
            reason = e.error if e.error else str(e.diff)
            lines.append(f"  [{e.engine}] {reason}")
        return "\n".join(lines)


#: Signature of a pluggable engine: ``(graph, problem_name, source) -> labels``.
EngineFn = Callable[[CSRGraph, str, int], np.ndarray]


def etagraph_engine(
    config: EtaGraphConfig | None = None, device: DeviceSpec = GTX_1080TI
) -> EngineFn:
    """EtaGraph as a pluggable differential engine."""

    def run(csr: CSRGraph, problem_name: str, source: int) -> np.ndarray:
        with EngineSession(csr, config, device) as session:
            return session.query(get_problem(problem_name), source).labels

    return run


def session_engine(
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    warm_queries: int = 1,
) -> EngineFn:
    """EtaGraph served through a *warm* topology-resident session.

    The session first answers ``warm_queries`` queries from other
    sources, so the differential case exercises reused UM residency,
    warm caches and recycled per-query buffers — the state a serving
    deployment actually runs in — before the labels under test are
    produced.  The probe is then answered twice and the second answer's
    labels are returned: the replay reuses the frontier memo's entries
    (the query step's per-destination edge counts, the cache model's
    run summaries), and it must reproduce the first answer's labels and
    per-iteration counts exactly, or the engine raises.
    """

    def run(csr: CSRGraph, problem_name: str, source: int) -> np.ndarray:
        problem = get_problem(problem_name)
        with EngineSession(csr, config, device) as session:
            if csr.num_vertices > 1:
                for i in range(warm_queries):
                    session.query(
                        problem, (source + 1 + i) % csr.num_vertices
                    )
            first = session.query(problem, source)
            replay = session.query(problem, source)
        if not np.array_equal(first.labels, replay.labels):
            raise AssertionError("replayed probe query changed its labels")
        if _step_counts(first) != _step_counts(replay):
            raise AssertionError(
                "replayed probe query changed its per-iteration counts: "
                f"{_step_counts(first)} then {_step_counts(replay)}"
            )
        return replay.labels

    return run


def _step_counts(result) -> list[tuple[int, ...]]:
    """A query's label-determined per-iteration counts (its simulated
    times legitimately change once the caches are warm)."""
    return [
        (s.active_vertices, s.shadow_vertices, s.edges_scanned,
         s.updates, s.newly_visited)
        for s in result.stats.iterations
    ]


def service_engine(
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 2,
    warm_queries: int = 1,
) -> EngineFn:
    """EtaGraph behind the full serving frontend (:mod:`repro.serving`).

    Each case stands up a :class:`~repro.serving.TraversalService`,
    warms its lanes with ``warm_queries`` other-source queries, then
    serves the query under test as a ``visit`` request — so admission,
    EDF dispatch and pool routing all sit between the oracle and the
    labels, and any divergence the frontend introduced shows up as a
    differential failure.
    """
    from repro.serving import TraversalService, VisitRequest

    def run(csr: CSRGraph, problem_name: str, source: int) -> np.ndarray:
        requests = []
        if csr.num_vertices > 1:
            requests = [
                VisitRequest(
                    problem=problem_name,
                    source=(source + 1 + i) % csr.num_vertices,
                    tenant="warm",
                )
                for i in range(warm_queries)
            ]
        requests.append(
            VisitRequest(problem=problem_name, source=source, tenant="probe")
        )
        with TraversalService(
            csr, config, device, pool_size=pool_size,
        ) as service:
            response = service.serve(requests)[-1]
        if not response.ok:
            raise AssertionError(
                f"service refused the probe query: {response.error}"
            )
        return response.labels

    return run


def msbfs_engine(
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    companion_lanes: int = 7,
) -> EngineFn:
    """EtaGraph's MSBFS wave runner as a differential engine.

    BFS cases run as one bit-packed wave: the probe source shares the
    mask word with up to ``companion_lanes`` other sources and its lane
    is extracted from the *last* position, so lane packing, cross-lane
    OR propagation and per-lane level extraction all sit between the
    oracle and the labels.  Non-BFS problems fall back to a sequential
    session query — MSBFS only serves BFS, and a differential engine
    must answer every case the fuzzer deals it.
    """
    from repro.core import msbfs

    def run(csr: CSRGraph, problem_name: str, source: int) -> np.ndarray:
        problem = get_problem(problem_name)
        with EngineSession(csr, config, device) as session:
            if problem.name != "bfs":
                return session.query(problem, source).labels
            n = csr.num_vertices
            companions = [
                (source + 1 + i) % n
                for i in range(min(companion_lanes, n - 1))
            ]
            wave = msbfs.run_wave(
                session, np.asarray(companions + [source], dtype=np.int64)
            )
            return wave.labels_for(wave.width - 1)

    return run


def baseline_engine(name: str, device: DeviceSpec = GTX_1080TI) -> EngineFn:
    """A Table III baseline as a pluggable differential engine."""
    from repro.baselines import get_framework

    def run(csr: CSRGraph, problem_name: str, source: int) -> np.ndarray:
        fw = get_framework(name, device)
        return fw.run(csr, get_problem(problem_name), source).labels

    return run


#: Named extra-engine factories (``config -> EngineFn``) the fuzz CLI
#: enables by name: ``etagraph-session`` serves each case through a warm
#: topology-resident session, ``etagraph-service`` through the full
#: multi-tenant serving frontend, ``etagraph-msbfs`` through a packed
#: multi-source wave (BFS cases) with the probe in the last lane.
EXTRA_ENGINE_FACTORIES: dict = {
    "etagraph-session": session_engine,
    "etagraph-service": service_engine,
    "etagraph-msbfs": msbfs_engine,
}


def run_differential_case(
    csr: CSRGraph,
    problem_name: str,
    source: int,
    *,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    baselines: Sequence[str] = ALL_BASELINES,
    extra_engines: Mapping[str, EngineFn] | None = None,
    check_invariants: bool = True,
) -> DifferentialReport:
    """Run one problem through EtaGraph, the baselines and the oracle.

    Every engine's labels are compared bit-for-bit against the serial CPU
    oracle.  ``extra_engines`` maps names to ``(graph, problem, source) ->
    labels`` callables, which is how tests inject deliberately broken
    engines to prove the runner catches them.  With ``check_invariants``
    (the default) the EtaGraph run also executes the engine's inline
    invariant checks, so an invariant violation surfaces as an errored
    engine in the report rather than silently passing.
    """
    from dataclasses import replace

    config = config or EtaGraphConfig()
    if check_invariants and not config.check_invariants:
        config = replace(config, check_invariants=True)
    expected = oracle_labels(csr, problem_name, source)

    engines: dict[str, EngineFn] = {
        "etagraph": etagraph_engine(config, device),
        # The same engine served through a warm EngineSession: fuzzing
        # and every differential sweep exercise session reuse for free.
        "etagraph-session": session_engine(config, device),
    }
    for name in baselines:
        engines[name] = baseline_engine(name, device)
    if extra_engines:
        engines.update(extra_engines)

    report = DifferentialReport(
        problem=problem_name,
        source=source,
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        config=config,
    )
    for name, engine in engines.items():
        try:
            actual = engine(csr, problem_name, source)
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            report.engines.append(EngineReport(
                engine=name, ok=False,
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        diff = diff_labels(expected, actual, csr)
        report.engines.append(EngineReport(engine=name, ok=diff is None, diff=diff))
    return report
