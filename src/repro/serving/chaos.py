"""Self-healing chaos battery: sustained lane faults, exact serving.

:mod:`repro.resilience.chaos` fuzzes one session; this battery fuzzes
the *service plane*.  Each run draws a random graph, a pool of 2–3
resilient lanes, sustained per-lane fault plans, a random retry policy
and a random :class:`~repro.serving.health.HealthPolicy`, then serves
several mixed request batches (deadlined, best-effort, waves, stats)
under a tight per-tenant quota, with some deadlined visits arriving
late, and asserts the serving contract under sustained faults:

* **Conservation** — every submitted request gets exactly one terminal
  response (served, typed error, or typed shed); no losses, no
  duplicates, and the admission queue drains empty.  The served + shed
  counters total the admitted requests, and the ``service.requests`` /
  ``service.sheds`` / ``service.errors`` metrics total the admitted
  answers, the sheds and the other failures among the responses.
* **Correct-or-typed** — every ``ok`` visit response carries labels
  bit-identical to the CPU oracle; every failure is a typed
  :class:`~repro.errors.ReproError` string, never a bare traceback.
* **Warm standby** — every breaker ``open`` is paired with a same-lane
  ``replace`` event at the same simulated instant (the standby is built
  *before* the sick session retires, so the swap is within any breaker
  window by construction), and each lane's session generation equals
  its open count.
* **Recovery** — across the battery, at least one lane must complete
  the full open → half-open → closed arc (the CLI gate fails on zero
  recoveries).
* **Replay** — every run is served twice from its seed, and the two
  serves must agree on every response's facts
  (:func:`~repro.serving.identity._response_facts`), the health-plane
  events (kind, lane, instant), hedges and hedge wins, and the
  ``service.*`` counters.
* **Explainability** (with ``postmortem_dir``) — every failing plan
  (typed error responses or breaker opens) must leave at least one
  :class:`~repro.observability.recorder.FlightRecorder` postmortem
  bundle naming its trigger, and every bundle's Chrome-trace slice must
  pass :func:`~repro.observability.export.validate_chrome_trace`.

Everything derives from one sweep seed; a failing run prints the
coordinates to replay it.  ``python -m repro.serving chaos`` runs this,
and the ``heal-smoke`` CI job gates on it (``obs-serve-smoke`` adds
``--postmortem-dir``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.session import RetryPolicy
from repro.serving.admission import TenantQuota
from repro.serving.health import HealthPolicy
from repro.serving.identity import _response_facts
from repro.serving.requests import NeighborhoodRequest, StatsRequest, \
    VisitRequest
from repro.serving.service import TraversalService

_PROBLEMS = ("bfs", "cc", "sssp", "sswp")
#: Fault kinds that demonstrably fire on the serving path: every query
#: in every memory mode starts with a labels-init H2D copy
#: (transfer_fault), allocates per-query buffers (alloc_oom), moves its
#: labels back (bitflip) and touches the frontier memo
#: (memo_invalidate).
_KINDS = ("transfer_fault", "transfer_fault", "bitflip", "alloc_oom",
          "memo_invalidate")
_TENANTS = ("alpha", "beta", "gamma")


@dataclass
class HealReport:
    """Aggregate outcome of one self-healing chaos battery."""

    seed: int
    runs: int = 0
    requests: int = 0
    #: Responses that returned a verified-correct (or well-formed) payload.
    served_ok: int = 0
    #: Typed-shed responses (deadline or brownout shedding).
    sheds: int = 0
    #: Typed failures by exception type name.
    typed_errors: dict = field(default_factory=dict)
    #: Breaker lifecycle totals across every run.
    opens: int = 0
    closes: int = 0
    replaces: int = 0
    #: Runs in which at least one lane closed again after opening —
    #: a demonstrated open -> half-open -> closed recovery.
    recoveries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    brownouts: int = 0
    faults_fired: int = 0
    #: Postmortem bundles dumped by per-run flight recorders (only
    #: counted when the battery runs with ``postmortem_dir``).
    postmortems: int = 0
    elapsed_s: float = 0.0
    #: Contract violations, with the run coordinates to replay them.
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        errors = ", ".join(
            f"{k}={v}" for k, v in sorted(self.typed_errors.items())
        ) or "none"
        head = (
            f"heal chaos (seed {self.seed}): {self.runs} runs, "
            f"{self.requests} requests in {self.elapsed_s:.1f}s\n"
            f"  answered: {self.served_ok} ok, {self.sheds} shed, "
            f"typed errors: {errors}\n"
            f"  breakers: {self.opens} opens, {self.replaces} standby "
            f"replacements, {self.closes} closes "
            f"({self.recoveries} runs recovered)\n"
            f"  hedges: {self.hedges} launched, {self.hedge_wins} won; "
            f"brownout transitions: {self.brownouts}; "
            f"faults fired: {self.faults_fired}"
        )
        if self.postmortems:
            head += f"\n  postmortem bundles: {self.postmortems}"
        if self.ok:
            return (
                f"{head}\nself-healing contract holds: every request was "
                "answered-or-typed-shed exactly once and every open lane "
                "was standby-replaced at the open instant"
            )
        lines = [f"{head}\n{len(self.failures)} CONTRACT VIOLATIONS:"]
        lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)


def _sustained_plan(rng: np.random.Generator) -> FaultPlan:
    """A sustained per-lane fault plan: one or two long event windows
    (6–24 events each) starting near the lane's first serves."""
    specs = []
    for _ in range(int(rng.integers(1, 3))):
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        specs.append(FaultSpec(
            kind=kind,
            at=int(rng.integers(0, 8)),
            count=int(rng.integers(6, 25)),
        ))
    return FaultPlan(specs=tuple(specs))


def _random_requests(
    rng: np.random.Generator, graph, problem: str, n: int,
    now_ms: float = 0.0,
) -> list:
    """A mixed batch: mostly visits (some deadlined, some best-effort,
    runs of identical-problem plain BFS that wave batching can merge),
    a sprinkle of neighborhood and stats requests.  Some deadlined
    visits arrive late, stamped between 0 and the service clock
    ``now_ms``: one whose budget is already spent is refused at
    admission."""
    requests = []
    for _ in range(n):
        tenant = _TENANTS[int(rng.integers(len(_TENANTS)))]
        roll = rng.random()
        if roll < 0.08:
            requests.append(StatsRequest(tenant=tenant))
            continue
        if roll < 0.16:
            requests.append(NeighborhoodRequest(
                tenant=tenant,
                source=int(rng.integers(graph.num_vertices)),
                hops=int(rng.integers(1, 4)),
            ))
            continue
        deadline = None
        if roll < 0.28:
            # Tight-but-plausible budgets: some will shed under faults.
            deadline = float(rng.uniform(0.5, 30.0))
        elif roll < 0.40:
            # Nearly-spent budgets: EDF serves these first, so only a
            # hair-trigger deadline actually exercises the shed path.
            deadline = float(rng.uniform(0.0, 0.25))
        arrival = None
        if deadline is not None and rng.random() < 0.25:
            arrival = float(rng.uniform(0.0, now_ms))
        requests.append(VisitRequest(
            tenant=tenant,
            problem=problem,
            source=int(rng.integers(graph.num_vertices)),
            deadline_ms=deadline,
            arrival_ms=arrival,
        ))
    return requests


def _check_response(response, graph, problem, report, coords) -> None:
    """Assert one terminal response honors correct-or-typed."""
    from repro.testing.differential import diff_labels, oracle_labels

    request = response.request
    if response.shed:
        if not response.error:
            report.failures.append(
                f"{coords} seq {response.seq}: shed without a typed reason"
            )
            return
        report.sheds += 1
        name = response.error.split(":", 1)[0]
        report.typed_errors[name] = report.typed_errors.get(name, 0) + 1
        return
    if not response.ok:
        if not response.error or ":" not in response.error:
            report.failures.append(
                f"{coords} seq {response.seq}: failure without a typed "
                f"error: {response.error!r}"
            )
            return
        name = response.error.split(":", 1)[0]
        report.typed_errors[name] = report.typed_errors.get(name, 0) + 1
        return
    # ok=True: verify the payload.
    if isinstance(request, VisitRequest):
        diff = diff_labels(
            oracle_labels(graph, request.problem, request.source),
            np.asarray(response.value), graph,
        )
        if diff is not None:
            report.failures.append(
                f"{coords} seq {response.seq} "
                f"{request.describe()}: WRONG LABELS: {diff}"
            )
            return
    elif isinstance(request, NeighborhoodRequest):
        levels = np.asarray(response.value["levels"])
        if levels.size and levels.max(initial=0) > request.hops:
            report.failures.append(
                f"{coords} seq {response.seq}: neighborhood exceeded "
                f"hops={request.hops}"
            )
            return
    elif isinstance(request, StatsRequest):
        if response.value.get("num_vertices") != graph.num_vertices:
            report.failures.append(
                f"{coords} seq {response.seq}: stats reported "
                f"{response.value.get('num_vertices')} vertices, graph "
                f"has {graph.num_vertices}"
            )
            return
    report.served_ok += 1


def _check_postmortems(
    recorder, run_errors: int, opens: int, report, coords,
) -> None:
    """Assert the explainability contract for one run: a failing plan
    leaves at least one bundle, every bundle names its trigger, and
    every written Chrome-trace slice validates."""
    import json
    from pathlib import Path

    from repro.observability.export import validate_chrome_trace

    if (run_errors or opens) and not recorder.dumps:
        report.failures.append(
            f"{coords}: failing plan ({run_errors} error responses, "
            f"{opens} breaker opens) left no postmortem bundle"
        )
        return
    for manifest in recorder.dumps:
        trigger = manifest.get("trigger", "")
        if not trigger or ":" not in trigger:
            report.failures.append(
                f"{coords}: postmortem {manifest.get('stem')} does not "
                f"name its trigger: {trigger!r}"
            )
            continue
        if recorder.out_dir is None:
            continue
        out = Path(recorder.out_dir)
        for name in manifest["files"]:
            if not name.endswith(".trace.json"):
                continue
            with open(out / name, encoding="utf-8") as fh:
                problems = validate_chrome_trace(json.load(fh))
            if problems:
                report.failures.append(
                    f"{coords}: postmortem {name} fails trace "
                    f"validation: {problems[0]}"
                )
    report.postmortems += len(recorder.dumps)


def run_heal_chaos(
    *,
    runs: int | None = None,
    max_seconds: float | None = None,
    seed: int = 0,
    max_vertices: int = 40,
    postmortem_dir=None,
    log=None,
) -> HealReport:
    """Sweep seeded sustained-fault serving runs until the run or time
    budget runs out; returns the :class:`HealReport`.

    With ``postmortem_dir`` each run gets its own
    :class:`~repro.observability.recorder.FlightRecorder` dumping into
    ``<postmortem_dir>/runNNN/``, and the battery additionally enforces
    the explainability contract (see module docstring).  The replay of
    each run serves without a recorder: the recorder is observational.
    """
    if runs is None and max_seconds is None:
        runs = 200
    report = HealReport(seed=seed)
    start = time.monotonic()

    case = 0
    while True:
        if runs is not None and case >= runs:
            break
        if max_seconds is not None and \
                time.monotonic() - start >= max_seconds:
            break
        report.runs += 1
        recorder = None
        if postmortem_dir is not None:
            from pathlib import Path

            from repro.observability.recorder import FlightRecorder

            recorder = FlightRecorder(
                out_dir=Path(postmortem_dir) / f"run{case:03d}",
            )
        coords, facts = _heal_run(seed, case, max_vertices, report, recorder)
        # Only the replay's divergence counts: its own contract checks
        # land in a throwaway report.
        _, replayed = _heal_run(
            seed, case, max_vertices, HealReport(seed=seed), None,
        )
        for name, first in facts.items():
            if replayed[name] != first:
                report.failures.append(
                    f"{coords}: the replay from the seed diverged in its "
                    f"{name}"
                )
        case += 1
        if log is not None and case % 25 == 0:
            log(
                f"  ... {case} runs, {report.opens} opens, "
                f"{report.closes} closes, "
                f"{len(report.failures)} violations"
            )

    report.elapsed_s = time.monotonic() - start
    return report


def _heal_run(
    seed: int, case: int, max_vertices: int, report: HealReport, recorder,
) -> tuple[str, dict]:
    """Serve run ``case`` of the sweep ``seed``, checking its contract
    into ``report``; returns its coordinates and the facts a replay
    from the seed must reproduce."""
    from repro.testing.fuzz import random_graph

    rng = np.random.default_rng([0x4EA1, seed, case])
    problem = _PROBLEMS[case % len(_PROBLEMS)]
    graph = random_graph(rng, weighted=problem in ("sssp", "sswp"),
                         max_vertices=max_vertices)
    pool_size = int(rng.integers(2, 4))
    fault_plans = {
        lane: _sustained_plan(rng)
        for lane in range(pool_size) if rng.random() < 0.7
    }
    policy = RetryPolicy(
        max_retries=int(rng.integers(0, 3)),
        backoff_base_ms=float(rng.choice((0.5, 1.0, 2.0))),
        jitter=float(rng.choice((0.0, 0.3))),
        allow_cpu_fallback=bool(rng.integers(0, 2)),
    )
    health = HealthPolicy(
        open_ms=float(rng.uniform(2.0, 10.0)),
        failure_threshold=int(rng.integers(2, 5)),
        probe_successes=int(rng.integers(1, 4)),
        hedge=bool(rng.integers(0, 2)),
        brownout=bool(rng.integers(0, 2)),
    )
    wave_width = int(rng.choice((0, 2, 4)))
    # A tight per-tenant quota: a batch's requests all wait at once,
    # so some tenants exceed it and are refused at admission.
    max_pending = int(rng.integers(3, 13))
    coords = (
        f"run {case} (seed {seed}, {problem}, "
        f"|V|={graph.num_vertices}, pool={pool_size}, "
        f"plans={sorted(fault_plans)}, retries={policy.max_retries}, "
        f"wave={wave_width}, open_ms={health.open_ms:.2f}, "
        f"quota={max_pending})"
    )
    with TraversalService(
        graph, pool_size=pool_size, fault_plans=fault_plans,
        policy=policy, health=health, wave_width=wave_width,
        default_quota=TenantQuota(max_pending=max_pending),
        recorder=recorder,
    ) as service:
        plane = service.health
        violation = False
        run_errors = 0
        served = []
        # What the service's counters and metrics must total, as the
        # responses account for it.
        tally = {"served+shed": 0, "service.requests": 0,
                 "service.sheds": 0, "service.errors": 0}
        for batch in range(int(rng.integers(3, 6))):
            n = int(rng.integers(10, 26))
            requests = _random_requests(rng, graph, problem, n,
                                        service.clock_ms)
            report.requests += n
            try:
                responses = service.serve(requests)
            except ReproError as exc:
                report.failures.append(
                    f"{coords} batch {batch}: serve() raised "
                    f"{type(exc).__name__}: {exc}"
                )
                violation = True
                break
            except Exception as exc:  # noqa: BLE001 — the contract
                report.failures.append(
                    f"{coords} batch {batch}: UNTYPED "
                    f"{type(exc).__name__}: {exc}"
                )
                violation = True
                break
            served += responses
            if len(responses) != len(requests):
                report.failures.append(
                    f"{coords} batch {batch}: {len(requests)} requests "
                    f"-> {len(responses)} responses (lost/duplicated)"
                )
                violation = True
                break
            if len(service.queue):
                report.failures.append(
                    f"{coords} batch {batch}: queue not drained "
                    f"({len(service.queue)} left)"
                )
                violation = True
                break
            seqs = [r.seq for r in responses if r.seq >= 0]
            tally["served+shed"] += len(seqs)
            if len(seqs) != len(set(seqs)):
                report.failures.append(
                    f"{coords} batch {batch}: duplicate sequence "
                    "numbers in responses"
                )
                violation = True
                break
            for response in responses:
                failed = not response.ok and not response.shed
                tally["service.requests"] += response.seq >= 0 \
                    and not response.shed
                tally["service.sheds"] += response.shed
                tally["service.errors"] += failed
                if failed and response.seq >= 0:
                    run_errors += 1
                _check_response(response, graph, problem, report, coords)
        if not violation:
            # Conservation: every admitted request lands in exactly
            # one of the served / shed counters, and the metrics
            # agree with the responses — service.requests counts the
            # admitted non-shed answers, service.sheds every shed and
            # service.errors every other failure (refusals included).
            got = {"served+shed": service.requests_served
                   + service.requests_shed}
            for key, value in service.metrics.snapshot()["counters"].items():
                name = key.partition("{")[0]
                got[name] = got.get(name, 0) + value
            for name, want in tally.items():
                if got.get(name, 0) != want:
                    report.failures.append(
                        f"{coords}: {name} totals {got.get(name, 0):g}"
                        f" but the responses account for {want}"
                    )
            # Breaker bookkeeping: opens pair with same-instant
            # replaces; lane generations equal their open counts.
            events = plane.events
            open_events = [e for e in events if e.kind == "open"]
            replace_events = [e for e in events if e.kind == "replace"]
            if len(open_events) != len(replace_events):
                report.failures.append(
                    f"{coords}: {len(open_events)} opens but "
                    f"{len(replace_events)} standby replacements"
                )
            else:
                for opened, replaced in zip(open_events, replace_events):
                    if opened.lane != replaced.lane or \
                            opened.t_ms != replaced.t_ms:
                        report.failures.append(
                            f"{coords}: open (lane {opened.lane} @ "
                            f"{opened.t_ms:.3f}) not matched by its "
                            f"standby replace (lane {replaced.lane} "
                            f"@ {replaced.t_ms:.3f})"
                        )
                        break
            for lane in plane.lanes:
                if service.pool.workers[lane.index].generation != lane.opens:
                    report.failures.append(
                        f"{coords}: lane {lane.index} generation "
                        f"{service.pool.workers[lane.index].generation}"
                        f" != opens {lane.opens}"
                    )
            report.opens += sum(lane.opens for lane in plane.lanes)
            report.closes += sum(lane.closes for lane in plane.lanes)
            report.replaces += len(replace_events)
            report.recoveries += int(any(lane.closes for lane in plane.lanes))
            report.hedges += plane.hedges
            report.hedge_wins += plane.hedge_wins
            report.brownouts += sum(1 for e in events if e.kind == "brownout")
            for worker in service.pool.workers:
                injector = getattr(worker.session, "injector", None)
                if injector is not None:
                    report.faults_fired += len(injector.fired)
            if recorder is not None:
                _check_postmortems(recorder, run_errors, len(open_events),
                                   report, coords)
        facts = {
            "response facts": [_response_facts(r) for r in served],
            "health events": [(e.kind, e.lane, e.t_ms) for e in plane.events],
            "hedges": (plane.hedges, plane.hedge_wins),
            "service counters": {
                key: value for key, value in
                service.metrics.snapshot()["counters"].items()
                if key.startswith("service.")
            },
        }
    return coords, facts

