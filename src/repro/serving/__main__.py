"""CLI for the serving layer.

Usage::

    python -m repro.serving demo                 # serve a sample mix
    python -m repro.serving identity             # service-vs-session gate
    python -m repro.serving identity --pool-size 2
    python -m repro.serving identity --health    # health-plane on/off gate
    python -m repro.serving chaos                # self-healing battery
    python -m repro.serving chaos --runs 200 --seed 7
    python -m repro.bench serve --json-dir D     # closed-loop load bench
"""

from __future__ import annotations

import argparse
import sys

from repro.graph import datasets


def _demo(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving demo",
        description="Serve one sample multi-tenant batch and print the "
        "responses plus the metrics snapshot.",
    )
    parser.add_argument("--graph", default="slashdot")
    parser.add_argument("--pool-size", type=int, default=2)
    parser.add_argument(
        "--trace", default=None,
        help="write the service-track Chrome trace here",
    )
    args = parser.parse_args(argv)

    from repro.serving import (
        NeighborhoodRequest, PageRankRequest, ShortestPathRequest,
        StatsRequest, TraversalService, VisitRequest,
    )

    csr, source = datasets.load(args.graph)
    with TraversalService(
        csr, pool_size=args.pool_size, telemetry=args.trace is not None,
    ) as service:
        responses = service.serve([
            VisitRequest(problem="bfs", source=source, tenant="interactive",
                         deadline_ms=5.0),
            NeighborhoodRequest(source=source, hops=2, tenant="interactive",
                                deadline_ms=5.0),
            ShortestPathRequest(source=source, target=0, tenant="interactive",
                                deadline_ms=5.0),
            VisitRequest(problem="cc", source=0, tenant="batch"),
            PageRankRequest(tenant="analytics"),
            StatsRequest(tenant="analytics"),
        ])
        for response in responses:
            print(response)
        print()
        snapshot = service.metrics_snapshot()
        for key, value in sorted(snapshot["counters"].items()):
            print(f"  {key} = {value:g}")
        if args.trace:
            service.trace().save_chrome(args.trace)
            print(f"wrote {args.trace}", file=sys.stderr)
    return 0


def _identity(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving identity",
        description="Gate: service results must be bit-identical to "
        "per-lane bare-session replays; with --health, serving with the "
        "self-healing plane on must be bit-identical (labels AND "
        "simulated clocks) to serving with it off.",
    )
    parser.add_argument("--graph", default="slashdot")
    parser.add_argument(
        "--pool-size", type=int, default=None,
        help="lanes to check (default: both 1 and 2)",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="run the health-plane on/off identity gate instead "
        "(bare and resilient lanes)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="run the observability on/off identity gate instead: "
        "request tracing, SLO monitors and the flight recorder all "
        "enabled must leave labels and simulated clocks bit-identical",
    )
    args = parser.parse_args(argv)

    from repro.serving.identity import check_health_identity, \
        check_service_identity, check_trace_identity

    csr, _ = datasets.load(args.graph)
    failed = False
    if args.trace:
        sizes = (args.pool_size,) if args.pool_size else (2,)
        for size in sizes:
            for resilient in (False, True):
                lanes = "resilient" if resilient else "bare"
                mismatches = check_trace_identity(
                    csr, pool_size=size, resilient=resilient,
                )
                if mismatches:
                    failed = True
                    print(f"pool_size={size} ({lanes} lanes): "
                          "observability is NOT observational:")
                    for line in mismatches:
                        print(f"  {line}")
                else:
                    print(f"pool_size={size} ({lanes} lanes): telemetry "
                          "on == telemetry off (bit-identical)")
        return 1 if failed else 0
    if args.health:
        sizes = (args.pool_size,) if args.pool_size else (2,)
        for size in sizes:
            for resilient in (False, True):
                lanes = "resilient" if resilient else "bare"
                mismatches = check_health_identity(
                    csr, pool_size=size, resilient=resilient,
                )
                if mismatches:
                    failed = True
                    print(f"pool_size={size} ({lanes} lanes): health "
                          "plane is NOT observational:")
                    for line in mismatches:
                        print(f"  {line}")
                else:
                    print(f"pool_size={size} ({lanes} lanes): health "
                          "on == health off (bit-identical)")
        return 1 if failed else 0
    sizes = (args.pool_size,) if args.pool_size else (1, 2)
    for size in sizes:
        mismatches = check_service_identity(csr, pool_size=size)
        if mismatches:
            failed = True
            print(f"pool_size={size}: NOT bit-identical:")
            for line in mismatches:
                print(f"  {line}")
        else:
            print(f"pool_size={size}: service == session (bit-identical)")
    return 1 if failed else 0


def _chaos(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving chaos",
        description="Self-healing chaos battery: sustained per-lane "
        "faults; every request must be answered-or-typed-shed exactly "
        "once, every open lane standby-replaced, and at least one lane "
        "must recover (open -> half-open -> closed).",
    )
    parser.add_argument("--runs", type=int, default=None,
                        help="number of seeded runs (default 200)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="stop after this wall-time budget instead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vertices", type=int, default=40)
    parser.add_argument(
        "--postmortem-dir", default=None,
        help="attach a flight recorder to every run, dump postmortem "
        "bundles here, and enforce the explainability contract "
        "(failing plans must leave validating bundles)",
    )
    args = parser.parse_args(argv)

    from repro.serving.chaos import run_heal_chaos

    report = run_heal_chaos(
        runs=args.runs, max_seconds=args.seconds, seed=args.seed,
        max_vertices=args.max_vertices,
        postmortem_dir=args.postmortem_dir, log=print,
    )
    print(report.summary())
    if not report.ok:
        return 1
    if report.recoveries == 0:
        print("FAIL: no run demonstrated an open -> half-open -> closed "
              "recovery")
        return 1
    if args.postmortem_dir is not None and report.postmortems == 0:
        print("FAIL: no run produced a postmortem bundle")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["demo"]:
        return _demo(argv[1:])
    if argv[:1] == ["identity"]:
        return _identity(argv[1:])
    if argv[:1] == ["chaos"]:
        return _chaos(argv[1:])
    print(__doc__.strip())
    return 0 if not argv else 2


if __name__ == "__main__":
    raise SystemExit(main())
