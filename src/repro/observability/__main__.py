"""Observability CLI: record, inspect and validate traces.

Usage::

    python -m repro.observability trace --graph slashdot --problem bfs \\
        --out /tmp/trace.json                 # record one traced query
    python -m repro.observability summarize /tmp/trace.json --top 8
    python -m repro.observability summarize /tmp/serve.json \\
        --request req-00003                   # one request's span tree
    python -m repro.observability validate /tmp/trace.json
    python -m repro.observability identity                # telemetry gate
    python -m repro.observability slo                     # burn-rate report

``trace`` runs one query with ``EtaGraphConfig(telemetry=True)`` and
writes the Chrome trace-event JSON (open it at https://ui.perfetto.dev);
``--jsonl`` additionally writes the JSONL event log.  ``identity``
serves the same query stream with telemetry off and on, in every memory
mode and under out-of-core UDC, and compares output digests (labels +
simulated clocks) — telemetry must observe, never perturb.  Exit status 0 when the contract holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys


def _trace(argv: list[str]) -> int:
    from repro.core.config import EtaGraphConfig
    from repro.core.session import EngineSession
    from repro.graph import datasets
    from repro.observability.export import validate_chrome_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.observability trace",
        description="Run one traced query and export the trace.",
    )
    parser.add_argument("--graph", default="slashdot")
    parser.add_argument("--problem", default="bfs",
                        choices=["bfs", "sssp", "cc", "sswp"])
    parser.add_argument("--source", type=int, default=None,
                        help="query source (default: the dataset's)")
    parser.add_argument("--out", default=None,
                        help="Chrome trace-event JSON path")
    parser.add_argument("--jsonl", default=None,
                        help="also write the JSONL event log here")
    parser.add_argument("--top", type=int, default=10,
                        help="hot spans to show in the summary")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="skip the printed summary")
    args = parser.parse_args(argv)

    weighted = args.problem in ("sssp", "sswp")
    csr, query_source = datasets.load(args.graph, weighted=weighted)
    source = args.source if args.source is not None else int(query_source)
    config = EtaGraphConfig(telemetry=True)
    with EngineSession(csr, config) as session:
        result = session.query(args.problem, source)
    trace = result.trace
    if trace is None:
        print("error: telemetry=True produced no trace", file=sys.stderr)
        return 1
    if args.out:
        trace.save_chrome(args.out)
        problems = validate_chrome_trace(trace.to_chrome_trace())
        if problems:
            print("exported trace fails schema validation:", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print(f"wrote {args.out} ({len(trace)} spans; open in Perfetto)")
    if args.jsonl:
        trace.save_jsonl(args.jsonl)
        print(f"wrote {args.jsonl}")
    if not args.quiet:
        print(trace.summary(top=args.top))
    return 0


def _summarize(argv: list[str]) -> int:
    from repro.observability.export import load_trace
    from repro.observability.summarize import render_request

    parser = argparse.ArgumentParser(
        prog="python -m repro.observability summarize",
        description="Per-query flame summary and top-k hot spans of a "
                    "trace file (Chrome JSON or JSONL); with --request, "
                    "one request's causally-ordered span tree instead.",
    )
    parser.add_argument("file")
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument(
        "--request", default=None, metavar="REQUEST_ID",
        help="render the span tree of one served request "
             "(queue -> dispatch -> attempts/hedges -> engine kernels)",
    )
    args = parser.parse_args(argv)
    trace = load_trace(args.file)
    if args.request is not None:
        text = render_request(trace, args.request)
        print(text)
        return 0 if not text.startswith("no request span") else 1
    print(trace.summary(top=args.top))
    return 0


def _slo(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability slo",
        description="Run a seeded multi-tenant serving workload with "
                    "SLO burn-rate monitors on and print the per-tenant "
                    "burn/alert report.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace-out", default=None,
        help="also write the run's Chrome trace here (the alerts track "
             "carries the slo_alert transitions)",
    )
    args = parser.parse_args(argv)

    from repro.observability.slo import render_slo_report, run_slo_demo

    service = run_slo_demo(args.seed)
    print(render_slo_report(service.slo, now_ms=service.clock_ms))
    if args.trace_out:
        service.trace().save_chrome(args.trace_out)
        print(f"\nwrote {args.trace_out}")
    # A demo without a single transition would make the report (and the
    # CI job running it) vacuous.
    return 0 if service.slo.alerts else 1


def _validate(argv: list[str]) -> int:
    import json

    from repro.observability.export import validate_chrome_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.observability validate",
        description="Check a Chrome trace-event JSON file against the "
                    "schema the exporter promises.",
    )
    parser.add_argument("file")
    args = parser.parse_args(argv)
    with open(args.file) as fh:
        obj = json.load(fh)
    problems = validate_chrome_trace(obj)
    if problems:
        print(f"{args.file}: {len(problems)} schema problems:")
        for p in problems:
            print(f"  {p}")
        return 1
    n = len(obj.get("traceEvents", []))
    print(f"{args.file}: valid Chrome trace ({n} events)")
    return 0


def _identity(argv: list[str]) -> int:
    from repro.core.config import EtaGraphConfig, MemoryMode
    from repro.core.session import EngineSession
    from repro.graph import datasets
    from repro.resilience.chaos import result_digest

    parser = argparse.ArgumentParser(
        prog="python -m repro.observability identity",
        description="Telemetry-off runs must be bit-identical to "
                    "telemetry-on runs (labels + simulated clocks).",
    )
    parser.add_argument("--graphs", nargs="+", default=["slashdot"])
    parser.add_argument("--problems", nargs="+", default=["bfs", "cc"])
    parser.add_argument("--sources", nargs="+", type=int, default=None)
    args = parser.parse_args(argv)

    failures: list[str] = []
    checks = 0
    for name in args.graphs:
        weighted = any(p in ("sssp", "sswp") for p in args.problems)
        csr, query_source = datasets.load(name, weighted=weighted)
        sources = tuple(args.sources) if args.sources else \
            (0, int(query_source))
        # Every placement, plus out-of-core UDC's shadow-table staging.
        variants = [(mode.value, {"memory_mode": mode})
                    for mode in MemoryMode]
        variants.append(("out_of_core", {"udc_mode": "out_of_core"}))
        for variant, fields in variants:
            off_cfg = EtaGraphConfig(**fields)
            on_cfg = EtaGraphConfig(**fields, telemetry=True)
            with EngineSession(csr, off_cfg) as off, \
                    EngineSession(csr, on_cfg) as on:
                for problem in args.problems:
                    for source in sources:
                        r_off = off.query(problem, source)
                        r_on = on.query(problem, source)
                        checks += 1
                        where = f"{name}/{variant}/{problem}/src={source}"
                        if r_off.trace is not None:
                            failures.append(
                                f"{where}: telemetry-off run grew a trace"
                            )
                        if r_on.trace is None or len(r_on.trace) == 0:
                            failures.append(
                                f"{where}: telemetry-on run has no trace"
                            )
                        d_off, d_on = result_digest(r_off), result_digest(r_on)
                        if d_off != d_on:
                            failures.append(
                                f"{where}: telemetry-on digest {d_on} != "
                                f"telemetry-off digest {d_off}"
                            )
    if failures:
        print(f"{len(failures)} telemetry-identity violations:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"telemetry identity holds: {checks} query pairs on "
        f"{'/'.join(args.graphs)} hash-identical with telemetry off/on"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["trace"]:
        return _trace(argv[1:])
    if argv[:1] == ["summarize"]:
        return _summarize(argv[1:])
    if argv[:1] == ["validate"]:
        return _validate(argv[1:])
    if argv[:1] == ["identity"]:
        return _identity(argv[1:])
    if argv[:1] == ["slo"]:
        return _slo(argv[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
