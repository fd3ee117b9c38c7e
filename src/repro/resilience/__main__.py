"""Resilience CLI: chaos sweeps and the no-fault bit-identity gate.

Usage::

    python -m repro.resilience chaos --plans 200 --seed 7
    python -m repro.resilience chaos --duration 30        # time budget
    python -m repro.resilience identity                   # canonical graphs
    python -m repro.resilience identity --graphs slashdot --sources 0 42

``identity`` serves the same query stream through a bare
:class:`~repro.core.session.EngineSession` and a no-fault
:class:`~repro.resilience.ResilientSession`, in every memory mode and
under out-of-core UDC, and compares output hashes (labels + simulated
clocks); any divergence is a bug in the wrapper.
Exit status 0 when the contract holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys


def _chaos(argv: list[str]) -> int:
    from repro.resilience.chaos import run_chaos

    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience chaos",
        description="Differential fuzzing under random seeded fault plans.",
    )
    parser.add_argument("--plans", type=int, default=None,
                        help="number of fault plans (default 200 unless "
                             "--duration is given)")
    parser.add_argument("--duration", type=float, default=None,
                        help="time budget in seconds instead of a plan count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries-per-plan", type=int, default=2)
    parser.add_argument("--trace-dir", default=None,
                        help="write a Chrome trace for every query that "
                             "ended in a typed error or a violation")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    report = run_chaos(
        max_plans=args.plans,
        max_seconds=args.duration,
        seed=args.seed,
        queries_per_plan=args.queries_per_plan,
        log=log,
        trace_dir=args.trace_dir,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _identity(argv: list[str]) -> int:
    from repro.core.config import EtaGraphConfig, MemoryMode
    from repro.graph import datasets
    from repro.resilience.chaos import check_bit_identity

    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience identity",
        description="No-fault bit-identity: ResilientSession output hashes "
                    "must equal EngineSession's on the canonical graphs.",
    )
    parser.add_argument("--graphs", nargs="+", default=["slashdot"],
                        help="dataset names (default: slashdot)")
    parser.add_argument("--problems", nargs="+",
                        default=["bfs", "sssp", "cc"])
    parser.add_argument("--sources", nargs="+", type=int, default=None,
                        help="query sources (default: the dataset's query "
                             "source plus vertex 0)")
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
            mismatches = check_bit_identity(
                csr, tuple(args.problems), sources, EtaGraphConfig(**fields),
            )
            checks += len(args.problems) * len(sources)
            failures += [f"{name}/{variant}: {m}" for m in mismatches]
    if failures:
        print(f"{len(failures)} bit-identity violations:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"bit-identity holds: {checks} query pairs on "
        f"{'/'.join(args.graphs)} hash-identical across "
        "EngineSession and ResilientSession"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["chaos"]:
        return _chaos(argv[1:])
    if argv[:1] == ["identity"]:
        return _identity(argv[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
