"""Quick fuzz sweep from the command line.

Usage::

    python -m repro.testing                     # 100 differential cases
    python -m repro.testing --cases 250 --seed 7
    python -m repro.testing --fuzz-seconds 30   # time-budgeted smoke run
    python -m repro.testing --problems bfs cc --baselines gunrock tigr
    python -m repro.testing --engine etagraph-service --cases 25
    python -m repro.testing --chaos --plans 200 # fault-injection fuzzing
    python -m repro.testing --chaos --duration 30
    python -m repro.testing digest              # fixed-op output digest

Exit status 0 when every engine matched the CPU oracle and no invariant
was violated; 1 otherwise, with per-case divergence context printed.

``--chaos`` switches to the resilience sweep
(:mod:`repro.resilience.chaos`): the same random graphs and
configurations, served through a :class:`~repro.resilience.
ResilientSession` under random seeded fault plans.  The pass criterion
becomes the resilience contract — every outcome is a correct result or a
typed ``ReproError``.

``digest`` runs the fixed-op digest of simulated outputs instead
(:mod:`repro.testing.digest`) and checks it against its golden file.
"""

from __future__ import annotations

import argparse
import sys

from repro.testing.differential import (
    ALL_BASELINES,
    ALL_PROBLEMS,
    EXTRA_ENGINE_FACTORIES,
)
from repro.testing.fuzz import run_fuzz


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Differential/metamorphic fuzz sweep: random graphs "
                    "and configurations through EtaGraph, every baseline "
                    "and the CPU oracle.  --chaos adds seeded fault "
                    "injection and checks graceful degradation instead.",
    )
    parser.add_argument("--cases", type=int, default=None,
                        help="number of differential cases (default 100 "
                             "unless --fuzz-seconds is given)")
    parser.add_argument("--fuzz-seconds", type=float, default=None,
                        help="time budget instead of a case count")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed (default 0); failures print the "
                             "case number needed to replay")
    parser.add_argument("--problems", nargs="+", default=list(ALL_PROBLEMS),
                        choices=ALL_PROBLEMS,
                        help="problems to rotate through")
    parser.add_argument("--baselines", nargs="+", default=list(ALL_BASELINES),
                        choices=ALL_BASELINES,
                        help="baseline frameworks to include")
    parser.add_argument("--engine", action="append", default=[],
                        dest="engines",
                        choices=sorted(EXTRA_ENGINE_FACTORIES),
                        help="extra serving path to fuzz alongside the "
                             "engine (repeatable): etagraph-session runs "
                             "each case on a warm resident session, "
                             "etagraph-service through the multi-tenant "
                             "serving frontend, etagraph-msbfs through a "
                             "packed multi-source wave")
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic checks")
    parser.add_argument("--chaos", action="store_true",
                        help="fuzz under random seeded fault plans through "
                             "ResilientSession (see docs/resilience.md)")
    parser.add_argument("--plans", type=int, default=None,
                        help="chaos mode: number of fault plans (default "
                             "200 unless --duration is given)")
    parser.add_argument("--duration", type=float, default=None,
                        help="chaos mode: time budget in seconds")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print the final summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["digest"]:
        from repro.testing.digest import main as digest_main

        return digest_main(argv[1:])
    args = build_parser().parse_args(argv)
    log = None if args.quiet else (lambda msg: print(msg, flush=True))

    if args.chaos:
        from repro.resilience.chaos import run_chaos

        if log:
            budget = (f"{args.duration:g}s" if args.duration is not None
                      else f"{args.plans or 200} plans")
            log(f"chaos fuzzing under seeded fault plans ({budget}, "
                f"seed {args.seed})")
        report = run_chaos(
            max_plans=args.plans,
            max_seconds=args.duration,
            seed=args.seed,
            log=log,
        )
        print(report.summary())
        return 0 if report.ok else 1

    if log:
        budget = (f"{args.fuzz_seconds:g}s"
                  if args.fuzz_seconds is not None
                  else f"{args.cases or 100} cases")
        log(f"fuzzing {'/'.join(args.problems)} against "
            f"{len(args.baselines)} baselines + oracle ({budget}, "
            f"seed {args.seed})")
    report = run_fuzz(
        max_cases=args.cases,
        max_seconds=args.fuzz_seconds,
        seed=args.seed,
        problems=tuple(args.problems),
        baselines=tuple(args.baselines),
        engines=tuple(args.engines),
        metamorphic_every=0 if args.no_metamorphic else 4,
        log=log,
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
