"""CLI for regenerating paper artifacts and running the harnesses.

Usage::

    python -m repro.bench               # list experiments
    python -m repro.bench table3        # run one (full datasets)
    python -m repro.bench all --quick   # every paper artifact, small datasets
    python -m repro.bench all --jobs 4  # same results, process-parallel
    python -m repro.bench perf          # simulator wall-clock harness
    python -m repro.bench serve         # closed-loop serving load bench
    python -m repro.bench msbfs         # MSBFS wave vs sequential batch
    python -m repro.bench compress      # compressed topology + placements
    python -m repro.bench perf --quick --json-dir D   # save D/perf.json
    python -m repro.bench compare A B   # diff two --json-dir outputs
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.experiments import ALL_EXPERIMENTS, HARNESSES, REPORTS
from repro.bench.runner import run_experiments


def _compare(argv: list[str]) -> int:
    """``compare A B``: diff two saved report directories; exit 1 on
    drift beyond tolerance so CI can gate on it."""
    from repro.bench.compare import compare_dirs, render

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff two --json-dir outputs; nonzero exit on drift.",
    )
    parser.add_argument("baseline", help="directory with baseline reports")
    parser.add_argument("candidate", help="directory with new reports")
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative drift tolerance (default 0.05)",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=0.75,
        help="relative tolerance for wall_* (host wall-clock) metrics; "
        "only *regressions* are flagged (default 0.75)",
    )
    args = parser.parse_args(argv)
    from pathlib import Path

    for label, d in (("baseline", args.baseline), ("candidate", args.candidate)):
        if not list(Path(d).glob("*.json")):
            print(f"{label} directory {d!r} has no reports", file=sys.stderr)
            return 2
    drifts = compare_dirs(
        args.baseline, args.candidate, rel_tolerance=args.tolerance,
        wall_tolerance=args.wall_tolerance,
    )
    print(render(drifts))
    return 1 if drifts else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures, or run "
        "a wall-clock harness.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"one of: {', '.join(sorted(REPORTS))}, 'all' (the paper "
        "artifacts), or 'compare A B'",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="restrict to the small datasets (fast)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="run experiments over N worker processes (same output as "
        "serial, merged in order)",
    )
    parser.add_argument(
        "--json-dir", default=None,
        help="also save each report's data as JSON into this directory",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="record a Chrome trace-event file per EtaGraph cell into "
        "this directory (including O.O.M/ERR cells); perf writes one "
        "per graph",
    )
    args = parser.parse_args(argv)

    if args.experiment is None:
        print("available experiments:")
        for name in sorted(ALL_EXPERIMENTS):
            print(f"  {name}")
        print("harnesses (host wall-clock; not part of 'all'):")
        for name in HARNESSES:
            print(f"  {name}")
        return 0

    if args.experiment == "all":
        names = sorted(ALL_EXPERIMENTS)
    elif args.experiment in REPORTS:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    out_dir = None
    if args.json_dir:
        from pathlib import Path

        out_dir = Path(args.json_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    for run in run_experiments(
        names, quick=args.quick, jobs=args.jobs, trace_dir=args.trace_dir,
    ):
        print(run.text)
        print(f"[{run.name} completed in {run.elapsed_s:.1f}s]\n")
        if out_dir is not None:
            # Same bytes as export.save_report on the live report.
            (out_dir / f"{run.name}.json").write_text(
                json.dumps(run.report_dict, indent=2)
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
