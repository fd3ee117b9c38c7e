"""Host wall-time benchmark of the EtaGraph reproduction.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload bfs-hot --seed 1 --seconds 20 --trace 0

Workloads: ``bfs-hot``, ``msbfs-cold``, ``serve-mix``, ``crawl-direct``
(see ``README.md`` beside this file).  Every op's answer is checked
against a CPU reference outside the op timer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, where the metrics are the ``end_to_end`` list of
``BENCHMARK.json`` with ``--trace 0`` and its ``per_layer`` list with
``--trace 1``.  The lines before it print the same metrics for people,
with sample counts, plus ``fail_ratio``.

``--trace 1`` runs the workload twice from a fresh set-up: untraced for
half of ``--seconds``, then traced over exactly the same ops.  The
simulated counts of each op must match between the two passes.  The
traced pass writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One thread everywhere; these must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, LayerTracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Ops per untraced run at the least: p90 needs ten ops beyond its rank.
MIN_OPS = 100
#: Measuring stops after this much wall time whatever the op count, so
#: a run ends within the 180 s a run is allowed.
WALL_LIMIT_S = 140.0
#: Allowed relative step around a percentile rank (see
#: :func:`check_central_classes`).
CONTINUITY = 0.5
#: Layers whose set-up self time is reported (their work moves set-up).
SETUP_LAYERS = ("core.session", "gpu.transfer", "gpu.um",
                "graph.compressed", "graph")


def nearest_rank(sorted_values: list[float], q: float) -> tuple[int, float]:
    """Nearest-rank percentile: ``(rank index, value)``."""
    rank = max(math.ceil(q * len(sorted_values)), 1) - 1
    return rank, sorted_values[rank]


class Phase:
    """Per-op wall times, op class labels and simulated counts."""

    def __init__(self):
        self.times: list[float] = []
        self.labels: list[str] = []
        self.counts: list[tuple] = []

    def __len__(self) -> int:
        return len(self.times)


class Outcome:
    """What a workload's checks found: failed ops, wrong answers and
    other self-check violations."""

    def __init__(self, workload):
        self.failed = workload.failed + len(workload.wrong)
        self.problems = workload.wrong + workload.problems


def timed_setup(make, seed: int):
    """Set the workload up ``SETUP_REPS`` times; returns the last
    instance, the median set-up time and the sample count."""
    samples: list[float] = []
    while True:
        workload = make(seed)
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - start)
        if len(samples) == workload.SETUP_REPS:
            return workload, statistics.median(samples), len(samples)
        workload.close()
        del workload


def measure(workload, count_keys, *, seconds: float, min_ops: int,
            max_ops: int | None = None, deadline: float,
            layer_tracer=None) -> Phase:
    """Run ops until their summed wall time reaches ``seconds`` and at
    least ``min_ops`` ran (at most ``max_ops``), verifying each one
    outside its timer."""
    phase = Phase()
    spent = 0.0
    i = 0
    # Objects that live through the measurement (graph, sessions,
    # reference) leave the collector's view, so the collection before
    # each op only walks what the previous op left behind.
    gc.collect()
    gc.freeze()
    while (spent < seconds or i < min_ops) \
            and (max_ops is None or i < max_ops) \
            and not workload.exhausted(i) and time.monotonic() < deadline:
        inp = workload.prepare(i)
        hits, misses = workload.memo_counts()
        gc.collect()
        if layer_tracer is not None:
            layer_tracer.op = i
        start = time.perf_counter()
        out = workload.op(inp)
        elapsed = time.perf_counter() - start
        if layer_tracer is not None:
            layer_tracer.op = -1
        counts = workload.counts(out)
        hits_after, misses_after = workload.memo_counts()
        counts["memo_hits"] = hits_after - hits
        counts["memo_misses"] = misses_after - misses
        phase.counts.append(tuple(counts[k] for k in count_keys))
        phase.times.append(elapsed)
        phase.labels.append(workload.verify(i, inp, out, counts))
        spent += elapsed
        i += 1
    gc.unfreeze()
    workload.finish()
    return phase


def check_verified(workload, phase: Phase) -> None:
    if workload.verified != len(phase):
        workload.problems.append(
            f"{workload.verified} ops verified out of {len(phase)}"
        )


def check_central_classes(workload, phase: Phase) -> None:
    """The p50 and p90 ranks must fall inside the mass of the workload's
    central op classes, not on a step between request classes that a
    small shift in the class mix would move the percentile across.  Of
    the ops within one percent of the ops (at least two) on either side
    of each rank, most must be of a central class, and all must take
    within ``CONTINUITY`` of the percentile's time."""
    if workload.CENTRAL_CLASSES is None:
        return
    n = len(phase)
    order = sorted(range(n), key=phase.times.__getitem__)
    reach = max(2, n // 100)
    for q in (0.5, 0.9):
        rank, index = nearest_rank(order, q)
        window = order[max(rank - reach, 0):rank + reach + 1]
        labels = [phase.labels[k] for k in window]
        central = sum(label in workload.CENTRAL_CLASSES for label in labels)
        value = phase.times[index]
        lo, hi = phase.times[window[0]], phase.times[window[-1]]
        if 2 * central <= len(window):
            workload.problems.append(
                f"p{round(q * 100)} rank falls among {sorted(labels)}, "
                f"mostly outside {sorted(workload.CENTRAL_CLASSES)}")
        elif hi > value * (1 + CONTINUITY) or lo < value * (1 - CONTINUITY):
            workload.problems.append(
                f"p{round(q * 100)} rank sits on a step: {lo * 1e3:.2f} to "
                f"{hi * 1e3:.2f} ms within {reach} ranks of "
                f"{value * 1e3:.2f} ms")


def untraced_run(make, count_keys, args, deadline):
    workload, setup_s, setup_reps = timed_setup(make, args.seed)
    workload.reference_setup()
    phase = measure(workload, count_keys, seconds=args.seconds,
                    min_ops=MIN_OPS, deadline=deadline)
    check_verified(workload, phase)
    check_central_classes(workload, phase)
    times = sorted(phase.times)
    n = len(times)
    rank90, p90 = nearest_rank(times, 0.9)
    if n - 1 - rank90 < 10:
        workload.problems.append(
            f"only {n - 1 - rank90} ops beyond the p90 rank of {n} ops"
        )
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(times),
        "op_ms_p50": nearest_rank(times, 0.5)[1] * 1e3,
        "op_ms_p90": p90 * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {setup_reps} set-ups",
        "ops_per_s": f"{n} ops in {sum(times):.3f} s of op time",
        "op_ms_p50": f"{n} ops",
        "op_ms_p90": f"{n} ops, {n - 1 - rank90} beyond",
    }
    workload.close()
    return [Outcome(workload)], [phase], metrics, notes


def traced_run(make, count_keys, args, deadline):
    plain = make(args.seed)
    plain.setup()
    plain.reference_setup()
    base = measure(plain, count_keys, seconds=args.seconds / 2, min_ops=10,
                   deadline=deadline)
    check_verified(plain, base)
    plain.close()
    # Keep the outcome, free the rest before the traced set-up.
    untraced = Outcome(plain)
    del plain
    gc.collect()

    layer_tracer = LayerTracer()
    layer_tracer.install()
    try:
        workload = make(args.seed)
        workload.setup()
        workload.reference_setup()
        phase = measure(workload, count_keys, seconds=0.0, min_ops=len(base),
                        max_ops=len(base), deadline=deadline,
                        layer_tracer=layer_tracer)
    finally:
        layer_tracer.uninstall()
    check_verified(workload, phase)
    problems = workload.problems
    if phase.counts != base.counts:
        differ = [i for i, (a, b) in enumerate(zip(base.counts, phase.counts))
                  if a != b]
        problems.append(
            f"simulated counts differ between untraced and traced ops "
            f"(ops {len(base)} vs {len(phase)}; first differing: "
            f"{differ[:5]})"
        )
    for name in workload.EXERCISED:
        if layer_tracer.calls(name) == 0:
            problems.append(f"{name} recorded no call in timed ops")
    for name in workload.BYPASSED:
        if layer_tracer.calls(name):
            problems.append(f"{name} recorded {layer_tracer.calls(name)} "
                            f"calls in timed ops, expected none")

    n = len(phase)
    op_s = sum(phase.times)
    totals = layer_tracer.layer_totals()
    self_s = sum(t["self_s"] for t in totals.values())
    root_s = layer_tracer.root_seconds()
    if abs(self_s - root_s) > 1e-6 * max(root_s, 1.0):
        problems.append(f"layer self times sum to {self_s} s, outermost "
                        f"spans to {root_s} s")
    if root_s > op_s:
        problems.append(f"spans cover {root_s} s, more than the op time "
                        f"{op_s} s")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = totals[layer]["calls"] / n
        metrics[f"{layer}.self_ms_per_op"] = totals[layer]["self_s"] * 1e3 / n
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.setup_self_ms"] = totals[layer]["setup_self_s"] * 1e3
    summed = dict(zip(count_keys, map(sum, zip(*phase.counts))))
    memo_lookups = summed["memo_hits"] + summed["memo_misses"]
    metrics.update({
        "core.session.memo_hit_ratio":
            summed["memo_hits"] / memo_lookups if memo_lookups else 0.0,
        "core.session.memo_mb": workload.memo_bytes() / 2**20,
        "gpu.cache.accesses_per_op": summed["l1_accesses"] / n,
        "gpu.cache.l1_hit_ratio": summed["l1_hits"] / summed["l1_accesses"],
        "gpu.cache.l2_hit_ratio": summed["l2_hits"] / summed["l2_accesses"],
        "gpu.transfer.direct_bytes_per_op": layer_tracer.values.get(
            "gpu.transfer/direct_access_read", 0.0) / n,
        "gpu.um.migrated_bytes_per_op": summed["migrated_bytes"] / n,
        "serving.shed_ratio": workload.sheds / n,
        "engine.edges_per_op": summed["edges"] / n,
        "engine.iterations_per_op": summed["iterations"] / n,
        "trace.unattributed_ms_per_op": (op_s - root_s) * 1e3 / n,
        "trace.overhead_ratio": (op_s / n) / (sum(base.times) / len(base)),
    })
    workload.close()
    layer_tracer.write(
        HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    notes = {"trace.overhead_ratio":
             f"{n} traced ops against the same {len(base)} untraced"}
    return [untraced, Outcome(workload)], [base, phase], metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: program sources not found under {src}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + WALL_LIMIT_S
    if args.trace:
        done, phases, values, notes = traced_run(
            make, workloads.COUNT_KEYS, args, deadline)
        declared = spec["per_layer"]
    else:
        done, phases, values, notes = untraced_run(
            make, workloads.COUNT_KEYS, args, deadline)
        declared = spec["end_to_end"]

    attempted = sum(len(p) for p in phases)
    failed = sum(o.failed for o in done)
    problems = [p for o in done for p in o.problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        note = notes.get(name)
        print(f"{args.workload}  {name:<36} {metric['value']:>14.6g} "
              f"{metric['unit']:<6}" + (f"  ({note})" if note else ""))
    print(f"{args.workload}  {'fail_ratio':<36} {failed / attempted:>14.6g} "
          f"ratio   ({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
