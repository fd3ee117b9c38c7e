"""Fixed-op digest of the simulator's outputs.

Runs a fixed set of operations through the public API and hashes
everything each one simulates: its answer, ``total_ms`` and the other
simulated clocks, the per-iteration statistics and the profiler's
counters.  A change that only makes the simulator faster must leave the
digest unchanged.

Two kinds of entry.  The graph entries pin the set-up every op rests
on, built with ``spec.build()`` (never ``datasets.load``, whose on-disk
cache could serve a stale build):

* ``graphs/<name>``: ``row_offsets`` and ``column_indices`` of each of
  the seven Table II surrogates (``datasets.ALL_DATASETS``);
* ``codec/uk-2005``: the compressed ``uk-2005`` topology's payload,
  ``row_byte_offsets`` and ``edge_byte_offsets``.

The op entries come in six shapes:

* ``bfs-replay``: BFS from four ``com-orkut`` sources on one session,
  then the same four again (the frontier memo answers the replays);
* ``wave``: one 64-lane multi-source BFS wave on ``com-orkut``;
* ``serve``: a fixed mix of visit, neighborhood, shortest-path and
  stats requests through a two-lane ``TraversalService`` on
  ``livejournal``;
* ``pagerank``: one-shot delta PageRank on ``livejournal``;
* ``baselines/<framework>/<problem>``: BFS and SSSP through each
  Table III framework on ``livejournal`` (SSSP on weights from
  ``attach_weights`` with a fixed seed), plus CuSha's ``cw``, ``vwc``
  and ``best`` methods as ``cusha-<method>``;
* ``crawl``: a BFS on compressed ``uk-2005`` under direct access, then
  a BFS that stops at a target up to 12 hops away.

Usage::

    python -m repro.testing digest            # check against the golden
    python -m repro.testing digest --write    # regenerate the golden

The golden is ``tests/golden/sim_digest.json``.  Exit status 0 when
every op's hash matches it, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN = (Path(__file__).resolve().parents[3]
          / "tests" / "golden" / "sim_digest.json")

#: Result fields that hold host-side objects, not simulated outputs.
_SKIP_FIELDS = {"config", "trace", "timeline", "request"}


def _canonical(value):
    """A JSON-able form of a simulated output: floats as exact hex,
    arrays as dtype, shape and a hash of their bytes."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return ["ndarray", data.dtype.str, list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.name not in _SKIP_FIELDS}
    raise TypeError(f"cannot digest a {type(value).__name__}")


def _hash(record) -> str:
    text = json.dumps(_canonical(record), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _sources(graph, count: int, seed: int) -> list[int]:
    candidates = np.flatnonzero(graph.out_degrees() > 0)
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.choice(candidates, count, replace=False)]


def run_ops() -> dict[str, str]:
    """Run every op; returns ``{op name: hash}`` in run order."""
    from repro import EngineSession, EtaGraphConfig, GTX_1080TI, MemoryMode
    from repro.baselines import get_framework
    from repro.baselines.cusha import CuShaFramework
    from repro.core import msbfs
    from repro.core.pagerank import delta_pagerank
    from repro.graph import compressed, datasets
    from repro.graph.weights import attach_weights
    from repro.serving import (
        NeighborhoodRequest,
        ShortestPathRequest,
        StatsRequest,
        TraversalService,
        VisitRequest,
    )

    device = GTX_1080TI.with_capacity(datasets.scaled_device_capacity())
    hashes: dict[str, str] = {}

    # The op passes keep three graphs.  Build them after the others, and
    # drop every other graph once hashed, so no build runs beside a
    # graph it does not need.
    keep = ("com-orkut", "livejournal", "uk-2005")
    kept = {}
    for name in sorted(datasets.ALL_DATASETS, key=lambda n: n in keep):
        graph = datasets.get_spec(name).build()
        hashes[f"graphs/{name}"] = _hash({
            "row_offsets": graph.row_offsets,
            "column_indices": graph.column_indices,
        })
        if name in keep:
            kept[name] = graph
        del graph
    crawl = kept["uk-2005"]
    topology = compressed.compress(crawl)
    hashes["codec/uk-2005"] = _hash({
        "payload": topology.payload,
        "row_byte_offsets": topology.row_byte_offsets,
        "edge_byte_offsets": topology.edge_byte_offsets,
    })

    orkut = kept["com-orkut"]
    sources = _sources(orkut, 4, seed=1)
    with EngineSession(orkut, device=device) as session:
        for rep in range(2):
            for source in sources:
                hashes[f"bfs-replay/{rep}/{source}"] = _hash(
                    session.query("bfs", source))
    with EngineSession(orkut, device=device) as session:
        hashes["wave"] = _hash(
            msbfs.run_wave(session, _sources(orkut, 64, seed=2)))

    journal = kept["livejournal"]
    a, b, c, d = _sources(journal, 4, seed=3)
    requests = [
        VisitRequest(source=a), VisitRequest(source=b, target=d),
        NeighborhoodRequest(source=c, hops=2),
        ShortestPathRequest(source=a, target=d),
        StatsRequest(), VisitRequest(source=a),
    ]
    with TraversalService(journal, device=device, pool_size=2) as service:
        for i, request in enumerate(requests):
            hashes[f"serve/{i}/{request.endpoint}"] = _hash(
                service.call(request))
    hashes["pagerank"] = _hash(delta_pagerank(journal, device=device))

    frameworks = {name: get_framework(name, device) for name in (
        "cusha", "gunrock", "tigr", "gts", "simple-vc", "cpu-ligra")}
    for method in ("cw", "vwc", "best"):
        frameworks[f"cusha-{method}"] = CuShaFramework(device, method)
    weighted = attach_weights(journal, seed=5)
    source = _sources(journal, 1, seed=5)[0]
    for name, framework in frameworks.items():
        hashes[f"baselines/{name}/bfs"] = _hash(
            framework.run(journal, "bfs", source))
        hashes[f"baselines/{name}/sssp"] = _hash(
            framework.run(weighted, "sssp", source))

    source = _sources(crawl, 1, seed=4)[0]
    with EngineSession(
        topology,
        EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS),
        device=device,
    ) as session:
        full = session.query("bfs", source)
        hashes["crawl/full"] = _hash(full)
        levels = full.labels[np.isfinite(full.labels)]
        hops = min(12, int(levels.max()))
        target = int(np.flatnonzero(full.labels == hops)[0])
        hashes["crawl/target"] = _hash(
            session.query("bfs", source, target=target))
    return hashes


def changed_ops(hashes: dict[str, str], golden: dict) -> list[str]:
    """Names of the ops whose hash differs from (or is missing in)
    the golden's."""
    ops = golden["ops"]
    return sorted(name for name in ops.keys() | hashes.keys()
                  if ops.get(name) != hashes.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing digest",
        description="Hash the simulated outputs of a fixed set of ops "
                    "and check them against the golden digest.",
    )
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help=f"golden file (default {GOLDEN.name} under "
                             "tests/golden)")
    parser.add_argument("--write", action="store_true",
                        help="write the digest to the golden file instead "
                             "of checking it")
    args = parser.parse_args(argv)

    hashes = run_ops()
    combined = hashlib.sha256(
        json.dumps(hashes, sort_keys=True).encode()).hexdigest()
    if args.write:
        args.golden.write_text(json.dumps(
            {"digest": combined, "ops": hashes}, indent=2) + "\n")
        print(f"wrote {args.golden}: {combined}")
        return 0

    golden = json.loads(args.golden.read_text())
    changed = changed_ops(hashes, golden)
    for name in changed:
        print(f"changed: {name}")
    verdict = "DIFFERS from" if changed else "matches"
    print(f"digest {combined} {verdict} the golden {golden['digest']}")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
