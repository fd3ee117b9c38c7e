"""Compare two saved reproduction runs (JSON report directories).

``python -m repro.bench all --json-dir runs/A`` twice (e.g. before and
after a model change) and then::

    python -c "from repro.bench.compare import compare_dirs, render; \
               print(render(compare_dirs('runs/A', 'runs/B')))"

flags every numeric leaf whose relative drift exceeds a tolerance —
mechanical regression checking for the *shapes*, complementing the bench
suite's hard assertions.  The baseline sets what must be there: a
baseline report with no same-named candidate file, or a numeric
baseline leaf absent from the candidate report, is a drift that reads
``missing``.  Extra candidate reports and leaves are ignored.

Two tolerance regimes exist.  Ordinary leaves are deterministic
simulator outputs and get the tight ``rel_tolerance`` in both
directions.  Leaves whose key starts with ``wall_`` are **host
wall-clock** measurements from the harnesses (``perf``, ``msbfs``,
``compress``, ``serve``) — noisy across machines, and only bad in one
direction — so they get the generous ``wall_tolerance`` and are flagged
only when they *regress* (throughput ``wall_*_per_sec`` falling, any
other ``wall_*`` time rising).  A faster candidate never fails the
gate.

``bits_*`` leaves (``bits_per_edge``, ``bits_per_node`` — compression
density from the ``compress`` harness and Table I) are deterministic
but also one-sided: a *denser* encoding is an improvement, so they use
the tight ``rel_tolerance`` and are flagged only when they **rise**.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench.export import load_report_dict
from repro.utils.tables import render_table


@dataclass(frozen=True)
class Drift:
    """One numeric leaf that moved between runs, or went missing.

    ``after is None`` marks a leaf (or, with ``before`` also ``None`` and
    ``path`` the file name, a whole report) the candidate lacks.
    """

    experiment: str
    path: str
    before: float | None
    after: float | None

    @property
    def rel_change(self) -> float:
        """Relative drift; infinite when a zero metric became non-zero
        or the candidate lacks the leaf (render such drifts as ``0 → x``
        or ``missing``, not as a percentage)."""
        if self.after is None:
            return float("inf")
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return (self.after - self.before) / abs(self.before)

    @property
    def change_text(self) -> str:
        """Human-readable drift: a percentage when well-defined, an
        explicit ``0 → x`` transition when the baseline was zero, and
        ``missing`` when the candidate lacks the leaf."""
        if self.after is None:
            return "missing"
        if self.before == 0:
            return f"0 → {self.after:g}" if self.after else "unchanged"
        return f"{100 * self.rel_change:+.1f}%"


def _walk(value, path=""):
    """Yield (path, leaf) for every numeric leaf."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path, float(value)
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _walk(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _walk(v, f"{path}[{i}]")


def is_wall_metric(path: str) -> bool:
    """Whether a leaf path is a host wall-clock measurement."""
    return path.rsplit(".", 1)[-1].startswith("wall_")


def is_bits_metric(path: str) -> bool:
    """Whether a leaf path is a compression-density measurement
    (``bits_per_edge`` / ``bits_per_node`` style)."""
    return path.rsplit(".", 1)[-1].startswith("bits_")


def _wall_regressed(path: str, before: float, after: float,
                    tolerance: float) -> bool:
    """Direction-aware gate for wall metrics: throughputs may not fall,
    times may not rise, each by more than ``tolerance`` (relative)."""
    denom = max(abs(before), 1e-12)
    if "per_sec" in path.rsplit(".", 1)[-1]:
        return (before - after) / denom > tolerance
    return (after - before) / denom > tolerance


def compare_reports(
    before: dict, after: dict, *, rel_tolerance: float = 0.05,
    wall_tolerance: float = 0.75,
) -> list[Drift]:
    """Numeric baseline leaves that drifted beyond tolerance —
    ``rel_tolerance`` (symmetric) for deterministic leaves,
    ``wall_tolerance`` (regressions only) for ``wall_*`` leaves — or
    that the candidate lacks."""
    name = before.get("experiment", "?")
    b = dict(_walk(before.get("data", {})))
    a = dict(_walk(after.get("data", {})))
    drifts = []
    for path in sorted(b):
        x, y = b[path], a.get(path)
        if y is None:
            drifts.append(
                Drift(experiment=name, path=path, before=x, after=None)
            )
            continue
        if is_wall_metric(path):
            if _wall_regressed(path, x, y, wall_tolerance):
                drifts.append(
                    Drift(experiment=name, path=path, before=x, after=y)
                )
            continue
        if is_bits_metric(path):
            # Direction-aware but tight: the encoding is deterministic,
            # and only *losing* density is a regression.
            if (y - x) / max(abs(x), 1e-12) > rel_tolerance:
                drifts.append(
                    Drift(experiment=name, path=path, before=x, after=y)
                )
            continue
        denom = max(abs(x), 1e-12)
        if abs(y - x) / denom > rel_tolerance:
            drifts.append(Drift(experiment=name, path=path, before=x, after=y))
    return drifts


def compare_dirs(
    dir_a: str | Path, dir_b: str | Path, *, rel_tolerance: float = 0.05,
    wall_tolerance: float = 0.75,
) -> list[Drift]:
    """Compare every ``<experiment>.json`` in ``dir_a`` (the baseline)
    with its same-named file in ``dir_b``; a missing file is a drift."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    drifts: list[Drift] = []
    for file_a in sorted(dir_a.glob("*.json")):
        before = load_report_dict(file_a)
        file_b = dir_b / file_a.name
        if not file_b.exists():
            drifts.append(Drift(
                experiment=before.get("experiment", "?"), path=file_a.name,
                before=None, after=None,
            ))
            continue
        drifts.extend(compare_reports(
            before, load_report_dict(file_b),
            rel_tolerance=rel_tolerance, wall_tolerance=wall_tolerance,
        ))
    return drifts


def _number(value: float | None) -> str:
    return "-" if value is None else f"{value:g}"


def render(drifts: list[Drift]) -> str:
    """Human-readable drift summary."""
    if not drifts:
        return "no drift beyond tolerance"
    rows = [
        [d.experiment, d.path, _number(d.before), _number(d.after),
         d.change_text]
        for d in drifts
    ]
    return render_table(
        ["experiment", "metric", "before", "after", "change"], rows,
        title=f"{len(drifts)} drifted metrics",
    )
