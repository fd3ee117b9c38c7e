"""Outside-in layer tracer: host wall time of calls into each layer.

The program has no host-clock spans of its own, so the benchmark records
them from outside.  :meth:`LayerTracer.install` rebinds each public
function in :data:`TRACED_CALLS` to a timing wrapper.  A function is
rebound in its defining module and in every ``repro`` module that copied
it with ``from ... import``; a method is rebound on its class.  Every
call then records one span (name, start, end, parent span, op id).
Spans stay in memory until the run ends.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans.  Within one op, the self times of all
layers plus the time outside any span (``trace.unattributed``) add up to
the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _bytes_read(result) -> float:
    return float(result[1])


#: ``(layer, defining module, function or Class.method, value)`` for
#: every timed call.  ``value``, when set, extracts a simulated quantity
#: from the call's return value, summed over the op's calls.
TRACED_CALLS = (
    ("gpu.cache", "repro.gpu.cache", "CacheHierarchy.access", None),
    ("gpu.traceplan", "repro.gpu.traceplan", "build_vertex_trace", None),
    ("core.msbfs", "repro.core.msbfs", "run_wave", None),
    ("core.session", "repro.core.session", "EngineSession.query", None),
    ("core.session", "repro.core.session", "EngineSession.__init__", None),
    ("gpu.kernel", "repro.gpu.kernel", "simulate_vertex_kernel", None),
    ("gpu.kernel", "repro.gpu.kernel", "simulate_streaming_kernel", None),
    ("core.udc", "repro.core.udc", "degree_cut", None),
    ("core.smp", "repro.core.smp", "plan_prefetch", None),
    ("utils.sorting", "repro.utils.sorting", "sorted_unique", None),
    ("utils.ragged", "repro.utils.ragged", "ragged_gather_indices", None),
    ("gpu.transfer", "repro.gpu.transfer", "direct_access_read", _bytes_read),
    ("gpu.transfer", "repro.gpu.transfer", "h2d_copy", None),
    ("gpu.transfer", "repro.gpu.transfer", "d2h_copy", None),
    ("gpu.um", "repro.gpu.um", "UnifiedMemoryManager.touch_byte_ranges", None),
    ("gpu.um", "repro.gpu.um", "UnifiedMemoryManager.prefetch", None),
    ("graph.compressed", "repro.graph.compressed", "compress", None),
    ("graph.compressed", "repro.graph.compressed",
     "CompressedCSRGraph.edge_byte_ranges", None),
    ("graph", "repro.graph.datasets", "DatasetSpec.build", None),
    ("serving.service", "repro.serving.service", "TraversalService.call", None),
    ("serving.admission", "repro.serving.admission", "AdmissionQueue.submit",
     None),
    ("serving.admission", "repro.serving.admission", "AdmissionQueue.pop",
     None),
    ("serving.pool", "repro.serving.pool", "SessionPool.checkout", None),
    ("serving.pool", "repro.serving.pool", "SessionPool.checkout_lane", None),
    ("serving.pool", "repro.serving.pool", "SessionPool.checkin", None),
    ("serving.health", "repro.serving.health", "HealthPlane.observe", None),
    ("serving.health", "repro.serving.health", "HealthPlane.on_dispatch",
     None),
    ("serving.health", "repro.serving.health", "HealthPlane.record_latency",
     None),
    ("serving.health", "repro.serving.health", "HealthPlane.suspect", None),
    ("observability.slo", "repro.observability.slo", "SLOMonitor.record",
     None),
    ("observability.recorder", "repro.observability.recorder",
     "FlightRecorder.observe_response", None),
    ("observability.recorder", "repro.observability.recorder",
     "FlightRecorder.observe_events", None),
)

#: Layers in report order (first appearance in :data:`TRACED_CALLS`).
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TRACED_CALLS))

# Span fields, stored as lists for low recording cost.
_NAME, _START, _END, _PARENT, _OP = range(5)


class LayerTracer:
    """Records a span per call into a traced function while installed."""

    def __init__(self):
        #: ``[name, start_s, end_s, parent index or -1, op id or -1]``;
        #: op id -1 marks set-up, outside every timed op.
        self.spans: list[list] = []
        #: Span name -> summed ``value`` of calls made inside timed ops.
        self.values: dict[str, float] = defaultdict(float)
        #: The op being timed; set by the caller around each op.
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, value):
        spans, stack, values = self.spans, self._stack, self.values
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if value is not None and span[_OP] >= 0:
                values[name] += value(result)
            return result

        return functools.wraps(fn)(traced)

    def _bind(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind every traced call; :meth:`uninstall` undoes it."""
        for layer, module_name, qualname, value in TRACED_CALLS:
            module = importlib.import_module(module_name)
            name = f"{layer}/{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._bind(owner, attr,
                           self._wrap(name, owner.__dict__[attr], value))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, value)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    self._bind(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its child spans' durations (s)."""
        spans = self.spans
        own = [s[_END] - s[_START] for s in spans]
        for s in spans:
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def calls(self, name: str) -> int:
        """Calls to span ``name`` made inside timed ops."""
        return sum(1 for s in self.spans if s[_NAME] == name and s[_OP] >= 0)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds inside timed ops, and self
        seconds during set-up."""
        totals = {layer: {"calls": 0, "self_s": 0.0, "setup_self_s": 0.0}
                  for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            layer = totals[span[_NAME].partition("/")[0]]
            if span[_OP] >= 0:
                layer["calls"] += 1
                layer["self_s"] += own
            else:
                layer["setup_self_s"] += own
        return totals

    def root_seconds(self) -> float:
        """Summed duration of outermost spans inside timed ops."""
        return sum(s[_END] - s[_START] for s in self.spans
                   if s[_PARENT] < 0 and s[_OP] >= 0)

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
