"""Traced mode: timing spans around the calls into each layer.

Only the traced run installs these wrappers.  Each wrapper replaces a
function where its caller looks it up (a class attribute for methods, the
calling module's global for functions — e.g.
``repro.core.session.reconstruct_parents``, not only
``repro.tracing.correlation``) and records one span per call: name,
start, end, and the span that was open on the same thread when it began.
Spans live in per-thread columnar buffers in memory and are written out
once the run ends.  A layer's time is its spans' *self* time: duration
minus the part of the interval covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

#: (metric name, unit) in the order the traced run prints them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("frameworks.load_ms", "ms"),
    ("frameworks.predict_ms", "ms"),
    ("frameworks.predict_calls", "count"),
    ("sim.kernel_launches", "count"),
    ("sim.launch_kernel_ms", "ms"),
    ("sim.cupti_flush_ms", "ms"),
    ("core.profile_ms.M", "ms"),
    ("core.profile_ms.ML", "ms"),
    ("core.profile_ms.MLG", "ms"),
    ("core.profile_ms.MLG_metrics", "ms"),
    ("core.retry_ratio", "ratio"),
    ("core.convert_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.store_put_ms", "ms"),
    ("core.store_get_ms", "ms"),
    ("core.store_hit_ratio", "ratio"),
    ("core.store_bytes", "bytes"),
    ("tracing.publish_many_ms", "ms"),
    ("tracing.publish_many_spans", "count"),
    ("tracing.publish_rows_ms", "ms"),
    ("tracing.publish_rows_rows", "count"),
    ("tracing.index_advance_ms", "ms"),
    ("tracing.index_advance_calls", "count"),
    ("tracing.reconstruct_ms", "ms"),
    ("tracing.correlate_ms", "ms"),
    ("tracing.load_trace_ms", "ms"),
    ("tracing.trace_bytes", "bytes"),
    ("tracing.chrome_ms", "ms"),
    ("analysis.report_ms", "ms"),
    ("analysis.diff_ms", "ms"),
    ("analysis.profile_from_trace_ms", "ms"),
    ("analysis.load_profile_json_ms", "ms"),
    ("insights.analyze_ms", "ms"),
    ("insights.rules_run", "count"),
    ("insights.rules_skipped", "count"),
    ("insights.live_refresh_ms", "ms"),
    ("insights.live_refreshes", "count"),
    ("insights.rows_per_refresh", "count"),
    ("insights.refreshed_rule_ratio", "ratio"),
    ("live.final_ms", "ms"),
    ("live.lateness_p90_ms", "ms"),
    ("live.lateness_max_ms", "ms"),
    ("overhead.ops_per_s", "1/s"),
    ("overhead.op_p50_ms", "ms"),
    ("overhead.op_p90_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
)


class _Buffer:
    """One thread's spans, columnar; ``parent`` indexes the same buffer."""

    __slots__ = ("name", "start", "end", "parent", "attrs", "stack")

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.attrs: dict[int, dict[str, Any]] = {}
        self.stack: list[int] = []


class Spans:
    """All recorded spans, merged across threads (global row indices)."""

    def __init__(self, names, name, start, end, parent, attrs) -> None:
        self.names: list[str] = names
        self.name: list[int] = name
        self.start: list[int] = start
        self.end: list[int] = end
        self.parent: list[int] = parent
        self.attrs: dict[int, dict[str, Any]] = attrs

    def __len__(self) -> int:
        return len(self.start)

    def to_json(self) -> str:
        return json.dumps({
            "names": self.names, "name": self.name, "start_ns": self.start,
            "end_ns": self.end, "parent": self.parent,
            "attrs": {str(k): v for k, v in self.attrs.items()},
        })


class Recorder:
    """Installs the timing wrappers and collects their spans."""

    def __init__(self) -> None:
        #: Cleared while the benchmark checks outputs.
        self.enabled = True
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``before(args, kwargs) -> (args, kwargs, state)`` may rewrite the
        arguments (e.g. count an iterable as the callee drains it);
        ``after(args, kwargs, result, state) -> dict`` attaches counts to
        the span, outside its timed interval.
        """
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self._names):
            self._names.append(name)
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            buf = recorder._buffer()
            stack = buf.stack
            row = len(buf.start)
            buf.name.append(code)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(row)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[row] = clock()
                stack.pop()
            if after is not None:
                buf.attrs[row] = after(args, kwargs, result, state)
            return result

        return wrapper

    def patch(self, target: str, attr: str, name: str, **hooks) -> None:
        """Wrap ``target.attr``; ``target`` is ``module`` or ``module:Class``."""
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
            original = vars(owner)[attr]  # defined here, not inherited
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **hooks))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> Spans:
        names = list(self._names)
        name, start, end, parent = [], [], [], []
        attrs: dict[int, dict[str, Any]] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            base = len(start)
            name.extend(buf.name)
            start.extend(buf.start)
            end.extend(buf.end)
            parent.extend(p + base if p >= 0 else -1 for p in buf.parent)
            attrs.update((row + base, a) for row, a in buf.attrs.items())
        return Spans(names, name, start, end, parent, attrs)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), in the spans' own time unit."""
    children: dict[int, list[int]] = defaultdict(list)
    for row, p in enumerate(parent):
        if p >= 0:
            children[p].append(row)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


# -- the layer boundaries -------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _profile_attrs(args, kwargs, run, _state):
    from repro.core.session import ProfilingConfig

    config = _arg(args, kwargs, 3, "config") or ProfilingConfig()
    level = config.levels.label.replace("/", "")
    if config.metrics and config.gpu_profiling:
        level += "_metrics"
    return {"level": level, "retry": bool(run.was_serialized_retry)}


def _count_iterable(args, kwargs):
    box = [0]

    def counted(items):
        for item in items:
            box[0] += 1
            yield item

    return (args[0], counted(args[1]), *args[2:]), kwargs, box


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _store_get_attrs(args, kwargs, result, _state):
    store = args[0]
    hit = result is not None
    nbytes = _file_bytes(store.path_for(*args[1:], **kwargs)) if hit else 0
    return {"hit": hit, "bytes": nbytes}


def _analyze_attrs(args, kwargs, report, _state):
    engine = args[0]
    refreshed = getattr(engine, "last_refreshed", None)
    run = (len(refreshed) if refreshed is not None
           else len(engine.rules) - len(report.skipped_rules))
    return {"run": run, "skipped": len(report.skipped_rules)}


def _refresh_attrs(args, kwargs, update, _state):
    monitor = args[0]
    applicable = len(monitor.engine.rules) - len(update.report.skipped_rules)
    return {"rows": update.new_rows, "refreshed": len(update.refreshed_rules),
            "rules": applicable}


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    p = recorder.patch
    p("repro.frameworks.base:Framework", "load", "frameworks.load")
    p("repro.frameworks.base:Framework", "predict", "frameworks.predict")
    p("repro.sim.cuda:CudaRuntime", "launch_kernel", "sim.launch_kernel")
    p("repro.sim.cupti:Cupti", "flush", "sim.cupti_flush")
    p("repro.core.session:XSPSession", "profile", "core.profile",
      after=_profile_attrs)
    p("repro.core.profilers:LayerTracer", "convert", "core.convert")
    p("repro.core.profilers:GpuTracer", "convert", "core.convert")
    p("repro.core.pipeline:AnalysisPipeline", "merge", "core.merge")
    p("repro.core.cache:ProfileStore", "put", "core.store_put",
      after=lambda a, k, path, s: {"bytes": _file_bytes(path)})
    p("repro.core.cache:ProfileStore", "get", "core.store_get",
      after=_store_get_attrs)
    p("repro.tracing.server:TracingServer", "publish_many",
      "tracing.publish_many", before=_count_iterable,
      after=lambda a, k, r, box: {"n": box[0]})
    p("repro.tracing.server:TracingServer", "publish_rows",
      "tracing.publish_rows", after=lambda a, k, n, s: {"n": n})
    p("repro.tracing.index:TraceIndex", "advance", "tracing.index_advance")
    for module in ("repro.core.session", "repro.insights.live"):
        p(module, "reconstruct_parents", "tracing.reconstruct")
        p(module, "correlate_launch_execution", "tracing.correlate")
    p("repro.tracing.export", "load_trace", "tracing.load_trace",
      after=lambda a, k, r, s: {"bytes": _file_bytes(a[0])})
    p("repro.tracing.export", "trace_from_dict", "tracing.load_trace")
    p("repro.analysis.diff.sources", "trace_from_dict", "tracing.load_trace")
    p("repro.tracing.export", "trace_to_chrome", "tracing.chrome")
    p("repro.analysis.report", "full_report", "analysis.report")
    p("repro.analysis.diff", "diff_profiles", "analysis.diff")
    p("repro.analysis.diff.sources", "profile_from_trace",
      "analysis.profile_from_trace")
    p("repro.analysis.diff", "load_profile_json", "analysis.load_profile_json",
      after=lambda a, k, r, s: {"bytes": _file_bytes(a[0])})
    p("repro.insights.engine:InsightEngine", "analyze", "insights.analyze",
      after=_analyze_attrs)
    p("repro.insights.engine:IncrementalInsightEngine", "analyze",
      "insights.analyze", after=_analyze_attrs)
    p("repro.insights.live:LiveMonitor", "_refresh", "insights.live_refresh",
      after=_refresh_attrs)


def layer_metrics(spans: Spans, n_ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics; times and counts are per op."""
    selfs = self_times(spans.start, spans.end, spans.parent)
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    for row, code in enumerate(spans.name):
        name = spans.names[code]
        attrs = spans.attrs.get(row, {})
        if name == "core.profile":
            name = f"core.profile.{attrs['level']}"
            sums["core.retries"] += attrs["retry"]
            calls["core.profile"] += 1
        ms[name] += selfs[row] / 1e6
        calls[name] += 1
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and key != "retry":
                sums[f"{name}.{key}"] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n = max(1, n_ops)
    out = {
        "frameworks.load_ms": ms["frameworks.load"] / n,
        "frameworks.predict_ms": ms["frameworks.predict"] / n,
        "frameworks.predict_calls": calls["frameworks.predict"] / n,
        "sim.kernel_launches": calls["sim.launch_kernel"] / n,
        "sim.launch_kernel_ms": ms["sim.launch_kernel"] / n,
        "sim.cupti_flush_ms": ms["sim.cupti_flush"] / n,
        "core.retry_ratio": ratio(sums["core.retries"], calls["core.profile"]),
        "core.convert_ms": ms["core.convert"] / n,
        "core.merge_ms": ms["core.merge"] / n,
        "core.store_put_ms": ms["core.store_put"] / n,
        "core.store_get_ms": ms["core.store_get"] / n,
        "core.store_hit_ratio": ratio(sums["core.store_get.hit"],
                                      calls["core.store_get"]),
        "core.store_bytes": (sums["core.store_put.bytes"]
                             + sums["core.store_get.bytes"]) / n,
        "tracing.publish_many_ms": ms["tracing.publish_many"] / n,
        "tracing.publish_many_spans": sums["tracing.publish_many.n"] / n,
        "tracing.publish_rows_ms": ms["tracing.publish_rows"] / n,
        "tracing.publish_rows_rows": sums["tracing.publish_rows.n"] / n,
        "tracing.index_advance_ms": ms["tracing.index_advance"] / n,
        "tracing.index_advance_calls": calls["tracing.index_advance"] / n,
        "tracing.reconstruct_ms": ms["tracing.reconstruct"] / n,
        "tracing.correlate_ms": ms["tracing.correlate"] / n,
        "tracing.load_trace_ms": ms["tracing.load_trace"] / n,
        "tracing.trace_bytes": (sums["tracing.load_trace.bytes"]
                                + sums["analysis.load_profile_json.bytes"]) / n,
        "tracing.chrome_ms": ms["tracing.chrome"] / n,
        "analysis.report_ms": ms["analysis.report"] / n,
        "analysis.diff_ms": ms["analysis.diff"] / n,
        "analysis.profile_from_trace_ms": ms["analysis.profile_from_trace"] / n,
        "analysis.load_profile_json_ms": ms["analysis.load_profile_json"] / n,
        "insights.analyze_ms": ms["insights.analyze"] / n,
        "insights.rules_run": sums["insights.analyze.run"] / n,
        "insights.rules_skipped": sums["insights.analyze.skipped"] / n,
        "insights.live_refresh_ms": ms["insights.live_refresh"] / n,
        "insights.live_refreshes": calls["insights.live_refresh"] / n,
        "insights.rows_per_refresh": ratio(sums["insights.live_refresh.rows"],
                                           calls["insights.live_refresh"]),
        "insights.refreshed_rule_ratio": ratio(
            sums["insights.live_refresh.refreshed"],
            sums["insights.live_refresh.rules"]),
        "trace.ops": float(n_ops),
        "trace.spans": float(len(spans)),
    }
    for level in ("M", "ML", "MLG", "MLG_metrics"):
        out[f"core.profile_ms.{level}"] = ms[f"core.profile.{level}"] / n
    return out
