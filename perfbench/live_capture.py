"""live_capture: open-loop publication into a live-monitored trace.

A producer thread publishes pre-built rows of real M/L/G evaluations
with ``TracingServer.publish_rows`` on a fixed schedule (``ROWS_PER_S``,
each evaluation split into chunks of about ``CHUNK_ROWS`` rows) into one
trace opened with full model/system/framework/batch metadata; a consumer
thread drives a ``LiveMonitor`` on that trace.  After ``CAPTURE_ROWS``
rows the producer ends the trace and opens the next capture, so the
trace a refresh works on stays bounded and every capture repeats the
same growth.  Span, parent and correlation ids are remapped on every
republication so ids stay unique within a capture.

A chunk's lag runs from its *due* time (not its actual publish time, so
a stalled generator still counts against the system) to the first
``LiveUpdate`` whose ``n_spans`` covers it.
"""

from __future__ import annotations

import itertools
import math
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs
from perfbench.common import Measurement, paused, quantile

ROWS_PER_S = 2000
CHUNK_ROWS = 160
CAPTURE_ROWS = 8000
#: A generator later than four chunk periods has not kept the schedule.
LATENESS_BOUND_S = 4 * CHUNK_ROWS / ROWS_PER_S
#: Captures built ahead of time: more than any run of <= 60 s needs.
MAX_CAPTURES = 25
#: An idle consumer wakes this often to sample the core's speed.
IDLE_POLL_S = 0.005


@dataclass
class _Chunk:
    evaluation: int  # index into the capture's evaluations
    lo: int  # row range within the evaluation's template
    hi: int
    due_s: float  # offset from the capture's start
    rows_end: int  # trace rows once this chunk is published


@dataclass
class _Capture:
    evaluations: list[int]  # pool indices
    chunks: list[_Chunk] = field(default_factory=list)
    end_s: float = 0.0  # end_trace offset from the capture's start
    rows: int = 0


class LiveCapture:
    name = "live_capture"

    def __init__(self, seed: int, workdir: Path, *, plan=None) -> None:
        self.plan = inputs.live_plan(seed) if plan is None else plan
        self.templates: list[list[tuple]] = []
        self.extents: list[tuple[int, int]] = []
        self.captures: list[_Capture] = []
        # Fresh correlation ids for every republished evaluation.
        self._correlation_ids = itertools.count(1 << 40)

    def setup(self) -> None:
        """Profile the pool once and build the publication schedule."""
        from repro.core import ProfilingConfig, XSPSession
        from repro.models import get_model

        self.templates, self.extents = [], []
        for ev in self.plan.pool:
            session = XSPSession(ev.system, ev.framework)
            run = session.profile(get_model(ev.model).graph, ev.batch,
                                  ProfilingConfig(metrics=()))
            table = run.trace.table
            self.templates.append([
                (table.name_of(row), table.start_ns[row], table.end_ns[row],
                 table.level[row], table.span_id[row],
                 table.parent_id_of(row), table.kind[row],
                 table.correlation_id_of(row), dict(table.peek_tags(row)))
                for row in range(len(table))
            ])
            self.extents.append(run.trace.span_extent_ns())
        self.captures = self._schedule()
        self._publish_capture(self.captures[0], warmup=True)

    def _schedule(self) -> list[_Capture]:
        order = itertools.cycle(self.plan.order)
        captures = []
        for _ in range(MAX_CAPTURES):
            capture = _Capture([])
            while capture.rows < CAPTURE_ROWS:
                index = next(order)
                # Every capture holds exactly CAPTURE_ROWS rows: the last
                # evaluation is cut short (its kernel rows come last).
                n = min(len(self.templates[index]),
                        CAPTURE_ROWS - capture.rows)
                k = math.ceil(n / CHUNK_ROWS)
                evaluation = len(capture.evaluations)
                capture.evaluations.append(index)
                for j in range(k):
                    lo, hi = n * j // k, n * (j + 1) // k
                    capture.chunks.append(_Chunk(
                        evaluation, lo, hi, capture.rows / ROWS_PER_S,
                        capture.rows + hi - lo))
                    capture.rows += hi - lo
            capture.end_s = capture.rows / ROWS_PER_S
            captures.append(capture)
        return captures

    # -- the two threads ---------------------------------------------------

    def _publish_capture(self, capture, *, warmup=False, server=None,
                         handoff=None, start=None, log=None):
        """Publish one capture on its schedule (immediately for warm-up)."""
        from repro.insights.live import LiveMonitor
        from repro.tracing.server import TracingServer
        from repro.tracing.span import new_span_id

        server = server or TracingServer()
        first = self.plan.pool[capture.evaluations[0]]
        trace_id = server.begin_trace(
            model=first.model, system=first.system,
            framework=first.framework, batch=first.batch,
        )
        monitor = LiveMonitor(server, trace_id)
        if handoff is not None:
            handoff.put(monitor)
        maps: dict[int, tuple] = {}
        cursor = 0
        for chunk in capture.chunks:
            if chunk.evaluation not in maps:
                index = capture.evaluations[chunk.evaluation]
                template = self.templates[index]
                lo_ns, hi_ns = self.extents[index]
                ids = {row[4]: new_span_id() for row in template}
                correlations = {row[7]: next(self._correlation_ids)
                                for row in template if row[7] is not None}
                maps[chunk.evaluation] = (template, ids, correlations,
                                          cursor - lo_ns)
                cursor += hi_ns - lo_ns + 1_000
            template, ids, correlations, offset = maps[chunk.evaluation]
            if not warmup:
                due = start + chunk.due_s
                _sleep_until(due)
                log.append(("chunk", due, time.perf_counter() - due,
                            chunk.rows_end))
            server.publish_rows(trace_id, [
                dict(name=name, start_ns=s + offset, end_ns=e + offset,
                     level=level, span_id=ids[span_id],
                     parent_id=None if parent is None else ids.get(parent),
                     kind=kind,
                     correlation_id=correlations.get(corr),
                     tags=tags)
                for (name, s, e, level, span_id, parent, kind, corr, tags)
                in template[chunk.lo:chunk.hi]
            ])
        if warmup:
            while monitor.poll(timeout=0) is not None:
                pass
            server.end_trace(trace_id)
            monitor.poll(timeout=0)
            return
        due = start + capture.end_s
        _sleep_until(due)
        log.append(("end", due, time.perf_counter() - due, capture.rows))
        server.end_trace(trace_id)

    def ops_for(self, seconds: float) -> int:
        """Chunks of the captures whose schedule fits in ``seconds``."""
        chunks, total_s = 0, 0.0
        for capture in self.captures:
            total_s += capture.end_s
            if chunks and total_s > seconds:
                break
            chunks += len(capture.chunks)
        return chunks

    def measure(self, *, n_ops: int, recorder=None) -> Measurement:
        from repro.tracing.server import TracingServer

        captures, total_s, chunks = [], 0.0, 0
        for capture in self.captures:
            if chunks >= n_ops:
                break
            captures.append(capture)
            total_s += capture.end_s
            chunks += len(capture.chunks)
        m = Measurement(rate_follows_core=False)

        server = TracingServer()
        handoff: queue.Queue = queue.Queue()
        log: list[tuple] = []  # producer: (event, due, lateness, rows)
        updates: list[list[tuple]] = []  # consumer: per capture (t, n_spans)
        monitors = []
        errors: list[str] = []

        def produce() -> None:
            start = time.perf_counter()
            try:
                for capture in captures:
                    self._publish_capture(capture, server=server,
                                          handoff=handoff, start=start,
                                          log=log)
                    start += capture.end_s
            except Exception as err:  # reported as a failed run
                errors.append(f"producer: {type(err).__name__}: {err}")
                server.clear()  # closes any open trace: the consumer ends
            finally:
                handoff.put(None)

        def consume() -> None:
            try:
                while (monitor := handoff.get()) is not None:
                    monitors.append(monitor)
                    seen = []
                    updates.append(seen)
                    while not monitor.done:
                        update = monitor.poll(timeout=IDLE_POLL_S)
                        if update is not None:
                            seen.append((time.perf_counter(), update.n_spans))
                        else:
                            m.probe.sample(1)
            except Exception as err:  # reported as a failed run
                errors.append(f"consumer: {type(err).__name__}: {err}")
                while handoff.get() is not None:
                    pass  # let the producer finish

        threads = [
            threading.Thread(target=produce, name="live-producer", daemon=True),
            threading.Thread(target=consume, name="live-consumer", daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(60.0, 3 * total_s))
        if any(t.is_alive() for t in threads):
            raise RuntimeError("live_capture threads did not finish")
        with paused(recorder):
            self._account(m, captures, log, updates, monitors, errors)
        return m

    def _account(self, m, captures, log, updates, monitors, errors) -> None:
        from repro.analysis.diff.sources import profile_from_trace
        from repro.insights import advise

        for error in errors:
            m.fail(error)
        chunk_log = [e for e in log if e[0] == "chunk"]
        end_log = [e for e in log if e[0] == "end"]
        m.attempted = sum(len(c.chunks) for c in captures)
        lateness = [e[2] for e in log]
        finals = []
        events = iter(chunk_log)
        for c, capture in enumerate(captures):
            seen = updates[c] if c < len(updates) else []
            for _ in capture.chunks:
                _, due, _, rows_end = next(events, (None, 0.0, 0.0, 0))
                covered = next((t for t, n in seen if n >= rows_end), None)
                if covered is None:
                    m.fail(f"capture {c}: rows up to {rows_end} never reported")
                    continue
                m.latencies_ms.append((covered - due) * 1e3)
            if not seen or c >= len(end_log):
                m.fail(f"capture {c}: no final update")
                continue
            finals.append((seen[-1][0] - end_log[c][1] - end_log[c][2]) * 1e3)
            monitor = monitors[c]
            if seen[-1][1] != capture.rows or len(monitor.trace) != capture.rows:
                m.fail(f"capture {c}: final n_spans {seen[-1][1]}, "
                       f"published {capture.rows}")
            cold = advise(profile_from_trace(monitor.trace), trace=monitor.trace)
            if cold.to_dict() != monitor.report.to_dict():
                m.fail(f"capture {c}: final live report differs from cold advise")
        if not m.latencies_ms:
            m.latencies_ms.append(float("nan"))
        first_due = chunk_log[0][1] if chunk_log else 0.0
        last_update = max((s[-1][0] for s in updates if s), default=first_due)
        m.busy_s = last_update - first_due
        m.extra = {
            "final_ms": statistics.median(finals) if finals else 0.0,
            "lateness_p90_ms": quantile(lateness, 0.9) * 1e3 if lateness else 0.0,
            "lateness_max_ms": max(lateness, default=0.0) * 1e3,
        }
        if max(lateness, default=0.0) > LATENESS_BOUND_S:
            m.fail(f"generator lateness {max(lateness) * 1e3:.1f} ms exceeds "
                   f"the {LATENESS_BOUND_S * 1e3:.1f} ms schedule bound: "
                   "run invalid")


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
