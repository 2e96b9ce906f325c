"""Live monitoring: insights over an in-flight capture, refreshed as it grows.

SysOM-AI-style during-the-run diagnosis for this stack: a
:class:`LiveMonitor` attaches a :meth:`~repro.tracing.server.TracingServer.stream`
cursor to an open trace, consumes row batches as tracers publish them,
advances the single-run profile view of the partial capture over them
(:func:`~repro.analysis.diff.sources.profile_from_trace`, backed by the
trace's :class:`~repro.core.pipeline.ProfileBuilder`), and re-runs the
:class:`~repro.insights.engine.IncrementalInsightEngine` — so only rules
whose ingredients changed since the last watermark are re-evaluated, and
a quiet capture costs nothing.

The monitor is the sanctioned cross-thread consumer of an open trace:
the stream cursor reads completed rows below the watermark, and the
trace's index advances (never rebuilds) from the monitor's thread while
the capture thread keeps appending under the server lock.

``AnalysisPipeline.advise_live`` / ``repro advise --live`` wire this to a
worker thread running ``profile_application``; the monitor works equally
on any open trace, including a raw single-run capture when
``correlate=True`` re-runs the correlation passes per refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.insights.engine import (
    IncrementalInsightEngine,
    InsightContext,
    InsightReport,
)
from repro.tracing.correlation import (
    correlate_launch_execution,
    reconstruct_parents,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.insights import registry
    from repro.tracing.server import TracingServer
    from repro.tracing.trace import Trace


@dataclass
class LiveUpdate:
    """One refresh of the live report."""

    #: Rows visible (the trace watermark) at refresh time.
    n_spans: int
    #: Rows consumed since the previous update.
    new_rows: int
    report: InsightReport
    #: Rules the incremental engine actually re-evaluated this refresh.
    refreshed_rules: list[str] = field(default_factory=list)
    #: True for the update that observed end-of-capture.
    final: bool = False


class LiveMonitor:
    """Follow an open trace and keep an insight report current.

    ``correlate=True`` additionally runs ``reconstruct_parents`` and
    ``correlate_launch_execution`` over the whole trace before each
    refresh — needed for raw captures whose kernel spans arrive
    unparented; ``profile_application`` re-publishes pre-correlated
    rows, so its monitors leave it off.  The passes write parent ids,
    so the profile builder starts over from row 0 on every such refresh;
    a child published before its parent is parented once the parent
    lands.
    """

    def __init__(
        self,
        server: "TracingServer",
        trace_id: int | None = None,
        *,
        rules: "Iterable[registry.Rule] | None" = None,
        correlate: bool = False,
    ) -> None:
        self._stream = server.stream(trace_id)
        self._engine = IncrementalInsightEngine(rules)
        self._correlate = correlate
        self._finished = False
        self.report: InsightReport | None = None

    @property
    def trace(self) -> "Trace":
        return self._stream.trace

    @property
    def engine(self) -> IncrementalInsightEngine:
        return self._engine

    @property
    def done(self) -> bool:
        """True once end-of-capture was observed (and reported)."""
        return self._finished

    def poll(self, timeout: float | None = 0) -> LiveUpdate | None:
        """Consume available rows and refresh the report.

        Waits up to ``timeout`` seconds for new rows (``0`` polls,
        ``None`` blocks until rows arrive or the capture ends).  Returns
        ``None`` when nothing new happened within the wait; otherwise the
        refreshed :class:`LiveUpdate`, whose ``final`` flag marks the
        end-of-capture refresh.
        """
        if self._finished:
            return None
        batch = self._stream.read(timeout)
        at_end = self._stream.at_end
        if at_end:
            self._finished = True
        new_rows = len(batch) if batch is not None else 0
        if new_rows == 0:
            if at_end and self.report is not None:
                # Capture closed with no unseen rows: emit the closing
                # update without running a single rule.
                return LiveUpdate(
                    n_spans=self._stream.cursor,
                    new_rows=0,
                    report=self.report,
                    final=True,
                )
            return None
        return self._refresh(new_rows, at_end)

    def updates(self, timeout: float | None = None) -> Iterator[LiveUpdate]:
        """Yield refreshes until end-of-capture (blocking iteration)."""
        while not self._finished:
            update = self.poll(timeout)
            if update is not None:
                yield update

    def _refresh(self, new_rows: int, final: bool) -> LiveUpdate:
        # Imported here: diff.sources imports the pipeline's profile
        # model, which this package must not load at import time.
        from repro.analysis.diff.sources import profile_from_trace

        trace = self.trace
        if self._correlate:
            reconstruct_parents(trace, strict=False)
            correlate_launch_execution(trace)
        profile = profile_from_trace(trace)
        context = InsightContext.build(profile, trace=trace)
        self.report = self._engine.analyze(context)
        return LiveUpdate(
            n_spans=self._stream.cursor,
            new_rows=new_rows,
            report=self.report,
            refreshed_rules=list(self._engine.last_refreshed),
            final=final,
        )
