"""Spans as ``TracingServer.publish_many`` row tuples, for tests.

``publish_many`` takes plain rows in ``SpanTable.append_rows`` field order only; tests
that build their capture as ``Span`` objects convert it here.
"""

from repro.tracing.table import _KIND_CODE, NONE_ID


def span_rows(spans):
    return [
        (s.name, s.start_ns, s.end_ns, int(s.level), _KIND_CODE[s.kind],
         s.span_id, NONE_ID if s.parent_id is None else s.parent_id,
         NONE_ID if s.correlation_id is None else s.correlation_id,
         tuple(s.tags or ()), tuple((s.tags or {}).values()))
        for s in spans
    ]
