"""Spans as ``TracingServer.publish_many`` row tuples, for tests.

``publish_many`` takes plain rows in ``SpanTable.append_rows`` field order only; tests
that build their capture as ``Span`` objects convert it here.
"""

from repro.tracing.table import span_row


def span_rows(spans):
    return [span_row(s) for s in spans]
