"""Framework-native profiler output formats.

The paper stresses that "the output format of a framework profiler is
framework-dependent": TensorFlow emits step-stats-style node records while
MXNet emits its own profile dump.  To stay faithful, each framework
simulator returns its profile in a *native* format, and XSP's layer tracer
parses whichever format the framework produced (the ``parse_*`` functions
below) before converting records to spans — no framework modification, no
shared in-memory shortcut.

Each format keeps its own field names and units, one list per field (no
dict per layer), and both parsers stably sort the records by layer index.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence


class LayerRecord(NamedTuple):
    """Normalized layer-level profile record (XSP's internal view)."""

    index: int
    name: str
    layer_type: str
    shape: tuple[int, ...]
    start_ns: int
    end_ns: int
    alloc_bytes: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6


def _columns(records: Iterable[LayerRecord]) -> tuple[Sequence, ...]:
    """The records' fields as columns, the times as start and relative
    microseconds."""
    index, name, layer_type, shape, start_ns, end_ns, alloc_bytes = (
        tuple(zip(*records)) or ((),) * len(LayerRecord._fields))
    return (index, name, layer_type, shape, [ns / 1e3 for ns in start_ns],
            [(end - start) / 1e3 for start, end in zip(start_ns, end_ns)],
            alloc_bytes)


def _records(index, name, layer_type, shape, start_us, rel_us, alloc_bytes
             ) -> list[LayerRecord]:
    """Records from parsed columns (``int(round(us * 1e3))`` ns: ``round``
    of a float is an int), stably sorted by layer index."""
    start_ns = [round(us * 1e3) for us in start_us]
    end_ns = [start + round(us * 1e3) for start, us in zip(start_ns, rel_us)]
    rows = zip(map(int, index), map(str, name), map(str, layer_type), shape,
               start_ns, end_ns, map(int, alloc_bytes), strict=True)
    return sorted(map(tuple.__new__, repeat(LayerRecord), rows),
                  key=itemgetter(0))


# -- TensorFlow-like step stats ----------------------------------------------------


def tf_step_stats(records: Iterable[LayerRecord]) -> dict[str, Any]:
    """Serialize to a TF RunMetadata/step-stats-like structure."""
    index, name, layer_type, shape, start_us, rel_us, alloc_bytes = (
        _columns(records))
    return {
        "step_stats": {
            "dev_stats": [
                {
                    "device": "/job:localhost/replica:0/task:0/device:GPU:0",
                    "node_stats": {
                        "node_name": list(name),
                        "op": list(layer_type),
                        "all_start_micros": start_us,
                        "op_end_rel_micros": rel_us,
                        "output_shape": list(map(list, shape)),
                        "memory": {"allocated_bytes": list(alloc_bytes)},
                        "exec_index": list(index),
                    },
                }
            ]
        }
    }


def parse_tf_step_stats(profile: dict[str, Any]) -> list[LayerRecord]:
    """Parse a TF-style step-stats dict back into normalized records."""
    nodes = [dev["node_stats"] for dev in profile["step_stats"]["dev_stats"]]
    memory = [node["memory"] for node in nodes]

    def column(key: str, tables: list[dict[str, list]] = nodes) -> chain:
        """One field over every device's columns."""
        return chain.from_iterable(map(itemgetter(key), tables))

    return _records(
        column("exec_index"), column("node_name"), column("op"),
        map(tuple, column("output_shape")), column("all_start_micros"),
        column("op_end_rel_micros"), column("allocated_bytes", memory),
    )


# -- MXNet-like profiler dump --------------------------------------------------------


def mx_profile(records: Iterable[LayerRecord]) -> dict[str, Any]:
    """Serialize to an MXNet-profiler-like event dump (microsecond units)."""
    index, name, layer_type, shape, start_us, rel_us, alloc_bytes = (
        _columns(records))
    joined = {dims: "x".join(map(str, dims)) for dims in set(shape)}
    return {
        "profile_version": "mxsim-1",
        "events": {
            "name": list(name),
            "operator": list(layer_type),
            "ts_us": start_us,
            "dur_us": rel_us,
            "shape": list(map(joined.__getitem__, shape)),
            "memory_bytes": list(alloc_bytes),
            "seq": list(index),
        },
    }


def parse_mx_profile(profile: dict[str, Any]) -> list[LayerRecord]:
    """Parse an MXNet-style profile dump back into normalized records."""
    events = profile["events"]
    shapes = events["shape"]
    dims = {text: tuple(map(int, text.split("x"))) if text else ()
            for text in set(shapes)}
    return _records(
        events["seq"], events["name"], events["operator"],
        map(dims.__getitem__, shapes), events["ts_us"], events["dur_us"],
        events["memory_bytes"],
    )


#: Registry mapping framework name -> native-format parser; the XSP layer
#: tracer looks up the parser for whatever framework produced the profile.
PARSERS = {
    "tensorflow_like": parse_tf_step_stats,
    "mxnet_like": parse_mx_profile,
}
