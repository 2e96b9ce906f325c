"""Framework-native profiler output formats.

The paper stresses that "the output format of a framework profiler is
framework-dependent": TensorFlow emits step-stats-style node records while
MXNet emits its own profile dump.  To stay faithful, each framework
simulator returns its profile in a *native* format, and XSP's layer tracer
parses whichever format the framework produced (the ``parse_*`` functions
below) before converting records to spans — no framework modification, no
shared in-memory shortcut.
"""

from __future__ import annotations

from typing import Any, NamedTuple


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


# -- TensorFlow-like step stats ----------------------------------------------------


def tf_step_stats(records: list[LayerRecord]) -> dict[str, Any]:
    """Serialize to a TF RunMetadata/step-stats-like structure."""
    return {
        "step_stats": {
            "dev_stats": [
                {
                    "device": "/job:localhost/replica:0/task:0/device:GPU:0",
                    "node_stats": [
                        {
                            "node_name": name,
                            "op": layer_type,
                            "all_start_micros": start_ns / 1e3,
                            "op_end_rel_micros": (end_ns - start_ns) / 1e3,
                            "output_shape": list(shape),
                            "memory": [{"allocated_bytes": alloc_bytes}],
                            "exec_index": index,
                        }
                        for index, name, layer_type, shape, start_ns, end_ns,
                        alloc_bytes in records
                    ],
                }
            ]
        }
    }


def parse_tf_step_stats(profile: dict[str, Any]) -> list[LayerRecord]:
    """Parse a TF-style step-stats dict back into normalized records."""
    records: list[LayerRecord] = []
    for dev in profile["step_stats"]["dev_stats"]:
        for node in dev["node_stats"]:
            start_ns = int(round(node["all_start_micros"] * 1e3))
            records.append(
                LayerRecord(
                    index=int(node["exec_index"]),
                    name=str(node["node_name"]),
                    layer_type=str(node["op"]),
                    shape=tuple(node.get("output_shape", ())),
                    start_ns=start_ns,
                    end_ns=start_ns + int(round(node["op_end_rel_micros"] * 1e3)),
                    alloc_bytes=int(
                        sum(m.get("allocated_bytes", 0) for m in node.get("memory", []))
                    ),
                )
            )
    records.sort(key=lambda r: r.index)
    return records


# -- MXNet-like profiler dump --------------------------------------------------------


def mx_profile(records: list[LayerRecord]) -> dict[str, Any]:
    """Serialize to an MXNet-profiler-like event list (microsecond units)."""
    return {
        "profile_version": "mxsim-1",
        "events": [
            {
                "name": name,
                "operator": layer_type,
                "ts_us": start_ns / 1e3,
                "dur_us": (end_ns - start_ns) / 1e3,
                "shape": "x".join(map(str, shape)),
                "memory_bytes": alloc_bytes,
                "seq": index,
            }
            for index, name, layer_type, shape, start_ns, end_ns, alloc_bytes
            in records
        ],
    }


def parse_mx_profile(profile: dict[str, Any]) -> list[LayerRecord]:
    """Parse an MXNet-style profile dump back into normalized records."""
    records: list[LayerRecord] = []
    for ev in profile["events"]:
        start_ns = int(round(ev["ts_us"] * 1e3))
        shape = tuple(map(int, ev["shape"].split("x"))) if ev["shape"] else ()
        records.append(
            LayerRecord(
                index=int(ev["seq"]),
                name=str(ev["name"]),
                layer_type=str(ev["operator"]),
                shape=shape,
                start_ns=start_ns,
                end_ns=start_ns + int(round(ev["dur_us"] * 1e3)),
                alloc_bytes=int(ev["memory_bytes"]),
            )
        )
    records.sort(key=lambda r: r.index)
    return records


#: Registry mapping framework name -> native-format parser; the XSP layer
#: tracer looks up the parser for whatever framework produced the profile.
PARSERS = {
    "tensorflow_like": parse_tf_step_stats,
    "mxnet_like": parse_mx_profile,
}
