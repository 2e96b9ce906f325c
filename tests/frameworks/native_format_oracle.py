"""Dict-per-layer native profiler formats: the reference for
``repro.frameworks.profiler_format``.

Before the formats were stored by column, each framework serialized one
dict per layer (a TF ``node_stats`` entry, an MXNet event) and each parser
built a ``LayerRecord`` with keyword arguments per entry, then sorted by
index with a lambda.  The functions below are that code, unchanged; the
column writers and parsers must round-trip every record list to the same
records these do.

Imported by the tests as a plain ``native_format_oracle`` module.
"""

from __future__ import annotations

from typing import Any

from repro.frameworks.profiler_format import LayerRecord


# -- TensorFlow-like step stats --------------------------------------------------


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
