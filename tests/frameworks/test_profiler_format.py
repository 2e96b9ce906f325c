"""Native profiler format round-trip tests."""

import pytest

from repro.frameworks.profiler_format import (
    PARSERS,
    LayerRecord,
    mx_profile,
    parse_mx_profile,
    parse_tf_step_stats,
    tf_step_stats,
)


def records():
    return [
        LayerRecord(1, "data/Data", "Data", (8, 3, 32, 32), 0, 100_000, 0),
        LayerRecord(2, "conv1/Conv2D", "Conv2D", (8, 16, 32, 32),
                    100_000, 500_000, 524_288),
        LayerRecord(3, "bn1/mul", "Mul", (8, 16, 32, 32),
                    500_000, 550_000, 524_288),
    ]


def test_tf_round_trip():
    parsed = parse_tf_step_stats(tf_step_stats(records()))
    assert parsed == records()


def test_mx_round_trip():
    parsed = parse_mx_profile(mx_profile(records()))
    assert parsed == records()


def test_tf_format_is_step_stats_shaped():
    """Step-stats fields and units, one column per field."""
    doc = tf_step_stats(records())
    nodes = doc["step_stats"]["dev_stats"][0]["node_stats"]
    assert {"node_name", "op", "all_start_micros", "op_end_rel_micros",
            "output_shape", "memory", "exec_index"} == set(nodes)
    assert nodes["all_start_micros"] == [0.0, 100.0, 500.0]
    assert nodes["op_end_rel_micros"] == [100.0, 400.0, 50.0]
    assert nodes["output_shape"][1] == [8, 16, 32, 32]
    assert nodes["memory"] == {"allocated_bytes": [0, 524_288, 524_288]}
    assert nodes["exec_index"] == [1, 2, 3]


def test_mx_format_is_event_list():
    """MXNet dump fields and units, one column per field."""
    doc = mx_profile(records())
    assert doc["profile_version"].startswith("mxsim")
    events = doc["events"]
    assert events["operator"][0] == "Data"
    assert events["ts_us"] == [0.0, 100.0, 500.0]
    assert events["dur_us"] == [100.0, 400.0, 50.0]
    assert events["shape"][0] == "8x3x32x32"
    assert events["seq"] == [1, 2, 3]


def test_parsers_registry():
    assert set(PARSERS) == {"tensorflow_like", "mxnet_like"}


def test_record_durations():
    r = records()[1]
    assert r.duration_ns == 400_000
    assert r.duration_ms == pytest.approx(0.4)


def test_parsers_sort_by_index():
    shuffled = list(reversed(records()))
    parsed = parse_tf_step_stats(tf_step_stats(shuffled))
    assert [r.index for r in parsed] == [1, 2, 3]
