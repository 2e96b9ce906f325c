"""Native layer-profiler formats: serialize and parse by column.

Each profiled prediction writes its layer records in the framework's
native format (TF step stats, an MXNet profile dump) and the layer tracer
parses the document back.  Timed: one serialize plus parse of the layer
records of Mask R-CNN Inception-ResNet-v2 (model 48, ~700 layers) under
each framework.  Asserted: the round trip returns exactly the records the
dict-per-layer oracle (``tests/frameworks/native_format_oracle.py``)
returns, and is at least ``MIN_SPEEDUP``x faster than it.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from repro.core.session import FRAMEWORKS
from repro.frameworks import RunOptions
from repro.frameworks.profiler_format import PARSERS
from repro.models import get_model
from repro.sim import CudaRuntime, VirtualClock, get_system

_ORACLE = (Path(__file__).parents[1] / "tests" / "frameworks"
           / "native_format_oracle.py")
_spec = importlib.util.spec_from_file_location("native_format_oracle", _ORACLE)
native_format_oracle = importlib.util.module_from_spec(_spec)
sys.modules["native_format_oracle"] = native_format_oracle
_spec.loader.exec_module(native_format_oracle)

#: Column round trip vs the dict-per-layer one (2.7-3.2x for TF and
#: 3.2-4.0x for MXNet on a contended 2-vCPU host).
MIN_SPEEDUP = 2.0

ORACLE = {
    "tensorflow_like": (native_format_oracle.tf_step_stats,
                        native_format_oracle.parse_tf_step_stats),
    "mxnet_like": (native_format_oracle.mx_profile,
                   native_format_oracle.parse_mx_profile),
}


def _records(fw) -> list:
    """The layer records of one profiled model-48 prediction."""
    document = fw.predict(fw.load(get_model(48).graph), 8,
                          RunOptions(trace_level="FULL")).native_profile
    return PARSERS[fw.name](document)


def _best_s(calls, rounds: int = 15, number: int = 5) -> list[float]:
    """Best CPU time of ``number`` runs of each call, alternating round by
    round, each round after a full collection with the cyclic GC off."""
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                for _ in range(number):
                    call()
                best[i] = min(best[i], time.process_time() - start)
            finally:
                gc.enable()
    return best


@pytest.mark.parametrize("framework", ["tensorflow_like", "mxnet_like"])
def test_native_round_trip_model48(benchmark, framework):
    fw = FRAMEWORKS[framework](
        CudaRuntime(get_system("Tesla_V100"), VirtualClock()))
    records = _records(fw)
    parse = PARSERS[framework]
    oracle_serialize, oracle_parse = ORACLE[framework]

    def by_column():
        return parse(fw.serialize_profile(records))

    def by_dict():
        return oracle_parse(oracle_serialize(records))

    assert benchmark(by_column) == by_dict() == records
    dict_s, column_s = _best_s([by_dict, by_column])
    speedup = dict_s / column_s
    assert speedup >= MIN_SPEEDUP, (
        f"the column round trip is only {speedup:.2f}x faster than a dict "
        f"per layer ({column_s * 1e3:.2f} ms vs {dict_s * 1e3:.2f} ms)"
    )
