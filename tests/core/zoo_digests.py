"""Per-point digests of merged zoo profiles: the byte-identity gate.

Every zoo (model, framework) pair is profiled through the leveled
pipeline at batch 1 on ``Tesla_V100`` with ``runs_per_level=1``, plus a
few extra points (a larger batch, a second system, three runs per level
and a serialized library-level run).  Each point's digest is the sha256
of its canonical (``sort_keys``) :func:`profile_to_dict` JSON, so a
change to the simulator that moves any latency, shape, kernel or metric
by one nanosecond changes the digest.

``test_zoo_digests.py`` recomputes the digests and compares them with the
committed file.  Regenerate that file only from code whose profiles are
known to be right; from the repository root::

    PYTHONPATH=src python tests/core/zoo_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.diff.sources import profile_from_trace
from repro.core import AnalysisPipeline, XSPSession
from repro.core.cache import profile_to_dict
from repro.core.levels import MLLibG
from repro.core.session import ProfilingConfig
from repro.models import get_model, list_models

DIGEST_FILE = Path(__file__).with_name("data") / "zoo_profile_digests.json"
FRAMEWORKS = ("tensorflow_like", "mxnet_like")


@dataclass(frozen=True)
class Point:
    model: int
    framework: str
    batch: int = 1
    system: str = "Tesla_V100"
    runs_per_level: int = 1
    #: One serialized M/L/Lib/G run with metrics instead of the ladder.
    serialized: bool = False

    @property
    def key(self) -> str:
        key = (f"{self.model}/{self.framework}/b{self.batch}/{self.system}"
               f"/r{self.runs_per_level}")
        return key + "/serialized" if self.serialized else key


def points() -> list[Point]:
    zoo = [Point(entry.model_id, framework)
           for entry in list_models() for framework in FRAMEWORKS]
    extra = [
        Point(7, "tensorflow_like", batch=8),
        Point(7, "mxnet_like", batch=4, system="Quadro_RTX"),
        Point(53, "tensorflow_like", batch=2, runs_per_level=3),
        Point(53, "mxnet_like", batch=2, system="Tesla_P100",
              serialized=True),
        Point(7, "tensorflow_like", batch=2, serialized=True),
    ]
    return zoo + extra


def profile_digest(point: Point) -> str:
    session = XSPSession(point.system, point.framework)
    graph = get_model(point.model).graph
    if point.serialized:
        run = session.profile(graph, point.batch, ProfilingConfig(
            levels=MLLibG, serialized=True))
        profile = profile_from_trace(run.trace)
        # The trace id counts captures made earlier in the process.
        del profile.metadata["trace_id"]
    else:
        pipeline = AnalysisPipeline(session,
                                    runs_per_level=point.runs_per_level)
        profile = pipeline.profile_model(graph, point.batch)
    canonical = json.dumps(profile_to_dict(profile), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def main() -> int:
    digests = {point.key: profile_digest(point) for point in points()}
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
