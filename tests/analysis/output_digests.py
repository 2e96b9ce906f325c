"""Golden digests of the analysis outputs over a set of zoo points.

Where ``tests/core/zoo_digests.py`` pins the merged profiles, this file
pins what the analyses print and serialize from them.  Each point is a
merged (or, for ``serialized`` points, a single-run
``profile_from_trace``) profile ``p``; ``q`` is the same point on the
other framework.  A point's digests are the sha256 of:

* ``report`` — the :func:`full_report` text of ``p``;
* ``diff`` — the compact ``sort_keys`` JSON of
  ``diff_profiles(p, q).to_dict()``;
* ``advise`` — the compact ``sort_keys`` JSON of ``advise(p).to_dict()``.

So a change to how a layer, model or by-name kernel aggregate is summed
shows up as soon as one bit of one printed or serialized float moves.
No output depends on string hashing, so any ``PYTHONHASHSEED`` gives the
same digests.  ``test_output_digests.py`` runs this script with
``--print`` in a fresh interpreter and compares its digests with the
committed file.  Regenerate that file only from code whose outputs are
known to be right; from the repository root::

    PYTHONPATH=src python tests/analysis/output_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.diff import diff_profiles
from repro.analysis.report import full_report
from repro.core import AnalysisPipeline, XSPSession
from repro.core.levels import MLLibG
from repro.core.pipeline import ModelProfile, profile_from_trace
from repro.core.session import ProfilingConfig
from repro.insights import advise
from repro.models import get_model

DIGEST_FILE = Path(__file__).with_name("data") / "zoo_output_digests.json"
OTHER_FRAMEWORK = {"tensorflow_like": "mxnet_like",
                   "mxnet_like": "tensorflow_like"}


@dataclass(frozen=True)
class Point:
    model: int
    framework: str
    batch: int = 1
    system: str = "Tesla_V100"
    #: One serialized M/L/Lib/G run with metrics instead of the ladder.
    serialized: bool = False

    @property
    def key(self) -> str:
        key = f"{self.model}/{self.framework}/b{self.batch}/{self.system}"
        return key + "/serialized" if self.serialized else key

    @property
    def other(self) -> "Point":
        return replace(self, framework=OTHER_FRAMEWORK[self.framework])


def points() -> list[Point]:
    """Both frameworks of every configuration: classification (7, 15, 21,
    27), detection (44), segmentation (53), instance segmentation (48),
    batch > 1, two more systems and serialized single-run trace
    profiles."""
    configs = [
        dict(model=7),
        dict(model=15),
        dict(model=21),
        dict(model=27),
        dict(model=44),
        dict(model=53),
        dict(model=48),
        dict(model=7, batch=8),
        dict(model=15, batch=4, system="Quadro_RTX"),
        dict(model=53, batch=2, system="Tesla_P100"),
        dict(model=53, serialized=True),
        dict(model=7, batch=2, system="Tesla_P100", serialized=True),
    ]
    return [Point(framework=framework, **config)
            for config in configs for framework in OTHER_FRAMEWORK]


@functools.lru_cache(maxsize=None)
def profile_of(point: Point) -> ModelProfile:
    session = XSPSession(point.system, point.framework)
    graph = get_model(point.model).graph
    if point.serialized:
        run = session.profile(graph, point.batch, ProfilingConfig(
            levels=MLLibG, serialized=True))
        profile = profile_from_trace(run.trace)
        # The trace id counts captures made earlier in the process.
        del profile.metadata["trace_id"]
        return profile
    return AnalysisPipeline(session, runs_per_level=1).profile_model(
        graph, point.batch)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _compact(document: object) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def output_digests(point: Point) -> dict[str, str]:
    p = profile_of(point)
    q = profile_of(point.other)
    return {
        "report": _sha256(full_report(p)),
        "diff": _sha256(_compact(diff_profiles(p, q).to_dict())),
        "advise": _sha256(_compact(advise(p).to_dict())),
    }


def main(argv: list[str]) -> int:
    digests = {point.key: output_digests(point) for point in points()}
    if argv == ["--print"]:
        print(json.dumps(digests))
        return 0
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(digests)} points' digests to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
