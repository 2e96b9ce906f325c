"""zoo_campaign: a cold, closed-loop, single-threaded profiling campaign.

One client profiles the seeded point list one point at a time (the next
point starts when the previous one returns).  Each point does what
``Campaign.run`` does per point, cold: a fresh session, a pipeline with
``runs_per_level=1`` over a fresh empty ``ProfileStore``, then the full
15-analysis text report.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from perfbench import inputs
from perfbench.common import Measurement, closed_loop

#: One pass over the zoo's 107 (model, framework) points per 20 s of
#: ``--seconds``: ~12 s on an uncontended core of the reference host,
#: ~20 s at its usual contention.
POINTS_PER_S = 107 / 20


class ZooCampaign:
    name = "zoo_campaign"

    def __init__(self, seed: int, workdir: Path, *, points=None) -> None:
        self.workdir = Path(workdir)
        self.points = inputs.campaign_points(seed) if points is None else points
        self.graphs: dict = {}
        self._layer_counts: dict[tuple[int, str], int] = {}

    def setup(self) -> None:
        """Build the sampled models' graphs (the program's inputs) and warm
        the process: imports and a first load/profile/report."""
        from repro.models import get_model

        self.graphs = {
            model: get_model(model).factory()
            for model in sorted({p.model for p in self.points})
        }
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        # A tiny model, so set-up costs about the same whatever the seed.
        warmup = next((p for p in self.points if p.model in inputs.STRATA[0]),
                      self.points[0])
        self._profile(warmup, self.workdir / "warmup")
        shutil.rmtree(self.workdir / "warmup")

    def _profile(self, point, store_dir: Path):
        from repro.analysis import report
        from repro.core import AnalysisPipeline, ProfileStore, XSPSession

        store = ProfileStore(store_dir)
        pipeline = AnalysisPipeline(
            XSPSession(point.system, point.framework),
            runs_per_level=1,
            store=store,
        )
        profile = pipeline.profile_model(self.graphs[point.model], point.batch)
        return profile, store, report.full_report(profile)

    @staticmethod
    def ops_for(seconds: float) -> int:
        """Points for a run of ``seconds``, whatever the core's speed."""
        return max(1, round(seconds * POINTS_PER_S))

    def measure(self, *, n_ops: int, recorder=None) -> Measurement:
        return closed_loop(
            self.points, n_ops,
            lambda i, point: self._profile(point, self.workdir / f"point{i}"),
            self.check, recorder,
        )

    def _layer_count(self, point) -> int:
        """Executed layers of the compiled model (one layer span each)."""
        key = (point.model, point.framework)
        if key not in self._layer_counts:
            from repro.core.session import FRAMEWORKS
            from repro.sim.clock import VirtualClock
            from repro.sim.cuda import CudaRuntime
            from repro.sim.hardware import get_system

            runtime = CudaRuntime(get_system(point.system), VirtualClock())
            framework = FRAMEWORKS[point.framework](runtime)
            self._layer_counts[key] = len(
                framework.load(self.graphs[point.model]).plan
            )
        return self._layer_counts[key]

    def check(self, point, outcome) -> str | None:
        profile, store, text = outcome
        try:
            return self._problem(point, profile, store, text)
        finally:
            shutil.rmtree(store.root, ignore_errors=True)

    def _problem(self, point, profile, store, text) -> str | None:
        from repro.core.cache import profile_to_dict

        expected = self._layer_count(point)
        if len(profile.layers) != expected:
            return f"{len(profile.layers)} layers, expected {expected}"
        if not profile.kernels:
            return "no kernels"
        if not profile.model_latency_ms > 0:
            return f"model latency {profile.model_latency_ms}"
        if profile.model_name not in text:
            return "report does not name the model"
        stored = store.get(profile.model_name, profile.system,
                           profile.framework, profile.batch, 1)
        if stored is None:
            return "profile missing from the store"
        if profile_to_dict(stored) != profile_to_dict(profile):
            return "stored profile differs from the in-memory one"
        return None
