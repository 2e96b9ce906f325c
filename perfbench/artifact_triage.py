"""artifact_triage: closed-loop triage of artifacts that already exist.

One client runs a seeded mix of jobs over saved captures and a warm
profile store, one at a time: ``repro diff`` on store coordinates and on
two trace JSONs, ``repro advise --from-trace --json``, and load + Chrome
export of an application capture.  CLI jobs go through ``repro.cli.main``
in-process with stdout captured.  No job may profile anything.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from perfbench import inputs
from perfbench.common import Measurement, closed_loop, run_cli

#: Every 20 jobs (two ten-job cycles) the mix repeats its composition.
OPS_PERIOD = 20
#: Jobs per second of ``--seconds`` (~6/s on an uncontended core of the
#: reference host, ~4/s at its usual contention).
OPS_PER_S = 5.0


class ArtifactTriage:
    name = "artifact_triage"

    def __init__(self, seed: int, workdir: Path, *, plan=None) -> None:
        self.workdir = Path(workdir)
        self.plan = inputs.triage_plan(seed) if plan is None else plan
        self.store_dir = self.workdir / "store"
        self._sources: dict[str, tuple] = {}
        self._store_state: dict[str, int] = {}

    def _path(self, artifact: str) -> str:
        return str(self.workdir / f"{artifact}.json")

    def setup(self) -> None:
        """Capture the corpus, warm the store, and run each job kind once."""
        from repro.core import (AnalysisPipeline, ProfileStore,
                                ProfilingConfig, XSPSession)
        from repro.models import get_model
        from repro.tracing.export import save_trace

        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self._sources.clear()
        for capture in self.plan.captures:
            code, out = run_cli([
                "trace", "--model", str(capture.model),
                "--batch", str(capture.batch),
                "--framework", capture.framework,
                "--output", self._path(capture.name),
            ])
            if code != 0:
                raise RuntimeError(f"capturing {capture}: {out}")
        session = XSPSession("Tesla_V100", "tensorflow_like")
        for app in self.plan.apps:
            trace, _ = session.profile_application(
                [(get_model(m).graph, app.batch) for m in app.models],
                name=app.name,
                config=ProfilingConfig(metrics=()),
            )
            save_trace(trace, self._path(app.name))
        store = ProfileStore(self.store_dir)
        for coord in self.plan.coords:
            AnalysisPipeline(
                XSPSession("Tesla_V100", coord.framework),
                runs_per_level=1,
                store=store,
            ).profile_model(get_model(coord.model).graph, coord.batch)
        self._store_state = self._store_snapshot()
        seen = set()
        for op in self.plan.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                self._run(op)

    def _store_snapshot(self) -> dict[str, int]:
        return {p.name: p.stat().st_mtime_ns for p in self.store_dir.iterdir()}

    def _run(self, op):
        """One job; returns (exit code, output) as the check expects it."""
        if op.kind == "chrome_app":
            from repro.tracing import export

            trace = export.load_trace(self._path(op.args[0]))
            return 0, (trace, export.trace_to_chrome(trace))
        gate = ["--max-regression", "0.0"] if op.gate else []
        if op.kind == "diff_store":
            return run_cli(["diff", *op.args, "--cache-dir", str(self.store_dir),
                            "--runs", "1", "--json", *gate])
        if op.kind == "diff_trace":
            return run_cli(["diff", *map(self._path, op.args), "--json", *gate])
        return run_cli(["advise", "--from-trace", self._path(op.args[0]),
                        "--json"])

    @staticmethod
    def ops_for(seconds: float) -> int:
        """Jobs for a run of ``seconds``, whatever the core's speed,
        rounded to whole periods of the mix's rotation."""
        return OPS_PERIOD * max(1, round(seconds * OPS_PER_S / OPS_PERIOD))

    def measure(self, *, n_ops: int, recorder=None) -> Measurement:
        return closed_loop(self.plan.ops, n_ops, lambda i, op: self._run(op),
                           self.check, recorder)

    def _source(self, artifact: str):
        """Span ids, layer indices and kernel names of a saved capture."""
        if artifact not in self._sources:
            from repro.analysis.diff.sources import profile_from_trace
            from repro.tracing.export import load_trace

            trace = load_trace(self._path(artifact))
            profile = profile_from_trace(trace)
            self._sources[artifact] = (
                set(trace.table.span_id),
                {layer.index for layer in profile.layers},
                {kernel.name for kernel in profile.kernels},
            )
        return self._sources[artifact]

    def check(self, op, outcome) -> str | None:
        code, out = outcome
        if code != 0:
            return f"exit code {code}: {str(out)[-300:]}"
        if op.kind == "chrome_app":
            trace, text = out
            events = json.loads(text)["traceEvents"]
            complete = sum(1 for e in events if e["ph"] == "X")
            if complete != len(trace):
                return f"{complete} complete events for {len(trace)} spans"
            return None
        try:
            document = json.loads(out)
        except json.JSONDecodeError as err:
            return f"stdout is not JSON: {err}"
        if op.kind == "diff_store" and self._store_snapshot() != self._store_state:
            return "the store changed: a side was profiled, not read"
        if op.kind == "advise_trace":
            span_ids, layers, kernels = self._source(op.args[0])
            for insight in document["insights"]:
                for ev in insight["evidence"]:
                    if (not span_ids.issuperset(ev["span_ids"])
                            or not layers.issuperset(ev["layer_indices"])
                            or not kernels.issuperset(ev["kernel_names"])):
                        return f"unresolved evidence in {insight['rule']}"
        return None
