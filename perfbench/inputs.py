"""Seeded workload inputs.

Everything a workload feeds the program — the campaign's point list, the
triage corpus and op mix, the live capture pool and its publication
order — is a pure function of the workload name and ``--seed``.  The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from repro.models import get_model, list_models

#: Seed kept out of every tuning run; a change that claims a gain must
#: also show it on this seed.
HELD_OUT_SEED = 9173

#: Systems with >= 16 GB of device memory: every zoo model fits at every
#: batch drawn below, so no campaign point fails with out-of-memory.
SYSTEMS = ("Quadro_RTX", "Tesla_V100", "Tesla_P100")
FRAMEWORKS = ("tensorflow_like", "mxnet_like")
BATCHES = (1, 2, 4, 8, 16, 32, 64)

#: VGG16, VGG19 and AlexNet raise ``KeyError: 'BiasAdd'`` when loaded by
#: the mxnet_like framework (frameworks/optimizer.py); routed around.
MXNET_BROKEN = frozenset({16, 17, 32})

#: Spans in one M/L/G evaluation of a zoo model (tensorflow_like, batch
#: 1), grouped into narrow strata of like architectures: inputs are drawn
#: per stratum so that every seed's artifacts cost about the same to read.
TINY_SPANS = dict.fromkeys(
    (15, 18, 20, 23, 24, 25, 26, 27, 28, 29, 30, 31, 33, 34, 35, 36, 37), 346)
MID_SPANS = {4: 2008, 6: 2023, 9: 2023}  # ResNet-152 variants
BIG_SPANS = {48: 2930, 49: 3007}  # Mask R-CNN segmenters
STRATA = (tuple(TINY_SPANS), tuple(MID_SPANS), tuple(BIG_SPANS))


def rng_for(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes.
    return random.Random(f"{workload}:{seed}")


def _batches(model_id: int, cap: int = 64) -> list[int]:
    sweep = get_model(model_id).sweep_batches
    return [b for b in BATCHES if b in sweep and b <= cap]


# -- zoo_campaign ----------------------------------------------------------


@dataclass(frozen=True)
class Point:
    model: int
    batch: int
    system: str
    framework: str


def campaign_points(seed: int) -> list[Point]:
    """Every (model, framework) pair of the zoo once, in seeded order,
    each with a seeded batch and one of 2-3 seeded systems."""
    rng = rng_for("zoo_campaign", seed)
    systems = sorted(rng.sample(SYSTEMS, rng.choice((2, 3))))
    points = []
    for entry in list_models():
        batches = _batches(entry.model_id)
        for framework in FRAMEWORKS:
            if framework == "mxnet_like" and entry.model_id in MXNET_BROKEN:
                continue
            points.append(Point(entry.model_id, rng.choice(batches),
                                rng.choice(systems), framework))
    rng.shuffle(points)
    return points


# -- artifact_triage -------------------------------------------------------


@dataclass(frozen=True)
class Capture:
    """A saved ``repro trace --output`` capture (one evaluation)."""

    name: str
    model: int
    batch: int
    framework: str


@dataclass(frozen=True)
class AppCapture:
    """A saved ``profile_application`` capture of several evaluations."""

    name: str
    models: tuple[int, ...]
    batch: int


@dataclass(frozen=True)
class Coord:
    """Profile-store coordinates, warmed during set-up."""

    model: int
    batch: int
    framework: str

    @property
    def spec(self) -> str:
        return f"model={self.model},batch={self.batch},framework={self.framework}"


@dataclass(frozen=True)
class TriageOp:
    #: diff_store | diff_trace | advise_trace | chrome_app
    kind: str
    #: Artifact names (captures, apps) or coordinate specs.
    args: tuple[str, ...]
    #: Self-diffs run under ``--max-regression 0.0``.
    gate: bool = False


@dataclass(frozen=True)
class TriagePlan:
    captures: tuple[Capture, ...]
    apps: tuple[AppCapture, ...]
    coords: tuple[Coord, ...]
    ops: tuple[TriageOp, ...]


TRIAGE_CYCLES = 40
#: Spans per application capture (tensorflow_like, batch 1).
APP_SPANS = 20_000


def _app_models(rng: random.Random) -> tuple[int, ...]:
    """Seeded mid/big models, topped up with tiny ones, totalling
    ``APP_SPANS`` to ``APP_SPANS + 1000`` spans."""
    sizes = {**MID_SPANS, **BIG_SPANS}
    models, total = [], 0
    while True:
        model = rng.choice(tuple(sizes))
        if total + sizes[model] > APP_SPANS + 1000:
            break
        models.append(model)
        total += sizes[model]
    while total < APP_SPANS:
        model = rng.choice(STRATA[0])
        models.append(model)
        total += TINY_SPANS[model]
    return tuple(models)


def triage_plan(seed: int) -> TriagePlan:
    """Corpus and op mix.

    One tiny, one mid and one big model are captured under both
    frameworks; two mid models are warmed in the store under both.  The
    mix repeats a cycle of ten jobs, shuffled within the cycle, whose
    artifacts rotate with a period of two cycles, so every 20 jobs have
    the same composition whatever the seed: three advise jobs (one per
    stratum), five diffs of mid/big artifacts and two Chrome exports.
    The median then falls inside the diffs and the 90th percentile in
    the middle of the exports, not in a gap between job kinds.
    """
    rng = rng_for("artifact_triage", seed)
    captures: list[Capture] = []
    for stratum in STRATA:
        model = rng.choice(stratum)
        batch = rng.choice(_batches(model, cap=4))
        captures.extend(Capture(f"m{model}_{fw}_b{batch}", model, batch, fw)
                        for fw in FRAMEWORKS)
    by_stratum = [captures[k:k + 2] for k in range(0, len(captures), 2)]
    apps = tuple(AppCapture(f"app{i}", _app_models(rng), 1) for i in range(2))
    coords: list[Coord] = []
    for model in rng.sample(STRATA[1], 2):
        batch = rng.choice(_batches(model, cap=8))
        coords.extend(Coord(model, batch, fw) for fw in FRAMEWORKS)
    coord_pairs = [coords[k:k + 2] for k in range(0, len(coords), 2)]

    ops: list[TriageOp] = []
    for cycle in range(TRIAGE_CYCLES):
        a, b = coord_pairs[cycle % 2]
        same = rng.choice(coord_pairs[(cycle + 1) % 2])
        ta, tb = by_stratum[1 + cycle % 2]
        other = by_stratum[1 + (cycle + 1) % 2]
        tself = rng.choice(other)
        batch_ops = [
            TriageOp("diff_store", (a.spec, b.spec)),
            TriageOp("diff_store", (same.spec, same.spec), gate=True),
            TriageOp("diff_trace", (ta.name, tb.name)),
            TriageOp("diff_trace", (other[0].name, other[1].name)),
            TriageOp("diff_trace", (tself.name, tself.name), gate=True),
            *(TriageOp("advise_trace", (rng.choice(pair).name,))
              for pair in by_stratum),
            *(TriageOp("chrome_app", (app.name,)) for app in apps),
        ]
        rng.shuffle(batch_ops)
        ops.extend(batch_ops)
    return TriagePlan(tuple(captures), apps, tuple(coords), tuple(ops))


# -- live_capture ----------------------------------------------------------


@dataclass(frozen=True)
class LiveEval:
    """One real M/L/G evaluation in the live workload's capture pool."""

    model: int
    batch: int
    system: str
    framework: str


@dataclass(frozen=True)
class LivePlan:
    pool: tuple[LiveEval, ...]
    #: Pool indices in publication order; cut into captures by row count.
    order: tuple[int, ...]


LIVE_POOL = len(MID_SPANS) + len(BIG_SPANS)
LIVE_ORDER = 400


def live_plan(seed: int) -> LivePlan:
    rng = rng_for("live_capture", seed)
    pool = []
    # Mid and big models only: their evaluations split into chunks of
    # about the same size, so every seed offers the same chunk stream.
    models = list(STRATA[1] + STRATA[2])
    rng.shuffle(models)
    for model in models:
        framework = rng.choice(FRAMEWORKS)
        pool.append(LiveEval(model, rng.choice(_batches(model, cap=8)),
                             rng.choice(SYSTEMS), framework))
    order = tuple(rng.randrange(LIVE_POOL) for _ in range(LIVE_ORDER))
    return LivePlan(tuple(pool), order)


def dump(inputs) -> str:
    """Canonical JSON of generated inputs (byte-comparable across runs)."""
    if isinstance(inputs, list):
        return json.dumps([asdict(x) for x in inputs], sort_keys=True)
    return json.dumps(asdict(inputs), sort_keys=True)
