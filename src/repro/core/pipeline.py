"""The automated analysis pipeline's data model.

The pipeline consumes traces from a user-defined number of evaluations at
each profiling level, correlates them, and summarizes repeated
measurements with a trimmed mean (paper Sec. III-D).  Its output is a
:class:`ModelProfile` — the accurate, merged, across-stack view of one
(model, system, framework, batch) combination — which all 15 analyses in
:mod:`repro.analysis` consume.

Profiles are frozen.  Each layer and model computes its kernel totals
(:class:`KernelAggregate`, the rule of Sec. III-D3) once, on first
read; :func:`kernels_by_name` groups same-named kernels for A10, the
diff and the insight rules.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.leveled import LeveledExperiment, LeveledResult
from repro.core.session import ProfilingConfig, XSPSession
from repro.core.stats import Statistic, trimmed_mean
from repro.frameworks.graph import Graph
from repro.sim.hardware import GPUSpec, get_system
from repro.tracing.span import Level, SpanKind, seed_span_ids
from repro.tracing.table import _KIND_CODE, NONE_ID
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - cache imports pipeline, not vice versa
    from repro.core.cache import ProfileStore
    from repro.insights.engine import InsightReport


def is_memory_bound(arithmetic_intensity: float, gpu: GPUSpec) -> bool:
    """The paper's roofline rule: below the GPU's ideal intensity."""
    return arithmetic_intensity < gpu.ideal_arithmetic_intensity


class _Roofline:
    """What ``latency_ms``, ``flops`` and DRAM reads/writes imply, the
    same way for one kernel and for an aggregate of kernels."""

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte; ``inf`` for compute with no DRAM traffic."""
        dram_bytes = self.dram_bytes
        if dram_bytes == 0:
            return float("inf") if self.flops > 0 else 0.0
        return self.flops / dram_bytes

    @property
    def arithmetic_throughput_tflops(self) -> float:
        if self.latency_ms <= 0:
            return 0.0
        return self.flops / (self.latency_ms / 1e3) / 1e12

    def memory_bound(self, gpu: GPUSpec) -> bool:
        return is_memory_bound(self.arithmetic_intensity, gpu)


@dataclass(frozen=True)
class KernelProfile(_Roofline):
    """One GPU kernel invocation, merged across runs and correlated to its layer."""

    name: str
    layer_index: int
    position: int  # ordinal within the layer
    latency_ms: float
    flops: float
    dram_read_bytes: float
    dram_write_bytes: float
    achieved_occupancy: float
    grid: tuple[int, int, int]
    block: tuple[int, int, int]


#: A kernel's fields in :class:`KernelProfile` order: one table column each.
KERNEL_FIELDS = ("name", "layer_index", "position", "latency_ms", "flops",
                 "dram_read_bytes", "dram_write_bytes", "achieved_occupancy",
                 "grid", "block")
_kernel_fields = attrgetter(*KERNEL_FIELDS)


class KernelTable:
    """A profile's kernels, one list per :data:`KERNEL_FIELDS` column and
    contiguous by layer: the layer in slot ``s`` owns rows
    ``starts[s]:starts[s + 1]``.  It is the only store of kernel data;
    :attr:`kernels` builds :class:`KernelProfile` objects on first read."""

    def __init__(self, columns: Sequence[list], starts: list[int]) -> None:
        (self.name, self.layer_index, self.position, self.latency_ms,
         self.flops, self.dram_read_bytes, self.dram_write_bytes,
         self.achieved_occupancy, self.grid, self.block) = columns
        self.starts = starts

    @classmethod
    def from_kernels(
        cls, layers: Iterable[Sequence[KernelProfile]]
    ) -> "KernelTable":
        """The table of kernel objects given one sequence per layer."""
        layers = [tuple(kernels) for kernels in layers]
        rows = [kernel for kernels in layers for kernel in kernels]
        columns = [list(c) for c in zip(*map(_kernel_fields, rows))]
        table = cls(columns or [[] for _ in KERNEL_FIELDS],
                    [0, *accumulate(map(len, layers))])
        table.__dict__["kernels"] = tuple(rows)
        return table

    @property
    def columns(self) -> tuple[list, ...]:
        return _kernel_fields(self)

    def __len__(self) -> int:
        return len(self.name)

    @cached_property
    def kernels(self) -> tuple[KernelProfile, ...]:
        return tuple(map(KernelProfile, *self.columns))

    def row(self, i: int) -> KernelProfile:
        """Row ``i`` as an object, without building the others."""
        return KernelProfile(*(column[i] for column in self.columns))

    def aggregate(self, rows: Sequence[int]) -> KernelAggregate:
        """The one aggregation rule of A10, A11 and A15 over ``rows``:
        latency, flops and DRAM bytes add up, occupancy is weighted by
        latency.  The sums run left to right, in row order."""
        latencies, flops_of = self.latency_ms, self.flops
        reads_of, writes_of = self.dram_read_bytes, self.dram_write_bytes
        occupancies = self.achieved_occupancy
        latency = flops = reads = writes = 0.0
        weight = 0
        for i in rows:
            kernel_latency = latencies[i]
            latency += kernel_latency
            flops += flops_of[i]
            reads += reads_of[i]
            writes += writes_of[i]
            weight += occupancies[i] * kernel_latency
        # As LayerProfile: one dict update beats the frozen __init__.
        totals = KernelAggregate.__new__(KernelAggregate)
        totals.__dict__.update(
            table=self, rows=rows, latency_ms=latency, flops=flops,
            dram_read_bytes=reads, dram_write_bytes=writes,
            occupancy_weight=weight,
        )
        return totals

    def by_name(
        self, rows: Iterable[int] | None = None
    ) -> dict[str, KernelAggregate]:
        """Same-named kernels of ``rows`` (default: all) aggregated
        together, in first-seen name order."""
        names = self.name
        groups: dict[str, list[int]] = {}
        for i in range(len(names)) if rows is None else rows:
            groups.setdefault(names[i], []).append(i)
        return {name: self.aggregate(group) for name, group in groups.items()}


@dataclass(frozen=True, eq=False)
class KernelAggregate(_Roofline):
    """Totals over some rows of a :class:`KernelTable` (paper Sec. III-D3)."""

    table: KernelTable = field(repr=False)
    rows: Sequence[int] = field(repr=False)
    latency_ms: float
    flops: float
    dram_read_bytes: float
    dram_write_bytes: float
    occupancy_weight: float  #: occupancy times latency, added up

    @property
    def achieved_occupancy(self) -> float:
        """Latency-weighted occupancy."""
        return self.occupancy_weight / self.latency_ms if self.latency_ms else 0.0

    @property
    def count(self) -> int:
        return len(self.rows)

    @cached_property
    def kernels(self) -> tuple[KernelProfile, ...]:
        return tuple(map(self.table.kernels.__getitem__, self.rows))

    def layer_indices(self) -> tuple[int, ...]:
        """The first ten distinct layers hosting the kernels, in order."""
        layer_index = self.table.layer_index
        return tuple(dict.fromkeys(map(layer_index.__getitem__, self.rows)))[:10]


def kernels_by_name(
    kernels: KernelTable | Iterable[KernelProfile],
) -> dict[str, KernelAggregate]:
    """Same-named kernels aggregated together, in first-seen name order."""
    if not isinstance(kernels, KernelTable):
        kernels = KernelTable.from_kernels([tuple(kernels)])
    return kernels.by_name()


class _KernelTotals:
    """A layer's or model's kernel totals, read from the one
    :class:`KernelAggregate` (``totals``) it computes on first use."""

    kernel_latency_ms = property(attrgetter("totals.latency_ms"))
    flops = property(attrgetter("totals.flops"))
    dram_read_bytes = property(attrgetter("totals.dram_read_bytes"))
    dram_write_bytes = property(attrgetter("totals.dram_write_bytes"))
    dram_bytes = property(attrgetter("totals.dram_bytes"))
    #: Latency-weighted occupancy of the kernels (paper A11).
    achieved_occupancy = property(attrgetter("totals.achieved_occupancy"))
    arithmetic_intensity = property(attrgetter("totals.arithmetic_intensity"))
    arithmetic_throughput_tflops = property(
        attrgetter("totals.arithmetic_throughput_tflops")
    )


@dataclass(frozen=True, init=False, eq=False)
class LayerProfile(_KernelTotals):
    """One executed layer with accurate latency and correlated kernels:
    rows ``kernel_rows`` of its profile's ``kernel_table``.  A layer built
    from ``kernels`` gets a one-layer table; ``kernel_table`` and
    ``slot`` place it in an existing one instead."""

    index: int
    name: str
    layer_type: str
    shape: tuple[int, ...]
    latency_ms: float
    alloc_bytes: int
    kernels: tuple[KernelProfile, ...]

    def __init__(
        self, index: int, name: str, layer_type: str,
        shape: tuple[int, ...], latency_ms: float, alloc_bytes: int,
        kernels: Sequence[KernelProfile] = (), *,
        kernel_table: KernelTable | None = None, slot: int = 0,
    ) -> None:
        # One dict update instead of the generated frozen __init__'s
        # object.__setattr__ per field (about twice as slow): each live
        # refresh rebuilds every layer.
        self.__dict__.update(
            index=index, name=name, layer_type=layer_type, shape=shape,
            latency_ms=latency_ms, alloc_bytes=alloc_bytes, slot=slot,
            kernel_table=KernelTable.from_kernels([kernels])
            if kernel_table is None else kernel_table,
        )

    @property
    def kernel_rows(self) -> range:
        starts = self.kernel_table.starts
        return range(starts[self.slot], starts[self.slot + 1])

    @cached_property
    def kernels(self) -> tuple[KernelProfile, ...]:
        rows = self.kernel_rows
        return self.kernel_table.kernels[rows.start:rows.stop]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.kernel_rows, other.kernel_rows
        return _layer_fields(self) == _layer_fields(other) and all(
            a[mine.start:mine.stop] == b[theirs.start:theirs.stop]
            for a, b in zip(self.kernel_table.columns,
                            other.kernel_table.columns))

    def __hash__(self) -> int:
        return hash(_layer_fields(self))

    @cached_property
    def totals(self) -> KernelAggregate:
        return self.kernel_table.aggregate(self.kernel_rows)

    @property
    def alloc_mb(self) -> float:
        return self.alloc_bytes / 1e6

    @property
    def non_gpu_latency_ms(self) -> float:
        """A13: layer latency minus its kernels' device time."""
        return max(0.0, self.latency_ms - self.kernel_latency_ms)

    def memory_bound(self, gpu: GPUSpec) -> bool:
        return self.totals.memory_bound(gpu)


_layer_fields = attrgetter(
    "index", "name", "layer_type", "shape", "latency_ms", "alloc_bytes")
_profile_fields = attrgetter(
    "model_name", "system", "framework", "batch", "model_latency_ms",
    "overheads", "n_runs", "metadata")


@dataclass(frozen=True, eq=False)
class ModelProfile(_KernelTotals):
    """Accurate across-stack profile of one (model, system, framework, batch).

    Its layers slice its one ``kernel_table``; layers that do not slice
    one table in order are copied into a new one on construction."""

    model_name: str
    system: str
    framework: str
    batch: int
    model_latency_ms: float
    layers: tuple[LayerProfile, ...]
    #: Per-rung profiling overhead in ms, e.g. {"M/L": ..., "M/L/G": ...}.
    overheads: dict[str, float] = field(default_factory=dict)
    n_runs: int = 1
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        layers = self.layers
        table = layers[0].kernel_table if layers else None
        if table is None or len(table.starts) != len(layers) + 1 or any(
            layer.kernel_table is not table or layer.slot != slot
            for slot, layer in enumerate(layers)
        ):
            table = KernelTable.from_kernels(layer.kernels for layer in layers)
            object.__setattr__(self, "layers", tuple(
                LayerProfile(layer.index, layer.name, layer.layer_type,
                             layer.shape, layer.latency_ms, layer.alloc_bytes,
                             kernel_table=table, slot=slot)
                for slot, layer in enumerate(layers)
            ))
        self.__dict__["kernel_table"] = table

    def __eq__(self, other: object) -> bool:
        """Equal fields, layers and kernels, compared a column at a time."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.kernel_table, other.kernel_table
        return (_profile_fields(self) == _profile_fields(other)
                and list(map(_layer_fields, self.layers))
                == list(map(_layer_fields, other.layers))
                and mine.starts == theirs.starts
                and mine.columns == theirs.columns)

    # -- model-level -----------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Inputs per second; 0.0 when the profile has no model latency."""
        if self.model_latency_ms <= 0:
            return 0.0
        return self.batch / (self.model_latency_ms / 1e3)

    @property
    def gpu(self) -> GPUSpec:
        return get_system(self.system)

    # -- aggregates over kernels (paper A15) ------------------------------------
    @property
    def kernels(self) -> tuple[KernelProfile, ...]:
        return self.kernel_table.kernels

    @cached_property
    def totals(self) -> KernelAggregate:
        """Latency, flops and DRAM add up the layer totals; the occupancy
        weight adds up every kernel.  Both orders keep the model's
        numbers bit-identical to what they have always been."""
        layers = [layer.totals for layer in self.layers]
        table = self.kernel_table
        return KernelAggregate(
            table,
            range(len(table)),
            sum(t.latency_ms for t in layers),
            sum(t.flops for t in layers),
            sum(t.dram_read_bytes for t in layers),
            sum(t.dram_write_bytes for t in layers),
            sum(map(mul, table.achieved_occupancy, table.latency_ms)),
        )

    @property
    def gpu_latency_percentage(self) -> float:
        """Latency due to GPU kernel execution, relative to model latency."""
        if self.model_latency_ms == 0:
            return 0.0
        return 100.0 * self.kernel_latency_ms / self.model_latency_ms

    @property
    def memory_bound(self) -> bool:
        """Paper's roofline rule applied to the whole model (A15)."""
        return self.totals.memory_bound(self.gpu)


def profile_from_trace(trace: Trace) -> ModelProfile:
    """A single-run profile view of one captured across-stack trace.

    Layer spans supply the layer latencies; correlated execution spans
    supply the kernels and their ``metric.*`` tags.
    :meth:`AnalysisPipeline.merge` builds the accurate profile from one
    such view per leveled run.

    Accuracy note (paper Sec. III-C): a trace mixes levels captured in
    one run, so layer latencies carry the GPU-profiling overhead the
    leveled pipeline removes — good enough for diffing two traces
    captured the same way, not a substitute for the merged profile.

    Consumes the trace's columnar storage directly (row partitions from
    the index, read-only tag access) and fills the profile's kernel
    table column by column — no span or kernel objects are built.
    """
    layers, kernels = _layers_and_kernels(trace)
    predict = trace.first_named("predict")
    if predict is not None:
        model_latency_ms = predict.duration_ms
    else:
        lo, hi = trace.span_extent_ns()
        model_latency_ms = (hi - lo) / 1e6
    meta = trace.metadata
    return ModelProfile(
        model_name=str(meta.get("model", f"trace-{trace.trace_id}")),
        system=str(meta.get("system", "unknown")),
        framework=str(meta.get("framework", "unknown")),
        batch=int(meta.get("batch", 1)),
        model_latency_ms=model_latency_ms,
        layers=tuple(
            LayerProfile(*layer, kernel_table=kernels, slot=slot)
            for slot, layer in enumerate(layers)
        ),
        n_runs=1,
        metadata={"source": "trace", "trace_id": trace.trace_id},
    )


def _layers_and_kernels(trace: Trace) -> tuple[list[tuple], KernelTable]:
    """A trace's layers, as ``(index, name, layer_type, shape, latency_ms,
    alloc_bytes)`` tuples ordered by index, and its kernel table."""
    table = trace.table
    index = trace.index
    starts = table.start_ns
    ends = table.end_ns
    span_ids = table.span_id
    parents = table.parent_id
    level_rows = index.level_rows()

    layer_rows = level_rows.get(Level.LAYER, [])
    tagged_rows = sorted(
        zip(*table.tag_columns(
            layer_rows,
            ("layer_index", "layer_type", "shape", "alloc_bytes"),
            (None, "unknown", (), 0),
        ), layer_rows),
        key=lambda layer: layer[0] or 0,
    )
    # A layer's index is its tag, or else its position.
    indices = [int(slot if layer[0] is None else layer[0])
               for slot, layer in enumerate(tagged_rows)]
    # Kernels hang off their layer span directly, or — when the library
    # level was captured — via an intermediate cuDNN/cuBLAS API span, so
    # resolve through the ancestor chain up to the enclosing layer (its
    # position in ``tagged_rows``), once per parent span.
    row_by_id = index.row_by_id()
    layer_of: dict[int, int | None] = {NONE_ID: None}
    for slot, layer in enumerate(tagged_rows):
        layer_of[span_ids[layer[-1]]] = slot

    def enclosing_layer(parent_id: int) -> int | None:
        chain = []
        while parent_id not in layer_of and parent_id not in chain:
            chain.append(parent_id)
            parent_row = row_by_id.get(parent_id)
            parent_id = NONE_ID if parent_row is None else parents[parent_row]
        slot = layer_of.get(parent_id)  # None on a parent cycle
        for seen in chain:
            layer_of[seen] = slot
        return slot

    execution_code = _KIND_CODE[SpanKind.EXECUTION]
    kinds = table.kind
    owned: list[list[int]] = [[] for _ in tagged_rows]
    for row in level_rows.get(Level.GPU_KERNEL, []):
        if kinds[row] != execution_code:
            continue
        parent_id = parents[row]
        slot = (layer_of[parent_id] if parent_id in layer_of
                else enclosing_layer(parent_id))
        if slot is not None:  # else a kernel outside any layer span
            owned[slot].append(row)
    rows = [row for own in owned for row in own]
    flops, reads, writes, occupancy, grid, block = table.tag_columns(
        rows,
        ("metric.flop_count_sp", "metric.dram_read_bytes",
         "metric.dram_write_bytes", "metric.achieved_occupancy",
         "grid", "block"),
        (0.0, 0.0, 0.0, 0.0, (1, 1, 1), (1, 1, 1)),
    )
    kernels = KernelTable((
        list(map(table.name_of, rows)),
        [i for i, own in zip(indices, owned) for _ in own],
        [position for own in owned for position in range(len(own))],
        [(ends[row] - starts[row]) / 1e6 for row in rows],
        list(map(float, flops)),
        list(map(float, reads)),
        list(map(float, writes)),
        list(map(float, occupancy)),
        list(map(tuple, grid)),
        list(map(tuple, block)),
    ), [0, *accumulate(map(len, owned))])
    return [
        (index, table.name_of(row), str(layer_type), tuple(shape),
         (ends[row] - starts[row]) / 1e6, int(alloc_bytes))
        for index, (_, layer_type, shape, alloc_bytes, row)
        in zip(indices, tagged_rows)
    ], kernels


def _statistic_name(statistic: Statistic) -> str:
    """Identity of the merge statistic for cache keying."""
    return getattr(statistic, "__qualname__", None) or repr(statistic)


def _seed_worker_span_ids() -> None:
    """ProcessPoolExecutor initializer: give this worker its own id range.

    Workers inherit a fresh module state, so every worker's span counter
    would restart at 1 and spans profiled by different workers would
    share ids.  Seeding from the worker's pid puts each worker in a
    disjoint range (see :func:`repro.tracing.span.seed_span_ids`).
    """
    seed_span_ids(os.getpid())


def _sweep_worker(
    args: tuple[GPUSpec, str, int, Statistic, Graph, int],
) -> tuple[int, ModelProfile]:
    """Profile one batch size in a worker process (module-level: picklable).

    The session is rebuilt from the full :class:`GPUSpec` (not its name)
    so sweeps over custom, unregistered hardware specs profile the same
    hardware the parent pipeline does.
    """
    system, framework, runs_per_level, statistic, graph, batch = args
    session = XSPSession(system=system, framework=framework)
    pipeline = AnalysisPipeline(
        session, runs_per_level=runs_per_level, statistic=statistic
    )
    return batch, pipeline.profile_model(graph, batch)


class AnalysisPipeline:
    """End-to-end: leveled experiments -> merged :class:`ModelProfile`.

    With a :class:`~repro.core.cache.ProfileStore` attached, merged
    profiles are persisted to disk and later ``profile_model`` calls with
    the same (model, system, framework, batch, runs-per-level)
    coordinates — in this process or any other — skip the leveled
    experiment ladder entirely.
    """

    def __init__(
        self,
        session: XSPSession,
        *,
        runs_per_level: int = 3,
        statistic: Statistic = trimmed_mean,
        store: "ProfileStore | None" = None,
    ) -> None:
        self.session = session
        self.experiment = LeveledExperiment(
            session, runs_per_level=runs_per_level, statistic=statistic
        )
        self.statistic = statistic
        self.store = store

    # -- profile construction ---------------------------------------------------
    def profile_model(self, graph: Graph, batch: int) -> ModelProfile:
        """Run the full ladder and merge into an accurate profile."""
        cached = self._cached(graph, batch)
        if cached is not None:
            return cached
        leveled = self.experiment.run(graph, batch)
        profile = self.merge(leveled)
        if self.store is not None:
            self.store.put(
                profile,
                runs_per_level=self.experiment.runs_per_level,
                statistic=_statistic_name(self.statistic),
            )
        return profile

    def sweep(
        self,
        graph: Graph,
        batches: Sequence[int],
        *,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> dict[int, ModelProfile]:
        """Profiles across batch sizes (A1 / Fig. 3 / Fig. 10 / Table VI).

        ``parallel=True`` fans the uncached batch sizes out over worker
        processes (the simulator is deterministic, so the profiles are
        identical to a serial sweep).  Falls back to the serial path when
        the workload cannot be shipped to workers (e.g. an unpicklable
        custom statistic).
        """
        if not parallel or len(batches) < 2:
            return {b: self.profile_model(graph, b) for b in batches}

        cached = {b: self._cached(graph, b) for b in batches}
        missing = [b for b in batches if cached[b] is None]
        spec = (
            self.session.gpu,
            self.session.framework_cls.name,
            self.experiment.runs_per_level,
            self.statistic,
            graph,
        )
        try:
            pickle.dumps(spec)
        except Exception:
            return {b: self.profile_model(graph, b) for b in batches}
        computed: dict[int, ModelProfile] = {}
        if missing:
            with ProcessPoolExecutor(
                max_workers=min(max_workers or len(missing), len(missing)),
                initializer=_seed_worker_span_ids,
            ) as executor:
                for batch, profile in executor.map(
                    _sweep_worker, [spec + (b,) for b in missing]
                ):
                    computed[batch] = profile
            if self.store is not None:
                for profile in computed.values():
                    self.store.put(
                        profile,
                        runs_per_level=self.experiment.runs_per_level,
                        statistic=_statistic_name(self.statistic),
                    )
        return {b: cached[b] or computed[b] for b in batches}

    # -- insights ---------------------------------------------------------------
    def advise(
        self,
        graph: Graph,
        batch: int,
        *,
        sweep_batches: Sequence[int] | None = None,
        rules=None,
    ) -> "InsightReport":
        """Profile ``graph`` and run the insight engine over the result.

        The merged profile comes through the normal (cache-aware)
        :meth:`profile_model` path; one extra M/L/G evaluation supplies
        the raw trace (for timeline rules like idle-bubble detection) and
        the device-memory high-water mark; ``sweep_batches`` adds a cheap
        model-level-only latency sweep so the batch-scaling rules can
        place ``batch`` against the throughput knee.
        """
        # Imported lazily: insights consumes this module's ModelProfile.
        from repro.insights import advise
        from repro.workloads import measure_latency

        profile = self.profile_model(graph, batch)
        # Metric collection replays kernels (Sec. III-C), stretching the
        # device timeline; the advisory trace is captured metric-free so
        # idle-gap analysis sees the real execution schedule.
        run = self.session.profile(graph, batch, ProfilingConfig(metrics=()))
        sweep: dict[int, float] = {}
        for b in sorted(set(sweep_batches or ())):
            try:
                sweep[b] = measure_latency(self.session, graph, b, runs=1)
            except MemoryError:
                break  # larger batches cannot fit either
        return advise(
            profile,
            trace=run.trace,
            sweep=sweep,
            peak_device_memory_bytes=run.prediction.peak_device_memory_bytes,
            rules=rules,
        )

    def advise_live(
        self,
        graph: Graph,
        batch: int,
        *,
        evaluations: int = 2,
        rules=None,
        config: ProfilingConfig | None = None,
        poll_interval: float = 0.2,
    ):
        """Stream insight updates while a capture of ``graph`` is in flight.

        Runs an application-level capture (``evaluations`` back-to-back
        evaluations of ``graph`` at ``batch``) in a worker thread and
        yields :class:`~repro.insights.live.LiveUpdate` objects as its
        spans land on the tracing server: each finished evaluation is
        re-published onto the open application timeline, the attached
        :class:`~repro.insights.live.LiveMonitor` consumes the new rows
        through a stream cursor, and only rules whose ingredients changed
        since the last watermark are re-evaluated.  The last yielded
        update (``final=True``) carries the completed capture's report.
        """
        import threading

        from repro.insights.live import LiveMonitor

        server = self.session.server
        # Full coordinates up front: the live profile view derives its
        # (model, system, framework, batch) identity from this metadata.
        trace_id = server.begin_trace(
            model=graph.name,
            system=self.session.gpu.name,
            framework=self.session.framework_cls.name,
            batch=batch,
        )
        monitor = LiveMonitor(server, trace_id, rules=rules)
        # Metric collection replays kernels and stretches the device
        # timeline (Sec. III-C); live monitoring wants the real schedule.
        config = config or ProfilingConfig(metrics=())
        errors: list[BaseException] = []

        def work() -> None:
            try:
                self.session.profile_application(
                    [(graph, batch)] * evaluations,
                    name=f"live:{graph.name}",
                    config=config,
                    trace_id=trace_id,
                )
            except BaseException as err:  # propagated to the consumer
                errors.append(err)

        worker = threading.Thread(
            target=work, name="advise-live-capture", daemon=True
        )
        worker.start()
        try:
            while not monitor.done:
                was_alive = worker.is_alive()
                update = monitor.poll(timeout=poll_interval)
                if update is not None:
                    yield update
                elif errors:
                    break  # capture died without closing the trace
                elif not was_alive:
                    # Worker observed finished *before* an empty poll:
                    # the trace is closed and drained, nothing left.
                    break
        finally:
            worker.join(timeout=30)
            if not monitor.done:
                try:
                    server.end_trace(trace_id)
                except KeyError:
                    pass
        if errors:
            raise errors[0]

    def _cached(self, graph: Graph, batch: int) -> ModelProfile | None:
        if self.store is None:
            return None
        return self.store.get(
            graph.name,
            self.session.gpu.name,
            self.session.framework_cls.name,
            batch,
            self.experiment.runs_per_level,
            _statistic_name(self.statistic),
        )

    # -- merging ------------------------------------------------------------------
    def merge(self, leveled: LeveledResult) -> ModelProfile:
        """Combine per-level runs into one accurate profile.

        Every run is first reduced to its single-run view (the layers
        and kernel table :func:`profile_from_trace` reads).  Layer
        latencies are the statistic of the M/L views' latencies, position
        by position.  The kernel table is the first metric-collection
        view's, with each latency replaced by the statistic of that
        (layer index, position) across the metric runs, whose kernels
        must match.  The model latency comes from the M runs.
        """
        views = [_layers_and_kernels(r.trace)[0]
                 for r in leveled.runs_at("M/L")]
        firsts = views[0]
        # Metric runs report clean single-pass CUPTI kernel durations.
        metric_views = [_layers_and_kernels(run.trace)
                        for run in leveled.runs_at("M/L/G+metrics")]
        tables = [view[1] for view in metric_views]
        first = tables[0]
        if [layer[0] for layer in metric_views[0][0]] != [
                layer[0] for layer in firsts] or any(
                t.layer_index != first.layer_index
                or t.position != first.position for t in tables):
            raise ValueError("the leveled runs disagree on the kernels "
                             "each layer launched")
        latency = [self.statistic(list(samples))
                   for samples in zip(*(t.latency_ms for t in tables))]
        kernels = KernelTable(
            (*first.columns[:3], latency, *first.columns[4:]), first.starts
        )
        layers = tuple(
            LayerProfile(
                *layer[:4],
                self.statistic([v[slot][4] for v in views if slot < len(v)]),
                layer[5], kernel_table=kernels, slot=slot,
            )
            for slot, layer in enumerate(firsts)
        )
        return ModelProfile(
            model_name=leveled.model_name,
            system=leveled.system,
            framework=leveled.framework,
            batch=leveled.batch,
            model_latency_ms=leveled.model_latency_ms,
            layers=layers,
            overheads=leveled.overhead_ladder(),
            n_runs=len(views),
        )
