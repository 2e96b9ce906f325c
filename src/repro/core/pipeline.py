"""The automated analysis pipeline's data model.

The pipeline consumes traces from a user-defined number of evaluations at
each profiling level, correlates them, and summarizes repeated
measurements with a trimmed mean (paper Sec. III-D).  Its output is a
:class:`ModelProfile` — the accurate, merged, across-stack view of one
(model, system, framework, batch) combination — which all 15 analyses in
:mod:`repro.analysis` consume.

Profiles are frozen.  A profile keeps its layers in one
:class:`LayerTable` and its kernels in one :class:`KernelTable`, a list
per field; layer and kernel objects are views built on first read.
Kernel totals (the rule of Sec. III-D3) are folded once per layer, in
row order, into the layer table's one :class:`LayerTotals` columns;
:func:`kernels_by_name` groups same-named kernels for A10, the diff and
the insight rules.  The roofline formulas below are each written once
and called by the row views and the column passes alike.
:func:`profile_from_trace` derives a single-run profile from a trace
through its :class:`ProfileBuilder`, which advances over appended rows
the way the trace index does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.core.cells import INT, INT_OR_NULL, NUMBER, STR, Ints, column_fault
from repro.core.leveled import LeveledExperiment, LeveledResult
from repro.core.session import ProfilingConfig, XSPSession
from repro.core.stats import Statistic, one_sample_form, trimmed_mean
from repro.frameworks.graph import Graph
from repro.sim.hardware import GPUSpec, get_system
from repro.tracing.index import TraceIndex
from repro.tracing.span import Level, SpanKind
from repro.tracing.table import _KIND_CODE, NONE_ID, SpanTable
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - cache imports pipeline, not vice versa
    from repro.core.cache import ProfileStore
    from repro.insights.engine import InsightReport


# -- the roofline (paper Sec. III-D3): each formula once, for rows and columns


def dram_traffic(reads: float, writes: float) -> float:
    """DRAM bytes moved: reads plus writes."""
    return reads + writes


def flops_per_byte(flops: float, dram_bytes: float) -> float:
    """Arithmetic intensity; ``inf`` for compute with no DRAM traffic."""
    if dram_bytes == 0:
        return float("inf") if flops > 0 else 0.0
    return flops / dram_bytes


def tflops_per_s(flops: float, latency_ms: float) -> float:
    """Arithmetic throughput; 0.0 unless the latency is positive."""
    return 0.0 if latency_ms <= 0 else flops / (latency_ms / 1e3) / 1e12


def weighted_occupancy(weight: float, latency_ms: float) -> float:
    """Latency-weighted occupancy from its ``weight`` (occupancy times
    latency, added up); 0.0 unless there is latency."""
    return weight / latency_ms if latency_ms else 0.0


def is_memory_bound(arithmetic_intensity: float, gpu: GPUSpec) -> bool:
    """The paper's roofline rule: below the GPU's ideal intensity."""
    return arithmetic_intensity < gpu.ideal_arithmetic_intensity


def attainable_tflops(intensity: float, gpu: GPUSpec) -> float:
    """The roofline ceiling at ``intensity``: min(peak, AI × bandwidth)."""
    return min(gpu.peak_tflops, intensity * gpu.memory_bandwidth / 1e12)


def roofline_rows(
    flops: Sequence[float], reads: Sequence[float], writes: Sequence[float],
) -> tuple[list[int], list[float]]:
    """The rows of these columns the roofline places, those with DRAM
    traffic, and each one's arithmetic intensity."""
    dram = list(map(dram_traffic, reads, writes))
    rows = [row for row, traffic in enumerate(dram) if traffic > 0]
    return rows, [flops_per_byte(flops[row], dram[row]) for row in rows]


def roofline_coordinates(
    flops: Sequence[float], reads: Sequence[float], writes: Sequence[float],
    latency_ms: Sequence[float],
) -> tuple[list[int], list[float], list[float]]:
    """:func:`roofline_rows` and each row's throughput (A9, A14)."""
    rows, intensities = roofline_rows(flops, reads, writes)
    return rows, intensities, [tflops_per_s(flops[row], latency_ms[row])
                               for row in rows]


class _Roofline:
    """What ``latency_ms``, ``flops`` and DRAM reads/writes imply, the
    same way for one kernel and for an aggregate of kernels."""

    @property
    def dram_bytes(self) -> float:
        return dram_traffic(self.dram_read_bytes, self.dram_write_bytes)

    @property
    def arithmetic_intensity(self) -> float:
        return flops_per_byte(self.flops, self.dram_bytes)

    @property
    def arithmetic_throughput_tflops(self) -> float:
        return tflops_per_s(self.flops, self.latency_ms)

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

    def fold(
        self, rows: Iterable[int], totals: tuple = (0.0, 0.0, 0.0, 0.0, 0)
    ) -> tuple:
        """The one aggregation rule of A10, A11 and A15, continued from
        ``totals`` over ``rows``: latency, flops and DRAM reads/writes add
        up, and so does occupancy times latency.  The sums run left to
        right, in row order."""
        latencies, flops_of = self.latency_ms, self.flops
        reads_of, writes_of = self.dram_read_bytes, self.dram_write_bytes
        occupancies = self.achieved_occupancy
        latency, flops, reads, writes, weight = totals
        for i in rows:
            kernel_latency = latencies[i]
            latency += kernel_latency
            flops += flops_of[i]
            reads += reads_of[i]
            writes += writes_of[i]
            weight += occupancies[i] * kernel_latency
        return latency, flops, reads, writes, weight

    def aggregate(self, rows: Sequence[int],
                  totals: Sequence[float] | None = None) -> KernelAggregate:
        """:meth:`fold` over ``rows`` (unless their ``totals`` are known)
        as one :class:`KernelAggregate`."""
        latency, flops, reads, writes, weight = (
            self.fold(rows) if totals is None else totals)
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
        """Same-named kernels of ``rows`` aggregated together, in
        first-seen name order.  The grouping of all rows (the default) is
        computed once per table; callers must not change it."""
        if rows is None:
            return self.groups
        names = self.name
        groups: dict[str, list[int]] = {}
        for i in rows:
            groups.setdefault(names[i], []).append(i)
        return {name: self.aggregate(group) for name, group in groups.items()}

    @cached_property
    def groups(self) -> dict[str, KernelAggregate]:
        return self.by_name(range(len(self)))


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
        return weighted_occupancy(self.occupancy_weight, self.latency_ms)

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
    from ``kernels`` gets a one-layer table; row ``slot`` of a
    ``layer_table`` reads its kernels and totals from there."""

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
        layer_table: LayerTable | None = None, slot: int = 0,
    ) -> None:
        kernel_table = (KernelTable.from_kernels([kernels])
                        if layer_table is None else layer_table.kernels)
        # One dict update instead of the generated frozen __init__'s
        # object.__setattr__ per field (about twice as slow): the first
        # read of a profile's layers builds every one.
        self.__dict__.update(
            index=index, name=name, layer_type=layer_type, shape=shape,
            latency_ms=latency_ms, alloc_bytes=alloc_bytes, slot=slot,
            layer_table=layer_table, kernel_table=kernel_table,
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
        table = self.layer_table
        known = None if table is None else [
            column[self.slot] for column in table.totals]
        return self.kernel_table.aggregate(self.kernel_rows, known)

    @property
    def alloc_mb(self) -> float:
        return self.alloc_bytes / 1e6

    @property
    def non_gpu_latency_ms(self) -> float:
        """A13: layer latency minus its kernels' device time."""
        return max(0.0, self.latency_ms - self.kernel_latency_ms)

    def memory_bound(self, gpu: GPUSpec) -> bool:
        return self.totals.memory_bound(gpu)


#: A layer's fields in :class:`LayerProfile` order: one table column each.
LAYER_FIELDS = ("index", "name", "layer_type", "shape", "latency_ms",
                "alloc_bytes")
_layer_fields = attrgetter(*LAYER_FIELDS)
_profile_fields = attrgetter(
    "model_name", "system", "framework", "batch", "model_latency_ms",
    "overheads", "n_runs", "metadata")


class LayerTotals(NamedTuple):
    """Each layer's kernel totals (:meth:`KernelTable.fold`), by slot."""

    kernel_latency_ms: list[float]
    flops: list[float]
    dram_read_bytes: list[float]
    dram_write_bytes: list[float]
    occupancy_weight: list[float]

    @property
    def dram_bytes(self) -> list[float]:
        """Each slot's DRAM reads + writes."""
        return list(map(dram_traffic, self.dram_read_bytes,
                        self.dram_write_bytes))


class LayerTable:
    """A profile's layers, one list per :data:`LAYER_FIELDS` column; the
    layer in slot ``s`` owns rows ``starts[s]:starts[s + 1]`` of the
    kernel table ``kernels``.  :attr:`totals` folds each layer's kernels
    on first read unless the builder hands them in."""

    def __init__(self, columns: Sequence[list], kernels: KernelTable,
                 totals: LayerTotals | None = None) -> None:
        (self.index, self.name, self.layer_type, self.shape,
         self.latency_ms, self.alloc_bytes) = columns
        self.kernels = kernels
        if totals is not None:
            self.__dict__["totals"] = totals

    @property
    def columns(self) -> tuple[list, ...]:
        return _layer_fields(self)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def alloc_mb(self) -> list[float]:
        """Each slot's allocation in MB, as :attr:`LayerProfile.alloc_mb`."""
        return [alloc / 1e6 for alloc in self.alloc_bytes]

    @property
    def non_gpu_latency_ms(self) -> list[float]:
        """Each slot's :attr:`LayerProfile.non_gpu_latency_ms` (A13)."""
        return [ms - gpu_ms if ms > gpu_ms else 0.0 for ms, gpu_ms in zip(
            self.latency_ms, self.totals.kernel_latency_ms)]

    @cached_property
    def totals(self) -> LayerTotals:
        fold, starts = self.kernels.fold, self.kernels.starts
        folded = [fold(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
        columns = list(zip(*folded)) or [()] * len(LayerTotals._fields)
        return LayerTotals(*map(list, columns))

    def row(self, slot: int) -> LayerProfile:
        """Slot ``slot`` as a :class:`LayerProfile`, without the others."""
        return LayerProfile(*(column[slot] for column in self.columns),
                            layer_table=self, slot=slot)

    @cached_property
    def placed(self) -> tuple[list[int], list[float]]:
        """:func:`roofline_rows` of the layers' kernel totals: the slots
        the roofline places (A14) and their intensities."""
        totals = self.totals
        return roofline_rows(totals.flops, totals.dram_read_bytes,
                             totals.dram_write_bytes)

    def roofline(self, gpu: GPUSpec) -> list[tuple[int, bool]]:
        """``(slot, memory-bound)`` of each layer the roofline places."""
        slots, intensities = self.placed
        return list(zip(slots, map(is_memory_bound, intensities, repeat(gpu))))


@dataclass(frozen=True, init=False, eq=False)
class ModelProfile(_KernelTotals):
    """Accurate across-stack profile of one (model, system, framework, batch).

    Its layers are the rows of one ``layer_table`` over one
    ``kernel_table``; :attr:`layers` builds a :class:`LayerProfile` per
    row on first read.  A profile built from ``layers`` copies them into
    new tables.
    """

    model_name: str
    system: str
    framework: str
    batch: int
    model_latency_ms: float
    layers: tuple[LayerProfile, ...]
    #: Per-rung profiling overhead in ms, e.g. {"M/L": ..., "M/L/G": ...}.
    overheads: dict[str, float]
    n_runs: int
    metadata: dict[str, object]

    def __init__(
        self, model_name: str, system: str, framework: str, batch: int,
        model_latency_ms: float, layers: Sequence[LayerProfile] = (),
        overheads: dict[str, float] | None = None, n_runs: int = 1,
        metadata: dict[str, object] | None = None, *,
        layer_table: LayerTable | None = None,
    ) -> None:
        if layer_table is None:  # copy the layers' data into new tables
            layers = tuple(layers)
            layer_table = LayerTable(
                [list(column) for column in zip(*map(_layer_fields, layers))]
                or [[] for _ in LAYER_FIELDS],
                KernelTable.from_kernels(layer.kernels for layer in layers))
        self.__dict__.update(
            model_name=model_name, system=system, framework=framework,
            batch=batch, model_latency_ms=model_latency_ms,
            overheads={} if overheads is None else overheads, n_runs=n_runs,
            metadata={} if metadata is None else metadata,
            layer_table=layer_table, kernel_table=layer_table.kernels,
        )

    @cached_property
    def layers(self) -> tuple[LayerProfile, ...]:
        table = self.layer_table
        return tuple(
            LayerProfile(*fields, layer_table=table, slot=slot)
            for slot, fields in enumerate(zip(*table.columns))
        )

    def __eq__(self, other: object) -> bool:
        """Equal fields, layers and kernels, compared a column at a time."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.layer_table, other.layer_table
        return (_profile_fields(self) == _profile_fields(other)
                and mine.columns == theirs.columns
                and mine.kernels.starts == theirs.kernels.starts
                and mine.kernels.columns == theirs.kernels.columns)

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
        layers, table = self.layer_table.totals, self.kernel_table
        return table.aggregate(range(len(table)), (
            *map(sum, layers[:4]),
            sum(map(mul, table.achieved_occupancy, table.latency_ms))))

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

    The trace's :class:`ProfileBuilder` derives the layer and kernel
    tables from its columns, advanced over the rows appended since the
    previous call; no span, layer or kernel objects are built.
    """
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
        n_runs=1,
        metadata={"source": "trace", "trace_id": trace.trace_id},
        layer_table=_layer_table(trace),
    )


def _layer_table(trace: Trace) -> LayerTable:
    """The trace's layer table: its builder advanced to the watermark."""
    builder = trace.builder
    if builder is None or builder.table is not trace.table or builder.cold:
        builder = trace.builder = ProfileBuilder(trace.table)
    return builder.advance(trace.index)


def _splice(old: list, edits: list[tuple], new: list) -> list:
    """``old`` with ``old[lo:hi]`` replaced by ``new[a:b]`` for each
    ``(lo, hi, a, b)`` of the ascending ``edits``, which cover ``new``
    in order, as a new list."""
    if not edits:
        return old
    if edits[0][0] == len(old):  # all append, as in a cold derivation
        return old + new
    out, done = [], 0
    for lo, hi, a, b in edits:
        out += old[done:lo]
        out += new[a:b]
        done = hi
    out += old[done:]
    return out


#: The tags a layer span and a kernel execution span supply, each with
#: its cell kind and the value an absent tag reads as.
_LAYER_TAGS = (("layer_index", INT_OR_NULL, None),
               ("layer_type", STR, "unknown"), ("shape", Ints(), ()),
               ("alloc_bytes", INT, 0))
_KERNEL_TAGS = (*((f"metric.{name}", NUMBER, 0.0) for name in (
    "flop_count_sp", "dram_read_bytes", "dram_write_bytes",
    "achieved_occupancy")),
    ("grid", Ints(3), (1, 1, 1)), ("block", Ints(3), (1, 1, 1)))


def _tag_columns(table: SpanTable, rows: list[int], tags: tuple) -> list[list]:
    """Each tag's column over ``rows``, checked a column at a time against
    its cell kind; a bad value raises one ValueError naming the tag and
    the span."""
    keys, kinds, defaults = zip(*tags)
    columns = table.tag_columns(rows, keys, defaults)
    for key, kind, column in zip(keys, kinds, columns):
        bad = column_fault(column, kind)
        if bad is not None:
            at, how = bad
            row = rows[at]
            raise ValueError(f"span {table.name_of(row)!r} (span_id "
                             f"{table.span_id[row]}): tag {key!r}{how}")
    return columns


class ProfileBuilder:
    """The one trace-to-profile derivation, advanced like the trace index.

    :meth:`advance` reads the rows appended since its previous call and
    returns a new :class:`LayerTable`; like the index, it is advanced
    from one thread at a time.  Layers take their slot by a stable sort
    on the ``layer_index`` tag (``None`` sorts as 0 and takes its slot as
    its index).  A kernel execution row attaches through its ancestor
    chain to the enclosing layer, in row order within it, so new kernels
    land after the ones their layer holds and its totals fold on left to
    right.  Published lists are never changed, so a returned profile
    never changes.  Two inputs make the builder ``cold``, so the next
    call derives from row 0: a duplicated span id (ids then resolve
    last-write-wins) and a chain that meets a span id not in the trace
    yet (the kernel is left out until its ancestor lands).  The tags
    of the new rows are checked against their :mod:`~repro.core.cells`
    kinds; a bad one raises ValueError and the builder starts over.
    """

    def __init__(self, table: SpanTable) -> None:
        self.table, self.covered, self.cold = table, 0, False
        # Per slot: sort key, span row and kernel count, then the
        # LAYER_FIELDS columns (the index is None while untagged).
        self.keys, self.layer_rows, self.counts = [], [], []
        self.layers: list[list] = [[] for _ in LAYER_FIELDS]
        self.untagged = 0
        self.totals: LayerTotals | None = None  # folded on first need
        # The KERNEL_FIELDS columns.
        self.kernels: list[list] = [[] for _ in KERNEL_FIELDS]
        # span id -> row of the enclosing layer span (None: no layer).
        self.layer_of: dict[int, int | None] = {NONE_ID: None}
        self.last: LayerTable | None = None

    def advance(self, index: TraceIndex) -> LayerTable:
        """The layer table over the first ``index.covered`` rows."""
        n = index.covered
        row_by_id = index.row_by_id()
        if len(row_by_id) != n:
            if self.covered:
                self.__init__(self.table)  # start over from row 0
            self.cold = True
        lo = self.covered
        if lo == n and self.last is not None:
            return self.last
        if self.totals is None and self.last is not None:
            self.totals = self.last.totals
        level_rows = index.level_rows()
        layer_rows = level_rows.get(Level.LAYER, [])
        kernel_rows = level_rows.get(Level.GPU_KERNEL, [])
        kinds, execution = self.table.kind, _KIND_CODE[SpanKind.EXECUTION]
        try:
            self._add_layers(layer_rows[bisect_left(layer_rows, lo):])
            self._add_kernels([
                row for row in kernel_rows[bisect_left(kernel_rows, lo):]
                if kinds[row] == execution], row_by_id)
        except ValueError:  # a bad tag: keep no half-advanced state
            self.__init__(self.table)
            raise
        self.covered = n

        counts, columns = self.counts, self.layers
        kernels = KernelTable(self.kernels, [0, *accumulate(counts)])
        if self.untagged:  # indices follow the slots, which moved
            columns = [[slot if i is None else i
                        for slot, i in enumerate(columns[0])], *columns[1:]]
            kernels.layer_index = list(
                chain.from_iterable(map(repeat, columns[0], counts)))
        self.last = LayerTable(columns, kernels, self.totals)
        return self.last

    def _add_layers(self, rows: list[int]) -> None:
        """Insert new layer rows at their stable-sort slots."""
        if not rows:
            return
        table, m = self.table, len(rows)
        starts, ends, span_ids = table.start_ns, table.end_ns, table.span_id
        new = sorted(zip(*_tag_columns(table, rows, _LAYER_TAGS), rows),
                     key=lambda layer: layer[0] or 0)
        rows = [layer[-1] for layer in new]
        self.layer_of.update(zip(map(span_ids.__getitem__, rows), rows))
        tags = [layer[0] for layer in new]
        self.untagged += tags.count(None)
        keys = [layer[0] or 0 for layer in new]
        old = self.keys
        if not old or keys[0] >= old[-1]:  # all after the old slots
            edits = [(len(old), len(old), 0, m)]
        else:  # each run of new layers that goes before the same old slot
            at = [bisect_right(old, key) for key in keys]
            runs = [a for a in range(m) if not a or at[a] != at[a - 1]]
            edits = [(at[a], at[a], a, b)
                     for a, b in zip(runs, [*runs[1:], m])]
        zeros = [0.0] * m
        spliced = [
            _splice(old, edits, values) for old, values in zip(
                (self.keys, self.layer_rows, self.counts, *self.layers,
                 *(self.totals or ())),
                (keys, rows, [0] * m, tags, list(map(table.name_of, rows)),
                 [layer[1] for layer in new],
                 [tuple(layer[2]) for layer in new],
                 [(ends[row] - starts[row]) / 1e6 for row in rows],
                 [layer[3] for layer in new],
                 zeros, zeros, zeros, zeros, [0] * m))]
        self.keys, self.layer_rows, self.counts = spliced[:3]
        self.layers = spliced[3:9]
        if self.totals is not None:
            self.totals = LayerTotals(*spliced[9:])

    def _add_kernels(self, rows: list[int], row_by_id: dict[int, int]) -> None:
        """Append kernel rows (ascending, after every row held) to their
        layers."""
        layer_of, parents = self.layer_of, self.table.parent_id
        slot_of = dict(zip(self.layer_rows, range(len(self.layer_rows))))
        slot_of[None] = None  # outside any layer, or behind a missing id
        owned: dict[int, list[int]] = {}
        for row in rows:
            parent_id = parents[row]
            slot = slot_of[layer_of[parent_id] if parent_id in layer_of
                           else self._enclosing(parent_id, row_by_id)]
            if slot is not None:
                owned.setdefault(slot, []).append(row)
        if not owned:
            return
        counts, index = self.counts, self.layers[0]
        ends = list(accumulate(counts))
        slots, edits, rows, positions, layer_index = sorted(owned), [], [], [], []
        a = 0
        for slot in slots:
            new, count = owned[slot], counts[slot]
            b = a + len(new)
            edits.append((ends[slot], ends[slot], a, b))
            rows += new
            counts[slot] = count + b - a
            positions += range(count, count + b - a)
            layer_index += repeat(index[slot], b - a)
            a = b
        table = self.table
        ends, begins = table.end_ns, table.start_ns
        flops, reads, writes, occupancy, grid, block = _tag_columns(
            table, rows, _KERNEL_TAGS)
        added = KernelTable((
            list(map(table.name_of, rows)), layer_index, positions,
            [(ends[row] - begins[row]) / 1e6 for row in rows],
            list(map(float, flops)), list(map(float, reads)),
            list(map(float, writes)), list(map(float, occupancy)),
            list(map(tuple, grid)), list(map(tuple, block))), [])
        self.kernels = [_splice(old, edits, values)
                        for old, values in zip(self.kernels, added.columns)]
        if self.totals is not None:
            totals = [column[:] for column in self.totals]
            for slot, (_, _, a, b) in zip(slots, edits):
                folded = added.fold(range(a, b),
                                    tuple(column[slot] for column in totals))
                for column, value in zip(totals, folded):
                    column[slot] = value
            self.totals = LayerTotals(*totals)

    def _enclosing(self, parent_id: int,
                   row_by_id: dict[int, int]) -> int | None:
        """The layer row that the ancestor chain from ``parent_id``
        reaches; ``None`` when none does, or when the chain meets a span
        id not in the trace yet (the builder then goes ``cold``)."""
        layer_of, parents = self.layer_of, self.table.parent_id
        chain: list[int] = []
        while parent_id not in layer_of and parent_id not in chain:
            parent_row = row_by_id.get(parent_id)
            if parent_row is None:
                self.cold = True
                return None
            chain.append(parent_id)
            parent_id = parents[parent_row]
        owner = layer_of.get(parent_id)  # None on a parent cycle
        for seen in chain:
            layer_of[seen] = owner
        return owner


def _statistic_name(statistic: Statistic) -> str:
    """Identity of the merge statistic for cache keying."""
    return getattr(statistic, "__qualname__", None) or repr(statistic)


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

    def sweep(self, graph: Graph,
              batches: Sequence[int]) -> dict[int, ModelProfile]:
        """Profiles across batch sizes (A1 / Fig. 3 / Fig. 10 / Table VI)."""
        return {b: self.profile_model(graph, b) for b in batches}

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
        views = [_layer_table(run.trace) for run in leveled.runs_at("M/L")]
        firsts = views[0]
        # Metric runs report clean single-pass CUPTI kernel durations.
        metric_views = [_layer_table(run.trace)
                        for run in leveled.runs_at("M/L/G+metrics")]
        tables = [view.kernels for view in metric_views]
        first = tables[0]
        if metric_views[0].index != firsts.index or any(
                t.layer_index != first.layer_index
                or t.position != first.position for t in tables):
            raise ValueError("the leveled runs disagree on the kernels "
                             "each layer launched")
        one = (one_sample_form(self.statistic)
               if len(views) == len(tables) == 1 else None)
        latency = list(map(one, first.latency_ms)) if one else [
            self.statistic(list(samples))
            for samples in zip(*(t.latency_ms for t in tables))]
        kernels = KernelTable(
            (*first.columns[:3], latency, *first.columns[4:]), first.starts
        )
        layer_latency = list(map(one, firsts.latency_ms)) if one else [
            self.statistic([v.latency_ms[slot] for v in views if slot < len(v)])
            for slot in range(len(firsts))
        ]
        return ModelProfile(
            model_name=leveled.model_name,
            system=leveled.system,
            framework=leveled.framework,
            batch=leveled.batch,
            model_latency_ms=leveled.model_latency_ms,
            overheads=leveled.overhead_ladder(),
            n_runs=len(views),
            layer_table=LayerTable(
                (*firsts.columns[:4], layer_latency, firsts.alloc_bytes),
                kernels),
        )
