"""CUPTI reads the runtime's launch log when it flushes."""

from itertools import accumulate

from repro.sim import CudaRuntime, Cupti, KernelClass, KernelSpec, VirtualClock, get_system
from repro.sim.cupti import SUPPORTED_METRICS
from repro.sim.kernels import achieved_occupancy

V100 = get_system("Tesla_V100")


def spec(name="k"):
    return KernelSpec(name, KernelClass.GEMM, 1e6, 1e3, 1e3, blocks=10)


def test_domain_records_exactly_the_launches_made_while_enabled():
    rt = CudaRuntime(V100, VirtualClock())
    cupti = Cupti(rt)
    rt.launch_kernel(spec("before"))
    cupti.enable_callbacks()
    during = rt.launch_kernel(spec("during"))
    cupti.enable_activities()
    both = rt.launch_kernel(spec("both"))
    cupti.disable()
    rt.launch_kernel(spec("after"))
    callbacks, activities = cupti.flush()
    assert callbacks.correlation_id == [during.correlation_id,
                                        both.correlation_id]
    assert activities.name == ["both"]


def test_memcpys_merge_among_kernels_in_correlation_order():
    rt = CudaRuntime(V100, VirtualClock())
    cupti = Cupti(rt)
    cupti.enable_activities()
    rt.memcpy(100, kind="h2d")
    rt.launch_kernel(spec("a"))
    rt.launch_kernel(spec("b"))
    rt.memcpy(10, kind="d2h")
    rt.launch_kernel(spec("c"))
    rt.memcpy(20, kind="d2h")
    _, act = cupti.flush()
    assert act.name == ["[CUDA memcpy H2D]", "a", "b", "[CUDA memcpy D2H]",
                        "c", "[CUDA memcpy D2H]"]
    assert act.correlation_id == [1, 2, 3, 4, 5, 6]
    assert act.metric_values == [100.0, 10.0, 20.0]


def test_flushed_launches_leave_the_log():
    rt = CudaRuntime(V100, VirtualClock())
    cupti = Cupti(rt)
    cupti.enable_callbacks()
    for _ in range(3):
        rt.launch_kernel(spec())
    assert len(rt._launch_log) == 3
    cupti.flush()
    assert rt._launch_log == []


def test_idle_cupti_leaves_no_launch_in_the_log():
    """Launches made while every domain is off are never captured, so an
    idle Cupti does not hold them: the log stays empty however many."""
    rt = CudaRuntime(V100, VirtualClock())
    cupti = Cupti(rt)
    for _ in range(10_000):
        rt.launch_kernel(spec())
    assert not rt._launch_log
    cupti.enable_callbacks()
    on = rt.launch_kernel(spec("on"))
    cupti.disable()
    for _ in range(100):
        rt.launch_kernel(spec("off"))
    assert not rt._launch_log  # read at disable, none logged since
    callbacks, activities = cupti.flush()
    assert callbacks.correlation_id == [on.correlation_id]
    assert len(activities) == 0


def test_idle_cupti_does_not_cut_another_readers_launches():
    """A listening reader (the library tracer's) still reads every launch
    while a Cupti on the same runtime is idle or switches domains."""
    rt = CudaRuntime(V100, VirtualClock())
    read = rt.launch_reader()
    cupti = Cupti(rt)
    first = [rt.launch_kernel(spec()) for _ in range(3)]
    cupti.enable_activities()
    second = [rt.launch_kernel(spec()) for _ in range(2)]
    cupti.disable()
    assert read() == first + second
    assert cupti.flush()[1].correlation_id == [
        r.correlation_id for r in second
    ]
    third = rt.launch_kernel(spec())
    assert read() == [third]
    assert not rt._launch_log


def _per_launch_metrics(spec, gpu) -> list[float]:
    """Each supported metric of one launch, computed for that launch."""
    return [float(spec.flops), float(spec.dram_read_bytes),
            float(spec.dram_write_bytes), achieved_occupancy(spec, gpu)]


def test_drained_metric_values_equal_a_computation_per_launch():
    """A drain reads each distinct spec's grid, block and metrics once
    and shares them among its launches; every launch still reads what a
    computation of its own gives, also across the memcpys that split a
    drain, for equal specs that are not shared, and for ``-0.0``."""
    from repro.core.session import FRAMEWORKS
    from repro.models import get_model

    rt = CudaRuntime(V100, VirtualClock())
    cupti = Cupti(rt)
    cupti.enable_activities()
    cupti.enable_metrics(SUPPORTED_METRICS)
    plan = FRAMEWORKS["tensorflow_like"](rt).execution_plan(
        FRAMEWORKS["tensorflow_like"](rt).load(get_model(7).graph), 2)
    specs = [kernel for step in plan.steps for kernel in step.kernels or ()]
    specs += [spec("twin"), spec("twin"),
              KernelSpec("zero", KernelClass.ELEMENTWISE_EIGEN, -0.0, 0.0, 0.0,
                         blocks=3)]
    launched = []
    for i, kernel in enumerate(specs * 2):
        if i % 97 == 0:
            rt.memcpy(64, kind="h2d")
        rt.launch_kernel(kernel)
        launched.append(kernel)
    _, act = cupti.flush()
    kernels = [i for i, kind in enumerate(act.kind) if kind == "kernel"]
    assert len(kernels) == len(launched) > 2 * 200
    assert act.metric_names[kernels[0]] == SUPPORTED_METRICS
    width = len(SUPPORTED_METRICS)
    starts = list(accumulate(map(len, act.metric_names), initial=0))
    for row, kernel in zip(kernels, launched):
        values = act.metric_values[starts[row]:starts[row] + width]
        expected = _per_launch_metrics(kernel, V100)
        assert list(map(repr, values)) == list(map(repr, expected))
        assert (act.grid[row], act.block[row]) == (kernel.grid, kernel.block)
    assert repr(act.metric_values[starts[kernels[-1]]]) == "-0.0"
    # The two launches of one spec object share its value objects.
    first, again = kernels[0], kernels[len(specs)]
    assert act.grid[first] is act.grid[again]
    assert act.metric_values[starts[first]] is act.metric_values[starts[again]]
