"""CUPTI reads the runtime's launch log when it flushes."""

from repro.sim import CudaRuntime, Cupti, KernelClass, KernelSpec, VirtualClock, get_system

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
