"""Shared measurement helpers for the benchmark workloads."""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass, field


#: Duration of one :func:`reference_kernel` call on an uncontended core
#: of the reference host (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_MS = 1.1


def reference_kernel() -> float:
    """Time (ms) of a fixed pure-Python kernel that shares no code with
    the program: dict updates, allocation, ``str`` and a sort."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    items = []
    for i in range(3000):
        key = i % 61
        counts[key] = counts.get(key, 0) + i
        items.append((key, str(i)))
    items.sort()
    return (time.perf_counter() - t0) * 1e3


class SpeedProbe:
    """Samples the host's current CPU speed between operations.

    The host's cores run the same Python code up to ~1.5x slower for
    seconds-to-minutes at a time (contention from outside the machine).
    Reference-kernel samples interleaved with the operations measure how
    slow the core was over the same stretch of time; dividing measured
    times by :attr:`slowdown` reports them at uncontended-core speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 3) -> None:
        self.samples.extend(reference_kernel() for _ in range(n))

    @property
    def slowdown(self) -> float:
        """Trimmed mean kernel time over :data:`REFERENCE_MS`.

        The slowest tenth of samples is dropped: a collector pause or
        another thread taking the interpreter lock lands in a sample, not
        in the core's speed.
        """
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        kept = ordered[: max(1, len(ordered) * 9 // 10)]
        return statistics.mean(kept) / REFERENCE_MS


@dataclass
class Measurement:
    """What one measured phase of a workload produced.

    ``latencies_ms`` holds one sample per attempted operation (for the
    live workload, one lag per published chunk); ``busy_s`` is the time
    the operations themselves took, which for a closed loop excludes the
    output checks run between them.  The ``*_ms``/``ops_per_s``
    properties are wall-clock figures rescaled by :attr:`probe`'s
    slowdown; ``raw_*`` are as read from the clock.
    """

    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    #: False when the op rate is set by an open-loop schedule, not by
    #: how fast the core runs the program: then it is not rescaled.
    rate_follows_core: bool = True
    #: Workload-specific figures (e.g. the live generator's lateness).
    extra: dict[str, float] = field(default_factory=dict)
    #: One line per failed check, for the run's stderr.
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def raw_ops_per_s(self) -> float:
        return self.attempted / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def raw_p50_ms(self) -> float:
        return statistics.median(self.latencies_ms)

    @property
    def raw_p90_ms(self) -> float:
        return quantile(self.latencies_ms, 0.9)

    @property
    def ops_per_s(self) -> float:
        if not self.rate_follows_core:
            return self.raw_ops_per_s
        return self.raw_ops_per_s * self.probe.slowdown

    @property
    def p50_ms(self) -> float:
        return self.raw_p50_ms / self.probe.slowdown

    @property
    def p90_ms(self) -> float:
        return self.raw_p90_ms / self.probe.slowdown


def closed_loop(jobs, n_ops: int, run, check, recorder=None) -> Measurement:
    """One client runs ``n_ops`` jobs (cycling through ``jobs``), the next
    starting when the previous returns.  ``run(i, job)`` is timed; then,
    untimed and unrecorded, ``check(job, outcome)`` returns a problem
    description or ``None``, and the core speed is sampled."""
    m = Measurement()
    for i in range(n_ops):
        job = jobs[i % len(jobs)]
        t0 = time.perf_counter()
        try:
            outcome, problem = run(i, job), None
        except Exception as err:  # a failed op is counted, not fatal
            outcome, problem = None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        m.attempted += 1
        m.busy_s += elapsed
        m.latencies_ms.append(elapsed * 1e3)
        with paused(recorder):
            problem = problem or check(job, outcome)
        if problem:
            m.fail(f"{job}: {problem}")
        m.probe.sample()
    return m


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@contextlib.contextmanager
def paused(recorder):
    """Suspend span recording (output checks are not the program's work)."""
    if recorder is None:
        yield
        return
    recorder.enabled = False
    try:
        yield
    finally:
        recorder.enabled = True


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``repro.cli.main`` in-process with stdout/stderr captured."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() if code == 0 else out.getvalue() + err.getvalue()
