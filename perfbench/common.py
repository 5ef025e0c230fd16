"""Plumbing shared by the workloads: paths, scratch space, samples,
per-run outcome, and the class-level timing patches the traced runs use.

Every workload runs in its own process (``run.py`` is invoked once per
workload), reads and writes only inside the checkout, and imports
``repro`` from the checkout's ``src/`` directory — the package is not
installed.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats

__all__ = ["ROOT", "SRC", "HostSpeed", "Outcome", "Samples", "WorkDir",
           "child_env", "peak_rss_mb", "timed_method", "repeat_for"]

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the ``repro`` package's sources live.
SRC = ROOT / "src"
#: Scratch space for run directories, stores and journals (git-ignored).
WORK_ROOT = ROOT / ".perfbench_work"


def child_env() -> dict:
    """Environment for ``python -m repro`` children: import the
    checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class WorkDir:
    """A private scratch directory under ``.perfbench_work``, removed on
    exit (with the parent when it is left empty)."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, exc_type, exc, tb) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
        return False


class Samples:
    """Latency or duration samples of one operation kind.

    A failed operation is recorded as ``inf``: it counts as missing
    every latency limit instead of silently leaving the sample.
    """

    def __init__(self) -> None:
        self.values: list[float] = []

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def fail(self) -> None:
        self.values.append(float("inf"))

    def __len__(self) -> int:
        return len(self.values)

    def p(self, q: float, scale: float = 1.0) -> float:
        """The ``q``-th percentile times ``scale`` (0 when empty)."""
        return stats.percentile(self.values, q) * scale if self.values \
            else 0.0


#: Iterations of the reference kernel: about 15 ms on the reference host
#: when it is quiet, 25 ms when its neighbours are busy.
REFERENCE_LOOPS = 200_000
REFERENCE_REPEATS = 3


def _reference_kernel() -> int:
    total = 0
    for index in range(REFERENCE_LOOPS):
        total += index * index % 7
    return total


class HostSpeed:
    """How fast the host runs right now: the time of a fixed pure-Python
    computation, taken just before each repetition of a workload.

    On a shared host the same work takes anywhere from 1x to 1.8x as long
    from one minute to the next, and the workloads and this kernel mostly
    slow down together.  A repetition's time divided by the probe taken
    just before it (in *refs*, multiples of the kernel's time) therefore
    varies less from run to run than the wall time.  It does not cancel
    a slowdown the single-threaded kernel does not feel, such as one on
    the second vCPU only.  The kernel runs in the benchmark's process
    between repetitions, never beside the program.
    """

    def __init__(self) -> None:
        self.samples = Samples()

    def probe(self) -> float:
        """Time the kernel (median of a few runs), in seconds."""
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            _reference_kernel()
            times.append(time.perf_counter() - start)
        ref = stats.median(times)
        self.samples.add(ref)
        return ref


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a ``BENCHMARK.json`` metric name to ``(value,
    samples)``; ``details`` holds further untraced figures shown by name
    (``(value, unit, samples)``) but not gated; ``checks`` maps each
    correctness check to whether it held.
    """

    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool) -> None:
        """Record a check; a check seen twice must hold every time."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MB
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextlib.contextmanager
def timed_method(owner, name: str, samples: Samples):
    """Time every call of ``owner.name`` into ``samples`` while active.

    ``owner`` is a class (patches every instance) or one object.  Calls
    that raise are recorded as failures.  The original attribute is
    restored on exit.
    """
    original = getattr(owner, name)
    had_own = name in vars(owner)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            samples.fail()
            raise
        samples.add(time.perf_counter() - start)
        return result

    setattr(owner, name, wrapper)
    try:
        yield samples
    finally:
        if had_own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


def repeat_for(seconds: float, body, minimum: int = 2):
    """Call ``body(index)`` until ``seconds`` are spent, at least
    ``minimum`` times.

    A new call starts only when the median call so far is expected to
    finish inside the budget, so a run lasts about ``seconds`` rather
    than overshooting by a whole call.
    """
    started = time.perf_counter()
    durations: list[float] = []
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if index >= minimum and (
                elapsed + stats.median(durations) > seconds):
            break
        begin = time.perf_counter()
        body(index)
        durations.append(time.perf_counter() - begin)
        index += 1
    return index
