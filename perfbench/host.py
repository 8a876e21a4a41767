"""The host a result was measured on.

Every run records ``nproc``, the Python version and a measured CPU
parallelism ceiling: the same fixed spin run in one process and then in
``nproc`` processes at once.  The ceiling is ``nproc`` times the single
spin's time divided by the parallel wall time -- what the box actually gave
two (or more) busy processes while this run was going, against which a
multi-process number can be read.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

_SPIN = "n = 0\nfor i in range({count}):\n    n += i * i\n"
_SPIN_COUNT = 1_500_000


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _spin_wall(processes: int) -> float:
    """Wall time of ``processes`` concurrent spins, started together."""
    code = _SPIN.format(count=_SPIN_COUNT)
    start = time.perf_counter()
    children = []
    try:
        for _ in range(processes):
            children.append(subprocess.Popen([sys.executable, "-S", "-c", code]))
        for child in children:
            child.wait(timeout=60)
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return time.perf_counter() - start


def describe() -> dict:
    """``nproc``, Python version and the measured parallelism ceiling."""
    nproc = cpu_count()
    single = min(_spin_wall(1) for _ in range(2))
    parallel = _spin_wall(nproc)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "parallel_ceiling": round(nproc * single / parallel, 3),
        "spin_single_s": round(single, 4),
        "spin_parallel_s": round(parallel, 4),
    }
