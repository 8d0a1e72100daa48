"""The box a number was measured on.

Every result carries this fingerprint, so a figure is never read
without the machine behind it (ROADMAP item 1: "inline cold points/s"
was 30.0, 51.6 and 74.8 in three files measured on three unrecorded
boxes).  ``process_parallelism`` is *measured*, not ``nproc``: shared
runners and SMT siblings routinely report cores that two pure-Python
processes cannot use, and a shard scaling number on such a box is
vacuous, not a pass.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: iterations of the pure-Python calibration burn (~0.25 s serial here)
_BURN_N = 2_500_000
#: below this measured 2-process parallelism a scaling figure is vacuous
VACUOUS_BELOW = 1.5


def _burn(n: int = _BURN_N) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def measure_process_parallelism(procs: int = 2) -> float:
    """``procs`` concurrent pure-Python burns against one: how many
    processes' worth of interpreter this box really runs at once
    (same burn idea as ``benchmarks/bench_shard_serve.py``)."""
    t0 = time.perf_counter()
    _burn()
    serial = time.perf_counter() - t0
    ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
    workers = [ctx.Process(target=_burn) for _ in range(procs)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    parallel = time.perf_counter() - t0
    return procs * serial / parallel


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def fingerprint(root: Path, measure_parallelism: bool) -> dict:
    import numpy

    from repro.serve.shm import resolve_transport

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _commit(root),
        "dev_shm": os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK),
        "shard_transport": resolve_transport("auto"),
        "executable": sys.executable,
    }
    if measure_parallelism:
        info["process_parallelism_2p"] = round(measure_process_parallelism(2), 3)
    return info
