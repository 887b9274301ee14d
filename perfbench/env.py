"""Where the benchmark runs: paths, thread pinning and the environment record."""

from __future__ import annotations

import os
import platform
import sys
import tempfile
import time
from typing import Dict

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(REPO_ROOT, "src")
#: Service roots, span files and result records; ignored by git.
WORK_DIR = os.path.join(REPO_ROOT, ".perfbench-work")

#: Native thread pools pinned to one thread: the benchmark is one process
#: running one thread, so BLAS or OpenMP workers would measure the host.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: ``PYTHONHASHSEED`` of every run. String hashing fixes the layout of
#: every dict and set, and a random layout moved ``items_per_s`` by up to
#: 10% between runs of one seed; one fixed layout makes runs comparable.
HASH_SEED = "0"


def pin_threads() -> None:
    """Must run before numpy or scipy is first imported."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"


def add_src_path() -> bool:
    """Put the program's sources first on ``sys.path``; False if absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def _commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fsync_probe(directory: str, writes: int = 40) -> Dict[str, float]:
    """Median and max latency of a 4 KiB append plus fsync in ``directory``."""
    samples = []
    fd, path = tempfile.mkstemp(dir=directory, prefix="fsync-probe-")
    try:
        block = b"\0" * 4096
        for _ in range(writes):
            os.write(fd, block)
            started = time.perf_counter()
            os.fsync(fd)
            samples.append((time.perf_counter() - started) * 1000.0)
    finally:
        os.close(fd)
        os.unlink(path)
    samples.sort()
    return {"p50_ms": samples[len(samples) // 2], "max_ms": samples[-1]}


def record(directory: str) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "threads": {variable: os.environ.get(variable) for variable in THREAD_VARIABLES},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "fsync": fsync_probe(directory),
    }
