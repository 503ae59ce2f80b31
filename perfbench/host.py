"""Host fingerprint and BLAS thread pinning for the benchmark.

``pin_blas_env()`` must run before numpy is first imported: OpenBLAS
reads its thread count from the environment when it loads, and forked
``parallel-mp`` workers inherit the loaded library.  ``blas_threads()``
reads the count back from every OpenBLAS build loaded into the process
(numpy bundles one, scipy another) so a run whose kernels would
oversubscribe the cores fails loudly instead of reporting skewed times.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (thread-count query, config string) symbols of the OpenBLAS builds the
# numpy and scipy wheels bundle: numpy's ILP64 ``libscipy_openblas64_``
# suffixes them with "64_", scipy's LP64 ``libscipy_openblas`` does not.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)


def pin_blas_env() -> None:
    """Pin every BLAS threading knob to one thread (before numpy loads)."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_env() must run before numpy is imported")
    for var in BLAS_ENV:
        os.environ[var] = "1"


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> list[dict]:
    """Vendor, version and effective thread count of each loaded OpenBLAS.

    Imports numpy and scipy.linalg first so both bundled builds are
    mapped.  Raises ``RuntimeError`` when none can be queried.
    """
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    found = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for threads_sym, config_sym in _OPENBLAS_SYMBOLS:
            get_threads = getattr(lib, threads_sym, None)
            if get_threads is None:
                continue
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, config_sym)
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            config = get_config().decode()
            found.append({
                "library": os.path.basename(path),
                "vendor": "OpenBLAS",
                "version": config.split()[1] if config.startswith("OpenBLAS") else "",
                "config": config,
                "threads": int(get_threads()),
            })
            break
    if not found:
        raise RuntimeError("no OpenBLAS library with a thread-count query is loaded")
    return found


def require_single_thread_blas() -> list[dict]:
    """``blas_threads()``, failing loudly unless every library uses 1 thread."""
    libs = blas_threads()
    bad = [lib for lib in libs if lib["threads"] != 1]
    if bad:
        raise RuntimeError(f"BLAS is not pinned to one thread: {bad}")
    return libs


def _mem_total_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _source_identity(root: Path) -> dict:
    """Git commit when the tree is a repository, else a digest of src/."""
    ident: dict = {"git_commit": "unknown"}
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            )
            ident["git_commit"] = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    ident["src_sha256"] = digest.hexdigest()[:16]
    return ident


def fingerprint(root: Path, blas: list[dict]) -> dict:
    """Everything that explains this host's numbers, for every result."""
    import numpy
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "mem_total_mb": round(_mem_total_mb(), 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": max(lib["threads"] for lib in blas),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        **_source_identity(root),
    }


def _child_pids() -> list[int]:
    """Pids of every process, zombies included, whose parent is this one."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, deadline: float) -> bool:
    """Wait until ``deadline`` for child ``pid`` to end; True once reaped."""
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def join_pools(timeout: float = 10.0) -> None:
    """Wait for multiprocessing's children to end; stop any still alive."""
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Worker pools go first: forked workers hold a copy of the pipe that
    keeps multiprocessing's resource tracker alive.  The tracker comes
    next; left alone it outlives this process by however long it takes
    to notice the pipe closed.  Any other child still listed in /proc is
    terminated, then killed, and reaped last.
    """
    join_pools(timeout)
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for pid in _child_pids():
        if _reap(pid, time.monotonic() + 1.0):
            continue
        os.kill(pid, signal.SIGTERM)
        if not _reap(pid, time.monotonic() + 5.0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
