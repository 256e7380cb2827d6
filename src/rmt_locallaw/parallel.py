"""Order-preserving parallel map over independent sample jobs, and the one
place that sets how many threads the BLAS may use.

`pmap` runs its jobs on `workers` threads with numpy's OpenBLAS pinned
to BLAS_THREADS (1) thread, so the cores are shared out by jobs alone and
none is oversubscribed. The pin also makes the BLAS thread count part of the
numerical setup: LAPACK gives different last bits at different thread
counts, so unpinned output bytes would depend on the host. Without that
library there is nothing to pin, and `blas_threads` raises.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .errors import RMTError

BLAS_THREADS = 1

# (set, get, config) entry points of the OpenBLAS build numpy ships; its
# 64-bit-integer interface carries the 64_ suffix.
_SYMBOLS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_")


def affinity_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def default_workers() -> int:
    return max(1, min(4, affinity_cores()))


@dataclass(frozen=True)
class BlasLibrary:
    """One OpenBLAS mapped into this process; `config` is its build string
    (version, kernel, thread limit) and `handle` its ctypes library."""

    name: str
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    handle: ctypes.CDLL


def _load(path: str) -> BlasLibrary | None:
    # dlopen of a mapped library returns the handle already in use; loads nothing
    lib = ctypes.CDLL(path)
    if not hasattr(lib, _SYMBOLS[0]):
        return None
    setter, getter, config = (getattr(lib, sym) for sym in _SYMBOLS)
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    config.argtypes, config.restype = [], ctypes.c_char_p
    return BlasLibrary(os.path.basename(path), config().decode().strip(), getter, setter, lib)


_library: BlasLibrary | None = None


def numpy_openblas() -> BlasLibrary:
    """The OpenBLAS numpy ships (numpy >= 2.0 wheels): the first library mapped
    into this process that exports its entry points, found on the first call.
    An RMTError names the missing symbol when none does."""
    global _library
    if _library is None:
        paths = []
        try:
            with open("/proc/self/maps") as fh:
                for line in fh:
                    path = line.rsplit(None, 1)[-1]
                    if "openblas" in os.path.basename(path) and ".so" in path and path not in paths:
                        paths.append(path)
        except OSError:
            pass
        _library = next((lib for lib in map(_load, paths) if lib is not None), None)
        if _library is None:
            raise RMTError(f"numpy's OpenBLAS is not loaded: no library in this process exports {_SYMBOLS[0]}")
    return _library


# OpenBLAS keeps one thread count per process, so pins from several threads
# share it: the first entry saves the count, the last exit restores it.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_threads = 0
_pin_saved = 0


@contextmanager
def blas_threads(k: int):
    """Run the block with numpy's OpenBLAS at k threads; the earlier count
    comes back on exit, also when the block raises. Blocks may nest or
    overlap across threads, all with the same k."""
    global _pin_depth, _pin_threads, _pin_saved
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"BLAS thread count must be an integer >= 1, got {k!r}")
    lib = numpy_openblas()  # raises when there is nothing to pin
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = lib.get_threads()
            lib.set_threads(k)
            _pin_threads = k
        elif k != _pin_threads:
            raise ValueError(f"BLAS is pinned to {_pin_threads} threads; cannot pin to {k} inside")
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                lib.set_threads(_pin_saved)


def pmap(fn, jobs, workers: int | None = None) -> list:
    """Apply fn to each job; results in job order regardless of scheduling.

    Jobs must be independent and seeded individually; threads are enough
    because the heavy kernels release the GIL inside LAPACK. Every job runs
    with the BLAS at BLAS_THREADS threads, on the serial path too, so the
    worker count changes speed only.
    """
    jobs = list(jobs)
    workers = workers if workers is not None else default_workers()
    with blas_threads(BLAS_THREADS):
        if workers <= 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
