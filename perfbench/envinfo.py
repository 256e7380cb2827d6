"""Environment facts recorded with each set of runs. Everything here is read;
nothing sets a thread count."""

from __future__ import annotations

import ctypes
import os
import platform

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def _loaded_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.rsplit(None, 1)[-1]
            if "openblas" in os.path.basename(path) and path.endswith(".so") and path not in paths:
                paths.append(path)
    return paths


def blas_threads() -> dict:
    """Library file name -> the thread count it reports. Opening a library
    that is already mapped returns the same handle, so this loads nothing."""
    out = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def program_environment() -> dict:
    """Facts of the process that ran the program; call after numpy and scipy
    have been imported and used."""
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RMT_WORKERS")},
    }
