"""Hold the OpenBLAS bundled with numpy to one thread for the whole process.

Every pass over more than one window runs in chunks, one worker thread per
CPU, and a matrix product that OpenBLAS also splits over every CPU
oversubscribes them (timings in README "Memory allocator"). With one BLAS
thread everywhere, a seed gives the same bits on any CPU count.
``OPENBLAS_NUM_THREADS`` in the environment takes precedence, and without
numpy's bundled OpenBLAS (another BLAS, or a build that links a system
library) the thread count is left alone.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# thread-count setters of the OpenBLAS builds numpy's wheels bundle
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


def hold_one_thread() -> str:
    """Set numpy's bundled OpenBLAS to one thread; returns what was done.

    ``"one thread"`` when set; otherwise ``"skipped: <reason>"``, with the
    thread count left as it was: when ``OPENBLAS_NUM_THREADS`` is set, or
    when numpy bundles no OpenBLAS.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return "skipped: OPENBLAS_NUM_THREADS in the environment"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            put = getattr(lib, name, None)
            if put is not None:
                put.argtypes, put.restype = (ctypes.c_int,), None
                put(1)
                return "one thread"
    return "skipped: no OpenBLAS bundled with numpy"
