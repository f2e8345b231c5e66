"""Hold the OpenBLAS bundled with numpy to one thread while chunks run.

The chunks of a pass already keep one worker thread busy per CPU. A matrix
product that OpenBLAS also splits over every CPU oversubscribes them, and
its idle threads spin while they wait for the next call: at the ETTh1 shape
on two CPUs, two chunk workers with two BLAS threads took a training step
in 424 ms against 339 ms for one worker, and 206-230 ms with one BLAS
thread. Without numpy's bundled OpenBLAS (another BLAS, or a build that
links a system library) the thread count is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds numpy's wheels bundle
_SYMBOLS = (("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.lru_cache(maxsize=None)
def _thread_calls():
    """(get, set) of numpy's bundled OpenBLAS, or None if there is none;
    looked up on first use."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextmanager
def one_thread():
    """Run the block with one BLAS thread, then restore the count."""
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
