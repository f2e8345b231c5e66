"""Keep freed heap memory in the process instead of returning it every step.

glibc serves each allocation above its mmap threshold with a fresh ``mmap``
and unmaps it on ``free``, and trims the heap top once more than its trim
threshold is free. A training step frees and reallocates the same
multi-megabyte temporaries every time, so with the defaults each step faults
its working set in again. Raising both thresholds lets the next step reuse
the freed blocks. Both are always set: setting either one switches off
glibc's dynamic mmap threshold, and a raised trim threshold alone is slower
than the defaults. glibc's own settings in the environment take precedence.
"""

from __future__ import annotations

import ctypes
import os

_M_TRIM_THRESHOLD = -1  # mallopt(3) parameter numbers
_M_MMAP_THRESHOLD = -3

# Large enough to keep the 11 MB temporaries of batch-64 scoring at the ETTh1
# shape in the heap; 8 MiB kept training fault-free but scored slower.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20

_ENV_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def tune_allocator() -> str:
    """Raise glibc's mmap and trim thresholds; returns what was done.

    ``"tuned"`` on glibc; otherwise ``"skipped: <reason>"``, with the
    allocator left as it was: on another C library, or when
    ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
    ``glibc.malloc.*`` entry of ``GLIBC_TUNABLES`` is set.
    """
    if (any(v in os.environ for v in _ENV_SETTINGS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return "skipped: glibc malloc settings in the environment"
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: no process handle (Windows)
        return "skipped: no C library handle"
    if not hasattr(libc, "gnu_get_libc_version"):
        return "skipped: not glibc"
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    ok &= mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return "tuned" if ok == 1 else "failed: mallopt refused a threshold"
