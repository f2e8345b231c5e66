"""Wavelet-convolution transformer for multivariate time-series forecasting."""

from ._alloc import tune_allocator

__version__ = "0.1.0"

# once per process, on first import: see _alloc and _blas. The heap is
# tuned first, before _blas imports numpy.
allocator_status = tune_allocator()

from ._blas import hold_one_thread  # noqa: E402

blas_status = hold_one_thread()
