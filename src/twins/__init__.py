"""Wavelet-convolution transformer for multivariate time-series forecasting."""

from ._alloc import tune_allocator

__version__ = "0.1.0"

# once per process, on first import: see _alloc
allocator_status = tune_allocator()
