"""Suite-wide guard: a gradient, once stored, is never written again.

Every array a tensor's record stores through ``accum`` is marked read-only,
so an op or a caller that writes into a stored gradient fails at that write.
The ``chunk_workers`` fixture sets how many workers run chunked passes.
"""

import pytest

from twins import model
from twins.autodiff import _Record


@pytest.fixture(autouse=True)
def read_only_gradients(monkeypatch):
    accum = _Record.accum

    def guarded(self, g):
        accum(self, g)
        self.grad.flags.writeable = False

    monkeypatch.setattr(_Record, "accum", guarded)


@pytest.fixture
def chunk_workers(monkeypatch):
    """``chunk_workers(n)``: later chunked passes run as on n CPUs, each
    worker count on a pool of its own that is shut down after the test."""
    def use(n):
        if model._pool is not None and model._pool is not shared:
            model._pool.shutdown()
        monkeypatch.setattr(model, "_cpus", lambda: n)
        monkeypatch.setattr(model, "_pool", None)

    shared = model._pool
    yield use
    if model._pool is not None and model._pool is not shared:
        model._pool.shutdown()
