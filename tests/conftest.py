"""Suite-wide guard: a gradient, once stored, is never written again.

Every array a tensor's record stores through ``accum`` is marked read-only,
so an op or a caller that writes into a stored gradient fails at that write.
"""

import pytest

from twins.autodiff import _Record


@pytest.fixture(autouse=True)
def read_only_gradients(monkeypatch):
    accum = _Record.accum

    def guarded(self, g):
        accum(self, g)
        self.grad.flags.writeable = False

    monkeypatch.setattr(_Record, "accum", guarded)
