"""Suite-wide guard: a gradient, once stored, is never written again.

Every array ``Tensor._accum`` stores is marked read-only, so an op or a
caller that writes into a stored gradient fails at that write.
"""

import pytest

from twins.autodiff import Tensor


@pytest.fixture(autouse=True)
def read_only_gradients(monkeypatch):
    accum = Tensor._accum

    def guarded(self, g):
        accum(self, g)
        self._grad.flags.writeable = False

    monkeypatch.setattr(Tensor, "_accum", guarded)
