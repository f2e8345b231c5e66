"""Checkpoints written by an earlier commit still load and forecast the same.

The fixtures under tests/fixtures come from tests/fixtures/make_checkpoints.py
run on an earlier commit: one freshly built, untrained micro model per
variant, its forecast of one window, and the loss and parameter gradients of
one forward/backward on that window and a fixed target. That commit stored
every layer's ``subnet.w_p`` at the config's widest P, so the fixtures also
check that this older layout still loads.
"""

import os

import numpy as np
import pytest

import twins.autodiff as ad
import twins.model as md
import twins.training as tr

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize("variant", ["mhsa", "twins", "twins_plus"])
def test_old_checkpoint_loads_and_forecasts(variant):
    loaded = tr.load_checkpoint(os.path.join(FIXTURES, f"{variant}.ckpt"))
    assert loaded.config.variant == variant

    # the file holds an untrained model, so a fresh build must match it
    fresh = md.TwinSModel(loaded.config)
    assert list(fresh.params) == list(loaded.params)
    for name, t in fresh.params.items():
        np.testing.assert_array_equal(t.data, loaded.params[name].data,
                                      err_msg=name)

    saved = np.load(os.path.join(FIXTURES, "forecasts.npz"))
    with ad.no_grad():
        got = loaded.forward(saved["window"]).data
    want = saved[variant]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("variant", ["mhsa", "twins", "twins_plus"])
def test_old_gradients_reproduced(variant):
    model = tr.load_checkpoint(os.path.join(FIXTURES, f"{variant}.ckpt"))
    saved = np.load(os.path.join(FIXTURES, "grads.npz"))
    loss = ad.mse(model.forward(saved["window"]), ad.Tensor(saved["target"]))
    ad.backward(loss)
    got = {"loss": loss.data}
    got.update((name, t.grad) for name, t in model.params.items())
    prefix = f"{variant}/"
    assert sorted(got) == sorted(k[len(prefix):] for k in saved.files
                                 if k.startswith(prefix))
    for name, g in got.items():
        want = saved[prefix + name]
        if name.endswith(".subnet.w_p"):
            # the fixtures hold every w_p at the widest P; the columns past
            # this layer's P were never read, so their gradient is zero
            P = g.shape[-1]
            assert not want[..., P:].any(), name
            want = want[..., :P]
        assert g.shape == want.shape, name
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name
