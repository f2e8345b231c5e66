"""Write the checkpoint-compatibility fixtures read by test_checkpoint_compat.

For each attention variant: a TWSFORE1 checkpoint of a freshly built,
untrained micro model, its forecast of one fixed window, and the loss and
every parameter gradient of one forward/backward on that window and a fixed
target. The fixtures pin the parameter init, the forward pass and the
backward pass of the commit that wrote them, so run this with that commit's
package first on the path, e.g.

    PYTHONPATH=<old checkout>/src python tests/fixtures/make_checkpoints.py

The committed fixtures hold every layer's ``subnet.w_p`` at the config's
widest P, the layout before each layer's was sized at its own P, so they
are also the test that this layout still loads. Do not regenerate them
with a newer package: that would drop the legacy-load test.
"""

import os

import numpy as np

import twins.autodiff as ad
import twins.model as md
import twins.training as tr

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = ("mhsa", "twins", "twins_plus")


def micro_config(variant: str) -> md.ModelConfig:
    return md.ModelConfig(C=2, L=16, T=4, d=2, num_scales=3, n_layers=2,
                          scales=(4, 2), heads=2, aware_heads=2, k=3, h=8,
                          ffn_hidden=8, variant=variant, seed=7)


def main() -> None:
    window = np.random.default_rng(3).normal(size=(1, 2, 16))
    target = np.random.default_rng(4).normal(size=(2, 4))
    forecasts = {"window": window}
    grads = {"window": window, "target": target}
    for variant in VARIANTS:
        model = md.TwinSModel(micro_config(variant))
        tr.save_checkpoint(model, os.path.join(HERE, f"{variant}.ckpt"))
        with ad.no_grad():
            forecasts[variant] = model.forward(window).data
        loss = ad.mse(model.forward(window), ad.Tensor(target))
        ad.backward(loss)
        grads[f"{variant}/loss"] = loss.data
        for name, t in model.params.items():
            grads[f"{variant}/{name}"] = t.grad
    np.savez(os.path.join(HERE, "forecasts.npz"), **forecasts)
    np.savez(os.path.join(HERE, "grads.npz"), **grads)


if __name__ == "__main__":
    main()
