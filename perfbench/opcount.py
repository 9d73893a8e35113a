"""Computed operation counts for the pix2pix convolutions.

Counts come from the conv layer shapes seen in one real pass, not from a
clock, so they repeat exactly from run to run.  Every gemm of a layer has
the same ``(M, K, N)``:

* ``Conv2d``: ``M = out_channels``, ``K = in_channels * k * k``,
  ``N = out_h * out_w`` per sample;
* ``ConvTranspose2d``: ``M = out_channels * k * k``, ``K = in_channels``,
  ``N = in_h * in_w`` per sample.

A gemm costs ``2 * M * K * N`` FLOPs, and moves, by this count,
``4 * (K * N + M * K + M * N)`` bytes: the im2col columns, the weights
and the outputs, float32.  How many gemms a pass runs is the layer's own
``GEMM_COUNTS`` (the input-gradient gemm is skipped when backward is
called with ``need_input_grad=False``), the same accounting
``repro.obs.profile`` uses.
"""

from __future__ import annotations

import functools

PASSES = ("forward", "backward", "forward_eval", "forward_eval_folded")


def _conv_leaves(module):
    for _, sub in module.named_modules(""):
        if getattr(type(sub), "GEMM_COUNTS", None):
            yield sub


def _gemm_shape(layer, in_shape, out_shape) -> tuple[int, int, int]:
    k = layer.kernel
    if type(layer).__name__ == "ConvTranspose2d":
        return (layer.out_channels * k * k, layer.in_channels,
                in_shape[2] * in_shape[3])
    return (layer.out_channels, layer.in_channels * k * k,
            out_shape[2] * out_shape[3])


class OpCounter:
    """Shims conv leaves to tally per-sample gemm FLOPs and bytes."""

    def __init__(self, *modules):
        self.flops = 0
        self.bytes = 0
        self._wrapped = []
        for module in modules:
            for layer in _conv_leaves(module):
                for name in PASSES:
                    if name in type(layer).GEMM_COUNTS and hasattr(layer,
                                                                   name):
                        self._shim(layer, name)

    def _shim(self, layer, name):
        original = getattr(layer, name)
        gemms = type(layer).GEMM_COUNTS[name]
        counter = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            if name == "backward":
                need = kwargs.get("need_input_grad",
                                  args[1] if len(args) > 1 else True)
                count = gemms - (0 if need is not False else 1)
                in_shape, out_shape = layer._opcount_shapes
            else:
                in_shape, out_shape = args[0].shape, out.shape
                layer._opcount_shapes = (in_shape, out_shape)
                count = gemms
            m, k, n = _gemm_shape(layer, in_shape, out_shape)
            batch = in_shape[0]
            counter.flops += count * 2 * m * k * n * batch
            counter.bytes += count * 4 * (k * n + m * k + m * n) * batch
            return out

        setattr(layer, name, wrapper)
        self._wrapped.append((layer, name))

    def detach(self) -> None:
        for layer, name in self._wrapped:
            vars(layer).pop(name, None)
            vars(layer).pop("_opcount_shapes", None)
        self._wrapped.clear()


def count_ops(model, x1, y1) -> dict:
    """Per-sample gemm FLOPs and bytes: generator eval and one train step.

    ``model`` is a throwaway :class:`repro.gan.Pix2Pix` (the train step
    updates its weights); ``x1``/``y1`` are one ``(1, C, H, W)`` pair.
    """
    counter = OpCounter(model.generator)
    try:
        model.forecast(x1[0])
        eval_counts = (counter.flops, counter.bytes)
    finally:
        counter.detach()
    counter = OpCounter(model.generator, model.discriminator)
    try:
        model.train_step(x1, y1)
        train_counts = (counter.flops, counter.bytes)
    finally:
        counter.detach()
    return {
        "nn.eval.gemm_flops": eval_counts[0],
        "nn.eval.bytes_moved": eval_counts[1],
        "nn.train.gemm_flops": train_counts[0],
        "nn.train.bytes_moved": train_counts[1],
    }


def count_for(image_size: int, seed: int) -> dict:
    """:func:`count_ops` on a fresh ``default``-scale model."""
    import numpy as np

    from repro.config import get_scale
    from repro.gan import Pix2Pix, Pix2PixConfig

    model = Pix2Pix(Pix2PixConfig.from_scale(get_scale("default"),
                                             image_size=image_size,
                                             seed=seed))
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, (1, 4, image_size, image_size)).astype(
        np.float32)
    y1 = rng.uniform(-1, 1, (1, 3, image_size, image_size)).astype(
        np.float32)
    return count_ops(model, x1, y1)
