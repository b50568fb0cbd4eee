"""Golden values that pin training and inference bit for bit.

Each case trains a small fixed-seed model on a fixed synthetic volume and
super-resolves a fixed LR volume.  The checkpoint checksum and the CRC32 of
the ``infer_volume`` output were recorded before the conv engine was
rewritten (kn2row few-output-channel conv, a sub-pixel deconv since
replaced, per-sample ops as B=1 wrappers) and held through it and through
the move to one model driver (``forward`` as the batched forward at B=1,
rounding to float32 after every layer; ``sgd_step`` on plain gradient
arrays), and through the move of weights, biases, training pairs and
``forward``'s input and output from the ``Tensor`` wrapper to plain float32
arrays, and through the training step that keeps only each layer's input
(no cached column matrix), and through the transposed conv computed as the
adjoint of the conv (its input gradient, summed from the bias), which sums
a k > r deconv's taps in another order in float64.  A kernel or driver
change that moves any weight or output by one float32 ULP fails here.  The
values hold for one and for two BLAS threads (OpenBLAS 0.3.31, x86-64
Haswell kernels); a BLAS whose GEMM sums in another order may need them
re-recorded.

* k=5/r=2: the deconv trims one row/column (k - r odd); the C_out=4 conv and
  the final conv take the few-output-channel kn2row path with more taps
  than fit one tap group; the first conv (C_out=8) takes the wide-layer
  im2col path (a GEMM on one sample's columns in the forward, groups of
  C_out // C_in = 8 taps in the backward), and so does the deconv, whose
  conv has in-plane stride 2 (groups of s1*s2*s3 = 4 taps).
* k=3/r=3: the paper's kernel/stride case, where the deconv kernel tiles
  the stride exactly.
"""

import zlib

import numpy as np
import pytest

from ctsr.model import ModelConfig, infer_volume, train
from ctsr.pipeline import gen_synthetic, make_pairs
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import Volume

CASES = {
    "k5r2": (
        dict(feature_depth=3, conv_layers=2, filters=(8, 4, 4, 1), kernel=5, scale=2,
             patch_hw=8, batch_size=4, epochs=3, lr=1e-3, seed=7),
        1984946169,
        3042247071,
    ),
    "k3r3": (
        dict(feature_depth=3, conv_layers=1, filters=(6, 4, 1), kernel=3, scale=3,
             patch_hw=6, batch_size=4, epochs=3, lr=1e-3, seed=8),
        1320548042,
        4131869403,
    ),
}


def _run(cfg_kwargs):
    cfg = ModelConfig(**cfg_kwargs)
    pairs = make_pairs(gen_synthetic("spheres", (16, 48, 48), seed=5), cfg, "g")
    params, report = train(cfg, pairs[:96:2], pairs[1:33:2])
    lr_vol = Volume(Tensor(uniform_init([5, 19, 14], 0, 1, Rng(6))))
    sr = infer_volume(params, lr_vol)
    return params, report, sr


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_and_inference_are_bit_identical(name):
    cfg_kwargs, want_ckpt, want_infer = CASES[name]
    params, report, sr = _run(cfg_kwargs)
    assert report.params_checksum == params.checksum()
    got_ckpt = params.checksum()
    got_infer = zlib.crc32(np.ascontiguousarray(sr.data.data).tobytes())
    assert (got_ckpt, got_infer) == (want_ckpt, want_infer)
