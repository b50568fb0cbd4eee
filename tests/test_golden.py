"""Golden values that pin training and inference bit for bit.

Each case trains a small fixed-seed model on a fixed synthetic volume and
super-resolves a fixed LR volume; it pins the checkpoint checksum and the
CRC32 of the ``infer_volume`` output.  A change to the engine or to the
training and inference loops that moves any weight or output by one
float32 ULP fails here.

* k=5/r=2: the deconv's taps reach one row/column past input x r (k - r
  odd), which the engine crops and its backward zero-pads back; the
  C_out=4 conv and the final conv take the narrow path, the transposed
  conv of the flipped kernel; the first conv (C_out=8) takes the
  wide-layer im2col path (one GEMM per sample over all taps, forward and
  backward), and so does the deconv, whose conv has in-plane stride 2.
* k=3/r=3: the paper's kernel/stride case, where the deconv kernel tiles
  the stride exactly.
* k=3/r=4: a kernel smaller than the stride; the deconv's taps stop one
  row/column short of input x r, so the engine's last row and column,
  which no tap reaches, hold the bias and count only in its gradient.

The values hold for one and for two BLAS threads (OpenBLAS 0.3.31, x86-64
Haswell kernels; the last test reruns every case with one thread); a BLAS
whose GEMM sums in another order may need them re-recorded.  They hold with
the engine's thread pool on as well: each case runs a second time with the
pool's cutoff at zero, which puts every per-sample loop over a batch on the
pool (the real cutoff leaves these small layers on the calling thread).

History: the values were last re-recorded when training and validation
moved from float64 to the parameters' float32, the precision inference
already ran in; before that they were k5r2 (1984946169, 3042247071) and
k3r3 (1320548042, 4131869403).  k3r4 was re-recorded once more when the
appended row and column came to hold the bias; before, they held zero and
the values were (2985986760, 2345297538).
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import ctsr
from ctsr import ops
from ctsr.model import ModelConfig, infer_volume, train
from ctsr.pipeline import gen_synthetic, make_pairs
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import Volume

CASES = {
    "k5r2": (
        dict(feature_depth=3, conv_layers=2, filters=(8, 4, 4, 1), kernel=5, scale=2,
             patch_hw=8, batch_size=4, epochs=3, lr=1e-3, seed=7),
        2309427585,
        1672342201,
    ),
    "k3r3": (
        dict(feature_depth=3, conv_layers=1, filters=(6, 4, 1), kernel=3, scale=3,
             patch_hw=6, batch_size=4, epochs=3, lr=1e-3, seed=8),
        4201338220,
        1440346816,
    ),
    "k3r4": (
        dict(feature_depth=3, conv_layers=1, filters=(6, 4, 1), kernel=3, scale=4,
             patch_hw=6, batch_size=4, epochs=3, lr=1e-3, seed=9),
        172451540,
        2126848006,
    ),
}


def _run(cfg_kwargs):
    cfg = ModelConfig(**cfg_kwargs)
    pairs = make_pairs(gen_synthetic("spheres", (16, 48, 48), seed=5), cfg, "g")
    params, report = train(cfg, pairs[:96:2], pairs[1:33:2])
    lr_vol = Volume(Tensor(uniform_init([5, 19, 14], 0, 1, Rng(6))))
    sr = infer_volume(params, lr_vol)
    return params, report, sr


@pytest.mark.parametrize("name, pooled", [
    param for name in sorted(CASES)
    for param in (pytest.param(name, False, id=name), pytest.param(name, True, id=f"{name}-pooled"))
])
def test_checkpoint_and_inference_are_bit_identical(name, pooled, monkeypatch):
    """``pooled`` sets the pool's cutoff to zero, so that every per-sample
    loop over more than one sample runs on the thread pool; every case is
    below the real cutoff."""
    if pooled:
        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", 0)
    cfg_kwargs, want_ckpt, want_infer = CASES[name]
    params, _, sr = _run(cfg_kwargs)
    got_ckpt = params.checksum()
    got_infer = zlib.crc32(np.ascontiguousarray(sr.data.data).tobytes())
    assert (got_ckpt, got_infer) == (want_ckpt, want_infer)


def test_values_hold_with_one_blas_thread():
    """Every case again in a fresh interpreter with one OpenBLAS thread: the
    thread count is fixed when numpy loads, and this suite otherwise runs
    with the default count."""
    src = str(Path(ctsr.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_checkpoint_and_inference_are_bit_identical"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6 passed" in proc.stdout
