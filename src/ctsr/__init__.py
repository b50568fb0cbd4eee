"""Volumetric CT super-resolution toolkit.

From-scratch 3D convolution/deconvolution network with hand-written
backpropagation, a bicubic baseline, PSNR/SSIM metrics, and a paired-t-test
evaluation harness, driven by a small CLI.

Importing the package makes one BLAS thread the default: the conv engine's
thread pool (``ops._each_task``), which runs the engine's per-sample loops
and one task per inference tile, owns the CPUs, and a multi-threaded BLAS
under it would oversubscribe them.  A value already set in
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` wins.
The default has no effect when numpy was imported before ``ctsr``, since
BLAS reads these variables when numpy loads it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .ops import ConvGeometry  # noqa: E402  (after the BLAS thread default)
from .tensor import NonFiniteError, Rng, Tensor  # noqa: E402

__all__ = [
    "ConvGeometry",
    "NonFiniteError",
    "Rng",
    "Tensor",
    "__version__",
]
