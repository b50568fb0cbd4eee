"""Volumetric CT super-resolution toolkit.

From-scratch 3D convolution/deconvolution network with hand-written
backpropagation, a bicubic baseline, PSNR/SSIM metrics, and a paired-t-test
evaluation harness, driven by a small CLI.
"""

__version__ = "0.1.0"

from .ops import ConvGeometry
from .tensor import NonFiniteError, Rng, Tensor

__all__ = [
    "ConvGeometry",
    "NonFiniteError",
    "Rng",
    "Tensor",
    "__version__",
]
