"""Per-slice bicubic resampling (Catmull-Rom kernel, a = -0.5, edge clamp).

Output pixel i samples the input at x = (i + 0.5) * (in/out) - 0.5, the
pixel-center convention, through the 4-tap cubic convolution kernel.  Axes
are separable: height first, then width, in float64, and results are
clipped back to [0, 1] (the kernel's negative lobes can overshoot) and
stored as float32.

Each axis gathers its four taps of every output row or column before
summing them, [d, 4, H_out, W] and then [d, H_out, 4, W_out] float64 arrays.
A volume is resampled in depth slabs whose larger gather fits
GATHER_BUDGET_BYTES (16 MiB; at least one slice per slab): the whole-volume
gather of a 16x170x170 -> 16x510x510 upsample was 133 MB, most of the peak
memory of evaluating a bicubic baseline.  A volume whose gathers fit the
budget, such as 16x192x192 -> 16x64x64, runs as one slab.  einsum's width
sum can round the last float64 bit differently with the slab's depth, so a
float32 output element could change only where its float64 value lies
within 4.4e-16 of a float32 rounding tie; none did on the volumes checked.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor
from .volume import Volume

CUBIC_A = -0.5
GATHER_BUDGET_BYTES = 16 * 2**20


def cubic_kernel(s: np.ndarray) -> np.ndarray:
    """Keys cubic-convolution kernel with a = -0.5 (Catmull-Rom)."""
    s = np.abs(np.asarray(s, dtype=np.float64))
    a = CUBIC_A
    near = (a + 2.0) * s**3 - (a + 3.0) * s**2 + 1.0
    far = a * (s**3 - 5.0 * s**2 + 8.0 * s - 4.0)
    return np.where(s <= 1.0, near, np.where(s < 2.0, far, 0.0))


def _axis_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped tap indices [n_out, 4] and kernel weights [n_out, 4]."""
    x = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    base = np.floor(x).astype(np.int64)
    frac = x - base
    offsets = np.array([-1, 0, 1, 2])
    idx = np.clip(base[:, None] + offsets[None, :], 0, n_in - 1)
    weights = cubic_kernel(frac[:, None] - offsets[None, :])
    return idx, weights


def _resample_planes(vol: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample the (H, W) axes of a [D, H, W] array, clipped to [0, 1], as
    float32, one depth slab within GATHER_BUDGET_BYTES at a time."""
    depth, h, w = vol.shape
    idx_h, w_h = _axis_taps(h, out_h)
    idx_w, w_w = _axis_taps(w, out_w)
    slice_gather = 8 * 4 * out_h * max(w, out_w)
    slab = max(1, GATHER_BUDGET_BYTES // slice_gather)
    out = np.empty((depth, out_h, out_w), dtype=np.float32)
    for d0 in range(0, depth, slab):
        data = vol[d0 : d0 + slab].astype(np.float64)
        data = np.einsum("dkhw,hk->dhw", data[:, idx_h.T, :], w_h, optimize=True)
        data = np.einsum("dhkw,wk->dhw", data[:, :, idx_w.T], w_w, optimize=True)
        out[d0 : d0 + slab] = np.clip(data, 0.0, 1.0, out=data)
    return out


def center_crop_to_multiple(volume: Volume, r: int) -> Volume:
    """Crop H and W symmetrically to the largest multiples of r."""
    d, h, w = volume.shape
    h2, w2 = (h // r) * r, (w // r) * r
    if h2 < r or w2 < r:
        raise ValueError(f"volume in-plane extents {h}x{w} too small for factor {r}")
    if (h2, w2) == (h, w):
        return volume
    y0, x0 = (h - h2) // 2, (w - w2) // 2
    return Volume(
        Tensor(volume.data.data[:, y0 : y0 + h2, x0 : x0 + w2].copy()), volume.spacing
    )


def downsample_axial(volume: Volume, r: int) -> Volume:
    """Reduce each axial slice to (H/r, W/r) by bicubic decimation (no
    pre-blur); depth is untouched and in-plane spacing grows by r.
    Extents not divisible by r are center-cropped first."""
    if r < 2:
        raise ValueError(f"scale factor must be >= 2, got {r}")
    volume = center_crop_to_multiple(volume, r)
    d, h, w = volume.shape
    data = _resample_planes(volume.data.data, h // r, w // r)
    dz, dy, dx = volume.spacing
    return Volume(Tensor(data), (dz, dy * r, dx * r))


def bicubic_upsample(volume: Volume, r: int) -> Volume:
    """Enlarge each axial slice to (H*r, W*r); the baseline SR method."""
    if r < 2:
        raise ValueError(f"scale factor must be >= 2, got {r}")
    d, h, w = volume.shape
    data = _resample_planes(volume.data.data, h * r, w * r)
    dz, dy, dx = volume.spacing
    return Volume(Tensor(data), (dz, dy / r, dx / r))
