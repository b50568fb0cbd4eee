"""Per-slice bicubic resampling (Catmull-Rom kernel, a = -0.5, edge clamp).

Output pixel i samples the input at x = (i + 0.5) * (in/out) - 0.5, the
pixel-center convention, through the 4-tap cubic convolution kernel.  Axes
are separable.  Each slice is resampled on its own in float64: height first,
then width, each output row or column the sum of its four weighted taps
added in tap order -1, 0, 1, 2.  No BLAS call is involved, so the bits do
not depend on the thread count or on the volume's depth.  Results are
clipped back to [0, 1] (the kernel's negative lobes can overshoot) and
stored as float32.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor
from .volume import Volume, check_spacing, upsampled_spacing

CUBIC_A = -0.5


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
    """Resample the (H, W) axes of a [D, H, W] array one slice at a time,
    clipped to [0, 1], as float32."""
    idx_h, w_h = _axis_taps(vol.shape[1], out_h)
    idx_w, w_w = _axis_taps(vol.shape[2], out_w)
    # one (indices, weights) pair per tap, -1 to 2; a row tap scales whole rows
    row_taps = list(zip(idx_h.T.copy(), w_h.T[:, :, None].copy()))
    col_taps = list(zip(idx_w.T.copy(), w_w.T.copy()))
    out = np.empty((vol.shape[0], out_h, out_w), dtype=np.float32)
    for plane, dst in zip(vol, out):
        rows = _tap_sum(plane.astype(np.float64), row_taps, axis=0)
        np.clip(_tap_sum(rows, col_taps, axis=1), 0.0, 1.0, out=dst)
    return out


def _tap_sum(x: np.ndarray, taps: list, axis: int) -> np.ndarray:
    """Sum over the (indices, weights) taps, in order, of x's entries at the
    indices along axis times the weights."""
    acc = -0.0  # the additive identity: -0.0 + a == a, signed zeros included
    for idx, w in taps:
        tap = x.take(idx, axis=axis)
        tap *= w
        acc = np.add(acc, tap, out=tap)
    return acc


def center_crop_slices(shape, r: int) -> tuple[slice, slice]:
    """The (rows, cols) slices that crop the H and W of a [D, H, W] shape
    symmetrically to the largest multiples of r."""
    _, h, w = shape
    h2, w2 = (h // r) * r, (w // r) * r
    if h2 < r or w2 < r:
        raise ValueError(f"volume in-plane extents {h}x{w} too small for factor {r}")
    y0, x0 = (h - h2) // 2, (w - w2) // 2
    return slice(y0, y0 + h2), slice(x0, x0 + w2)


def center_crop_to_multiple(volume: Volume, r: int) -> Volume:
    """Crop H and W symmetrically to the largest multiples of r: the volume
    itself when they already are, else a cropped copy."""
    rows, cols = center_crop_slices(volume.shape, r)
    cropped = volume.data.data[:, rows, cols]
    if cropped.shape == volume.shape:
        return volume
    return Volume(Tensor(cropped.copy()), volume.spacing)


def downsample_axial(volume: Volume, r: int) -> Volume:
    """Reduce each axial slice to (H/r, W/r) by bicubic decimation (no
    pre-blur); depth is untouched and in-plane spacing grows by r.
    Extents not divisible by r are center-cropped first; the crop is a view
    of ``volume``, not a copy."""
    if r < 2:
        raise ValueError(f"scale factor must be >= 2, got {r}")
    dz, dy, dx = volume.spacing
    spacing = check_spacing((dz, dy * r, dx * r))
    rows, cols = center_crop_slices(volume.shape, r)
    hr = volume.data.data[:, rows, cols]
    return Volume(Tensor(_resample_planes(hr, hr.shape[1] // r, hr.shape[2] // r)), spacing)


def bicubic_upsample(volume: Volume, r: int) -> Volume:
    """Enlarge each axial slice to (H*r, W*r); the baseline SR method."""
    if r < 2:
        raise ValueError(f"scale factor must be >= 2, got {r}")
    spacing = upsampled_spacing(volume.spacing, r)
    d, h, w = volume.shape
    return Volume(Tensor(_resample_planes(volume.data.data, h * r, w * r)), spacing)
