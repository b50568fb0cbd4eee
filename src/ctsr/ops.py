"""The network's convolution engine: forward and backward passes.

One engine computes every convolution and transposed convolution, on
float64 arrays in channel-major batch layout [C, B, D, H, W]; the model
drives it directly for training, validation and inference.  The public
ops ``conv3d_forward`` and ``deconv3d_forward`` are forward-only wrappers
that run it with B = 1 on float32 [C, D, H, W] arrays and cast the
result back to float32.

* Conv with more than ``_DIRECT_MAX_COUT`` output channels: im2col + GEMM
  on one sample's columns at a time; the backward regathers the layer input
  one tap group at a time, so no column matrix of a batch is ever built.
* Conv with fewer (the final 1-channel conv at the upsampled resolution):
  kn2row (Anderson et al., "Low-memory GEMM-based convolution algorithms
  for deep neural networks", arXiv:1709.03395).  One GEMM multiplies a
  group of kernel taps into the padded input and each tap's shifted window
  of the product is added into the output; the backward builds the
  tap-shifted gradient once per group for both d_w and d_x.
* Transposed conv: the sub-pixel view of a strided deconv (Shi et al.,
  ESPCN, arXiv:1609.05158).  With the kernel zero-padded to a multiple of
  the stride, each kernel offset deposits one dense block into a phase
  grid; for k == stride that is a single copy, with no scatter loop.

Gradients are hand-derived adjoints of the forward definitions.  The
transposed convolution is the exact adjoint of the convolution with
identical geometry: a conv weight block [C_out, C_in, k1, k2, k3]
reinterpreted as [C_in', C_out', k1, k2, k3] (same memory) satisfies
<conv(x), y> == <x, deconv(y)> for zero bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import NonFiniteError


def _as_triple(v, name: str) -> tuple[int, int, int]:
    if isinstance(v, (int, np.integer)):
        t = (int(v),) * 3
    else:
        t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"{name} must be an int or a 3-tuple, got {v!r}")
    return t


@dataclass(frozen=True)
class ConvGeometry:
    """Channel counts, kernel extents, per-axis stride and zero-padding.

    ``stride`` and ``padding`` accept a single int (isotropic) or a 3-tuple
    ordered (depth, height, width), like ``kernel``.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_triple(self.kernel, "kernel"))
        object.__setattr__(self, "stride", _as_triple(self.stride, "stride"))
        object.__setattr__(self, "padding", _as_triple(self.padding, "padding"))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if min(self.kernel) < 1:
            raise ValueError(f"kernel extents must be >= 1, got {self.kernel}")
        if min(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if min(self.padding) < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    def conv_output_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        out = []
        for ax, (n, k, s, p) in enumerate(
            zip(spatial, self.kernel, self.stride, self.padding)
        ):
            o = (n + 2 * p - k) // s + 1
            if o < 1:
                raise ValueError(
                    f"conv output extent {o} on axis {ax} "
                    f"(input {n}, kernel {k}, stride {s}, padding {p})"
                )
            out.append(o)
        return tuple(out)

    def deconv_output_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        out = []
        for ax, (n, k, s, p) in enumerate(
            zip(spatial, self.kernel, self.stride, self.padding)
        ):
            o = (n - 1) * s + k - 2 * p
            if o < 1:
                raise ValueError(
                    f"deconv output extent {o} on axis {ax} "
                    f"(input {n}, kernel {k}, stride {s}, padding {p})"
                )
            out.append(o)
        return tuple(out)


def _check_conv_args(x, weights, bias, geom: ConvGeometry, transposed: bool):
    if x.ndim != 4:
        raise ValueError(f"input must be [C, D, H, W], got shape {x.shape}")
    if transposed:
        expect_w = (geom.in_channels, geom.out_channels) + geom.kernel
    else:
        expect_w = (geom.out_channels, geom.in_channels) + geom.kernel
    if weights.shape != expect_w:
        raise ValueError(f"weights shape {weights.shape} != expected {expect_w}")
    if x.shape[0] != geom.in_channels:
        raise ValueError(f"input has {x.shape[0]} channels, geometry says {geom.in_channels}")
    if bias.shape != (geom.out_channels,):
        raise ValueError(f"bias shape {bias.shape} != ({geom.out_channels},)")


# ---------------------------------------------------------------------------
# The engine.
#
# Arrays are float64 in channel-major batch layout [C, B, D, H, W], so that a
# whole mini-batch shares each GEMM; the public ops further down run it with
# B = 1.
# ---------------------------------------------------------------------------


def _pad_b(x: np.ndarray, padding: tuple[int, int, int]) -> np.ndarray:
    if padding == (0, 0, 0):
        return x
    p1, p2, p3 = padding
    return np.pad(x, ((0, 0), (0, 0), (p1, p1), (p2, p2), (p3, p3)))


def _gather_columns_b(padded, kernel, stride, n_positions) -> np.ndarray:
    """[C, B, Dp, Hp, Wp] -> columns [C*k1*k2*k3, B*N], float64.

    Row order is (c, i, j, k) to match a reshaped weight block; column order
    is row-major over (batch, output grid).
    """
    c, b = padded.shape[:2]
    win = sliding_window_view(padded, kernel, axis=(2, 3, 4))
    win = win[:, :, :: stride[0], :: stride[1], :: stride[2]]
    win = win[:, :, : n_positions[0], : n_positions[1], : n_positions[2]]
    # order='C' materializes the gather in one pass so the reshape is free
    win = win.transpose(0, 5, 6, 7, 1, 2, 3, 4).astype(np.float64, order="C")
    n = b * n_positions[0] * n_positions[1] * n_positions[2]
    return win.reshape(c * kernel[0] * kernel[1] * kernel[2], n)


def _window(tap, stride, n_positions):
    """Per axis, the slice of a padded grid that kernel tap ``tap`` reads
    for every one of ``n_positions`` outputs."""
    return tuple(slice(t, t + s * n, s) for t, s, n in zip(tap, stride, n_positions))


# Few-output-channel layers (the final smoothing conv) skip im2col: its column
# matrix would be k1*k2*k3 times the activation, which is largest at the
# upsampled resolution.  They use kn2row instead.
_DIRECT_MAX_COUT = 4


def _kn2row_groups(padded, w64, geom: ConvGeometry, out_sp):
    """kn2row tap groups, in (i, j, k) tap order: (depth tap i, the group's
    in-plane taps as index arrays j and k, their stacked weights
    wt [taps*C_out, C_in], slab).

    ``slab`` [C_in, B, D', Hp, Wp] holds the padded input at the D' depth
    planes that depth tap i reads (a view when those are all of them).  A
    group stacks at most C_in // C_out taps, so its kn2row block
    [taps*C_out, B*D'*Hp*Wp] is never larger than the slab it is computed
    from.
    """
    s1 = geom.stride[0]
    k1, k2, k3 = geom.kernel
    plane = list(product(range(k2), range(k3)))
    per = max(1, geom.in_channels // geom.out_channels)
    for i in range(k1):
        slab = np.ascontiguousarray(padded[:, :, i : i + s1 * (out_sp[0] - 1) + 1 : s1])
        for t0 in range(0, len(plane), per):
            j, k = np.array(plane[t0 : t0 + per]).T
            wt = w64[:, :, i, j, k].transpose(2, 0, 1).reshape(-1, geom.in_channels)
            yield i, j, k, wt, slab


def _conv_fwd_b(xs, w64, b64, geom: ConvGeometry):
    """out [C_out, B, *out_sp] of the conv of xs [C_in, B, *in_sp].

    Wide layers multiply the reshaped weight block by one sample's im2col
    columns [C_in*k1*k2*k3, N] at a time.  Few-output-channel layers use
    kn2row (Anderson et al., arXiv:1709.03395): one
    [taps*C_out, C_in] @ [C_in, N_padded] GEMM per tap group, then each
    tap's shifted window of the product is added into the output.
    """
    out_sp = geom.conv_output_shape(xs.shape[2:])
    c_out, c_in = geom.out_channels, geom.in_channels
    batch = xs.shape[1]
    padded = _pad_b(xs, geom.padding)
    if c_out > _DIRECT_MAX_COUT:
        out = np.empty((c_out, batch) + out_sp)
        wm = w64.reshape(c_out, -1)
        for n in range(batch):
            cols = _gather_columns_b(padded[:, n : n + 1], geom.kernel, geom.stride, out_sp)
            out[:, n] = (wm @ cols).reshape((c_out,) + out_sp)
    else:
        out = np.zeros((c_out, batch) + out_sp)
        for _, j, k, wt, slab in _kn2row_groups(padded, w64, geom, out_sp):
            y = (wt @ slab.reshape(c_in, -1)).reshape((len(j), c_out) + slab.shape[1:])
            for t in range(len(j)):
                out += y[(t, ...) + _window((j[t], k[t]), geom.stride[1:], out_sp[1:])]
    out += b64[:, None, None, None, None]
    return out


def _conv_bwd_b(xs, w64, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _conv_fwd_b for input xs and output gradient
    g [C_out, B, *out_sp].

    The wide-layer backward takes groups of at most C_out // C_in taps, so
    that their im2col rows X are no larger than g: d_w = G @ X^T, and each
    tap's rows of W^T @ G are added onto its window of the padded d_xs.
    The kn2row backward builds, per tap group, the gradient shifted to every
    tap's offset on the padded grid, Gs [taps*C_out, N_padded], and takes
    d_w = Gs @ X^T and d_padded = W^T @ Gs from it.
    """
    c_out, c_in = geom.out_channels, geom.in_channels
    gm = g.reshape(c_out, -1)
    d_b = gm.sum(axis=1)
    out_sp = g.shape[2:]
    padded = _pad_b(xs, geom.padding)
    # the input's voxels within the padded grid
    crop = (slice(None), slice(None)) + _window(geom.padding, (1, 1, 1), xs.shape[2:])
    d_w = np.empty((c_out, c_in) + geom.kernel)
    d_pad = None
    if c_out > _DIRECT_MAX_COUT:
        d_pad = np.zeros(padded.shape) if need_dx else None
        taps = list(product(*(range(k) for k in geom.kernel)))
        per = max(1, c_out // c_in)
        for group in (taps[t0 : t0 + per] for t0 in range(0, len(taps), per)):
            index = (slice(None), slice(None)) + tuple(np.array(group).T)
            windows = [(slice(None), slice(None)) + _window(t, geom.stride, out_sp) for t in group]
            cols = np.stack([padded[w] for w in windows], axis=1).reshape(len(group) * c_in, -1)
            d_w[index] = (gm @ cols.T).reshape(c_out, c_in, len(group))
            if need_dx:
                wt = w64[index].reshape(c_out, -1)
                d_cols = (wt.T @ gm).reshape((c_in, len(group)) + g.shape[1:])
                for t, window in enumerate(windows):
                    d_pad[window] += d_cols[:, t]
        return d_w, d_b, d_pad[crop] if need_dx else None
    s1 = geom.stride[0]
    for i, j, k, wt, slab in _kn2row_groups(padded, w64, geom, out_sp):
        gs = np.zeros((len(j), c_out) + slab.shape[1:])
        for t in range(len(j)):
            gs[(t, ...) + _window((j[t], k[t]), geom.stride[1:], out_sp[1:])] = g
        gs = gs.reshape(len(j) * c_out, -1)
        d_w[:, :, i, j, k] = (
            (gs @ slab.reshape(c_in, -1).T).reshape(len(j), c_out, c_in).transpose(1, 2, 0)
        )
        if need_dx:
            d_slab = (wt.T @ gs).reshape(slab.shape)
            if d_pad is None and slab.shape == padded.shape:
                d_pad = d_slab  # the first group's slab spans the whole padded input
            else:
                if d_pad is None:
                    d_pad = np.zeros(padded.shape)
                d_pad[:, :, i : i + s1 * (out_sp[0] - 1) + 1 : s1] += d_slab
    return d_w, d_b, d_pad[crop] if need_dx else None


# A deposit block [C_out, s1, s2, s3, B, D, H, W] <-> its place in the phase
# grid, [C_out, B, D, s1, H, s2, W, s3].
_TO_GRID = (0, 4, 5, 1, 6, 2, 7, 3)
_TO_DEPOSIT = (0, 3, 5, 7, 1, 2, 4, 6)


def _phases(geom: ConvGeometry, xs_shape):
    """Sub-pixel view of a stride-s deconv (Shi et al., ESPCN, arXiv:1609.05158).

    With the kernel zero-padded to m = ceil(k/s) strides per axis, tap
    s*q + a of input voxel n lands on output s*(n + q) + a: the deposits
    [C_out, m1, s1, m2, s2, m3, s3, B, D, H, W] of offset q form one dense
    block of the phase grid [C_out, B, D+m1-1, s1, H+m2-1, s2, W+m3-1, s3].

    Returns m, the deposit and phase-grid shapes, (q, q's block index) for
    every offset, and a function giving the padding-cropped output view
    [C_out, B, *out_sp] of a phase-grid array.
    """
    in_sp = xs_shape[2:]
    m = tuple(-(-k // s) for k, s in zip(geom.kernel, geom.stride))
    deposits, grid = (geom.out_channels,), (geom.out_channels, xs_shape[1])
    for n, mm, s in zip(in_sp, m, geom.stride):
        deposits += (mm, s)
        grid += (n + mm - 1, s)
    blocks = []
    for q in product(*(range(mm) for mm in m)):
        index = (slice(None), slice(None))
        for qq, n in zip(q, in_sp):
            index += (slice(qq, qq + n), slice(None))
        blocks.append((q, index))
    flat = grid[:2] + tuple(n * s for n, s in zip(grid[2::2], grid[3::2]))
    crop = (slice(None), slice(None)) + tuple(
        slice(p, p + o) for p, o in zip(geom.padding, geom.deconv_output_shape(in_sp))
    )

    def output(full):
        return full.reshape(flat)[crop]

    return m, deposits + tuple(xs_shape[1:]), grid, blocks, output


def _padded_kernel(w64, m, stride) -> np.ndarray:
    """[C_in, C_out, k1, k2, k3] zero-padded to m*s taps per axis and
    flattened to [C_in, C_out*m1*s1*m2*s2*m3*s3]."""
    k1, k2, k3 = w64.shape[2:]
    wp = np.zeros(w64.shape[:2] + tuple(mm * s for mm, s in zip(m, stride)))
    wp[:, :, :k1, :k2, :k3] = w64
    return wp.reshape(w64.shape[0], -1)


def _deconv_fwd_b(xs, w64, b64, geom: ConvGeometry):
    """Transposed conv by phases: one deposit GEMM with the zero-padded
    kernel, then one dense block add per kernel offset.  A kernel that fits
    in the stride (k <= s, as k == r) has a single offset, whose block is
    placed, bias added, in one copy."""
    m, dep_shape, grid, blocks, output = _phases(geom, xs.shape)
    dep = _padded_kernel(w64, m, geom.stride).T @ xs.reshape(geom.in_channels, -1)
    dep = dep.reshape(dep_shape)
    if len(blocks) == 1:
        full = np.empty(grid)
        bias = b64.reshape((-1,) + (1,) * 7)
        np.add(dep[:, 0, :, 0, :, 0].transpose(_TO_GRID), bias, out=full)
        return output(full)
    full = np.zeros(grid)
    for (q1, q2, q3), index in blocks:
        full[index] += dep[:, q1, :, q2, :, q3].transpose(_TO_GRID)
    return output(full) + b64[:, None, None, None, None]


def _deconv_bwd_b(xs, w64, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _deconv_fwd_b: the blocks of g's phase grid are
    gathered into deposit-shaped columns, which meet the input (d_w) and the
    zero-padded kernel (d_xs) in one GEMM each."""
    m, dep_shape, grid, blocks, output = _phases(geom, xs.shape)
    if g.size == math.prod(grid):  # the output fills the grid (k == s, p == 0)
        d_full = g.reshape(grid)
    else:
        d_full = np.zeros(grid)
        output(d_full)[...] = g
    cols = np.empty(dep_shape)
    for (q1, q2, q3), index in blocks:
        cols[:, q1, :, q2, :, q3] = d_full[index].transpose(_TO_DEPOSIT)
    cols = cols.reshape(math.prod(dep_shape[:7]), -1)
    d_b = g.reshape(geom.out_channels, -1).sum(axis=1)
    k1, k2, k3 = geom.kernel
    d_w = (xs.reshape(geom.in_channels, -1) @ cols.T).reshape(
        (geom.in_channels, geom.out_channels) + tuple(mm * s for mm, s in zip(m, geom.stride))
    )[:, :, :k1, :k2, :k3]
    d_xs = None
    if need_dx:
        d_xs = (_padded_kernel(w64, m, geom.stride) @ cols).reshape(xs.shape)
    return d_w, d_b, d_xs


# ---------------------------------------------------------------------------
# Public per-sample forward ops: the engine at B = 1, on [C, D, H, W] float32
# arrays.
# ---------------------------------------------------------------------------


def conv3d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, geom: ConvGeometry):
    """out[co, n, h, w] = bias[co] + sum_{ci,i,j,k} W[co,ci,i,j,k] *
    padded_x[ci, s1*n + i, s2*h + j, s3*w + k]."""
    _check_conv_args(x, weights, bias, geom, transposed=False)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, weights, bias))
    return _conv_fwd_b(x64[:, None], w64, b64, geom)[:, 0].astype(np.float32)


def deconv3d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, geom: ConvGeometry):
    """Transposed convolution: input voxel (n, h, w) deposits value * W into
    the output block starting at (s1*n - p1, s2*h - p2, s3*w - p3); overlaps sum."""
    _check_conv_args(x, weights, bias, geom, transposed=True)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, weights, bias))
    return _deconv_fwd_b(x64[:, None], w64, b64, geom)[:, 0].astype(np.float32)


def sgd_step(params, grads, lr: float) -> None:
    """In-place w -= lr*dw, b -= lr*db over every layer of ``params``.

    ``params`` is a ModelParams-like object exposing ``layers`` with
    float32 ``weights`` and ``bias`` arrays, updated in place; ``grads`` is
    the matching sequence of (d_w, d_b) arrays.  Every layer's gradients are
    cast to float32, the parameters' dtype, and its stepped values computed
    and checked before the first write, so a gradient or step that is not
    finite in float32 aborts with the offending layer named and leaves every
    parameter unchanged.
    """
    if not np.isfinite(lr) or lr <= 0:
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    layers = list(params.layers)
    grads = list(grads)
    if len(layers) != len(grads):
        raise ValueError(f"{len(grads)} gradient sets for {len(layers)} layers")
    f32lr = np.float32(lr)
    stepped = []
    for idx, (layer, (d_w, d_b)) in enumerate(zip(layers, grads)):
        d_w, d_b = np.asarray(d_w), np.asarray(d_b)
        if d_w.shape != layer.weights.shape or d_b.shape != layer.bias.shape:
            raise ValueError(
                f"layer {idx}: gradient shapes {d_w.shape}/{d_b.shape} "
                f"do not match parameters {layer.weights.shape}/{layer.bias.shape}"
            )
        # a gradient or a step beyond float32 fails the check below
        with np.errstate(over="ignore", invalid="ignore"):
            w = layer.weights - f32lr * d_w.astype(np.float32)
            b = layer.bias - f32lr * d_b.astype(np.float32)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NonFiniteError(f"non-finite update in layer {idx}")
        stepped.append((layer, w, b))
    for layer, w, b in stepped:
        layer.weights[...] = w
        layer.bias[...] = b
