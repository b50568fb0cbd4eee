"""The network's convolution engine: forward and backward passes.

One engine computes every convolution and transposed convolution, on
float64 arrays in channel-major batch layout [C, B, D, H, W]; the model
drives it directly for training, validation and inference.  The public
ops ``conv3d_forward`` and ``deconv3d_forward`` are forward-only wrappers
that run it with B = 1 on float32 [C, D, H, W] arrays and cast the
result back to float32.

Two primitives, each one GEMM per sample over all kernel taps, serve
every layer: the im2col gather W @ cols_n (``_sample_columns``), with
cols_n sample n's columns, and its adjoint W^T @ G_n, whose tap rows are
added onto their windows of the sample's grid (``_conv_adjoint``).  No
column matrix of a batch is built, and no sample's forward or input
gradient depends on another sample.

* Transposed conv: by definition the adjoint of the conv with the same
  kernel, stride and padding and swapped channels (Dumoulin & Visin,
  arXiv:1603.07285), whose weight block [C_out', C_in', k1, k2, k3] is the
  transposed conv's [C_in, C_out, k1, k2, k3] in the same memory.  Its
  forward is that conv's input gradient and its backward that conv's
  forward and weight gradient, so <conv(x), y> == <x, deconv(y)> for zero
  bias holds by construction.
* Conv with more than ``_DIRECT_MAX_COUT`` output channels, a stride above
  one or padding of at least the kernel ("wide"): the forward is the
  gather, d_w sums G_n @ cols_n^T and d_x is the adjoint.
* Other convs ("narrow": the final few-channel conv at the upsampled
  resolution): a stride-1 conv is the transposed conv of the same kernel
  flipped on every spatial axis, with the channels swapped and padding
  k - 1 - p (ibid.), so it runs as that transposed conv.  Its gathers then
  read the few-channel output gradient, whose columns are small, never the
  wide input.
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


def _window(tap, stride, n_positions):
    """Per axis, the slice of a padded grid that kernel tap ``tap`` reads
    for every one of ``n_positions`` outputs."""
    return tuple(slice(t, t + s * n, s) for t, s, n in zip(tap, stride, n_positions))


def _window_b(tap, stride, n_positions):
    """``_window`` over every channel and sample of a [C, B, ...] array."""
    return (slice(None), slice(None)) + _window(tap, stride, n_positions)


def _sample_columns(xs, geom: ConvGeometry, out_sp):
    """Each sample's im2col columns [C*k1*k2*k3, N] of xs [C, B, *in_sp] for
    the conv ``geom`` with output extents out_sp, float64.

    Row order is (c, i, j, k) to match a reshaped weight block; column order
    is row-major over the output grid.  One sliding-window view serves the
    batch, and each sample is one strided copy of it.
    """
    win = sliding_window_view(_pad_b(xs, geom.padding), geom.kernel, axis=(2, 3, 4))
    win = win[_window_b((0, 0, 0), geom.stride, out_sp)]
    for n in range(xs.shape[1]):
        # order='C' materializes the gather in one pass so the reshape is free
        cols = win[:, n].transpose(0, 4, 5, 6, 1, 2, 3).astype(np.float64, order="C")
        yield cols.reshape(xs.shape[0] * math.prod(geom.kernel), -1)


# A conv with few output channels (the final smoothing conv) skips im2col of
# its input: that column matrix would be k1*k2*k3 times the input, which is
# largest at the upsampled resolution.
_DIRECT_MAX_COUT = 4


def _narrow(geom: ConvGeometry) -> bool:
    """Whether the conv runs as the transposed conv of its flipped kernel:
    few output channels, stride one, and padding below the kernel so that
    the flipped conv's padding k - 1 - p is not negative."""
    return (
        geom.out_channels <= _DIRECT_MAX_COUT
        and geom.stride == (1, 1, 1)
        and all(p < k for p, k in zip(geom.padding, geom.kernel))
    )


def _flipped(geom: ConvGeometry, w64):
    """(conv B, B's weight block) where B's adjoint is the stride-1 conv
    ``geom``: channels swapped, padding k - 1 - p, and the kernel flipped on
    every spatial axis (Dumoulin & Visin, arXiv:1603.07285)."""
    pad = tuple(k - 1 - p for k, p in zip(geom.kernel, geom.padding))
    conv = ConvGeometry(geom.out_channels, geom.in_channels, geom.kernel, 1, pad)
    return conv, np.flip(w64, axis=(2, 3, 4)).swapaxes(0, 1)


def _conv(xs, w64, geom: ConvGeometry):
    """The conv of xs [C_in, B, *in_sp] without bias, [C_out, B, *out_sp].

    Wide layers take W @ cols_n per sample n, cols_n its im2col columns
    [C_in*k1*k2*k3, N]; narrow layers take the adjoint of ``_flipped(geom)``,
    one W_B^T @ X_n per sample with its taps added onto the output grid.
    """
    out_sp = geom.conv_output_shape(xs.shape[2:])
    if _narrow(geom):
        conv, wb = _flipped(geom, w64)
        return _conv_adjoint(xs, wb, conv, out_sp)
    c_out = geom.out_channels
    out = np.empty((c_out, xs.shape[1]) + out_sp)
    wm = w64.reshape(c_out, -1)
    for n, cols in enumerate(_sample_columns(xs, geom, out_sp)):
        out[:, n] = (wm @ cols).reshape((c_out,) + out_sp)
    return out


def _conv_adjoint(g, w64, geom: ConvGeometry, in_sp, seed=None):
    """The adjoint of the conv ``geom`` applied to g [C_out, B, *out_sp]: its
    input gradient [C_in, B, *in_sp], which is the transposed conv of g.

    Per sample n, W^T @ G_n gives each tap's rows, added onto the tap's
    window of the sample's padded grid.  The sum starts from ``seed[c]`` for
    channel c (zero when None), so input rows that no window reads
    (n + 2p - k not a multiple of s) keep that value.
    """
    c_out, c_in = geom.out_channels, geom.in_channels
    out_sp = g.shape[2:]
    shape = (c_in, g.shape[1]) + tuple(n + 2 * p for n, p in zip(in_sp, geom.padding))
    d_pad = np.zeros(shape) if seed is None else np.full(shape, seed.reshape(c_in, 1, 1, 1, 1))
    wt = w64.reshape(c_out, -1).T
    taps = list(product(*(range(k) for k in geom.kernel)))
    for n in range(g.shape[1]):
        d_cols = (wt @ g[:, n].reshape(c_out, -1)).reshape((c_in, len(taps)) + out_sp)
        for t, tap in enumerate(taps):
            d_pad[(slice(None), n) + _window(tap, geom.stride, out_sp)] += d_cols[:, t]
    return d_pad[_window_b(geom.padding, (1, 1, 1), in_sp)]


def _adjoint_bwd(xs, w64, conv: ConvGeometry, g, need_dx: bool):
    """(d_w, d_xs) of ys = _conv_adjoint(xs, w64, conv, ...) for output
    gradient g: d_xs is the conv of g and d_w the conv's weight gradient for
    input g and output gradient xs, both from one gather of g's columns per
    sample; d_xs is None unless ``need_dx``."""
    wm = w64.reshape(conv.out_channels, -1)
    d_w = np.zeros(wm.shape)
    d_xs = np.empty(xs.shape) if need_dx else None
    for n, cols in enumerate(_sample_columns(g, conv, xs.shape[2:])):
        d_w += xs[:, n].reshape(conv.out_channels, -1) @ cols.T
        if need_dx:
            d_xs[:, n] = (wm @ cols).reshape(xs[:, n].shape)
    return d_w.reshape(w64.shape), d_xs


def _conv_fwd_b(xs, w64, b64, geom: ConvGeometry):
    """out [C_out, B, *out_sp] of the conv of xs [C_in, B, *in_sp]: the sum
    over taps and input channels, then the bias."""
    out = _conv(xs, w64, geom)
    out += b64[:, None, None, None, None]
    return out


def _conv_bwd_b(xs, w64, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _conv_fwd_b for input xs and output gradient
    g [C_out, B, *out_sp]; d_xs is None unless ``need_dx``.

    Wide layers sum d_w = G_n @ cols_n^T over samples n and take d_xs from
    ``_conv_adjoint``.  A narrow layer is the adjoint of ``_flipped(geom)``,
    so its d_xs is that conv of g and its d_w, flipped back, that conv's
    weight gradient, both from one gather of g's few-channel columns."""
    d_b = g.reshape(geom.out_channels, -1).sum(axis=1)
    if _narrow(geom):
        conv, wb = _flipped(geom, w64)
        d_wb, d_xs = _adjoint_bwd(xs, wb, conv, g, need_dx)
        return np.flip(d_wb.swapaxes(0, 1), axis=(2, 3, 4)), d_b, d_xs
    d_w = np.zeros((geom.out_channels, w64[0].size))
    for n, cols in enumerate(_sample_columns(xs, geom, g.shape[2:])):
        d_w += g[:, n].reshape(geom.out_channels, -1) @ cols.T
    d_xs = _conv_adjoint(g, w64, geom, xs.shape[2:]) if need_dx else None
    return d_w.reshape(w64.shape), d_b, d_xs


def _transposed(geom: ConvGeometry) -> ConvGeometry:
    """The conv whose adjoint is the transposed conv of ``geom``: the same
    kernel, stride and padding, the channels swapped."""
    c_in, c_out = geom.out_channels, geom.in_channels
    return ConvGeometry(c_in, c_out, geom.kernel, geom.stride, geom.padding)


def _deconv_fwd_b(xs, w64, b64, geom: ConvGeometry):
    """Transposed conv of xs [C_in, B, *in_sp]: the adjoint of the conv
    ``_transposed(geom)`` applied to xs, summed from the bias."""
    out_sp = geom.deconv_output_shape(xs.shape[2:])
    return _conv_adjoint(xs, w64, _transposed(geom), out_sp, seed=b64)


def _deconv_bwd_b(xs, w64, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _deconv_fwd_b for input xs and output gradient g:
    ``_adjoint_bwd`` with ``_transposed(geom)`` as the conv."""
    d_w, d_xs = _adjoint_bwd(xs, w64, _transposed(geom), g, need_dx)
    return d_w, g.reshape(geom.out_channels, -1).sum(axis=1), d_xs


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
