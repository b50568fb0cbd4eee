"""The network's convolution engine: forward and backward passes.

One engine computes every convolution and transposed convolution, on
float64 arrays in channel-major batch layout [C, B, D, H, W]; the model
drives it directly for training, validation and inference.  The public
ops ``conv3d_forward`` and ``deconv3d_forward`` are forward-only wrappers
that run it with B = 1 on float32 [C, D, H, W] arrays and cast the
result back to float32.

* Conv with more than ``_DIRECT_MAX_COUT`` output channels or an in-plane
  stride above one: im2col + GEMM on one sample's columns at a time; the
  backward regathers the layer input one tap group at a time, so no column
  matrix of a batch is ever built.
* Conv with fewer and in-plane stride one (the final 1-channel conv at the
  upsampled resolution): kn2row (Anderson et al., "Low-memory GEMM-based
  convolution algorithms for deep neural networks", arXiv:1709.03395).  One
  GEMM multiplies a group of kernel taps into the padded input and each
  tap's shifted window of the product is added into the output; the
  backward shifts the gradient to every tap of a group for d_w and d_x.
* Transposed conv: by definition the adjoint of the conv with the same
  kernel, stride and padding and swapped channels (Dumoulin & Visin,
  arXiv:1603.07285), whose weight block [C_out', C_in', k1, k2, k3] is the
  transposed conv's [C_in, C_out, k1, k2, k3] in the same memory.  Its
  forward is that conv's input gradient and its backward that conv's
  forward and weight gradient, so <conv(x), y> == <x, deconv(y)> for zero
  bias holds by construction.
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


def _window_b(tap, stride, n_positions):
    """``_window`` over every channel and sample of a [C, B, ...] array."""
    return (slice(None), slice(None)) + _window(tap, stride, n_positions)


# Few-output-channel layers (the final smoothing conv) skip im2col: its column
# matrix would be k1*k2*k3 times the activation, which is largest at the
# upsampled resolution.  They use kn2row instead, unless strided in-plane:
# kn2row computes every in-plane position of the padded grid, and a stride-s
# conv's columns are only k/s times its input per axis.
_DIRECT_MAX_COUT = 4


def _kn2row(geom: ConvGeometry) -> bool:
    return geom.out_channels <= _DIRECT_MAX_COUT and geom.stride[1:] == (1, 1)


def _tap_groups(geom: ConvGeometry):
    """Wide-layer tap groups in (i, j, k) order, with their index into a
    weight block.  A group holds up to max(C_out // C_in, s1*s2*s3) taps:
    for a stride-1 conv its input rows (C_in per tap) are then no larger
    than the output gradient, and a transposed conv whose kernel tiles its
    stride is one GEMM."""
    taps = list(product(*(range(k) for k in geom.kernel)))
    per = max(geom.out_channels // geom.in_channels, math.prod(geom.stride))
    for t0 in range(0, len(taps), per):
        group = taps[t0 : t0 + per]
        yield group, (slice(None), slice(None)) + tuple(np.array(group).T)


def _kn2row_groups(geom: ConvGeometry):
    """kn2row groups of the in-plane taps in (j, k) order, as index arrays
    j and k.  A group stacks at most C_in // C_out taps, so its kn2row block
    [taps*C_out, B*D'*Hp*Wp] is never larger than the slab [C_in, B, D', Hp,
    Wp] of padded input that one depth tap reads."""
    plane = list(product(range(geom.kernel[1]), range(geom.kernel[2])))
    per = max(1, geom.in_channels // geom.out_channels)
    for t0 in range(0, len(plane), per):
        yield np.array(plane[t0 : t0 + per]).T


def _kn2row_weights(w64, i, j, k) -> np.ndarray:
    """Taps (i, j[t], k[t]) of a weight block stacked as [taps*C_out, C_in]."""
    return w64[:, :, i, j, k].transpose(2, 0, 1).reshape(-1, w64.shape[1])


def _planes(i, s1, n_out):
    """The depth planes of a padded [C, B, ...] grid that depth tap i reads."""
    return (slice(None), slice(None), slice(i, i + s1 * (n_out - 1) + 1, s1))


def _shifted(g, j, k, plane_hw) -> np.ndarray:
    """g [C_out, B, D', H', W'] put at the windows of in-plane taps (j, k) of
    a zero padded plane: the kn2row block [taps*C_out, B*D'*Hp*Wp]."""
    gs = np.zeros((len(j),) + g.shape[:3] + plane_hw)
    for t in range(len(j)):
        gs[(t, ...) + _window((j[t], k[t]), (1, 1), g.shape[3:])] = g
    return gs.reshape(len(j) * g.shape[0], -1)


def _conv(xs, w64, geom: ConvGeometry):
    """The conv of xs [C_in, B, *in_sp] without bias, [C_out, B, *out_sp].

    Wide layers multiply the reshaped weight block by one sample's im2col
    columns [C_in*k1*k2*k3, N] at a time.  kn2row layers take one
    [taps*C_out, C_in] @ [C_in, N_padded] GEMM per tap group and add each
    tap's shifted window of the product into the output.
    """
    out_sp = geom.conv_output_shape(xs.shape[2:])
    c_out, c_in = geom.out_channels, geom.in_channels
    batch = xs.shape[1]
    padded = _pad_b(xs, geom.padding)
    if not _kn2row(geom):
        out = np.empty((c_out, batch) + out_sp)
        wm = w64.reshape(c_out, -1)
        for n in range(batch):
            cols = _gather_columns_b(padded[:, n : n + 1], geom.kernel, geom.stride, out_sp)
            out[:, n] = (wm @ cols).reshape((c_out,) + out_sp)
        return out
    out = np.zeros((c_out, batch) + out_sp)
    for i in range(geom.kernel[0]):
        slab = np.ascontiguousarray(padded[_planes(i, geom.stride[0], out_sp[0])])
        for j, k in _kn2row_groups(geom):
            y = _kn2row_weights(w64, i, j, k) @ slab.reshape(c_in, -1)
            y = y.reshape((len(j), c_out) + slab.shape[1:])
            for t in range(len(j)):
                out += y[(t, ...) + _window((j[t], k[t]), (1, 1), out_sp[1:])]
    return out


def _conv_weight_grad(xs, geom: ConvGeometry, g):
    """d_w [C_out, C_in, *kernel] of the conv of xs for output gradient g:
    per tap group G @ X^T, X the group's windows of the padded input (wide
    layers), or Gs @ slab^T, Gs the kn2row block of g (kn2row layers)."""
    c_out, c_in = geom.out_channels, geom.in_channels
    out_sp = g.shape[2:]
    padded = _pad_b(xs, geom.padding)
    d_w = np.empty((c_out, c_in) + geom.kernel)
    if not _kn2row(geom):
        gm = g.reshape(c_out, -1)
        for group, index in _tap_groups(geom):
            cols = np.stack([padded[_window_b(t, geom.stride, out_sp)] for t in group], axis=1)
            d_w[index] = (gm @ cols.reshape(len(group) * c_in, -1).T).reshape(c_out, c_in, -1)
        return d_w
    for i in range(geom.kernel[0]):
        slab = np.ascontiguousarray(padded[_planes(i, geom.stride[0], out_sp[0])])
        for j, k in _kn2row_groups(geom):
            d_wt = _shifted(g, j, k, slab.shape[3:]) @ slab.reshape(c_in, -1).T
            d_w[:, :, i, j, k] = d_wt.reshape(len(j), c_out, c_in).transpose(1, 2, 0)
    return d_w


def _conv_adjoint(g, w64, geom: ConvGeometry, in_sp, seed=None):
    """The adjoint of ``_conv`` applied to g [C_out, B, *out_sp]: the conv's
    input gradient [C_in, B, *in_sp], which is the transposed conv of g.

    The sum over the padded grid starts from ``seed[c]`` for channel c
    (zero when None), so input rows that no window reads (n + 2p - k not a
    multiple of s) keep that value.  Per tap group, wide layers add each
    tap's rows of W^T @ G onto its window, and kn2row layers add
    W^T @ Gs onto the planes of its depth tap.
    """
    c_out, c_in = geom.out_channels, geom.in_channels
    out_sp = g.shape[2:]
    shape = (c_in, g.shape[1]) + tuple(n + 2 * p for n, p in zip(in_sp, geom.padding))
    crop = _window_b(geom.padding, (1, 1, 1), in_sp)
    d_pad = np.zeros(shape) if seed is None else np.full(shape, seed.reshape(c_in, 1, 1, 1, 1))
    if not _kn2row(geom):
        gm = g.reshape(c_out, -1)
        for group, index in _tap_groups(geom):
            d_cols = w64[index].reshape(c_out, -1).T @ gm
            d_cols = d_cols.reshape((c_in, len(group)) + g.shape[1:])
            for t, tap in enumerate(group):
                d_pad[_window_b(tap, geom.stride, out_sp)] += d_cols[:, t]
        return d_pad[crop]
    first = seed is None
    for i in range(geom.kernel[0]):
        for j, k in _kn2row_groups(geom):
            d_slab = _kn2row_weights(w64, i, j, k).T @ _shifted(g, j, k, shape[3:])
            d_slab = d_slab.reshape((c_in,) + g.shape[1:3] + shape[3:])
            if first and d_slab.shape == shape:
                d_pad = d_slab  # the first group's planes span the whole grid
            else:
                d_pad[_planes(i, geom.stride[0], out_sp[0])] += d_slab
            first = False
    return d_pad[crop]


def _conv_fwd_b(xs, w64, b64, geom: ConvGeometry):
    """out [C_out, B, *out_sp] of the conv of xs [C_in, B, *in_sp]: the sum
    over taps and input channels, then the bias."""
    out = _conv(xs, w64, geom)
    out += b64[:, None, None, None, None]
    return out


def _conv_bwd_b(xs, w64, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _conv_fwd_b for input xs and output gradient
    g [C_out, B, *out_sp]; d_xs is None unless ``need_dx``."""
    d_b = g.reshape(geom.out_channels, -1).sum(axis=1)
    d_xs = _conv_adjoint(g, w64, geom, xs.shape[2:]) if need_dx else None
    return _conv_weight_grad(xs, geom, g), d_b, d_xs


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
    with ``_transposed(geom)`` as the conv, d_xs is the conv of g and d_w the
    conv's weight gradient for input g and output gradient xs."""
    conv = _transposed(geom)
    d_b = g.reshape(geom.out_channels, -1).sum(axis=1)
    d_xs = _conv(g, w64, conv) if need_dx else None
    return _conv_weight_grad(g, conv, xs), d_b, d_xs


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
