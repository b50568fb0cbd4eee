import ast
import functools
import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from ctsr import grid, metrics, model, ops, pipeline, resample, volume
from ctsr.model import sgd_step
from ctsr.ops import (
    ConvGeometry,
    _conv_bwd_b,
    _conv_fwd_b,
    _deconv_bwd_b,
    _deconv_fwd_b,
    conv3d_forward,
    deconv3d_forward,
)
from ctsr.tensor import NonFiniteError, Rng, uniform_init

from oracles import central_difference, conv3d_loops, deconv3d_scatter_loops


def _rand(shape, rng, lo=-1.0, hi=1.0):
    return uniform_init(list(shape), lo, hi, rng)


def _zeros(*shape):
    return np.zeros(shape, dtype=np.float32)


def _ones(*shape):
    return np.ones(shape, dtype=np.float32)


def random_conv_case(rng, max_channels=3, max_kernel=3, strides=(1, 2)):
    """Random geometry plus float32 arrays; extents chosen so deconv round-trips."""
    u = rng.next_u64(13)
    ci = 1 + int(u[0] % max_channels)
    co = 1 + int(u[1] % max_channels)
    ks = tuple(1 + int(u[2 + i] % max_kernel) for i in range(3))
    ss = tuple(strides[int(u[5 + i] % len(strides))] for i in range(3))
    ps = tuple(min(int(u[8 + i] % 2), (k - 1) // 2) for i, k in zip(range(3), ks))
    outs = tuple(1 + int(u[11 + (i % 2)] % 3) + i for i in range(3))
    ins = tuple((o - 1) * s + k - 2 * p for o, s, k, p in zip(outs, ss, ks, ps))
    geom = ConvGeometry(ci, co, ks, ss, ps)
    x = _rand((ci,) + ins, rng)
    w = _rand((co, ci) + ks, rng)
    b = _rand((co,), rng)
    return geom, x, w, b


def _deconv_textbook_b(xs, w, b, geom):
    """``_deconv_fwd_b`` at the textbook extents, ``geom.deconv_output_shape``."""
    return _deconv_fwd_b(xs, w, b, geom, geom.deconv_output_shape(xs.shape[2:]))


# The engine at B = 1 on float64 [C, D, H, W] arrays, for checks that need
# more precision than the float32 public ops keep.


def _conv_f64(x, w, b, geom):
    return _conv_fwd_b(x[:, None], w, b, geom)[:, 0]


def _conv_bwd_f64(x, w, geom, d_out):
    d_w, d_b, d_x = _conv_bwd_b(x[:, None].copy(), w, geom, d_out[:, None], True)
    return d_w, d_b, d_x[:, 0]


def _deconv_f64(x, w, b, geom):
    return _deconv_textbook_b(x[:, None], w, b, geom)[:, 0]


def _deconv_bwd_f64(x, w, geom, d_out):
    d_w, d_b, d_x = _deconv_bwd_b(x[:, None].copy(), w, geom, d_out[:, None], True)
    return d_w, d_b, d_x[:, 0]


class TestConvGeometry:
    def test_isotropic_normalization(self):
        g = ConvGeometry(1, 2, 3, 2, 1)
        assert g.kernel == (3, 3, 3) and g.stride == (2, 2, 2) and g.padding == (1, 1, 1)

    def test_output_shapes(self):
        g = ConvGeometry(1, 1, (2, 3, 3), (1, 2, 2), (0, 1, 1))
        assert g.conv_output_shape((4, 6, 8)) == (3, 3, 4)
        assert g.deconv_output_shape((3, 3, 4)) == (4, 5, 7)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ConvGeometry(0, 1, 3)
        with pytest.raises(ValueError):
            ConvGeometry(1, 1, 3, 0)
        with pytest.raises(ValueError):
            ConvGeometry(1, 1, 3, 1, -1)

    def test_nonpositive_output_extent(self):
        with pytest.raises(ValueError, match="output extent"):
            ConvGeometry(1, 1, (5, 1, 1)).conv_output_shape((3, 3, 3))


class TestConvForward:
    def test_all_ones_cube(self):
        x = _ones(1, 2, 2, 2)
        w = _ones(1, 1, 2, 2, 2)
        out = conv3d_forward(x, w, _zeros(1), ConvGeometry(1, 1, 2))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 8.0

    def test_identity_kernel(self):
        rng = Rng(1)
        x = _rand((1, 3, 4, 5), rng)
        w = _ones(1, 1, 1, 1, 1)
        out = conv3d_forward(x, w, _zeros(1), ConvGeometry(1, 1, 1))
        assert out.dtype == np.float32 and np.array_equal(out, x)

    def test_matches_loop_nest_oracle(self):
        rng = Rng(2024)
        for _ in range(25):
            geom, x, w, b = random_conv_case(rng)
            got = conv3d_forward(x, w, b, geom)
            ref = conv3d_loops(x, w, b, geom.stride, geom.padding)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-6

    def test_shape_validation(self):
        g = ConvGeometry(2, 1, 3)
        x = _zeros(1, 4, 4, 4)
        w = _zeros(1, 2, 3, 3, 3)
        with pytest.raises(ValueError, match="channels"):
            conv3d_forward(x, w, _zeros(1), g)
        with pytest.raises(ValueError, match="weights shape"):
            conv3d_forward(_zeros(2, 4, 4, 4), _zeros(1, 2, 2, 3, 3), _zeros(1), g)

    def test_linearity(self):
        rng = Rng(5)
        g = ConvGeometry(2, 2, 3, 1, (0, 1, 1))
        x = _rand((2, 4, 5, 5), rng)
        z = _rand((2, 4, 5, 5), rng)
        w = _rand((2, 2, 3, 3, 3), rng)
        b0 = _zeros(2)
        lhs = conv3d_forward((2.0 * x + 0.5 * z).astype(np.float32), w, b0, g)
        rhs = 2.0 * conv3d_forward(x, w, b0, g) + 0.5 * conv3d_forward(z, w, b0, g)
        assert np.abs(lhs - rhs).max() <= 1e-5 * max(1.0, np.abs(rhs).max())


class TestDeconvForward:
    def test_single_deposit(self):
        x = _ones(1, 1, 1, 1)
        w = _ones(1, 1, 2, 2, 2)
        out = deconv3d_forward(x, w, _zeros(1), ConvGeometry(1, 1, 2, 2))
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out == 1.0)

    def test_overlapping_deposits_sum(self):
        x = _ones(1, 1, 1, 2)
        w = _ones(1, 1, 1, 1, 2)
        out = deconv3d_forward(x, w, _zeros(1), ConvGeometry(1, 1, (1, 1, 2), 1))
        assert out.shape == (1, 1, 1, 3)
        assert out[0, 0, 0].tolist() == [1.0, 2.0, 1.0]

    def test_matches_scatter_oracle(self):
        rng = Rng(77)
        for _ in range(10):
            geom, x, w, _ = random_conv_case(rng)
            dg = ConvGeometry(
                geom.out_channels, geom.in_channels, geom.kernel, geom.stride, geom.padding
            )
            b = _rand((dg.out_channels,), rng)
            y = _rand((geom.out_channels,) + geom.conv_output_shape(x.shape[1:]), rng)
            got = deconv3d_forward(y, w, b, dg)
            ref = deconv3d_scatter_loops(y, w, b, dg.stride, dg.padding)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-6

    def test_adjoint_of_conv(self):
        rng = Rng(31337)
        for _ in range(30):
            geom, x, w, _ = random_conv_case(rng)
            cx = conv3d_forward(x, w, _zeros(geom.out_channels), geom)
            y = _rand(cx.shape, rng)
            dg = ConvGeometry(
                geom.out_channels, geom.in_channels, geom.kernel, geom.stride, geom.padding
            )
            dy = deconv3d_forward(y, w, _zeros(geom.in_channels), dg)
            assert dy.shape == x.shape
            lhs = np.dot(cx.ravel().astype(np.float64), y.ravel())
            rhs = np.dot(x.ravel().astype(np.float64), dy.ravel())
            den = max(
                float(np.linalg.norm(cx) * np.linalg.norm(y)), 1e-12
            )
            assert abs(lhs - rhs) / den <= 1e-5

    def test_conv_then_deconv_restores_spatial_extents(self):
        rng = Rng(4)
        for k in (1, 2, 3):
            geom = ConvGeometry(1, 2, k)
            x = _rand((1, 4, 5, 6), rng)
            mid = conv3d_forward(x, _rand((2, 1, k, k, k), rng), _zeros(2), geom)
            back = deconv3d_forward(
                mid, _rand((2, 1, k, k, k), rng), _zeros(1),
                ConvGeometry(2, 1, k),
            )
            assert back.shape == x.shape


class TestBackwardGradients:
    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(6)
        geom, x, w, _ = random_conv_case(rng)
        out_shape = (geom.out_channels,) + geom.conv_output_shape(x.shape[1:])
        grads = _conv_bwd_f64(
            x.astype(np.float64), w.astype(np.float64), geom, np.zeros(out_shape)
        )
        for g in grads:
            assert np.all(g == 0)

    def test_scalar_product_rule(self):
        # 1x1x1 conv of a single voxel: out = w*x + b, so d_w = x and d_x = w
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1, 1), 5.0)
        d_w, d_b, d_x = _conv_bwd_f64(x, w, ConvGeometry(1, 1, 1), np.ones((1, 1, 1, 1)))
        assert d_w.item() == 3.0
        assert d_x.item() == 5.0
        assert d_b.item() == 1.0

    @pytest.mark.parametrize("op", ["conv", "deconv"])
    def test_matches_finite_differences_f64(self, op):
        rng = Rng(500 if op == "conv" else 501)
        for _ in range(4):
            geom, x, w, b = random_conv_case(rng, max_channels=2, max_kernel=2)
            if op == "deconv":
                geom = ConvGeometry(
                    geom.out_channels, geom.in_channels, geom.kernel,
                    geom.stride, geom.padding,
                )
                x = _rand((geom.in_channels, 3, 3, 3), rng)
                b = _rand((geom.out_channels,), rng)
                fwd_raw = _deconv_f64
                bwd_raw = _deconv_bwd_f64
            else:
                fwd_raw = _conv_f64
                bwd_raw = _conv_bwd_f64
            x64 = x.astype(np.float64)
            w64 = w.astype(np.float64)
            b64 = b.astype(np.float64)
            out = fwd_raw(x64, w64, b64, geom)
            d_out = np.ones_like(out)  # loss = sum(out)
            d_w, d_b, d_x = bwd_raw(x64, w64, geom, d_out)
            fd_w = central_difference(lambda v: fwd_raw(x64, v, b64, geom).sum(), w64, 1e-6)
            fd_x = central_difference(lambda v: fwd_raw(v, w64, b64, geom).sum(), x64, 1e-6)
            fd_b = central_difference(lambda v: fwd_raw(x64, w64, v, geom).sum(), b64, 1e-6)
            for got, ref in ((d_w, fd_w), (d_x, fd_x), (d_b, fd_b)):
                scale = max(np.abs(ref).max(), 1.0)
                assert np.abs(got - ref).max() / scale <= 1e-6


def _f64_array(shape, rng):
    return 2.0 * rng.next_floats(int(np.prod(shape))).reshape(shape) - 1.0


def _conv_engine_case(rng, path, large=False):
    """Random conv geometry on one engine path, with a batch of two.

    "narrow": C_out <= 4 and stride one, the transposed conv of its flipped
    kernel; "im2col": C_out > 4; "few-wide": C_out <= 4 on the im2col path,
    either strided in depth or padded by at least the kernel on one axis.
    Each strided axis has up to s - 1 trailing input rows that no window
    reads ((n + 2p - k) not a multiple of s).  ``large`` (narrow only)
    draws up to 40 input channels, in-plane extents up to 42 and a batch of
    two to seven, where a GEMM over the whole batch rounds a sample's
    elements differently from a GEMM over the sample alone.
    """
    u = [int(v) for v in rng.next_u64(17)]
    ks = [1 + u[2 + i] % 3 for i in range(3)]
    if path == "narrow":  # more than one in-plane tap
        ks[1:] = 2 + u[3] % 2, 2 + u[4] % 2
    ss = [1, 1, 1]
    ps = [min(u[8 + i] % 2, (k - 1) // 2) for i, k in zip(range(3), ks)]
    outs = [1 + u[11 + i] % 3 for i in range(3)]
    batch = 2
    if path == "im2col":
        co, ci = ops._DIRECT_MAX_COUT + 1 + u[0] % 3, 1 + u[1] % 3
        ss = [1 + u[5 + i] % 2 for i in range(3)]
    elif path == "few-wide":
        co, ci = 1 + u[0] % ops._DIRECT_MAX_COUT, 1 + u[1] % 3
        if u[5] % 2:  # strided in depth, which no layer pads
            ss[0], ps[0] = 2, 0
        else:  # padded by the kernel on one axis, its output widened to match
            ax = u[6] % 3
            ps[ax] = ks[ax]
            outs[ax] += 2 * ks[ax]
    else:
        co = 1 + u[0] % ops._DIRECT_MAX_COUT
        ci = co + u[1] % (co + 1)
        if large:
            ci = 1 + u[1] % 40
            outs[1:] = 1 + u[12] % 40, 1 + u[13] % 40
            batch = 2 + u[16] % 6  # u[16] draws no extra row at stride one
    ins = tuple(
        (o - 1) * s + k - 2 * p + u[14 + i] % s
        for i, (o, s, k, p) in enumerate(zip(outs, ss, ks, ps))
    )
    geom = ConvGeometry(ci, co, tuple(ks), tuple(ss), tuple(ps))
    x = _f64_array((ci, batch) + ins, rng)
    w = _f64_array((co, ci) + geom.kernel, rng)
    b = _f64_array((co,), rng)
    return geom, x, w, b


def _unread_rows(geom, in_sp):
    """Per axis, the first input row that no conv window reads (the extent
    itself when the windows, or the padding after the input, reach its end)."""
    out_sp = geom.conv_output_shape(in_sp)
    return tuple(
        min(n, (o - 1) * s + k - p)
        for n, o, s, k, p in zip(in_sp, out_sp, geom.stride, geom.kernel, geom.padding)
    )


def _transposed_conv_oracle(y, w, geom, in_sp):
    """The transposed conv of y by the scatter oracle, cut to the conv's
    input extents in_sp: its unpadded deposit grid without the first p rows
    per axis, and zero past the last deposit."""
    unpadded = ConvGeometry(geom.out_channels, geom.in_channels, geom.kernel, geom.stride)
    full = _per_sample(deconv3d_scatter_loops, y, w, np.zeros(geom.in_channels), unpadded)
    grid = np.zeros(full.shape[:2] + tuple(n + 2 * p for n, p in zip(in_sp, geom.padding)))
    grid[(slice(None), slice(None)) + tuple(slice(0, m) for m in full.shape[2:])] = full
    crop = tuple(slice(p, p + n) for n, p in zip(in_sp, geom.padding))
    return grid[(slice(None), slice(None)) + crop]


def _deconv_engine_case(rng, kind):
    """Random deconv geometry whose kernel is smaller than ("k<r"), equal
    to ("k=r") or larger than ("k>r") the stride on every axis, with a
    stride above one and nonzero padding on every axis, and a batch of two.
    "k=r,p=0" is the paper's case: kernel equal to the stride, no padding.
    "s=1" has in-plane stride one and at most 3 input channels."""
    u = [int(v) for v in rng.next_u64(14)]
    ss = tuple(2 + u[i] % 2 for i in range(3))
    if kind == "s=1":
        ss = (1 + u[0] % 2, 1, 1)
        ks = (1 + u[3] % 3, 2 + u[4] % 2, 2 + u[5] % 2)
    elif kind == "k<r":
        ks = tuple(1 + u[3 + i] % (s - 1) for i, s in enumerate(ss))
    elif kind == "k=r":
        ks = ss
    else:
        ks = tuple(s + 1 + u[3 + i] % 2 for i, s in enumerate(ss))
    ins = tuple(2 + u[6 + i] % 2 for i in range(3))
    # the largest padding is the one that leaves an output extent of one
    ps = tuple(
        min(1 + u[9 + i] % 2, ((n - 1) * s + k - 1) // 2)
        for i, (n, s, k) in enumerate(zip(ins, ss, ks))
    )
    if kind == "k=r,p=0":  # every output voxel gets exactly one tap
        ks, ps = ss, (0, 0, 0)
    geom = ConvGeometry(1 + u[12] % 3, 1 + u[13] % 3, ks, ss, ps)
    x = _f64_array((geom.in_channels, 2) + ins, rng)
    w = _f64_array((geom.in_channels, geom.out_channels) + ks, rng)
    b = _f64_array((geom.out_channels,), rng)
    return geom, x, w, b


def _engine_case(rng, op, large=False):
    """A random case of a conv path (see ``_conv_engine_case``) or a deconv
    kind (see ``_deconv_engine_case``), with the engine's forward and
    backward for it."""
    if op in ("narrow", "im2col", "few-wide"):
        return _conv_engine_case(rng, op, large) + (_conv_fwd_b, _conv_bwd_b)
    return _deconv_engine_case(rng, op) + (_deconv_textbook_b, _deconv_bwd_b)


def _per_sample(oracle, x, w, b, geom):
    return np.stack(
        [oracle(x[:, n], w, b, geom.stride, geom.padding) for n in range(x.shape[1])], axis=1
    )


def _close(got, ref, tol=1e-12):
    assert got.shape == ref.shape
    return np.abs(got - ref).max() <= tol * max(np.abs(ref).max(), 1.0)


class TestBatchedEngine:
    """The batched engine against the loop-nest oracles, path by path."""

    @pytest.mark.parametrize("path", ["narrow", "im2col", "few-wide"])
    def test_conv_matches_loop_nest_oracle(self, path):
        rng = Rng({"narrow": 900, "im2col": 901, "few-wide": 902}[path])
        for _ in range(12):
            geom, x, w, b = _conv_engine_case(rng, path)
            assert ops._narrow(geom) == (path == "narrow")
            out = _conv_fwd_b(x, w, b, geom)
            assert _close(out, _per_sample(conv3d_loops, x, w, b, geom))

    @pytest.mark.parametrize("kind", ["k<r", "k=r", "k>r"])
    def test_deconv_matches_scatter_oracle(self, kind):
        rng = Rng({"k<r": 910, "k=r": 911, "k>r": 912}[kind])
        for _ in range(8):
            geom, x, w, b = _deconv_engine_case(rng, kind)
            if kind == "k<r":
                assert all(k < s for k, s in zip(geom.kernel, geom.stride))
            elif kind == "k=r":
                assert geom.kernel == geom.stride
            else:
                assert all(k > s for k, s in zip(geom.kernel, geom.stride))
            assert min(geom.stride) > 1 and min(geom.padding) > 0
            out = _deconv_textbook_b(x, w, b, geom)
            assert _close(out, _per_sample(deconv3d_scatter_loops, x, w, b, geom))

    @pytest.mark.parametrize(
        "op", ["narrow", "im2col", "k<r", "k=r", "k>r", "k=r,p=0", "s=1", "few-wide"]
    )
    def test_backward_is_adjoint_and_matches_finite_differences(self, op):
        rng = Rng(
            920 + ["narrow", "im2col", "k<r", "k=r", "k>r", "k=r,p=0", "s=1", "few-wide"].index(op)
        )
        for _ in range(4):
            geom, x, w, _, fwd_b, bwd_b = _engine_case(rng, op)

            def fwd(wv, xv):
                return fwd_b(xv, wv, np.zeros(geom.out_channels), geom)

            y = _f64_array(fwd(w, x).shape, rng)
            d_w, d_b, d_x = bwd_b(x.copy(), w, geom, y, True)
            # <op(x), y> == <x, op_bwd(y)>
            lhs = float(np.sum(fwd(w, x) * y))
            rhs = float(np.sum(x * d_x))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            assert np.allclose(d_b, y.reshape(geom.out_channels, -1).sum(axis=1), rtol=1e-12)
            # <op(x; w), y> is linear in w, so central differences are exact
            # up to rounding
            fd_w = central_difference(lambda v: float(np.sum(fwd(v, x) * y)), w, 1e-3)
            assert _close(d_w, fd_w, tol=1e-9)

    @pytest.mark.parametrize("op", ["im2col", "k<r", "k=r", "k>r", "k=r,p=0", "narrow"])
    def test_sample_results_do_not_depend_on_the_batch(self, op):
        """Every GEMM takes one sample, so each sample's forward and d_x in a
        batch are its B = 1 results bit for bit."""
        rng = Rng(950 + ["im2col", "k<r", "k=r", "k>r", "k=r,p=0", "narrow"].index(op))
        for _ in range(12):
            geom, x, w, b, fwd_b, bwd_b = _engine_case(rng, op, large=True)
            out = fwd_b(x, w, b, geom)
            y = _f64_array(out.shape, rng)
            d_x = bwd_b(x.copy(), w, geom, y, True)[2]
            for n in range(x.shape[1]):
                one = np.s_[:, n : n + 1]
                assert np.array_equal(fwd_b(x[one], w, b, geom), out[one])
                assert np.array_equal(bwd_b(x[one].copy(), w, geom, y[one], True)[2], d_x[one])

    @pytest.mark.parametrize("path", ["few-wide", "im2col"])
    def test_unread_input_rows_get_zero_gradient(self, path):
        """d_x is exactly zero on the trailing input rows that no window
        reads, and elsewhere the transposed conv of the output gradient, by
        the scatter oracle and by finite differences."""
        rng = Rng(940 if path == "few-wide" else 941)
        cases_with_unread_rows = 0
        for _ in range(16):
            geom, x, w, _ = _conv_engine_case(rng, path)
            zero_b = np.zeros(geom.out_channels)
            y = _f64_array(_conv_fwd_b(x, w, zero_b, geom).shape, rng)
            d_x = _conv_bwd_b(x.copy(), w, geom, y, True)[2]
            read = _unread_rows(geom, x.shape[2:])
            cases_with_unread_rows += read != x.shape[2:]
            for axis, n in enumerate(read):
                assert not d_x[(slice(None),) * (axis + 2) + (slice(n, None),)].any()
            assert _close(d_x, _transposed_conv_oracle(y, w, geom, x.shape[2:]))
            # <conv(x), y> is linear in x, so central differences are exact up
            # to rounding; the last entry lies in an unread row if there is one
            picks = [tuple(int(v) % n for v, n in zip(rng.next_u64(5), x.shape))
                     for _ in range(6)] + [tuple(n - 1 for n in x.shape)]
            for idx in picks:
                def loss(v, idx=idx):
                    xv = x.copy()
                    xv[idx] = v
                    return float(np.sum(_conv_fwd_b(xv, w, zero_b, geom) * y))

                fd = (loss(x[idx] + 1e-3) - loss(x[idx] - 1e-3)) / 2e-3
                assert abs(fd - d_x[idx]) <= 1e-9 * max(abs(fd), 1.0)
        assert cases_with_unread_rows >= 3

    def test_narrow_without_dx_leaves_weights_gradient_alone(self):
        geom, x, w, b = _conv_engine_case(Rng(930), "narrow")
        out = _conv_fwd_b(x, w, b, geom)
        g = _f64_array(out.shape, Rng(931))
        d_w, d_b, d_x = _conv_bwd_b(x, w, geom, g, False)
        ref = _conv_bwd_b(x.copy(), w, geom, g, True)
        assert d_x is None
        assert np.array_equal(d_w, ref[0]) and np.array_equal(d_b, ref[1])


# Deconv geometries for the output-extent tests: the kernel in-plane below,
# equal to and above the stride, the last with padding.
_EXTENT_GEOMS = {
    "k<r": ConvGeometry(2, 3, (1, 2, 3), (1, 3, 4), 0),
    "k=r": ConvGeometry(2, 3, (1, 3, 3), (1, 3, 3), 0),
    "k>r": ConvGeometry(2, 3, (1, 5, 4), (1, 2, 3), (0, 1, 1)),
}


def _extent_case(name, delta):
    """(geometry, float64 input at B = 3, weights, bias, output extents):
    the extents are the textbook ones with ``delta`` rows and columns more."""
    geom = _EXTENT_GEOMS[name]
    rng = Rng(970 + sorted(_EXTENT_GEOMS).index(name))
    x = _f64_array((geom.in_channels, 3, 2, 3, 4), rng)
    w = _f64_array(geom.weight_shape(True), rng)
    b = _f64_array((geom.out_channels,), rng)
    d, h, wd = geom.deconv_output_shape(x.shape[2:])
    return geom, x, w, b, (d, h + delta, wd + delta)


class TestDeconvExtents:
    """``_deconv_fwd_b`` writes the output extents it is given: taps past
    them are cropped, outputs that no tap reaches hold the bias, and the
    backward is the adjoint of that."""

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("name", sorted(_EXTENT_GEOMS))
    def test_forward_is_the_deposit_grid_cropped_or_bias_filled(self, name, delta):
        """The output is the deconv's whole deposit grid (its textbook
        output at padding zero) without the first p rows per axis, cut to
        out_sp, and the bias past the last deposit.  At padding zero that is
        the textbook output with rows cropped or bias rows appended."""
        geom, x, w, b, out_sp = _extent_case(name, delta)
        unpadded = ConvGeometry(geom.in_channels, geom.out_channels, geom.kernel, geom.stride)
        full = _deconv_textbook_b(x, w, b, unpadded)
        crop = tuple(slice(p, p + n) for p, n in zip(geom.padding, out_sp))
        part = full[(slice(None),) * 2 + crop]
        want = np.empty(full.shape[:2] + out_sp)
        want[...] = b.reshape(-1, 1, 1, 1, 1)
        want[(slice(None),) * 2 + tuple(slice(0, m) for m in part.shape[2:])] = part
        assert np.array_equal(_deconv_fwd_b(x, w, b, geom, out_sp), want)

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("name", sorted(_EXTENT_GEOMS))
    def test_backward_is_adjoint_and_matches_finite_differences(self, name, delta):
        geom, x, w, b, out_sp = _extent_case(name, delta)
        y = _f64_array(geom.weight_shape(True)[1:2] + (3,) + out_sp, Rng(980))
        d_w, d_b, d_x = _deconv_bwd_b(x.copy(), w, geom, y, True)
        zero_b = np.zeros(geom.out_channels)
        lhs = float(np.sum(_deconv_fwd_b(x, w, zero_b, geom, out_sp) * y))
        assert abs(lhs - float(np.sum(x * d_x))) <= 1e-12 * max(abs(lhs), 1.0)

        def loss(wv, bv):
            return float(np.sum(_deconv_fwd_b(x, wv, bv, geom, out_sp) * y))

        # the loss is linear in w and in b, so central differences are exact
        # up to rounding
        assert _close(d_w, central_difference(lambda v: loss(v, b), w, 1e-3), tol=1e-9)
        assert _close(d_b, central_difference(lambda v: loss(w, v), b, 1e-3), tol=1e-9)

    def test_k_equal_to_r_backward_copies_no_gradient(self):
        """At k = r the output gradient reaches every tap as it is, so the
        backward allocates less than one copy of it: the paper's L3
        gradient is 18.9 MB a train step."""
        geom = _EXTENT_GEOMS["k=r"]
        rng = Rng(990)
        x = _f64_array((geom.in_channels, 3, 1, 16, 16), rng)
        w = _f64_array(geom.weight_shape(True), rng)
        g = _f64_array((geom.out_channels, 3) + geom.deconv_output_shape((1, 16, 16)), rng)
        tracemalloc.start()
        try:
            _deconv_bwd_b(x, w, geom, g, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes / 2, f"traced {peak} bytes for a {g.nbytes}-byte gradient"


def _paper_l1_case(rng):
    """The paper's L1 at 32x32 patches, a batch of three: 64 -> 64 channels,
    k = 3, in-plane same padding, on a depth-3 input, so each sample's
    column matrix is 1728 x 1024, above the pool's cutoff."""
    geom = ConvGeometry(64, 64, 3, 1, (0, 1, 1))
    x = _f64_array((64, 3, 3, 32, 32), rng)
    w = 0.05 * _f64_array((64, 64) + geom.kernel, rng)
    return geom, x, w, _f64_array((64,), rng), _conv_fwd_b, _conv_bwd_b


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this source tree's
    ctsr; it must exit 0."""
    src = str(Path(ops.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestThreadPool:
    """The per-sample loops give the same bits on the thread pool as on the
    calling thread, and B = 1 work below the cutoff starts no thread."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """At least two tasks in flight when a loop is pooled, whatever the
        machine."""
        monkeypatch.setattr(ops, "_CPUS", max(ops._CPUS, 2))

    OPS = ["narrow", "im2col", "few-wide", "k<r", "k=r", "k>r", "k=r,p=0", "s=1", "paper-L1"]

    @pytest.mark.parametrize("op", OPS)
    def test_pooled_equals_serial(self, op, monkeypatch):
        rng = Rng(970 + self.OPS.index(op))
        if op == "paper-L1":
            cases = [_paper_l1_case(rng)]
        else:
            cases = [_engine_case(rng, op, large=True) for _ in range(4)]
        for geom, x, w, b, fwd_b, bwd_b in cases:
            g = _f64_array(fwd_b(x, w, b, geom).shape, rng)
            runs = []
            for cutoff in (math.inf, 0):  # serial, then every loop pooled
                monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", cutoff)
                runs.append((fwd_b(x, w, b, geom),) + bwd_b(x.copy(), w, geom, g, True))
            for name, serial, pooled in zip(("forward", "d_w", "d_b", "d_x"), *runs):
                assert np.array_equal(pooled, serial), name

    def test_each_task_owns_its_scratch(self, monkeypatch):
        """Eight tasks in flight on two or more CPUs, with the interpreter
        switching threads every microsecond: no task sees another's writes
        to its scratch, and the results come back in sample order."""
        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(ops, "_CPUS", 8)
        monkeypatch.setattr(ops, "_pool", None)

        def task(n, scratch):
            for _ in range(50):
                scratch[...] = n
                time.sleep(0)
                if not (scratch == n).all():
                    return -1
            return n

        results = []
        consumer = threading.Thread(
            target=lambda: results.extend(ops._each_sample(task, 64, 16, (4, 4), np.float32)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            consumer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        ops._pool.shutdown()
        assert results == list(range(64))

    def test_task_exception_reaches_the_caller(self, monkeypatch):
        class Boom(Exception):
            pass

        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", 0)
        threads = set()

        def task(n, scratch):
            threads.add(threading.current_thread().name)
            if n == 2:
                raise Boom(n)
            return n

        with pytest.raises(Boom):
            list(ops._each_sample(task, 4, 4, (2, 2), np.float32))
        assert any(name.startswith("ctsr-ops") for name in threads)

    def test_a_pool_task_never_pools(self, monkeypatch):
        """Four outer tasks on two workers, each running a loop of three
        inner tasks through ``_each_sample`` itself, every loop above the
        cutoff.  Had a task queued its loop behind itself on the pool and
        waited, both workers would wait for ever; each inner loop runs on
        its outer task's thread instead, and gives the serial results."""
        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(ops, "_CPUS", 2)
        monkeypatch.setattr(ops, "_pool", None)
        w = Rng(971).next_floats(16).reshape(4, 4).astype(np.float32)

        def inner(n, scratch):
            scratch[...] = w + n
            return threading.current_thread().name, scratch @ w

        def outer(m, scratch):
            return threading.current_thread().name, list(
                ops._each_sample(inner, 3, 16, (4, 4), np.float32))

        results = []
        consumer = threading.Thread(
            target=lambda: results.extend(ops._each_sample(outer, 4, 16, (1,), np.float32)))
        consumer.start()
        consumer.join(timeout=60)
        hung = consumer.is_alive()
        # cancelling the queued tasks frees workers that wait on them
        ops._pool.shutdown(cancel_futures=True)
        assert not hung
        assert len(results) == 4
        for thread, loop in results:
            assert thread.startswith("ctsr-ops")
            for n, (inner_thread, got) in enumerate(loop):
                assert inner_thread == thread
                assert np.array_equal(got, (w + n) @ w)

    def test_import_and_single_sample_forward_start_no_thread(self):
        """A B = 1 forward, one engine task (``forward`` of a window, so
        ``infer_volume`` on a volume of one tile per slice; more tiles run
        on the pool), starts no thread, and the package, CLI included,
        loads no test-only package: numpy is its one runtime dependency.
        Checked in a fresh interpreter, since this one has the pool and the
        test tools."""
        code = (
            "import sys, threading\n"
            "before = threading.active_count()\n"
            "import numpy as np\n"
            "import ctsr.cli\n"
            "from ctsr import ops\n"
            "from ctsr.model import ModelConfig, build_model, forward, infer_volume\n"
            "from ctsr.tensor import Rng, Tensor\n"
            "from ctsr.volume import Volume\n"
            "ops._CPUS = max(ops._CPUS, 2)\n"
            "cfg = ModelConfig(feature_depth=3, conv_layers=1, filters=(6, 4, 1), kernel=3,\n"
            "                  scale=3, patch_hw=6)\n"
            "params = build_model(cfg, Rng(1))\n"
            "forward(params, np.ones((1, 3, 6, 6), np.float32))\n"
            "infer_volume(params, Volume(Tensor(np.ones((4, 6, 6), np.float32))))\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "assert ops._pool is None\n"
            "roots = {name.partition('.')[0] for name in sys.modules}\n"
            "test_tools = roots & {'scipy', 'hypothesis', 'pytest'}\n"
            "assert not test_tools, test_tools\n"
        )
        _run_fresh(code)

    def test_a_pooled_call_imports_no_module(self):
        """The first pooled engine call makes the pool and its threads but
        imports nothing: an import there would load its modules while the
        batch's arrays are live, and move where glibc's heap ends."""
        code = (
            "import math, sys\n"
            "import numpy as np\n"
            "from ctsr import ops\n"
            "ops._CPUS = 2\n"
            "geom = ops.ConvGeometry(2, 6, 3, 1, 1)\n"
            "x = np.ones((2, 2, 3, 4, 4), np.float32)\n"
            "w, b = np.ones(geom.weight_shape(False), np.float32), np.zeros(6, np.float32)\n"
            "ops._POOL_MIN_ELEMENTS = math.inf\n"
            "ops._conv_fwd_b(x, w, b, geom)\n"
            "before = set(sys.modules)\n"
            "ops._POOL_MIN_ELEMENTS = 0\n"
            "ops._conv_fwd_b(x, w, b, geom)\n"
            "assert ops._pool is not None\n"
            "added = set(sys.modules) - before\n"
            "assert not added, sorted(added)\n"
        )
        _run_fresh(code)

    @pytest.mark.parametrize("user", [None, "2"])
    def test_blas_defaults_to_one_thread(self, user):
        """Importing ctsr before numpy sets each BLAS thread variable to 1
        unless the user set it."""
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["PYTHONPATH"] = str(Path(ops.__file__).resolve().parents[1])
        if user is not None:
            env.update(dict.fromkeys(blas_vars, user))
        code = f"import os, ctsr\nprint(*(os.environ[k] for k in {blas_vars!r}))\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [user or "1"] * 3


class TestEngineBoundary:
    def test_engine_imports_only_numpy_and_the_standard_library(self):
        """ops.py is the array-only conv engine: a model type (ModelParams,
        NonFiniteError) belongs to its driver, model.py.  Any relative or
        ctsr import, at module level or inside a function, fails here."""
        tree = ast.parse(Path(ops.__file__).read_text(encoding="utf-8"))
        roots = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                roots.add("." * node.level + (node.module or "").partition(".")[0])
        assert "numpy" in roots
        assert {r for r in roots if r != "numpy" and r not in sys.stdlib_module_names} == set()


# The engine's bits at B = 3 in float32, one case per path of each traced
# entry point: (geometry, input extents, forward, backward, CRC32 of the
# forward output, CRC32s of (d_w, d_b, d_x) with need_dx True, then False).
# The golden tests reach no narrow conv and no deconv with need_dx False.
_ENGINE_BITS = {
    "wide conv": (ConvGeometry(3, 6, (2, 3, 3), (1, 2, 1), (0, 1, 1)), (4, 10, 8),
                  _conv_fwd_b, _conv_bwd_b, 3091335287,
                  (1440269416, 3017603180, 2691768641), (1440269416, 3017603180, None)),
    "narrow conv": (ConvGeometry(5, 2, (2, 3, 3), 1, (0, 1, 1)), (3, 8, 7),
                    _conv_fwd_b, _conv_bwd_b, 2342407149,
                    (3490691374, 3040218800, 992137786), (3490691374, 3040218800, None)),
    "deconv": (ConvGeometry(4, 3, (1, 3, 3), (1, 2, 2), (0, 1, 1)), (2, 5, 6),
               _deconv_textbook_b, _deconv_bwd_b, 126514482,
               (4110461869, 2739565004, 898009607), (4110461869, 2739565004, None)),
}


def _crc(a):
    return None if a is None else zlib.crc32(np.ascontiguousarray(a).tobytes())


class TestEngineBits:
    """Each traced entry point's outputs, bit for bit, on the calling thread
    and with every per-sample loop on the pool (cutoff zero): a change to
    the engine that keeps each GEMM's operands and shape keeps them.  Like
    tests/test_golden.py's, the values come from OpenBLAS 0.3.31."""

    @pytest.mark.parametrize("cutoff", [ops._POOL_MIN_ELEMENTS, 0], ids=["default", "zero"])
    @pytest.mark.parametrize("case", sorted(_ENGINE_BITS))
    def test_outputs_are_pinned(self, case, cutoff, monkeypatch):
        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", cutoff)
        monkeypatch.setattr(ops, "_CPUS", max(ops._CPUS, 2))
        geom, in_sp, fwd_b, bwd_b, *want = _ENGINE_BITS[case]
        rng = Rng(990)
        x = _rand((geom.in_channels, 3) + in_sp, rng)
        w = _rand(geom.weight_shape(fwd_b is _deconv_textbook_b), rng)
        b = _rand((geom.out_channels,), rng)
        out = fwd_b(x, w, b, geom)
        assert out.dtype == np.float32
        g = _rand(out.shape, rng)
        got = [_crc(out)] + [tuple(map(_crc, bwd_b(x.copy(), w, geom, g, need_dx)))
                             for need_dx in (True, False)]
        assert got == want


def _count_tasks(monkeypatch):
    """The task count of every ``_each_sample`` call from now on."""
    counts = []
    each_sample = ops._each_sample

    def spy(task, n_tasks, task_elements, scratch_shape, dtype):
        counts.append(n_tasks)
        return each_sample(task, n_tasks, task_elements, scratch_shape, dtype)

    monkeypatch.setattr(ops, "_each_sample", spy)
    return counts


# The paper's wide convs at B = 1 on a 32x32 tile: (geometry, input extents).
# L0's output has 3 depth rows, L1's and L2's one depth row and 32 rows; the
# 17-row input ends L1's 4-row chunks in a chunk of one row.
_PAPER_B1 = {
    "paper L0": (ConvGeometry(1, 64, 3, 1, (0, 1, 1)), (5, 32, 32)),
    "paper L1": (ConvGeometry(64, 64, 3, 1, (0, 1, 1)), (3, 32, 32)),
    "paper L2": (ConvGeometry(64, 32, (1, 3, 3), 1, (0, 1, 1)), (1, 32, 32)),
    "17 rows": (ConvGeometry(64, 64, 3, 1, (0, 1, 1)), (3, 17, 32)),
}


class TestSingleSampleBlocks:
    """A sample is the engine's unit of work on any machine: with two CPUs
    and every loop allowed to pool, each engine loop runs one task per
    sample, also when the batch has fewer samples than CPUs."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ops, "_CPUS", 2)

    def test_each_traced_entry_point_of_the_paper_stack(self, monkeypatch):
        """One training step of the paper config on 32x32 windows at B = 1
        and B = 3, which calls each traced entry point: every
        ``_each_sample`` call has one task per sample, and the output and
        every layer's gradients are the serial bits with every loop allowed
        to pool."""
        params = model.build_model(model.ModelConfig(), Rng(994))
        rng = Rng(993)
        counts = _count_tasks(monkeypatch)
        for batch in (1, 3):
            xs = _rand((1, batch, 5, 32, 32), rng)
            d_out = _rand((1, batch, 1, 96, 96), rng)
            runs = []
            for cutoff in (math.inf, 0):
                monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", cutoff)
                counts.clear()
                out, caches = model._forward_batch(params, xs, keep_caches=True)
                grads = model._backward_batch(params, caches, d_out.copy())
                runs.append([out] + [a for pair in grads for a in pair])
                assert counts and set(counts) == {batch}, (batch, cutoff, counts)
            for i, (serial, pooled) in enumerate(zip(*runs)):
                assert np.array_equal(pooled, serial), (batch, i)

    def test_block_task_error_and_errstate(self, monkeypatch):
        """A float32 overflow in a pooled sample's GEMM raises in the caller
        with its own type under ``errstate(over="raise")``, and under
        "ignore" gives inf with no warning (pytest turns warnings into
        errors): the caller's errstate holds in the pool tasks."""
        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", 0)
        geom = ConvGeometry(2, 6, 3, 1, (0, 1, 1))
        x = np.full((2, 2, 3, 8, 8), 1e30, np.float32)
        w = np.full(geom.weight_shape(False), 1e30, np.float32)
        b = _zeros(6)
        counts = _count_tasks(monkeypatch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _conv_fwd_b(x, w, b, geom)
        with np.errstate(over="ignore"):
            assert np.isposinf(_conv_fwd_b(x, w, b, geom)).all()
        assert counts == [2, 2]


class TestChunkedGather:
    """A forward gather fills and multiplies each task's columns in chunks
    of whole output rows of at most ``_GATHER_CHUNK_ELEMENTS`` scratch
    elements, while whether it pools still goes by a task's whole columns;
    on the paper's layers the float32 chunks keep the whole-column bits."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ops, "_CPUS", 2)

    def test_paper_l1_scratch_is_one_chunk(self, monkeypatch):
        geom, in_sp = _PAPER_B1["paper L1"]
        rng = Rng(998)
        x = _rand((64, 2) + in_sp, rng)
        w = 0.1 * _rand(geom.weight_shape(False), rng)
        calls = []
        each_sample = ops._each_sample

        def spy(task, n_tasks, task_elements, scratch_shape, dtype):
            calls.append((n_tasks, task_elements, tuple(scratch_shape)))
            return each_sample(task, n_tasks, task_elements, scratch_shape, dtype)

        monkeypatch.setattr(ops, "_each_sample", spy)
        _conv_fwd_b(x, w, _zeros(64), geom)
        # one task per sample, pooled by its 1728 x 1024 columns, in
        # 4-row chunks of 1728 x 128
        assert calls == [(2, 1728 * 1024, (1728, 4 * 32))]
        assert math.prod(calls[0][2]) <= 1 << 18

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("case", sorted(_PAPER_B1))
    def test_chunks_keep_the_whole_column_bits(self, case, batch, monkeypatch):
        geom, in_sp = _PAPER_B1[case]
        rng = Rng(999)
        x = _rand((geom.in_channels, batch) + in_sp, rng)
        w = 0.1 * _rand(geom.weight_shape(False), rng)
        b = _rand((geom.out_channels,), rng)
        outs = []
        for chunk in (math.inf, ops._GATHER_CHUNK_ELEMENTS):
            monkeypatch.setattr(ops, "_GATHER_CHUNK_ELEMENTS", chunk)
            outs.append(_conv_fwd_b(x, w, b, geom))
        assert np.array_equal(outs[1], outs[0])

    def test_paper_forward_on_a_whole_slice(self, monkeypatch):
        """``forward`` of the paper config on a 170x170 window, the size of
        a benchmark slice: L1 gathers 1-row and L2 2-row chunks of
        170-column rows, which are not multiples of the GEMM kernel's width,
        and they give the whole-column bits."""
        params = model.build_model(model.ModelConfig(), Rng(996))
        x = Rng(997).next_floats(5 * 170 * 170).reshape(1, 5, 170, 170).astype(np.float32)
        outs = []
        for chunk in (math.inf, ops._GATHER_CHUNK_ELEMENTS):
            monkeypatch.setattr(ops, "_GATHER_CHUNK_ELEMENTS", chunk)
            outs.append(model.forward(params, x))
        assert np.array_equal(outs[1], outs[0])


class TestInPlaceBackward:
    """With ``need_dx`` a layer's backward writes d_xs into the memory of
    its input xs, which it consumes; without it, xs is unchanged."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(_ENGINE_BITS))
    def test_dx_overwrites_the_input(self, case, dtype):
        geom, in_sp, fwd_b, bwd_b, *_ = _ENGINE_BITS[case]
        rng = Rng(992)
        x = _rand((geom.in_channels, 3) + in_sp, rng).astype(dtype)
        w = _rand(geom.weight_shape(fwd_b is _deconv_textbook_b), rng).astype(dtype)
        g = _rand(fwd_b(x, w, np.zeros(geom.out_channels, dtype), geom).shape, rng).astype(dtype)
        kept = x.copy()
        d_w, d_b, d_x = bwd_b(x, w, geom, g, False)
        assert d_x is None and np.array_equal(x, kept)
        d_w2, d_b2, d_x = bwd_b(x, w, geom, g, True)
        assert d_x.shape == x.shape and d_x.dtype == dtype
        assert np.shares_memory(d_x, x)
        assert np.array_equal(d_w2, d_w) and np.array_equal(d_b2, d_b)

    @pytest.mark.parametrize("case", sorted(_ENGINE_BITS))
    def test_a_strided_input_gives_the_bits_of_a_contiguous_one(self, case):
        """xs may be a strided view, whose d_xs may be a copy: its results
        are those of the contiguous input."""
        geom, in_sp, fwd_b, bwd_b, *_ = _ENGINE_BITS[case]
        rng = Rng(991)
        wide = _rand((geom.in_channels, 6) + in_sp, rng)
        w = _rand(geom.weight_shape(fwd_b is _deconv_textbook_b), rng)
        x = wide[:, ::2]
        g = _rand(fwd_b(x, w, _zeros(geom.out_channels), geom).shape, rng)
        want = bwd_b(np.ascontiguousarray(x), w, geom, g, True)
        got = bwd_b(x, w, geom, g, True)
        for name, a, b in zip(("d_w", "d_b", "d_x"), got, want):
            assert np.array_equal(a, b), name


# The backward passes that channel chunks reach: (geometry, input extents,
# forward, backward, output extents of a deconv).  The paper's L1 and L2 on a
# 32x32 tile, its deconv (32 channels: 28 + 4 per 2^18-element chunk in the
# forward's adjoint), a k = 5, r = 2 deconv cropped by one row and column, as
# in the grid search, the final narrow 4 -> 1 conv at the upsampled size, and
# the grid search's narrow 16 -> 4 conv, whose forward is an adjoint of 4
# channels in chunks of 3 + 1.
_CHUNKED_BWD = {
    "paper L1": _PAPER_B1["paper L1"] + (_conv_fwd_b, _conv_bwd_b, None),
    "paper L2": _PAPER_B1["paper L2"] + (_conv_fwd_b, _conv_bwd_b, None),
    "paper deconv": (ConvGeometry(32, 32, (1, 3, 3), (1, 3, 3), 0), (1, 32, 32),
                     _deconv_fwd_b, _deconv_bwd_b, (1, 96, 96)),
    "k5 r2 deconv": (ConvGeometry(16, 16, (1, 5, 5), (1, 2, 2), (0, 1, 1)), (1, 32, 32),
                     _deconv_fwd_b, _deconv_bwd_b, (1, 64, 64)),
    "narrow 4->1": (ConvGeometry(4, 1, (1, 3, 3), 1, (0, 1, 1)), (1, 96, 96),
                    _conv_fwd_b, _conv_bwd_b, None),
    "narrow 16->4": (ConvGeometry(16, 4, 3, 1, (0, 1, 1)), (3, 32, 32),
                     _conv_fwd_b, _conv_bwd_b, None),
}


def _chunked_case(case, batch, dtype):
    """(geometry, forward, backward, input, weights, bias, output gradient)
    of a ``_CHUNKED_BWD`` case at ``batch`` samples."""
    geom, in_sp, fwd_b, bwd_b, out_sp = _CHUNKED_BWD[case]
    rng = Rng(988)
    x = _rand((geom.in_channels, batch) + in_sp, rng).astype(dtype)
    w = (0.1 * _rand(geom.weight_shape(fwd_b is _deconv_fwd_b), rng)).astype(dtype)
    b = _rand((geom.out_channels,), rng).astype(dtype)
    if out_sp is not None:
        fwd_b = functools.partial(fwd_b, out_sp=out_sp)
    g = _rand(fwd_b(x, w, b, geom).shape, rng).astype(dtype)
    return geom, fwd_b, bwd_b, x, w, b, g


class TestChunkedBackward:
    """A d_w pass, and the adjoint's W^T @ G_n with its tap adds, go in
    chunks of whole input channels of at most ``_GATHER_CHUNK_ELEMENTS``
    scratch elements in any dtype, while whether they pool still goes by a
    task's whole matrix; on these layers the float32 chunks keep the
    whole-matrix bits."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ops, "_CPUS", 2)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("case", sorted(_CHUNKED_BWD))
    def test_chunks_keep_the_whole_matrix_bits(self, case, batch, monkeypatch):
        geom, fwd_b, bwd_b, x, w, b, g = _chunked_case(case, batch, np.float32)
        runs = []
        for chunk in (math.inf, ops._GATHER_CHUNK_ELEMENTS):
            monkeypatch.setattr(ops, "_GATHER_CHUNK_ELEMENTS", chunk)
            runs.append((fwd_b(x, w, b, geom),) + bwd_b(x, w, geom, g, False)
                        + bwd_b(x.copy(), w, geom, g, True))
        names = ("forward", "d_w", "d_b", "no d_x", "d_w", "d_b", "d_x")
        for name, whole, chunked in zip(names, *runs):
            assert np.array_equal(chunked, whole), name

    def _scratch_shapes(self, case, dtype, monkeypatch):
        """The scratch shape of each ``_each_sample`` call of a forward and a
        backward with d_x at B = 2, by the pass's whole scratch size."""
        geom, fwd_b, bwd_b, x, w, b, g = _chunked_case(case, 2, dtype)
        calls = {}
        each_sample = ops._each_sample

        def spy(task, n_tasks, task_elements, scratch_shape, dtype):
            calls.setdefault(task_elements, []).append(tuple(scratch_shape))
            return each_sample(task, n_tasks, task_elements, scratch_shape, dtype)

        with monkeypatch.context() as m:
            m.setattr(ops, "_each_sample", spy)
            fwd_b(x, w, b, geom)
            bwd_b(x, w, geom, g, True)
        return calls

    def test_paper_chunks(self, monkeypatch):
        # L1: 9 of 64 channels, 243 of 1728 rows, in its d_w pass and adjoint
        l1 = self._scratch_shapes("paper L1", np.float32, monkeypatch)
        assert l1[1728 * 1024] == [(1728, 4 * 32), (9 * 27, 1024), (9 * 27, 1024)]
        # the deconv forward's adjoint: 28 of 32 channels, then 4
        deconv = self._scratch_shapes("paper deconv", np.float32, monkeypatch)
        assert deconv[288 * 1024] == [(28 * 9, 1024), (288, 1024)]
        # the narrow forward's adjoint: 3 of 4 channels, then 1
        narrow = self._scratch_shapes("narrow 16->4", np.float32, monkeypatch)
        assert narrow[108 * 3072] == [(3 * 27, 3072), (108, 3072)]

    @pytest.mark.parametrize("case", sorted(_CHUNKED_BWD))
    def test_float64_passes_take_the_float32_chunks(self, case, monkeypatch):
        f32 = self._scratch_shapes(case, np.float32, monkeypatch)
        assert self._scratch_shapes(case, np.float64, monkeypatch) == f32


# Every (module, attribute) that benchmarks/tracing.py wraps, with the
# argument names its wrapper binds: a layer's ConvGeometry and the arrays
# that give its FLOPs, the config or params whose layer plan names the
# layers, and the buffer whose bytes it counts.
_TRACED = [
    (ops, "_conv_fwd_b", {"xs", "geom"}),
    (ops, "_conv_bwd_b", {"geom", "g", "need_dx"}),
    (ops, "_deconv_fwd_b", {"xs", "geom"}),
    (ops, "_deconv_bwd_b", {"xs", "geom", "g", "need_dx"}),
    (model, "conv3d_forward", {"x", "geom"}),
    (model, "deconv3d_forward", {"x", "geom"}),
    (model, "forward", set()),
    (model, "_forward_batch", set()),
    (model, "_backward_batch", set()),
    (model, "sgd_step", set()),
    (model, "_validation_psnr", set()),
    (model, "train", {"cfg"}),
    (model, "infer_volume", {"params"}),
    (model, "load_checkpoint", set()),
    (grid, "grid_search", {"epoch_budget"}),
    (grid, "train", {"cfg"}),
    (grid, "make_pairs", set()),
    (pipeline, "make_pairs", set()),
    (pipeline, "downsample_axial", set()),
    (resample, "downsample_axial", set()),
    (resample, "bicubic_upsample", set()),
    (metrics, "psnr", set()),
    (metrics, "ssim", set()),
    (metrics, "paired_t_test", set()),
    (volume, "serialize_volume", set()),
    (volume, "deserialize_volume", {"buf"}),
]


def _traced_id(module, attr):
    """``attr-``, with the module after the dash when two modules share the
    attribute name."""
    shared = [a for _, a, _ in _TRACED].count(attr) > 1
    return f"{attr}-{module.__name__.rpartition('.')[2] if shared else ''}"


class TestTracingContract:
    """benchmarks/tracing.py replaces these module attributes and binds
    these parameters by name to attribute each call to a layer and count
    its work; a missing name breaks the traced benchmark run, and a renamed
    parameter silently zeroes its per-layer metrics."""

    @pytest.mark.parametrize(
        "module, attr, names", _TRACED, ids=[_traced_id(m, a) for m, a, _ in _TRACED]
    )
    def test_traced_parameter_names(self, module, attr, names):
        fn = getattr(module, attr)
        assert callable(fn)
        assert names <= set(inspect.signature(fn).parameters)

    def test_narrow_conv_calls_no_traced_deconv(self, monkeypatch):
        """The narrow conv is a transposed conv inside ``_conv_fwd_b`` and
        ``_conv_bwd_b``; routed through a traced deconv name, its layer's
        time and FLOPs would be counted twice."""

        def traced(*args, **kwargs):
            raise AssertionError("the narrow conv called a traced deconv")

        monkeypatch.setattr(ops, "_deconv_fwd_b", traced)
        monkeypatch.setattr(ops, "_deconv_bwd_b", traced)
        geom, x, w, b = _conv_engine_case(Rng(960), "narrow")
        assert ops._narrow(geom)
        g = _f64_array(_conv_fwd_b(x, w, b, geom).shape, Rng(961))
        _conv_bwd_b(x, w, geom, g, True)

    @pytest.mark.parametrize("cfg", [
        model.ModelConfig(),
        model.ModelConfig(feature_depth=5, conv_layers=2, filters=(16, 4, 4, 1), kernel=5,
                          scale=2),
    ], ids=["paper", "grid k5 r2"])
    def test_layer_plan_entries(self, cfg):
        """``Tracer.set_plan`` unpacks each ``model._layer_plan`` entry as
        (kind, geometry, weight block shape) and keys the layers by their
        geometry."""
        for kind, geom, shape in model._layer_plan(cfg):
            assert kind in ("conv", "deconv")
            assert isinstance(geom, ConvGeometry)
            assert shape == geom.weight_shape(kind == "deconv")


class _ParamsStub:
    def __init__(self, layers):
        self.layers = layers


class _LayerStub:
    def __init__(self, weights, bias):
        self.weights = weights
        self.bias = bias


def _f32(values):
    return np.array(values, dtype=np.float32)


def _grads(dw, db):
    return np.array(dw), np.array(db)


class TestSgdStep:
    def test_zero_grads_keep_params(self):
        layer = _LayerStub(_f32([1.0, 2.0]), _f32([0.5]))
        before_w = layer.weights.copy()
        sgd_step(_ParamsStub([layer]), [_grads([0.0, 0.0], [0.0])], 0.1)
        assert np.array_equal(layer.weights, before_w)

    def test_basic_update(self):
        layer = _LayerStub(_f32([1.0]), _f32([0.0]))
        sgd_step(_ParamsStub([layer]), [_grads([2.0], [0.0])], 0.1)
        assert layer.weights[0] == pytest.approx(0.8)

    def test_scalar_quadratic_step(self):
        # loss (w-3)^2 at w=0: dw = -6, one step at lr 0.1 lands on 0.6
        layer = _LayerStub(_f32([0.0]), _f32([0.0]))
        sgd_step(_ParamsStub([layer]), [_grads([-6.0], [0.0])], 0.1)
        assert layer.weights[0] == pytest.approx(0.6)

    def test_rejects_nonfinite_grads_naming_layer(self):
        layer = _LayerStub(_f32([1.0]), _f32([0.0]))
        with pytest.raises(NonFiniteError, match="layer 0"):
            sgd_step(_ParamsStub([layer]), [_grads([np.nan], [0.0])], 0.1)

    def test_rejects_gradient_that_overflows_float32(self):
        # 1e39 is finite in float64 but not in the parameters' float32
        layers = [_LayerStub(_f32([1.0]), _f32([0.0])) for _ in range(2)]
        grads = [_grads([0.0], [0.0]), _grads([1e39], [0.0])]
        assert np.isfinite(grads[1][0]).all()
        with pytest.raises(NonFiniteError, match="layer 1"):
            sgd_step(_ParamsStub(layers), grads, 0.1)

    def test_nonfinite_gradient_updates_no_layer(self):
        layers = [_LayerStub(_f32([1.0]), _f32([0.0])) for _ in range(2)]
        grads = [_grads([1.0], [0.0]), _grads([np.nan], [0.0])]
        with pytest.raises(NonFiniteError, match="layer 1"):
            sgd_step(_ParamsStub(layers), grads, 0.5)
        assert layers[0].weights[0] == 1.0

    def test_overflowing_step_updates_no_layer(self):
        # a finite float32 gradient times a large lr overflows float32
        layers = [_LayerStub(_f32([1.0]), _f32([0.0])) for _ in range(2)]
        grads = [_grads([1.0], [0.0]), _grads([1e30], [0.0])]
        with pytest.raises(NonFiniteError, match="non-finite update in layer 1"):
            sgd_step(_ParamsStub(layers), grads, 1e10)
        assert layers[0].weights[0] == 1.0 and layers[1].weights[0] == 1.0

    def test_rejects_bad_lr_and_shapes(self):
        layer = _LayerStub(_f32([1.0]), _f32([0.0]))
        with pytest.raises(ValueError):
            sgd_step(_ParamsStub([layer]), [_grads([1.0], [0.0])], 0.0)
        with pytest.raises(ValueError, match="layer 0"):
            sgd_step(_ParamsStub([layer]), [_grads([1.0, 2.0], [0.0])], 0.1)
