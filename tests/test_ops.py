import inspect

import numpy as np
import pytest

from ctsr import grid, metrics, model, ops, pipeline, resample, volume
from ctsr.ops import (
    ConvGeometry,
    _conv_bwd_b,
    _conv_fwd_b,
    _deconv_bwd_b,
    _deconv_fwd_b,
    conv3d_forward,
    deconv3d_forward,
    sgd_step,
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


# The engine at B = 1 on float64 [C, D, H, W] arrays, for checks that need
# more precision than the float32 public ops keep.


def _conv_f64(x, w, b, geom):
    return _conv_fwd_b(x[:, None], w, b, geom)[:, 0]


def _conv_bwd_f64(x, w, geom, d_out):
    d_w, d_b, d_x = _conv_bwd_b(x[:, None], w, geom, d_out[:, None], True)
    return d_w, d_b, d_x[:, 0]


def _deconv_f64(x, w, b, geom):
    return _deconv_fwd_b(x[:, None], w, b, geom)[:, 0]


def _deconv_bwd_f64(x, w, geom, d_out):
    d_w, d_b, d_x = _deconv_bwd_b(x[:, None], w, geom, d_out[:, None], True)
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


def _conv_engine_case(rng, path):
    """Random conv geometry on one engine path, with a batch of two.

    "kn2row": C_out <= 4, in-plane stride one and more in-plane taps than
    one kn2row group holds (C_in // C_out of them); "im2col": C_out > 4.
    Each strided axis has up to s - 1 trailing input rows that no window
    reads ((n + 2p - k) not a multiple of s).
    """
    u = [int(v) for v in rng.next_u64(17)]
    if path == "kn2row":
        co = 1 + u[0] % ops._DIRECT_MAX_COUT
        ci = co + u[1] % (co + 1)  # groups of one or two taps
        ks = (1 + u[2] % 3, 2 + u[3] % 2, 2 + u[4] % 2)
        ss = (1 + u[5] % 2, 1, 1)
    else:
        co = ops._DIRECT_MAX_COUT + 1 + u[0] % 3
        ci = 1 + u[1] % 3
        ks = tuple(1 + u[2 + i] % 3 for i in range(3))
        ss = tuple(1 + u[5 + i] % 2 for i in range(3))
    ps = tuple(min(u[8 + i] % 2, (k - 1) // 2) for i, k in zip(range(3), ks))
    outs = tuple(1 + u[11 + i] % 3 for i in range(3))
    ins = tuple(
        (o - 1) * s + k - 2 * p + u[14 + i] % s
        for i, (o, s, k, p) in enumerate(zip(outs, ss, ks, ps))
    )
    geom = ConvGeometry(ci, co, ks, ss, ps)
    x = _f64_array((ci, 2) + ins, rng)
    w = _f64_array((co, ci) + ks, rng)
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
    "k=r,p=0" is the paper's case: kernel equal to the stride, no padding."""
    u = [int(v) for v in rng.next_u64(14)]
    ss = tuple(2 + u[i] % 2 for i in range(3))
    if kind == "k<r":
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


def _per_sample(oracle, x, w, b, geom):
    return np.stack(
        [oracle(x[:, n], w, b, geom.stride, geom.padding) for n in range(x.shape[1])], axis=1
    )


def _close(got, ref, tol=1e-12):
    assert got.shape == ref.shape
    return np.abs(got - ref).max() <= tol * max(np.abs(ref).max(), 1.0)


class TestBatchedEngine:
    """The batched engine against the loop-nest oracles, path by path."""

    @pytest.mark.parametrize("path", ["kn2row", "im2col"])
    def test_conv_matches_loop_nest_oracle(self, path):
        rng = Rng(900 if path == "kn2row" else 901)
        for _ in range(12):
            geom, x, w, b = _conv_engine_case(rng, path)
            if path == "kn2row":
                per_group = max(1, geom.in_channels // geom.out_channels)
                assert geom.kernel[1] * geom.kernel[2] > per_group, "several tap groups"
            assert ops._kn2row(geom) == (path == "kn2row")
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
            out = _deconv_fwd_b(x, w, b, geom)
            assert _close(out, _per_sample(deconv3d_scatter_loops, x, w, b, geom))

    @pytest.mark.parametrize("op", ["kn2row", "im2col", "k<r", "k=r", "k>r", "k=r,p=0"])
    def test_backward_is_adjoint_and_matches_finite_differences(self, op):
        rng = Rng(920 + ["kn2row", "im2col", "k<r", "k=r", "k>r", "k=r,p=0"].index(op))
        for _ in range(4):
            if op in ("kn2row", "im2col"):
                geom, x, w, _ = _conv_engine_case(rng, op)

                def fwd(wv, xv):
                    return _conv_fwd_b(xv, wv, np.zeros(geom.out_channels), geom)

                y = _f64_array(fwd(w, x).shape, rng)
                d_w, d_b, d_x = _conv_bwd_b(x, w, geom, y, True)
            else:
                geom, x, w, _ = _deconv_engine_case(rng, op)

                def fwd(wv, xv):
                    return _deconv_fwd_b(xv, wv, np.zeros(geom.out_channels), geom)

                y = _f64_array(fwd(w, x).shape, rng)
                d_w, d_b, d_x = _deconv_bwd_b(x, w, geom, y, True)
            # <op(x), y> == <x, op_bwd(y)>
            lhs = float(np.sum(fwd(w, x) * y))
            rhs = float(np.sum(x * d_x))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            assert np.allclose(d_b, y.reshape(geom.out_channels, -1).sum(axis=1), rtol=1e-12)
            # <op(x; w), y> is linear in w, so central differences are exact
            # up to rounding
            fd_w = central_difference(lambda v: float(np.sum(fwd(v, x) * y)), w, 1e-3)
            assert _close(d_w, fd_w, tol=1e-9)

    @pytest.mark.parametrize("path", ["kn2row", "im2col"])
    def test_unread_input_rows_get_zero_gradient(self, path):
        """d_x is exactly zero on the trailing input rows that no window
        reads, and elsewhere the transposed conv of the output gradient, by
        the scatter oracle and by finite differences."""
        rng = Rng(940 if path == "kn2row" else 941)
        cases_with_unread_rows = 0
        for _ in range(16):
            geom, x, w, _ = _conv_engine_case(rng, path)
            zero_b = np.zeros(geom.out_channels)
            y = _f64_array(_conv_fwd_b(x, w, zero_b, geom).shape, rng)
            d_x = _conv_bwd_b(x, w, geom, y, True)[2]
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

    def test_kn2row_without_dx_leaves_weights_gradient_alone(self):
        geom, x, w, b = _conv_engine_case(Rng(930), "kn2row")
        out = _conv_fwd_b(x, w, b, geom)
        g = _f64_array(out.shape, Rng(931))
        d_w, d_b, d_x = _conv_bwd_b(x, w, geom, g, False)
        ref = _conv_bwd_b(x, w, geom, g, True)
        assert d_x is None
        assert np.array_equal(d_w, ref[0]) and np.array_equal(d_b, ref[1])


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
    (grid, "grid_search", set()),
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
