import numpy as np
import pytest

from ctsr.resample import (
    bicubic_upsample,
    center_crop_to_multiple,
    cubic_kernel,
    downsample_axial,
)
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import Volume

from oracles import nearest_upsample_plane


def _ramp_volume(d=4, h=48, w=48):
    z, y, x = np.mgrid[0:d, 0:h, 0:w].astype(np.float64)
    data = 0.1 + 0.3 * y / h + 0.4 * x / w + 0.01 * z
    return Volume(Tensor(data), (1.0, 1.0, 1.0))


class TestKernel:
    def test_interpolating_property(self):
        # weight 1 at distance 0, weight 0 at integer distances
        assert cubic_kernel(np.array([0.0]))[0] == 1.0
        assert cubic_kernel(np.array([1.0]))[0] == 0.0
        assert cubic_kernel(np.array([2.0]))[0] == 0.0
        assert cubic_kernel(np.array([2.5]))[0] == 0.0

    def test_partition_of_unity(self):
        for frac in (0.0, 0.25, 0.5, 0.9):
            taps = np.array([frac + 1.0, frac, 1.0 - frac, 2.0 - frac])
            assert cubic_kernel(taps).sum() == pytest.approx(1.0, abs=1e-12)


class TestDownsample:
    def test_constant_stays_constant(self):
        vol = Volume(Tensor(np.full((4, 12, 12), 0.37, dtype=np.float32)))
        out = downsample_axial(vol, 3)
        assert out.shape == (4, 4, 4)
        assert np.allclose(out.data.data, 0.37, atol=1e-7)

    def test_shape_and_spacing(self):
        vol = Volume(Tensor(np.zeros((5, 48, 48), dtype=np.float32)), (2.0, 0.5, 0.5))
        out = downsample_axial(vol, 3)
        assert out.shape == (5, 16, 16)
        assert out.spacing == (2.0, 1.5, 1.5)

    def test_r1_forbidden(self):
        vol = _ramp_volume()
        with pytest.raises(ValueError):
            downsample_axial(vol, 1)

    def test_nondivisible_extent_center_cropped(self):
        vol = Volume(Tensor(np.zeros((2, 50, 49), dtype=np.float32)))
        out = downsample_axial(vol, 3)
        assert out.shape == (2, 16, 16)

    def test_bicubic_equals_bilinear_on_ramp(self):
        # at r=3 the sample points are grid-aligned, where both kernels are
        # exactly interpolating, so a linear ramp reproduces exactly
        vol = _ramp_volume()
        out = downsample_axial(vol, 3).data.data.astype(np.float64)
        src = vol.data.data
        idx = np.arange(16) * 3 + 1  # (i + 0.5)*3 - 0.5
        bilinear = src[:, idx][:, :, idx]
        assert np.abs(out - bilinear).max() <= 1e-6

    def test_deterministic(self):
        vol = Volume(Tensor(uniform_init([3, 24, 24], 0, 1, Rng(5))))
        a = downsample_axial(vol, 2).data.data
        b = downsample_axial(vol, 2).data.data
        assert np.array_equal(a, b)


class TestUpsample:
    def test_constant_slice(self):
        vol = Volume(Tensor(np.full((2, 8, 8), 0.42, dtype=np.float32)))
        out = bicubic_upsample(vol, 3)
        assert out.shape == (2, 24, 24)
        assert np.allclose(out.data.data, 0.42, atol=1e-7)

    def test_affine_ramp_exact_in_interior(self):
        vol = _ramp_volume(d=2, h=16, w=16)
        out = bicubic_upsample(vol, 2).data.data.astype(np.float64)
        # expected affine values at fine-grid coordinates
        yy = (np.arange(32) + 0.5) / 2 - 0.5
        xx = (np.arange(32) + 0.5) / 2 - 0.5
        expect = 0.1 + 0.3 * yy[:, None] / 16 + 0.4 * xx[None, :] / 16
        # the clamp at the borders breaks affineness; check the interior
        inner = slice(4, -4)
        for d in range(2):
            got = out[d, inner, inner]
            want = expect[inner, inner] + 0.01 * d
            assert np.abs(got - want).max() <= 1e-6

    def test_spacing_shrinks(self):
        vol = Volume(Tensor(np.zeros((2, 8, 8), dtype=np.float32)), (2.0, 1.2, 1.2))
        out = bicubic_upsample(vol, 2)
        assert out.spacing == (2.0, 0.6, 0.6)

    def test_r1_forbidden(self):
        with pytest.raises(ValueError):
            bicubic_upsample(_ramp_volume(), 1)

    def test_down_then_up_restores_extents(self):
        vol = Volume(Tensor(uniform_init([3, 48, 48], 0, 1, Rng(6))))
        round_trip = bicubic_upsample(downsample_axial(vol, 3), 3)
        assert round_trip.shape == vol.shape

    def test_bicubic_beats_nearest_on_smooth_data(self):
        # smooth structured slice: bicubic restoration should win clearly
        y, x = np.mgrid[0:48, 0:48].astype(np.float64)
        img = 0.5 + 0.3 * np.sin(2 * np.pi * y / 24) * np.cos(2 * np.pi * x / 16)
        vol = Volume(Tensor(np.tile(img, (2, 1, 1))))
        lr = downsample_axial(vol, 3)
        up = bicubic_upsample(lr, 3).data.data[0].astype(np.float64)
        nn = nearest_upsample_plane(lr.data.data[0].astype(np.float64), 3)
        mse_cubic = np.mean((up - img) ** 2)
        mse_nn = np.mean((nn - img) ** 2)
        assert mse_cubic < mse_nn


class TestCenterCrop:
    def test_no_crop_when_divisible(self):
        vol = Volume(Tensor(uniform_init([2, 12, 12], 0, 1, Rng(7))))
        assert center_crop_to_multiple(vol, 3) is vol

    def test_crops_symmetrically(self):
        data = np.arange(8 * 7, dtype=np.float32).reshape(1, 8, 7)
        out = center_crop_to_multiple(Volume(Tensor(data)), 3)
        assert out.shape == (1, 6, 6)
        # offsets: y0 = (8-6)//2 = 1, x0 = (7-6)//2 = 0
        assert np.array_equal(out.data.data[0], data[0, 1:7, 0:6])

    def test_too_small_rejected(self):
        vol = Volume(Tensor(np.zeros((1, 2, 2), dtype=np.float32)))
        with pytest.raises(ValueError):
            center_crop_to_multiple(vol, 3)
