import math

import numpy as np
import pytest

from ctsr.metrics import (
    SliceSample,
    _gaussian_window,
    aggregate,
    paired_t_test,
    psnr,
    regularized_incomplete_beta,
    ssim,
    student_t_two_sided_p,
)
from ctsr.tensor import Rng, Tensor, uniform_init

from oracles import (
    ssim_windows_loops,
    student_t_two_sided_p_by_integration,
    two_pass_mean_sd,
)


class TestPsnr:
    def test_identical_images_hit_sentinel(self):
        a = Tensor(uniform_init([8, 8], 0, 1, Rng(1)))
        assert psnr(a, a, 1.0) == float("inf")

    def test_uniform_error_analytic(self):
        a = Tensor(np.zeros((16, 16), dtype=np.float32))
        b = Tensor(np.full((16, 16), 0.1, dtype=np.float32))
        assert psnr(a, b, 1.0) == pytest.approx(20.0, abs=1e-5)

    def test_matches_two_line_oracle(self):
        rng = Rng(2)
        a = Tensor(uniform_init([12, 12], 0, 1, rng))
        b = Tensor(uniform_init([12, 12], 0, 1, rng))
        mse = float(
            np.mean((a.data.astype(np.float64) - b.data.astype(np.float64)) ** 2)
        )
        expected = 10.0 * math.log10(1.0 / mse)
        assert psnr(a, b, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        rng = Rng(3)
        a = Tensor(uniform_init([10, 10], 0, 1, rng))
        b = Tensor(uniform_init([10, 10], 0, 1, rng))
        assert psnr(a, b, 1.0) == psnr(b, a, 1.0)

    def test_monotone_in_noise_amplitude(self):
        rng = Rng(4)
        base = Tensor(uniform_init([24, 24], 0.3, 0.7, rng))
        noise = Tensor(uniform_init([24, 24], -1, 1, rng))
        values = []
        for amp in (0.01, 0.02, 0.05, 0.1):
            noisy = Tensor(base.data + np.float32(amp) * noise.data)
            values.append(psnr(base, noisy, 1.0))
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_errors(self):
        with pytest.raises(ValueError):
            psnr(Tensor([1.0]), Tensor([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            psnr(Tensor([1.0]), Tensor([1.0]), 0.0)


class TestSsim:
    def test_identical_nonconstant_is_one(self):
        a = Tensor(uniform_init([16, 16], 0, 1, Rng(5)))
        assert ssim(a, a) == 1.0

    def test_identical_constants_are_one(self):
        c = Tensor(np.full((12, 12), 0.4, dtype=np.float32))
        assert ssim(c, c) == 1.0

    def test_checkerboard_vs_inverse_is_negative(self):
        yy, xx = np.mgrid[0:16, 0:16]
        board = ((yy + xx) % 2).astype(np.float32)
        value = ssim(Tensor(board), Tensor(1.0 - board))
        oracle = ssim_windows_loops(board, 1.0 - board, _outer_window())
        assert value < 0
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_per_window_oracle_on_random_images(self):
        rng = Rng(6)
        a = Tensor(uniform_init([14, 15], 0, 1, rng))
        b = Tensor(uniform_init([14, 15], 0, 1, rng))
        expected = ssim_windows_loops(a.data, b.data, _outer_window())
        assert ssim(a, b) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_one_in_magnitude(self):
        rng = Rng(7)
        for _ in range(10):
            a = Tensor(uniform_init([13, 13], 0, 1, rng))
            b = Tensor(uniform_init([13, 13], 0, 1, rng))
            assert abs(ssim(a, b)) <= 1.0

    def test_shift_both_images_invariant_shift_one_not(self):
        rng = Rng(8)
        a = Tensor(uniform_init([16, 16], 0.2, 0.6, rng))
        noise = Tensor(uniform_init([16, 16], -0.05, 0.05, rng))
        b = Tensor(a.data + noise.data)  # correlated pair, high SSIM
        base = ssim(a, b)
        both = ssim(
            Tensor(a.data + np.float32(0.2)), Tensor(b.data + np.float32(0.2))
        )
        one = ssim(Tensor(a.data + np.float32(0.2)), b)
        # luminance compares raw means: shifting both nearly cancels, shifting
        # only one penalizes the luminance term
        assert base > 0.5
        assert abs(both - base) < 0.02
        assert base - one > 0.05

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="window"):
            ssim(Tensor(np.zeros((8, 8))), Tensor(np.zeros((8, 8))))

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2D"):
            ssim(Tensor(np.zeros((2, 12, 12))), Tensor(np.zeros((2, 12, 12))))


def _outer_window():
    g = _gaussian_window()
    return np.outer(g, g)


class TestIncompleteBeta:
    def test_analytic_case_a_one(self):
        # I_x(1, b) = 1 - (1-x)^b
        for x in (0.1, 0.5, 1.0 / 7.0):
            for b in (0.5, 1.0, 2.5):
                expected = 1.0 - (1.0 - x) ** b
                assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 3.0, 0.3), (0.5, 0.5, 0.8), (5.0, 1.5, 0.42)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


class TestStudentT:
    def test_p_matches_numerical_integration(self):
        for t, df in [(1.0, 1), (2.0, 2), (3.4641016, 2), (0.5, 10), (4.0, 30)]:
            expected = student_t_two_sided_p_by_integration(t, df)
            assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-6)

    def test_tail_is_stable(self):
        # far tails must not underflow to garbage; compare against the
        # analytic df=2 form p = 1 - |t|/sqrt(2 + t^2)
        for t in (10.0, 50.0, 200.0):
            analytic = 1.0 - t / math.sqrt(2.0 + t * t)
            assert student_t_two_sided_p(t, 2) == pytest.approx(analytic, rel=1e-10)

    def test_monotone_decreasing_in_t(self):
        for df in (1, 2, 5, 30):
            ps = [student_t_two_sided_p(t, df) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
            assert ps == sorted(ps, reverse=True)
            assert len(set(ps)) == len(ps)


class TestPairedTTest:
    def test_equal_samples(self):
        r = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.mean_diff == 0.0
        assert r.t_statistic == 0.0
        assert r.p_value == 1.0
        assert r.degrees_of_freedom == 2

    def test_zero_variance_nonzero_diff(self):
        r = paired_t_test([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        assert r.t_statistic == float("inf")
        assert r.p_value == 0.0

    def test_reference_case(self):
        # d = [1, 2, 3]: t = 2 / (1/sqrt(3)) = 3.4641, p ~ 0.0742
        r = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert r.degrees_of_freedom == 2
        assert r.t_statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-3)
        expected_p = student_t_two_sided_p_by_integration(r.t_statistic, 2)
        assert r.p_value == pytest.approx(expected_p, abs=1e-3)
        assert r.p_value == pytest.approx(0.0742, abs=2e-4)

    def test_antisymmetry(self):
        rng = Rng(9)
        x = list(rng.next_floats(10))
        y = list(rng.next_floats(10))
        fwd = paired_t_test(x, y)
        rev = paired_t_test(y, x)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_p_values_match_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = Rng(77)
        for n in (2, 3, 5, 12, 40):
            for shift in (0.0, 0.05, 0.3, 1.0):
                x = rng.next_floats(n)
                y = x - shift + 0.2 * (rng.next_floats(n) - 0.5)
                ours = paired_t_test(x.tolist(), y.tolist())
                ref = stats.ttest_rel(x, y)
                assert ours.t_statistic == pytest.approx(ref.statistic, rel=1e-9, abs=1e-12)
                assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)


class TestAggregate:
    def test_single_sample_convention(self):
        agg = aggregate([SliceSample("s0", 20.0, 0.9)])
        assert agg.psnr_mean == 20.0 and agg.psnr_sd == 0.0
        assert agg.ssim_mean == 0.9 and agg.ssim_sd == 0.0

    def test_hand_arithmetic(self):
        agg = aggregate(
            [SliceSample("a", 20.0, 0.8), SliceSample("b", 22.0, 0.9)]
        )
        assert agg.psnr_mean == pytest.approx(21.0)
        assert agg.psnr_sd == pytest.approx(math.sqrt(2.0))

    def test_matches_streaming_oracle(self):
        rng = Rng(10)
        ps = list(20 + 10 * rng.next_floats(1000))
        ss = list(rng.next_floats(1000))
        agg = aggregate([SliceSample(str(i), p, s) for i, (p, s) in enumerate(zip(ps, ss))])
        mean_p, sd_p = two_pass_mean_sd(ps)
        mean_s, sd_s = two_pass_mean_sd(ss)
        assert agg.psnr_mean == pytest.approx(mean_p, abs=1e-9)
        assert agg.psnr_sd == pytest.approx(sd_p, abs=1e-9)
        assert agg.ssim_mean == pytest.approx(mean_s, abs=1e-9)
        assert agg.ssim_sd == pytest.approx(sd_s, abs=1e-9)

    def test_infinite_psnr_excluded_and_counted(self):
        agg = aggregate(
            [
                SliceSample("a", float("inf"), 1.0),
                SliceSample("b", 30.0, 0.9),
                SliceSample("c", 20.0, 0.8),
            ]
        )
        assert agg.psnr_excluded == 1
        assert agg.psnr_mean == pytest.approx(25.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

