"""Image-quality metrics and the paired t-test used to compare methods.

SSIM uses the classic configuration: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 1.0 (images normalized to [0, 1]),
evaluated over valid window positions only (no padding).

The Gaussian filter runs as banded GEMMs over blocks of SSIM_BLOCK map rows.
For each block the rows of x, y, x^2, y^2 and xy are stacked, filtered down
the rows by one GEMM with the band matrix T[i, i + k] = g[k], then along the
columns by GEMMs with T's transpose over blocks of SSIM_BLOCK columns, and
the SSIM formula is evaluated while the block is still in cache.  The five
maps of a 510x510 pair then stay within L2, where the shifted-add filter
this replaced made 22 full-image passes per map with a fresh 2 MB temporary
for each: 70-80 ms per pair against about 20 ms, one BLAS thread, 2-vCPU
Xeon.  Blocks of 24-32 rows and columns measured fastest there, 64 about a
third slower.  A GEMM sums each window in its own order, so a map element
can differ from the shifted-add sum in the last bits: the SSIM of each of
the benchmark's 32 510x510 slice pairs moved by at most 7e-16, and on four
random images 41-140 pixels a side it equalled the per-window sum.
x and y go through GEMMs of identical shape, so ssim(a, a) == 1.0 and
ssim(a, b) == ssim(b, a) hold exactly.

The t-test p-value comes from the Student-t CDF expressed through the
regularized incomplete beta function, evaluated with Lentz's continued
fraction, accurate to ~1e-15 relative, which keeps far tails (p < 1e-16)
stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tensor

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_RANGE = 1.0
SSIM_BLOCK = 32  # map rows, and columns, one banded GEMM produces

PSNR_INF = float("inf")


@dataclass
class SliceSample:
    slice_id: str
    psnr: float
    ssim: float


@dataclass
class TTestResult:
    mean_diff: float
    t_statistic: float
    degrees_of_freedom: int
    p_value: float


@dataclass
class AggregateStats:
    psnr_mean: float
    psnr_sd: float
    ssim_mean: float
    ssim_sd: float
    count: int
    psnr_excluded: int  # +inf sentinels left out of the PSNR mean/sd


def psnr(a: Tensor, b: Tensor, max_value: float) -> float:
    """10*log10(max_value^2 / MSE); identical inputs return +inf (sentinel)."""
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    if max_value <= 0:
        raise ValueError(f"max_value must be > 0, got {max_value}")
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_INF
    return 10.0 * math.log10(max_value * max_value / mse)


def _gaussian_window() -> np.ndarray:
    t = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2
    g = np.exp(-(t * t) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


def _band_matrix(size: int) -> np.ndarray:
    """[size, size + SSIM_WINDOW - 1] with T[i, i + k] = g[k]: ``T @ rows``
    is the valid Gaussian filter down the rows, ``cols @ T.T`` along them."""
    band = np.zeros((size, size + SSIM_WINDOW - 1))
    i = np.arange(size)
    for k, gk in enumerate(_gaussian_window()):
        band[i, i + k] = gk
    return band


_SSIM_BAND = _band_matrix(SSIM_BLOCK)


def ssim(a: Tensor, b: Tensor) -> float:
    """Mean structural-similarity index over all valid window positions."""
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if len(a.shape) != 2:
        raise ValueError(f"ssim expects 2D images, got shape {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    halo = SSIM_WINDOW - 1
    h, w = a.shape
    ssim_map = np.empty((h - halo, w - halo))
    # x, y, x^2, y^2, xy over one block's input rows (products of float32
    # values are exact in float64), then their filtered values
    stack = np.empty((5, SSIM_BLOCK + halo, w))
    filtered = np.empty((5, SSIM_BLOCK, w - halo))
    for i0 in range(0, h - halo, SSIM_BLOCK):
        rows = min(SSIM_BLOCK, h - halo - i0)
        s = stack[:, : rows + halo]
        s[0] = a.data[i0 : i0 + rows + halo]
        s[1] = b.data[i0 : i0 + rows + halo]
        np.multiply(s[0], s[0], out=s[2])
        np.multiply(s[1], s[1], out=s[3])
        np.multiply(s[0], s[1], out=s[4])
        down = _SSIM_BAND[:rows, : rows + halo] @ s
        f = filtered[:, :rows]
        for j0 in range(0, w - halo, SSIM_BLOCK):
            cols = min(SSIM_BLOCK, w - halo - j0)
            np.matmul(
                down[:, :, j0 : j0 + cols + halo],
                _SSIM_BAND[:cols, : cols + halo].T,
                out=f[:, :, j0 : j0 + cols],
            )
        _ssim_formula(*f, out=ssim_map[i0 : i0 + rows])
    return float(np.mean(ssim_map))


def _ssim_formula(mx, my, sxx, syy, sxy, out: np.ndarray) -> None:
    """SSIM of filtered means and second moments into ``out``; overwrites
    its inputs.  Every step pairs the x and y terms symmetrically."""
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    num = mx * my
    mx *= mx
    my *= my
    sxy -= num  # covariance
    sxy *= 2.0
    sxy += c2
    num *= 2.0
    num += c1
    num *= sxy
    sxx -= mx  # variances
    syy -= my
    sxx += syy
    sxx += c2
    mx += my
    mx += c1
    mx *= sxx  # denominator
    np.divide(num, mx, out=out)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    max_iter = 500
    eps = 1e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use whichever side of the symmetry converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for T ~ Student-t with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on d = x - y with sample (n-1) variance.

    Zero-variance differences are degenerate: t = +/-inf and p = 0 when the
    common difference is nonzero, t = 0 and p = 1 when it is zero.
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"need two equal-length 1D samples, got {xs.shape} and {ys.shape}")
    n = xs.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = xs - ys
    mean = float(np.mean(d))
    sd = _sample_sd(d)
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 0.0, df, 1.0)
        return TTestResult(mean, math.copysign(math.inf, mean), df, 0.0)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(mean, t, df, student_t_two_sided_p(t, df))


def aggregate(samples: Sequence[SliceSample]) -> AggregateStats:
    """Mean and sample standard deviation per metric; +inf PSNR sentinels are
    excluded and counted.  A single value has sd 0 by convention."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot aggregate an empty sample list")
    psnrs = [s.psnr for s in samples if math.isfinite(s.psnr)]
    excluded = len(samples) - len(psnrs)
    ssims = [s.ssim for s in samples]
    return AggregateStats(
        psnr_mean=float(np.mean(psnrs)) if psnrs else PSNR_INF,
        psnr_sd=_sample_sd(psnrs),
        ssim_mean=float(np.mean(ssims)),
        ssim_sd=_sample_sd(ssims),
        count=len(samples),
        psnr_excluded=excluded,
    )


def _sample_sd(values: Sequence[float]) -> float:
    """Sample (n-1) standard deviation; 0 for fewer than two values."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return 0.0
    mean = float(np.mean(v))
    return float(np.sqrt(np.sum((v - mean) ** 2) / (v.size - 1)))

