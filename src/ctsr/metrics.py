"""Image-quality metrics and the paired t-test used to compare methods.

SSIM uses the classic configuration: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 1.0 (images normalized to [0, 1]),
evaluated over valid window positions only (no padding).

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


_SSIM_G = _gaussian_window()


def _valid_filter(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian-weighted local mean, valid positions only."""
    n = SSIM_WINDOW
    h, w = img.shape
    rows = np.zeros((h - n + 1, w), dtype=np.float64)
    for k in range(n):
        rows += _SSIM_G[k] * img[k : h - n + 1 + k, :]
    out = np.zeros((h - n + 1, w - n + 1), dtype=np.float64)
    for k in range(n):
        out += _SSIM_G[k] * rows[:, k : w - n + 1 + k]
    return out


def ssim(a: Tensor, b: Tensor) -> float:
    """Mean structural-similarity index over all valid window positions."""
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if len(a.shape) != 2:
        raise ValueError(f"ssim expects 2D images, got shape {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    x = a.data.astype(np.float64)
    y = b.data.astype(np.float64)
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    mx = _valid_filter(x)
    my = _valid_filter(y)
    sxx = _valid_filter(x * x) - mx * mx
    syy = _valid_filter(y * y) - my * my
    sxy = _valid_filter(x * y) - mx * my
    num = (2.0 * mx * my + c1) * (2.0 * sxy + c2)
    den = (mx * mx + my * my + c1) * (sxx + syy + c2)
    return float(np.mean(num / den))


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
    sd = float(np.sqrt(np.sum((d - mean) ** 2) / (n - 1)))
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


def _sample_sd(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = float(np.mean(values))
    return float(np.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1)))

