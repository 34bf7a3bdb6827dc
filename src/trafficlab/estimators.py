"""Burstiness statistics: count series, variance-scaling Hurst estimates,
and log-log tail-index fits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import PacketTrace

__all__ = [
    "CountSeries",
    "HurstEstimate",
    "TailFit",
    "bin_counts",
    "hurst_aggregated_variance",
    "fit_tail_index",
]


@dataclass(eq=False)
class CountSeries:
    """Traffic volume per fixed-width time bin."""

    bin_width: float
    counts: np.ndarray
    unit: str  # "packets" or "bytes"

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("counts must be a nonempty 1-d array")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if self.unit not in ("packets", "bytes"):
            raise ValueError("unit must be 'packets' or 'bytes'")
        object.__setattr__(self, "counts", c)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class HurstEstimate:
    """Variance-scaling estimate; H near 0.5 means no long memory,
    H near 1 means block means decay anomalously slowly."""

    H: float
    slope: float
    levels_used: tuple[int, ...]
    fit_r2: float
    clipped: bool = False  # true when the raw estimate fell outside (0, 1)


@dataclass(frozen=True)
class TailFit:
    alpha_hat: float
    fit_range: tuple[float, float]
    fit_r2: float


_MAX_BINS = 1 << 28  # 2 GiB of int64 counts


def bin_counts(trace: PacketTrace, bin_width: float, unit: str = "packets") -> CountSeries:
    """Aggregate the trace into complete bins of bin_width seconds.

    Bin k covers [k*w, (k+1)*w) from the first arrival; the trailing
    partial bin is dropped. When the trace span is an exact multiple
    of w the final edge is closed so the last packet is kept.

    A width that cuts the trace into more than 2**28 bins, whose counts
    alone would take 2 GiB, is refused before anything is allocated.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    duration = trace.timestamps[-1] - trace.timestamps[0]
    if duration <= bin_width:
        raise ValueError(f"bin_width {bin_width} spans fewer than 2 bins of a {duration} s trace")
    bins = float(duration) / float(bin_width)  # inf, not a numpy warning, past the largest float
    if bins > _MAX_BINS:
        raise ValueError(f"bin_width {bin_width} cuts the {duration} s trace into {bins:.4g} bins, more than 2**28")
    rel = trace.timestamps - trace.timestamps[0]
    n_bins = int(bins)
    idx = (rel / bin_width).astype(np.int64)
    if duration == n_bins * bin_width:
        idx = np.where(rel == duration, n_bins - 1, idx)
    mask = idx < n_bins
    if unit == "packets":
        counts = np.bincount(idx[mask], minlength=n_bins)
    elif unit == "bytes":
        counts = np.bincount(idx[mask], weights=trace.sizes[mask], minlength=n_bins).astype(np.int64)
    else:
        raise ValueError("unit must be 'packets' or 'bytes'")
    return CountSeries(bin_width=bin_width, counts=counts, unit=unit)


def default_levels(n: int) -> list[int]:
    """Powers of two from 1 up while at least 8 blocks remain."""
    levels = []
    a = 1
    while a <= n // 8:
        levels.append(a)
        a *= 2
    return levels


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y = slope*x + intercept; returns (slope, intercept, r2)."""
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise ValueError("degenerate fit: x values are all equal")
    slope = float(xm @ ym) / sxx
    intercept = float(y.mean() - slope * x.mean())
    syy = float(ym @ ym)
    r2 = 1.0 if syy == 0.0 else float((xm @ ym) ** 2 / (sxx * syy))
    return slope, intercept, r2


def hurst_aggregated_variance(series: CountSeries, levels=None) -> HurstEstimate:
    """Hurst exponent from how block-mean variance shrinks with block size.

    At aggregation level a the series is cut into length-a blocks and
    each block replaced by its mean. For short-memory series the
    variance of those means falls like 1/a; long memory flattens the
    decay. The fitted slope of log variance against log a gives
    H = 1 + slope/2.
    """
    x = np.asarray(series.counts, dtype=np.float64)
    n = len(x)
    if levels is None:
        levels = default_levels(n)
    levels = sorted(set(int(a) for a in levels))
    if len(levels) < 4:
        raise ValueError("need at least 4 aggregation levels for a Hurst fit")
    if levels[0] < 1:
        raise ValueError("levels must be >= 1")
    if n < 8 * levels[-1]:
        raise ValueError(f"series of {n} bins too short for level {levels[-1]}; need 8 blocks")
    variances = []
    for a in levels:
        nb = n // a
        means = x[: nb * a].reshape(nb, a).mean(axis=1)
        v = float(np.var(means, ddof=1))
        if v == 0.0:
            raise ValueError(f"zero variance at level {a}; series is effectively constant")
        variances.append(v)
    slope, _, r2 = _ols(np.log(np.asarray(levels, dtype=np.float64)), np.log(variances))
    h_raw = 1.0 + slope / 2.0
    clipped = not 0.0 < h_raw < 1.0
    h = float(min(max(h_raw, 0.0), 1.0))
    return HurstEstimate(H=h, slope=slope, levels_used=tuple(levels), fit_r2=r2, clipped=clipped)


def empirical_ccdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample values with P[X > x] estimated by counting.

    The largest value (survival 0) is dropped so both coordinates stay
    loggable.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        raise ValueError("no samples")
    vals = np.unique(x)
    greater = n - np.searchsorted(x, vals, side="right")
    keep = greater > 0
    return vals[keep], greater[keep] / n


def fit_tail_index(samples, fit_range: tuple[float, float]) -> TailFit:
    """Tail exponent from a log-log line through the empirical CCDF.

    Only CCDF points with x inside fit_range enter the fit; at least
    100 are required. alpha_hat is minus the fitted slope. A clean
    power law gives fit_r2 near 1; lighter tails bend the plot and
    drag fit_r2 down.
    """
    lo, hi = fit_range
    if not 0 < lo < hi:
        raise ValueError("fit_range must satisfy 0 < lo < hi")
    samples = np.asarray(samples, dtype=np.float64)
    xs, ccdf = empirical_ccdf(samples)
    if samples.min() == samples.max():
        raise ValueError("all samples are equal; tail undefined")
    sel = (xs >= lo) & (xs <= hi)
    if int(sel.sum()) < 100:
        raise ValueError(f"only {int(sel.sum())} CCDF points inside fit_range; need >= 100")
    slope, _, r2 = _ols(np.log(xs[sel]), np.log(ccdf[sel]))
    return TailFit(alpha_hat=-slope, fit_range=(float(lo), float(hi)), fit_r2=r2)

