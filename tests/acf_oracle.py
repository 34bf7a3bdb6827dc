"""Lag autocorrelation and its Bartlett standard error: the oracles
acceptance 5 uses to show that block shuffling leaves no correlation
across blocks."""
import numpy as np


def lag_autocorrelation(series, lag: int) -> float:
    """Pearson correlation between the series and itself lag steps later."""
    x = np.asarray(series, dtype=np.float64)
    if not 1 <= lag < len(x):
        raise ValueError("lag must lie in [1, len(series))")
    a = x[:-lag]
    b = x[lag:]
    sa = a.std()
    sb = b.std()
    if sa == 0.0 or sb == 0.0:
        raise ValueError("autocorrelation undefined for a constant segment")
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def bartlett_stderr(series, lag: int, short_memory_upto: int) -> float:
    """Standard error of the lag autocorrelation under the hypothesis
    that true correlation vanishes beyond short_memory_upto.

    Uses Bartlett's large-sample variance, which inflates the plain
    1/sqrt(n) by the estimated short-lag correlations.
    """
    x = np.asarray(series, dtype=np.float64)
    n = len(x) - lag
    if n < 2:
        raise ValueError("series too short")
    acc = 1.0
    for k in range(1, short_memory_upto + 1):
        if k < len(x):
            acc += 2.0 * lag_autocorrelation(x, k) ** 2
    return float(np.sqrt(acc / n))
