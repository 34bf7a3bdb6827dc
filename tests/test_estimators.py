import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trafficlab as tl
from trafficlab.estimators import default_levels, empirical_ccdf
from trafficlab.rng import substream

from acf_oracle import bartlett_stderr, lag_autocorrelation


def make(ts, sizes):
    return tl.PacketTrace(np.asarray(ts, dtype=np.float64), np.asarray(sizes))


class TestBinCounts:
    def test_trailing_partial_bin_is_dropped(self):
        # packets at 0, 0.5, 1.5 with w=1: bin [0,1) holds two, the
        # packet at 1.5 sits in the incomplete second bin
        assert np.array_equal(tl.bin_counts(make([0.0, 0.5, 1.5], [100, 200, 400]), 1.0), [2])

    def test_packets_and_bytes_units(self):
        tr = make([0.0, 0.5, 1.5, 2.5], [100, 200, 400, 100])
        packets, octets = tl.bin_counts(tr, 1.0), tl.bin_counts(tr, 1.0, unit="bytes")
        assert np.array_equal(packets, [2, 1]) and packets.dtype == np.int64
        # bytes are bincount's float64 sums
        assert np.array_equal(octets, [300, 400]) and octets.dtype == np.float64

    def test_byte_counts_past_int64_do_not_wrap(self):
        # each bin holds three packets of 2**62 bytes, 1.5 * 2**63, which an
        # int64 count would wrap negative
        tr = make([0.0, 0.1, 0.2, 1.0, 1.1, 1.2, 2.5], [2**62] * 7)
        assert tl.bin_counts(tr, 1.0, unit="bytes").tolist() == [3 * 2.0**62, 3 * 2.0**62]

    def test_exact_multiple_keeps_the_last_packet(self):
        assert np.array_equal(tl.bin_counts(make([0.0, 1.0, 2.0], [1, 1, 1]), 1.0), [1, 2])

    def test_bins_anchor_at_first_arrival(self):
        a = tl.bin_counts(make([0.0, 0.5, 1.5, 2.5], [1, 1, 1, 1]), 1.0)
        b = tl.bin_counts(make([10.0, 10.5, 11.5, 12.5], [1, 1, 1, 1]), 1.0)
        assert np.array_equal(a, b)

    def test_span_shorter_than_one_bin_rejected(self):
        with pytest.raises(ValueError):
            tl.bin_counts(make([0.0, 0.5], [1, 1]), 1.0)

    def test_parameter_validation(self):
        tr = make([0.0, 5.0], [1, 1])
        with pytest.raises(ValueError):
            tl.bin_counts(tr, 0.0)
        with pytest.raises(ValueError):
            tl.bin_counts(tr, 1.0, unit="flits")

    def test_nan_width_rejected_as_not_positive(self):
        with pytest.raises(ValueError, match="bin_width must be positive"):
            tl.bin_counts(make([0.0, 5.0], [1, 1]), float("nan"))

    @given(
        gaps=st.lists(st.integers(0, 64), min_size=10, max_size=300),
        width=st.sampled_from((0.25, 0.5, 1.0)),
    )
    def test_kept_packets_never_exceed_the_trace(self, gaps, width):
        ts = np.cumsum(np.array(gaps, float) / 16.0)
        ts -= ts[0]
        if ts[-1] <= width:
            return
        tr = tl.PacketTrace(ts, np.full(len(ts), 10))
        counts = tl.bin_counts(tr, width)
        assert counts.sum() <= tr.packet_count
        # only the trailing partial bin may be lost
        kept_span = len(counts) * width
        assert np.sum(ts < kept_span) <= counts.sum() + np.sum(ts == kept_span)


class TestDefaultLevels:
    def test_powers_of_two_with_eight_blocks_spare(self):
        assert default_levels(80) == [1, 2, 4, 8]
        assert default_levels(8) == [1]
        assert default_levels(7) == []


class TestHurst:
    def test_iid_counts_show_no_memory(self):
        counts = np.random.default_rng(42).poisson(10, 100_000)
        est = tl.hurst_aggregated_variance(counts)
        assert abs(est.H - 0.5) < 0.05
        assert not est.clipped
        assert est.H == pytest.approx(1.0 + est.slope / 2.0)

    def test_scaling_the_series_leaves_h_unchanged(self):
        counts = np.random.default_rng(3).poisson(5, 2048).astype(float)
        base = tl.hurst_aggregated_variance(counts)
        for c in (0.001, 7.0, 1000.0):
            est = tl.hurst_aggregated_variance(c * counts)
            assert est.H == pytest.approx(base.H, rel=1e-9)

    def test_estimate_outside_unit_interval_is_clipped(self):
        # block means of a quadratic ramp get more variable with level,
        # pushing the raw estimate past 1
        counts = (np.arange(4096, dtype=float)) ** 2
        est = tl.hurst_aggregated_variance(counts)
        assert est.clipped
        assert est.H == 1.0

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            tl.hurst_aggregated_variance(np.full(4096, 7))

    def test_too_few_levels_rejected(self):
        cs = np.random.default_rng(0).poisson(5, 4096)
        with pytest.raises(ValueError):
            tl.hurst_aggregated_variance(cs, levels=[1, 2, 4])

    def test_series_too_short_for_levels_rejected(self):
        cs = np.random.default_rng(0).poisson(5, 64)
        with pytest.raises(ValueError):
            tl.hurst_aggregated_variance(cs, levels=[1, 2, 4, 16])

    @pytest.mark.parametrize("shape", [(), (64, 64)])
    def test_counts_must_be_1d(self, shape):
        counts = np.random.default_rng(0).poisson(5, shape)
        with pytest.raises(ValueError, match=f"counts must be a 1-d array, got shape {re.escape(str(shape))}"):
            tl.hurst_aggregated_variance(counts)

    def test_level_one_required_to_be_positive(self):
        cs = np.random.default_rng(0).poisson(5, 4096)
        with pytest.raises(ValueError):
            tl.hurst_aggregated_variance(cs, levels=[0, 1, 2, 4])


class TestEmpiricalCcdf:
    def test_hand_case(self):
        xs, cc = empirical_ccdf([1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(xs, [1.0, 2.0])
        assert np.allclose(cc, [0.5, 0.25])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_ccdf([])

    @given(samples=st.lists(st.integers(1, 40), min_size=2, max_size=200))
    def test_survival_is_strictly_decreasing(self, samples):
        xs, cc = empirical_ccdf(np.array(samples, float))
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.diff(cc) < 0) or len(cc) <= 1
        assert np.all((cc > 0) & (cc < 1))
        if len(np.unique(samples)) == 1:
            # a constant sample has nothing above its only value
            assert len(xs) == 0
        else:
            # the maximum never survives itself
            assert xs.max() < max(samples)


    @staticmethod
    def unique_then_search(samples):
        """The reference: np.unique of the sorted samples, and the count of
        samples above each value by a binary search."""
        x = np.sort(np.asarray(samples, dtype=np.float64))
        vals = np.unique(x)
        greater = len(x) - np.searchsorted(x, vals, side="right")
        keep = greater > 0
        return vals[keep], greater[keep] / len(x)

    @pytest.mark.parametrize("samples", [
        [3.0, 1.0, 3.0, 2.0, 1.0, 3.0],
        [7.5] * 5,
        [2.0],
        [np.nan],
        [np.nan, np.nan],
        [np.nan, 1.0, np.nan, 2.0, 2.0],
        [np.inf, -np.inf, np.inf, 1.0],
        [-np.inf, np.nan, np.inf],
        [-0.0, -0.0, 1.0],
        [5e-324, 0.0, 1.7976931348623157e308],
    ], ids=["ties", "one_value", "one_sample", "nan", "nans", "nans_and_ties", "infinities", "inf_and_nan",
            "negative_zero", "extremes"])
    def test_bits_of_unique_then_search(self, samples):
        got, want = empirical_ccdf(samples), self.unique_then_search(samples)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(samples=st.lists(st.sampled_from([-2.0, -0.0, 1.0, 1.5, 1e300, np.inf, -np.inf, np.nan])
                            | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=300))
    def test_matches_unique_then_search(self, samples):
        got, want = empirical_ccdf(samples), self.unique_then_search(samples)
        # equal values, and the same bits but for the sign of a zero
        # when a run holds both 0.0 and -0.0: np.unique's own sort picks
        # which one it keeps
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()
        if len({np.signbit(v) for v in samples if v == 0}) < 2:
            assert got[0].tobytes() == want[0].tobytes()


class TestFitTailIndex:
    def test_deterministic_quantile_grid(self):
        n = 100_000
        u = (np.arange(1, n + 1) - 0.5) / n
        x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), u)
        fit = tl.fit_tail_index(x, (1.0, 100.0))
        assert fit.alpha_hat == pytest.approx(1.5001341217043183, rel=1e-12)
        assert abs(fit.alpha_hat - 1.5) < 0.01
        assert fit.fit_r2 > 0.9999

    def test_sampled_tail_recovers_alpha(self):
        u = 1.0 - substream(0).random(1_000_000)
        x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), u)
        fit = tl.fit_tail_index(x, (10.0, 100.0))
        assert abs(fit.alpha_hat - 1.5) < 0.05

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            tl.fit_tail_index(np.linspace(1, 2, 50), (1.0, 2.0))

    def test_bad_range_rejected(self):
        x = np.linspace(1, 2, 500)
        with pytest.raises(ValueError):
            tl.fit_tail_index(x, (2.0, 1.0))
        with pytest.raises(ValueError):
            tl.fit_tail_index(x, (0.0, 1.0))

    def test_constant_samples_rejected(self):
        with pytest.raises(ValueError):
            tl.fit_tail_index(np.full(500, 3.0), (1.0, 5.0))

    def test_equal_samples_are_named(self):
        # the CCDF drops the largest value, so equal samples leave it empty
        with pytest.raises(ValueError, match="all samples are equal"):
            tl.fit_tail_index([5.0] * 10, (1.0, 10.0))

    def test_two_distinct_samples_are_not_called_equal(self):
        # one CCDF point: too few for the fit, but the samples differ
        with pytest.raises(ValueError, match="only 1 CCDF points"):
            tl.fit_tail_index([1.0, 2.0], (0.5, 3.0))


class TestAutocorrelation:
    def test_linear_ramp_is_perfectly_correlated(self):
        assert lag_autocorrelation(np.array([1.0, 2.0, 3.0, 4.0]), 1) == pytest.approx(1.0)

    def test_alternating_series_anticorrelates(self):
        x = np.array([1.0, -1.0] * 8)
        assert lag_autocorrelation(x, 1) == pytest.approx(-1.0)

    def test_lag_bounds(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            lag_autocorrelation(x, 0)
        with pytest.raises(ValueError):
            lag_autocorrelation(x, 3)

    def test_constant_segment_rejected(self):
        with pytest.raises(ValueError):
            lag_autocorrelation(np.array([1.0, 1.0, 1.0, 1.0]), 1)


class TestBartlettStderr:
    def test_hand_value(self):
        # alternating series: r_1 = -1, so acc = 1 + 2 = 3 over n = 12 - 4
        x = np.array([1.0, -1.0] * 6)
        assert bartlett_stderr(x, 4, 1) == pytest.approx(np.sqrt(3.0 / 8.0), rel=1e-12)

    def test_without_short_memory_terms_reduces_to_root_n(self):
        x = np.array([1.0, -1.0] * 6)
        assert bartlett_stderr(x, 4, 0) == pytest.approx(np.sqrt(1.0 / 8.0), rel=1e-12)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            bartlett_stderr(np.array([1.0, 2.0, 3.0]), 2, 1)
