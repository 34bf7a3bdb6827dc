import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trafficlab as tl
from trafficlab import synth
from trafficlab.rng import substream
from trafficlab.synth import OFF_MODELS, _bounded_offs


def load(p) -> float:
    """Long-run work arrival rate of a process, m * on time / elapsed time."""
    return float(p.m * p.on_lengths.sum() / (p.on_lengths.sum() + p.off_lengths.sum()))


class TestHeavyTailSpec:
    def test_mean_formula(self):
        # alpha * x_min / (alpha - 1)
        assert tl.HeavyTailSpec(1.5, 2.0).mean == pytest.approx(6.0)

    @pytest.mark.parametrize("alpha, x_min, x_max", [(1.4, 1.0, 5.0), (1.5, 1.0, 1000.0), (1.9, 0.01, 0.02)])
    def test_capped_mean_is_the_mean_of_the_capped_draws(self, alpha, x_min, x_max):
        spec = tl.HeavyTailSpec(alpha, x_min, x_max)
        closed = x_min + x_min / (alpha - 1) * (1 - (x_min / x_max) ** (alpha - 1))
        assert spec.mean == pytest.approx(closed, rel=1e-12)
        x = tl.sample_heavy_tail(spec, 1.0 - substream(2).random(1_000_000))
        assert abs(x.mean() - spec.mean) / spec.mean < 0.02

    def test_infinite_cap_keeps_the_uncapped_mean(self):
        assert tl.HeavyTailSpec(1.4, 1.0, np.inf).mean == tl.HeavyTailSpec(1.4, 1.0).mean

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 2.5])
    def test_tail_index_outside_open_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            tl.HeavyTailSpec(alpha, 1.0)

    def test_nonpositive_x_min_rejected(self):
        with pytest.raises(ValueError):
            tl.HeavyTailSpec(1.5, 0.0)

    def test_cap_below_x_min_rejected(self):
        with pytest.raises(ValueError):
            tl.HeavyTailSpec(1.5, 2.0, x_max=2.0)

    @pytest.mark.parametrize("x_min, x_max, field", [
        (np.nan, None, "x_min"), (np.inf, None, "x_min"), (1.0, np.nan, "x_max"),
    ])
    def test_non_finite_bounds_rejected_by_name(self, x_min, x_max, field):
        with pytest.raises(ValueError, match=field):
            tl.HeavyTailSpec(1.5, x_min, x_max=x_max)


class TestSampleHeavyTail:
    def test_quantile_value(self):
        # x_min * u**(-1/alpha) at u=0.25, alpha=1.5
        x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), 0.25)
        assert x == pytest.approx(2.5198420997897464, rel=1e-12)

    def test_u_one_hits_the_floor(self):
        assert tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 3.0), 1.0) == pytest.approx(3.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), 0.5), float)

    def test_array_in_array_out(self):
        x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), np.array([0.5, 1.0]))
        assert x.shape == (2,)

    @pytest.mark.parametrize("u", [0.0, -0.1, 1.1])
    def test_u_outside_half_open_interval_rejected(self, u):
        with pytest.raises(ValueError):
            tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), u)

    def test_cap_applies(self):
        spec = tl.HeavyTailSpec(1.5, 1.0, x_max=10.0)
        assert tl.sample_heavy_tail(spec, 1e-9) == pytest.approx(10.0)

    @given(u=st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=50))
    def test_samples_never_fall_below_the_floor(self, u):
        spec = tl.HeavyTailSpec(1.7, 0.5)
        x = np.asarray(tl.sample_heavy_tail(spec, np.array(u)))
        assert np.all(x >= spec.x_min)

    @given(u=st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=50))
    def test_cap_is_respected(self, u):
        spec = tl.HeavyTailSpec(1.2, 1.0, x_max=50.0)
        x = np.asarray(tl.sample_heavy_tail(spec, np.array(u)))
        assert np.all(x <= spec.x_max)

    @given(u1=st.floats(1e-9, 1.0), u2=st.floats(1e-9, 1.0))
    def test_smaller_u_means_larger_sample(self, u1, u2):
        spec = tl.HeavyTailSpec(1.5, 1.0)
        lo, hi = sorted((u1, u2))
        assert tl.sample_heavy_tail(spec, lo) >= tl.sample_heavy_tail(spec, hi)

    def test_sample_mean_matches_formula(self):
        # statistical check on a pinned stream; alpha=1.5, x_min=2 -> mean 6
        u = 1.0 - substream(0).random(1_000_000)
        x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 2.0), u)
        assert abs(x.mean() - 6.0) / 6.0 < 0.02

    def test_truncated_moments_match_formulas(self):
        # capping at c makes both moments finite:
        #   E[min(X,c)]   = x_min*a/(a-1) - x_min^a c^(1-a)/(a-1)
        #   E[min(X,c)^2] = x_min^2 + 2 x_min^a (c^(2-a) - x_min^(2-a))/(2-a)
        u = 1.0 - substream(1).random(1_000_000)
        x = np.asarray(tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0, x_max=1000.0), u))
        assert abs(x.mean() - 2.9367544467966322) / 2.9367544467966322 < 0.02
        assert abs((x**2).mean() - 123.49110640673517) / 123.49110640673517 < 0.15

    @pytest.mark.parametrize("x_max", [None, 1000.0])
    def test_u_is_never_written(self, x_max):
        # acceptance 4 draws its capped and uncapped tails from one u
        u = 1.0 - substream(4).random(1000)
        kept = u.copy()
        tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0, x_max), u)
        assert u.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("x_max", [None, 1000.0])
    def test_drawing_into_u_gives_the_bits_of_a_new_array(self, x_max):
        spec = tl.HeavyTailSpec(1.5, 1.0, x_max)
        u = 1.0 - substream(5).random(100_000)
        want = tl.sample_heavy_tail(spec, u)
        got = tl.sample_heavy_tail(spec, u, out=u)
        assert got is u and got.tobytes() == want.tobytes()

    def test_a_draw_past_the_largest_float_names_x_min_unless_capped(self):
        # u = 1e-3 draws 1e306 * 1e3**(1/1.01), past the largest float; the
        # cap makes that draw x_max exactly. Neither warns
        u = np.array([0.5, 1e-3, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^x_min 1e\+306 is too large for tail index 1\.01: the draw of "
                                                 r"u = 0\.001 is past the largest float; set x_max to cap it$"):
                tl.sample_heavy_tail(tl.HeavyTailSpec(1.01, 1e306), u)
            x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.01, 1e306, 1e307), u)
        assert x[1] == 1e307 and x[2] == 1e306 and np.isfinite(x).all()

    def test_u_outside_the_interval_is_rejected_before_out_is_written(self):
        u = np.array([0.5, 0.0])
        with pytest.raises(ValueError, match="u must lie in"):
            tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), u, out=u)
        assert u.tolist() == [0.5, 0.0]


class TestGeneratorSpec:
    def test_off_model_names(self):
        assert OFF_MODELS == ("iid_matched_mean", "theorem_reordered", "bounded_q")

    def test_m_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            tl.GeneratorSpec(m=1.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, lambda_target=0.5)

    def test_unknown_off_model_rejected(self):
        with pytest.raises(ValueError):
            tl.GeneratorSpec(
                m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10,
                lambda_target=0.5, off_model="magic",
            )

    def test_bounded_model_requires_q(self):
        with pytest.raises(ValueError):
            tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, off_model="bounded_q")

    def test_nan_q_rejected(self):
        with pytest.raises(ValueError, match="queue bound q"):
            tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, off_model="bounded_q", q=np.nan)

    def test_infinite_m_rejected(self):
        with pytest.raises(ValueError, match="m must be finite"):
            tl.GeneratorSpec(m=np.inf, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, lambda_target=0.5)

    @pytest.mark.parametrize("off_model", ["iid_matched_mean", "theorem_reordered"])
    def test_a_silence_ratio_past_the_largest_float_is_named(self, off_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the silence ratio m/lambda_target - 1 is past the largest float: "
                                                 r"m 1e\+308, lambda_target 0\.5$"):
                tl.GeneratorSpec(m=1e308, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, lambda_target=0.5,
                                 off_model=off_model)

    @pytest.mark.parametrize("x_min, q", [(1.0, 1e-320), (1e160, 1.0)], ids=["divide", "multiply"])
    def test_bounded_silences_past_the_largest_float_name_q_and_the_longest_burst(self, x_min, q):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.4, x_min), n_cycles=100, off_model="bounded_q", q=q)
        longest = tl.sample_heavy_tail(spec.tail, 1.0 - substream(1).random(100)).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                tl.generate_onoff(spec, substream(1))
        assert str(info.value) == (f"q {q!r} and bursts of up to {float(longest)!r} s make bounded silences "
                                   "past the largest float")

    def test_matched_mean_requires_lambda_in_unit_interval(self):
        with pytest.raises(ValueError):
            tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, lambda_target=1.0)
        with pytest.raises(ValueError):
            tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10)


class TestFluidOnOffProcess:
    def test_properties(self):
        p = tl.FluidOnOffProcess(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 2.0)
        assert p.n_cycles == 2
        assert load(p) == pytest.approx(2.0 * 3.0 / 10.0)

    def test_prefix(self):
        p = tl.FluidOnOffProcess(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), 2.0)
        q = p.prefix(2)
        assert q.n_cycles == 2
        assert np.array_equal(q.on_lengths, [1.0, 2.0])
        with pytest.raises(ValueError):
            p.prefix(0)
        with pytest.raises(ValueError):
            p.prefix(4)

    @given(
        cycles=st.lists(st.tuples(st.floats(1e-6, 1e6), st.floats(0.0, 1e6)), min_size=1, max_size=30),
        data=st.data(),
        m=st.floats(1.0, 100.0, exclude_min=True),
    )
    def test_prefix_is_frozen_and_equal_to_the_checked_process(self, cycles, data, m):
        on, off = (np.array(c) for c in zip(*cycles))
        n = data.draw(st.integers(1, len(on)))
        got = tl.FluidOnOffProcess(on, off, m).prefix(n)
        want = tl.FluidOnOffProcess(on[:n].copy(), off[:n].copy(), m)
        assert type(got) is tl.FluidOnOffProcess and got.m == want.m
        for a, b in ((got.on_lengths, want.on_lengths), (got.off_lengths, want.off_lengths)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            tl.FluidOnOffProcess(np.array([0.0]), np.array([1.0]), 2.0)
        with pytest.raises(ValueError):
            tl.FluidOnOffProcess(np.array([1.0]), np.array([-1.0]), 2.0)
        with pytest.raises(ValueError):
            tl.FluidOnOffProcess(np.array([1.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            tl.FluidOnOffProcess(np.array([]), np.array([]), 2.0)

    @pytest.mark.parametrize("m", [0.5, 1.0, float("nan")])
    def test_on_rate_must_exceed_one(self, m):
        # one rule for every route to a process, with one message; an
        # on rate below lam would otherwise fail first on negative silences
        rule = "m must exceed 1, otherwise no queue can form"
        with pytest.raises(ValueError, match=rule):
            tl.FluidOnOffProcess(np.array([1.0]), np.array([1.0]), m)
        with pytest.raises(ValueError, match=rule):
            tl.reorder_nonoverlap(np.array([1.0]), m, 0.75)
        with pytest.raises(ValueError, match=rule):
            tl.GeneratorSpec(m=m, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=10, lambda_target=0.5)


class TestGenerateOnOff:
    def test_cycle_count_and_positivity(self):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=50, lambda_target=0.5)
        p = tl.generate_onoff(spec, substream(3))
        assert p.n_cycles == 50
        assert np.all(p.on_lengths >= 1.0)
        assert np.all(p.off_lengths >= 0.0)

    def test_same_seed_same_process(self):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=20, lambda_target=0.5)
        a = tl.generate_onoff(spec, substream(4))
        b = tl.generate_onoff(spec, substream(4))
        assert np.array_equal(a.on_lengths, b.on_lengths)
        assert np.array_equal(a.off_lengths, b.off_lengths)

    def test_matched_mean_hits_target_load(self):
        # truncated tail so the sample mean converges fast
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0, x_max=1000.0),
            n_cycles=100_000, lambda_target=0.5,
        )
        p = tl.generate_onoff(spec, substream(0))
        assert abs(load(p) - 0.5) / 0.5 < 0.05

    def test_matched_mean_hits_target_load_under_a_tight_cap(self):
        # on periods of 1 to 5: the capped mean is 2.19, the uncapped 3.5,
        # so silences matched to the uncapped mean gave a load of 0.344
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.4, 1.0, x_max=5.0),
            n_cycles=200_000, lambda_target=0.5,
        )
        p = tl.generate_onoff(spec, substream(0))
        assert abs(load(p) - 0.5) / 0.5 < 0.02

    def test_proportional_silences_pin_the_load_exactly(self):
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=1000,
            lambda_target=0.5, off_model="theorem_reordered",
        )
        p = tl.generate_onoff(spec, substream(5))
        assert np.allclose(p.off_lengths, p.on_lengths * (2.0 / 0.5 - 1.0), rtol=1e-12)
        assert load(p) == pytest.approx(0.5, rel=1e-12)

    def test_generator_route_matches_direct_reordering(self):
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=100,
            lambda_target=0.5, off_model="theorem_reordered",
        )
        p = tl.generate_onoff(spec, substream(6))
        on = np.asarray(tl.sample_heavy_tail(spec.tail, 1.0 - substream(6).random(100)))
        q = tl.reorder_nonoverlap(on, 2.0, 0.5)
        assert np.array_equal(p.on_lengths, q.on_lengths)
        assert np.array_equal(p.off_lengths, q.off_lengths)


class TestReorderNonOverlap:
    def test_off_rule(self):
        p = tl.reorder_nonoverlap(np.array([1.0, 4.0]), 2.0, 0.5)
        assert np.array_equal(p.off_lengths, [3.0, 12.0])

    def test_cycles_drain_completely(self):
        # off >= (m-1)*on whenever lam < 1, so no excursion spills over
        p = tl.reorder_nonoverlap(np.array([1.0, 2.0, 0.5]), 3.0, 0.8)
        assert np.all(p.off_lengths >= (p.m - 1.0) * p.on_lengths)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tl.reorder_nonoverlap(np.array([1.0]), 1.0, 0.5)
        with pytest.raises(ValueError):
            tl.reorder_nonoverlap(np.array([1.0]), 2.0, 1.0)

    @given(
        lengths=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=40),
        m=st.floats(1.05, 8.0),
        lam=st.floats(0.05, 0.95),
    )
    def test_rate_is_exactly_lambda(self, lengths, m, lam):
        p = tl.reorder_nonoverlap(np.array(lengths), m, lam)
        assert load(p) == pytest.approx(lam, rel=1e-9)

    @given(
        lengths=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40),
        m=st.floats(1.0, 1e6, exclude_min=True),
        lam=st.floats(1e-6, 1.0, exclude_max=True),
        data=st.data(),
    )
    def test_silences_are_built_on_read_with_the_eager_bits(self, lengths, m, lam, data):
        on = np.array(lengths)
        with np.errstate(over="ignore"):
            off = on * (m / lam - 1.0)
        if not np.isfinite(off).all():
            return  # the error tests below cover these
        p = tl.reorder_nonoverlap(on, m, lam)
        assert "off_lengths" not in vars(p)
        n = data.draw(st.integers(1, len(on)))
        head = p.prefix(n)
        assert head.on_lengths.tobytes() == on[:n].tobytes()
        assert "off_lengths" not in vars(head)
        for got, want in ((p, off), (head, off[:n])):
            assert got.off_lengths.tobytes() == want.tobytes()
            assert not got.off_lengths.flags.writeable
        assert not p.on_lengths.flags.writeable and p.m == m


def eager_and_lazy_error(on, m, lam) -> str:
    """The message of the ValueError that reorder_nonoverlap(on, m, lam)
    raises, which must be the one FluidOnOffProcess raises given the
    silences on * (m/lam - 1) as an array."""
    on = np.asarray(on, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as eager:
            tl.FluidOnOffProcess(on.copy(), on * (m / lam - 1.0), m)
        with pytest.raises(ValueError) as lazy:
            tl.reorder_nonoverlap(on, m, lam)
    assert str(lazy.value) == str(eager.value)
    return str(lazy.value)


class TestReorderedErrors:
    """reorder_nonoverlap keeps no silence array, and fails as the eager
    process of its silences fails, message for message."""

    @pytest.mark.parametrize("m", [0.5, 1.0, float("nan"), -np.inf])
    def test_on_rate_rule(self, m):
        assert eager_and_lazy_error([1.0, 2.0], m, 0.5) == "m must exceed 1, otherwise no queue can form"

    @pytest.mark.parametrize("on", [[1.0, 0.0, 2.0], [-1.0], [3.0, -0.0], [2.0, -5.0, 1.0]])
    def test_positive_bursts_rule(self, on):
        assert eager_and_lazy_error(on, 2.0, 0.5) == "on_lengths must be positive"

    @pytest.mark.parametrize("on, m, lam", [
        ([1.0, 1e308], 2.0, 0.5),  # a burst whose silence overflows
        ([1.0, 2.0], 1e308, 0.5),  # m/lam is itself inf
        ([1.0, 2.0], np.inf, 0.5),
        ([1.0, np.inf], 2.0, 0.5),
        ([np.nan, 1.0], 2.0, 0.5),
        ([1.0, -1e308], 2.0, 0.5),  # the shortest burst's silence overflows
        ([0.0, 1.0], 1e308, 0.5),  # 0 * inf
    ])
    def test_non_finite_silences(self, on, m, lam):
        assert eager_and_lazy_error(on, m, lam) == "non-finite cycle length"

    @pytest.mark.parametrize("on", [[], [[1.0, 2.0]], 1.0])
    def test_shape_rules(self, on):
        assert eager_and_lazy_error(on, 2.0, 0.5) in (
            "process needs at least one cycle", "on_lengths and off_lengths must be 1-d and equal length")

    @pytest.mark.parametrize("n", [0, -1, 4, 10**6])
    def test_prefix_range(self, n):
        on = np.array([1.0, 2.0, 3.0])
        eager = tl.FluidOnOffProcess(on.copy(), on * (2.0 / 0.5 - 1.0), 2.0)
        lazy = tl.reorder_nonoverlap(on, 2.0, 0.5)
        messages = []
        for p in (eager, lazy, lazy.prefix(3)):
            with pytest.raises(ValueError) as info:
                p.prefix(n)
            messages.append(str(info.value))
        assert messages == ["prefix length out of range"] * 3


class TestBoundedQueueProcess:
    def test_off_rule_value(self):
        # X=2, m=3, q=1: max((m-1)X, (m-1)mX^2/(2q) - X) = max(4, 10) = 10
        assert _bounded_offs(np.array([2.0]), 3.0, 1.0)[0] == pytest.approx(10.0)

    def test_per_cycle_mean_queue_is_capped(self):
        # the bound is tight for the cycle above: area 12 over length 12
        on = np.array([2.0])
        p = tl.FluidOnOffProcess(on, _bounded_offs(on, 3.0, 1.0), 3.0)
        assert tl.fluid_queue(p).mean_queue == pytest.approx(1.0)

    @given(
        lengths=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40),
        m=st.floats(1.1, 6.0),
        q=st.floats(0.1, 10.0),
    )
    def test_cap_holds_for_every_cycle(self, lengths, m, q):
        on = np.array(lengths)
        off = _bounded_offs(on, m, q)
        # off >= (m-1)on means each excursion drains inside its cycle,
        # so its time-average is the triangle area over the cycle length
        assert np.all(off >= (m - 1.0) * on - 1e-12 * on)
        cycle_means = (m * (m - 1.0) * on**2 / 2.0) / (on + off)
        assert np.all(cycle_means <= q * (1.0 + 1e-9))

    @given(seed=st.integers(0, 2**32 - 1), m=st.floats(1.1, 6.0), q=st.floats(0.1, 10.0))
    def test_generator_route_applies_the_rule(self, seed, m, q):
        spec = tl.GeneratorSpec(m=m, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=40,
                                off_model="bounded_q", q=q)
        p = tl.generate_onoff(spec, substream(seed))
        on = np.asarray(tl.sample_heavy_tail(spec.tail, 1.0 - substream(seed).random(40)))
        assert np.array_equal(p.on_lengths, on)
        assert np.array_equal(p.off_lengths, _bounded_offs(on, m, q))

    def test_parameter_validation(self):
        tail = tl.HeavyTailSpec(1.5, 1.0)
        with pytest.raises(ValueError):
            tl.GeneratorSpec(m=1.0, tail=tail, n_cycles=1, off_model="bounded_q", q=1.0)
        with pytest.raises(ValueError):
            tl.GeneratorSpec(m=2.0, tail=tail, n_cycles=1, off_model="bounded_q", q=0.0)


class TestPacketize:
    def test_worked_example(self):
        # on=1s at byte rate m*server_rate=200 B/s, 50 B packets:
        # four packets at 0, 0.25, 0.5, 0.75
        proc = tl.FluidOnOffProcess(np.array([1.0]), np.array([1.0]), 2.0)
        trace, silent = tl.packetize(proc, 50, 100.0)
        assert np.allclose(trace.timestamps, [0.0, 0.25, 0.5, 0.75])
        assert np.all(trace.sizes == 50)
        # the equal sizes are stored once
        assert trace.sizes.strides == (0,) and not trace.sizes.flags.writeable
        assert silent == 0 and type(silent) is int

    def test_short_on_periods_are_counted_not_fatal(self):
        proc = tl.FluidOnOffProcess(np.array([0.01, 1.0]), np.array([1.0, 1.0]), 2.0)
        trace, silent = tl.packetize(proc, 50, 100.0)
        assert silent == 1
        assert trace.packet_count == 4

    def test_all_silent_is_an_error(self):
        # on periods of 0.01 and 0.2 s at 200 bytes/s send 2 and 40 bytes,
        # short of one 50-byte packet
        proc = tl.FluidOnOffProcess(np.array([0.01, 0.2]), np.array([1.0, 0.5]), 2.0)
        with pytest.raises(ValueError, match="no packets emitted; every on period is shorter than one packet spacing"):
            tl.packetize(proc, 50, 100.0)

    def test_parameter_validation(self):
        proc = tl.FluidOnOffProcess(np.array([1.0]), np.array([1.0]), 2.0)
        with pytest.raises(ValueError):
            tl.packetize(proc, 0, 100.0)
        with pytest.raises(ValueError):
            tl.packetize(proc, 50, 0.0)

    @pytest.mark.parametrize("server_rate", [np.nan, np.inf])
    def test_non_finite_server_rate_rejected_by_name(self, server_rate):
        proc = tl.FluidOnOffProcess(np.array([1.0]), np.array([1.0]), 2.0)
        with pytest.raises(ValueError, match="server_rate must be positive and finite"):
            tl.packetize(proc, 50, server_rate)

    @pytest.mark.parametrize("m, server_rate", [(2.0, 1e308), (np.float64(1e300), np.float64(1e10))])
    def test_a_peak_rate_past_the_largest_float_names_m_and_the_rate(self, m, server_rate):
        proc = tl.FluidOnOffProcess(np.array([1.0]), np.array([1.0]), m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^m \* server_rate is past the largest float: m .*, server_rate "):
                tl.packetize(proc, 50, server_rate)

    def test_packets_stay_inside_their_on_periods(self):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 0.5), n_cycles=200, lambda_target=0.5)
        proc = tl.generate_onoff(spec, substream(8))
        trace, _ = tl.packetize(proc, 100, 1000.0)
        starts = np.concatenate(([0.0], np.cumsum(proc.on_lengths + proc.off_lengths)[:-1]))
        ends = starts + proc.on_lengths
        # every timestamp must fall inside some on interval
        inside = np.zeros(trace.packet_count, dtype=bool)
        for s, e in zip(starts, ends):
            inside |= (trace.timestamps >= s - 1e-9) & (trace.timestamps < e + 1e-9)
        assert inside.all()


def whole_run_emit(on, off, m, packet_size, server_rate, t0):
    """Reference for synth._emit: every cycle's packets at once, from
    full-length repeats of each cycle's first index and start."""
    rate_bytes = m * server_rate
    counts = np.floor(on * rate_bytes / packet_size).astype(np.int64)
    starts = t0 + np.concatenate(([0.0], np.cumsum(on + off)[:-1]))
    times = np.arange(int(counts.sum()), dtype=np.float64)
    times -= np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    times *= packet_size / rate_bytes
    times += np.repeat(starts, counts)
    return times, int(np.count_nonzero(counts == 0))


def peak_bytes(run) -> int:
    """The peak memory traced while run() runs, numpy's array buffers included."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 2**20


class TestEmit:
    """_emit fills its times a bounded group of cycles and piece of packets
    at a time, with the bits of the whole run at once."""

    # 100-byte packets at m * server_rate = 2e4 bytes/s leave every 5 ms
    SPACING = 100 / 2e4

    def process(self, packets_per_cycle, seed):
        """Random cycles whose on periods emit 0 to packets_per_cycle - 1 packets."""
        rng = np.random.default_rng(seed)
        on = (rng.integers(0, packets_per_cycle, 3 * 2**16 + 5) + rng.random(3 * 2**16 + 5)) * self.SPACING
        return np.maximum(on, 1e-6), rng.exponential(0.05, len(on))

    @pytest.mark.parametrize("case", ["short cycles", "one long on period", "long on periods"])
    @pytest.mark.parametrize("t0", [0.0, 1234.5678])
    def test_bits_of_the_whole_run(self, case, t0):
        if case == "short cycles":  # several groups of 2**16 cycles, cut into pieces
            on, off = self.process(4, 1)
        elif case == "one long on period":  # 5 * 2**16 + 3 packets among silent cycles
            on, off = self.process(1, 2)
            on[70_000] = (5 * 2**16 + 3.5) * self.SPACING
        else:  # each on period cut by pieces
            on, off = np.array([3.3e5, 0.2, 7.1e5]) * self.SPACING, np.array([1.0, 0.0, 2.0])
        want, want_silent = whole_run_emit(on, off, 2.0, 100, 1e4, t0)
        got = np.empty(len(want))
        assert synth._emit(on, off, 2e4, 100, t0, got) == (len(want), want_silent)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("room", [0, 1, 2**16 - 1, 2**16 + 7, 3 * 2**16 + 11])
    def test_stops_when_its_array_is_full(self, room):
        # a by-count trace's last chunk: the packets past the array's end
        # are counted but never written, and the rest keep their bits
        on, off = self.process(6, 3)
        want, want_silent = whole_run_emit(on, off, 2.0, 100, 1e4, 99.5)
        got = np.full(room + 1, -1.0)
        assert synth._emit(on, off, 2e4, 100, 99.5, got[:room]) == (len(want), want_silent)
        assert got[:room].tobytes() == want[:room].tobytes() and got[room] == -1.0

    def test_packetize_holds_its_timestamps_and_one_group(self):
        n = 2**21
        many = tl.FluidOnOffProcess(np.full(n // 8, 8.5 * self.SPACING), np.full(n // 8, 0.05), 2.0)
        one = tl.FluidOnOffProcess(np.array([(n + 0.5) * self.SPACING]), np.array([1.0]), 2.0)
        # a group's cycles: their counts, ends, lengths, running sums and
        # starts, 8 bytes each for 2**16 cycles; and a piece's repeat of
        # 2**16 packets
        group = 5 * 8 * 2**16 + 8 * 2**16
        for process in (many, one):
            assert tl.packetize(process, 100, 1e4)[0].packet_count == n
            # the float64 timestamps, 8n bytes, PacketTrace's n-byte boolean
            # checks, the group and half a MiB of small temporaries. A
            # full-length repeat would add 8n bytes
            assert peak_bytes(lambda: tl.packetize(process, 100, 1e4)) <= 8 * n + n + group + MiB // 2


class TestGeneratePoisson:
    def test_shape_and_rebase(self):
        tr = tl.generate_poisson(100.0, 1000, 50, substream(2))
        assert tr.packet_count == 50
        assert tr.timestamps[0] == 0.0
        assert np.all(tr.sizes == 1000)
        assert tr.sizes.strides == (0,) and not tr.sizes.flags.writeable

    def test_realized_rate(self):
        tr = tl.generate_poisson(100.0, 1000, 100_000, substream(4))
        rate = (tr.packet_count - 1) / tr.duration
        assert abs(rate - 100.0) / 100.0 < 0.02

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tl.generate_poisson(0.0, 100, 10, substream(1))
        with pytest.raises(ValueError):
            tl.generate_poisson(10.0, 100, 0, substream(1))
        with pytest.raises(ValueError):
            tl.generate_poisson(10.0, 0, 10, substream(1))

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_rate_rejected_by_name(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            tl.generate_poisson(rate, 100, 10, substream(1))


class TestSyntheticSource:
    def _source(self, n_cycles=100, packet_size=100, server_rate=10_000.0):
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 0.05), n_cycles=n_cycles,
            lambda_target=0.5, off_model="theorem_reordered",
        )
        return tl.SyntheticSource(spec=spec, packet_size=packet_size, server_rate=server_rate)

    @pytest.mark.parametrize("packet_size, server_rate, field", [
        (0, 10_000.0, "packet_size"), (100, 0.0, "server_rate"),
        (100, np.nan, "server_rate"), (100, np.inf, "server_rate"), (100, 1e308, "m \\* server_rate"),
    ])
    def test_packetization_checked_when_built(self, packet_size, server_rate, field):
        # trace(n_packets=...) never reaches packetize, so the recipe checks itself
        with pytest.raises(ValueError, match=field):
            self._source(packet_size=packet_size, server_rate=server_rate)

    def test_full_run_matches_manual_pipeline(self):
        src = self._source()
        a = src.trace(substream(3))
        proc = tl.generate_onoff(src.spec, substream(3))
        b, _ = tl.packetize(proc, 100, 10_000.0)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_exact_packet_count_on_request(self):
        src = self._source()
        tr = src.trace(substream(9), n_packets=777)
        assert tr.packet_count == 777
        assert tr.sizes.strides == (0,) and np.all(tr.sizes == 100)

    def test_requested_count_is_deterministic(self):
        src = self._source()
        a = src.trace(substream(10), n_packets=500)
        b = src.trace(substream(10), n_packets=500)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            self._source().trace(substream(0), n_packets=0)

    def test_a_count_that_no_cycle_can_reach_is_refused(self):
        # on periods of at most 2 microseconds send at most 4 bytes at
        # 2e6 bytes/s, short of one 1000-byte packet: refused when built,
        # before a cycle is drawn
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1e-6, 2e-6), n_cycles=10, lambda_target=0.5)
        with pytest.raises(ValueError, match="^no packets emitted; every on period is shorter than one packet spacing"):
            tl.SyntheticSource(spec=spec, packet_size=1000, server_rate=1e6)

    @pytest.mark.parametrize("alpha, x_min, x_max, packet_size, server_rate", [
        (1.4, 1.0, 5.0, 1000, 1e4),  # the byte gate's CAPPED recipe
        (1.5, 0.1, 0.5, 1000, 1e3),  # the longest burst is exactly one packet spacing
        (1.5, 1.0, 1e300, 1000, 1e10),  # x_max * m * server_rate is past the largest float
    ], ids=["gate", "one_spacing", "overflow"])
    def test_a_capped_recipe_that_can_emit_a_packet_builds(self, alpha, x_min, x_max, packet_size, server_rate):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(alpha, x_min, x_max), n_cycles=10, lambda_target=0.5)
        source = tl.SyntheticSource(spec=spec, packet_size=packet_size, server_rate=server_rate)
        assert source.trace(substream(0), n_packets=5).packet_count == 5

    def test_a_counted_trace_holds_its_timestamps_and_one_chunk(self):
        # the recipe of the sweep_blocks_onoff benchmark: a cycle emits
        # about 0.1 s * 2e6 bytes/s / 1000 bytes = 200 packets
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.2, 1 / 60), n_cycles=8000, lambda_target=0.5)
        source = tl.SyntheticSource(spec=spec, packet_size=1000, server_rate=1e6)
        n = 10**6
        ts = source.trace(substream(1), n_packets=n).timestamps
        # one array of exactly n timestamps, not a view of a longer one
        assert ts.base is None and ts.flags.owndata and ts.nbytes == 8 * n
        chunk = n // 200  # the first and longest chunk of cycles
        # the timestamps, PacketTrace's n-byte boolean checks, a chunk's
        # bursts, uniforms, silences and lengths, and _emit's counts, ends,
        # lengths, running sums and starts of its cycles, 8 bytes each a
        # cycle; a piece's temporary of 2**16 packets, and half a MiB of
        # small temporaries
        bound = 8 * n + n + 8 * 8 * chunk + 8 * 2**16 + MiB // 2
        for seed in (1, 2, 3):
            assert peak_bytes(lambda: source.trace(substream(seed), n_packets=n)) <= bound
