"""End-to-end acceptance checks for the workbench.

Each numbered test exercises one headline behavior at full scale and
records a single PASS/FAIL line that the terminal summary echoes. The
heavy tests pin master seeds so results are bit-reproducible; the
statistical tolerances are stated inline next to each assertion.
"""
import os
import time

import numpy as np
import pytest

import trafficlab as tl
from trafficlab import cli
from trafficlab.rng import substream

from acf_oracle import bartlett_stderr, lag_autocorrelation


def verdict(record, number, ok, detail):
    line = f"acceptance {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    record(line)
    print(line)
    assert ok, line


def test_01_single_burst_area_law(acceptance_report):
    """A lone burst of length X at on-rate m puts exactly m(m-1)X^2/2
    of queue-seconds into the system once it fully drains."""
    t0 = time.time()
    rng = substream(1001)
    worst = 0.0
    for _ in range(100):
        m = 1.0 + 9.0 * (1.0 - float(rng.random()))  # (1, 10]
        x = 100.0 * (1.0 - float(rng.random()))  # (0, 100]
        off = (m - 1.0) * x  # just long enough to drain completely
        run = tl.fluid_queue(tl.FluidOnOffProcess(np.array([x]), np.array([off]), m))
        expected = m * (m - 1.0) * x * x / 2.0
        worst = max(worst, abs(run.area - expected) / expected)
    verdict(
        acceptance_report, 1, worst <= 1e-9,
        f"worst relative area error {worst:.2e} over 100 bursts, "
        f"{time.time() - t0:.2f}s",
    )


def test_02_reordered_mean_queue_identity(acceptance_report):
    """With silences proportional to their bursts, the time-average queue
    is lam*(m-1)*sum(X^2) / (2*sum(X)) exactly."""
    t0 = time.time()
    rng = substream(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 40))
        on = 0.1 + 9.9 * rng.random(n)
        m = 1.2 + 4.8 * float(rng.random())
        lam = 0.1 + 0.8 * float(rng.random())
        run = tl.fluid_queue(tl.reorder_nonoverlap(on, m, lam))
        expected = lam * (m - 1.0) * float(np.sum(on**2)) / (2.0 * float(np.sum(on)))
        worst = max(worst, abs(run.mean_queue - expected) / expected)
    verdict(
        acceptance_report, 2, worst <= 1e-9,
        f"worst relative error {worst:.2e} over 100 random burst sets, "
        f"{time.time() - t0:.2f}s",
    )


def _horizon(process):
    """Elapsed time of a process, its on and off time."""
    return float(process.on_lengths.sum() + process.off_lengths.sum())


def _padded(on, off, m, horizon):
    """Extend the final silence so the process ends drained at `horizon`."""
    off2 = off.copy()
    off2[-1] += horizon - (on.sum() + off.sum())
    return tl.FluidOnOffProcess(on, off2, m)


def test_03_reordering_never_raises_the_mean_queue(acceptance_report):
    """Replacing i.i.d. matched-mean silences with burst-proportional
    ones can only lower the mean queue. Both processes are compared
    over a common horizon at which each has fully drained, so the
    area comparison and the mean comparison coincide."""
    t0 = time.time()
    violations = 0
    worst_margin = np.inf
    for k in range(100):
        rng = substream(123, k)
        n = int(rng.integers(20, 200))
        m = float(rng.uniform(1.2, 5.0))
        lam = float(rng.uniform(0.2, 0.9))
        alpha = float(rng.uniform(1.1, 1.9))
        spec = tl.HeavyTailSpec(alpha, 1.0)
        on = np.asarray(tl.sample_heavy_tail(spec, 1.0 - rng.random(n)))
        off_iid = rng.exponential(spec.mean * (m / lam - 1.0), n)
        reordered = tl.reorder_nonoverlap(on, m, lam)
        original = tl.FluidOnOffProcess(on, off_iid, m)
        pad = (m - 1.0) * float(on.sum())  # queue never exceeds the total rise
        horizon = max(_horizon(original), _horizon(reordered)) + pad
        run_orig = tl.fluid_queue(_padded(on, off_iid, m, horizon))
        run_reord = tl.fluid_queue(_padded(on, reordered.off_lengths, m, horizon))
        worst_margin = min(worst_margin, run_orig.mean_queue - run_reord.mean_queue)
        if run_reord.mean_queue > run_orig.mean_queue:
            violations += 1
    verdict(
        acceptance_report, 3, violations == 0,
        f"{violations}/100 violations, smallest margin {worst_margin:.3g}, "
        f"{time.time() - t0:.2f}s",
    )


def test_04_mean_queue_diverges_untruncated_and_stabilizes_truncated(acceptance_report):
    """alpha=1.5 bursts have infinite variance, so the observed mean
    queue keeps growing as the sample lengthens; capping the burst
    length restores a finite second moment and the growth stalls.
    Checked on seed medians: the 4 prefix sizes give 3 consecutive
    pairs, and each must increase for the untruncated tail while the
    last two truncated medians agree within 25%."""
    t0 = time.time()
    sizes = [100, 1000, 10_000, 100_000]
    full_tail = tl.HeavyTailSpec(1.5, 1.0)
    capped_tail = tl.HeavyTailSpec(1.5, 1.0, x_max=1000.0)
    med = {s: [] for s in sizes}
    med_capped = {s: [] for s in sizes}
    for i in range(10):
        u = 1.0 - substream(0, i).random(100_000)
        # the capped control reuses the same uniforms, isolating the
        # effect of truncation from sampling noise
        for tail, store in ((full_tail, med), (capped_tail, med_capped)):
            on = np.asarray(tl.sample_heavy_tail(tail, u))
            proc = tl.reorder_nonoverlap(on, 2.0, 0.5)
            for n, mq in tl.prefix_mean_queue(proc, sizes):
                store[n].append(mq)
    meds = [float(np.median(med[s])) for s in sizes]
    meds_capped = [float(np.median(med_capped[s])) for s in sizes]
    increases = sum(b > a for a, b in zip(meds, meds[1:]))
    capped_drift = abs(meds_capped[-1] - meds_capped[-2]) / meds_capped[-1]
    ok = increases >= 3 and capped_drift <= 0.25
    verdict(
        acceptance_report, 4, ok,
        f"medians {np.round(meds, 2).tolist()} rose {increases}/3 pairs; "
        f"capped last-two drift {capped_drift:.1%}, {time.time() - t0:.1f}s",
    )


def test_05_block_shuffle_conserves_and_decorrelates(acceptance_report):
    """Shuffling moves gaps and sizes without changing their multisets,
    and at lag 2B the binned-count autocorrelation of a strongly
    correlated input is statistically zero after shuffling at B."""
    t0 = time.time()
    # part 1: exact conservation on a trace whose gaps are multiples of
    # 1/512 s, so cumulative sums carry no rounding at all
    gaps = substream(501).integers(0, 2048, 4096) / 512.0
    ts = np.cumsum(gaps) - gaps[0]
    sizes = substream(502).integers(40, 1500, 4096)
    trace = tl.PacketTrace(ts, sizes)
    orig_gaps = np.sort(np.concatenate(([ts[0]], np.diff(ts))))
    conserved = True
    n = trace.packet_count
    for block in (1, 7, 100, n):
        out = tl.block_shuffle(trace, block, substream(503, block))
        got = np.sort(np.concatenate(([out.timestamps[0]], np.diff(out.timestamps))))
        conserved &= np.array_equal(got, orig_gaps)
        conserved &= np.array_equal(np.sort(out.sizes), np.sort(sizes))

    # part 2: a slow square wave in packet sizes (half period 8B packets)
    # correlates byte counts far beyond the block size; shuffling at B
    # must leave nothing detectable at lag 2B
    n2 = 1 << 15
    block = 64
    rng = substream(7)
    phase = (np.arange(n2) // (8 * block)) % 2
    wave_sizes = np.where(phase == 1, 1500, 100) + rng.integers(0, 40, n2)
    wave = tl.PacketTrace(np.arange(n2, dtype=float), wave_sizes)
    before = lag_autocorrelation(tl.bin_counts(wave, 1.0, unit="bytes"), 2 * block)
    max_ratio = 0.0
    for s in range(5):
        shuffled = tl.block_shuffle(wave, block, substream(11, s))
        series = tl.bin_counts(shuffled, 1.0, unit="bytes")
        r = lag_autocorrelation(series, 2 * block)
        se = bartlett_stderr(series, 2 * block, block)
        max_ratio = max(max_ratio, abs(r) / se)
    ok = conserved and before > 0.3 and max_ratio < 3.0
    verdict(
        acceptance_report, 5, ok,
        f"multisets exact for B in (1, 7, 100, N); lag-2B acf {before:.2f} "
        f"before, worst |acf|/se {max_ratio:.2f} after, {time.time() - t0:.1f}s",
    )


def test_06_shuffle_ablation_lrd_versus_poisson(acceptance_report):
    """On long-memory traffic the mean queue collapses under fine
    shuffling and recovers as blocks grow; on Poisson traffic shuffling
    changes nothing beyond replication noise."""
    t0 = time.time()
    spec = tl.GeneratorSpec(
        m=2.0, tail=tl.HeavyTailSpec(1.2, 1.0 / 60.0),
        n_cycles=8000, lambda_target=0.5,
    )
    proc = tl.generate_onoff(spec, substream(42))
    trace, _ = tl.packetize(proc, 1000, 1e6)
    assert trace.packet_count >= 1_000_000
    blocks = [1, 10, 100, 1000, 10_000]
    plan = tl.ReplicationPlan(master_seed=5, replications=10)
    sweep = tl.blocksize_sweep(
        trace, blocks, plan, bandwidth=tl.bandwidth_for_utilization(trace, 0.5)
    )
    medians = [float(np.median(p.rep_means)) for p in sweep.points]
    inversions = sum(b < a for a, b in zip(medians, medians[1:]))
    drop = sweep.baseline - medians[0]
    drop_ok = drop > 2.0 * sweep.points[0].std

    control = tl.generate_poisson(2000.0, 1000, 200_000, substream(43))
    control_sweep = tl.blocksize_sweep(
        control, blocks, plan, bandwidth=tl.bandwidth_for_utilization(control, 0.5)
    )
    control_dev = max(
        abs(p.mean - control_sweep.baseline) / p.std for p in control_sweep.points
    )
    ok = inversions <= 1 and drop_ok and control_dev < 3.0
    verdict(
        acceptance_report, 6, ok,
        f"medians {np.round(medians, 1).tolist()} ({inversions} inversion(s)), "
        f"B=1 sits {drop:.0f} below baseline {sweep.baseline:.0f} "
        f"(2*std={2 * sweep.points[0].std:.1f}); "
        f"poisson worst |dev|/std {control_dev:.2f}, {time.time() - t0:.1f}s",
    )


def test_07_estimator_calibration(acceptance_report):
    """The variance-scaling estimator reads 0.5 on memoryless counts and
    about 0.9 on alpha=1.2 on/off traffic; the tail fit recovers alpha
    from a clean quantile grid to two decimals."""
    t0 = time.time()
    iid_counts = np.random.default_rng(42).poisson(10, 100_000)
    h_iid = tl.hurst_aggregated_variance(iid_counts).H

    n = 100_000
    grid = (np.arange(1, n + 1) - 0.5) / n
    x = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), grid)
    alpha_hat = tl.fit_tail_index(x, (1.0, 100.0)).alpha_hat

    spec = tl.GeneratorSpec(
        m=2.0, tail=tl.HeavyTailSpec(1.2, 1.0 / 60.0),
        n_cycles=50_000, lambda_target=0.5,
    )
    proc = tl.generate_onoff(spec, substream(42))
    trace, _ = tl.packetize(proc, 1000, 1e6)
    series = tl.bin_counts(trace, 0.05, unit="packets")
    # fit over spans from one bin up to ~13 s, inside the horizon where
    # the 50k-cycle sample resolves the slow variance decay
    est = tl.hurst_aggregated_variance(series, levels=[2**k for k in range(9)])
    h_onoff = est.H

    ok = abs(h_iid - 0.5) <= 0.05 and abs(alpha_hat - 1.5) <= 0.01 and abs(h_onoff - 0.9) <= 0.1
    verdict(
        acceptance_report, 7, ok,
        f"H(iid)={h_iid:.3f} (want 0.5+-0.05), alpha_hat={alpha_hat:.4f} "
        f"(want 1.5+-0.01), H(onoff)={h_onoff:.3f} (want 0.9+-0.1), "
        f"{time.time() - t0:.1f}s",
    )


def test_08_real_trace_walkthrough(acceptance_report, tmp_path):
    """Runs `trafficlab report` when BELLCORE_TRACE points at a local
    two-column arrival file (see README for where to get one).
    Not part of the gated suite; without the file it reports SKIP."""
    path = os.environ.get("BELLCORE_TRACE", "")
    if not path or not os.path.exists(path):
        acceptance_report(
            "acceptance 8: SKIP (set BELLCORE_TRACE to a two-column arrival "
            "trace to run the walkthrough)"
        )
        pytest.skip("needs an external packet trace; see the README walkthrough")
    t0 = time.time()
    prefix = tmp_path / "walkthrough"
    rc = cli.main(["report", path, "--seed", "0", "--out-prefix", str(prefix)])
    finite = rc == 0 and all(
        np.isfinite(float(line.split(",")[1]))
        for name in ("samples", "blocks")
        for line in (tmp_path / f"walkthrough.{name}.csv").read_text().splitlines()
        if not line.startswith("#")
    )
    verdict(
        acceptance_report, 8, finite,
        f"trafficlab report exit {rc}, outputs under {tmp_path}, {time.time() - t0:.1f}s",
    )
