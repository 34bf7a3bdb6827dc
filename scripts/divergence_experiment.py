#!/usr/bin/env python3
"""Watch the sample-mean queue refuse to settle under an infinite-variance tail.

Builds a fluid on/off process whose silences are proportional to the
preceding bursts, then measures the time-average queue over growing
prefixes of the cycle sequence, replicated across seeds. With
tail_index < 2 the per-seed medians keep climbing as the prefix grows;
rerunning with a burst-length cap (--x-max) restores a finite second
moment and the curve flattens.

Writes <out>/divergence.csv (one row per prefix size: median, mean,
std, every replication), <out>/divergence.gp for gnuplot, and
<out>/divergence.manifest.json, whose digest the CSV's first line names.
Run with and without --x-max to overlay the two regimes.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

import trafficlab as tl
from trafficlab.cli import RunManifest
from trafficlab.rng import substream
from trafficlab.traces import write_rows


def run_sweep(tail, m, lam, sizes, reps, master_seed):
    """Median/mean/std of the prefix mean queue at each size."""
    per_size = {n: [] for n in sizes}
    for i in range(reps):
        u = 1.0 - substream(master_seed, i).random(max(sizes))
        on = np.asarray(tl.sample_heavy_tail(tail, u))
        proc = tl.reorder_nonoverlap(on, m, lam)
        for n, mq in tl.prefix_mean_queue(proc, sizes):
            per_size[n].append(mq)
    return per_size


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.5, help="burst tail index")
    ap.add_argument("--x-min", type=float, default=1.0, help="burst scale")
    ap.add_argument("--x-max", type=float, default=None,
                    help="cap burst lengths (control run)")
    ap.add_argument("--m", type=float, default=2.0, help="on-state input rate")
    ap.add_argument("--lam", type=float, default=0.5, help="target load")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[100, 1000, 10_000, 100_000],
                    help="prefix lengths, in cycles")
    ap.add_argument("--reps", type=int, default=10, help="independent seeds")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--out", type=Path, default=Path("divergence_out"))
    args = ap.parse_args(argv)

    tail = tl.HeavyTailSpec(args.alpha, args.x_min, x_max=args.x_max)
    sizes = sorted(args.sizes)
    per_size = run_sweep(tail, args.m, args.lam, sizes, args.reps, args.seed)
    # (median, mean, std) per size, shared by the CSV and the table below
    stats = [(float(np.median(per_size[n])), *tl.aggregate_replications(per_size[n]))
             for n in sizes]

    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "divergence.csv"
    gp_path = args.out / "divergence.gp"
    manifest = RunManifest(subcommand="divergence_experiment",
                           parameters={**vars(args), "out": str(args.out)},
                           outputs=[str(csv_path), str(gp_path)])
    comments = (f"manifest: {manifest.digest()}",
                "prefix mean queue, %d replications, alpha=%g, x_max=%s"
                % (args.reps, args.alpha, args.x_max),
                "cycles,median,mean,std," + ",".join(f"rep_{i + 1}" for i in range(args.reps)))
    # cycles, median, mean, std, then one column per replication
    columns = (sizes, *zip(*stats), *zip(*(per_size[n] for n in sizes)))
    with open(csv_path, "w") as fh:
        write_rows(fh, ",".join(["%r"] * len(columns)), columns, comments)

    gp_path.write_text(
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set xlabel 'cycles simulated'\n"
        "set ylabel 'mean queue'\n"
        f"plot '{csv_path.name}' using 1:2 with linespoints title 'median', \\\n"
        f"     '{csv_path.name}' using 1:3:4 with yerrorlines title 'mean +- std'\n"
    )

    manifest_path = args.out / "divergence.manifest.json"
    manifest.write(manifest_path)

    print(f"{'cycles':>10} {'median':>12} {'mean':>12} {'std':>12}")
    for n, (median, mean, std) in zip(sizes, stats):
        print(f"{n:>10} {median:>12.4f} {mean:>12.4f} {std:>12.4f}")
    print(f"wrote {csv_path}, {gp_path} and {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
