#!/usr/bin/env python3
"""Full analysis pass over a recorded packet trace.

Point this at a two-column arrival file (whitespace-separated
"timestamp bytes" lines, e.g. the classic Bellcore BC-pAug89 capture
from the Internet Traffic Archive, or "timestamp,bytes" CSV; a comma
in the first record line means CSV) and it runs the whole toolchain:

  1. summarize     packet count, duration, mean rate
  2. hurst         aggregated-variance estimate on binned counts
  3. sweep-samples mean queue over growing windows of the first 1e6
                   packets (the curve flattens once past warmup)
  4. sweep-blocks  block-shuffle ablation at high load; on real LAN
                   traffic the queue responds to the block size only
                   when the server runs hot, hence the rho default

Outputs land under --out as CSVs plus gnuplot scripts. Every stage is
a plain CLI call, so each step can be rerun or tweaked by hand.
"""
import argparse
import sys
from pathlib import Path

import trafficlab as tl
from trafficlab import cli

SAMPLE_LADDER = [10_000, 31_623, 100_000, 316_228, 1_000_000]
BLOCK_LADDER = [1, 10, 100, 1000, 10_000]


def step(argv):
    print("$ trafficlab " + " ".join(str(a) for a in argv))
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(rc)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", type=Path, help="recorded arrival trace")
    ap.add_argument("--rho", type=float, default=0.46,
                    help="server utilization for both sweeps")
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("walkthrough_out"))
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)

    full = tl.load_trace(args.trace)
    limit = min(1_000_000, full.packet_count)
    if full.packet_count > limit:
        # the sweeps are documented against the first million arrivals
        work = args.out / "first_1e6.csv"
        tl.save_trace(tl.window(full, 0, limit), work)
    else:
        work = args.trace
    sizes = sorted({n for n in SAMPLE_LADDER if n < limit} | {limit})
    blocks = [b for b in BLOCK_LADDER if b <= limit]

    step(["summarize", work, "-o", args.out / "summary.csv"])
    step(["hurst", work, "-o", args.out / "hurst.csv"])
    step(["sweep-samples", "--trace", work,
          "--sizes", ",".join(str(n) for n in sizes),
          "--reps", str(args.reps), "--seed", str(args.seed),
          "--rho", str(args.rho),
          "--out-prefix", args.out / "samples"])
    step(["sweep-blocks", "--trace", work,
          "--blocks", ",".join(str(b) for b in blocks),
          "--reps", str(args.reps), "--seed", str(args.seed),
          "--rho", str(args.rho),
          "--out-prefix", args.out / "blocks"])
    print(f"done; render the figures with: gnuplot -p {args.out}/samples.gp "
          f"and gnuplot -p {args.out}/blocks.gp")
    return 0


if __name__ == "__main__":
    sys.exit(main())
