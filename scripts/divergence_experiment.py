#!/usr/bin/env python3
"""Run `trafficlab diverge` under the flags and defaults of the former divergence script.

    divergence_experiment.py [--alpha 1.5] [--x-min 1.0] [--x-max X] [--m 2.0] [--lam 0.5]
                             [--sizes 100 1000 10000 100000] [--reps 10] [--seed 0]
                             [--out divergence_out]

creates the --out directory and runs `trafficlab diverge` with
--out-prefix <out>/divergence, so it writes divergence.csv,
divergence.gp and divergence.manifest.json there. Each value is passed
on as typed, and the command checks it. Kept for the divergence_fluid
benchmark workload, which loads this file and calls main(argv).
"""
import argparse
import sys
from pathlib import Path

from trafficlab import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", default="1.5")
    ap.add_argument("--x-min", default="1.0")
    ap.add_argument("--x-max", default=None)
    ap.add_argument("--m", default="2.0")
    ap.add_argument("--lam", default="0.5")
    ap.add_argument("--sizes", nargs="+", default=["100", "1000", "10000", "100000"])
    ap.add_argument("--reps", default="10")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--out", type=Path, default=Path("divergence_out"))
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    diverge = ["diverge", "--alpha", args.alpha, "--xmin", args.x_min, "--m", args.m, "--lambda", args.lam,
               "--sizes", ",".join(args.sizes), "--reps", args.reps, "--seed", args.seed,
               "--out-prefix", str(args.out / "divergence")]
    if args.x_max is not None:
        diverge += ["--xmax", args.x_max]
    # not cli.main: the divergence_fluid workload expects no call to it
    return cli.dispatch(cli.build_parser().parse_args(diverge))


if __name__ == "__main__":
    sys.exit(main())
