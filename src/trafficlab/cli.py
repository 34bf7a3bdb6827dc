"""Command-line front end.

Every file this tool writes is paired with a JSON manifest holding the
full parameter set, seeds, and input digests needed to reproduce it,
and every CSV begins with a ``# manifest: <digest>`` comment naming
its manifest. Rerunning the same command yields byte-identical output.
Commands that draw random numbers require an explicit --seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict

import numpy as np

from . import __version__
from .estimators import bin_counts, empirical_ccdf, fit_tail_index, hurst_aggregated_variance
from .experiments import ReplicationPlan, block_shuffle, blocksize_sweep, prefix_mean_sweep, sample_size_sweep
from .queue_sim import packet_stats
from .rng import substream
from .synth import (
    OFF_MODELS,
    GeneratorSpec,
    HeavyTailSpec,
    SyntheticSource,
    generate_onoff,
    generate_poisson,
    packetize,
)
from .traces import PacketTrace, bandwidth_for_utilization, load_trace, save_trace, window, write_rows

# report's sweeps, trimmed to the packets it analyses
SAMPLE_LADDER = (10_000, 31_623, 100_000, 316_228, 1_000_000)
BLOCK_LADDER = (1, 10, 100, 1000, 10_000)


def _strict_json(value):
    """value with every non-finite float spelled "inf", "-inf" or "nan",
    since strict JSON has no token for them; other values are unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


class _Hashed:
    """A binary file whose reads also feed one SHA-256."""

    def __init__(self, fh):
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def read(self, size: int) -> bytes:
        data = self.fh.read(size)
        self.sha256.update(data)
        return data


def _load(path: str) -> tuple[PacketTrace, dict]:
    """The trace at path, from one read of the file, and the manifest's
    inputs: path and the SHA-256 of the bytes parsed."""
    with open(path, "rb") as fh:
        # hashed piece by piece as load_trace reads, on this thread, while
        # the pool parses the pieces before
        source = _Hashed(fh)
        trace = load_trace(source)
    return trace, {path: source.sha256.hexdigest()}


def _write(path: str, fmt: str, columns, comments: tuple[str, ...]) -> None:
    """path opened in binary and written by write_rows, so that every
    output of a command is UTF-8 with LF line ends whatever the locale."""
    with open(path, "wb") as fh:
        write_rows(fh, fmt, columns, comments)


@contextmanager
def _manifest(args: argparse.Namespace, *outputs: str | None, inputs: dict, **derived):
    """Yield the ``manifest: <digest>`` comment that heads each output, then
    write the manifest to <out-prefix>.manifest.json given --out-prefix,
    else beside the first output.

    The manifest is a strict JSON object of the subcommand, its parameters
    (args and the derived values), the inputs (as _load gives them), the
    outputs (None skipped), the tool and its version, and the digest: the
    SHA-256 of that object without it, in sorted compact JSON."""
    outputs = [path for path in outputs if path]
    params = {
        key: list(value) if isinstance(value, (list, tuple)) else value
        for key, value in {**vars(args), **derived}.items()
        if key not in ("func", "subcommand")
    }
    body = _strict_json({"subcommand": args.subcommand, "parameters": params, "inputs": inputs, "outputs": outputs,
                         "tool": "trafficlab", "version": __version__})
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    yield f"manifest: {digest}"
    text = json.dumps({**body, "digest": digest}, sort_keys=True, indent=2, allow_nan=False)
    with open(getattr(args, "out_prefix", outputs[0]) + ".manifest.json", "wb") as fh:
        fh.write(f"{text}\n".encode())


def _write_row_csv(path: str, comment: str, row: dict) -> None:
    """One-row CSV of column -> value; floats and bools are written as float reprs, anything
    else as text, so an int such as a byte total keeps every digit."""
    cells = [[float(v)] if isinstance(v, (bool, float, np.floating)) else [v] for v in row.values()]
    _write(path, ",".join(["%s"] * len(row)), cells, (comment, ",".join(row)))


def _exact_int(text: str) -> int | None:
    """The integer text names, read exactly as a Decimal (``1e4``, ``10.0``, ``+5``, ``1_000``), or
    None for another number or one of over 4300 digits: Python will not print such an int, and
    ``1e999999999`` would take gigabytes to build. Text that is no number is a ValueError."""
    with suppress(ValueError):  # a plain integer, read as Decimal reads it, without decimal
        return int(text)
    # imported on first use: decimal takes about 1.5 ms to import (2-core VM), which a plain integer need not pay
    from decimal import Decimal, InvalidOperation
    try:
        v = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a number: {text!r}") from None
    return int(v) if v.is_finite() and v == v.to_integral_value() and v.copy_abs() < Decimal("1e4300") else None


def _int_list(text: str) -> list[int]:
    """The comma-separated integers, each read by _exact_int; at least one."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected at least one integer")
    try:
        values = [_exact_int(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    for part, v in zip(parts, values):
        if v is None:
            raise argparse.ArgumentTypeError(f"{part!r} in {text!r} is not an integer of at most 4300 digits")
    if any(v < 1 for v in values):  # every list flag counts packets, blocks or levels
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return values


def _int_from(low: int, high: int | None = None):
    """An argparse type for an integer of at least low, and at most high if given, read by
    _exact_int; argparse names the flag in the error."""

    def parse(text: str) -> int:
        if (value := _exact_int(text)) is None:
            raise ValueError(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


def _add_gen_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """The generator flags other than the on/off group's. A count stops at sys.maxsize, the largest array length."""
    p.add_argument("--model", choices=("onoff", "poisson"), required=required)
    p.add_argument("--cycles", type=_int_from(1, sys.maxsize),
                   help="number of on/off cycles (sweep-samples ignores it)")
    p.add_argument("--packet-size", type=_int_from(1), default=1000, help="bytes per packet")
    p.add_argument(
        "--rate",
        type=float,
        help="onoff: server rate in bytes/s the source is scaled to; poisson: packet arrival rate in packets/s",
    )
    p.add_argument("--off-model", choices=OFF_MODELS, default="iid")
    p.add_argument("--q", type=float, default=None, help="mean-queue bound for --off-model bounded")
    p.add_argument("--n", type=_int_from(1, sys.maxsize), default=None, help="packet count for --model poisson")


def _source(args) -> tuple[PacketTrace | SyntheticSource, dict]:
    """The --trace file, or the generator flags as a Poisson trace or an
    on/off recipe; and the manifest's inputs, as _load gives them."""
    if args.trace and args.model:
        raise ValueError("give either --trace or --model, not both")
    if args.trace:
        return _load(args.trace)
    if not args.model:
        raise ValueError("give a --trace file or generator flags with --model")
    if args.model == "poisson":
        if args.n is None or args.rate is None:
            raise ValueError("poisson model needs --rate and --n")
        return generate_poisson(args.rate, args.packet_size, args.n, substream(args.seed)), {}
    spec = _onoff_spec(args, args.off_model, args.cycles, "cycles", "rate")
    return SyntheticSource(spec=spec, packet_size=args.packet_size, server_rate=args.rate), {}


def _bandwidth(args, source: PacketTrace | SyntheticSource) -> float:
    """The service rate in bytes/s: exactly one of --bandwidth and --rho, the load that
    bandwidth_for_utilization turns into a rate on the trace. A generated on/off source has no
    fixed trace to load, so it refuses --rho and is served at its --rate unless --bandwidth is given."""
    if isinstance(source, SyntheticSource):
        if args.rho is not None:
            raise ValueError("rho needs a fixed trace; synthetic sweeps take bandwidth directly")
        return source.server_rate if args.bandwidth is None else args.bandwidth
    if (args.bandwidth is None) == (args.rho is None):
        raise ValueError("give exactly one of bandwidth or rho")
    return args.bandwidth if args.rho is None else bandwidth_for_utilization(source, args.rho)


def _onoff_spec(args, off_model: str, n_cycles: int, *needs: str) -> GeneratorSpec:
    """The recipe of the on/off flags for off_model, one of synth.OFF_MODELS, and n_cycles
    cycles. --alpha, --m, --lambda (but for the bounded model, which ignores it) and the
    flags named in needs must be given: the first missing one is named. diverge has no --q."""
    given = {"alpha": args.alpha, "m": args.m, "lambda": args.lam, **{name: getattr(args, name) for name in needs}}
    for flag, value in given.items():
        if value is None and not (flag == "lambda" and off_model == "bounded"):
            raise ValueError(f"onoff model needs --{flag}")
    tail = HeavyTailSpec(tail_index=args.alpha, x_min=args.xmin, x_max=args.xmax)
    return GeneratorSpec(m=args.m, tail=tail, n_cycles=n_cycles, lambda_target=args.lam, off_model=off_model,
                         q=getattr(args, "q", None))


def cmd_gen(args) -> int:
    source, inputs = _source(args)
    trace = source
    if isinstance(source, SyntheticSource):
        process = generate_onoff(source.spec, substream(args.seed))
        trace, silent = packetize(process, source.packet_size, source.server_rate)
        if silent:
            print(f"note: {silent} of {process.n_cycles} on periods were too short to emit a packet", file=sys.stderr)
    with _manifest(args, args.output, inputs=inputs) as comment:
        save_trace(trace, args.output, comments=(comment,))
    print(f"wrote {trace.packet_count} packets to {args.output}")
    return 0


def _summary_row(trace: PacketTrace) -> dict:
    """packet_count, duration, the exact total_bytes, and the mean_rate in
    bytes/s, empty for a zero-duration trace."""
    duration, total = trace.duration, trace.total_bytes
    return {"packet_count": trace.packet_count, "duration": duration, "total_bytes": total,
            "mean_rate": total / duration if duration > 0 else ""}


def cmd_summarize(args) -> int:
    if not args.output:  # no manifest, so the input is not hashed
        row = _summary_row(load_trace(args.trace))
        print(",".join(row))
        print(",".join(str(v) for v in row.values()))
        return 0
    trace, inputs = _load(args.trace)
    with _manifest(args, args.output, inputs=inputs) as comment:
        _write_row_csv(args.output, comment, _summary_row(trace))
    return 0


def cmd_queue(args) -> int:
    trace, inputs = _load(args.trace)
    bandwidth = _bandwidth(args, trace)
    stats, path = packet_stats(trace, bandwidth, keep_path=bool(args.path_out))
    with _manifest(args, args.output, args.path_out, inputs=inputs, derived_bandwidth=bandwidth) as comment:
        if args.path_out:
            with open(args.path_out, "wb") as fh:
                path.write_csv(fh, comments=(comment,))
        _write_row_csv(args.output, comment, asdict(stats))
    return 0


def cmd_shuffle(args) -> int:
    trace, inputs = _load(args.trace)
    shuffled = block_shuffle(trace, args.block_size, substream(args.seed))
    with _manifest(args, args.output, inputs=inputs) as comment:
        save_trace(shuffled, args.output, comments=(comment,))
    return 0


def _write_gnuplot(out_prefix: str, comment: str, logscale: str, xlabel: str, ylabel: str, plots: list[str],
                   settings: tuple[str, ...] = ()) -> None:
    """<out_prefix>.gp, drawing plots into <out_prefix>.png; settings come right before the plot line."""
    lines = ['set datafile separator ","', f"set logscale {logscale}", f'set xlabel "{xlabel}"',
             f'set ylabel "{ylabel}"', "set terminal pngcairo size 900,600", f'set output "{out_prefix}.png"',
             *settings, "plot " + ", ".join(plots)]
    _write(out_prefix + ".gp", "%s", [lines], (comment,))


SWEEP_XLABELS = {"sample_size": "sample size (packets)", "block_size": "shuffle block size (packets)"}


def _write_sweep(out_prefix: str, comment: str, sweep) -> None:
    """<out_prefix>.csv of the sweep and <out_prefix>.gp to draw it, each headed by comment."""
    csv_path = out_prefix + ".csv"
    plots, settings = [f'"{csv_path}" using 1:2:3 with yerrorlines title "mean +/- std"'], ()
    if sweep.baseline is not None:
        settings = (f"baseline = {float(sweep.baseline)!r}",)
        plots.append('baseline with lines dashtype 2 title "unshuffled"')
    with open(csv_path, "wb") as fh:
        sweep.write_csv(fh, comments=(comment,))
    _write_gnuplot(out_prefix, comment, "x", SWEEP_XLABELS[sweep.x_label], "mean queue (packets)", plots, settings)


def _sweep(args, run_sweep, source, inputs: dict, xs) -> int:
    """Run the sweep over xs with the sweep flags; write its CSV and gnuplot script."""
    plan = ReplicationPlan(master_seed=args.seed, replications=args.reps)
    sweep = run_sweep(source, xs, plan, _bandwidth(args, source))
    paths = (args.out_prefix + ".csv", args.out_prefix + ".gp")
    with _manifest(args, *paths, inputs=inputs) as comment:
        _write_sweep(args.out_prefix, comment, sweep)
    print(f"wrote {', '.join(paths)}")
    return 0


def cmd_sweep_samples(args) -> int:
    return _sweep(args, sample_size_sweep, *_source(args), args.sizes)


def cmd_sweep_blocks(args) -> int:
    source, inputs = _source(args)
    if isinstance(source, SyntheticSource):
        # materialize one trace; replications then vary only the permutation
        source = source.trace(substream(args.seed))
    return _sweep(args, blocksize_sweep, source, inputs, args.blocks)


def cmd_diverge(args) -> int:
    spec = _onoff_spec(args, "reordered", max(args.sizes))
    plan = ReplicationPlan(master_seed=args.seed, replications=args.reps)
    sweep = prefix_mean_sweep(spec, args.sizes, plan)
    sizes = [int(p.x) for p in sweep.points]
    stats = [(float(np.median(p.rep_means)), p.mean, p.std) for p in sweep.points]
    csv_path = args.out_prefix + ".csv"
    gp_path = args.out_prefix + ".gp"
    with _manifest(args, csv_path, gp_path, inputs={}) as comment:
        comments = (comment, f"prefix mean queue, {args.reps} replications, alpha={args.alpha:g}, x_max={args.xmax}",
                    "cycles,median,mean,std," + ",".join(f"rep_{i + 1}" for i in range(args.reps)))
        # cycles, median, mean, std, then one column per replication
        columns = (sizes, *zip(*stats), *zip(*(p.rep_means for p in sweep.points)))
        _write(csv_path, ",".join(["%r"] * len(columns)), columns, comments)
        _write_gnuplot(args.out_prefix, comment, "xy", "cycles simulated", "mean queue",
                       [f'"{csv_path}" using 1:2 with linespoints title "median"',
                        f'"{csv_path}" using 1:3:4 with yerrorlines title "mean +/- std"'])
    print(f"{'cycles':>10} {'median':>12} {'mean':>12} {'std':>12}")
    for n, (median, mean, std) in zip(sizes, stats):
        print(f"{n:>10} {median:>12.4f} {mean:>12.4f} {std:>12.4f}")
    print(f"wrote {csv_path}, {gp_path}")
    return 0


def _hurst_row(trace: PacketTrace, bin_width: float | None = None, unit: str = "packets",
               levels: list[int] | None = None, too_short: str = "") -> tuple[dict, float]:
    """The hurst row of the trace, and the bin width used: bin_width, or by default duration/4096.
    too_short ends the error for a trace too short for the default bins: the remedy the command offers."""
    if trace.duration == 0:
        raise ValueError("trace duration is zero: every packet arrives at once, so there are no bins")
    width = bin_width if bin_width is not None else trace.duration / 4096
    if width == 0 and bin_width is None:
        raise ValueError(f"trace duration {trace.duration!r} s is too short for the default 4096 bins{too_short}")
    est = hurst_aggregated_variance(bin_counts(trace, width, unit=unit), levels=levels)
    row = {"H": est.H, "slope": est.slope, "fit_r2": est.fit_r2, "clipped": est.clipped,
           "levels": ";".join(str(a) for a in est.levels_used)}
    return row, width


def cmd_hurst(args) -> int:
    trace, inputs = _load(args.trace)
    row, width = _hurst_row(trace, args.bin_width, args.unit, args.levels, ": give --bin-width")
    with _manifest(args, args.output, inputs=inputs, derived_bin_width=width) as comment:
        _write_row_csv(args.output, comment, row)
    print(f"H = {row['H']:.4f} (r2 {row['fit_r2']:.4f})")
    return 0


def cmd_report(args) -> int:
    """summarize, hurst, sweep-samples and sweep-blocks on the first million packets of one
    load, all computed before anything is written, under one manifest."""
    trace, inputs = _load(args.trace)
    n = min(SAMPLE_LADDER[-1], trace.packet_count)  # the top of the ladder, 10^6, caps the analysis
    if n < trace.packet_count:
        trace = window(trace, 0, n)
    summary = _summary_row(trace)
    hurst, width = _hurst_row(trace)
    bandwidth = bandwidth_for_utilization(trace, args.rho)
    plan = ReplicationPlan(master_seed=args.seed, replications=args.reps)
    sweeps = {"samples": sample_size_sweep(trace, sorted({s for s in SAMPLE_LADDER if s < n} | {n}), plan, bandwidth),
              "blocks": blocksize_sweep(trace, [b for b in BLOCK_LADDER if b <= n], plan, bandwidth)}
    prefix = args.out_prefix
    paths = [f"{prefix}.{name}" for name in ("summary.csv", "hurst.csv", "samples.csv", "samples.gp",
                                             "blocks.csv", "blocks.gp")]
    with _manifest(args, *paths, inputs=inputs, derived_bin_width=width, derived_packets=n) as comment:
        _write_row_csv(paths[0], comment, summary)
        _write_row_csv(paths[1], comment, hurst)
        for name, sweep in sweeps.items():
            _write_sweep(f"{prefix}.{name}", comment, sweep)
    print(f"analysed {n} packets; wrote {', '.join(paths)}")
    return 0


def cmd_tailfit(args) -> int:
    trace, inputs = _load(args.trace)
    if args.field == "gaps":
        samples = np.diff(trace.timestamps)
        samples = samples[samples > 0]
    else:
        samples = trace.sizes.astype(np.float64)
    del trace  # samples is a copy, so the trace goes before the fit
    if len(samples) == 0:
        raise ValueError("no usable samples in the trace")
    qlo, qhi = np.quantile(samples, (0.5, 0.999)).tolist()  # one partition for both edges
    lo = args.lo if args.lo is not None else qlo
    hi = args.hi if args.hi is not None else qhi
    defaults = [f"{flag} the {edge}" for flag, edge, given in
                (("--lo", "median", args.lo), ("--hi", "99.9th percentile", args.hi)) if given is None]
    if defaults and 0 < lo and not lo < hi:  # a default edge emptied the range
        why = "all samples are equal" if samples.min() == samples.max() else "set --lo and --hi"
        raise ValueError(f"fit_range [{lo:g}, {hi:g}] is empty, with default {' and '.join(defaults)}: {why}")
    fit = fit_tail_index(samples, (lo, hi))
    with _manifest(args, args.output, args.ccdf_out, inputs=inputs, derived_fit_range=fit.fit_range) as comment:
        row = {"alpha_hat": fit.alpha_hat, "fit_lo": lo, "fit_hi": hi, "fit_r2": fit.fit_r2}
        _write_row_csv(args.output, comment, row)
        if args.ccdf_out:
            xs, cc = empirical_ccdf(samples)
            _write(args.ccdf_out, "%r,%r", (xs, cc), (comment, "x,ccdf"))
    print(f"alpha_hat = {fit.alpha_hat:.4f} over [{lo:g}, {hi:g}] (r2 {fit.fit_r2:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficlab",
        description="Generate bursty traffic, replay it through a FIFO queue, and measure what changes",
    )
    parser.add_argument("--version", action="version", version=f"trafficlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # flag groups, each declared once and taken by subcommands as a parent
    trace_file = argparse.ArgumentParser(add_help=False)
    trace_file.add_argument("trace")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_int_from(0), required=True)
    replicated = argparse.ArgumentParser(add_help=False, parents=[seed])
    # replications are numbered by index, and an index stops at sys.maxsize
    replicated.add_argument("--reps", type=_int_from(1, sys.maxsize), default=10)
    replicated.add_argument("--out-prefix", required=True)
    onoff = argparse.ArgumentParser(add_help=False)
    onoff.add_argument("--alpha", type=float, help="tail index of on-period lengths, in (1,2)")
    onoff.add_argument("--xmin", type=float, default=1.0, help="smallest on-period length, seconds")
    onoff.add_argument("--xmax", type=float, default=None, help="cap on on-period lengths (off by default)")
    onoff.add_argument("--m", type=float, help="on-period send rate as a multiple of the server rate")
    onoff.add_argument("--lambda", dest="lam", type=float, default=None, help="target long-run load, in (0,1)")
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--sizes", type=_int_list, required=True,
                       help="comma-separated sizes: packets, or cycles for diverge")
    service = argparse.ArgumentParser(add_help=False)
    service.add_argument("--bandwidth", type=float, default=None, help="service rate, bytes/s")
    service.add_argument("--rho", type=float, default=None, help="target load; bandwidth derived from the trace")
    sweep = argparse.ArgumentParser(add_help=False, parents=[replicated, service, onoff])
    sweep.add_argument("--trace", default=None)
    _add_gen_flags(sweep, required=False)

    p = sub.add_parser("gen", help="synthesize a packet trace", parents=[seed, output, onoff])
    _add_gen_flags(p, required=True)
    p.set_defaults(func=cmd_gen, trace=None)

    p = sub.add_parser("summarize", help="packet count, span, bytes, mean rate", parents=[trace_file])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("queue", help="FIFO simulation of a trace", parents=[trace_file, service, output])
    p.add_argument("--path-out", default=None, help="also write the queue level breakpoints")
    p.set_defaults(func=cmd_queue)

    p = sub.add_parser("shuffle", help="block-shuffle a trace", parents=[trace_file, seed, output])
    p.add_argument("--block-size", type=_int_from(1), required=True)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("sweep-samples", help="mean queue versus sample size", parents=[sweep, sizes])
    p.set_defaults(func=cmd_sweep_samples)

    p = sub.add_parser("sweep-blocks", help="mean queue versus shuffle block size", parents=[sweep])
    p.add_argument("--blocks", type=_int_list, required=True, help="comma-separated block sizes")
    p.set_defaults(func=cmd_sweep_blocks)

    p = sub.add_parser("diverge", help="reordered on/off mean queue versus prefix length",
                       parents=[replicated, onoff, sizes])
    p.set_defaults(func=cmd_diverge)

    p = sub.add_parser("hurst", help="variance-scaling Hurst estimate of a trace", parents=[trace_file, output])
    p.add_argument("--bin-width", type=float, default=None, help="seconds; default duration/4096")
    p.add_argument("--unit", choices=("packets", "bytes"), default="packets")
    p.add_argument("--levels", type=_int_list, default=None)
    p.set_defaults(func=cmd_hurst)

    p = sub.add_parser("tailfit", help="log-log tail index of gaps or sizes", parents=[trace_file, output])
    p.add_argument("--field", choices=("gaps", "sizes"), default="gaps")
    p.add_argument("--lo", type=float, default=None, help="fit range lower edge; default median")
    p.add_argument("--hi", type=float, default=None, help="fit range upper edge; default 99.9th pct")
    p.add_argument("--ccdf-out", default=None, help="also write empirical CCDF points")
    p.set_defaults(func=cmd_tailfit)

    p = sub.add_parser("report", help="summarize, hurst and both sweeps of a trace, under one manifest",
                       parents=[trace_file, replicated])
    p.add_argument("--rho", type=float, default=0.46, help="target load of both sweeps")
    p.set_defaults(func=cmd_report)

    return parser


def dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command; ValueError, OSError, MemoryError and OverflowError print ``error: ...`` and give 1."""
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
