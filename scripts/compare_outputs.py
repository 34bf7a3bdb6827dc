#!/usr/bin/env python3
"""Run a fixed list of trafficlab commands at a git revision and in the
checkout, and report every output file that differs between the two.

    python3 scripts/compare_outputs.py REV

REV (any git revision, such as HEAD or a commit id) is exported with
`git archive` into a temporary directory; the checkout is used as it
stands, uncommitted edits included. Each side runs run_commands, the
runner tests/test_golden.py also uses, in one fresh interpreter on that
side's package and scripts, from its own empty temporary output
directory, with relative file names, so manifests and gnuplot files
name the same paths. Every command's exit status, stdout and stderr
are kept beside its outputs, and the two sides' files are compared by
their SHA-256 digests. Nothing is written inside the repository: the
temporary directories are removed at exit and no bytecode is cached.

Exit status is 0 when both sides wrote the same files byte for byte,
and 1 otherwise.
"""
import argparse
import hashlib
import io
import os
import runpy
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ONOFF = ["--model", "onoff", "--alpha", "1.4", "--xmin", "0.01", "--m", "2", "--lambda", "0.5",
         "--packet-size", "1000", "--rate", "1e6"]

# on periods of 1 to 5 s: about one in ten, (1/5)**1.4, is capped
CAPPED = ["--model", "onoff", "--alpha", "1.4", "--xmin", "1", "--xmax", "5", "--m", "2", "--lambda", "0.5",
          "--packet-size", "1000", "--rate", "1e4"]

# a small fixed whitespace-separated trace with 400 distinct sizes: the gen
# commands write only CSV, with one packet size per trace
TEXT_TRACE = "".join(f"{0.004 * i + 0.0003 * (37 * i % 11):.4f} {40 + 614 * i % 1461}\n" for i in range(400))

# a fixed trace in the shape the loader's byte kernel reads: a header,
# tab separators, CRLF line ends, 9-digit fractions, 8- and 10-digit
# sizes, and one 17-digit timestamp, which the kernel hands to float()
KERNEL_TRACE = "# seconds\tbytes\r\n" + "".join(
    f"{1 + 0.0037 * i:.{16 if i == 150 else 9}f}\t{(10**7 if i % 3 else 10**9) + 7919 * i}\r\n" for i in range(300))

# the same shape over 200000 records, about 5 MiB: more than four of
# the byte kernel's 1 MiB blocks, so they are read on its pool and
# joined in order; the one 17-digit timestamp sits in the fourth block
KERNEL_LONG_TRACE = "# seconds\tbytes\r\n" + "".join(
    f"{1 + 0.0037 * i:.{14 if i == 150000 else 9}f}\t{(10**7 if i % 3 else 10**9) + 7919 * i}\r\n"
    for i in range(200000))

# 70000 packets, one of 10**18 bytes early in the second 65536-packet
# slice: at 1e-280 bytes/s its service time of 1e298 s and every sojourn
# from it on pass 2**977, so that slice's terms reach math.fsum raw
HUGE_TRACE = "".join(f"{0.001 * i:.3f} {10**18 if i == 66000 else 500 + i % 1000}\n" for i in range(70000))

# a whitespace-separated trace that only the line parser reads: a blank
# line and a comment after the first record, whole-number and exponent
# timestamps, and two spaces between the fields
LOOSE_TRACE = "0 1500\n\n# a comment between records\n" + "".join(
    f"{i // 8} {40 + 37 * i % 1460}\n" if i % 8 == 0 else f"{i / 8:e}  {40 + 37 * i % 1460}\n"
    for i in range(1, 400))

# 70000 packets of 1000 bytes in batches of 3 at equal timestamps 0.75 s
# apart: at 4000 bytes/s each service takes exactly 0.25 s, so each
# batch's last departure ties with the next batch's arrivals, and as
# 65536 is not a multiple of 3, a batch straddles each 65536-packet cut
TIES_TRACE = "".join(f"{0.75 * (i // 3):.2f} 1000\n" for i in range(70000))

# a canonical CSV trace whose last record has no line end
UNTERMINATED_TRACE = "# seconds,bytes\n" + "\n".join(
    f"{0.0021 * i + 0.0004 * (i % 5):.9f},{64 + 97 * i % 1455}" for i in range(500))

# a Bellcore-style `%.6f bytes` trace of 300000 records, about 4.4 MiB:
# more than four of the byte kernel's 1 MiB blocks, with a comment line
# and a blank line in the third block, which alone goes to the line parser
NOTED_TRACE = "# seconds bytes\n" + "".join(
    ("# a note mid-trace\n\n" if i == 150000 else "") + f"{0.0031 * i + 0.0002 * (i % 7):.6f} {64 + 53 * i % 1455}\n"
    for i in range(300000))

# a Bellcore-style `%.6f bytes` trace of 100000 records, about 1.6 MiB,
# after leading lines that a header of printable ASCII would not hold: a
# comment with UTF-8 bytes, a blank line, an indented comment and a
# CRLF comment
HEADED_TRACE = "# capture \u2014 seconds, \u00b5s\n\n  # comment\n# crlf\r\n" + "".join(
    f"{0.0029 * i + 0.0003 * (i % 7):.6f} {64 + 71 * i % 1455}\n" for i in range(100000))

# a Bellcore-style `%.6f bytes` trace of 100000 records with 17-digit
# sizes, about 2.7 MiB: more than two of the byte kernel's 1 MiB blocks,
# each of which it refuses, so the line parser reads every one; the
# sizes sum past 2**63
LONG_SIZES_TRACE = "".join(f"{0.0031 * i:.6f} {10**16 + 7919 * i}\n" for i in range(100000))

# (name, argv): argv starts with "cli" for `python -m trafficlab.cli`
# or with a script under scripts/; inputs come from the gen commands
# and from text.txt, kernel.txt, kernel_long.txt, huge.txt, loose.txt,
# ties.txt, unterminated.csv, noted.txt, headed.txt, long_sizes.txt and
# mixed.txt: TEXT_TRACE, KERNEL_TRACE, KERNEL_LONG_TRACE, HUGE_TRACE,
# LOOSE_TRACE, TIES_TRACE, UNTERMINATED_TRACE, NOTED_TRACE,
# HEADED_TRACE, LONG_SIZES_TRACE and a CSV trace whose third record is
# whitespace separated
COMMANDS = [
    ("gen_onoff", ["cli", "gen", *ONOFF, "--cycles", "300", "--seed", "7", "-o", "onoff.csv"]),
    ("gen_poisson", ["cli", "gen", "--model", "poisson", "--rate", "200", "--packet-size", "500",
                     "--n", "5000", "--seed", "3", "-o", "poisson.csv"]),
    # the third off model; --lambda is ignored by it but still recorded
    ("gen_bounded", ["cli", "gen", *ONOFF, "--off-model", "bounded", "--q", "2", "--cycles", "300",
                     "--seed", "11", "-o", "bounded.csv"]),
    ("gen_capped", ["cli", "gen", *CAPPED, "--cycles", "300", "--seed", "7", "-o", "capped.csv"]),
    # silences proportional to their bursts; every off model is in the gate
    ("gen_reordered", ["cli", "gen", *ONOFF, "--off-model", "reordered", "--cycles", "300",
                       "--seed", "21", "-o", "reordered.csv"]),
    ("summarize", ["cli", "summarize", "onoff.csv", "-o", "summary.csv"]),
    ("summarize_stdout", ["cli", "summarize", "poisson.csv"]),
    ("summarize_text", ["cli", "summarize", "text.txt", "-o", "summary_text.csv"]),
    # fails: the first record names CSV, so the error names line 3
    ("summarize_mixed", ["cli", "summarize", "mixed.txt", "-o", "summary_mixed.csv"]),
    ("queue", ["cli", "queue", "onoff.csv", "--rho", "0.6", "-o", "queue.csv"]),
    ("queue_path", ["cli", "queue", "onoff.csv", "--rho", "0.6", "--path-out", "path.csv",
                    "-o", "queue_path.csv"]),
    ("queue_poisson_path", ["cli", "queue", "poisson.csv", "--bandwidth", "150000",
                            "--path-out", "poisson_path.csv", "-o", "queue_poisson.csv"]),
    ("shuffle", ["cli", "shuffle", "onoff.csv", "--block-size", "100", "--seed", "5",
                 "-o", "shuffled.csv"]),
    # longer than one 65536-row write chunk, with timestamps from 1 to 4
    # integer digits, so the writes cross chunk boundaries and widths
    ("gen_long", ["cli", "gen", "--model", "poisson", "--rate", "100", "--packet-size", "700",
                  "--n", "150000", "--seed", "8", "-o", "long.csv"]),
    ("shuffle_long", ["cli", "shuffle", "long.csv", "--block-size", "1000", "--seed", "9",
                      "-o", "long_shuffled.csv"]),
    # blocks longer than one 65536-packet run, with a short last block of
    # 18926 packets: the written columns are copied from runs that cut
    # blocks in two
    ("shuffle_long_runs", ["cli", "shuffle", "long.csv", "--block-size", "65537", "--seed", "19",
                           "-o", "long_runs_shuffled.csv"]),
    ("queue_long_path", ["cli", "queue", "long.csv", "--rho", "0.9", "--path-out", "long_path.csv",
                         "-o", "queue_long.csv"]),
    # near-critical load: busy periods run across the 65536-packet slices of
    # packet_fifo, so its running max and service prefix sum carry across them
    ("queue_long_heavy", ["cli", "queue", "long.csv", "--rho", "0.999", "--path-out", "long_heavy_path.csv",
                          "-o", "queue_long_heavy.csv"]),
    # short last blocks of 4, 2544 and 18928 packets, one exact block and
    # B >= n, with gathers and sojourn sums past 65536 rows
    ("sweep_blocks_long", ["cli", "sweep-blocks", "--trace", "long.csv", "--blocks", "1,7,4096,65536,150000,1e9",
                           "--reps", "2", "--seed", "13", "--rho", "0.9", "--out-prefix", "blocks_long"]),
    # blocks that straddle the 65536-packet runs a shuffled trace is served
    # in: one just under a run, two over it, with short last blocks of
    # 18930, 18926 and 50001 packets
    ("sweep_blocks_long_runs", ["cli", "sweep-blocks", "--trace", "long.csv", "--blocks", "65535,65537,99999",
                                "--reps", "3", "--seed", "16", "--rho", "0.95", "--out-prefix", "blocks_long_runs"]),
    # 5 replications of 7 block sizes from B = 1 to B >= n: far more than
    # the replication pool holds at once, so its means come back in order
    # over many submissions
    ("sweep_blocks_long_reps", ["cli", "sweep-blocks", "--trace", "long.csv",
                                "--blocks", "1,10,100,1000,10000,100000,1e9", "--reps", "5", "--seed", "17",
                                "--rho", "0.9", "--out-prefix", "blocks_long_reps"]),
    ("sweep_samples_trace", ["cli", "sweep-samples", "--trace", "onoff.csv", "--sizes", "100,1000,5000",
                             "--reps", "3", "--seed", "2", "--rho", "0.6", "--out-prefix", "samples_trace"]),
    ("sweep_samples_bandwidth", ["cli", "sweep-samples", "--trace", "onoff.csv", "--sizes", "100,1000",
                                 "--reps", "2", "--seed", "3", "--bandwidth", "2e6", "--out-prefix", "samples_bw"]),
    ("sweep_samples_gen", ["cli", "sweep-samples", *ONOFF, "--cycles", "200", "--sizes", "100,1000",
                           "--reps", "2", "--seed", "4", "--out-prefix", "samples_gen"]),
    # the service-rate rule: a generated on/off source is served at
    # --bandwidth when given, else at its --rate, and refuses --rho; a
    # trace takes exactly one of --bandwidth and --rho
    ("sweep_samples_gen_bandwidth", ["cli", "sweep-samples", *ONOFF, "--cycles", "200", "--sizes", "100,1000",
                                     "--reps", "2", "--seed", "4", "--bandwidth", "2e6",
                                     "--out-prefix", "samples_gen_bw"]),
    ("sweep_samples_gen_rho", ["cli", "sweep-samples", *ONOFF, "--cycles", "200", "--sizes", "100,1000",
                               "--reps", "2", "--seed", "4", "--rho", "0.5", "--out-prefix", "samples_gen_rho"]),
    ("queue_no_rate", ["cli", "queue", "onoff.csv", "-o", "queue_no_rate.csv"]),
    ("queue_both_rates", ["cli", "queue", "onoff.csv", "--bandwidth", "2e6", "--rho", "0.6",
                          "-o", "queue_both_rates.csv"]),
    ("sweep_blocks_no_rate", ["cli", "sweep-blocks", "--trace", "onoff.csv", "--blocks", "1,10",
                              "--reps", "2", "--seed", "2", "--out-prefix", "blocks_no_rate"]),
    # sweep-blocks shuffles one trace drawn from the recipe, so the rule for a trace holds
    ("sweep_blocks_gen_no_rate", ["cli", "sweep-blocks", *ONOFF, "--cycles", "300", "--blocks", "1,10",
                                  "--reps", "2", "--seed", "6", "--out-prefix", "blocks_gen_no_rate"]),
    # exact packet counts from capped on periods; 100000 packets take more
    # than one chunk of cycles, each starting where the one before ended
    ("sweep_samples_gen_capped", ["cli", "sweep-samples", *CAPPED, "--cycles", "200", "--sizes", "100,1000,100000",
                                  "--reps", "2", "--seed", "4", "--out-prefix", "samples_gen_capped"]),
    # 4 replications of 3 generated traces each, made in the calling
    # thread and served on the replication pool
    ("sweep_samples_gen_reps", ["cli", "sweep-samples", *ONOFF, "--cycles", "200", "--sizes", "100,1000,10000",
                                "--reps", "4", "--seed", "18", "--out-prefix", "samples_gen_reps"]),
    # windows of a generated Poisson trace, whose sizes are stored once,
    # one of them longer than a 65536-packet run
    ("sweep_samples_poisson", ["cli", "sweep-samples", "--model", "poisson", "--rate", "200",
                               "--packet-size", "500", "--n", "100000", "--sizes", "100,1000,70000",
                               "--reps", "2", "--seed", "22", "--rho", "0.6", "--out-prefix", "samples_poisson"]),
    # shuffles of a generated Poisson trace, its sizes stored once, with
    # blocks shorter than a 65536-packet run and one longer
    ("sweep_blocks_poisson", ["cli", "sweep-blocks", "--model", "poisson", "--rate", "200",
                              "--packet-size", "500", "--n", "100000", "--blocks", "7,4096,70000",
                              "--reps", "2", "--seed", "23", "--rho", "0.6", "--out-prefix", "blocks_poisson"]),
    ("sweep_blocks_trace", ["cli", "sweep-blocks", "--trace", "onoff.csv", "--blocks", "1,10,100",
                            "--reps", "3", "--seed", "2", "--rho", "0.6", "--out-prefix", "blocks_trace"]),
    ("sweep_blocks_gen", ["cli", "sweep-blocks", *ONOFF, "--cycles", "300", "--blocks", "1,10,100",
                          "--reps", "2", "--seed", "6", "--rho", "0.5", "--out-prefix", "blocks_gen"]),
    ("hurst", ["cli", "hurst", "onoff.csv", "--unit", "bytes", "-o", "hurst.csv"]),
    ("hurst_bin_width", ["cli", "hurst", "onoff.csv", "--bin-width", "0.01", "-o", "hurst_width.csv"]),
    ("hurst_levels", ["cli", "hurst", "onoff.csv", "--levels", "1,2,4,8,16", "-o", "hurst_levels.csv"]),
    ("tailfit", ["cli", "tailfit", "onoff.csv", "--ccdf-out", "ccdf.csv", "-o", "tailfit.csv"]),
    ("tailfit_sizes", ["cli", "tailfit", "text.txt", "--field", "sizes", "--lo", "100", "--hi", "1400",
                       "-o", "tailfit_sizes.csv"]),
    ("summarize_loose", ["cli", "summarize", "loose.txt", "-o", "summary_loose.csv"]),
    ("queue_loose_path", ["cli", "queue", "loose.txt", "--rho", "0.7", "--path-out", "loose_path.csv",
                          "-o", "queue_loose.csv"]),
    ("queue_noted_path", ["cli", "queue", "noted.txt", "--rho", "0.7", "--path-out", "noted_path.csv",
                          "-o", "queue_noted.csv"]),
    ("summarize_headed", ["cli", "summarize", "headed.txt", "-o", "summary_headed.csv"]),
    ("queue_headed_path", ["cli", "queue", "headed.txt", "--rho", "0.7", "--path-out", "headed_path.csv",
                           "-o", "queue_headed.csv"]),
    ("queue_unterminated_path", ["cli", "queue", "unterminated.csv", "--rho", "0.7",
                                 "--path-out", "unterminated_path.csv", "-o", "queue_unterminated.csv"]),
    # departures that tie with arrivals, a departure first at each tie,
    # and one busy period across both slices of the path's merge
    ("queue_ties_path", ["cli", "queue", "ties.txt", "--bandwidth", "4000", "--path-out", "ties_path.csv",
                         "-o", "queue_ties.csv"]),
    # total_bytes past 2**63 takes the exact sum
    ("summarize_long_sizes", ["cli", "summarize", "long_sizes.txt", "-o", "summary_long_sizes.csv"]),
    ("queue_long_sizes_path", ["cli", "queue", "long_sizes.txt", "--rho", "0.7",
                               "--path-out", "long_sizes_path.csv", "-o", "queue_long_sizes.csv"]),
    # writes 17-digit %d cells
    ("shuffle_long_sizes", ["cli", "shuffle", "long_sizes.txt", "--block-size", "100", "--seed", "3",
                            "-o", "long_sizes_shuffled.csv"]),
    ("summarize_kernel", ["cli", "summarize", "kernel.txt", "-o", "summary_kernel.csv"]),
    ("queue_kernel_path", ["cli", "queue", "kernel.txt", "--rho", "0.7", "--path-out", "kernel_path.csv",
                           "-o", "queue_kernel.csv"]),
    ("queue_out_of_domain", ["cli", "queue", "huge.txt", "--bandwidth", "1e-280", "--path-out", "huge_path.csv",
                             "-o", "queue_huge.csv"]),
    # the same trace at load 0.5: in the second slice the sojourns and the
    # service times span 50 binades, so their exact sums take a second
    # level before the plain sum
    ("queue_huge_rho", ["cli", "queue", "huge.txt", "--rho", "0.5", "-o", "queue_huge_rho.csv"]),
    ("summarize_kernel_long", ["cli", "summarize", "kernel_long.txt", "-o", "summary_kernel_long.csv"]),
    ("queue_kernel_long_path", ["cli", "queue", "kernel_long.txt", "--rho", "0.7",
                                "--path-out", "kernel_long_path.csv", "-o", "queue_kernel_long.csv"]),
    ("shuffle_kernel", ["cli", "shuffle", "kernel.txt", "--block-size", "10", "--seed", "12",
                        "-o", "kernel_shuffled.csv"]),
    # 150000 packets keep 10^4, 31623 and 10^5 of the sample ladder; text.txt's
    # 400 packets collapse both ladders to the trace length
    ("report_long", ["cli", "report", "long.csv", "--reps", "2", "--seed", "14", "--out-prefix", "report_long"]),
    ("report_text", ["cli", "report", "text.txt", "--seed", "15", "--out-prefix", "report_text"]),
    # one bandwidth, from --rho on the analysed packets, serves both sweeps
    ("report_text_rho", ["cli", "report", "text.txt", "--seed", "15", "--rho", "0.8",
                         "--out-prefix", "report_text_rho"]),
    # fails, writing nothing: evenly spaced arrivals give hurst a constant count series
    ("report_kernel_long", ["cli", "report", "kernel_long.txt", "--reps", "2", "--seed", "14",
                            "--out-prefix", "report_kernel_long"]),
    # the divergence commands and the script's flag-translating front to them
    ("diverge", ["cli", "diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--sizes", "100,1000,10000",
                 "--reps", "3", "--seed", "1", "--out-prefix", "diverge"]),
    ("diverge_capped", ["cli", "diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--xmax", "100",
                        "--sizes", "100,1000,10000", "--reps", "3", "--seed", "1", "--out-prefix", "diverge_capped"]),
    # prefixes longer than one 65536-term summation chunk, so the fluid
    # sums cross chunk boundaries
    ("diverge_long", ["cli", "diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5",
                      "--sizes", "1000,100000,300000", "--reps", "1", "--seed", "4", "--out-prefix", "diverge_long"]),
    # tail index 1.05: the widest-range area sums, over several chunks
    ("diverge_heavy", ["cli", "diverge", "--alpha", "1.05", "--m", "2", "--lambda", "0.5",
                       "--sizes", "1000,300000", "--reps", "2", "--seed", "6", "--out-prefix", "diverge_heavy"]),
    # capped prefixes of one cycle, one 65536-cycle run, into a second run
    # and past it, over 5 replications: more than the replication pool
    # takes at once on a machine of up to 3 cores, so its means come back
    # in order over several submissions
    ("diverge_pooled", ["cli", "diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--xmax", "1000",
                        "--sizes", "1,65536,65537,200001", "--reps", "5", "--seed", "8",
                        "--out-prefix", "diverge_pooled"]),
    # the largest lambda below 1: each silence exceeds its burst's rise by
    # one ulp of m in the ratio, the least the reordered model allows, over
    # prefixes that cross a 65536-cycle run
    ("diverge_boundary", ["cli", "diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.9999999999999999",
                          "--sizes", "100,65537,200000", "--reps", "2", "--seed", "9",
                          "--out-prefix", "diverge_boundary"]),
    # tail index 1.05 capped at 1000: many bursts at the cap, over several runs
    ("diverge_heavy_capped", ["cli", "diverge", "--alpha", "1.05", "--m", "2", "--lambda", "0.5", "--xmax", "1000",
                              "--sizes", "1000,65537,300000", "--reps", "2", "--seed", "10",
                              "--out-prefix", "diverge_heavy_capped"]),
    ("divergence", ["divergence_experiment.py", "--sizes", "100", "1000", "10000", "--reps", "3",
                    "--seed", "1", "--out", "divergence"]),
    ("divergence_capped", ["divergence_experiment.py", "--sizes", "100", "1000", "10000", "--reps", "3",
                           "--seed", "1", "--x-max", "100", "--out", "divergence_capped"]),
    ("divergence_long", ["divergence_experiment.py", "--sizes", "1000", "100000", "300000", "--reps", "1",
                         "--seed", "4", "--out", "divergence_long"]),
]


def run_commands(scripts: Path) -> None:
    """Write the input files that COMMANDS read besides the traces they
    generate, then run every command in-process, in the working
    directory: cli.main, or the main of the script of that name under
    scripts. Each command's exit status, stdout and stderr go to
    <name>.log beside its outputs."""
    from trafficlab import cli

    Path("text.txt").write_text(TEXT_TRACE)
    Path("kernel.txt").write_bytes(KERNEL_TRACE.encode())
    Path("kernel_long.txt").write_bytes(KERNEL_LONG_TRACE.encode())
    Path("huge.txt").write_text(HUGE_TRACE)
    Path("loose.txt").write_text(LOOSE_TRACE)
    Path("ties.txt").write_text(TIES_TRACE)
    Path("unterminated.csv").write_text(UNTERMINATED_TRACE)
    Path("noted.txt").write_text(NOTED_TRACE)
    Path("headed.txt").write_bytes(HEADED_TRACE.encode())
    Path("long_sizes.txt").write_text(LONG_SIZES_TRACE)
    Path("mixed.txt").write_text("0.5,100\n1.0,200\n1.5 300\n")
    for name, (head, *argv) in COMMANDS:
        run = cli.main if head == "cli" else runpy.run_path(str(scripts / head))["main"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = run(argv)
            except SystemExit as exc:  # argparse
                status = exc.code
        Path(f"{name}.log").write_text(f"exit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def digests(outdir: Path) -> dict[str, str]:
    """The SHA-256 of each file under outdir, keyed by its relative path."""
    return {str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def export(rev: str, tree: Path) -> str:
    """Write the files of git revision rev into the directory tree, and
    return rev's full commit id."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return sha


def differences(left: dict[str, str], right: dict[str, str]) -> tuple[int, list[str]]:
    """Files compared, and a line for each file that is missing on one
    side or differs, given the digests of the revision and the checkout."""
    names = sorted(left.keys() | right.keys())
    return len(names), [f"differs: {name}" if name in left and name in right
                        else f"only in {'checkout' if name in right else 'revision'}: {name}"
                        for name in names if left.get(name) != right.get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare the checkout against")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        tree, left, right = tmp / "tree", tmp / "revision", tmp / "checkout"
        for d in (tree, left, right):
            d.mkdir()
        sha = export(args.rev, tree)
        # each side in a fresh interpreter on its own package, with this
        # file's run_commands running that side's scripts
        code = "import sys, pathlib, compare_outputs; compare_outputs.run_commands(pathlib.Path(sys.argv[1]))"
        for side, outdir in ((tree, left), (REPO, right)):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(side / "src"), str(REPO / "scripts")]),
                   "PYTHONDONTWRITEBYTECODE": "1"}
            subprocess.run([sys.executable, "-c", code, str(side / "scripts")], cwd=outdir, env=env, check=True)
        count, diffs = differences(digests(left), digests(right))
    for line in diffs:
        print(line)
    print(f"{len(COMMANDS)} commands, {count} files compared against {sha[:12]}: {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
