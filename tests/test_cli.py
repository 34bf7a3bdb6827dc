import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trafficlab as tl
from trafficlab import cli, experiments, synth
from trafficlab.rng import substream


def run(*argv):
    return cli.main([str(a) for a in argv])


def first_line(path):
    return path.read_text().splitlines()[0]


def data_row(path):
    # row CSVs are: manifest comment, column comment, one data row
    lines = path.read_text().splitlines()
    return lines[2].split(",")


ONOFF = ("--model", "onoff", "--alpha", "1.4", "--xmin", "0.05", "--m", "3", "--lambda", "0.5",
         "--cycles", "60", "--rate", "10000", "--packet-size", "100")

BOUNDED = ("gen", "--model", "onoff", "--alpha", "1.4", "--xmin", "0.05", "--m", "3",
           "--cycles", "60", "--rate", "10000", "--packet-size", "100", "--off-model", "bounded")


@pytest.fixture
def poisson_file(tmp_path):
    path = tmp_path / "poisson.csv"
    tl.save_trace(tl.generate_poisson(500.0, 100, 400, substream(1)), path)
    return path


class TestGen:
    def test_onoff_writes_trace_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = run(
            "gen", "--model", "onoff", "--alpha", "1.5", "--xmin", "0.05",
            "--m", "2", "--lambda", "0.5", "--cycles", "50", "--rate", "10000",
            "--packet-size", "100", "--off-model", "reordered",
            "--seed", "11", "-o", out,
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert first_line(out) == f"# manifest: {manifest['digest']}"
        assert manifest["subcommand"] == "gen"
        tr = tl.load_trace(out)
        assert tr.packet_count > 0

    def test_gen_rerun_is_byte_identical(self, tmp_path):
        args = (
            "gen", "--model", "poisson", "--rate", "300", "--n", "200",
            "--seed", "5", "-o", tmp_path / "p.csv",
        )
        assert run(*args) == 0
        blob1 = (tmp_path / "p.csv").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "p.csv").read_bytes() == blob1

    def test_poisson_needs_rate_and_count(self, tmp_path, capsys):
        rc = run("gen", "--model", "poisson", "--rate", "300", "--seed", "1",
                 "-o", tmp_path / "p.csv")
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_onoff_reports_missing_flags(self, tmp_path, capsys):
        rc = run("gen", "--model", "onoff", "--alpha", "1.5", "--cycles", "10",
                 "--rate", "1000", "--seed", "1", "-o", tmp_path / "t.csv")
        assert rc == 1
        assert "--m" in capsys.readouterr().err

    def test_onoff_without_lambda_names_the_flag(self, tmp_path, capsys):
        rc = run("gen", "--model", "onoff", "--alpha", "1.5", "--m", "2", "--cycles", "10",
                 "--rate", "1e6", "--seed", "1", "-o", tmp_path / "g.csv")
        assert rc == 1
        assert capsys.readouterr().err == "error: onoff model needs --lambda\n"
        assert not (tmp_path / "g.csv").exists()

    def test_bounded_model_matches_the_library_route(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(*BOUNDED, "--q", "2", "--seed", "12", "-o", out) == 0
        spec = tl.GeneratorSpec(m=3.0, tail=tl.HeavyTailSpec(1.4, 0.05), n_cycles=60,
                                off_model="bounded", q=2.0)
        trace, _ = tl.packetize(tl.generate_onoff(spec, substream(12)), 100, 10000.0)
        digest = json.loads((tmp_path / "b.csv.manifest.json").read_text())["digest"]
        tl.save_trace(trace, tmp_path / "lib.csv", comments=(f"manifest: {digest}",))
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (("--xmin", "nan"), "x_min must be positive and finite"),
        (("--xmin", "inf"), "x_min must be positive and finite"),
        (("--xmax", "nan"), "x_max must exceed x_min"),
        (("--off-model", "bounded", "--q", "nan"), "the bounded model needs a positive queue bound q"),
        (("--m", "inf"), "m must be finite"),
        (("--rate", "nan"), "server_rate must be positive and finite"),
        (("--rate", "inf"), "server_rate must be positive and finite"),
    ])
    def test_non_finite_onoff_parameter_named(self, tmp_path, capsys, flags, message):
        # later flags override the defaults in ONOFF
        assert run("gen", *ONOFF, *flags, "--seed", "1", "-o", tmp_path / "t.csv") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_poisson_rate_named(self, tmp_path, capsys, rate):
        # an infinite rate used to write every packet at t=0
        rc = run("gen", "--model", "poisson", "--rate", rate, "--n", "10", "--seed", "1",
                 "-o", tmp_path / "p.csv")
        assert rc == 1
        assert capsys.readouterr().err == "error: rate must be positive and finite\n"
        assert not (tmp_path / "p.csv").exists()

    def test_bounded_model_needs_q(self, tmp_path, capsys):
        assert run(*BOUNDED, "--seed", "12", "-o", tmp_path / "b.csv") == 1
        assert "queue bound q" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("model", [("--model", "poisson", "--rate", "100", "--n", "10"), ONOFF],
                             ids=["poisson", "onoff"])
    def test_packet_size_past_int64_is_refused(self, tmp_path, capsys, model):
        # later flags override the packet size in ONOFF
        rc = run("gen", *model, "--packet-size", "99999999999999999999", "--seed", "1", "-o", tmp_path / "p.csv")
        assert rc == 1
        assert capsys.readouterr().err == "error: packet_size must be <= 9223372036854775807 bytes\n"
        assert list(tmp_path.iterdir()) == []

    def test_on_periods_too_short_for_a_packet_are_noted(self, tmp_path, capsys):
        # a packet takes 0.5 ms at 2e6 bytes/s, and most bursts from 0.1 ms are shorter
        out = tmp_path / "t.csv"
        rc = run("gen", "--model", "onoff", "--alpha", "1.5", "--xmin", "0.0001", "--m", "2", "--lambda", "0.5",
                 "--packet-size", "1000", "--rate", "1e6", "--cycles", "50", "--seed", "1", "-o", out)
        assert rc == 0
        assert capsys.readouterr().err == "note: 44 of 50 on periods were too short to emit a packet\n"
        assert tl.load_trace(out).packet_count == 8


class TestSummarize:
    def test_stdout_row(self, poisson_file, capsys):
        assert run("summarize", poisson_file) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "packet_count,duration,total_bytes,mean_rate"
        cells = out[1].split(",")
        assert cells[0] == "400"
        assert int(cells[2]) == 400 * 100

    def test_csv_output_matches_library(self, poisson_file, tmp_path):
        out = tmp_path / "summary.csv"
        assert run("summarize", poisson_file, "-o", out) == 0
        row = data_row(out)
        trace = tl.load_trace(poisson_file)
        assert int(float(row[0])) == trace.packet_count
        assert float(row[1]) == pytest.approx(trace.duration)
        assert float(row[3]) == pytest.approx(trace.total_bytes / trace.duration)

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert run("summarize", tmp_path / "nope.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_oversized_packet_size_fails_naming_the_line(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("0.0 99999999999999999999\n")
        assert run("summarize", p) == 1
        assert "error: line 1: packet size" in capsys.readouterr().err

    def test_comment_in_any_encoding_is_skipped(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"# caf\xe9\n0.0 100\n0.5 200\n")
        assert run("summarize", p) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2,0.5,300,600.0"

    def test_undecodable_record_fails_naming_the_line(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"0.0 100\n0.5 2\xe900\n")
        assert run("summarize", p) == 1
        assert "error: line 2: record is not valid UTF-8" in capsys.readouterr().err

    def test_byte_total_past_int64_is_exact(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("0.0 4611686018427387904\n2.0 4611686018427387904\n")
        assert run("summarize", p) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == str(2**63)
        assert float(row[3]) == 2.0**62

    def test_csv_counts_are_exact_past_2_53(self, tmp_path, capsys):
        # a float would write the total as 9.007199254740994e+15
        p = tmp_path / "big.txt"
        p.write_text("0.0 4503599627370497\n2.0 4503599627370496\n")
        assert run("summarize", p) == 0
        stdout_row = capsys.readouterr().out.splitlines()[1]
        assert run("summarize", p, "-o", tmp_path / "s.csv") == 0
        assert ",".join(data_row(tmp_path / "s.csv")) == stdout_row == "2,2.0,9007199254740993,4503599627370496.0"


class TestQueue:
    def test_stats_match_library(self, poisson_file, tmp_path):
        out = tmp_path / "q.csv"
        assert run("queue", poisson_file, "--bandwidth", "60000", "-o", out) == 0
        row = [float(v) for v in data_row(out)]
        stats, _ = tl.packet_stats(tl.load_trace(poisson_file), 60000.0)
        assert row[0] == pytest.approx(stats.mean_queue, rel=1e-12)
        assert row[3] == pytest.approx(stats.utilization, rel=1e-12)

    def test_rho_derives_bandwidth_into_manifest(self, poisson_file, tmp_path):
        out = tmp_path / "q.csv"
        assert run("queue", poisson_file, "--rho", "0.5", "-o", out) == 0
        manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        want = tl.bandwidth_for_utilization(tl.load_trace(poisson_file), 0.5)
        assert manifest["parameters"]["derived_bandwidth"] == pytest.approx(want)

    def test_path_out_written_with_manifest_comment(self, poisson_file, tmp_path):
        out = tmp_path / "q.csv"
        path_out = tmp_path / "path.csv"
        assert run("queue", poisson_file, "--rho", "0.5", "-o", out,
                   "--path-out", path_out) == 0
        assert first_line(path_out).startswith("# manifest: ")

    def test_rate_arguments_are_exclusive(self, poisson_file, tmp_path, capsys):
        rc = run("queue", poisson_file, "--bandwidth", "100", "--rho", "0.5",
                 "-o", tmp_path / "q.csv")
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err
        rc = run("queue", poisson_file, "-o", tmp_path / "q.csv")
        assert rc == 1

    def test_zero_bandwidth_rejected(self, poisson_file, tmp_path, capsys):
        rc = run("queue", poisson_file, "--bandwidth", "0", "-o", tmp_path / "q.csv")
        assert rc == 1
        assert "bandwidth" in capsys.readouterr().err

    def test_invalid_rho_rejected(self, poisson_file, tmp_path):
        assert run("queue", poisson_file, "--rho", "1.5", "-o", tmp_path / "q.csv") == 1

    @pytest.mark.parametrize("bandwidth", ["nan", "inf"])
    def test_non_finite_bandwidth_rejected(self, tmp_path, capsys, bandwidth):
        # a one-packet trace is served in zero time at an infinite rate
        trace_path = tmp_path / "one.csv"
        tl.save_trace(tl.PacketTrace(np.array([0.0]), np.array([100])), trace_path)
        rc = run("queue", trace_path, "--bandwidth", bandwidth, "-o", tmp_path / "q.csv")
        assert rc == 1
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("bandwidth", ["1e-320", "1e-305"])
    def test_bandwidth_too_small_for_a_finite_horizon_named(self, poisson_file, tmp_path, capsys, bandwidth):
        # 1e-320 once gave a nan row after a numpy warning, 1e-305 an fsum OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("queue", poisson_file, "--bandwidth", bandwidth, "-o", tmp_path / "q.csv")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: bandwidth {bandwidth} is too small")
        assert not (tmp_path / "q.csv").exists()


class TestShuffle:
    def test_conserves_multisets(self, poisson_file, tmp_path):
        out = tmp_path / "shuffled.csv"
        assert run("shuffle", poisson_file, "--block-size", "16", "--seed", "3",
                   "-o", out) == 0
        a = tl.load_trace(poisson_file)
        b = tl.load_trace(out)
        assert b.packet_count == a.packet_count
        assert np.array_equal(np.sort(b.sizes), np.sort(a.sizes))

    def test_deterministic(self, poisson_file, tmp_path):
        out = tmp_path / "s.csv"
        args = ("shuffle", poisson_file, "--block-size", "8", "--seed", "9", "-o", out)
        assert run(*args) == 0
        blob = out.read_bytes()
        assert run(*args) == 0
        assert out.read_bytes() == blob

    def test_seed_is_required(self, poisson_file, tmp_path):
        with pytest.raises(SystemExit):
            run("shuffle", poisson_file, "--block-size", "8", "-o", tmp_path / "s.csv")

    def test_block_past_int64_is_one_block(self, poisson_file, tmp_path):
        rows = []
        for block in ("400", "99999999999999999999"):
            out = tmp_path / f"s{block}.csv"
            assert run("shuffle", poisson_file, "--block-size", block, "--seed", "3", "-o", out) == 0
            rows.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert rows[0] == rows[1]

    def test_sum_past_the_largest_float_prints_only_the_error(self, tmp_path):
        # run as a program, so a numpy warning would reach stderr as a user sees it
        p = tmp_path / "big.csv"
        p.write_text("0,1\n3e307,1\n1.7976931348623157e308,1\n")
        env = {**os.environ, "PYTHONPATH": str(Path(tl.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "trafficlab.cli", "shuffle", str(p), "--block-size", "1", "--seed", "0",
             "-o", str(tmp_path / "s.csv")],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: non-finite timestamp\n")


class TestSweeps:
    def test_sample_sweep_outputs(self, poisson_file, tmp_path):
        prefix = tmp_path / "ss"
        assert run(
            "sweep-samples", "--trace", poisson_file, "--sizes", "50,200",
            "--reps", "2", "--seed", "4", "--rho", "0.5", "--out-prefix", prefix,
        ) == 0
        csv_lines = (tmp_path / "ss.csv").read_text().splitlines()
        data = [l for l in csv_lines if not l.startswith("#")]
        assert len(data) == 2
        gp = (tmp_path / "ss.gp").read_text()
        assert "yerrorlines" in gp and "ss.csv" in gp
        assert (tmp_path / "ss.manifest.json").exists()

    def test_sample_sweep_rerun_is_byte_identical(self, poisson_file, tmp_path):
        prefix = tmp_path / "ss"
        args = ("sweep-samples", "--trace", poisson_file, "--sizes", "50",
                "--reps", "2", "--seed", "4", "--rho", "0.5", "--out-prefix", prefix)
        assert run(*args) == 0
        blob = (tmp_path / "ss.csv").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "ss.csv").read_bytes() == blob

    def test_single_point_sweep_is_valid(self, poisson_file, tmp_path):
        prefix = tmp_path / "one"
        assert run(
            "sweep-samples", "--trace", poisson_file, "--sizes", "100",
            "--reps", "3", "--seed", "0", "--bandwidth", "60000",
            "--out-prefix", prefix,
        ) == 0
        data = [l for l in (tmp_path / "one.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(data) == 1

    def test_oversized_sample_fails(self, poisson_file, tmp_path, capsys):
        rc = run("sweep-samples", "--trace", poisson_file, "--sizes", "100000",
                 "--reps", "2", "--seed", "0", "--rho", "0.5",
                 "--out-prefix", tmp_path / "bad")
        assert rc == 1
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command, points", [("sweep-samples", "--sizes"), ("sweep-blocks", "--blocks")])
    def test_onoff_sweep_without_lambda_names_the_flag(self, tmp_path, capsys, command, points):
        rc = run(command, "--model", "onoff", "--alpha", "1.5", "--m", "2", "--cycles", "10",
                 "--rate", "1e6", points, "1", "--reps", "1", "--seed", "1", "--rho", "0.5",
                 "--out-prefix", tmp_path / "s")
        assert rc == 1
        assert capsys.readouterr().err == "error: onoff model needs --lambda\n"
        assert not (tmp_path / "s.csv").exists()

    def test_block_sweep_from_generator_flags(self, tmp_path):
        prefix = tmp_path / "bs"
        assert run(
            "sweep-blocks", "--model", "poisson", "--rate", "500", "--n", "300",
            "--packet-size", "100", "--blocks", "1,30", "--reps", "2",
            "--seed", "6", "--rho", "0.5", "--out-prefix", prefix,
        ) == 0
        text = (tmp_path / "bs.csv").read_text()
        assert "# baseline_mean_queue:" in text
        assert "unshuffled" in (tmp_path / "bs.gp").read_text()

    def test_block_past_int64_sweeps_the_unshuffled_trace(self, poisson_file, tmp_path):
        prefix = tmp_path / "big"
        assert run("sweep-blocks", "--trace", poisson_file, "--blocks", "1,1e20", "--reps", "2",
                   "--seed", "0", "--rho", "0.5", "--out-prefix", prefix) == 0
        text = (tmp_path / "big.csv").read_text()
        baseline = float(text.split("# baseline_mean_queue: ")[1].split()[0])
        last = [l for l in text.splitlines() if not l.startswith("#")][-1].split(",")
        assert float(last[0]) == 1e20
        assert float(last[1]) == baseline and float(last[2]) == 0.0

    def test_block_past_the_largest_float_is_refused_before_any_replication(self, poisson_file, tmp_path, capsys,
                                                                             monkeypatch):
        simulated = []
        monkeypatch.setattr(experiments, "packet_fifo", lambda *args: simulated.append(args))
        rc = run("sweep-blocks", "--trace", poisson_file, "--blocks", "1,1e400", "--reps", "1",
                 "--seed", "1", "--rho", "0.5", "--out-prefix", tmp_path / "b")
        assert (rc, simulated) == (1, [])
        assert capsys.readouterr().err == f"error: block size {10**400} is past the largest float\n"
        assert not (tmp_path / "b.csv").exists()

    def test_bandwidth_too_small_for_a_finite_horizon_named(self, poisson_file, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("sweep-blocks", "--trace", poisson_file, "--blocks", "1,10", "--reps", "2",
                     "--seed", "0", "--bandwidth", "1e-320", "--out-prefix", tmp_path / "x")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bandwidth 1e-320 is too small")
        assert not (tmp_path / "x.csv").exists()

    def test_nan_bandwidth_rejected(self, poisson_file, tmp_path, capsys):
        rc = run("sweep-blocks", "--trace", poisson_file, "--blocks", "1,10", "--reps", "2",
                 "--seed", "0", "--bandwidth", "nan", "--out-prefix", tmp_path / "x")
        assert rc == 1
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--packet-size", "99999999999999999999"), "packet_size must be <= 9223372036854775807 bytes"),
        (("--rate", "0"), "server_rate must be positive and finite"),
    ])
    def test_onoff_sample_sweep_checks_packetization(self, tmp_path, capsys, flags, message):
        # exact-count traces bypass packetize, so the recipe itself is checked
        rc = run("sweep-samples", *ONOFF, *flags, "--sizes", "10", "--reps", "2", "--seed", "0",
                 "--out-prefix", tmp_path / "x")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [("gen", "-o", "s.csv"), ("sweep-samples", "--sizes", "100", "--reps", "1"),
                                         ("sweep-blocks", "--blocks", "1", "--reps", "1")], ids=lambda c: c[0])
    def test_a_recipe_that_cannot_emit_a_packet_is_refused_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                                         command):
        # bursts of at most 2e-9 s, far under one packet spacing of 0.5 s
        def draw(*args, **kwargs):
            raise AssertionError("cycles drawn")

        monkeypatch.setattr(cli, "generate_onoff", draw)
        monkeypatch.setattr(synth, "generate_onoff", draw)
        monkeypatch.chdir(tmp_path)
        rc = run(command[0], "--model", "onoff", "--alpha", "1.5", "--xmin", "1e-9", "--xmax", "2e-9", "--m", "2",
                 "--lambda", "0.5", "--packet-size", "1000", "--rate", "1e3", "--cycles", "10", *command[1:],
                 "--seed", "1", *(() if command[0] == "gen" else ("--out-prefix", "s")))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: no packets emitted; every on period is shorter than one packet spacing\n"
        assert list(tmp_path.iterdir()) == []

    def test_trace_and_generator_flags_conflict(self, poisson_file, tmp_path, capsys):
        rc = run("sweep-blocks", "--trace", poisson_file, "--model", "poisson",
                 "--rate", "500", "--n", "100", "--blocks", "1", "--reps", "2",
                 "--seed", "0", "--rho", "0.5", "--out-prefix", tmp_path / "x")
        assert rc == 1
        assert "not both" in capsys.readouterr().err

    def test_neither_trace_nor_model_is_named(self, tmp_path, capsys):
        rc = run("sweep-samples", "--sizes", "10", "--seed", "0", "--out-prefix", tmp_path / "x")
        assert rc == 1
        assert capsys.readouterr().err == "error: give a --trace file or generator flags with --model\n"
        assert list(tmp_path.iterdir()) == []


class TestIntegerLists:
    @pytest.mark.parametrize("argv, bad", [
        (["sweep-blocks", "--blocks", "1.5,10", "--seed", "0", "--out-prefix", "x"], "1.5"),
        (["sweep-samples", "--sizes", "50,2.5", "--seed", "0", "--out-prefix", "x"], "2.5"),
        (["hurst", "t.csv", "--levels", "1,2,4.5,8", "-o", "h.csv"], "4.5"),
        (["sweep-blocks", "--blocks", "1,10000000000000000000.5", "--seed", "0", "--out-prefix", "x"],
         "10000000000000000000.5"),
    ])
    def test_fractional_value_rejected_by_name(self, capsys, argv, bad):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert f"'{bad}'" in capsys.readouterr().err

    def test_text_that_is_no_number_is_refused_with_the_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            run("sweep-samples", "--sizes", "abc", "--seed", "0", "--out-prefix", tmp_path / "x")
        assert exit_.value.code == 2
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert capsys.readouterr().err == subparsers.choices["sweep-samples"].format_usage() + (
            "trafficlab sweep-samples: error: argument --sizes: expected a comma-separated integer list, got 'abc'\n")
        assert list(tmp_path.iterdir()) == []

    def test_integral_forms_accepted(self):
        args = cli.build_parser().parse_args(
            ["sweep-blocks", "--blocks", "1e4,10.0,3", "--seed", "0", "--out-prefix", "x"])
        assert args.blocks == [10000, 10, 3]

    def test_twenty_digit_value_is_read_exactly(self):
        args = cli.build_parser().parse_args(
            ["sweep-blocks", "--blocks", "10000000000000000001,+5,1_000", "--seed", "0", "--out-prefix", "x"])
        assert args.blocks == [10000000000000000001, 5, 1000]
        assert cli._int_list("9" * 4300) == [10**4300 - 1]

    @pytest.mark.parametrize("text", ["1e4300", "1e999999999"])
    def test_value_past_4300_digits_rejected_by_name(self, capsys, text):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep-blocks", "--blocks", f"1,{text}", "--seed", "0",
                                           "--out-prefix", "x"])
        assert f"'{text}' in '1,{text}' is not an integer of at most 4300 digits" in capsys.readouterr().err


class TestFlagBounds:
    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--model", "poisson", "--rate", "10", "--n", "5", "--seed", "-1", "-o", "t.csv"], "--seed"),
        (["shuffle", "t.csv", "--block-size", "2", "--seed", "-1", "-o", "s.csv"], "--seed"),
        (["sweep-blocks", "--blocks", "1", "--seed", "-1", "--out-prefix", "x"], "--seed"),
        (["sweep-blocks", "--blocks", "1", "--seed", "0", "--reps", "0", "--out-prefix", "x"], "--reps"),
        (["sweep-samples", "--sizes", "10", "--seed", "0", "--reps", "0", "--out-prefix", "x"], "--reps"),
        (["diverge", "--sizes", "10", "--seed", "-1", "--out-prefix", "x"], "--seed"),
        (["diverge", "--sizes", "10", "--seed", "0", "--reps", "0", "--out-prefix", "x"], "--reps"),
        (["shuffle", "t.csv", "--block-size", "0", "--seed", "0", "-o", "s.csv"], "--block-size"),
        (["gen", "--model", "onoff", "--cycles", "0", "--seed", "0", "-o", "t.csv"], "--cycles"),
        (["sweep-blocks", "--blocks", "1", "--cycles", "-3", "--seed", "0", "--out-prefix", "x"], "--cycles"),
        (["gen", "--model", "poisson", "--rate", "10", "--n", "0", "--seed", "0", "-o", "t.csv"], "--n"),
        (["sweep-samples", "--sizes", "10", "--n", "0", "--seed", "0", "--out-prefix", "x"], "--n"),
        (["sweep-blocks", "--blocks", "0,10", "--seed", "0", "--out-prefix", "x"], "--blocks"),
        (["sweep-samples", "--sizes", "0,10", "--seed", "0", "--out-prefix", "x"], "--sizes"),
        (["diverge", "--sizes", "10,-3", "--seed", "0", "--out-prefix", "x"], "--sizes"),
        (["hurst", "t.csv", "--levels", "0,1,2,4", "-o", "h.csv"], "--levels"),
        (["report", "t.csv", "--seed", "-1", "--out-prefix", "x"], "--seed"),
        (["report", "t.csv", "--seed", "0", "--reps", "0", "--out-prefix", "x"], "--reps"),
        (["sweep-samples", "--sizes", "10", "--packet-size", "0", "--seed", "0", "--out-prefix", "x"],
         "--packet-size"),
        (["gen", "--model", "onoff", "--packet-size", "-5", "--seed", "0", "-o", "t.csv"], "--packet-size"),
    ])
    def test_out_of_range_value_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(argv)
        assert exit_.value.code == 2
        low = 0 if flag == "--seed" else 1
        assert f"argument {flag}: must be >= {low}, got {argv[argv.index(flag) + 1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--model", "onoff", "--cycles", "1e2", "--seed", "0", "-o", "t.csv"], "--cycles"),
        (["gen", "--model", "poisson", "--n", "1e2", "--seed", "0", "-o", "t.csv"], "--n"),
        (["sweep-blocks", "--blocks", "1", "--seed", "0", "--reps", "1e2", "--out-prefix", "x"], "--reps"),
        (["shuffle", "t.csv", "--block-size", "2", "--seed", "1e2", "-o", "s.csv"], "--seed"),
        (["shuffle", "t.csv", "--block-size", "1e2", "--seed", "0", "-o", "s.csv"], "--block-size"),
        (["gen", "--model", "onoff", "--packet-size", "1e2", "--seed", "0", "-o", "t.csv"], "--packet-size"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_a_scalar_integer_is_read_as_the_lists_read_it(self, argv, flag):
        value = getattr(cli.build_parser().parse_args(argv), flag[2:].replace("-", "_"))
        assert type(value) is int and value == 100

    def test_non_integer_value_still_reads_invalid_int(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep-blocks", "--blocks", "1", "--seed", "x", "--out-prefix", "x"])
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1.5", "1e4300", "1e999999999", "nan"])
    def test_a_fraction_or_a_huge_scalar_reads_invalid_int(self, capsys, text):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep-blocks", "--blocks", "1", "--seed", text, "--out-prefix", "x"])
        assert f"argument --seed: invalid int value: '{text}'" in capsys.readouterr().err


def rows(path):
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.fixture(scope="module")
def divergence_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "divergence_experiment.py"
    spec = importlib.util.spec_from_file_location("divergence_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIVERGE = ("diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--reps", "3", "--seed", "4")


class TestDiverge:
    SIZES = [10, 200, 3000]

    @pytest.mark.parametrize("xmax", [None, 20.0], ids=["uncapped", "capped"])
    def test_rep_columns_equal_the_library_route(self, tmp_path, xmax):
        cap = () if xmax is None else ("--xmax", repr(xmax))
        assert run(*DIVERGE, *cap, "--sizes", "10,200,3000", "--out-prefix", tmp_path / "d") == 0
        tail = tl.HeavyTailSpec(1.5, 1.0, x_max=xmax)
        table = rows(tmp_path / "d.csv")
        for i in range(3):
            bursts = tl.sample_heavy_tail(tail, 1.0 - substream(4, i).random(3000))
            want = tl.prefix_mean_queue(tl.reorder_nonoverlap(bursts, 2.0, 0.5), self.SIZES)
            assert [(int(r[0]), float(r[4 + i])) for r in table] == want

    def test_summary_columns_aggregate_the_rep_columns(self, tmp_path):
        assert run(*DIVERGE, "--sizes", "10,200,3000", "--out-prefix", tmp_path / "d") == 0
        for row in rows(tmp_path / "d.csv"):
            reps = [float(c) for c in row[4:]]
            assert len(reps) == 3
            assert float(row[1]) == float(np.median(reps))
            assert (float(row[2]), float(row[3])) == tl.aggregate_replications(reps)

    def test_unsorted_sizes_give_sorted_rows(self, tmp_path):
        assert run(*DIVERGE, "--sizes", "3000,10,200", "--out-prefix", tmp_path / "u") == 0
        assert run(*DIVERGE, "--sizes", "10,200,3000", "--out-prefix", tmp_path / "s") == 0
        assert [int(r[0]) for r in rows(tmp_path / "u.csv")] == self.SIZES
        assert rows(tmp_path / "u.csv") == rows(tmp_path / "s.csv")

    @pytest.mark.parametrize("xmax", [None, "20"], ids=["uncapped", "capped"])
    def test_script_rows_equal_the_command_rows(self, tmp_path, divergence_script, xmax):
        cap = ([], []) if xmax is None else (["--x-max", xmax], ["--xmax", xmax])
        argv = ["--sizes", "3000", "10", "200", "--reps", "3", "--seed", "4"]
        assert divergence_script.main([*argv, *cap[0], "--out", str(tmp_path / "out")]) == 0
        assert run(*DIVERGE, *cap[1], "--sizes", "3000,10,200", "--out-prefix", tmp_path / "d") == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "divergence.csv", "divergence.gp", "divergence.manifest.json"]
        assert rows(tmp_path / "out" / "divergence.csv") == rows(tmp_path / "d.csv")

    @pytest.mark.parametrize("flag, value, low", [("--reps", "0", 1), ("--seed", "-1", 0)])
    def test_script_out_of_range_value_names_the_flag(self, tmp_path, capsys, divergence_script, flag, value, low):
        with pytest.raises(SystemExit) as exit_:
            divergence_script.main(["--sizes", "10", flag, value, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert f"argument {flag}: must be >= {low}, got {value}" in capsys.readouterr().err

    def test_missing_lambda_is_named(self, tmp_path, capsys):
        rc = run("diverge", "--alpha", "1.5", "--m", "2", "--sizes", "10", "--seed", "1",
                 "--out-prefix", tmp_path / "d")
        assert rc == 1
        assert capsys.readouterr().err == "error: onoff model needs --lambda\n"
        assert not (tmp_path / "d.csv").exists()


# 10**15 float64 values: 7.11 PiB, which no test allocates
HUGE = 10**15
OUT_OF_MEMORY = f"Unable to allocate 7.11 PiB for an array with shape ({HUGE},) and data type float64"


def out_of_memory(*args, **kwargs):
    raise MemoryError(OUT_OF_MEMORY)


class TestCountsPastMemory:
    """A count too large to allocate or to index ends in one error line,
    not a traceback, and no output."""

    DIVERGE_ONE = ("diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--seed", "1")

    def test_size_past_the_largest_array_is_named_before_any_replication(self, tmp_path, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(experiments, "generate_onoff", lambda *args: drawn.append(args))
        rc = run(*self.DIVERGE_ONE, "--sizes", "1,1e400", "--reps", "1", "--out-prefix", tmp_path / "d")
        assert (rc, drawn) == (1, [])
        assert capsys.readouterr().err == f"error: n_cycles {10**400} is past the largest array length\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_synthetic_sample_size_past_the_largest_array_is_named_before_any_replication(self, tmp_path, capsys,
                                                                                            monkeypatch):
        drawn = []
        monkeypatch.setattr(tl.SyntheticSource, "trace", lambda *args, **kwargs: drawn.append(args))
        monkeypatch.chdir(tmp_path)
        assert run("sweep-samples", *ONOFF, "--sizes", "10,1e30", "--reps", "1", "--seed", "1", "--out-prefix", "s") == 1
        assert drawn == []
        assert capsys.readouterr().err == f"error: sample size {10**30} is past the largest array length\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["gen", *ONOFF, "--cycles", "1e30", "--seed", "1", "-o", "g.csv"], "--cycles"),
        (["sweep-blocks", *ONOFF, "--cycles", "1e30", "--blocks", "1", "--seed", "1", "--out-prefix", "s"], "--cycles"),
        (["gen", "--model", "poisson", "--rate", "100", "--n", "1e30", "--seed", "1", "-o", "g.csv"], "--n"),
    ], ids=["gen-cycles", "sweep-blocks-cycles", "gen-n"])
    def test_an_array_length_past_the_largest_names_its_flag(self, tmp_path, capsys, monkeypatch, argv, flag):
        # later flags override the cycles in ONOFF
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            run(*argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"trafficlab {argv[0]}: error: argument {flag}: must be <= {sys.maxsize}, got {10**30}"
        assert list(tmp_path.iterdir()) == []

    def test_a_block_past_the_largest_array_is_one_block(self, tmp_path, monkeypatch):
        # a block size is no array length: one of 1e30 packets holds the whole trace
        monkeypatch.chdir(tmp_path)
        tl.save_trace(tl.generate_poisson(100.0, 100, 50, substream(1)), "t.csv")
        assert run("sweep-blocks", "--trace", "t.csv", "--blocks", "1e30", "--reps", "2", "--seed", "1",
                   "--rho", "0.5", "--out-prefix", "b") == 0

    def test_replications_past_the_largest_index(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tl.save_trace(tl.generate_poisson(100.0, 100, 50, substream(1)), "t.csv")
        loads = []
        monkeypatch.setattr(cli, "load_trace", loads.append)
        for argv in ([*self.DIVERGE_ONE, "--sizes", "1,10"],
                     ["sweep-samples", "--model", "poisson", "--rate", "100", "--n", "100", "--sizes", "10",
                      "--seed", "1", "--rho", "0.5"],
                     ["sweep-blocks", "--trace", "t.csv", "--blocks", "1,10", "--seed", "1", "--rho", "0.5"],
                     ["report", "t.csv", "--seed", "1"]):
            with pytest.raises(SystemExit) as exit_:
                run(*argv, "--reps", 10**20, "--out-prefix", "o")
            assert exit_.value.code == 2 and loads == []
            err = capsys.readouterr().err.splitlines()[-1]
            assert err == f"trafficlab {argv[0]}: error: argument --reps: must be <= {sys.maxsize}, got {10**20}"
            assert os.listdir() == ["t.csv"]

    @pytest.mark.parametrize("owner, name, argv", [
        (experiments, "generate_onoff", [*DIVERGE_ONE, "--sizes", f"1,{HUGE}", "--reps", "1", "--out-prefix", "d"]),
        (cli, "generate_poisson", ["gen", "--model", "poisson", "--rate", "100", "--n", HUGE, "--seed", "1",
                                   "-o", "g.csv"]),
        (cli, "generate_poisson", ["sweep-samples", "--model", "poisson", "--rate", "100", "--n", HUGE,
                                   "--sizes", "10", "--reps", "1", "--seed", "1", "--rho", "0.5", "--out-prefix", "s"]),
        (tl.SyntheticSource, "trace", ["sweep-samples", *ONOFF, "--sizes", HUGE, "--reps", "1", "--seed", "1",
                                       "--out-prefix", "s"]),
    ], ids=["diverge", "gen", "sweep-samples-poisson", "sweep-samples-onoff"])
    def test_an_array_too_large_to_allocate_is_one_error_line(self, tmp_path, capsys, monkeypatch, owner, name,
                                                              argv):
        monkeypatch.setattr(owner, name, out_of_memory)
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: {OUT_OF_MEMORY}\n"
        assert list(tmp_path.iterdir()) == []


# on periods of at least 1e16 s at 2e6 bytes/s: more than 2**64 packets of 1000 bytes each
TOO_MANY_PACKETS = ("--model", "onoff", "--alpha", "1.5", "--xmin", "1e16", "--m", "2", "--lambda", "0.5",
                    "--rate", "1e6", "--cycles", "10", "--seed", "1")
# the bounded model's flags but --xmin, --q and --rate, which each case sets
BOUNDED_RECIPE = ("--model", "onoff", "--alpha", "1.4", "--m", "2", "--lambda", "0.5", "--off-model", "bounded",
                  "--packet-size", "1000", "--cycles", "100", "--seed", "1")


REORDERED_OVERFLOW = ("error: bursts of up to 499226469439.61847 s and the silence ratio m/lam - 1 = 2e+300 "
                      "make silences past the largest float")


class TestOverflowingInputs:
    """Figures past the largest float or int64 end in one error line that
    names the cause, with no numpy warning and no output; byte counts past
    int64 are simply counted."""

    @pytest.mark.parametrize("argv, error", [
        (["diverge", "--alpha", "1.01", "--m", "2", "--lambda", "0.5", "--xmin", "1e300", "--sizes", "1000",
          "--reps", "1", "--seed", "1", "--out-prefix", "d"], "error: the cycles are too long: "),
        (["diverge", "--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--xmin", "1e200", "--sizes", "1000",
          "--reps", "2", "--seed", "1", "--out-prefix", "d"], "error: the cycles are too long: "),
        (["diverge", "--alpha", "1.01", "--m", "2", "--lambda", "0.5", "--xmin", "1e306", "--sizes", "1000",
          "--reps", "1", "--seed", "1", "--out-prefix", "d"], "error: x_min 1e+306 is too large for tail index 1.01: "),
        (["diverge", "--alpha", "1.5", "--m", "1e308", "--lambda", "0.5", "--sizes", "1000",
          "--reps", "1", "--seed", "1", "--out-prefix", "d"], "error: the silence ratio m/lambda_target - 1 is past "
                                                             "the largest float: m 1e+308, lambda_target 0.5"),
        (["gen", "--model", "onoff", "--alpha", "1.4", "--xmin", "1e307", "--m", "2", "--lambda", "0.5",
          "--packet-size", "1000", "--rate", "1e6", "--cycles", "100", "--seed", "1", "-o", "x.csv"],
         "error: x_min 1e+307 makes the silence mean 1.05e+308 too large: "),
        (["gen", "--model", "poisson", "--rate", "1e-320", "--packet-size", "100", "--n", "10", "--seed", "1",
          "-o", "p.csv"], "error: rate 1e-320 is too small for n 10: "),
        (["sweep-samples", "--model", "poisson", "--rate", "1e-308", "--packet-size", "100", "--n", "1000",
          "--sizes", "10", "--reps", "1", "--seed", "1", "--out-prefix", "s"],
         "error: rate 1e-308 is too small for n 1000: "),
        (["gen", *TOO_MANY_PACKETS, "-o", "x.csv"], "error: too many packets: "),
        (["sweep-samples", *TOO_MANY_PACKETS, "--sizes", "100", "--reps", "1", "--out-prefix", "s"],
         "error: too many packets: "),
        (["gen", *BOUNDED_RECIPE, "--xmin", "1", "--q", "1e-320", "--rate", "1e6", "-o", "b.csv"],
         "error: q 1e-320 and bursts of up to 16.795789162162876 s make bounded silences past the largest float"),
        (["gen", *BOUNDED_RECIPE, "--xmin", "1e160", "--q", "1", "--rate", "1e-200", "-o", "b.csv"],
         "error: q 1.0 and bursts of up to 1.6795789162162877e+161 s make bounded silences past the largest float"),
        (["gen", "--model", "onoff", "--off-model", "reordered", "--alpha", "1.01", "--xmin", "1e10", "--m", "1e300",
          "--lambda", "0.5", "--cycles", "30", "--rate", "1e6", "--seed", "1", "-o", "g.csv"], REORDERED_OVERFLOW),
        (["diverge", "--alpha", "1.01", "--m", "1e300", "--lambda", "0.5", "--xmin", "1e10", "--sizes", "30",
          "--reps", "1", "--seed", "1", "--out-prefix", "d"], REORDERED_OVERFLOW),
        (["gen", "--model", "onoff", "--alpha", "1.5", "--xmin", "1", "--m", "2", "--lambda", "0.5",
          "--packet-size", "1000", "--rate", "1e308", "--cycles", "5", "--seed", "1", "-o", "g.csv"],
         "error: m * server_rate is past the largest float: m 2.0, server_rate 1e+308"),
        (["sweep-blocks", "--model", "onoff", "--alpha", "1.5", "--xmin", "1", "--m", "1e300", "--lambda", "0.5",
          "--rate", "1e10", "--cycles", "5", "--seed", "1", "--blocks", "1", "--reps", "1", "--rho", "0.5",
          "--out-prefix", "s"], "error: m * server_rate is past the largest float: m 1e+300, server_rate 10000000000.0"),
        (["hurst", "big.csv", "--unit", "bytes", "-o", "h.csv"], None),
    ], ids=["diverge-inf-area", "diverge-nan-std", "diverge-inf-draw", "diverge-inf-silence-ratio",
            "gen-inf-silence", "gen-poisson-tiny-rate", "sweep-samples-poisson-tiny-rate", "gen",
            "sweep-samples-onoff", "gen-bounded-tiny-q", "gen-bounded-huge-burst", "gen-reordered-huge-ratio",
            "diverge-reordered-huge-ratio", "gen-inf-peak-rate",
            "sweep-blocks-inf-peak-rate", "hurst-bytes"])
    def test_overflowing_inputs_fail_cleanly(self, tmp_path, capsys, monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        if error is None:
            # the default 4096 bins hold 3 packets of 2**62 to 2**63 bytes each, more than 2**63
            n = 3 * 4096 + 1
            sizes = np.random.default_rng(0).integers(2**62, 2**63 - 1, n)
            tl.save_trace(tl.PacketTrace(np.arange(n, dtype=float), sizes), "big.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(*argv)
        err = capsys.readouterr().err
        if error is None:
            assert (rc, err) == (0, "")
            return
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith(error)
        assert os.listdir() == []


    @pytest.mark.parametrize("argv", [
        ["queue", "t.txt", "-o", "q.csv"],
        ["sweep-blocks", "--trace", "t.txt", "--blocks", "1", "--reps", "1", "--seed", "1", "--out-prefix", "s"],
        ["report", "t.txt", "--seed", "1", "--out-prefix", "r"],
    ], ids=["queue", "sweep-blocks", "report"])
    @pytest.mark.parametrize("span, rho", [(1e-300, "1e-30"), (1.0, "1e-320")], ids=["span-underflows", "inf-bandwidth"])
    def test_a_rho_too_small_for_the_trace_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv, span, rho):
        # duration * rho underflows to 0, or total_bytes over it passes the largest float
        monkeypatch.chdir(tmp_path)
        Path("t.txt").write_text(f"0 100\n{span!r} 100\n{2 * span!r} 100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(*argv, "--rho", rho)
        assert (rc, capsys.readouterr().err) == (1, f"error: rho {float(rho)!r} is too small for this trace: the "
                                                    "bandwidth total_bytes / (duration * rho) is past the largest float\n")
        assert os.listdir() == ["t.txt"]


class TestHurstCommand:
    def test_writes_estimate(self, tmp_path, capsys):
        trace_path = tmp_path / "p.csv"
        tl.save_trace(tl.generate_poisson(2000.0, 100, 20000, substream(2)), trace_path)
        out = tmp_path / "h.csv"
        assert run("hurst", trace_path, "-o", out) == 0
        assert "H =" in capsys.readouterr().out
        h = float(data_row(out)[0])
        assert 0.0 <= h <= 1.0
        manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        assert manifest["parameters"]["derived_bin_width"] > 0

    def test_constant_spacing_is_flagged_degenerate(self, tmp_path, capsys):
        # one packet per complete bin; the trailing fraction is dropped,
        # so the count series is constant and the fit must refuse
        ts = np.append(np.arange(256, dtype=float), 256.25)
        trace_path = tmp_path / "c.csv"
        tl.save_trace(tl.PacketTrace(ts, np.full(257, 100)), trace_path)
        rc = run("hurst", trace_path, "--bin-width", "1.0", "-o", tmp_path / "h.csv")
        assert rc == 1
        assert "zero variance" in capsys.readouterr().err

    @pytest.mark.parametrize("times", [[0.0], [2.5, 2.5, 2.5]], ids=["one_packet", "equal_timestamps"])
    def test_zero_duration_names_the_duration(self, tmp_path, capsys, times):
        trace_path = tmp_path / "z.csv"
        trace_path.write_text("".join(f"{t},100\n" for t in times))
        rc = run("hurst", trace_path, "-o", tmp_path / "h.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: trace duration is zero: every packet arrives at once, so there are no bins\n"
        assert not (tmp_path / "h.csv").exists()

    def test_subnormal_duration_asks_for_a_bin_width(self, tmp_path, capsys):
        # duration / 4096 rounds to 0.0, so the default width cannot bin it
        trace_path = tmp_path / "tiny.csv"
        trace_path.write_text("0,1\n5e-324,1\n")
        rc = run("hurst", trace_path, "-o", tmp_path / "h.csv")
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: trace duration 5e-324 s is too short for the default 4096 bins: give --bin-width\n")
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("width", ["1e-12", "1e-300"])
    def test_bin_width_below_the_resolution_names_the_bin_count(self, tmp_path, capsys, width):
        # 2000 packets over about 2 s: 1e-12 once tried to allocate 14 TiB
        # of counts, 1e-300 overflowed the cast of the bin count
        trace_path = tmp_path / "p.csv"
        tl.save_trace(tl.generate_poisson(1000.0, 100, 2000, substream(1)), trace_path)
        rc = run("hurst", trace_path, "--bin-width", width, "-o", tmp_path / "h.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bin_width {width} cuts the ") and "bins, more than 2**28" in err
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("width", ["0", "nan"])
    def test_bad_bin_width_rejected_not_replaced(self, poisson_file, tmp_path, capsys, width):
        rc = run("hurst", poisson_file, "--bin-width", width, "-o", tmp_path / "h.csv")
        assert rc == 1
        assert "bin_width must be positive" in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()


class TestTailfitCommand:
    def test_gap_fit_with_ccdf_dump(self, tmp_path):
        trace_path = tmp_path / "p.csv"
        tl.save_trace(tl.generate_poisson(500.0, 100, 5000, substream(3)), trace_path)
        out = tmp_path / "fit.csv"
        ccdf = tmp_path / "ccdf.csv"
        assert run("tailfit", trace_path, "-o", out, "--ccdf-out", ccdf) == 0
        alpha = float(data_row(out)[0])
        assert np.isfinite(alpha)
        rows = [l for l in ccdf.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) > 100

    def test_ccdf_cells_are_plain_floats(self, poisson_file, tmp_path):
        ccdf = tmp_path / "ccdf.csv"
        assert run("tailfit", poisson_file, "-o", tmp_path / "fit.csv", "--ccdf-out", ccdf) == 0
        rows = [l.split(",") for l in ccdf.read_text().splitlines() if not l.startswith("#")]
        xs, cc = tl.estimators.empirical_ccdf(np.diff(tl.load_trace(poisson_file).timestamps))
        assert [float(x) for x, _ in rows] == xs.tolist()
        assert [float(c) for _, c in rows] == cc.tolist()

    def test_constant_sizes_rejected(self, poisson_file, tmp_path, capsys):
        # every packet is 1000 bytes, so the derived quantile range collapses
        rc = run("tailfit", poisson_file, "--field", "sizes", "-o", tmp_path / "f.csv")
        assert rc == 1
        assert "fit_range" in capsys.readouterr().err
        # an explicit range fails too: a constant sample has no tail at all
        rc = run(
            "tailfit", poisson_file, "--field", "sizes",
            "--lo", "500", "--hi", "2000", "-o", tmp_path / "f.csv",
        )
        assert rc == 1
        assert "all samples are equal" in capsys.readouterr().err

    def test_one_timestamp_leaves_no_gap_to_fit(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        tl.save_trace(tl.PacketTrace(np.full(5, 2.0), np.full(5, 100)), trace)
        rc = run("tailfit", trace, "-o", tmp_path / "f.csv")
        assert rc == 1
        assert capsys.readouterr().err == "error: no usable samples in the trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_collapsed_default_range_names_its_cause(self, poisson_file, tmp_path, capsys):
        # no range was given, so the error names the default edges and why
        # they meet, not the 0 < lo < hi rule
        rc = run("tailfit", poisson_file, "--field", "sizes", "-o", tmp_path / "f.csv")
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: fit_range [100, 100] is empty, with default --lo the median and --hi the"
            " 99.9th percentile: all samples are equal\n")
        rc = run("tailfit", poisson_file, "--field", "sizes", "--hi", "50", "-o", tmp_path / "f.csv")
        assert rc == 1
        assert "empty, with default --lo the median: all samples are equal" in capsys.readouterr().err
        # one size in 2000 differs: the edges still meet, and only flags can help
        trace = tmp_path / "q.csv"
        sizes = np.full(2000, 100)
        sizes[7] = 1500
        tl.save_trace(tl.PacketTrace(np.arange(2000) / 100.0, sizes), trace)
        assert run("tailfit", trace, "--field", "sizes", "-o", tmp_path / "f.csv") == 1
        assert capsys.readouterr().err.endswith("99.9th percentile: set --lo and --hi\n")
        assert not (tmp_path / "f.csv").exists()


GEN_KEYS = {"model", "alpha", "xmin", "xmax", "m", "lam", "cycles", "packet_size", "rate", "off_model", "q", "n"}
SWEEP_KEYS = GEN_KEYS | {"trace", "reps", "seed", "bandwidth", "rho", "out_prefix"}
TRACE = object()  # stands for the input trace in WRITERS

# every command that writes files: its arguments, its outputs in manifest
# order, where its manifest goes, and the exact parameter keys the manifest
# records (a regrouped flag that added or dropped a key would change every digest)
WRITERS = {
    "gen": (["--model", "poisson", "--rate", "500", "--n", "50", "--seed", "1", "-o", "t.csv"],
            ["t.csv"], "t.csv.manifest.json", GEN_KEYS | {"seed", "output", "trace"}),
    "summarize": ([TRACE, "-o", "s.csv"], ["s.csv"], "s.csv.manifest.json", {"trace", "output"}),
    "queue": ([TRACE, "--rho", "0.5", "--path-out", "p.csv", "-o", "q.csv"], ["q.csv", "p.csv"],
              "q.csv.manifest.json",
              {"trace", "bandwidth", "rho", "path_out", "output", "derived_bandwidth"}),
    "shuffle": ([TRACE, "--block-size", "8", "--seed", "1", "-o", "s.csv"], ["s.csv"], "s.csv.manifest.json",
                {"trace", "block_size", "seed", "output"}),
    "sweep-samples": (["--trace", TRACE, "--sizes", "50,100", "--reps", "2", "--seed", "1", "--rho", "0.5",
                       "--out-prefix", "sw"], ["sw.csv", "sw.gp"], "sw.manifest.json", SWEEP_KEYS | {"sizes"}),
    "sweep-blocks": (["--trace", TRACE, "--blocks", "1,10", "--reps", "2", "--seed", "1", "--rho", "0.5",
                      "--out-prefix", "sw"], ["sw.csv", "sw.gp"], "sw.manifest.json", SWEEP_KEYS | {"blocks"}),
    "hurst": ([TRACE, "-o", "h.csv"], ["h.csv"], "h.csv.manifest.json",
              {"trace", "bin_width", "unit", "levels", "output", "derived_bin_width"}),
    "diverge": (["--alpha", "1.5", "--m", "2", "--lambda", "0.5", "--sizes", "10,100", "--reps", "2", "--seed", "1",
                 "--out-prefix", "dv"], ["dv.csv", "dv.gp"], "dv.manifest.json",
                {"alpha", "xmin", "xmax", "m", "lam", "sizes", "reps", "seed", "out_prefix"}),
    "tailfit": ([TRACE, "--ccdf-out", "c.csv", "-o", "f.csv"], ["f.csv", "c.csv"], "f.csv.manifest.json",
                {"trace", "field", "lo", "hi", "ccdf_out", "output", "derived_fit_range"}),
    "report": ([TRACE, "--reps", "2", "--seed", "1", "--out-prefix", "r"],
               ["r.summary.csv", "r.hurst.csv", "r.samples.csv", "r.samples.gp", "r.blocks.csv", "r.blocks.gp"],
               "r.manifest.json", {"trace", "seed", "reps", "out_prefix", "rho", "derived_bin_width", "derived_packets"}),
}


def manifest_digest(body: dict) -> str:
    """The oracle of a manifest's digest: the SHA-256 of its body, less the
    digest, as sorted compact JSON."""
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def manifest_text(body: dict) -> bytes:
    """The bytes of a manifest file holding body and its digest."""
    return (json.dumps({**body, "digest": manifest_digest(body)}, sort_keys=True, indent=2) + "\n").encode()


def write_manifest(tmp_path, name: str, **params) -> tuple[str, dict]:
    """The comment cli._manifest yields for a run of subcommand x with
    these parameters, and the manifest it writes to <name>.manifest.json."""
    args = argparse.Namespace(subcommand="x", func=None, out_prefix=str(tmp_path / name), **params)
    with cli._manifest(args, str(tmp_path / f"{name}.csv"), inputs={}) as comment:
        pass
    return comment, json.loads((tmp_path / f"{name}.manifest.json").read_text())


class TestManifest:
    @pytest.mark.parametrize("subcommand", sorted(WRITERS))
    def test_every_output_names_its_manifest(self, poisson_file, tmp_path, monkeypatch, subcommand):
        monkeypatch.chdir(tmp_path)
        argv, outputs, manifest_path, keys = WRITERS[subcommand]
        assert run(subcommand, *[poisson_file if a is TRACE else a for a in argv]) == 0
        body = json.loads((tmp_path / manifest_path).read_text())
        digest = body.pop("digest")
        assert manifest_digest(body) == digest
        assert set(body) == {"subcommand", "parameters", "inputs", "outputs", "tool", "version"}
        assert (body["subcommand"], body["tool"], body["version"]) == (subcommand, "trafficlab", tl.__version__)
        assert body["outputs"] == outputs
        assert set(body["parameters"]) == keys
        for name in outputs:
            assert first_line(tmp_path / name) == f"# manifest: {digest}"

    @pytest.mark.parametrize("subcommand", ["summarize", "queue", "hurst", "tailfit", "shuffle", "report",
                                            "sweep-blocks"])
    def test_the_input_is_read_once_and_its_digest_names_those_bytes(self, poisson_file, tmp_path, monkeypatch,
                                                                      subcommand):
        monkeypatch.chdir(tmp_path)
        argv, _, manifest_path, _ = WRITERS[subcommand]
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert run(subcommand, *[poisson_file if a is TRACE else a for a in argv]) == 0
        monkeypatch.setattr("builtins.open", real_open)
        assert opened.count(str(poisson_file)) == 1

        written = (tmp_path / manifest_path).read_bytes()
        body = json.loads(written)
        inputs = {str(poisson_file): hashlib.sha256(poisson_file.read_bytes()).hexdigest()}
        assert body["inputs"] == inputs
        # the bytes of a manifest written with a separate hash of the file
        del body["digest"]
        assert written == manifest_text({**body, "inputs": inputs})

    @pytest.mark.parametrize("subcommand", sorted(WRITERS))
    def test_every_output_is_utf8_with_lf_line_ends(self, poisson_file, tmp_path, monkeypatch, subcommand):
        monkeypatch.chdir(tmp_path)
        argv, outputs, manifest_path, _ = WRITERS[subcommand]
        written = {}
        real_open = open

        def recording_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                written[str(file)] = mode
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        assert run(subcommand, *[poisson_file if a is TRACE else a for a in argv]) == 0
        monkeypatch.setattr("builtins.open", real_open)
        assert set(written) == {*outputs, manifest_path}
        assert set(written.values()) == {"wb"}

    def test_digest_covers_parameters(self, tmp_path):
        a, _ = write_manifest(tmp_path, "a", seed=1)
        b, _ = write_manifest(tmp_path, "b", seed=2)
        assert a != b
        # another out_prefix and output, so the same seed gives another digest
        assert a != write_manifest(tmp_path, "c", seed=1)[0]
        assert a == write_manifest(tmp_path, "a", seed=1)[0]

    def test_inputs_are_keyed_by_the_path_as_typed(self, poisson_file, tmp_path, monkeypatch):
        # parameters record the typed path, so inputs use it as the key;
        # the digest of the bytes is the same whichever spelling was typed
        monkeypatch.chdir(tmp_path)
        manifests = []
        for spelling, out in (("poisson.csv", "a.csv"), ("./poisson.csv", "b.csv")):
            assert run("summarize", spelling, "-o", out) == 0
            manifests.append(json.loads((tmp_path / f"{out}.manifest.json").read_text()))
        assert [list(m["inputs"]) for m in manifests] == [["poisson.csv"], ["./poisson.csv"]]
        assert [m["parameters"]["trace"] for m in manifests] == ["poisson.csv", "./poisson.csv"]
        digests = [m["inputs"][m["parameters"]["trace"]] for m in manifests]
        assert digests[0] == digests[1] == hashlib.sha256(poisson_file.read_bytes()).hexdigest()

    def test_written_digest_matches_recomputation(self, tmp_path):
        comment, body = write_manifest(tmp_path, "q", rho=0.5, levels=(1, 2))
        digest = body.pop("digest")
        assert comment == f"manifest: {digest}"
        assert digest == manifest_digest(body)
        assert body["parameters"] == {"rho": 0.5, "levels": [1, 2], "out_prefix": str(tmp_path / "q")}
        assert (tmp_path / "q.manifest.json").read_bytes() == manifest_text(body)

    @pytest.mark.parametrize(
        "argv, manifest_path, inf_keys",
        [
            (["tailfit", TRACE, "--hi", "inf", "-o", "f.csv"], "f.csv.manifest.json", {"hi"}),
            (["gen", *ONOFF, "--xmax", "inf", "--seed", "1", "-o", "t.csv"], "t.csv.manifest.json", {"xmax"}),
            ([*BOUNDED, "--q", "inf", "--seed", "1", "-o", "b.csv"], "b.csv.manifest.json", {"q"}),
        ],
    )
    def test_non_finite_parameters_are_strict_json(self, poisson_file, tmp_path, monkeypatch,
                                                    argv, manifest_path, inf_keys):
        monkeypatch.chdir(tmp_path)
        assert run(*[poisson_file if a is TRACE else a for a in argv]) == 0

        def reject(token):
            raise ValueError(f"bare {token} in a manifest")

        body = json.loads((tmp_path / manifest_path).read_text(), parse_constant=reject)
        assert {key for key, v in body["parameters"].items() if v == "inf"} == inf_keys
        digest = body.pop("digest")
        assert manifest_digest(body) == digest
        assert first_line(tmp_path / argv[-1]) == f"# manifest: {digest}"

    def test_non_finite_floats_are_spelled_as_strings(self, tmp_path):
        comment, body = write_manifest(tmp_path, "m", a=[math.inf, -math.inf, math.nan, 1.5], b=None)
        same, _ = write_manifest(tmp_path, "m", a=["inf", "-inf", "nan", 1.5], b=None)
        assert comment == same
        assert body["parameters"]["a"] == ["inf", "-inf", "nan", 1.5]


@pytest.fixture(scope="module")
def standin_file(tmp_path_factory):
    """A seeded on/off stand-in of about 60k packets, written as Bellcore-style "%.6f bytes" lines."""
    spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.4, 0.01), n_cycles=2000, lambda_target=0.5)
    times = tl.SyntheticSource(spec=spec, packet_size=1000, server_rate=1e6).trace(substream(3), n_packets=60_000)
    sizes = substream(3, 1).integers(64, 1519, times.packet_count)
    path = tmp_path_factory.mktemp("standin") / "standin.txt"
    with open(path, "w") as fh:
        fh.write("# seeded stand-in trace: seconds bytes\n")
        fh.writelines(f"{t:.6f} {s}\n" for t, s in zip(times.timestamps.tolist(), sizes.tolist()))
    return path


REPORT_FILES = ["r.summary.csv", "r.hurst.csv", "r.samples.csv", "r.samples.gp", "r.blocks.csv", "r.blocks.gp"]


class TestReport:
    def test_rows_equal_the_four_commands(self, standin_file, tmp_path, monkeypatch):
        # relative names, so the gnuplot scripts name the same CSVs on both sides
        for side in ("report", "commands"):
            (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / "report")
        assert run("report", standin_file, "--reps", "2", "--seed", "0", "--out-prefix", "r") == 0
        monkeypatch.chdir(tmp_path / "commands")
        sweep = ("--trace", standin_file, "--reps", "2", "--seed", "0", "--rho", "0.46")
        assert run("summarize", standin_file, "-o", "r.summary.csv") == 0
        assert run("hurst", standin_file, "-o", "r.hurst.csv") == 0
        assert run("sweep-samples", *sweep, "--sizes", "10000,31623,60000", "--out-prefix", "r.samples") == 0
        assert run("sweep-blocks", *sweep, "--blocks", "1,10,100,1000,10000", "--out-prefix", "r.blocks") == 0
        for name in REPORT_FILES:
            report, commands = ((tmp_path / side / name).read_text().splitlines() for side in ("report", "commands"))
            assert report[0].startswith("# manifest: ") and commands[0].startswith("# manifest: ")
            assert report[1:] == commands[1:], name

    def test_one_manifest_lists_every_output(self, standin_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("report", standin_file, "--reps", "2", "--seed", "0", "--out-prefix", "r") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*REPORT_FILES, "r.manifest.json"])
        body = json.loads((tmp_path / "r.manifest.json").read_text())
        assert body["outputs"] == REPORT_FILES
        assert body["parameters"]["derived_packets"] == 60_000
        assert body["inputs"] == {str(standin_file): hashlib.sha256(standin_file.read_bytes()).hexdigest()}

    def test_loads_the_trace_once(self, standin_file, tmp_path, monkeypatch):
        loads = []

        def counting_load(source):
            pieces = []
            loads.append(pieces)

            class Recorded:
                def read(self, size):
                    pieces.append(source.read(size))
                    return pieces[-1]

            return tl.load_trace(Recorded())

        monkeypatch.setattr(cli, "load_trace", counting_load)
        assert run("report", standin_file, "--reps", "2", "--seed", "0", "--out-prefix", tmp_path / "r") == 0
        data = standin_file.read_bytes()
        assert len(loads) == 1 and b"".join(loads[0]) == data
        inputs = json.loads((tmp_path / "r.manifest.json").read_text())["inputs"]
        assert inputs == {str(standin_file): hashlib.sha256(data).hexdigest()}

    def test_analyses_the_first_packets_up_to_the_ladder_top(self, standin_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SAMPLE_LADDER", (10_000, 20_000))
        assert run("report", standin_file, "--reps", "2", "--seed", "0", "--out-prefix", tmp_path / "r") == 0
        first = tl.window(tl.load_trace(standin_file), 0, 20_000)
        assert data_row(tmp_path / "r.summary.csv") == ["20000", repr(first.duration), str(first.total_bytes),
                                                         repr(first.total_bytes / first.duration)]
        assert [r[0] for r in rows(tmp_path / "r.samples.csv")] == ["10000.0", "20000.0"]
        assert json.loads((tmp_path / "r.manifest.json").read_text())["parameters"]["derived_packets"] == 20_000

    @pytest.mark.parametrize("text, message", [
        # report takes no --bin-width, so its error offers none
        ("0,1\n5e-324,1\n", "trace duration 5e-324 s is too short for the default 4096 bins"),
        ("2.5,100\n2.5,100\n", "trace duration is zero: every packet arrives at once, so there are no bins"),
    ], ids=["too_short", "zero_duration"])
    def test_unbinnable_trace_fails_before_writing(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_text(text)
        assert run("report", "t.csv", "--seed", "0", "--out-prefix", "r") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
