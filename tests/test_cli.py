import json

import numpy as np
import pytest

import trafficlab as tl
from trafficlab import cli
from trafficlab.rng import substream


def run(*argv):
    return cli.main([str(a) for a in argv])


def first_line(path):
    return path.read_text().splitlines()[0]


def data_row(path):
    # row CSVs are: manifest comment, column comment, one data row
    lines = path.read_text().splitlines()
    return lines[2].split(",")


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
        s = tl.summarize(tl.load_trace(poisson_file))
        assert int(float(row[0])) == s.packet_count
        assert float(row[1]) == pytest.approx(s.duration)
        assert float(row[3]) == pytest.approx(s.mean_rate)

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert run("summarize", tmp_path / "nope.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_oversized_packet_size_fails_naming_the_line(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("0.0 99999999999999999999\n")
        assert run("summarize", p) == 1
        assert "error: line 1: packet size" in capsys.readouterr().err


class TestQueue:
    def test_stats_match_library(self, poisson_file, tmp_path):
        out = tmp_path / "q.csv"
        assert run("queue", poisson_file, "--bandwidth", "60000", "-o", out) == 0
        row = [float(v) for v in data_row(out)]
        stats, _ = tl.packet_fifo(tl.load_trace(poisson_file), 60000.0)
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

    def test_trace_and_generator_flags_conflict(self, poisson_file, tmp_path, capsys):
        rc = run("sweep-blocks", "--trace", poisson_file, "--model", "poisson",
                 "--rate", "500", "--n", "100", "--blocks", "1", "--reps", "2",
                 "--seed", "0", "--rho", "0.5", "--out-prefix", tmp_path / "x")
        assert rc == 1
        assert "not both" in capsys.readouterr().err


class TestIntegerLists:
    @pytest.mark.parametrize("argv, bad", [
        (["sweep-blocks", "--blocks", "1.5,10", "--seed", "0", "--out-prefix", "x"], "1.5"),
        (["sweep-samples", "--sizes", "50,2.5", "--seed", "0", "--out-prefix", "x"], "2.5"),
        (["hurst", "t.csv", "--levels", "1,2,4.5,8", "-o", "h.csv"], "4.5"),
    ])
    def test_fractional_value_rejected_by_name(self, capsys, argv, bad):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert f"'{bad}'" in capsys.readouterr().err

    def test_integral_forms_accepted(self):
        args = cli.build_parser().parse_args(
            ["sweep-blocks", "--blocks", "1e4,10.0,3", "--seed", "0", "--out-prefix", "x"])
        assert args.blocks == [10000, 10, 3]


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
        assert "CCDF points" in capsys.readouterr().err


class TestManifest:
    def test_digest_covers_parameters(self):
        a = cli.RunManifest(subcommand="gen", parameters={"seed": 1})
        b = cli.RunManifest(subcommand="gen", parameters={"seed": 2})
        assert a.digest() != b.digest()
        assert a.digest() == cli.RunManifest(subcommand="gen", parameters={"seed": 1}).digest()

    def test_written_digest_matches_recomputation(self, tmp_path):
        m = cli.RunManifest(subcommand="queue", parameters={"rho": 0.5}, outputs=["q.csv"])
        path = tmp_path / "m.json"
        m.write(path)
        body = json.loads(path.read_text())
        assert body["digest"] == m.digest()
