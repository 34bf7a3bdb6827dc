"""scripts/bench_pairs.py's aggregation, on canned perfbench/run.py output."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402

BETTER = {"wall_s": "lower", "items_per_s": "higher", "cpu_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}
BOUNDS = {"wall_s": 0.25, "items_per_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.15, "setup_s": 0.25}
ENV = {"git_sha": None, "source_sha256": "ab" * 32, "python": "3.11.7", "nproc": 2,
       "cpu_model": "Intel(R) Xeon(R) Processor", "loadavg": [0.5, 0.6, 0.7]}


def run_output(wall, items, cpu, peak, setup, attempted=10, failed=0):
    """The two JSON lines run.py prints last."""
    record = {"perfbench": {"workload": "trace_pipeline_1m", "seed": 1, "seconds": 12.0, "trace": 0,
                            "size": "full", "env": ENV, "numpy": "2.4.6", "setup_s": [setup] * 5,
                            "op_walls": [wall] * attempted, "failures": []}}
    units = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
    values = dict(zip(units, (wall, items, cpu, peak, setup)))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}}
    return json.dumps(record) + "\n" + json.dumps(result) + "\n"


def traced_output(load_calls, failed=0):
    """The two JSON lines of a --trace 1 run: per-layer metrics, calls among them."""
    record = {"perfbench": {"workload": "trace_pipeline_1m", "seed": 11, "seconds": 12.0, "trace": 1,
                            "size": "full", "env": ENV, "numpy": "2.4.6", "setup_s": [1.0] * 5,
                            "op_walls": [1.0] * 8, "failures": []}}
    metrics = {"cli.main.calls": (5.0, "count"), "cli.main.self_s": (0.01, "s"),
               "traces.load_trace.calls": (load_calls, "count"), "traces.load_trace.self_s": (0.3, "s"),
               "traces.load_trace.lines": (5e6, "lines"), "harness.traced_ops": (4.0, "count")}
    result = {"correct": failed == 0, "attempted": 8, "failed": failed,
              "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}}
    return json.dumps(record) + "\n" + json.dumps(result) + "\n"


REV = run_output(1.0, 8e6, 1.4, 210.0, 1.0)
CHECKOUT = run_output(0.85, 9.4e6, 1.2, 210.0, 1.1, attempted=12)


def test_a_run_is_read_from_its_last_two_lines():
    run = bench_pairs.parse_run("note: a line before\n" + REV)
    assert run["metrics"] == {"wall_s": 1.0, "items_per_s": 8e6, "cpu_s": 1.4, "peak_rss_mb": 210.0, "setup_s": 1.0}
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 10, 0)
    assert run["env"] == {**ENV, "numpy": "2.4.6"}


def test_one_pair_gives_medians_wins_and_counts():
    pair = {"seed": 1, "first": "rev", "rev": bench_pairs.parse_run(REV), "checkout": bench_pairs.parse_run(CHECKOUT)}
    summary = bench_pairs.summarize([pair], BETTER)
    assert summary["pairs"] == 1
    m = summary["metrics"]
    assert m["cpu_s"]["rev"] == {"median": 1.4, "q1": 1.4, "q3": 1.4, "won": 0}
    assert m["cpu_s"]["checkout"] == {"median": 1.2, "q1": 1.2, "q3": 1.2, "won": 1}
    assert (m["items_per_s"]["rev"]["won"], m["items_per_s"]["checkout"]["won"]) == (0, 1)  # higher is better
    assert (m["setup_s"]["rev"]["won"], m["setup_s"]["checkout"]["won"]) == (1, 0)
    assert (m["peak_rss_mb"]["rev"]["won"], m["peak_rss_mb"]["checkout"]["won"]) == (0, 0)  # a tie
    assert summary["counts"] == {"rev": {"correct": 1, "attempted": 10, "failed": 0},
                                 "checkout": {"correct": 1, "attempted": 12, "failed": 0}}


def test_medians_and_quartiles_over_pairs_and_the_report_from_the_file_alone():
    runs = [bench_pairs.parse_run(run_output(w, 1.0, c, 200.0, 1.0, failed=f))
            for w, c, f in ((1.0, 1.0, 0), (2.0, 3.0, 0), (4.0, 2.0, 1), (3.0, 5.0, 0), (5.0, 4.0, 0))]
    pairs = [{"seed": k, "first": "rev", "rev": run, "checkout": runs[0]} for k, run in enumerate(runs)]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["metrics"]["cpu_s"]["rev"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "won": 0}
    assert summary["metrics"]["wall_s"]["rev"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "won": 0}
    assert summary["metrics"]["cpu_s"]["checkout"]["won"] == 4
    assert summary["counts"]["rev"] == {"correct": 4, "attempted": 50, "failed": 1}
    bench = {"rev": {"sha": "1" * 40}, "checkout": {"sha": "2" * 40, "dirty": False},
             "workloads": {"trace_pipeline_1m": {"pairs": pairs, "summary": summary}}}
    table = bench_pairs.report(json.loads(json.dumps(bench)), BOUNDS)
    assert "| trace_pipeline_1m | cpu_s | 3 [2, 4] | 1 [1, 1] | 0.333 | 4/5 | no | yes |" in table.splitlines()


def test_a_run_whose_every_operation_failed_is_left_out_and_named():
    # seed 2's checkout run exited early: every operation failed, and its
    # wall time is the exit's, not the workload's
    walls = {1: (1.0, 0.9), 2: (1.1, 0.3), 3: (1.2, 1.0), 4: (0.8, 0.95)}
    pairs = [{"seed": seed, "first": "rev", "rev": bench_pairs.parse_run(run_output(a, 1.0, a, 200.0, 1.0)),
              "checkout": bench_pairs.parse_run(run_output(b, 1.0, b, 200.0, 1.0, attempted=6,
                                                           failed=6 if seed == 2 else 0))}
             for seed, (a, b) in walls.items()]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert (summary["pairs"], summary["compared"]) == (4, 3)
    assert summary["failed_runs"] == {"rev": [], "checkout": [2]}
    wall = summary["metrics"]["wall_s"]
    assert wall["checkout"] == {"median": 0.95, "q1": 0.925, "q3": 0.975, "won": 2}
    assert wall["rev"] == {"median": 1.05, "q1": 0.95, "q3": 1.125, "won": 1}
    assert summary["counts"]["checkout"] == {"correct": 3, "attempted": 24, "failed": 6}
    bench = {"rev": {"sha": "1" * 40}, "checkout": {"sha": "2" * 40, "dirty": False},
             "workloads": {"trace_pipeline_1m": {"pairs": pairs, "summary": summary}}}
    table = bench_pairs.report(json.loads(json.dumps(bench)), BOUNDS).splitlines()
    assert "| trace_pipeline_1m | wall_s | 1.05 [0.95, 1.125] | 0.95 [0.925, 0.975] | 0.905 | 2/3 | no | yes |" in table
    assert ("| trace_pipeline_1m | runs whose every op failed, left out of medians and wins | none | seeds 2 "
            "| | |") in table
    # a side with no successful run has no median
    for p in pairs:
        p["checkout"]["failed"] = p["checkout"]["attempted"]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["compared"] == 0
    assert summary["metrics"]["wall_s"]["checkout"] == {"median": None, "q1": None, "q3": None, "won": 0}
    bench["workloads"]["trace_pipeline_1m"]["pairs"] = pairs
    assert "| trace_pipeline_1m | wall_s | 1.05 [0.95, 1.125] | no run |  | 0/0 |  |  |" in bench_pairs.report(bench, BOUNDS)


def ten_pairs(rev_walls, checkout_walls):
    """Ten pairs whose runs differ in wall_s alone, and the report's wall_s row of them."""
    pairs = [{"seed": k, "first": "rev", "rev": bench_pairs.parse_run(run_output(a, 1.0, 1.0, 200.0, 1.0)),
              "checkout": bench_pairs.parse_run(run_output(b, 1.0, 1.0, 200.0, 1.0))}
             for k, (a, b) in enumerate(zip(rev_walls, checkout_walls, strict=True))]
    bench = {"rev": {"sha": "1" * 40}, "checkout": {"sha": "2" * 40, "dirty": False},
             "workloads": {"trace_pipeline_1m": {"pairs": pairs, "summary": bench_pairs.summarize(pairs, BETTER)}}}
    return next(row for row in bench_pairs.report(bench, BOUNDS).splitlines() if "| wall_s |" in row)


REV_WALLS = [1.0, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03, 0.97, 1.0]


def test_a_gain_is_shown_by_nine_wins_in_ten_and_a_median_past_the_quartile_spread():
    # the checkout is 0.9x in nine pairs and loses the tenth; REV's spread is 1.0225 - 0.9775
    row = ten_pairs(REV_WALLS, [0.9 * w for w in REV_WALLS[:9]] + [1.1])
    assert row.endswith("| 9/10 | yes | yes |")
    # for a higher-is-better metric the same gain is a rise
    m = {"better": "higher", "rev": {"median": 1.0, "q1": 0.9775, "q3": 1.0225, "won": 1},
         "checkout": {"median": 1.1, "q1": 1.0, "q3": 1.2, "won": 9}}
    assert bench_pairs.verdicts(m, 10, 0.25) == ("yes", "yes")
    assert bench_pairs.verdicts({**m, "better": "lower"}, 10, 0.25) == ("no", "yes")


def test_eight_wins_in_ten_show_no_gain_and_a_median_within_the_spread_neither():
    row = ten_pairs(REV_WALLS, [0.9 * w for w in REV_WALLS[:8]] + [1.1, 1.1])
    assert row.endswith("| 8/10 | no | yes |")
    # ten wins by less than REV's quartile spread
    row = ten_pairs(REV_WALLS, [w - 0.01 for w in REV_WALLS])
    assert row.endswith("| 10/10 | no | yes |")


def test_a_median_worse_by_more_than_its_bound_is_past_it():
    assert ten_pairs(REV_WALLS, [1.3 * w for w in REV_WALLS]).endswith("| 0/10 | no | no |")
    # worse by the bound itself, 0.25 of REV's median, is within it
    assert ten_pairs(REV_WALLS, [1.25] * 10).endswith("| 0/10 | no | yes |")
    m = {"better": "higher", "rev": {"median": 2.0, "q1": 2.0, "q3": 2.0, "won": 10},
         "checkout": {"median": 1.4, "q1": 1.4, "q3": 1.4, "won": 0}}
    assert bench_pairs.verdicts(m, 10, 0.25) == ("no", "no")
    assert bench_pairs.verdicts(m, 10, None) == ("no", "")


def test_a_traced_run_keeps_its_counts_and_calls_only():
    run = bench_pairs.traced_run(bench_pairs.parse_run(traced_output(5.0)))
    assert run == {"correct": True, "attempted": 8, "failed": 0,
                   "calls": {"cli.main.calls": 5.0, "traces.load_trace.calls": 5.0}}


def test_each_workload_ends_with_one_traced_run_per_side_and_the_report_compares_their_calls(tmp_path, monkeypatch):
    runs = []

    def canned_run(tree, workload, seed, seconds, trace=0):
        runs.append((tree == bench_pairs.REPO, workload, seed, trace))
        if trace:
            return bench_pairs.parse_run(traced_output(5.0 if tree == bench_pairs.REPO else 6.0, failed=1))
        return bench_pairs.parse_run(REV)

    monkeypatch.setattr(bench_pairs, "_run", canned_run)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, tree: "1" * 40)
    monkeypatch.setattr(bench_pairs, "calibrate", lambda: 0.5)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--pairs", "2", "--first-seed", "7"]) == 0
    bench = json.loads(out.read_text())
    workloads = list(bench["workloads"])
    # per workload: two pairs at seeds 7 and 8, then one traced run per side at seed 9
    assert runs == [(checkout, w, seed, trace) for w in workloads
                    for checkout, seed, trace in ((False, 7, 0), (True, 7, 0), (True, 8, 0), (False, 8, 0),
                                                  (False, 9, 1), (True, 9, 1))]
    traced = bench["workloads"][workloads[0]]["traced"]
    assert traced["seed"] == 9 and traced["checkout"]["failed"] == 1
    assert traced["rev"]["calls"] == {"cli.main.calls": 5.0, "traces.load_trace.calls": 6.0}
    table = bench_pairs.report(bench, BOUNDS).splitlines()
    assert (f"| {workloads[0]} | traced run (seed 9): correct, ops attempted/failed | False, 8/1 | False, 8/1 | | "
            "calls differ: traces.load_trace.calls |") in table
    for side in bench_pairs.SIDES:
        traced[side]["calls"]["traces.load_trace.calls"] = 5.0
    assert bench_pairs.report(bench, BOUNDS).splitlines().count(
        f"| {workloads[0]} | traced run (seed 9): correct, ops attempted/failed | False, 8/1 | False, 8/1 | | "
        "calls equal |") == 1


def test_each_pair_keeps_the_calibration_before_it_and_the_report_flags_slow_windows(tmp_path, monkeypatch):
    ratios = iter([0.52, 0.97, 0.55, 0.5, 0.76, 0.49])
    monkeypatch.setattr(bench_pairs, "calibrate", lambda: next(ratios))
    monkeypatch.setattr(bench_pairs, "_run", lambda tree, workload, seed, seconds, trace=0: bench_pairs.parse_run(REV))
    monkeypatch.setattr(bench_pairs, "export", lambda rev, tree: "1" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--pairs", "2", "--first-seed", "3"]) == 0
    bench = json.loads(out.read_text())
    workloads = list(bench["workloads"])
    assert len(workloads) == 3
    # one calibration per pair, in the order the pairs ran
    assert [p["calibration"] for w in workloads for p in bench["workloads"][w]["pairs"]] == [
        0.52, 0.97, 0.55, 0.5, 0.76, 0.49]
    table = bench_pairs.report(bench, BOUNDS).splitlines()
    row = "| {} | two threads' time over one's before each pair | min {} | max {} | | {} |"
    assert row.format(workloads[0], "0.52", "0.97", "above 0.75 at seeds 4") in table
    assert row.format(workloads[1], "0.50", "0.55", "none above 0.75") in table
    assert row.format(workloads[2], "0.49", "0.76", "above 0.75 at seeds 3") in table


def test_the_calibration_is_a_ratio_of_two_timings():
    ratio = bench_pairs.calibrate()
    # two threads take at least about half, and far less than ten times, one thread's time
    assert 0.3 < ratio < 10


@pytest.mark.parametrize("argv", [[], ["HEAD"]])
def test_refuses_to_run_without_a_revision_and_an_output(argv, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(argv)
    assert "give REV and --out" in capsys.readouterr().err
