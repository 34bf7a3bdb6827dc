"""scripts/bench_pairs.py's aggregation, on canned perfbench/run.py output."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402

BETTER = {"wall_s": "lower", "items_per_s": "higher", "cpu_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}
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
    table = bench_pairs.report(json.loads(json.dumps(bench)))
    assert "| trace_pipeline_1m | cpu_s | 3 [2, 4] | 1 [1, 1] | 0.333 | 4/5 |" in table.splitlines()


@pytest.mark.parametrize("argv", [[], ["HEAD"]])
def test_refuses_to_run_without_a_revision_and_an_output(argv, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(argv)
    assert "give REV and --out" in capsys.readouterr().err
