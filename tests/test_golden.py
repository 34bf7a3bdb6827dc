"""The byte gate: every command of scripts/compare_outputs.py, run
in-process by its run_commands, writes the files, exit status, stdout
and stderr whose SHA-256 digests tests/golden.sha256 holds.

The digests bind one numpy build on one CPU: numpy may run other SIMD
code on other hardware, with other last bits. golden.sha256 names the
numpy version and the dispatched CPU features it was made with, and the
test skips, saying why, anywhere else. After a change that means to
alter an output, write the file again and list the changed lines:

    PYTHONPATH=src python3 tests/test_golden.py
"""
import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import compare_outputs  # noqa: E402

from trafficlab import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.sha256")


def build_key() -> str:
    """The numpy version and the CPU features its dispatched kernels use here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = [*umath.__cpu_baseline__, *(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))]
    return f"numpy {np.__version__}; cpu {' '.join(features)}"


def read_golden() -> tuple[str, dict[str, str]]:
    key, *lines = GOLDEN.read_text().splitlines()
    return key.removeprefix("# "), dict(reversed(line.split("  ", 1)) for line in lines)


def test_every_command_has_a_golden_log_and_differences_names_each_change():
    _, want = read_golden()
    assert [name for name, _ in compare_outputs.COMMANDS if f"{name}.log" not in want] == []
    left, right = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}, {"a.csv": "1", "b.csv": "9"}
    assert compare_outputs.differences(left, right) == (3, ["differs: b.csv", "only in revision: c.csv"])


def test_every_generator_route_is_in_the_gate():
    # gen with each off model, and each sweep with each generator model
    parser = cli.build_parser()
    runs = [parser.parse_args(argv) for _, (head, *argv) in compare_outputs.COMMANDS
            if head == "cli" and argv[0] in ("gen", "sweep-samples", "sweep-blocks")]
    assert {a.off_model for a in runs if a.subcommand == "gen" and a.model == "onoff"} == set(cli.OFF_MODEL_FLAGS)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("sweep-samples", "sweep-blocks"):
        models = next(a.choices for a in subparsers.choices[name]._actions if a.dest == "model")
        assert {a.model for a in runs if a.subcommand == name} >= set(models)


def test_every_output_has_its_golden_digest(tmp_path, monkeypatch):
    key, want = read_golden()
    if key != build_key():
        pytest.skip(f"golden digests were made with {key}; this is {build_key()}")
    monkeypatch.chdir(tmp_path)
    compare_outputs.run_commands(ROOT / "scripts")
    got = compare_outputs.digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        compare_outputs.run_commands(ROOT / "scripts")
        lines = [f"# {build_key()}", *(f"{digest}  {name}" for name, digest in compare_outputs.digests(Path(tmp)).items())]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} digests to {GOLDEN}")
