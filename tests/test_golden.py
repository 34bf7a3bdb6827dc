"""The byte gate: every trafficlab command of scripts/compare_outputs.py,
run in-process, writes the files, exit status, stdout and stderr whose
SHA-256 digests tests/golden.sha256 holds.

The digests bind one numpy build on one CPU: numpy may run other SIMD
code on other hardware, with other last bits. golden.sha256 names the
numpy version and the dispatched CPU features it was made with, and the
test skips, saying why, anywhere else. After a change that means to
alter an output, write the file again and list the changed lines:

    PYTHONPATH=src python3 tests/test_golden.py
"""
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from trafficlab import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import compare_outputs  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.sha256")


def build_key() -> str:
    """The numpy version and the CPU features its dispatched kernels use here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = [*umath.__cpu_baseline__, *(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))]
    return f"numpy {np.__version__}; cpu {' '.join(features)}"


def run_commands(outdir: Path) -> None:
    """Each trafficlab command of compare_outputs.COMMANDS through cli.main,
    in outdir, with its exit status, stdout and stderr kept beside its
    outputs as compare_outputs.py keeps them. The divergence_experiment.py
    commands are left to compare_outputs.py."""
    compare_outputs.write_inputs(outdir)
    for name, (head, *argv) in compare_outputs.COMMANDS:
        if head != "cli":
            continue
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse
                status = exc.code
        (outdir / f"{name}.log").write_text(f"exit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def digests(outdir: Path) -> dict[str, str]:
    return {str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def read_golden() -> tuple[str, dict[str, str]]:
    key, *lines = GOLDEN.read_text().splitlines()
    return key.removeprefix("# "), dict(reversed(line.split("  ", 1)) for line in lines)


def test_every_output_has_its_golden_digest(tmp_path, monkeypatch):
    key, want = read_golden()
    if key != build_key():
        pytest.skip(f"golden digests were made with {key}; this is {build_key()}")
    monkeypatch.chdir(tmp_path)
    run_commands(tmp_path)
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        run_commands(Path(tmp))
        lines = [f"# {build_key()}", *(f"{digest}  {name}" for name, digest in digests(Path(tmp)).items())]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} digests to {GOLDEN}")
