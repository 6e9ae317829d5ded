"""Smoke runs of the experiment scripts, one trial each, at small n."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relsim

REPO = Path(__file__).resolve().parent.parent
SRC = str(Path(relsim.__file__).resolve().parent.parent)


def run_script(name, *flags, status=0):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, str(REPO / "scripts" / name), *flags],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == status, done.stderr
    return done


def rows(lines, grid):
    """The table rows, by n, in the order printed."""
    return [line for line in lines[1:] if line.split()[0] in grid]


@pytest.mark.parametrize("model, grid", [("lf", ["8", "16", "32"]), ("fp", ["16", "64"])])
def test_scaling(model, grid):
    lines = run_script("scaling.py", "--model", model, "--grid", ",".join(grid),
                       "--trials", "1").stdout.splitlines()
    assert lines[0].split()[0] == "n" and lines[0].endswith("completion")
    table = rows(lines, grid)
    assert [line.split()[0] for line in table] == grid
    # fp at these n stops at its 8n round cap, and says so.
    assert all(("round_cap_hit 1/1" in line) == (model == "fp") for line in table)


def test_whp_preset():
    lines = run_script("whp_preset.py", "--grid", "8,16", "--trials", "1").stdout.splitlines()
    assert lines[0].split() == ["n", "delta=1/n^a", "in-band", "undetermined"]
    assert [line.split()[0] for line in rows(lines, ["8", "16"])] == ["8", "16"]


@pytest.mark.parametrize("name, flags, message", [
    ("scaling.py", ["--model", "fp", "--grid", "64,16", "--trials", "1"],
     "grid must be nonempty and strictly increasing"),
    ("whp_preset.py", ["--grid", "8", "--trials", "1", "--alpha", "-1"],
     "give no stopping threshold"),
    ("scaling.py", ["--model", "lf", "--grid", "8,x", "--trials", "1"], "bad --grid '8,x'"),
    ("whp_preset.py", ["--grid", "8,y"], "bad --grid '8,y'"),
    # delta = 1/n**alpha is in its domain at n = 8 and out of it at n = 16.
    ("whp_preset.py", ["--grid", "8,16", "--trials", "1", "--alpha", "-0.3"],
     "delta 2.297"),
    # n is checked before delta = 1/n**alpha is computed from it.
    ("whp_preset.py", ["--grid", "0,8"], "n must be >= 1, got 0"),
    ("whp_preset.py", ["--grid", "-4", "--alpha", "0.5"], "n must be >= 1, got -4"),
    ("whp_preset.py", ["--grid", "-4"], "n must be >= 1, got -4"),
    ("whp_preset.py", ["--grid", "8", "--alpha", "1e308"],
     "delta = 1/n**alpha is out of range at n = 8"),
    ("whp_preset.py", ["--grid", "8", "--alpha=-1e308"],
     "delta = 1/n**alpha is out of range at n = 8"),
    # lf divides by log2 n, which is 0 at n = 1; the grid is checked before any run.
    ("scaling.py", ["--model", "lf", "--grid", "1,2,4", "--trials", "1", "--jobs", "1"],
     "--model lf needs every n >= 2, got 1"),
])
def test_bad_input_exits_2_with_a_message(name, flags, message):
    done = run_script(name, *flags, status=2)
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_closed_stdout_ends_a_script_without_a_traceback():
    # The reader is gone before the script starts; with stdout block-buffered,
    # the table fails to go out only when it is flushed at the end.
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with os.fdopen(write, "wb") as stdout:
        done = subprocess.run([sys.executable, str(REPO / "scripts" / "whp_preset.py"),
                               "--grid", "8", "--trials", "1"],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env={**env, "PYTHONPATH": SRC}, timeout=120)
    assert (done.returncode, done.stderr) == (141, "")
