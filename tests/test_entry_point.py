"""``python -m fdrelay`` runs the command line and exits with its code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdrelay.cli import EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "fdrelay", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_solve_exits_0():
    proc = _run("solve")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "efficiency" in proc.stdout


def test_infeasible_config_exits_1(tmp_path):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("alpha_db = 20\nr_fl_mbps = 100\nr_rl_mbps = 100\n"
                   "strategy = fd1ts\n")
    proc = _run("solve", "--config", str(cfg))
    assert proc.returncode == EXIT_INFEASIBLE
    assert proc.stderr.startswith("infeasible:")
    assert proc.stdout == ""


def test_infeasible_names_cause_and_node(tmp_path):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("alpha_db = 20\nr_fl_mbps = 100\nr_rl_mbps = 100\n"
                   "strategy = fd1ts\n")
    proc = _run("solve", "--config", str(cfg))
    assert proc.returncode == EXIT_INFEASIBLE
    assert proc.stderr.rstrip("\n").endswith("(cause=cancellation, node=a)")


def test_frame_budget_infeasible_names_its_node(tmp_path):
    # The frame-budget message itself names no node; the CLI appends it.
    cfg = tmp_path / "busy.cfg"
    cfg.write_text("r_fl_mbps = 110\nr_rl_mbps = 110\nstrategy = hd2ts\n")
    proc = _run("solve", "--config", str(cfg))
    assert proc.returncode == EXIT_INFEASIBLE
    assert proc.stderr == ("infeasible: minimum slot durations exceed the "
                           "frame budget (cause=power_budget, node=a)\n")
    assert proc.stdout == ""


def test_missing_config_exits_2(tmp_path):
    proc = _run("solve", "--config", str(tmp_path / "missing.cfg"))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: cannot read")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("solve", "--oracle"),
    ("sweep", "--axis", "cancellation", "--from", "20", "--to", "21",
     "--step", "1", "--axis2", "traffic-ratio", "--from2", "1", "--to2",
     "2", "--step2", "1")], ids=["solve", "sweep"])
def test_reader_that_closes_early_ends_without_traceback(argv, tmp_path):
    """As in ``fdrelay sweep ... | head -1``: the reader has closed stdout
    before the first write, so every write meets a broken pipe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fdrelay", *argv],
                                env=env, stdout=subprocess.PIPE, stderr=err)
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
        err.seek(0)
        assert err.read() == ""
