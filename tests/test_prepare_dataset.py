"""Tests for the raw-export normalization script."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphfill.signals import load_signal_csv

SCRIPT = str(Path(__file__).parent.parent / "scripts" / "prepare_dataset.py")


def run_script(*args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True
    )


def test_strips_header_and_timestamp_then_transposes(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "timestamp,det_a,det_b\n"
        "2020-01-01 00:00,6.5,6.25\n"
        "2020-01-01 00:05,7.0,6.75\n"
        "2020-01-01 00:10,7.5,7.25\n"
    )
    out = tmp_path / "clean.csv"
    proc = run_script(str(raw), str(out), "--drop-header", "--drop-leading-columns", "1", "--transpose")
    assert proc.returncode == 0, proc.stderr
    sig = load_signal_csv(out, "nodes-as-rows")
    assert sig.n_nodes == 2 and sig.n_steps == 3
    assert np.array_equal(sig.values, [[6.5, 7.0, 7.5], [6.25, 6.75, 7.25]])


def test_non_numeric_cell_fails_with_location(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("1.0,2.0\n3.0,n/a\n")
    out = tmp_path / "clean.csv"
    proc = run_script(str(raw), str(out))
    assert proc.returncode == 2
    assert f"{raw}: row 2, column 2: cannot parse 'n/a' as a number" in proc.stderr


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN ", "-Infinity"])
def test_non_finite_cell_fails_with_location(tmp_path, cell):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"ts,a,b\n0,1.0,2.0\n1,3.0,{cell}\n")
    out = tmp_path / "clean.csv"
    proc = run_script(str(raw), str(out), "--drop-header", "--drop-leading-columns", "1")
    assert proc.returncode == 2
    assert f"{raw}: row 3, column 3: {cell.strip()!r} is not a finite number" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("count", ["-1", "-3"])
def test_negative_leading_column_count_rejected(tmp_path, count):
    raw = tmp_path / "raw.csv"
    raw.write_text("ts,a,b\n0,1.0,2.0\n")
    out = tmp_path / "clean.csv"
    proc = run_script(str(raw), str(out), "--drop-header", "--drop-leading-columns", count)
    assert proc.returncode == 2
    assert f"argument --drop-leading-columns: must be >= 0, got {count}" in proc.stderr
    assert not out.exists()

