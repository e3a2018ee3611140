"""The scripts under scripts/, run in process against the package under test."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from spdcpol import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bandwidth_delay_study_writes_one_row_per_width(tmp_path, capsys):
    out = tmp_path / "bandwidth_delay.csv"
    _script("bandwidth_delay_study").main(["--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        assert row["tau_star_fs"] == "22.25"
        assert float(row["v_int_abs"]) <= 1.0
    assert f"wrote {out}" in capsys.readouterr().out


def test_bandwidth_delay_study_rows_equal_delay_scan_records(tmp_path, capsys):
    out = tmp_path / "bandwidth_delay.csv"
    _script("bandwidth_delay_study").main(["--out", str(out)])
    with open(out, newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["fwhm_nm"] == "30.0")
    config = tmp_path / "filter.json"
    config.write_text(
        json.dumps({"filter": {"shape": "top_hat", "center_nm": 1555.9, "fwhm_nm": 30.0}})
    )
    assert cli.main(["delay-scan", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    scalars = json.loads((tmp_path / "o" / "delay_scan.json").read_text())["scalars"]
    assert float(row["tau_star_fs"]) == scalars["tau_star_fs"]
    assert float(row["v_int_abs"]) == scalars["v_int_abs_at_star"]
    assert float(row["concurrence"]) == scalars["concurrence_at_star"]
    assert int(row["grid_points"]) == scalars["grid_points"]


@pytest.mark.parametrize(
    "center_nm, code, line",
    [
        ("nan", 2, "CONFIG_ERROR: filter: center_lambda must be positive, got nan"),
        ("-5", 2, "CONFIG_ERROR: filter: center_lambda must be positive, got -5e-09"),
        ("1e400", 3, "NUMERICAL_ERROR: the top-hat band does not pass the degenerate"),
    ],
)
def test_bandwidth_delay_study_errors_are_one_stderr_line(tmp_path, capsys, center_nm, code, line):
    out = tmp_path / "bandwidth_delay.csv"
    argv = ["--center-nm", center_nm, "--out", str(out)]
    assert _script("bandwidth_delay_study").main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(line)
    assert captured.err.count("\n") == 1 and not out.exists()


def test_reproduce_results_writes_every_job(tmp_path, capsys):
    out = tmp_path / "results"
    _script("reproduce_results").main(["--out", str(out)])
    jobs = {
        "fringes_calibrated": "fringe",
        "delay_scan": "delay-scan",
        "chsh_calibrated": "chsh",
        "chsh_raw": "chsh",
        "s_curve_ideal": "s-curve",
        "budget": "budget",
    }
    assert sorted(p.name for p in out.iterdir()) == sorted(jobs)
    for subdir, command in jobs.items():
        payload = json.loads((out / subdir / f"{command.replace('-', '_')}.json").read_text())
        assert payload["command"] == command


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    # every file, stdout, stderr and exit code of every compare_outputs.py case
    problems = _script("compare_outputs").check(tmp_path)
    assert not problems, "outputs do not match golden_outputs.json:\n" + "\n".join(problems)
