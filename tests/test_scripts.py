"""The scripts under scripts/, run in process against the package under test."""

import csv
import importlib.util
import json
import os
import platform
import subprocess
import sys
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
    [  # the lines `spdcpol` prints for the same filter.center_nm
        ("nan", 2, "CONFIG_ERROR: filter.center_nm must be a number in (0, inf), got NaN"),
        ("-5", 2, "CONFIG_ERROR: filter.center_nm must be a number in (0, inf), got -5.0"),
        ("1e400", 2, "CONFIG_ERROR: filter.center_nm must be a number in (0, inf), got Infinity"),
    ],
)
def test_bandwidth_delay_study_errors_are_one_stderr_line(tmp_path, capsys, center_nm, code, line):
    out = tmp_path / "bandwidth_delay.csv"
    argv = ["--center-nm", center_nm, "--out", str(out)]
    assert _script("bandwidth_delay_study").main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(line)
    assert captured.err.count("\n") == 1 and not out.exists()


def test_bandwidth_delay_study_out_naming_a_directory_exits_2(tmp_path, capsys):
    assert _script("bandwidth_delay_study").main(["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR: cannot write --out: ") and err.count("\n") == 1
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "script, argv, line",
    [
        ("bandwidth_delay_study", ["--center-nm", "abc"], "argument --center-nm: invalid float"),
        ("reproduce_results", ["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    ],
)
def test_bad_flag_value_is_one_config_error_line(tmp_path, capsys, script, argv, line):
    with pytest.raises(SystemExit) as exc:
        _script(script).main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"CONFIG_ERROR: {line}")
    assert captured.err.count("\n") == 1 and list(tmp_path.iterdir()) == []


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


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86-64 kernels only"
)
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_golden_manifest_holds_under_another_openblas_kernel(coretype):
    # OpenBLAS picks its kernel when it loads, so each kernel needs a process of its own
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_outputs.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_golden_manifest_holds_without_the_malloc_setting():
    # state's malloc setting is process-wide and applied once: in a process of its own
    # where it is a no-op, it never runs, and the outputs must not move
    script = str(SCRIPTS / "compare_outputs.py")
    code = (
        "import runpy, sys\n"
        "from spdcpol import state\n"
        "state._keep_freed_heap = lambda: None\n"
        f"sys.argv = [{script!r}]\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "outputs match" in result.stdout
