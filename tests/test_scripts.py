"""The scripts under scripts/, run in process against the package under test."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

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
        assert float(row["tau_star_fs"]) == pytest.approx(22.25, abs=1e-9)
        assert float(row["v_int_abs"]) <= 1.0
    assert f"wrote {out}" in capsys.readouterr().out


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
    # every file, stdout, stderr and exit code of compare_outputs.py's cli cases
    compare = _script("compare_outputs")
    golden = json.loads(compare.GOLDEN.read_text())
    here = compare.environment()
    if golden["environment"] != here:
        pytest.fail(
            f"golden_outputs.json was made on {golden['environment']}; this is {here}. "
            "Regenerate it with: python3 scripts/compare_outputs.py --write-golden"
        )
    digests = compare.golden_digests(tmp_path)
    expected, got = (
        {f"{case}/{rel}": sha for case, files in table.items() for rel, sha in files.items()}
        for table in (golden["cases"], digests)
    )
    differing = sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))
    assert not differing, "outputs differ from golden_outputs.json:\n" + "\n".join(differing)
