"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}


def _run_cli(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    try:
        from spdcpol import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        sys.path.remove(str(SRC))


def _small_scan(tmp_path: Path) -> tuple[dict, Path]:
    """A real delay-scan on a small grid, with its scenario and output dir."""
    scenario = workloads._delay_scan(
        "scan", dict(workloads.DISPERSION), dict(workloads.LONG_GUIDE_FILTER), 1025
    )
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(scenario["config"]))
    out = tmp_path / "out"
    assert _run_cli(["delay-scan", "--config", str(config), "--out", str(out)]) == 0
    return scenario, out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_spectral_sweep_spectra_satisfy_the_closed_form():
    for seed in range(20):
        scenarios = workloads.generate("spectral-sweep", seed)
        grids = sorted(sc["config"]["grid"]["n_points"] for sc in scenarios)
        assert grids == sorted([*workloads.GRID_SIZES, 8193])
        for sc in scenarios:
            cfg = sc["config"]
            assert workloads.interference_kernel_nonnegative(cfg["dispersion"], cfg["filter"])
    probe = workloads.walkoff_delay_fs({**workloads.DISPERSION, "length_mm": 12.0})
    assert probe == pytest.approx(222.47, abs=0.005)


def test_real_output_passes_and_tampered_tau_star_fails(tmp_path):
    scenario, out = _small_scan(tmp_path)
    assert checks.check_scenario(scenario, out) == ([], [])

    record_path = out / "delay_scan.json"
    record = json.loads(record_path.read_text())
    record["scalars"]["tau_star_fs"] += 0.1
    record_path.write_text(json.dumps(record))
    failures, misses = checks.check_scenario(scenario, out)
    assert len(failures) == 1 and "tau_star_fs" in failures[0] and misses == []

    known = {**scenario, "expect": {**scenario["expect"], "known_defect": {"check": "tau_star_fs"}}}
    failures, misses = checks.check_scenario(known, out)
    assert failures == [] and len(misses) == 1


def test_flipped_output_byte_changes_the_digest(tmp_path):
    _, out = _small_scan(tmp_path)
    before = checks.digest(out)
    csv_path = out / "delay_scan_curve.csv"
    data = bytearray(csv_path.read_bytes())
    data[-2] ^= 0x01
    csv_path.write_bytes(bytes(data))
    assert checks.digest(out) != before


def test_traced_self_times_fit_in_the_traced_pass(tmp_path):
    plan = []
    for sc in workloads.generate("full-chain", 3):
        if sc["name"] in ("delay_scan", "fringe_spectral", "chsh_spectral"):
            sc["config"]["grid"] = {"n_points": 1025}
        config = tmp_path / f"{sc['name']}.json"
        config.write_text(json.dumps(sc["config"]))
        plan.append({"name": sc["name"], "argv": [*sc["argv"], "--config", str(config)]})
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(tmp_path / "plan.json"),
        str(tmp_path / "result.json"), "--out-root", str(tmp_path / "out"),
        "--trace", str(tmp_path / "spans.json"),
    ]
    proc = subprocess.run(cmd, cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ready\n"
    result = json.loads((tmp_path / "result.json").read_text())
    assert all(inv["rc"] == 0 for inv in result["invocations"])
    assert len(result["probes_s"]) == len(plan) + 1 and result["pass_scaled_s"] > 0
    layers = spans.summarize(json.loads((tmp_path / "spans.json").read_text()))
    self_times = [layers[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert all(t > 0 for t in self_times)
    assert all(layers[f"{layer}.errors"] == 0 for layer in spans.LAYERS)
    assert sum(self_times) <= result["pass_s"]
    assert layers["spectral.grid_points"] == 3 * 1025
    assert layers["runners.rows_written"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc-counts", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
