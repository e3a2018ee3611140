import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spdcpol import cli
from spdcpol import state as state_mod
from spdcpol.config import base_config_dict


class Result(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_process(*args):
    """The CLI through `python -m spdcpol.cli` in a fresh interpreter that
    imports spdcpol from where this one does, installed or not."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "spdcpol.cli", *args], capture_output=True, text=True, env=env
    )


@pytest.fixture
def run_cli(capsys):
    """The CLI through cli.main in this process: exit code and captured output."""

    def run(*args):
        capsys.readouterr()
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # --help and command-line errors
            code = exc.code
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return run


# --- in a real process: the entry point, the exit status, one stderr line ----------


def test_budget_runs_clean(tmp_path):
    out = tmp_path / "out"
    result = run_process("budget", "--out", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads((out / "budget.json").read_text())
    assert payload["command"] == "budget"
    assert "config" in payload and "detector" in payload["config"]
    assert abs(payload["scalars"]["power_in_guide_mw"] - 1.3286) < 1e-6


def test_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"detector": {"gate_widht_ns": 100}}))
    result = run_process("fringe", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    err_lines = [l for l in result.stderr.strip().splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("CONFIG_ERROR:")
    assert "detector.gate_widht_ns" in err_lines[0]


def test_degenerate_spectrum_exits_3(tmp_path):
    # filter band entirely off-degeneracy: the pair spectrum has empty support
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(
        json.dumps(
            {
                "filter": {"shape": "top_hat", "center_nm": 1540.0, "fwhm_nm": 2.0},
                "grid": {"omega_max_rad_s": 3.0e13, "n_points": 2049},
            }
        )
    )
    result = run_process("delay-scan", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert result.returncode == 3
    err_lines = [l for l in result.stderr.strip().splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("NUMERICAL_ERROR:")
    assert "Traceback" not in result.stderr


# --- in this process ---------------------------------------------------------------


def test_fringe_csv_layout(tmp_path, run_cli):
    out = tmp_path / "out"
    result = run_cli("fringe", "--preset", "paper-calibrated", "--out", str(out), "--seed", "4")
    assert result.returncode == 0, result.stderr
    for stem in ("fringe_theta1_0.csv", "fringe_theta1_45.csv"):
        with open(out / stem, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta2_deg", "prob_model", "counts_raw", "counts_acc", "counts_sub"]
        assert len(rows) == 38  # header + 37 grid points
    payload = json.loads((out / "fringe.json").read_text())
    assert payload["tables"] == {
        "theta1_0": "fringe_theta1_0.csv",
        "theta1_45": "fringe_theta1_45.csv",
    }


def test_delay_scan_csv_layout(tmp_path, run_cli):
    out = tmp_path / "out"
    result = run_cli("delay-scan", "--preset", "gvd-off", "--out", str(out))
    assert result.returncode == 0, result.stderr
    with open(out / "delay_scan_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau_fs", "v_int_abs"]
    payload = json.loads((out / "delay_scan.json").read_text())
    assert abs(payload["scalars"]["tau_star_fs"] - 22.25) < 0.1
    assert payload["scalars"]["reference_delay_experiment_fs"] == 32.0
    assert payload["scalars"]["reference_delay_calculated_fs"] == 31.2
    assert "note" in " ".join(payload["scalars"]) or payload["scalars"]["delay_model_note"]


def test_s_curve_csv_layout(tmp_path, run_cli):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "preset": "paper-ideal",
                "run": {"s_curve_theta_deg": {"start": 0.0, "stop": 90.0, "step": 15.0}},
            }
        )
    )
    result = run_cli("s-curve", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 0, result.stderr
    with open(out / "s_curve_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_deg", "s_model", "s_sim", "sigma_s"]
    assert len(rows) == 8  # header + 7 angles


def test_chsh_counts_table(tmp_path, run_cli):
    out = tmp_path / "out"
    result = run_cli("chsh", "--preset", "raw-visibility", "--out", str(out), "--seed", "2")
    assert result.returncode == 0, result.stderr
    with open(out / "chsh_counts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arm1_index", "arm2_index", "angle1_deg", "angle2_deg", "counts"]
    assert len(rows) == 17  # header + 16 settings
    payload = json.loads((out / "chsh.json").read_text())
    assert abs(payload["scalars"]["s_model"] - 2.2203) < 1e-3


def _single_config_error(result):
    assert result.returncode == 2
    err_lines = [l for l in result.stderr.strip().splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("CONFIG_ERROR:")
    return err_lines[0]


def test_negative_runs_in_config_exits_2(tmp_path, run_cli):
    cfg = tmp_path / "runs.json"
    cfg.write_text(json.dumps({"run": {"runs": -5}}))
    out = tmp_path / "o"
    result = run_cli("fringe", "--preset", "paper-ideal", "--config", str(cfg), "--out", str(out))
    assert "run.runs" in _single_config_error(result)
    assert not out.exists()


def test_zero_runs_flag_exits_2(tmp_path, run_cli):
    out = tmp_path / "o"
    result = run_cli("chsh", "--preset", "paper-ideal", "--runs", "0", "--out", str(out))
    assert "run.runs" in _single_config_error(result)
    assert not out.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_value_exits_2(tmp_path, constant, run_cli):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"run": {"pair_rate_hz": %s}}' % constant)
    result = run_cli("chsh", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert constant in _single_config_error(result)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("value", [2.7, "abc", True])
def test_non_integer_runs_exits_2(tmp_path, value, run_cli):
    cfg = tmp_path / "runs.json"
    cfg.write_text(json.dumps({"run": {"runs": value}}))
    out = tmp_path / "o"
    result = run_cli("fringe", "--preset", "paper-ideal", "--config", str(cfg), "--out", str(out))
    assert "run.runs" in _single_config_error(result)
    assert not out.exists()


@pytest.mark.parametrize("value", [-1, 1.5, "7", False])
def test_bad_seed_exits_2(tmp_path, value, run_cli):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"run": {"seed": value}}))
    out = tmp_path / "o"
    result = run_cli("chsh", "--preset", "paper-ideal", "--config", str(cfg), "--out", str(out))
    assert "run.seed" in _single_config_error(result)


@pytest.mark.parametrize("command", ["fringe", "delay-scan", "budget"])
def test_scalar_fringe_theta1_exits_2(tmp_path, command, run_cli):
    cfg = tmp_path / "theta1.json"
    cfg.write_text(json.dumps({"run": {"fringe_theta1_deg": 0.0}}))
    result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert "run.fringe_theta1_deg" in _single_config_error(result)


@pytest.mark.parametrize("command", ["fringe", "delay-scan", "chsh", "s-curve", "budget"])
@pytest.mark.parametrize(
    "scan, message",
    [
        ({"start": 0, "stop": 90, "step": 10}, "must span at least 360 degrees"),
        ({"start": 0, "stop": 360, "step": 180}, "needs at least 4 points, got 3"),
    ],
)
def test_short_fringe_theta2_grid_exits_2(tmp_path, command, scan, message, run_cli):
    cfg = tmp_path / "theta2.json"
    cfg.write_text(json.dumps({"run": {"fringe_theta2_deg": scan}}))
    result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert f"run.fringe_theta2_deg: theta2 grid {message}" in _single_config_error(result)
    assert not (tmp_path / "o").exists()


def test_budget_zero_efficiency_exits_2(tmp_path, run_cli):
    cfg = tmp_path / "eff.json"
    cfg.write_text(json.dumps({"detector": {"efficiency_1": 0.0}}))
    out = tmp_path / "o"
    result = run_cli("budget", "--config", str(cfg), "--out", str(out))
    assert "efficienc" in _single_config_error(result)
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, run_cli):
    result = run_cli("budget", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert result.returncode == 2
    assert result.stderr.startswith("CONFIG_ERROR:")


def test_non_utf8_config_exits_2(tmp_path, run_cli):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe{\x00}\x00")
    result = run_cli("budget", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert "not valid JSON" in _single_config_error(result)
    assert "Traceback" not in result.stderr


def test_deeply_nested_config_exits_2(tmp_path, run_cli):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000)
    result = run_cli("budget", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert "not valid JSON" in _single_config_error(result)
    assert "Traceback" not in result.stderr


def test_out_naming_a_file_exits_2(tmp_path, run_cli):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    result = run_cli("budget", "--out", str(out))
    assert "--out" in _single_config_error(result)
    assert "Traceback" not in result.stderr
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["fringe", "chsh"])
def test_undrawable_means_over_many_blocks_exit_3(tmp_path, command, run_cli):
    # Poisson means far beyond what numpy can draw, with more runs than one
    # Monte-Carlo block: every draw must keep the exit-3 mapping
    cfg = tmp_path / "rate.json"
    cfg.write_text(json.dumps({"run": {"pair_rate_hz": 1e30}}))
    out = tmp_path / "o"
    result = run_cli(command, "--config", str(cfg), "--runs", "600", "--out", str(out))
    assert result.returncode == 3
    err_lines = [l for l in result.stderr.strip().splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("NUMERICAL_ERROR:")
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, message",
    [
        (
            {"detector": {"trigger_rate_hz": 1e308, "gate_width_ns": 1e308}},
            "budget: duty_cycle is inf, not a finite number",
        ),
        (
            {"budget": {"pump_power_mw": 1e308, "measured_cc_rate_hz": 1e308}},
            "budget: inferred_pair_rate_hz is inf, not a finite number",
        ),
    ],
)
def test_budget_overflow_exits_3(tmp_path, run_cli, scenario, message):
    # Python floats overflow to inf without raising, outside np.errstate's reach
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    result = run_cli("budget", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 3
    assert result.stderr == f"NUMERICAL_ERROR: {message}\n"
    assert not out.exists()


def test_grid_beyond_max_points_exits_3_unless_its_points_are_set(tmp_path, run_cli):
    # 1/v_te = 1e3 s/m puts about 1e10 rad of sinc phase across the band
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({"dispersion": {"v_te_m_per_s": 1e-3}}))
    result = run_cli("delay-scan", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert result.returncode == 3
    err_lines = result.stderr.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("NUMERICAL_ERROR: the spectral grid needs ")
    assert "more than 1048576" in err_lines[0]
    cfg.write_text(json.dumps({"dispersion": {"v_te_m_per_s": 1e-3}, "grid": {"n_points": 1025}}))
    result = run_cli("delay-scan", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert result.returncode == 0, result.stderr


def test_same_seed_reproduces_bytes(tmp_path, run_cli):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = run_cli("chsh", "--preset", "paper-calibrated", "--out", str(out), "--seed", "8")
        assert result.returncode == 0, result.stderr
    assert (a / "chsh.json").read_bytes() == (b / "chsh.json").read_bytes()
    assert (a / "chsh_counts.csv").read_bytes() == (b / "chsh_counts.csv").read_bytes()


def test_round_trip_from_config_echo(tmp_path, run_cli):
    first = tmp_path / "first"
    result = run_cli("chsh", "--preset", "raw-visibility", "--out", str(first), "--seed", "21")
    assert result.returncode == 0, result.stderr
    payload = json.loads((first / "chsh.json").read_text())

    echo_cfg = tmp_path / "echo.json"
    echo_cfg.write_text(json.dumps(payload["config"]))
    second = tmp_path / "second"
    result = run_cli("chsh", "--config", str(echo_cfg), "--out", str(second))
    assert result.returncode == 0, result.stderr
    assert (first / "chsh.json").read_bytes() == (second / "chsh.json").read_bytes()
    assert (first / "chsh_counts.csv").read_bytes() == (second / "chsh_counts.csv").read_bytes()


def test_seed_flag_changes_counts(tmp_path, run_cli):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("chsh", "--preset", "paper-calibrated", "--out", str(a), "--seed", "1")
    run_cli("chsh", "--preset", "paper-calibrated", "--out", str(b), "--seed", "2")
    assert (a / "chsh_counts.csv").read_bytes() != (b / "chsh_counts.csv").read_bytes()


@pytest.mark.parametrize("command", ["fringe", "delay-scan", "chsh", "s-curve", "budget"])
def test_all_subcommands_exist(command, run_cli):
    result = run_cli(command, "--help")
    assert result.returncode == 0
    assert "--config" in result.stdout and "--preset" in result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["fringe", "--runs", "abc"],
        ["fringe", "--preset", "nope"],
        ["nosuch"],
        [],
        ["fringe", "--bogus", "1"],
    ],
)
def test_command_line_error_is_one_config_error_line(argv, run_cli):
    result = run_cli(*argv)
    _single_config_error(result)
    assert result.stdout == ""


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"dispersion": {"length_mm": -1}}, "dispersion.length_mm must be a number in (0, inf)"),
        ({"filter": {"fwhm_nm": -3}}, "filter.fwhm_nm must be a number in (0, inf)"),
        ({"detector": {"gate_width_ns": 0}}, "detector.gate_width_ns must be a number in (0, inf)"),
        ({"state": {"coherence": 1.5}}, "state.coherence must be a number in [-1, 1] or null"),
        (
            {"run": {"chsh_theta_deg": 1e308}},
            "run.chsh_theta_deg must be a number whose CHSH angle 3t is finite",
        ),
    ],
)
def test_range_error_names_the_key_and_value_as_written(tmp_path, run_cli, scenario, message):
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps(scenario))
    result = run_cli("chsh", "--config", str(cfg), "--out", str(tmp_path / "o"))
    written = json.dumps(next(iter(next(iter(scenario.values())).values())))
    assert _single_config_error(result) == f"CONFIG_ERROR: {message}, got {written}"


# --- state kept between cli.main calls of one process ------------------------------

def test_commands_sharing_a_spectrum_write_what_fresh_processes_write(
    tmp_path, run_cli, monkeypatch
):
    # a spectrum no other test uses, so the first command's search is a miss
    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps({"dispersion": {"length_mm": 1.37}, "grid": {"n_points": 2049}}))
    searches = []
    search = state_mod.optimal_delay
    monkeypatch.setattr(state_mod, "optimal_delay", lambda *a: searches.append(a) or search(*a))
    for command in ("delay-scan", "fringe", "chsh"):
        out = tmp_path / "in_process" / command
        assert run_cli(command, "--config", str(cfg), "--out", str(out)).returncode == 0
        fresh = tmp_path / "fresh" / command
        result = run_process(command, "--config", str(cfg), "--out", str(fresh))
        assert result.returncode == 0, result.stderr
    assert len(searches) == 1
    files = sorted(p.relative_to(tmp_path / "fresh") for p in (tmp_path / "fresh").rglob("*.*"))
    assert len(files) == 2 + 3 + 2  # delay-scan, fringe and chsh: their JSON and CSV files
    for rel in files:
        in_process, fresh = tmp_path / "in_process" / rel, tmp_path / "fresh" / rel
        assert in_process.read_bytes() == fresh.read_bytes()


def test_failed_search_fails_again_in_the_same_process(tmp_path, run_cli):
    # a phase mismatch whose |V_int| peaks beyond delta*L/2 +- 200 fs
    cfg = tmp_path / "edge.json"
    cfg.write_text(
        json.dumps(
            {
                "dispersion": {"length_mm": 4.0, "delta0_per_m": 3.0e4},
                "filter": {"center_nm": 1555.9, "fwhm_nm": 20.0},
                "grid": {"n_points": 1025},
            }
        )
    )
    for command in ("fringe", "fringe", "delay-scan", "chsh"):
        result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 3
        assert result.stderr.startswith("NUMERICAL_ERROR: |V_int| peaks at 274.2 fs, the edge")
        assert len(result.stderr.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_seed_flag_does_not_carry_over_to_the_next_call(tmp_path, run_cli):
    flagged, default, explicit = tmp_path / "flagged", tmp_path / "default", tmp_path / "explicit"
    default_seed = str(base_config_dict()["run"]["seed"])
    run_cli("chsh", "--preset", "paper-calibrated", "--seed", "7", "--out", str(flagged))
    run_cli("chsh", "--preset", "paper-calibrated", "--out", str(default))
    run_cli("chsh", "--preset", "paper-calibrated", "--seed", default_seed, "--out", str(explicit))
    for name in ("chsh.json", "chsh_counts.csv"):
        assert (default / name).read_bytes() == (explicit / name).read_bytes()
        assert (default / name).read_bytes() != (flagged / name).read_bytes()


# --- random scenarios, in process -------------------------------------------------

_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(max_value=-1),
    st.floats(min_value=1e15),  # huge, up to Infinity
    st.floats(max_value=-1e15),
    st.floats(min_value=-1e-15, max_value=1e-15),  # tiny, subnormals and zeros
    st.just(float("nan")),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    for key, value in node.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


_BASE = base_config_dict()
_BASE["grid"]["n_points"] = 1025  # keeps each spectral-state run at a few ms


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["fringe", "delay-scan", "chsh", "s-curve", "budget"]),
    edits=st.lists(st.tuples(st.sampled_from(list(_paths(_BASE))), _JSON), min_size=1, max_size=3),
)
def test_random_scenarios_exit_0_2_or_3(tmp_path, capsys, command, edits):
    # 1-3 leaves or whole blocks of the defaults replaced by random JSON; the
    # strategy draws no positive integers, so runs stays 1 and point counts small
    scenario = copy.deepcopy(_BASE)
    for path, value in edits:
        node = scenario
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1, err
        assert err.startswith("CONFIG_ERROR:" if code == 2 else "NUMERICAL_ERROR:")
