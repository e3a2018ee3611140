"""Output checks: each invocation's files against the paper's closed forms.

`check_scenario` returns two lists of problems for one invocation's output
directory: failures, and misses of a check that the scenario declares a
known defect of the program (reported, not counted as failed). `digest`
fingerprints the output files so passes with the same seed can be compared
byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TAU_TOL_FS = 0.05
MODEL_TOL = 1e-9
UNIT_TOL = 1e-12
BUDGET_RTOL = 1e-9
MC_STANDARD_ERRORS = 5.0


def digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every file in `out_dir`."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_scenario(scenario: dict, out_dir: Path) -> tuple[list[str], list[str]]:
    """(failures, known-defect misses) for one invocation's outputs."""
    command = scenario["argv"][0]
    stem = command.replace("-", "_")
    out_dir = Path(out_dir)
    try:
        record = json.loads((out_dir / f"{stem}.json").read_text())
        problems = _CHECKS[command](record, out_dir, scenario["expect"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{scenario['name']}: unreadable output: {type(exc).__name__}: {exc}"], []
    known = scenario["expect"].get("known_defect", {}).get("check")
    failures, misses = [], []
    for problem in problems:
        is_known = known is not None and problem.startswith(f"{known}:")
        (misses if is_known else failures).append(f"{scenario['name']}: {problem}")
    return failures, misses


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _resolve(value, scalars: dict) -> float:
    """An expectation is a number, or the name of a scalar the record reports."""
    return float(scalars[value]) if isinstance(value, str) else float(value)


def _check_tau(scalars: dict, key: str, expect_fs: float) -> list[str]:
    got = float(scalars[key])
    if abs(got - expect_fs) > TAU_TOL_FS:
        return [f"{key}: {got:.4f} fs, delta*L/2 = {expect_fs:.4f} fs (tolerance {TAU_TOL_FS} fs)"]
    return []


def _check_delay_scan(record: dict, out_dir: Path, expect: dict) -> list[str]:
    scalars = record["scalars"]
    problems = _check_tau(scalars, "tau_star_fs", expect["tau_star_fs"])
    curve = [float(row["v_int_abs"]) for row in _read_csv(out_dir / "delay_scan_curve.csv")]
    peak = max([float(scalars["v_int_abs_at_star"]), *curve])
    if not curve or peak > 1.0 + UNIT_TOL:
        problems.append(f"|V_int|: max {peak!r} over {len(curve)} delays exceeds 1")
    return problems


def _check_s_curve(record: dict, out_dir: Path, expect: dict) -> list[str]:
    worst = 0.0
    rows = _read_csv(out_dir / "s_curve_curve.csv")
    for row in rows:
        t = math.radians(float(row["theta_deg"]))
        worst = max(worst, abs(float(row["s_model"]) - (3.0 * math.cos(2 * t) - math.cos(6 * t))))
    if not rows or worst > MODEL_TOL:
        return [f"s_model: deviates from 3cos2t - cos6t by {worst:.3e} over {len(rows)} angles"]
    return []


def _check_chsh(record: dict, out_dir: Path, expect: dict) -> list[str]:
    scalars = record["scalars"]
    problems = []
    if "tau_fs" in expect:
        problems += _check_tau(scalars, "tau_fs", expect["tau_fs"])
    want = math.sqrt(2.0) * (
        _resolve(expect["visibility_z"], scalars) + _resolve(expect["visibility_d"], scalars)
    )
    if abs(float(scalars["s_model"]) - want) > MODEL_TOL:
        problems.append(f"s_model: {scalars['s_model']!r}, sqrt2 (V_z + V_d) = {want!r}")
    if expect.get("counts_unbiased"):
        runs = int(scalars["runs"])
        standard_error = float(scalars["s_counts_std"]) / math.sqrt(runs)
        miss = abs(float(scalars["s_counts_mean"]) - float(scalars["s_model"]))
        if not miss <= MC_STANDARD_ERRORS * standard_error:
            problems.append(
                f"s_counts_mean: {miss:.4g} from s_model, more than "
                f"{MC_STANDARD_ERRORS:g} standard errors ({standard_error:.4g}) over {runs} runs"
            )
    return problems


def _check_fringe(record: dict, out_dir: Path, expect: dict) -> list[str]:
    scalars = record["scalars"]
    problems = []
    if "tau_fs" in expect:
        problems += _check_tau(scalars, "tau_fs", expect["tau_fs"])
    wanted = {0.0: 1.0, 45.0: _resolve(expect["coherence"], scalars)}
    seen = {float(b["theta1_deg"]): float(b["visibility_model"]) for b in scalars["bases"]}
    for theta1, want in wanted.items():
        got = seen.get(theta1)
        if got is None or abs(got - want) > MODEL_TOL:
            problems.append(f"visibility_model at theta1={theta1:g}: {got!r}, expected {want!r}")
    for theta1 in seen:
        if not (out_dir / f"fringe_theta1_{theta1:g}.csv").is_file():
            problems.append(f"fringe_theta1_{theta1:g}.csv missing")
    return problems


def _check_budget(record: dict, out_dir: Path, expect: dict) -> list[str]:
    scalars = record["scalars"]
    problems = []
    for key, want in expect["budget"].items():
        got = float(scalars[key])
        if not math.isclose(got, want, rel_tol=BUDGET_RTOL):
            problems.append(f"{key}: {got!r}, closed form {want!r}")
    return problems


_CHECKS = {
    "delay-scan": _check_delay_scan,
    "s-curve": _check_s_curve,
    "chsh": _check_chsh,
    "fringe": _check_fringe,
    "budget": _check_budget,
}
