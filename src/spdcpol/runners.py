"""Scenario runners: one function per CLI subcommand.

Each runner returns a ResultRecord holding the fully resolved config echo,
unit-tagged scalar outputs, and plot-ready tables. Writing is atomic
(temp file + rename): a crashed run never leaves a half-written CSV where
the authoritative output should be. Re-running a runner from the config
echo embedded in its own record reproduces the outputs byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .config import ScenarioConfig, fringe_table_name
from .counting import (
    accidental_rate,
    chsh_from_counts,
    derive_seed,
    efficiency_budget,
    mean_counts,
    poisson_counts,
)
from .errors import ConfigurationError, DegenerateDataError
from .polarimetry import (
    canonical_settings,
    chsh_arm_angles,
    chsh_estimate,
    chsh_table,
    coincidence_probs,
    fit_fringe,
)
from .state import concurrence, overlap_scan
from .units import fs

__all__ = [
    "ResultRecord",
    "run_fringe",
    "run_delay_scan",
    "run_chsh",
    "run_s_curve",
    "run_budget",
    "REFERENCE_DELAY_EXPERIMENT_FS",
    "REFERENCE_DELAY_CALCULATED_FS",
]

# Compensation delays quoted for the modeled source, kept for juxtaposition
# with the model optimum. This model's optimum sits at delta*L/2 because the
# quadratic-dispersion phase is even in the detuning and cancels from the
# post-selected interference term; the quoted values need not agree with it.
REFERENCE_DELAY_EXPERIMENT_FS = 32.0
REFERENCE_DELAY_CALCULATED_FS = 31.2

_DELAY_NOTE = (
    "model optimum is the stationary-phase value delta*L/2; the quadratic "
    "dispersion term is even in detuning and drops out of the two-photon "
    "interference phase, so the reference compensation delays are reported "
    "alongside rather than matched"
)


@dataclass
class ResultRecord:
    """Machine-readable result: config echo, unit-tagged scalars, tables."""

    command: str
    config: dict[str, Any]
    scalars: dict[str, Any]
    tables: dict[str, dict[str, Any]] = field(default_factory=dict)

    def add_table(self, name: str, columns: dict[str, ArrayLike]) -> None:
        """Add a table given column by column: name -> values, all of one length.

        The table keeps the values row by row, arrays as Python scalars.
        Raises ValueError, adding nothing, unless every column is named by an
        identifier and holds Python ints and floats only (an int or float
        array's .tolist()), so that no CSV cell needs quoting.
        """
        data = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
        for column, values in zip(columns, data):
            if not (isinstance(column, str) and column.isidentifier()):
                raise ValueError(f"table {name!r}: column name {column!r} is not an identifier")
            kinds = set(map(type, values)) - {int, float}
            if kinds:
                held = ", ".join(sorted(kind.__name__ for kind in kinds))
                raise ValueError(
                    f"table {name!r}: column {column!r} holds {held}, not only ints and floats"
                )
        rows = zip(*data, strict=True)
        self.tables[name] = {"columns": list(columns), "rows": list(map(list, rows))}

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write <command>.json plus one CSV per table, atomically."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = self.command.replace("-", "_")
        written: list[Path] = []
        table_files: dict[str, str] = {}
        for name, table in self.tables.items():
            csv_path = out / f"{stem}_{name}.csv"
            _write_atomic(csv_path, _csv_text(table["columns"], table["rows"]))
            table_files[name] = csv_path.name
            written.append(csv_path)
        payload = {
            "command": self.command,
            "config": self.config,
            "scalars": self.scalars,
            "tables": table_files,
        }
        json_path = out / f"{stem}.json"
        _write_atomic(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(json_path)
        return written

    def print_summary(self) -> None:
        print(f"[{self.command}]")
        for key, value in self.scalars.items():
            print(f"  {key} = {_fmt(value)}")
        for name, table in self.tables.items():
            print(f"  table {name}: {len(table['rows'])} rows x {len(table['columns'])} cols")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


def _csv_text(columns: list[str], rows: list[list[int | float]]) -> str:
    """CSV of a header and rows: the column names, then each value's repr.

    add_table admits identifier names and Python ints and floats only, whose
    repr holds no comma, quote or line break, so no cell is quoted. The rows
    are formatted a column at a time.
    """
    lines = map(",".join, zip(*(map(repr, column) for column in zip(*rows))))
    return "\n".join([",".join(columns), *lines]) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# --- Monte-Carlo runs ----------------------------------------------------------

# Runs drawn, fitted and scored together. Each stream draws its runs as
# consecutive rows, so the counts do not depend on this size; it only
# bounds memory, which stays fixed whatever run.runs is.
MC_BLOCK_RUNS = 256


def _blocks(runs: int) -> Iterator[int]:
    """Sizes of the consecutive blocks that cover `runs` runs."""
    for start in range(0, runs, MC_BLOCK_RUNS):
        yield min(MC_BLOCK_RUNS, runs - start)


class _RunMoments:
    """Mean and population std over runs, merged block by block.

    Pairwise update of Chan, Golub & LeVeque (1979). One block gives
    exactly np.mean and np.std of its values.
    """

    def __init__(self) -> None:
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: NDArray[np.float64]) -> None:
        mean = float(np.mean(values))
        m2 = float(np.sum(np.square(values - mean)))
        n = self.n + values.size
        delta = mean - self.mean
        self.mean += delta * (values.size / n)
        self.m2 += m2 + delta**2 * (self.n * values.size / n)
        self.n = n

    @property
    def std(self) -> float:
        return float(np.sqrt(self.m2 / self.n))


# --- runners -----------------------------------------------------------------


def run_fringe(cfg: ScenarioConfig) -> ResultRecord:
    """Coincidence fringes versus theta2: model, raw, accidental, subtracted."""
    state, info = cfg.resolve_state()
    model, pair_rate, t_int = cfg.counting()
    seed = cfg.seed()
    runs = cfg.runs()
    grid_deg = cfg.fringe_theta2_deg()
    grid = np.radians(grid_deg)
    theta1s_deg = cfg.fringe_theta1_deg()

    # one model fringe per basis, one row each; model probabilities keep b <= a,
    # so the clip removes roundoff only
    probs = coincidence_probs(state.rho, np.radians(theta1s_deg)[:, None], grid)
    expected = mean_counts(probs, model, pair_rate, t_int)
    vis_model = np.clip(fit_fringe(grid, probs), 0.0, 1.0)

    record = ResultRecord(command="fringe", config=cfg.to_dict(), scalars={})
    acc = accidental_rate(model)
    bases: list[dict[str, Any]] = []
    for i, (theta1_deg, means) in enumerate(zip(theta1s_deg, expected)):
        raw_stream = np.random.default_rng(derive_seed(seed, 0, i, 0))
        acc_stream = np.random.default_rng(derive_seed(seed, 1, i, 0))
        vis_raw, vis_sub = _RunMoments(), _RunMoments()
        for b, n in enumerate(_blocks(runs)):
            raw = poisson_counts(means, raw_stream, (n, grid.size))
            # accidentals only: the second detector's trigger delayed out of the first's window
            acc_counts = poisson_counts(acc * t_int, acc_stream, (n, grid.size))
            sub = np.subtract(raw, acc_counts, dtype=float)  # negative values are kept
            vis_raw.add(fit_fringe(grid, raw))
            vis_sub.add(fit_fringe(grid, sub))
            if b == 0:
                # copies: a view would keep the whole block alive
                raw0, acc0, sub0 = raw[0].copy(), acc_counts[0].copy(), sub[0].copy()
        record.add_table(
            fringe_table_name(theta1_deg),
            {
                "theta2_deg": grid_deg,
                "prob_model": probs[i],
                "counts_raw": raw0,
                "counts_acc": acc0,
                "counts_sub": sub0,
            },
        )
        bases.append(
            {
                "theta1_deg": theta1_deg,
                "visibility_model": float(vis_model[i]),
                "visibility_raw_fit_mean": vis_raw.mean,
                "visibility_raw_fit_std": vis_raw.std,
                "visibility_subtracted_fit_mean": vis_sub.mean,
                "visibility_subtracted_fit_std": vis_sub.std,
            }
        )
    record.scalars = {
        **info,
        "accidental_rate_hz": acc,
        "pair_rate_hz": pair_rate,
        "integration_time_s": t_int,
        "runs": runs,
        "bases": bases,
    }
    return record


def run_delay_scan(cfg: ScenarioConfig) -> ResultRecord:
    """|V_int(tau)| over the configured window plus the located optimum."""
    jsa = cfg.build_jsa()
    taus_fs, step_fs = cfg.delay_scan_fs()
    mags = np.abs(overlap_scan(jsa, fs(taus_fs[0]), fs(step_fs), taus_fs.size))
    state_star, info = cfg.spectral_state(jsa)

    record = ResultRecord(command="delay-scan", config=cfg.to_dict(), scalars={})
    record.add_table("curve", {"tau_fs": taus_fs, "v_int_abs": mags})
    record.scalars = {
        "tau_star_fs": info["tau_fs"],
        "v_int_abs_at_star": info["v_int_abs"],
        "v_int_abs_error_estimate": info["v_int_abs_error_estimate"],
        "grid_points": info["grid_points"],
        "concurrence_at_star": concurrence(state_star),
        "reference_delay_experiment_fs": REFERENCE_DELAY_EXPERIMENT_FS,
        "reference_delay_calculated_fs": REFERENCE_DELAY_CALCULATED_FS,
        "delay_model_note": _DELAY_NOTE,
    }
    return record


def run_chsh(cfg: ScenarioConfig) -> ResultRecord:
    """Single-point CHSH: exact model value and simulated counts with sigma."""
    state, info = cfg.resolve_state()
    settings_deg, settings = cfg.chsh_settings()
    model, pair_rate, t_int = cfg.counting()
    seed = cfg.seed()
    runs = cfg.runs()

    probs = chsh_table(state.rho, settings)
    s_model = abs(float(chsh_estimate(probs)[0][0]))
    expected = mean_counts(probs[0], model, pair_rate, t_int)
    stream = np.random.default_rng(derive_seed(seed, 2, 0))
    s_runs, sigma_runs = _RunMoments(), _RunMoments()
    for b, n in enumerate(_blocks(runs)):
        counts = poisson_counts(expected, stream, (n, 4, 4))
        s_block, sigma_block = chsh_from_counts(counts)
        s_block = np.abs(s_block)  # |S|, as s_model
        s_runs.add(s_block)
        sigma_runs.add(sigma_block)
        if b == 0:
            first_counts = counts[0].copy()
            s_first, sigma_first = float(s_block[0]), float(sigma_block[0])

    angle1_deg, angle2_deg = chsh_arm_angles(list(settings_deg.values()), 90.0)
    record = ResultRecord(command="chsh", config=cfg.to_dict(), scalars={})
    record.add_table(
        "counts",
        {  # row 4 * ia + ib: arm-1 setting ia, arm-2 setting ib
            "arm1_index": np.repeat(np.arange(4), 4),
            "arm2_index": np.tile(np.arange(4), 4),
            "angle1_deg": np.repeat(angle1_deg, 4),
            "angle2_deg": np.tile(angle2_deg, 4),
            "counts": first_counts.ravel(),
        },
    )
    scalars: dict[str, Any] = {
        **info,
        "settings_deg": settings_deg,
        "s_model": s_model,
        "s_counts": s_first,
        "sigma_s": sigma_first,
        "runs": runs,
    }
    if runs > 1:
        scalars["s_counts_mean"] = s_runs.mean
        scalars["s_counts_std"] = s_runs.std
        scalars["sigma_s_mean"] = sigma_runs.mean
    record.scalars = scalars
    return record


def run_s_curve(cfg: ScenarioConfig) -> ResultRecord:
    """Signed CHSH sweep over the canonical settings family with MC points."""
    state, info = cfg.resolve_state()
    model, pair_rate, t_int = cfg.counting()
    seed = cfg.seed()
    thetas_deg = cfg.s_curve_theta_deg()

    probs = chsh_table(state.rho, canonical_settings(np.radians(thetas_deg)))
    model_curve = chsh_estimate(probs)[0]
    expected = mean_counts(probs, model, pair_rate, t_int)
    counts = np.stack(
        [poisson_counts(means, derive_seed(seed, 3, k)) for k, means in enumerate(expected)]
    )
    s_sim, sigma = chsh_from_counts(counts)

    record = ResultRecord(command="s-curve", config=cfg.to_dict(), scalars={})
    record.add_table(
        "curve",
        {
            "theta_deg": thetas_deg,
            "s_model": model_curve,
            "s_sim": s_sim,
            "sigma_s": sigma,
        },
    )
    imax = int(np.argmax(model_curve))
    record.scalars = {
        **info,
        "s_model_max": float(model_curve[imax]),
        "theta_at_max_deg": float(thetas_deg[imax]),
        "integration_time_s": t_int,
        "pair_rate_hz": pair_rate,
    }
    return record


def run_budget(cfg: ScenarioConfig) -> ResultRecord:
    """Pump-power chain and inferred conversion efficiency."""
    inputs = cfg.budget_inputs()
    model = cfg.counting()[0]
    try:
        power_in_guide, pair_rate, efficiency = efficiency_budget(model=model, **inputs)
    except ValueError as exc:
        raise ConfigurationError(f"budget: {exc}") from exc
    record = ResultRecord(command="budget", config=cfg.to_dict(), scalars={})
    record.scalars = {
        "pump_power_in_mw": float(record.config["budget"]["pump_power_mw"]),  # as configured
        "power_in_guide_mw": power_in_guide * 1e3,
        "inferred_pair_rate_hz": pair_rate,
        "spdc_efficiency": efficiency,
        "duty_cycle": model.duty_cycle,
        "measured_cc_rate_hz": inputs["measured_cc_rate"],
    }
    for key, value in record.scalars.items():  # Python floats overflow without raising
        if not math.isfinite(value):
            raise DegenerateDataError(f"budget: {key} is {value}, not a finite number")
    return record
