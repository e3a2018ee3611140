#!/usr/bin/env python3
"""Run the output matrix in process and check it against the golden manifest.

Usage: python3 scripts/compare_outputs.py [--write-golden]

Each case runs in this process, on the package of this repository, in a
working directory of its own, writing to ./out; its stdout, stderr and exit
code are kept beside its outputs. The SHA-256 of every file is checked
against tests/golden_outputs.json, stamped with the python and numpy
versions and the machine it was made on. Prints each file that differs or
exists on one side only, or both stamps when they differ, and then exits 1.
--write-golden writes the manifest instead; it refuses, exiting 1, when a
case's exit code is not an integer.

The matrix, each case one spdcpol.cli.main call unless said otherwise:
  - each configs/*.json of this repository and the defaults with each of
    the five commands; each preset with fringe, chsh, s-curve and
    delay-scan at --runs 300
  - delay-scan, fringe and chsh on a 16385-point grid, on a 12 mm guide, with
    an even count of delays (800), on a 4099-point grid, whose (N - 1)/2
    is odd, and through a gaussian filter
  - chsh and s-curve with CHSH settings no preset or configs/ file sets:
    explicit angles with a negative signed S, chsh_theta_deg 67.5, an
    off-lattice S(theta) grid, explicit angles on a spectral state
  - known defects and error exits: angles and delays echoed as configured,
    the fringe grid checked at load, a run.chsh_theta_deg whose angle 3t
    overflows, a budget whose duty cycle overflows, and a top-hat band that
    misses the degenerate wavelength
  - one sequence case: delay-scan, fringe and chsh on 4097-, 16385- and then
    8193-point grids through spdcpol.cli.main, one output directory per
    step, so that a call runs after the state earlier calls left behind
  - scripts/bandwidth_delay_study.py and scripts/reproduce_results.py, each
    through its main(argv), and the study with a NaN filter centre, which
    exits 2
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy

COMMANDS = ("fringe", "delay-scan", "chsh", "s-curve", "budget")
SPECTRAL_COMMANDS = ("delay-scan", "fringe", "chsh")
CHSH_COMMANDS = ("chsh", "s-curve")
GENERATED = {  # stem -> (scenario, commands)
    "grid16385": ({"grid": {"n_points": 16385}}, SPECTRAL_COMMANDS),
    "guide12mm": ({"dispersion": {"length_mm": 12.0}}, SPECTRAL_COMMANDS),
    "delays800": (
        {"run": {"delay_scan_fs": {"start": -178.0, "stop": 221.5, "step": 0.5}}},
        SPECTRAL_COMMANDS,
    ),
    "grid4099": ({"grid": {"n_points": 4099}}, SPECTRAL_COMMANDS),
    "gaussian-filter": ({"filter": {"shape": "gaussian"}}, SPECTRAL_COMMANDS),
    "chsh-angles-negative": (
        {
            "preset": "raw-visibility",
            "run": {"chsh_angles_deg": dict(theta1=90, theta1p=45, theta2=22.5, theta2p=67.5)},
        },
        CHSH_COMMANDS,
    ),
    "chsh-theta67": (
        {"preset": "paper-calibrated", "run": {"chsh_theta_deg": 67.5}},
        CHSH_COMMANDS,
    ),
    "s-curve-offlattice": (
        {
            "state": {"phi_bs_rad": 0.7},
            "run": {"s_curve_theta_deg": {"start": -37.1, "stop": 91.3, "step": 1.3}},
        },
        CHSH_COMMANDS,
    ),
    "chsh-spectral-tau": (
        {
            "state": {"tau_fs": 25.0},
            "run": {"chsh_angles_deg": dict(theta1=10, theta1p=-35, theta2=-22.5, theta2p=22)},
        },
        CHSH_COMMANDS,
    ),
    # known defects and error exits
    "fringe-theta1-12": ({"run": {"fringe_theta1_deg": [0, 12]}}, ("fringe",)),
    "chsh-theta1-12": (
        {"run": {"chsh_angles_deg": dict(theta1=12, theta1p=-45, theta2=22.5, theta2p=67.5)}},
        ("chsh",),
    ),
    "short-fringe-grid": (
        {"run": {"fringe_theta2_deg": {"start": 0, "stop": 90, "step": 10}}},
        ("budget", "delay-scan"),
    ),
    "tau-30.1": ({"state": {"tau_fs": 30.1}}, ("fringe",)),
    "delays-10.1": (
        {"run": {"delay_scan_fs": {"start": 10.1, "stop": 40.1, "step": 0.1}}},
        ("delay-scan",),
    ),
    "chsh-theta-overflow": ({"run": {"chsh_theta_deg": 1e308}}, ("chsh",)),
    "duty-cycle-overflow": (
        {"detector": {"trigger_rate_hz": 1e308, "gate_width_ns": 1e308}},
        ("budget",),
    ),
    "band-off-degeneracy": ({"filter": {"center_nm": 1540.0, "fwhm_nm": 2.0}}, ("delay-scan",)),
}
SCRIPTS = {  # stem -> (script, its arguments without --out)
    "bandwidth_delay_study": ("bandwidth_delay_study", []),
    "bandwidth_delay_study-center-nan": ("bandwidth_delay_study", ["--center-nm", "nan"]),
    "reproduce_results": ("reproduce_results", []),
}
SEQUENCE_GRIDS = (4097, 16385, 8193)  # grows, then shrinks, what one process keeps
REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden_outputs.json"

Main = Callable[[list[str]], int]


def run_sequence(argv: list[str]) -> int:
    """The sequence case: argv holds (command, config) pairs, then --out DIR; each
    pair runs through spdcpol.cli.main into a directory of its own under DIR."""
    from spdcpol import cli

    *steps, _, out = argv
    for i, (command, config) in enumerate(zip(steps[::2], steps[1::2])):
        step = f"{i}-{Path(config).stem}-{command}"
        code = cli.main([command, "--config", config, "--out", f"{out}/{step}"])
        print(f"{step}: exit {code}")
    return 0


def script_main(name: str) -> Main:
    """The main(argv) of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def cases(config_dir: Path) -> dict[str, tuple[Main, list[str]]]:
    """Case name -> (the main it runs, its arguments without --out); the scenarios
    the matrix generates are written to config_dir."""
    from spdcpol import cli
    from spdcpol.config import PRESETS

    matrix: dict[str, tuple[Main, list[str]]] = {}
    for path in sorted(CONFIGS.glob("*.json")):
        for command in COMMANDS:
            matrix[f"{path.stem}-{command}"] = (cli.main, [command, "--config", str(path)])
    for command in COMMANDS:
        matrix[f"defaults-{command}"] = (cli.main, [command])
    for name in sorted(PRESETS):
        for command in ("fringe", "chsh", "s-curve", "delay-scan"):
            matrix[f"{name}-{command}"] = (cli.main, [command, "--preset", name, "--runs", "300"])
    for stem, (scenario, commands) in GENERATED.items():
        path = config_dir / f"{stem}.json"
        path.write_text(json.dumps(scenario))
        for command in commands:
            matrix[f"{stem}-{command}"] = (cli.main, [command, "--config", str(path)])
    steps: list[str] = []
    for n_points in SEQUENCE_GRIDS:
        path = config_dir / f"sequence-grid{n_points}.json"
        path.write_text(json.dumps({"grid": {"n_points": n_points}}))
        for command in SPECTRAL_COMMANDS:
            steps += [command, str(path)]
    matrix["sequence-in-one-process"] = (run_sequence, steps)
    for stem, (script, argv) in SCRIPTS.items():
        matrix[f"script-{stem}"] = (script_main(script), argv)
    return matrix


def environment() -> dict[str, str]:
    """The stamp of a golden manifest: what else may move an output byte."""
    python, machine = platform.python_version(), platform.machine()
    return {"python": python, "numpy": numpy.__version__, "machine": machine}


def run_in_process(main: Main, argv: list[str], workdir: Path) -> dict[str, str]:
    """One case, main([*argv, "--out", "out"]) in workdir, its stdout, stderr and
    exit code written beside its outputs; the SHA-256 of each file by relative path."""
    workdir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", "out"])
    finally:
        os.chdir(cwd)
    (workdir / "stdout.txt").write_text(stdout.getvalue())
    (workdir / "stderr.txt").write_text(stderr.getvalue())
    (workdir / "exit_code.txt").write_text(f"{code}\n")
    files = {p.relative_to(workdir).as_posix(): p for p in workdir.rglob("*") if p.is_file()}
    return {rel: hashlib.sha256(p.read_bytes()).hexdigest() for rel, p in sorted(files.items())}


def golden_digests(base: Path) -> dict[str, dict[str, str]]:
    """Case name -> run_in_process digests, for each case of the matrix, run under
    the empty directory base."""
    (base / "configs").mkdir()
    return {
        name: run_in_process(main, argv, base / "cases" / name)
        for name, (main, argv) in cases(base / "configs").items()
    }


def check(base: Path) -> list[str]:
    """What keeps the matrix, run under the empty directory base, from matching the
    manifest: both stamps when they differ, else each case/file whose digest
    differs or that only one side has."""
    golden, here = json.loads(GOLDEN.read_text()), environment()
    if golden["environment"] != here:
        return [
            f"golden_outputs.json was made on {golden['environment']}; this is {here}. "
            "Regenerate it with: python3 scripts/compare_outputs.py --write-golden"
        ]
    expected, got = (
        {f"{case}/{rel}": sha for case, files in table.items() for rel, sha in files.items()}
        for table in (golden["cases"], golden_digests(base))
    )
    keys = sorted(expected.keys() | got.keys())
    return [f"differs: {key}" for key in keys if expected.get(key) != got.get(key)]


def write_golden(base: Path) -> int:
    digests = golden_digests(base)
    for name in digests:
        code = (base / "cases" / name / "exit_code.txt").read_text().strip()
        if not code.lstrip("-").isdigit():
            print(f"{name}: exit code {code} is not an integer; not written", file=sys.stderr)
            return 1
    manifest = {"environment": environment(), "cases": digests}
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    files = sum(map(len, digests.values()))
    print(f"wrote {GOLDEN.relative_to(REPO)}: {len(digests)} cases, {files} files")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-golden", action="store_true", help="write the manifest instead")
    args = parser.parse_args()
    sys.path.insert(0, str(REPO / "src"))
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        if args.write_golden:
            return write_golden(Path(tmp))
        problems = check(Path(tmp))
    print("\n".join(problems) or f"outputs match {GOLDEN.relative_to(REPO)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
