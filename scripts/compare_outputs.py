#!/usr/bin/env python3
"""Run the CLI matrix against two source trees and list every output that differs.

Usage: python3 scripts/compare_outputs.py OLD_SRC NEW_SRC
       python3 scripts/compare_outputs.py --write-golden

OLD_SRC and NEW_SRC are repository roots (holding src/spdcpol) or
directories that hold the spdcpol package itself. Every case runs
`python -m spdcpol.cli`, or a script of the tree, in a fresh process with
the tree's package first on PYTHONPATH, in a working directory of its own,
writing to ./out; the process's stdout, stderr and exit code are kept next
to its outputs, so they are compared too. Prints each file that differs or
exists on one side only, and exits 1 if there is any, else 0.

The matrix:
  - each configs/*.json of this repository with each of the five commands
  - the defaults with each of the five commands
  - each preset with fringe, chsh, s-curve and delay-scan at --runs 300
  - delay-scan, fringe and chsh on a 16385-point grid, on a 12 mm guide, with
    an even count of delays (800) and on a 4099-point grid, whose (N - 1)/2
    is odd
  - chsh and s-curve with CHSH settings no preset or configs/ file sets:
    explicit angles whose signed S is negative (raw-visibility), a
    chsh_theta_deg of 67.5 (paper-calibrated), an off-lattice S(theta) grid
    with phi_bs_rad 0.7, and explicit angles on a spectral state at a set
    state.tau_fs
  - three known defects: angles echoed as configured (fringe with
    run.fringe_theta1_deg [0, 12], chsh with run.chsh_angles_deg.theta1 12),
    the fringe grid checked at load (budget and delay-scan on a
    run.fringe_theta2_deg scan of 0..90 degrees) and delays echoed as
    configured (fringe with state.tau_fs 30.1, delay-scan on a
    run.delay_scan_fs scan of 10.1..40.1 fs in steps of 0.1 fs)
  - one sequence case: delay-scan, fringe and chsh on 4097-, 16385- and then
    8193-point grids through spdcpol.cli.main in one interpreter, one
    output directory per step, so that a call runs after the state earlier
    calls of the same process left behind
  - when both trees are repository roots, each tree's own
    scripts/bandwidth_delay_study.py and scripts/reproduce_results.py

--write-golden runs every case of the matrix that is one spdcpol.cli.main
call (all but the sequence and script cases) in this process, on the package
of this repository, and writes the SHA-256 of each file the case leaves, its
stdout, stderr and exit code included, to tests/golden_outputs.json, stamped
with the python and numpy versions and the machine. A test reruns the same
cases against that manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

COMMANDS = ("fringe", "delay-scan", "chsh", "s-curve", "budget")
SPECTRAL_COMMANDS = ("delay-scan", "fringe", "chsh")
GENERATED = {
    "grid16385": {"grid": {"n_points": 16385}},
    "guide12mm": {"dispersion": {"length_mm": 12.0}},
    "delays800": {"run": {"delay_scan_fs": {"start": -178.0, "stop": 221.5, "step": 0.5}}},
    "grid4099": {"grid": {"n_points": 4099}},
}
CHSH_COMMANDS = ("chsh", "s-curve")
CHSH_GENERATED = {
    "chsh-angles-negative": {
        "preset": "raw-visibility",
        "run": {"chsh_angles_deg": {"theta1": 90, "theta1p": 45, "theta2": 22.5, "theta2p": 67.5}},
    },
    "chsh-theta67": {"preset": "paper-calibrated", "run": {"chsh_theta_deg": 67.5}},
    "s-curve-offlattice": {
        "state": {"phi_bs_rad": 0.7},
        "run": {"s_curve_theta_deg": {"start": -37.1, "stop": 91.3, "step": 1.3}},
    },
    "chsh-spectral-tau": {
        "state": {"tau_fs": 25.0},
        "run": {"chsh_angles_deg": {"theta1": 10, "theta1p": -35, "theta2": -22.5, "theta2p": 22}},
    },
}
DEFECT_GENERATED = {  # stem -> (scenario, commands)
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
}
SCRIPTS = ("bandwidth_delay_study.py", "reproduce_results.py")
SEQUENCE_GRIDS = (4097, 16385, 8193)  # grows, then shrinks, what one process keeps
# The sequence case: argv holds (command, config) pairs, then --out DIR.
SEQUENCE = """
import sys
from pathlib import Path
from spdcpol import cli
*steps, _, out = sys.argv[1:]
for i, (command, config) in enumerate(zip(steps[::2], steps[1::2])):
    step = f"{i}-{Path(config).stem}-{command}"
    code = cli.main([command, "--config", config, "--out", f"{out}/{step}"])
    print(f"{step}: exit {code}", flush=True)
"""
REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden_outputs.json"


def package_root(tree: Path) -> Path:
    """The directory to put on PYTHONPATH for `tree`."""
    for root in (tree / "src", tree):
        if (root / "spdcpol" / "__init__.py").is_file():
            return root
    raise SystemExit(f"no spdcpol package under {tree}")


def presets(root: Path) -> list[str]:
    code = "from spdcpol.config import PRESETS; print(' '.join(sorted(PRESETS)))"
    result = _python(root, ["-c", code], cwd=None)
    if result.returncode != 0:
        raise SystemExit(f"cannot list the presets of {root}:\n{result.stderr}")
    return result.stdout.split()


def cases(config_dir: Path, preset_names: list[str], scripts: bool) -> dict[str, list[str]]:
    """Case name -> CLI arguments (without --out); a script case's first argument is
    the script, named relative to the tree's scripts/ directory, and the sequence
    case's are "-c" and its program."""
    matrix: dict[str, list[str]] = {}
    for path in sorted(CONFIGS.glob("*.json")):
        for command in COMMANDS:
            matrix[f"{path.stem}-{command}"] = [command, "--config", str(path)]
    for command in COMMANDS:
        matrix[f"defaults-{command}"] = [command]
    for name in preset_names:
        for command in ("fringe", "chsh", "s-curve", "delay-scan"):
            matrix[f"{name}-{command}"] = [command, "--preset", name, "--runs", "300"]
    generated = [
        *((stem, scenario, SPECTRAL_COMMANDS) for stem, scenario in GENERATED.items()),
        *((stem, scenario, CHSH_COMMANDS) for stem, scenario in CHSH_GENERATED.items()),
        *((stem, *scenario_commands) for stem, scenario_commands in DEFECT_GENERATED.items()),
    ]
    for stem, scenario, commands in generated:
        path = config_dir / f"{stem}.json"
        path.write_text(json.dumps(scenario))
        for command in commands:
            matrix[f"{stem}-{command}"] = [command, "--config", str(path)]
    steps: list[str] = []
    for n_points in SEQUENCE_GRIDS:
        path = config_dir / f"sequence-grid{n_points}.json"
        path.write_text(json.dumps({"grid": {"n_points": n_points}}))
        for command in SPECTRAL_COMMANDS:
            steps += [command, str(path)]
    matrix["sequence-in-one-process"] = ["-c", SEQUENCE, *steps]
    if scripts:
        for script in SCRIPTS:
            matrix[f"script-{Path(script).stem}"] = [script]
    return matrix


def _python(root: Path, args: list[str], cwd: Path | None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=False
    )


def run_case(root: Path, argv: list[str], workdir: Path) -> None:
    """One case in workdir; a script case runs the script of the tree that holds root,
    a "-c" case its program in one interpreter."""
    workdir.mkdir(parents=True)
    if argv[0] in SCRIPTS:
        program = [str(root.parent / "scripts" / argv[0]), *argv[1:]]
    elif argv[0] == "-c":
        program = argv
    else:
        program = ["-m", "spdcpol.cli", *argv]
    result = _python(root, [*program, "--out", "out"], cwd=workdir)
    (workdir / "stdout.txt").write_text(result.stdout)
    (workdir / "stderr.txt").write_text(result.stderr)
    (workdir / "exit_code.txt").write_text(f"{result.returncode}\n")


def files_under(directory: Path) -> set[Path]:
    return {p.relative_to(directory) for p in directory.rglob("*") if p.is_file()}


def environment() -> dict[str, str]:
    """The stamp of a golden manifest: what else may move an output byte."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_in_process(argv: list[str], workdir: Path) -> dict[str, str]:
    """One CLI case through spdcpol.cli.main in this process, in workdir, leaving
    what run_case leaves; the SHA-256 of each of those files by relative path."""
    from spdcpol import cli

    workdir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", "out"])
    finally:
        os.chdir(cwd)
    (workdir / "stdout.txt").write_text(stdout.getvalue())
    (workdir / "stderr.txt").write_text(stderr.getvalue())
    (workdir / "exit_code.txt").write_text(f"{code}\n")
    return {
        rel.as_posix(): hashlib.sha256((workdir / rel).read_bytes()).hexdigest()
        for rel in sorted(files_under(workdir))
    }


def golden_digests(base: Path) -> dict[str, dict[str, str]]:
    """Case name -> run_in_process digests, for each case of the matrix that is one
    spdcpol.cli.main call, run under the empty directory base."""
    from spdcpol.config import PRESETS

    (base / "configs").mkdir()
    matrix = cases(base / "configs", sorted(PRESETS), scripts=False)
    return {
        name: run_in_process(argv, base / "cases" / name)
        for name, argv in matrix.items()
        if argv[0] in COMMANDS
    }


def write_golden() -> int:
    sys.path.insert(0, str(REPO / "src"))
    with tempfile.TemporaryDirectory(prefix="golden_outputs_") as tmp:
        digests = golden_digests(Path(tmp))
    manifest = {"environment": environment(), "cases": digests}
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    files = sum(map(len, digests.values()))
    print(f"wrote {GOLDEN.relative_to(REPO)}: {len(digests)} cases, {files} files")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, nargs="?", help="source tree of the reference outputs")
    parser.add_argument("new", type=Path, nargs="?", help="source tree to compare against it")
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="write tests/golden_outputs.json from this repository instead of comparing",
    )
    args = parser.parse_args()
    if args.write_golden:
        return write_golden()
    if args.new is None:
        parser.error("OLD and NEW are required unless --write-golden is given")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    roots = {side: package_root(tree) for side, tree in trees.items()}

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        base = Path(tmp)
        (base / "configs").mkdir()
        scripts = all(roots[side] == tree / "src" for side, tree in trees.items())
        matrix = cases(base / "configs", presets(roots["new"]), scripts)
        for name, argv in matrix.items():
            for side, root in roots.items():
                run_case(root, argv, base / side / name)
        old_files, new_files = files_under(base / "old"), files_under(base / "new")
        differing = sorted(
            str(rel)
            for rel in old_files | new_files
            if rel not in old_files
            or rel not in new_files
            or (base / "old" / rel).read_bytes() != (base / "new" / rel).read_bytes()
        )
    for rel in differing:
        print(f"differs: {rel}")
    print(f"{len(matrix)} cases, {len(old_files | new_files)} files, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
