#!/usr/bin/env python3
"""spdcpol benchmark: scenario passes of the CLI, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each pass of a workload runs its generated scenario list in order in one
fresh worker interpreter (`worker.py`), one worker at a time, so no state
carries from one pass to the next. Passes repeat until --seconds is spent
(at least MIN_PASSES). Every invocation's outputs are checked against
closed forms and, byte for byte, against the run's first pass.

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones plus the tracing overhead. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record, with the seed, every generated config and argv, and the
environment, goes to .perfbench/<workload>/seed-<n>-trace-<t>/record.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import speed
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
WORKER_TIMEOUT_S = 120.0

# The gated pass time is in reference seconds (speed.py): each invocation
# is scaled by machine-speed probes timed right before and after it,
# because other tenants of a shared host slow the whole machine in
# stretches longer than a run. The wall-clock pass time and the pooled
# per-invocation times are still reported (REPORTED) but are not gated.
UNITS = {"setup_s": "s", "pass_scaled_s": "s", "peak_rss_mb": "MB"}
REPORTED_UNITS = {"pass_s": "s", "scenario_s_p50": "s", "scenario_s_p90": "s", "probe_s": "s"}


class WorkerError(RuntimeError):
    """A worker did not come up or did not finish its pass."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of `values`."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest quantile up to 0.9 with at least ten of n samples beyond it,
    floored at the median when n < 20."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in BLAS_VARS})
    return env


class Run:
    """One benchmark run of one workload: its work directory, passes, record."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = WORK_ROOT / workload / f"seed-{seed}-trace-{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        self.scenarios = workloads.generate(workload, seed)
        self.plan = []
        for sc in self.scenarios:
            config_path = self.work / "configs" / f"{sc['name']}.json"
            config_path.write_text(json.dumps(sc["config"], indent=2, sort_keys=True) + "\n")
            argv = [*sc["argv"], "--config", str(config_path.relative_to(ROOT))]
            self.plan.append({"name": sc["name"], "argv": argv})
        self.plan_path = self.work / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan, indent=2) + "\n")
        self.env = worker_env()
        self.reference_digests: dict[str, str] = {}
        self.passes: list[dict] = []
        self.setup: list[float] = []  # seconds to "ready" of every timed worker start

    def spawn(self, result: Path, out_root: Path | None = None, trace: Path | None = None) -> float:
        """Run a worker to completion; return the seconds until it was ready."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.plan_path), str(result)]
        if out_root is None:
            cmd.append("--setup-only")
        else:
            cmd += ["--out-root", str(out_root)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        start = time.perf_counter()
        with open(self.work / "worker.stderr", "ab") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                readable, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
                line = proc.stdout.readline() if readable else b""
                ready = time.perf_counter() - start
                rc = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                rc = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if line.strip() != b"ready" or rc != 0:
            raise WorkerError(f"worker ended with {rc} (see {self.work / 'worker.stderr'})")
        return ready

    def run_pass(self, traced: bool) -> None:
        k = len(self.passes)
        pass_dir = self.work / f"pass-{k:02d}"
        result_path = self.work / f"result-{k:02d}.json"
        spans_path = self.work / "spans.json" if traced else None
        setup_s = self.spawn(result_path, out_root=pass_dir, trace=spans_path)
        self.setup.append(setup_s)
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result.update(index=k, traced=traced, setup_s=setup_s)
        for sc, inv in zip(self.scenarios, result["invocations"]):
            inv["failures"], inv["known_defect_misses"] = self.check(sc, inv, pass_dir / sc["name"])
        if traced:
            result["layers"] = spans.summarize(json.loads(spans_path.read_text()))
        if k > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes.append(result)

    def check(self, scenario: dict, inv: dict, out_dir: Path) -> tuple[list[str], list[str]]:
        name = scenario["name"]
        if inv["rc"] != 0:
            last_line = (inv["error"].strip().splitlines() or [""])[-1]
            return [f"{name}: exit {inv['rc']}: {last_line}"], []
        failures, misses = checks.check_scenario(scenario, out_dir)
        found = checks.digest(out_dir)
        want = self.reference_digests.setdefault(name, found)
        if found != want:
            failures.append(f"{name}: outputs differ byte for byte from the first pass of this seed")
        return failures, misses

    def measure(self) -> dict:
        load_before = os.getloadavg()
        self.spawn(self.work / "setup-only.json")  # untimed: compiles bytecode, warms the file cache
        deadline = time.perf_counter() + self.seconds
        longest = 0.0
        while True:
            start = time.perf_counter()
            if self.trace:
                self.run_pass(traced=False)
                self.run_pass(traced=True)
                enough = len(self.passes) >= 2 * MIN_TRACED_PAIRS
            else:
                # one set-up-only start per pass besides the pass's own,
                # so setup_s has two samples per pass
                self.setup.append(self.spawn(self.work / "setup-only.json"))
                self.run_pass(traced=False)
                enough = len(self.passes) >= MIN_PASSES
            longest = max(longest, time.perf_counter() - start)
            if enough and time.perf_counter() + longest > deadline:
                break
        load_after = os.getloadavg()

        untraced = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        invocations = [inv for p in self.passes for inv in p["invocations"]]
        failed = [inv for inv in invocations if inv["failures"]]
        times = [inv["seconds"] for p in untraced for inv in p["invocations"]]
        q = tail_quantile(len(times))
        untraced_pass_s = statistics.median(p["pass_s"] for p in untraced)
        if self.trace:
            metrics = {
                name: statistics.median(p["layers"][name] for p in traced)
                for name in traced[0]["layers"]
            }
            metrics["trace.overhead_frac"] = (
                statistics.median(p["pass_scaled_s"] for p in traced)
                / statistics.median(p["pass_scaled_s"] for p in untraced)
                - 1.0
            )
            units = {name: _layer_unit(name) for name in metrics}
            reported = {}
        else:
            metrics = {
                "setup_s": statistics.median(self.setup),
                "pass_scaled_s": statistics.median(p["pass_scaled_s"] for p in untraced),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            }
            units = UNITS
            reported = {
                "pass_s": untraced_pass_s,
                "scenario_s_p50": percentile(times, 0.5),
                "scenario_s_p90": percentile(times, q),
                "probe_s": statistics.median(t for p in untraced for t in p["probes_s"]),
            }
        first = self.passes[0]
        return {
            "workload": self.workload,
            "why": workloads.WORKLOADS[self.workload],
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "replay": f"python3 perfbench/run.py --workload {self.workload} --seed {self.seed} "
            f"--seconds {self.seconds} --trace {int(self.trace)}",
            "scenarios": [
                {**sc, "argv": p["argv"]} for sc, p in zip(self.scenarios, self.plan)
            ],
            "environment": {
                "python": first["python"],
                "numpy": first["numpy"],
                "blas_threads": first["blas_threads"],
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "platform": platform.platform(),
                "loadavg_before": load_before,
                "loadavg_after": load_after,
            },
            "loop": "closed: one worker at a time, scenarios in order, no threads",
            "waiting": "none: no queue or second thread, so no layer waits",
            "speed_probe_reference_s": speed.REFERENCE_S,
            "setup_samples_s": self.setup,
            "passes": self.passes,
            "samples": {
                "setup_s": len(self.setup),
                "pass_s": len(untraced),
                "scenario_s": len(times),
                "scenario_s_p90_quantile": q,
                "traced_passes": len(traced),
            },
            "attempted": len(invocations),
            "failed": len(failed),
            "failed_frac": len(failed) / len(invocations),
            "failures": sorted({f for inv in failed for f in inv["failures"]}),
            "known_defects": self.known_defects(),
            "trace_self_within_pass": all(
                sum(v for k, v in p["layers"].items() if k.endswith(".self_s")) <= p["pass_s"]
                for p in traced
            ),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            "reported": {
                name: {"value": value, "unit": REPORTED_UNITS[name]} for name, value in reported.items()
            },
        }

    def known_defects(self) -> list[dict]:
        """Each known-defect probe with the distinct misses seen over the run."""
        out = []
        for sc in self.scenarios:
            if "known_defect" not in sc["expect"]:
                continue
            misses = {
                miss
                for p in self.passes
                for inv in p["invocations"]
                if inv["name"] == sc["name"]
                for miss in inv["known_defect_misses"]
            }
            out.append({"scenario": sc["name"], **sc["expect"]["known_defect"], "misses": sorted(misses)})
        return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def report(record: dict) -> None:
    """Human-readable lines: every metric by name and unit, then the checks."""
    samples = record["samples"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']}: {record['why']}"
    )
    env = record["environment"]
    print(
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
        f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
    )
    notes = {
        "setup_s": f"median of {samples['setup_s']} interpreter starts",
        "pass_scaled_s": f"median of {samples['pass_s']} passes, reference seconds",
        "peak_rss_mb": "median over passes",
        "pass_s": f"median of {samples['pass_s']} passes",
        "probe_s": f"median speed probe; the reference is {speed.REFERENCE_S} s",
        "scenario_s_p50": f"{samples['scenario_s']} invocations",
        "scenario_s_p90": f"p{100 * samples['scenario_s_p90_quantile']:.0f} of "
        f"{samples['scenario_s']} invocations (p90 needs 100)",
    }
    for section in ("metrics", "reported"):
        if record[section] and section == "reported":
            print("  reported, not gated:")
        for name, m in record[section].items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  failed_frac {record['failed_frac']:.4g} ({record['failed']} of {record['attempted']} invocations)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for known in record["known_defects"]:
        state = "still present" if known["misses"] else "no longer reproduces"
        print(f"  known defect {known['scenario']} ({known['why']}): {state}")
        for miss in known["misses"]:
            print(f"    {miss}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    record = run.measure()
    (run.work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    print(f"  record: {(run.work / 'record.json').relative_to(ROOT)}")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spdcpol benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spdcpol" / "cli.py").is_file():
        print(f"perfbench: no spdcpol sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
