"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN RESULT [--out-root DIR] [--trace SPANS] [--setup-only]

Imports spdcpol.cli (and with it numpy), loads the plan's first scenario,
then prints "ready" so the parent can time set-up from its side. Unless
--setup-only, it then runs every scenario of the plan in order through
`spdcpol.cli.main`, timing each invocation, with a machine-speed probe
(`speed.py`) before the first invocation and after each, and writes RESULT
as JSON. The pass time is the sum of the invocation times. With
--trace the layer modules are wrapped first and their spans written to
SPANS. Program output goes to in-memory buffers, never to this process's
stdout, which carries only the "ready" line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--out-root", default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    scenarios = json.loads(Path(args.plan).read_text())

    import numpy
    from spdcpol import cli, config

    first = cli.build_parser().parse_args(scenarios[0]["argv"])
    config.load_scenario(config_path=first.config, preset=first.preset, seed=first.seed, runs=first.runs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import speed  # after "ready", so set-up time is the program's alone

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    invocations = []
    probes = [speed.probe()]
    for i, scenario in enumerate(scenarios):
        argv = [*scenario["argv"], "--out", str(Path(args.out_root) / scenario["name"])]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raising invocation is a failed operation: record it, run the rest
            rc = None
            error = traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
        invocations.append(
            {"name": scenario["name"], "seconds": seconds, "rc": rc, "error": error or err.getvalue()}
        )
        probes.append(speed.probe())
    if tracer is not None:
        tracer.dump(Path(args.trace))
    result = {
        "pass_s": sum(inv["seconds"] for inv in invocations),
        "pass_scaled_s": sum(
            speed.scaled(inv["seconds"], probes[i], probes[i + 1]) for i, inv in enumerate(invocations)
        ),
        "probes_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": invocations,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
