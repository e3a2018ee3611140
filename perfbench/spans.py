"""Layer tracing of the spdcpol package from outside it.

`Tracer.install` wraps every binding of each layer module's public
functions (the module's `__all__`, or its public names where it has none),
plus the public methods of `ScenarioConfig` and `ResultRecord`, which carry
the config and output stages. Bindings are replaced wherever they live:
module globals of every `spdcpol.*` module (runners imports state and
counting functions by name) and module-level dicts (the CLI's runner
table). A span is (request, parent, function, start, end, work, error),
kept in memory and written out by `dump`. The layer of a span is the module
that defines the function, so a rename inside a layer keeps its metric.

`summarize` turns one pass's spans into the per-layer metrics: self time
(span time minus child spans), calls and errors for each layer, plus the
stage times and work counts listed in STAGES and WORK.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "config", "runners", "spectral", "state", "polarimetry", "counting")
_METHOD_CLASSES = {"config": ("ScenarioConfig",), "runners": ("ResultRecord",)}


# Work units recorded per call, from arguments and return value. Functions
# not listed record nothing; their calls are counted from the spans. The
# overlap functions record [delays, delays x grid points]; the second is the
# direct-sum operation count, computed, not measured.
_WORK = {
    "spectral.build_jsa": lambda args, ret: ret.grid.n_points,
    "state.overlap_integral": lambda args, ret: [1, args[0].grid.n_points],
    "state.overlap_magnitudes": lambda args, ret: [ret.size, ret.size * args[0].grid.n_points],
    "polarimetry.coincidence_prob": lambda args, ret: 1,
    "polarimetry.fringe_scan": lambda args, ret: ret.probabilities.size,
    "counting.simulate_counts": lambda args, ret: ret.size,
    "counting.measure_accidentals": lambda args, ret: ret.size,
    "counting.simulate_count_table": lambda args, ret: ret.counts.size,
    "runners.ResultRecord.write": lambda args, ret: [
        sum(p.stat().st_size for p in ret),
        sum(len(t["rows"]) for t in args[0].tables.values()),
    ],
}
# Stage times: summed time of the outermost calls of each function group.
STAGES = {
    "spectral.build_jsa_s": ("spectral.build_jsa",),
    "state.optimal_delay_s": ("state.optimal_delay",),
    "state.overlap_s": ("state.overlap_integral", "state.overlap_magnitudes"),
    "config.resolve_state_s": ("config.ScenarioConfig.resolve_state",),
    "polarimetry.fit_s": ("polarimetry.fit_fringe",),
    "counting.draw_s": (
        "counting.simulate_counts",
        "counting.measure_accidentals",
        "counting.simulate_count_table",
    ),
    "counting.chsh_estimate_s": ("counting.chsh_from_counts",),
    "runners.write_s": ("runners.ResultRecord.write",),
}
# Work counts: (functions, index into the recorded work or "calls").
WORK = {
    "spectral.grid_points": (("spectral.build_jsa",), 0),
    "state.delay_evals": (("state.overlap_integral", "state.overlap_magnitudes"), 0),
    "state.overlap_terms": (("state.overlap_integral", "state.overlap_magnitudes"), 1),
    "polarimetry.fits": (("polarimetry.fit_fringe",), "calls"),
    "polarimetry.prob_evals": (("polarimetry.coincidence_prob", "polarimetry.fringe_scan"), 0),
    "counting.poisson_draws": (
        ("counting.simulate_counts", "counting.measure_accidentals", "counting.simulate_count_table"),
        0,
    ),
    "counting.seeds_derived": (("counting.derive_seed",), "calls"),
    "runners.bytes_written": (("runners.ResultRecord.write",), 0),
    "runners.rows_written": (("runners.ResultRecord.write",), 1),
}


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


class Tracer:
    """Span recorder; one per traced pass, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        extract = _WORK.get(qualname)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (self.request, parent, fid, start, end, 0, 1)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (self.request, parent, fid, start, end, extract(args, ret) if extract else 0, 0)
            return ret

        return wrapper

    def install(self, package: str = "spdcpol") -> None:
        """Wrap the layer functions and rebind every reference to them."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[obj] = self._wrap(obj, f"{layer}.{name}")
            for cls_name in _METHOD_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        setattr(cls, name, self._wrap(obj, f"{layer}.{cls_name}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, name, replaced[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replaced:
                            value[key] = replaced[item]

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"names": self.names, "spans": self.spans}))


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its dumped spans."""
    names = trace["names"]
    spans = trace["spans"]
    qual = [names[s[2]] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.errors"] = 0
    for i, s in enumerate(spans):
        layer = qual[i].split(".", 1)[0]
        out[f"{layer}.self_s"] += (s[4] - s[3]) - child_time[i]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.errors"] += s[6]

    def outermost(i: int, group: tuple[str, ...]) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if qual[parent] in group:
                return False
            parent = spans[parent][1]
        return True

    for metric, group in STAGES.items():
        out[metric] = sum(
            s[4] - s[3] for i, s in enumerate(spans) if qual[i] in group and outermost(i, group)
        )
    for metric, (group, field) in WORK.items():
        total = 0
        for i, s in enumerate(spans):
            if qual[i] in group:
                work = s[5]
                total += 1 if field == "calls" else (work[field] if isinstance(work, list) else work)
        out[metric] = total
    return out
