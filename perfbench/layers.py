"""Per-layer metrics from traced operations.

Self time and call timings come from spans; counts (rows, bytes, grid
points, RK4 steps, fit evaluations) come from each operation's outputs.
"""

from __future__ import annotations

from collections import defaultdict

import stats
from tracing import LAYERS


class Summary:
    """Totals over a set of traced operations."""

    def __init__(self, ops):
        self.n_ops = len(ops)
        self.layer_self = defaultdict(float)
        self.layer_errors = defaultdict(int)
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, inclusive s, self s
        self.counts = defaultdict(list)
        self.self_with = defaultdict(float)  # (layer, count key) -> self s of ops holding that count
        for op in ops:
            selfs = stats.self_times(op.spans)
            for s in op.spans:
                self.layer_self[s["layer"]] += selfs[s["id"]]
                for key in op.counts:
                    self.self_with[s["layer"], key] += selfs[s["id"]]
                call = self.calls[s["name"]]
                call[0] += 1
                call[1] += s["end"] - s["start"]
                call[2] += selfs[s["id"]]
                if s["error"]:
                    self.layer_errors[s["layer"]] += 1
            for key, value in op.counts.items():
                self.counts[key].extend(value if isinstance(value, list) else [value])

    def has(self, *needs) -> bool:
        """needs: layer names, 'call:<span name>' or 'count:<key>'."""
        for need in needs:
            kind, _, name = need.partition(":")
            if kind == "call" and self.calls[name][0] == 0:
                return False
            if kind == "count" and not self.counts.get(name):
                return False
            if not name and self.layer_self.get(need, 0.0) <= 0.0:
                return False
        return True

    def per_op(self, layer: str) -> float:
        return self.layer_self[layer] / self.n_ops

    def mean(self, key: str) -> float:
        values = self.counts[key]
        return sum(values) / len(values)

    def total(self, key: str) -> float:
        return float(sum(self.counts[key]))

    def mean_call(self, name: str) -> float:
        calls, inclusive, _ = self.calls[name]
        return inclusive / calls


def _timedomain_step_s(s: Summary) -> float:
    lockin = s.calls["timedomain.lockin_demodulate"][2]
    steps = s.total("steps_pulse") + s.total("steps_opt") + s.total("steps_mw")
    return (s.layer_self["timedomain"] - lockin) / steps


def _nfev_total(s: Summary) -> float:
    return sum(s.total(f"nfev.{k}") for k in ("doublet", "s11", "step", "power")
               if s.counts.get(f"nfev.{k}"))


# name -> (unit, what the summary must hold, census item that provides it, value)
LAYER_METRICS = {
    "cli.rows": ("count", ("cli", "count:rows"), "cli", lambda s: s.mean("rows")),
    "cli.bytes": ("bytes", ("cli", "count:bytes"), "cli", lambda s: s.mean("bytes")),
    "cli.us_per_row": ("us", ("cli", "count:rows"), "cli",
                       lambda s: 1e6 * s.layer_self["cli"] / s.total("rows")),
    "response.points": ("count", ("response", "count:points"), "model", lambda s: s.mean("points")),
    "response.ns_per_point": ("ns", ("response", "count:points"), "model",
                              lambda s: 1e9 * s.self_with["response", "points"] / s.total("points")),
    "sfg.evals": ("count", ("count:sfg_evals",), "model", lambda s: s.mean("sfg_evals")),
    "sfg.mason_us_per_eval": ("us", ("call:sfg.mason_gain",), "model",
                              lambda s: 1e6 * s.mean_call("sfg.mason_gain")),
    "sfg.solve_us_per_eval": ("us", ("call:sfg.solve_gain",), "model",
                              lambda s: 1e6 * s.mean_call("sfg.solve_gain")),
    "hybridize.operating_point_us": ("us", ("call:hybridize.operating_point",), "model",
                                     lambda s: 1e6 * s.mean_call("hybridize.operating_point")),
    "timedomain.steps_pulse": ("count", ("count:steps_pulse",), "time-domain",
                               lambda s: s.mean("steps_pulse")),
    "timedomain.steps_opt": ("count", ("count:steps_opt",), "time-domain",
                             lambda s: s.mean("steps_opt")),
    "timedomain.steps_mw": ("count", ("count:steps_mw",), "time-domain",
                            lambda s: s.mean("steps_mw")),
    "timedomain.us_per_step": ("us", ("timedomain", "count:steps_pulse", "count:steps_opt"),
                               "time-domain", lambda s: 1e6 * _timedomain_step_s(s)),
    "timedomain.lockin_samples": ("count", ("count:lockin_samples",), "time-domain",
                                  lambda s: s.mean("lockin_samples")),
    "timedomain.lockin_ns_per_sample": (
        "ns", ("call:timedomain.lockin_demodulate", "count:lockin_samples"), "time-domain",
        lambda s: 1e9 * s.calls["timedomain.lockin_demodulate"][2] / s.total("lockin_samples")),
    "calibrate.nfev.doublet": ("count", ("count:nfev.doublet",), "fit",
                               lambda s: s.mean("nfev.doublet")),
    "calibrate.nfev.s11": ("count", ("count:nfev.s11",), "fit", lambda s: s.mean("nfev.s11")),
    "calibrate.nfev.step": ("count", ("count:nfev.step",), "fit", lambda s: s.mean("nfev.step")),
    "calibrate.us_per_residual": ("us", ("calibrate", "count:nfev.doublet", "count:nfev.s11"),
                                  "fit", lambda s: 1e6 * s.layer_self["calibrate"] / _nfev_total(s)),
}
SELF_CENSUS = {"cli": "cli", "config": "cli", "hybridize": "model", "response": "model",
               "quantumstats": "model", "sfg": "model", "timedomain": "time-domain",
               "calibrate": "fit"}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = (
        "s", (_layer,), SELF_CENSUS[_layer], lambda s, _l=_layer: s.per_op(_l))


def census_needed(summary: Summary) -> set:
    """Census items that must run because the workload left metrics unmeasured."""
    return {item for _, needs, item, _ in LAYER_METRICS.values() if not summary.has(*needs)}


def layer_values(summary: Summary, census: dict) -> tuple[dict, dict]:
    """Values of every LAYER_METRICS entry and, per metric, where it came
    from: the workload itself or the named census item."""
    values, source = {}, {}
    for name, (_, needs, item, fn) in LAYER_METRICS.items():
        if summary.has(*needs):
            values[name], source[name] = fn(summary), "workload"
        else:
            values[name], source[name] = fn(census[item]), f"census:{item}"
    return values, source
