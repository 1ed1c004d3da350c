"""moptrans benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout for S seconds as a
closed loop with one client, checks every output, and prints as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  The line before it is a JSON record of the
run: seed, input digest, output digests, versions, load average and the
benchmark's own overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)  # before numpy loads, inherited by every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
INTERP_SAMPLES = 3
WARM_VERB_ROUNDS = 128
FIT_ROUND_EVERY = 4  # a fit sample every fourth round, 32 per run (FIT_DATASETS / FITS_PER_ROUND)
CENSUS_OPS = {"cli": 4, "model": 8, "time-domain": 1, "fit": 20}

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "spectrum_p50_s": "s",
    "power_sweep_p50_s": "s",
    "budget_p50_s": "s",
    "fit_p50_s": "s",
    "peak_rss_mb": "MB",
}


def missing_program() -> str | None:
    for rel in ("src/moptrans/__init__.py", "src/moptrans/cli.py", "configs/paper_device.toml"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}: run from the root of a moptrans checkout"
    return None


def per_layer_units() -> dict:
    import layers

    units = {
        "import.interp_s": "s",
        "import.cli_s": "s",
        "import.modules": "count",
        "import.scipy_modules": "count",
        "config.load_s": "s",
        "calibrate.coverage_3sigma": "ratio",
        "trace.overhead_s": "s",
        "op_p90_s": "s",
        "fail_ratio": "ratio",
    }
    units.update({name: spec[0] for name, spec in layers.LAYER_METRICS.items()})
    return units


def setup_probe() -> dict:
    """One fresh interpreter that imports moptrans.cli and loads the paper
    config: spawn-to-ready wall time plus the child's own timings."""
    from workloads import CONFIG, SRC, run_child

    res = run_child([sys.executable, str(HERE / "child.py"), "setup", str(CONFIG)],
                    ready_line="ready")
    if res.code != 0 or res.ready is None:
        raise RuntimeError(f"set-up probe failed (exit {res.code}): {res.stderr.strip()[-300:]}")
    record = json.loads(res.stdout.splitlines()[-1])
    if not Path(record["moptrans_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported moptrans from {record['moptrans_file']}, not {SRC}")
    record["ready_s"] = res.ready
    return record


def run_loop(workload, seconds: float, tracer, side_tasks=()) -> tuple[list, float]:
    """Closed loop, one client: the next operation starts when the last one
    ends.  Traced runs alternate traced and untraced operations (whole verb
    cycles on cli-cold) so the tracing overhead is measured side by side.

    `side_tasks` are (fraction, task) pairs: set-up probes and warm verb
    rounds that run between operations once that fraction of the measuring
    time has passed, so that they sample the same stretch of machine time
    as the operations.  Their own time does not count against `seconds`."""
    from workloads import Op

    ops = []
    pending = sorted(side_tasks, key=lambda pair: pair[0])
    side_s = 0.0
    t_start = time.perf_counter()
    i = 0
    # one full verb cycle on cli-cold, traced and untraced halves when traced
    min_ops = (4 if workload.cold else 1) * (2 if tracer is not None else 1)
    while True:
        measured = time.perf_counter() - t_start - side_s
        while pending and measured >= seconds * pending[0][0]:
            t0 = time.perf_counter()
            pending.pop(0)[1]()
            side_s += time.perf_counter() - t0
        if measured >= seconds and len(ops) >= min_ops:
            break
        traced = tracer is not None and (i // 4 if workload.cold else i) % 2 == 0
        t0 = time.perf_counter()
        try:
            op = workload.op(i, tracer if traced else None)
        except Exception as exc:  # a raise in the program is a failed operation
            op = Op(workload.name, time.perf_counter() - t0, traced, error=f"raised {exc!r}"[:300])
        ops.append(op)
        i += 1
    for _, task in pending:
        task()
    return ops, side_s


def coverage(hits: dict) -> tuple[float, dict]:
    """Lowest per-parameter 3-sigma coverage (criterion 10 gates each
    parameter at 0.95), and all of them."""
    per = {k: sum(v) / len(v) for k, v in hits.items()}
    return min(per.values()), per


def warm_verb_round(verbs, r: int, samples: dict, ops: list) -> None:
    """One round of the CLI verbs through cli.main in this warm process;
    every FIT_ROUND_EVERY-th round also takes a fit sample.  The short verbs
    take a few milliseconds each, so they get more rounds, spread over the
    run, than the fit.  The fit sample is the CLI fit kinds back to back on
    FITS_PER_ROUND fresh datasets, so every sample holds the same mix of
    kinds.  Fit cost depends strongly on the data: the step fit takes about
    30 or about 270 function evaluations, the latter on about two datasets
    in three.  With one or two datasets per sample the median sample sits
    near the edge between two counts of slow fits and jumps between them
    from seed to seed; with three it sits inside the two-slow-fits group."""
    from workloads import CLI_FIT_KINDS, FIT_DATASETS, FITS_PER_ROUND, Op

    for verb in ("spectrum", "power-sweep", "budget"):
        op = verbs.run_warm(verb)
        ops.append(op)
        samples[verb].append(op)
    if r % FIT_ROUND_EVERY:
        return
    first = r // FIT_ROUND_EVERY * FITS_PER_ROUND
    fits = [verbs.run_warm(f"fit {kind}@{(first + d) % FIT_DATASETS}")
            for d in range(FITS_PER_ROUND) for kind in CLI_FIT_KINDS]
    ops.extend(fits)
    errors = [op.error for op in fits if op.error]
    samples["fit"].append(Op("fit", sum(op.seconds for op in fits),
                             error=errors[0] if errors else None))


def run_census(items, seed: int, tracer) -> dict:
    """Traced warm operations for layers the workload itself never reaches.
    Returns item -> (summary, ops, workload or None)."""
    import workloads
    from layers import Summary

    census = {}
    for item in sorted(items):
        if item == "cli":
            wl = None
            verbs = workloads.Verbs(seed, workloads.CONFIG, workloads.InputLog())
            ops = []
            for k in range(CENSUS_OPS[item]):
                first = len(tracer.spans)
                with tracer.installed(f"census-cli-{k}"):
                    op = verbs.run_warm("spectrum")
                op.spans = tracer.spans[first:]
                ops.append(op)
        else:
            wl = {"model": workloads.ModelWarm, "time-domain": workloads.TimeDomainWarm,
                  "fit": workloads.FitWarm}[item](seed)
            ops = [wl.op(10**6 + k, tracer) for k in range(CENSUS_OPS[item])]
        census[item] = (Summary(ops), ops, wl)
    return census


def run(workload_name: str, seed: int, seconds: float, trace: bool, config=None) -> tuple[dict, dict]:
    """One benchmark run; returns (run record, result object)."""
    import layers
    import stats
    import workloads
    from tracing import Tracer
    from workloads import run_child

    load_before = os.getloadavg()
    t_start = time.perf_counter()
    shutil.rmtree(workloads.OUT, ignore_errors=True)
    workloads.OUT.mkdir()
    wl = workloads.WORKLOADS[workload_name](seed, config or workloads.CONFIG)

    setup = []
    # (fraction of the measuring time at which it is due, task)
    side_tasks = [(k / SETUP_SAMPLES, lambda: setup.append(setup_probe()))
                  for k in range(SETUP_SAMPLES)]
    record = {}
    samples = {verb: [] for verb in workloads.VERB_METRICS}
    extra_ops = []
    if not trace and not wl.cold:
        probe_verbs = workloads.Verbs(seed, wl.config, wl.inputs, workloads.FIT_DATASETS)
        side_tasks += [
            ((r + 0.5) / WARM_VERB_ROUNDS,
             lambda r=r: warm_verb_round(probe_verbs, r, samples, extra_ops))
            for r in range(WARM_VERB_ROUNDS)]
    t0 = time.perf_counter()
    interp = [run_child([sys.executable, "-c", "pass"]).wall for _ in range(INTERP_SAMPLES)] if trace else []
    probe_s = time.perf_counter() - t0

    tracer = Tracer() if trace else None
    ops, side_s = run_loop(wl, seconds, tracer, side_tasks)
    probe_s += side_s
    peak_rss_kb = wl.peak_rss_kb if wl.cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if not trace:
        if wl.cold:
            for op in ops:
                samples[op.key.split()[0]].append(op)
        metrics = {
            "setup_s": stats.median(r["ready_s"] for r in setup),
            "op_p50_s": stats.median(times(ops)),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
        for verb, name in workloads.VERB_METRICS.items():
            metrics[name] = stats.median(times(samples[verb]))
        record["samples"] = {"ops": len(ops), **{v: len(o) for v, o in samples.items()}}
        if not wl.cold:
            # one digest over every warm verb output, keyed by verb and dataset
            lines = "".join(f"{k} {v}\n" for k, v in sorted(probe_verbs.digests.items()))
            record["warm_verbs_sha256"] = hashlib.sha256(lines.encode()).hexdigest()
        units = END_TO_END
    else:
        traced = [op for op in ops if op.traced]
        untraced = [op for op in ops if not op.traced]
        summary = layers.Summary(traced)
        # the coverage figure always needs criterion-10 fits
        needed = layers.census_needed(summary) | {"fit"}
        t0 = time.perf_counter()
        census = run_census(needed, seed, tracer)
        probe_s += time.perf_counter() - t0
        for _, census_ops, _ in census.values():
            extra_ops.extend(census_ops)
        metrics, sources = layers.layer_values(summary, {k: v[0] for k, v in census.items()})
        metrics["calibrate.coverage_3sigma"], record["coverage_3sigma"] = coverage(census["fit"][2].hits)
        metrics.update({
            "import.interp_s": stats.median(interp),
            "import.cli_s": stats.median(r["import_s"] for r in setup),
            "import.modules": stats.median(r["modules"] for r in setup),
            "import.scipy_modules": stats.median(r["scipy_modules"] for r in setup),
            "config.load_s": stats.median(r["load_s"] for r in setup),
            "trace.overhead_s": stats.median(times(traced)) - stats.median(times(untraced)),
            "op_p90_s": stats.percentile(times(untraced), 90.0),
        })
        record["samples"] = {"traced": len(traced), "untraced": len(untraced)}
        record["layer_sources"] = sources
        record["layer_errors"] = dict(summary.layer_errors)
        units = per_layer_units()

    all_ops = ops + extra_ops
    failed = [op for op in all_ops if op.error]
    if trace:
        metrics["fail_ratio"] = len(failed) / len(all_ops)
        spans_file = workloads.OUT / f"trace-{workload_name}-{seed}.json"
        spans_file.write_text(json.dumps(tracer.spans + [s for op in ops if wl.cold for s in op.spans]))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    total_s = time.perf_counter() - t_start
    record.update({
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "inputs_sha256": wl.inputs.hexdigest(),
        "inputs_count": wl.inputs.count,
        "output_sha256": getattr(getattr(wl, "verbs", None), "digests", {}),
        "failures": [op.error for op in failed][:10],
        "versions": versions(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "run_s": total_s,
        "probe_s": probe_s,
        "bench_overhead_s": total_s - probe_s - sum(op.seconds for op in ops),
    })
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return record, result


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def times(ops) -> list:
    """Wall times of all attempted operations; a failed check does not drop
    an operation's time, so the sample mix stays the same across seeds."""
    return [op.seconds for op in ops]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    problem = missing_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
