"""The four workloads: seeded inputs, one timed operation, and its checks.

Every input is drawn from `np.random.default_rng([seed, i])` for operation
i, so one seed always gives the same inputs; the program sees only the
generated device parameters, data files and offsets.  Each workload hashes
the inputs it hands to the program (`inputs_sha256`).
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    CheckError,
    check_fit_payload,
    finite,
    read_csv,
    read_json,
    relative_close,
    sha256_file,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "paper_device.toml"
OUT = ROOT / ".perfbench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from moptrans import calibrate, cli, hybridize, quantumstats, response, sfg, timedomain  # noqa: E402
from moptrans.config import load_config  # noqa: E402
from moptrans.model import (  # noqa: E402
    DEFAULT_PUMP_OMEGA,
    HBAR,
    TWO_PI,
    Configuration,
    PumpConfig,
    dbm_to_watts,
)

FIT_KINDS = ("doublet", "s11", "step", "power")
# `moptrans fit doublet` reads one spectrum, whose bare-ring decomposition is
# degenerate; the program then writes NaN variances (invalid JSON).  The CLI
# rotation leaves that kind out; the doublet is fitted in-process from a bias
# sweep by FitWarm.
CLI_FIT_KINDS = ("s11", "step", "power")
VERB_METRICS = {
    "spectrum": "spectrum_p50_s",
    "power-sweep": "power_sweep_p50_s",
    "budget": "budget_p50_s",
    "fit": "fit_p50_s",
}
FITS_PER_ROUND = 3  # fit datasets per warm fit sample
FIT_DATASETS = 32 * FITS_PER_ROUND  # fit data files per kind for the warm verb rounds
FIT_FILE_STREAM = 2**31  # rng stream of the CLI fit data, apart from every operation's
CLI_SNIPPET = "import sys; from moptrans.cli import main; sys.exit(main(sys.argv[1:]))"

# criterion-10 shapes and truths
W0 = DEFAULT_PUMP_OMEGA  # 1550 nm
DOUBLET_TRUTH = {
    "kappa_l": TWO_PI * 190e6,
    "kappa_r": TWO_PI * 154e6,
    "kappa_ex": TWO_PI * 60e6,
    "J": TWO_PI * 1.74e9,
    "delta": TWO_PI * 120e6,
}
SWEEP_SLOPE = TWO_PI * 800e6
SWEEP_BIAS = np.linspace(-2.0, 2.0, 7)
S11_TRUTH = {"omega_m": TWO_PI * 3.48e9, "kappa_m": TWO_PI * 3.48e9 / 284}
S11_TRUTH["kappa_ex_m"] = 0.11 * S11_TRUTH["kappa_m"]
STEP_TRUTH = {"amplitude": 1.0, "tau_rc": 30e-9, "t0": 0.1e-6}
C0_TRUTH = 8e-13


@dataclass
class Op:
    """One attempted operation: its timed wall time, the first check it
    failed (None if it passed), counts read from its outputs, and spans if
    it ran traced."""

    key: str
    seconds: float
    traced: bool = False
    error: str | None = None
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def child_env() -> dict:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    return env


@dataclass
class ChildResult:
    wall: float
    code: int
    maxrss_kb: int
    stdout: str
    stderr: str
    ready: float | None = None


def run_child(cmd, ready_line: str | None = None) -> ChildResult:
    """Run one child to completion; wall time from spawn to reaped exit,
    peak RSS from wait4.  With `ready_line`, also time spawn to that line."""
    OUT.mkdir(exist_ok=True)
    err_path = OUT / "child.stderr"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL)
        ready = None
        first = b""
        if ready_line is not None:
            first = proc.stdout.readline()
            if first.strip() == ready_line.encode():
                ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ChildResult(wall, proc.returncode, usage.ru_maxrss,
                       (first + rest).decode("utf-8", "replace"), stderr, ready)


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1][:200] if lines else ""


class InputLog:
    """sha256 over every input array or value handed to the program."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._hash.update(np.ascontiguousarray(item).tobytes())
            else:
                self._hash.update(repr(item).encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def coverage_hits(hits: dict, params: dict, cov: dict, truth: dict, kind: str) -> None:
    """Criterion 10's rule, unchanged: |estimate - truth| <= 3 sigma."""
    for name, value in truth.items():
        sigma = math.sqrt(max(cov[name], 0.0))
        hits.setdefault(f"{kind}.{name}", []).append(abs(params[name] - value) <= 3.0 * sigma)


# ---------------------------------------------------------------------------
# fit data (criterion-10 shapes, 2% noise)
# ---------------------------------------------------------------------------

def power_fixed(cfg) -> dict:
    """Fixed parameters of the efficiency-vs-power fit, as the CLI derives them."""
    op = hybridize.operating_point(cfg.device, cfg.pump)
    return {
        "eta_probes": cfg.device.losses.eta_probes,
        "eta_fiber_fiber": cfg.device.losses.eta_fiber_fiber,
        "eta_m": op.kappa_ex_m / op.kappa_m,
        "eta_o": op.kappa_ex_active / op.kappa_active,
        "kappa_o": op.kappa_active,
        "kappa_m": op.kappa_m,
        "omega_l": cfg.pump.omega_l_effective,
    }


def power_slope(fixed: dict) -> float:
    conversion = (HBAR * fixed["omega_l"] * fixed["kappa_o"]
                  / (16.0 * fixed["eta_probes"] * fixed["eta_fiber_fiber"]
                     * fixed["eta_m"] * fixed["eta_o"] ** 2))
    return C0_TRUTH / conversion


def doublet_sweep_data(rng, n=300):
    omega = W0 + TWO_PI * np.linspace(-4.0e9, 4.0e9, n)
    stack = np.empty((SWEEP_BIAS.size, n))
    t = DOUBLET_TRUTH
    for i, b in enumerate(SWEEP_BIAS):
        stack[i] = calibrate.doublet_transmission(
            omega, t["kappa_l"], t["kappa_r"], t["kappa_ex"], t["J"],
            t["delta"] + SWEEP_SLOPE * b, W0)
    return omega, stack + rng.normal(0.0, 0.02, size=stack.shape)


def s11_data(rng):
    t = S11_TRUTH
    grid = t["omega_m"] + np.linspace(-8.0, 8.0, 400) * t["kappa_m"]
    clean = calibrate.s11_model(grid, t["omega_m"], t["kappa_m"], t["kappa_ex_m"])
    return grid, clean + 0.02 * (rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))


def step_data(rng):
    t = np.linspace(0.0, 0.5e-6, 900)
    clean = calibrate.rc_step_model(t, STEP_TRUTH["amplitude"], STEP_TRUTH["tau_rc"], STEP_TRUTH["t0"])
    return t, clean + 0.02 * rng.normal(size=t.size)


def power_data(rng, slope):
    power = 1e-3 * 10 ** np.linspace(1.0, 2.1, 12)
    return power, slope * power * (1.0 + 0.02 * rng.normal(size=power.size))


def write_fit_files(seed: int, fixed: dict, log: InputLog, datasets: int) -> dict:
    """Data files in the column layout `moptrans fit` reads: (kind, k) -> path
    for dataset k of each fit kind."""
    OUT.mkdir(exist_ok=True)
    paths = {}
    for k in range(datasets):
        rng = op_rng(seed, FIT_FILE_STREAM + k)
        grid, s11 = s11_data(rng)
        t, env = step_data(rng)
        power, eta = power_data(rng, power_slope(fixed))
        dbm = 10.0 * np.log10(power / 1e-3)
        tables = {
            "s11": ("freq_hz,re,im", np.column_stack([grid / TWO_PI, s11.real, s11.imag])),
            "step": ("t_s,env", np.column_stack([t, env])),
            "power": ("power_dbm,eta", np.column_stack([dbm, eta])),
        }
        for kind, (header, data) in tables.items():
            path = OUT / f"fit-{kind}-{k}-data.csv"
            np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")
            log.add(kind, k, data)
            paths[kind, k] = path
    return paths


# ---------------------------------------------------------------------------
# CLI verbs, shared by the cold workload and the warm per-verb probe
# ---------------------------------------------------------------------------

class Verbs:
    """Argument lists, output checks and digests of the CLI verbs run on one
    config; a digest that changes between repeats of a verb is a failure."""

    def __init__(self, seed: int, config: Path, log: InputLog, datasets: int = 1):
        self.seed = seed
        self.config = Path(config)
        paper = load_config(CONFIG)
        self.fit_files = write_fit_files(seed, power_fixed(paper), log, datasets)
        self.digests: dict[str, str] = {}
        raw = paper.raw
        self.rows = {
            "spectrum": int(raw["grid_points"]),
            "power-sweep": int(raw["power_points"]),
        }
        self.pulse_end_s = pulse_end_s(paper)

    @staticmethod
    def key(i: int) -> str:
        """Verb of cold operation i: spectrum, power-sweep, budget, fit, with
        the fit kind rotating per cycle."""
        slot = i % 4
        if slot < 3:
            return ("spectrum", "power-sweep", "budget")[slot]
        return "fit " + CLI_FIT_KINDS[(i // 4) % len(CLI_FIT_KINDS)]

    def argv(self, key: str, out: Path) -> list[str]:
        """`key` is a verb, or 'fit KIND' / 'fit KIND@K' for fit dataset K."""
        words = key.split()
        extra = []
        if words[0] == "fit":
            kind, _, k = words[1].partition("@")
            words[1] = kind
            extra = ["--data", str(self.fit_files[kind, int(k or 0)])]
        return words + extra + ["--config", str(self.config), "--out", str(out),
                                "--seed", str(self.seed)]

    @staticmethod
    def out_path(key: str) -> Path:
        suffix = ".json" if key == "budget" or key.startswith("fit") else ".csv"
        return OUT / (key.replace(" ", "-").replace("@", "-") + suffix)

    def check(self, key: str, out: Path) -> dict:
        """Validate one verb's output file; returns counts read from it."""
        if not out.exists():
            raise CheckError(f"{key}: no output written")
        counts = {"rows": 1, "bytes": out.stat().st_size}
        if key == "spectrum":
            rows = read_csv(out, 7, self.rows["spectrum"])
            if any(not 0.0 <= r[1] <= 1.0 for r in rows):
                raise CheckError("spectrum: eta_onchip outside [0, 1]")
            counts.update(rows=len(rows), points=len(rows))
        elif key == "power-sweep":
            rows = read_csv(out, 6, self.rows["power-sweep"])
            if any(r[1] <= 0.0 for r in rows):
                raise CheckError("power-sweep: eta_tot not positive")
            counts.update(rows=len(rows))
        elif key == "pulse":
            rows = read_csv(out, 3)
            t = [r[0] for r in rows]
            if len(rows) < 2 or t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
                raise CheckError("pulse: time axis does not start at 0 and increase")
            if abs(t[-1] - self.pulse_end_s) > 0.01 * self.pulse_end_s:
                raise CheckError(f"pulse: trace ends at {t[-1]} s, expected {self.pulse_end_s} s")
            if any(r[1] < 0.0 for r in rows) or max(r[1] for r in rows) <= 0.0:
                raise CheckError("pulse: lock-in amplitude negative or identically zero")
            counts.update(rows=len(rows), steps_pulse=len(rows) - 1, lockin_samples=len(rows))
        elif key == "budget":
            payload = read_json(out)
            eta = (payload.get("efficiency") or {}).get("eta_tot")
            if not finite(eta) or eta <= 0.0:
                raise CheckError(f"budget: eta_tot is {eta!r}")
        else:
            kind = key.split()[1].partition("@")[0]
            counts["nfev." + kind] = check_fit_payload(read_json(out))
        digest = sha256_file(out)
        if self.digests.setdefault(key, digest) != digest:
            raise CheckError(f"{key}: output digest changed between repeats")
        return counts

    def run_warm(self, key: str) -> Op:
        """One verb through `cli.main` in this process."""
        out = self.out_path(key)
        out.unlink(missing_ok=True)
        argv = self.argv(key, out)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raw traceback is a failed operation
            return Op(key, time.perf_counter() - t0, error=f"{key}: raised {exc!r}"[:200])
        op = Op(key, time.perf_counter() - t0)
        if code != 0:
            op.error = f"{key}: exit {code}"
            return op
        try:
            op.counts = self.check(key, out)
        except CheckError as exc:
            op.error = str(exc)
        return op


def pulse_end_s(cfg) -> float:
    """End of the simulated `pulse` window: the lock-in settles for 3 tau,
    then min(pulse on-time, 1 us) plus 10 tau of ring-down are recorded.
    The row count is not fixed, so a decimated output still passes."""
    tau = float(cfg.raw["lockin_tau_s"])
    return 3.0 * tau + min(float(cfg.raw["pulse_on_s"]), 1.0e-6) + 10.0 * tau


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    cold = False

    def __init__(self, seed: int, config: Path = CONFIG):
        self.seed = seed
        self.config = Path(config)
        self.inputs = InputLog()

    def op(self, i: int, tracer=None) -> Op:
        raise NotImplementedError

    def _timed(self, tracer, i, fn):
        """Run fn with the tracer installed (outside the timed span)."""
        if tracer is None:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0, []
        first = len(tracer.spans)
        with tracer.installed(i):
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        return result, seconds, tracer.spans[first:]


class CliCold(Workload):
    """One fresh interpreter per operation, running one verb through
    `moptrans.cli.main`; verbs cycle spectrum, power-sweep, budget, fit
    (fit kinds s11, step, power rotate per cycle)."""

    name = "cli-cold"
    cold = True

    def __init__(self, seed, config=CONFIG):
        super().__init__(seed, config)
        self.verbs = Verbs(seed, self.config, self.inputs)
        self.peak_rss_kb = 0

    def op(self, i, tracer=None):
        key = Verbs.key(i)
        out = Verbs.out_path(key)
        out.unlink(missing_ok=True)
        argv = self.verbs.argv(key, out)
        spans_path = OUT / "child-spans.json"
        if tracer is not None:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "child.py"), "verb", str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_SNIPPET, *argv]
        res = run_child(cmd)
        self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
        op = Op(key, res.wall, traced=tracer is not None)
        if tracer is not None and spans_path.exists():
            op.spans = [dict(s, op=i) for s in read_json(spans_path)]
        if res.code != 0:
            op.error = f"{key}: exit {res.code}: {_last_line(res.stderr)}"
            return op
        try:
            op.counts = self.verbs.check(key, out)
        except CheckError as exc:
            op.error = str(exc)
        return op


class ModelWarm(Workload):
    """Seeded design points of a parameter study, in one warm process."""

    name = "model-warm"
    GRID = TWO_PI * np.linspace(-0.5e9, 0.5e9, 20001)

    def __init__(self, seed, config=CONFIG):
        super().__init__(seed, config)
        self.base = load_config(self.config)
        self.env = quantumstats.ThermalEnvironment(self.base.temperature)

    def design(self, i):
        rng = op_rng(self.seed, i)
        j_hz = rng.uniform(1.65e9, 1.85e9)
        two_modes = bool(rng.integers(0, 2))
        stokes = bool(rng.integers(0, 2))
        pump_dbm = rng.uniform(0.0, 21.0)
        detuning_hz = 0.0 if rng.random() < 0.5 else rng.uniform(-20e6, 20e6)
        offsets = rng.uniform(-3.0, 3.0, size=3)
        modes = self.base.device.acoustic_modes
        device = dataclasses.replace(
            self.base.device, coupling_j=TWO_PI * j_hz,
            acoustic_modes=modes if two_modes else modes[-1:])
        conf = Configuration.STOKES if stokes else Configuration.ANTI_STOKES
        pump = PumpConfig(conf, dbm_to_watts(pump_dbm), self.base.pump.omega_l)
        self.inputs.add(j_hz, two_modes, stokes, pump_dbm, detuning_hz, offsets)
        return device, pump, TWO_PI * detuning_hz, offsets

    def op(self, i, tracer=None):
        device, pump, detuning, offsets = self.design(i)
        stokes = pump.configuration is Configuration.STOKES

        def run():
            op = hybridize.operating_point(device, pump)
            if len(device.acoustic_modes) == 1 and detuning == 0.0:
                spec = response.onchip_efficiency_spectrum(device, pump, self.GRID)
            else:
                spec = response.multimode_spectrum(device, pump, detuning, self.GRID)
            budget = response.offchip_efficiency(device, pump)
            noise = quantumstats.added_noise(device, pump, 0.0, self.env, 0.0)
            pair = g2 = None
            if stokes:
                pair = quantumstats.pair_rate(device, pump)
                g2 = quantumstats.g2_cross(device, pump, 0.0, self.env.occupancy(op.omega_m))
                graph, src = sfg.stokes_graph_from_rates(op), "c_in_dag"
            else:
                graph, src = sfg.antistokes_graph_from_rates(op), "c_in"
            gains = []
            for x in offsets:
                w = float(x) * op.kappa_m
                gains.append((sfg.mason_gain(graph, src, "a_out", w).value,
                              sfg.solve_gain(graph, src, "a_out", w),
                              response.transfer_from_rates(op, "microwave", "optical", w)))
            return op, spec, budget, noise, pair, g2, gains

        (op, spec, budget, noise, pair, g2, gains), seconds, spans = self._timed(tracer, i, run)
        result = Op("model", seconds, tracer is not None, spans=spans,
                    counts={"points": spec.omega.size, "sfg_evals": len(gains)})
        try:
            if op.cooperativity >= 1.0:
                raise CheckError(f"design point above threshold (C = {op.cooperativity})")
            eta = spec.channel("eta_onchip")
            if not (np.all(np.isfinite(eta)) and np.all(eta >= 0.0)):
                raise CheckError("spectrum holds negative or non-finite efficiency")
            for v in (budget.eta_tot, budget.eta_oc, noise.n_added_up, noise.n_added_down):
                if not finite(v) or v < 0.0:
                    raise CheckError(f"non-finite or negative budget/noise value {v!r}")
            if stokes and not (finite(pair.numeric) and pair.numeric > 0.0 and finite(g2)):
                raise CheckError(f"pair rate {pair.numeric!r} or g2 {g2!r} invalid")
            for m, s, cf in gains:
                if not (relative_close(m, s, 1e-10) and relative_close(m, cf, 1e-10)):
                    raise CheckError(f"Mason {m} / solve {s} / closed form {cf} differ beyond 1e-10")
        except CheckError as exc:
            result.error = str(exc)
        return result


def steady_transfer(op, drive_port: str, nu: float, settle_factor: float = 18.0):
    """Drive one port with a tone at offset nu, integrate to steady state,
    and demodulate both outputs; returns (s_to_optical, s_to_microwave,
    steps).  The same construction as the criterion-7 acceptance test."""
    if drive_port == "microwave":
        drives = {"microwave": lambda t: cmath.exp(-1j * nu * t)}
        extra = abs(nu) / TWO_PI
    else:
        antistokes = op.configuration is Configuration.ANTI_STOKES
        carrier = op.splitting + nu if antistokes else nu - op.splitting
        drives = {"optical": lambda t: cmath.exp(-1j * carrier * t)}
        extra = abs(carrier) / TWO_PI
    fastest = max(op.kappa_minus, op.kappa_plus, op.kappa_m) / TWO_PI + extra
    if drive_port == "optical":
        fastest += op.splitting / TWO_PI
    dt = 1.0 / (60.0 * fastest)
    t_end = settle_factor / min(op.kappa_m, op.kappa_minus, op.kappa_plus)
    traj = timedomain.integrate(op, None, drives, (0.0, t_end), dt, max_drive_freq=extra)
    tf = float(traj.t[-1])
    am, ap, b = complex(traj.a_minus[-1]), complex(traj.a_plus[-1]), complex(traj.b[-1])
    antistokes = op.configuration is Configuration.ANTI_STOKES
    sq_m, sq_p, sq_mn = (math.sqrt(op.kappa_ex_m), math.sqrt(op.kappa_ex_plus),
                         math.sqrt(op.kappa_ex_minus))
    steps = traj.t.size - 1
    if drive_port == "microwave":
        c_out = -drives["microwave"](tf) + sq_m * b
        if antistokes:
            s_opt = -sq_p * ap * cmath.exp(1j * nu * tf)
        else:
            s_opt = -sq_mn * am * cmath.exp(-1j * nu * tf)
        return s_opt, c_out * cmath.exp(1j * nu * tf), steps
    a_in = drives["optical"](tf)
    if antistokes:
        a_out = a_in - sq_mn * am - sq_p * ap * cmath.exp(-1j * op.splitting * tf)
        return (a_out * cmath.exp(1j * (op.splitting + nu) * tf),
                sq_m * b * cmath.exp(1j * nu * tf), steps)
    a_out = a_in - sq_mn * am * cmath.exp(1j * op.splitting * tf) - sq_p * ap
    return (a_out * cmath.exp(1j * (nu - op.splitting) * tf),
            sq_m * b * cmath.exp(-1j * nu * tf), steps)


class TimeDomainWarm(Workload):
    """The `pulse` verb in-process, then RK4 to steady state for both pump
    configurations with a microwave and an optical drive (criterion 7)."""

    name = "time-domain-warm"

    def __init__(self, seed, config=CONFIG):
        super().__init__(seed, config)
        self.verbs = Verbs(seed, self.config, self.inputs)
        cfg = load_config(self.config)
        self.device, self.power = cfg.device, cfg.pump.power_in
        self.kappa_m = self.device.transduction_mode.kappa_m

    def op(self, i, tracer=None):
        rng = op_rng(self.seed, i)
        nu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0) * self.kappa_m)
        self.inputs.add(nu)
        out = Verbs.out_path("pulse")
        out.unlink(missing_ok=True)
        argv = self.verbs.argv("pulse", out)

        def run():
            code = cli.main(argv)
            results = []
            for conf in (Configuration.ANTI_STOKES, Configuration.STOKES):
                op = hybridize.operating_point(self.device, PumpConfig(conf, self.power))
                results.append((op, steady_transfer(op, "microwave", nu),
                                steady_transfer(op, "optical", nu)))
            return code, results

        (code, results), seconds, spans = self._timed(tracer, i, run)
        result = Op("time-domain", seconds, tracer is not None, spans=spans)
        result.counts = {"steps_mw": [r[1][2] for r in results],
                         "steps_opt": [r[2][2] for r in results]}
        try:
            if code != 0:
                raise CheckError(f"pulse: exit {code}")
            result.counts.update(self.verbs.check("pulse", out))
            for op, (s_opt, s_mw, _), (s_opt2, s_mw2, _) in results:
                antistokes = op.configuration is Configuration.ANTI_STOKES
                cross = nu if antistokes else -nu
                pairs = (
                    (s_opt, response.transfer_from_rates(op, "microwave", "optical", cross)),
                    (s_mw, response.transfer_from_rates(op, "microwave", "microwave", nu)),
                    (s_opt2, response.transfer_from_rates(op, "optical", "optical", nu)),
                    (s_mw2, response.transfer_from_rates(op, "optical", "microwave", cross)),
                )
                for rk4, closed in pairs:
                    if not relative_close(rk4, closed, 1e-3):
                        raise CheckError(f"RK4 {rk4} vs closed form {closed} beyond 1e-3 "
                                         f"({op.configuration.value}, nu={nu})")
        except CheckError as exc:
            result.error = str(exc)
        return result


class FitWarm(Workload):
    """Fits of freshly seeded noisy data shaped like criterion 10's: a
    doublet bias sweep, s11, an RC step and efficiency versus power.  Only
    the fits are timed.  Not a benchmark workload (see README.md); the
    traced runs use its operations for the calibrate layer and the 3-sigma
    coverage."""

    name = "fit-warm"

    def __init__(self, seed, config=CONFIG):
        super().__init__(seed, config)
        self.fixed = power_fixed(load_config(self.config))
        self.slope = power_slope(self.fixed)
        self.hits: dict[str, list[bool]] = {}

    def op(self, i, tracer=None):
        rng = op_rng(self.seed, i)
        omega, stack = doublet_sweep_data(rng)
        grid, s11 = s11_data(rng)
        t, env = step_data(rng)
        power, eta = power_data(rng, self.slope)
        self.inputs.add(stack, s11, env, eta)

        def run():
            return (calibrate.fit_doublet(omega, stack, bias_axis=SWEEP_BIAS),
                    calibrate.fit_s11(grid, s11),
                    calibrate.fit_rc_step(t, env),
                    calibrate.fit_efficiency_power(power, eta, self.fixed))

        reports, seconds, spans = self._timed(tracer, i, run)
        result = Op("fit", seconds, tracer is not None, spans=spans)
        truths = (DOUBLET_TRUTH, S11_TRUTH, STEP_TRUTH, {"C0": C0_TRUTH})
        try:
            for kind, report, truth in zip(FIT_KINDS, reports, truths):
                nfev = check_fit_payload(dataclasses.asdict(report))
                result.counts[f"nfev.{kind}"] = nfev
                coverage_hits(self.hits, report.parameters, report.covariance_diag, truth, kind)
        except CheckError as exc:
            result.error = str(exc)
        return result


WORKLOADS = {w.name: w for w in (CliCold, ModelWarm, TimeDomainWarm)}
