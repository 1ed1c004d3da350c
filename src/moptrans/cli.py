"""Command-line front end.

Verbs: spectrum, power-sweep, pulse, fit <kind>, budget.  CSV outputs carry
'#'-prefixed metadata lines (tool version, config hash, command, seed) and
a header row; floats are printed with 12 significant digits so identical
configs produce byte-identical files.  `pulse` always runs a Stokes pump at
pump_power_dbm and pump_freq_hz, whatever pump_config says; it keeps every
k-th lock-in sample and the last, k = max(1, floor(lockin_tau_s / (100
dt))) for the integrator step dt, and writes the steps, dt and k in a
'# diag:' line.
The `budget` JSON writes the model's records field for field: `efficiency`
is `response.EfficiencyBudget` plus `eta_tot_db`, `added_noise` is
`quantumstats.NoiseReport`, and `pair_generation` (Stokes only) is
`quantumstats.PairRate` plus the zero-offset g2 cross-correlation and its
Cauchy-Schwarz test; `thermal` holds the acoustic mode's occupancy and
decoherence rate.  With the pump off, `efficiency` has no `eta_tot_db` and
empty `stages`, and `added_noise` and `pair_generation` are null.
`fit doublet` reads one spectrum and reports its supermode observables
kappa_plus, kappa_minus, kappa_ex, splitting and omega_center; the
bias-sweep keys kappa_l, kappa_r, kappa_ex, J, delta, delta_slope and
omega_center come from `calibrate.fit_doublet` on a stack of spectra.
The argument parser is built once per process, on the first `main` call.
Exit codes: 0 success, 1 config or usage error (an unreadable config file
and an output file that cannot be written are config errors), 2 numerical
non-convergence, 3 physical instability.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import quantumstats, response
from .config import RunConfig, load_config
from .errors import ConfigError, ConvergenceError, InstabilityError
from .hybridize import operating_point
from .model import (
    TWO_PI,
    Configuration,
    dbm_to_watts,
    linear_to_db,
    photon_flux,
)

if TYPE_CHECKING:
    from .calibrate import FitReport

_MAX_GRID_POINTS = 10 ** 6  # spectrum rows: about 115 MB of CSV
_MAX_POWER_POINTS = 10 ** 5  # power-sweep rows: one efficiency ledger each
# power-sweep columns after power_dbm: (CSV header, EfficiencyBudget field)
_POWER_SWEEP_COLUMNS = (
    ("eta_tot", "eta_tot"), ("eta_oc", "eta_oc"), ("eta_int", "eta_int"),
    ("C", "cooperativity"), ("n_bar", "n_bar"),
)


def _metadata_lines(cfg: RunConfig | None, command: str, seed: int | None) -> list[str]:
    lines = [f"# moptrans {__version__}", f"# command: {command}"]
    if cfg is not None:
        lines.append(f"# config_sha256: {cfg.sha256}")
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return lines


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {str(path)!r}: {exc}") from exc


def _write_csv(path, cfg, command, seed, header: list[str], columns, diag: tuple[str, ...] = ()) -> None:
    """One row per index of the equal-length `columns`, formatted from Python
    floats (`tolist`), which is faster than from numpy scalars."""
    fmt = ",".join(["%.12g"] * len(header))
    text_rows = [fmt % row for row in zip(*(np.asarray(c).tolist() for c in columns))]
    meta = _metadata_lines(cfg, command, seed) + [f"# diag: {d}" for d in diag]
    _write_text(path, "\n".join(meta + [",".join(header)] + text_rows) + "\n")


def _write_json(path, payload) -> None:
    """Strict JSON: a non-finite number is a config error and writes no file."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"the output would contain a non-finite number ({exc})") from exc
    _write_text(path, text + "\n")


def _parse_grid_flag(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--grid expects start,stop,n")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from exc
    return start, stop, n


def _require_zero_pump_detuning(cfg: RunConfig, verb: str) -> None:
    """Refuse a detuned pump in a verb that models the resonant pump only."""
    if cfg.pump_detuning != 0.0:
        raise ConfigError(
            f"{verb} does not model pump detuning: pump_detuning_hz must be 0 "
            "(only spectrum models pump detuning)"
        )


def _grid_from(cfg: RunConfig, args) -> np.ndarray:
    """The `spectrum` frequency grid [Hz], from --grid or the config; more
    than _MAX_GRID_POINTS points is a config error raised before allocating."""
    if args.grid is not None:
        start, stop, n = _parse_grid_flag(args.grid)
        key = "--grid n"
    else:
        start, stop, n = cfg.require("grid_start_hz", "grid_stop_hz", "grid_points")
        key = "grid_points"
    n = int(n)
    if not np.isfinite([start, stop]).all():
        raise ConfigError(f"sweep grid start and stop must be finite, got {start!r}, {stop!r}")
    if n < 2 or stop <= start:
        raise ConfigError("sweep grid needs stop > start and at least 2 points")
    if n > _MAX_GRID_POINTS:
        raise ConfigError(f"{key} = {n} is more than {_MAX_GRID_POINTS} grid points")
    return np.linspace(float(start), float(stop), n)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig, args) -> int:
    freq_hz = _grid_from(cfg, args)
    device, pump = cfg.device, cfg.pump
    ref = device.transduction_mode
    offsets = TWO_PI * (freq_hz - ref.omega_m / TWO_PI)
    if not np.all(offsets[1:] > offsets[:-1]):
        raise ConfigError(
            f"sweep grid from {freq_hz[0]:.6g} to {freq_hz[-1]:.6g} Hz is finer than float64 resolves "
            f"about the {ref.omega_m / TWO_PI:.6g} Hz mode: its offsets from the mode are not ascending"
        )

    spec = response.multimode_spectrum(device, pump, cfg.pump_detuning, offsets)
    eta = spec.channel("eta_onchip")
    losses = device.losses
    eta_off = losses.eta_probes * losses.eta_fiber_chip * eta

    # S parameters from the mode nearest to each grid point, in blocks of
    # response._BLOCK points so that the S matrix's temporaries stay small
    op_by_mode = [
        operating_point(device, pump, m, cfg.pump_detuning) for m in device.acoustic_modes
    ]
    mode_freqs = np.array([m.omega_m for m in device.acoustic_modes])
    s_ac, s_cc = np.empty((2, freq_hz.size), dtype=complex)
    omega_abs = TWO_PI * freq_hz
    nearest = np.argmin(np.abs(omega_abs[:, None] - mode_freqs[None, :]), axis=1)
    for i in range(0, freq_hz.size, response._BLOCK):
        block = slice(i, i + response._BLOCK)
        for k, op in enumerate(op_by_mode):
            sel = nearest[block] == k
            if np.any(sel):
                w = omega_abs[block][sel] - op.omega_m
                (_, s_ac[block][sel]), (_, s_cc[block][sel]) = response.scattering(op, w)

    _write_csv(
        args.out, cfg, "spectrum", args.seed,
        ["freq_hz", "eta_onchip", "eta_offchip", "s_ac_re", "s_ac_im", "s_cc_re", "s_cc_im"],
        [freq_hz, eta, eta_off, s_ac.real, s_ac.imag, s_cc.real, s_cc.imag],
    )
    return 0


def cmd_power_sweep(cfg: RunConfig, args) -> int:
    """Efficiency chain at power_points pump powers; more than
    _MAX_POWER_POINTS is a config error raised before allocating."""
    _require_zero_pump_detuning(cfg, "power-sweep")
    start, stop, n = cfg.require("power_start_dbm", "power_stop_dbm", "power_points")
    n = int(n)
    if n < 1 or not -np.inf < start <= stop:
        raise ConfigError("power sweep needs a finite start, stop >= start and at least 1 point")
    if n > _MAX_POWER_POINTS:
        raise ConfigError(f"power_points = {n} is more than {_MAX_POWER_POINTS}")
    dbm = np.linspace(float(start), float(stop), n)
    rows = []
    for p in dbm:
        pump = dataclasses.replace(cfg.pump, power_in=dbm_to_watts(float(p)))
        budget = response.offchip_efficiency(cfg.device, pump)
        rows.append([p] + [getattr(budget, field) for _, field in _POWER_SWEEP_COLUMNS])
    header = ["power_dbm"] + [name for name, _ in _POWER_SWEEP_COLUMNS]
    _write_csv(args.out, cfg, "power-sweep", args.seed, header, np.array(rows).T)
    return 0


def cmd_pulse(cfg: RunConfig, args) -> int:
    from . import timedomain  # imported here so that only the pulse verb loads it

    _require_zero_pump_detuning(cfg, "pulse")
    on_s, rep_hz, tau_s = cfg.require("pulse_on_s", "pulse_rep_hz", "lockin_tau_s")
    try:
        pulse = timedomain.PulseSequence(float(on_s), float(rep_hz), float(cfg.get("pulse_edge_s", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"invalid pulse sequence: {exc}") from exc
    duration = cfg.get("sim_duration_s")
    for key, value in (("lockin_tau_s", tau_s), ("sim_duration_s", duration)):
        if value is not None and value <= 0.0:
            raise ConfigError(f"{key} must be positive")
    device = cfg.device
    op_mode = device.transduction_mode
    lockin = timedomain.LockInConfig(omega_ref=op_mode.omega_m, tau_rc=float(tau_s))

    input_dbm = float(cfg.get("input_power_dbm", -30.0))
    input_watts = dbm_to_watts(input_dbm)
    flux = photon_flux(device.losses.eta_fiber_chip * input_watts, cfg.pump.omega_l_effective)
    try:
        t, amp, phase = timedomain.pulsed_downconversion(
            device,
            pulse,
            optical_input_flux=flux,
            lockin=lockin,
            pump=cfg.pump,
            duration=float(duration) if duration is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dt = float(t[1])
    stride = max(1, int(lockin.tau_rc / (100.0 * dt)))
    keep = np.append(np.arange(0, t.size - 1, stride), t.size - 1)
    diag = f"integrator_steps={t.size - 1} dt_s={dt!r} decimation_stride={stride}"
    _write_csv(args.out, cfg, "pulse", args.seed, ["t_s", "amp", "phase"],
               [t[keep], amp[keep], phase[keep]], (diag,))
    return 0


def _read_csv_columns(path, n_cols: int) -> list[np.ndarray]:
    """The first n_cols columns of a data file: '#' lines, a header row that
    names at least n_cols columns, then rows of finite numbers only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
        if start == len(lines) or len(lines[start].split(",")) < n_cols:
            raise ConfigError(f"data file {path!r} needs {n_cols} named columns")
        rows = lines[start + 1:]
        if not any(row.strip() for row in rows):
            raise ConfigError(f"data file {path!r} has no data rows")
        data = np.loadtxt(rows, delimiter=",", comments=None, usecols=range(n_cols), ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data file {path!r}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"data file {path!r} contains non-numeric entries")
    return list(data.T)


def cmd_fit(cfg: RunConfig | None, args) -> int:
    """Fit one data file; only the power fit reads the device config."""
    try:
        report = _fit(cfg, args.kind, args.data)
        if args.seed is not None:
            report = dataclasses.replace(report, seed=args.seed)
        text = report.to_json()  # ValueError on a non-finite number
    except ValueError as exc:
        raise ConfigError(f"fit {args.kind}: {exc}") from exc
    _write_text(args.out, text + "\n")
    return 0


def _fit(cfg: RunConfig | None, kind: str, data) -> FitReport:
    from . import calibrate  # imported here so that only the fit verb loads it

    if kind == "doublet":
        freq, trans = _read_csv_columns(data, 2)
        return calibrate.fit_doublet(TWO_PI * freq, trans)
    if kind == "s11":
        freq, re_part, im_part = _read_csv_columns(data, 3)
        return calibrate.fit_s11(TWO_PI * freq, re_part + 1j * im_part)
    if kind == "power":
        if cfg is None:
            raise ConfigError("fit power needs --config: the device config fixes the losses and rates")
        dbm, eta = _read_csv_columns(data, 2)
        device, pump = cfg.device, cfg.pump
        op = operating_point(device, pump)
        fixed = {
            "eta_probes": device.losses.eta_probes,
            "eta_fiber_fiber": device.losses.eta_fiber_fiber,
            "eta_m": op.kappa_ex_m / op.kappa_m,
            "eta_o": op.kappa_ex_active / op.kappa_active,
            "kappa_o": op.kappa_active,
            "kappa_m": op.kappa_m,
            "omega_l": pump.omega_l_effective,
        }
        watts = np.array([dbm_to_watts(float(p)) for p in dbm])
        return calibrate.fit_efficiency_power(watts, eta, fixed)
    if kind == "step":
        t, env = _read_csv_columns(data, 2)
        return calibrate.fit_rc_step(t, env)
    raise ConfigError(f"unknown fit kind {kind!r}")


def cmd_budget(cfg: RunConfig, args) -> int:
    _require_zero_pump_detuning(cfg, "budget")
    device, pump = cfg.device, cfg.pump
    mode = device.transduction_mode
    env = quantumstats.ThermalEnvironment(cfg.temperature)
    n_th = env.occupancy(mode.omega_m)
    budget = response.offchip_efficiency(device, pump)
    efficiency = dataclasses.asdict(budget)
    noise = pairs = None
    if pump.power_in == 0.0:
        efficiency["stages"] = {}
    else:
        efficiency["eta_tot_db"] = linear_to_db(budget.eta_tot) if budget.eta_tot > 0 else None
        n_opt = float(cfg.get("n_optical_in", 0.0))
        noise = dataclasses.asdict(quantumstats.added_noise(device, pump, 0.0, env, n_opt))
        if pump.configuration is Configuration.STOKES:
            pairs = dataclasses.asdict(quantumstats.pair_rate(device, pump))
            g2 = quantumstats.g2_cross(device, pump, 0.0, n_th)
            pairs.update(
                g2_cross_zero_offset=g2,
                cauchy_schwarz_violated=quantumstats.cauchy_schwarz_violated(g2),
                cauchy_schwarz_assumption="g2_aa = g2_cc = 2 (thermal marginals)",
            )
    payload = {
        "efficiency": efficiency,
        "pair_generation": pairs,
        "added_noise": noise,
        "thermal": {
            "temperature_k": cfg.temperature,
            "n_thermal": n_th,
            "decoherence_rate_hz": quantumstats.decoherence_rate(mode.kappa_m, n_th),
        },
        "config_sha256": cfg.sha256,
    }
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's 2 is the non-convergence code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and shared after: parsing
    does not change it, and building it (argparse checks every option's
    help formatting) costs more than the work of a warm `budget` call."""
    parser = _Parser(prog="moptrans", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=False):
        # fit reads its inputs from --data; of its kinds only power reads the config
        p.add_argument("--config", required=not needs_data, help="device/run config file")
        p.add_argument("--out", required=True, help="output CSV/JSON path")
        p.add_argument("--seed", type=int, default=None, help="seed recorded in outputs")
        if needs_data:
            p.add_argument("--data", required=True, help="input data CSV")
        return p

    spectrum = common(sub.add_parser("spectrum", help="conversion-efficiency spectrum CSV"))
    spectrum.add_argument("--grid", default=None, help="start,stop,n frequency grid [Hz]")
    common(sub.add_parser("power-sweep", help="efficiency chain vs pump power CSV"))
    common(sub.add_parser("pulse", help="pulsed down-conversion envelope CSV, always under a Stokes pump at "
                          "pump_power_dbm and pump_freq_hz whatever pump_config says: every k-th lock-in "
                          "sample and the last, k = max(1, floor(lockin_tau_s / (100 dt)))"))
    fit_help = ("parameter recovery from measured data; doublet fits one spectrum and reports "
                "kappa_plus, kappa_minus, kappa_ex, splitting and omega_center")
    fit = sub.add_parser("fit", help=fit_help, description=fit_help)
    fit.add_argument("kind", choices=("doublet", "s11", "power", "step"))
    common(fit, needs_data=True)
    common(sub.add_parser("budget", help="efficiency/noise/pair-rate JSON report"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "power-sweep": cmd_power_sweep,
        "pulse": cmd_pulse,
        "fit": cmd_fit,
        "budget": cmd_budget,
    }
    try:
        cfg = load_config(args.config) if args.config is not None else None
        return handlers[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
