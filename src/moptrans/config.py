"""Run configuration: flat key-value files with mandatory unit suffixes.

The format is a TOML-compatible subset: one `key = value` pair per line,
`#` comments, bare numbers, booleans and double-quoted strings.  All
frequencies are ordinary (Hz) in the file and converted to angular units on
load; unit suffixes (_hz, _dbm, _db, _k, _s, _kg) are part of the key names
so a file is self-documenting.  Unknown keys are rejected, and so are a
_dbm or _db value whose linear value overflows and device values from
which the operating point of an acoustic mode cannot be built, at the
pump power or anywhere on the power sweep, or which give a non-finite
cooperativity, kappa_o kappa_m or single-photon cooperativity.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .hybridize import operating_point
from .model import (
    TWO_PI,
    AcousticMode,
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PortLosses,
    PumpConfig,
    db_to_linear,
    dbm_to_watts,
)

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MODE_RE = re.compile(r"^mode(\d+)_(freq_hz|kappa_hz|kappa_ex_hz|mass_kg)$")

# key -> (type, required)
_SCHEMA: dict[str, tuple[type, bool]] = {
    "left_freq_hz": (float, True),
    "left_kappa_int_hz": (float, True),
    "left_kappa_ex_hz": (float, True),
    "right_freq_hz": (float, True),
    "right_kappa_int_hz": (float, True),
    "right_kappa_ex_hz": (float, True),
    "coupling_j_hz": (float, True),
    "g0_hz": (float, True),
    "probes_db": (float, True),
    "fiber_chip_db": (float, True),
    "pump_config": (str, True),
    "pump_power_dbm": (float, True),
    "pump_freq_hz": (float, False),
    "pump_detuning_hz": (float, False),
    "temperature_k": (float, False),
    "grid_start_hz": (float, False),
    "grid_stop_hz": (float, False),
    "grid_points": (int, False),
    "power_start_dbm": (float, False),
    "power_stop_dbm": (float, False),
    "power_points": (int, False),
    "pulse_on_s": (float, False),
    "pulse_rep_hz": (float, False),
    "pulse_edge_s": (float, False),
    "lockin_tau_s": (float, False),
    "input_power_dbm": (float, False),
    "sim_duration_s": (float, False),
    "n_optical_in": (float, False),
}

_NON_NEGATIVE = ("temperature_k", "n_optical_in", "pulse_edge_s")


def _parse_scalar(token: str, lineno: int):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        if re.fullmatch(r"[+-]?\d+", token):
            return int(token)
        return float(token)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {token!r}") from None


def parse_flat_toml(text: str) -> dict:
    """Parse the flat key = value subset; duplicate keys are rejected."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            raise ConfigError(f"line {lineno}: tables are not part of the flat format")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        # strip trailing comments outside of strings
        v = value.strip()
        if not v.startswith('"') and "#" in v:
            v = v.split("#", 1)[0].strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_scalar(v, lineno)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the raw key-value map and a content
    hash for output provenance."""

    device: DeviceParams
    pump: PumpConfig
    pump_detuning: float
    temperature: float
    raw: dict = field(default_factory=dict)
    sha256: str = ""

    def require(self, *keys: str):
        missing = [k for k in keys if k not in self.raw]
        if missing:
            raise ConfigError(f"config is missing required keys for this command: {missing}")
        return [self.raw[k] for k in keys]

    def get(self, key: str, default=None):
        return self.raw.get(key, default)


def _validate_keys(raw: dict) -> None:
    for key in raw:
        if key not in _SCHEMA and not _MODE_RE.match(key):
            raise ConfigError(f"unknown config key {key!r}")
        value = raw[key]
        switched_off = value == -math.inf and key.endswith(("_dbm", "_db"))  # e.g. pump off
        if isinstance(value, float) and not (math.isfinite(value) or switched_off):
            raise ConfigError(f"key {key!r} must be finite (-inf is allowed on _dbm/_db keys only), got {value!r}")
    for key, (typ, required) in _SCHEMA.items():
        if required and key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
        if key in raw:
            value = raw[key]
            if typ is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, typ):
                raise ConfigError(f"key {key!r} must be of type {typ.__name__}")
    for key in _NON_NEGATIVE:
        if raw.get(key, 0.0) < 0.0:
            raise ConfigError(f"key {key!r} must be non-negative, got {raw[key]!r}")
    for key, value in raw.items():
        if key.endswith(("_dbm", "_db")):
            try:
                db_to_linear(value)
            except OverflowError:
                raise ConfigError(f"key {key!r} = {value!r} overflows as a linear power ratio") from None


def _acoustic_modes(raw: dict) -> tuple[AcousticMode, ...]:
    indices = sorted(
        {int(m.group(1)) for k in raw if (m := _MODE_RE.match(k)) is not None}
    )
    if not indices:
        raise ConfigError("config defines no acoustic modes (mode1_freq_hz, ...)")
    modes = []
    for i in indices:
        prefix = f"mode{i}_"
        for suffix in ("freq_hz", "kappa_hz", "kappa_ex_hz"):
            if prefix + suffix not in raw:
                raise ConfigError(f"acoustic mode {i} is missing {prefix + suffix!r}")
        try:
            modes.append(
                AcousticMode(
                    omega_m=TWO_PI * float(raw[prefix + "freq_hz"]),
                    kappa_m=TWO_PI * float(raw[prefix + "kappa_hz"]),
                    kappa_ex_m=TWO_PI * float(raw[prefix + "kappa_ex_hz"]),
                    m_eff=float(raw[prefix + "mass_kg"]) if prefix + "mass_kg" in raw else None,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"acoustic mode {i}: {exc}") from exc
    modes.sort(key=lambda m: m.omega_m)
    return tuple(modes)


def load_config(path) -> RunConfig:
    """Read, schema-validate and convert a config file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        text = blob.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    raw = parse_flat_toml(text)
    _validate_keys(raw)

    try:
        left = OpticalModeBare(
            omega=TWO_PI * float(raw["left_freq_hz"]),
            kappa_int=TWO_PI * float(raw["left_kappa_int_hz"]),
            kappa_ex=TWO_PI * float(raw["left_kappa_ex_hz"]),
        )
        right = OpticalModeBare(
            omega=TWO_PI * float(raw["right_freq_hz"]),
            kappa_int=TWO_PI * float(raw["right_kappa_int_hz"]),
            kappa_ex=TWO_PI * float(raw["right_kappa_ex_hz"]),
        )
        losses = PortLosses(
            eta_probes=db_to_linear(float(raw["probes_db"])),
            eta_fiber_chip=db_to_linear(float(raw["fiber_chip_db"])),
        )
        device = DeviceParams(
            left=left,
            right=right,
            coupling_j=TWO_PI * float(raw["coupling_j_hz"]),
            acoustic_modes=_acoustic_modes(raw),
            g0=TWO_PI * float(raw["g0_hz"]),
            losses=losses,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid device parameters: {exc}") from exc

    cfg_name = str(raw["pump_config"]).lower()
    try:
        configuration = Configuration(cfg_name)
    except ValueError:
        raise ConfigError(
            f"pump_config must be 'antistokes' or 'stokes', got {cfg_name!r}"
        ) from None
    power_dbm = float(raw["pump_power_dbm"])
    power = 0.0 if math.isinf(power_dbm) and power_dbm < 0 else dbm_to_watts(power_dbm)
    omega_l = TWO_PI * float(raw["pump_freq_hz"]) if "pump_freq_hz" in raw else None
    try:
        pump = PumpConfig(configuration=configuration, power_in=power, omega_l=omega_l)
    except ValueError as exc:
        raise ConfigError(f"invalid pump settings: {exc}") from exc
    pump_detuning = TWO_PI * float(raw.get("pump_detuning_hz", 0.0))
    # the verbs build the supermodes and an operating point per acoustic
    # mode from these values (spectrum every mode's, the other verbs the
    # transduction mode's), at the pump power and at every power of the
    # sweep.  The pump amplitude and the cooperativity grow with the power,
    # so the largest of them is the one to build; the efficiency spectrum
    # also takes kappa_o kappa_m, and the budget g0^2 / (kappa_o kappa_m).
    # Values they cannot take are config errors here.
    powers = {"pump_power_dbm": pump.power_in}
    powers.update((k, dbm_to_watts(float(raw[k]))) for k in ("power_start_dbm", "power_stop_dbm") if k in raw)
    key = max(powers, key=powers.get)  # the first of equal powers
    for mode in device.acoustic_modes:
        transduction = mode is device.transduction_mode
        where = key if transduction else f"{key} for the {mode.omega_m / TWO_PI:.6g} Hz acoustic mode"
        try:
            op = operating_point(device, replace(pump, power_in=powers[key]), mode, pump_detuning)
            cooperativity = op.cooperativity
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(
                f"invalid device parameters: the operating point cannot be built at {where}: {exc}"
            ) from exc
        if not math.isfinite(cooperativity):
            raise ConfigError(f"invalid device parameters: the cooperativity at {where} is {cooperativity!r}")
        rates = op.kappa_active * op.kappa_m
        if rates == math.inf:
            raise ConfigError(f"invalid device parameters: kappa_o kappa_m at {where} overflows")
        c0 = device.g0 * device.g0 / rates
        if transduction and not math.isfinite(c0):
            raise ConfigError(f"invalid device parameters: the single-photon cooperativity is {c0!r}")

    return RunConfig(
        device=device,
        pump=pump,
        pump_detuning=pump_detuning,
        temperature=float(raw.get("temperature_k", 298.0)),
        raw=raw,
        sha256=hashlib.sha256(blob).hexdigest(),
    )
