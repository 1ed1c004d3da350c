"""Run configuration: one flat TOML table with mandatory unit suffixes.

The file is read with `tomllib`, and a table in it is refused.  Every key
has one type: pump_config a string, grid_points and power_points integers,
every other key a float, which an integer may spell but a boolean may not.
Frequencies are in Hz in the file and angular on load; unit suffixes (_hz,
_dbm, _db, _k, _s, _kg) are part of the key names.  Unknown keys are
rejected, and so are a float that is not finite (-inf only switches a _dbm
or _db key off), a _dbm or _db value whose linear value overflows and
device values from which the operating point of an acoustic mode cannot
be built, at the pump power or anywhere on the power sweep, or which give
a non-finite cooperativity, kappa_o kappa_m or single-photon cooperativity.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import sys
import tomllib
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

# the value types each schema type takes, compared exactly (a bool is an int)
_TAKES = {float: (float, int), int: (int,), str: (str,)}

# one parse per text in a process that loads a config many times (cli.main in a loop)
_toml_loads = functools.lru_cache(maxsize=8)(tomllib.loads)


def parse_flat_toml(text: str) -> dict:
    """Parse a TOML document that holds one flat table."""
    try:
        out = dict(_toml_loads(text))
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid TOML: {exc}") from None
    for key, value in out.items():
        if isinstance(value, dict):
            raise ConfigError(f"key {key!r}: tables are not part of the flat format")
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
    for key, value in raw.items():
        if key in _SCHEMA:
            typ = _SCHEMA[key][0]
        elif _MODE_RE.match(key):
            typ = float
        else:
            raise ConfigError(f"unknown config key {key!r}")
        if type(value) not in _TAKES[typ]:
            raise ConfigError(f"key {key!r} must be of type {typ.__name__}")
        switched_off = value == -math.inf and key.endswith(("_dbm", "_db"))  # e.g. pump off
        # an integer too large for a float is not finite either
        if typ is float and not (abs(value) <= sys.float_info.max or switched_off):
            raise ConfigError(f"key {key!r} must be finite (-inf is allowed on _dbm/_db keys only), got {value!r}")
        if key in _NON_NEGATIVE and value < 0.0:
            raise ConfigError(f"key {key!r} must be non-negative, got {value!r}")
        if key.endswith(("_dbm", "_db")):
            try:
                db_to_linear(value)
            except OverflowError:
                raise ConfigError(f"key {key!r} = {value!r} overflows as a linear power ratio") from None
    for key, (_, required) in _SCHEMA.items():
        if required and key not in raw:
            raise ConfigError(f"missing required config key {key!r}")


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

    cfg_name = raw["pump_config"].lower()
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
