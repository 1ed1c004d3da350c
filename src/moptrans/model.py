"""Domain types, unit conventions and elementary photon-budget quantities.

Conventions used throughout the package:

* every frequency, rate and linewidth is stored as an *angular* quantity
  in rad/s; ordinary frequencies (Hz) appear only at I/O boundaries and
  are converted on load,
* powers are stored in watts; dBm appears only at the CLI boundary,
* hbar and k_B are fixed exact constants (2019 SI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InstabilityError

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J/K
SPEED_OF_LIGHT = 299792458.0  # m/s
TWO_PI = 2.0 * math.pi

# Operating band of the device; used for the pump photon energy whenever an
# explicit pump frequency is not supplied.
DEFAULT_PUMP_WAVELENGTH = 1550e-9  # m
DEFAULT_PUMP_OMEGA = TWO_PI * SPEED_OF_LIGHT / DEFAULT_PUMP_WAVELENGTH  # rad/s


class Configuration(Enum):
    """Pump placement: red side (beam splitter) or blue side (two-mode
    squeezing) of the supermode doublet."""

    ANTI_STOKES = "antistokes"
    STOKES = "stokes"


def check_stokes_threshold(configuration: Configuration, cooperativity: float) -> None:
    """Raise InstabilityError for Stokes pumping at C >= 1, where the
    two-mode-squeezing gain is above its parametric threshold."""
    if configuration is Configuration.STOKES and cooperativity >= 1.0:
        raise InstabilityError(f"Stokes pumping at C = {cooperativity!r} >= 1 is above threshold")


# ---------------------------------------------------------------------------
# unit conversions
# ---------------------------------------------------------------------------

def db_to_linear(x_db: float) -> float:
    """Convert a decibel power ratio to a linear ratio."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear power ratio to decibels.  x must be positive."""
    if x <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {x!r} in dB")
    return 10.0 * math.log10(x)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power in watts to dBm.  p_watts must be positive."""
    if p_watts <= 0.0:
        raise ValueError(f"cannot express non-positive power {p_watts!r} in dBm")
    return 10.0 * math.log10(p_watts / 1e-3)


def photon_flux(power: float, omega_l: float) -> float:
    """Photon flux P/(hbar*omega) of a beam of `power` watts at angular
    frequency `omega_l`.

    Parameters
    ----------
    power : float
        Optical power [W], >= 0.
    omega_l : float
        Carrier angular frequency [rad/s], > 0.

    Returns
    -------
    float
        Photon flux [1/s].
    """
    if omega_l <= 0.0:
        raise ValueError(f"invalid carrier frequency {omega_l!r} rad/s")
    if power < 0.0:
        raise ValueError(f"negative power {power!r} W")
    return power / (HBAR * omega_l)


def x_zpf(m_eff: float, omega_m: float) -> float:
    """Zero-point displacement sqrt(hbar/(2 m_eff omega_m)) of an acoustic
    mode with effective mass `m_eff` [kg] and angular frequency `omega_m`
    [rad/s]."""
    if m_eff <= 0.0 or omega_m <= 0.0:
        raise ValueError("m_eff and omega_m must be positive")
    return math.sqrt(HBAR / (2.0 * m_eff * omega_m))


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpticalModeBare:
    """A bare (uncoupled) optical ring resonance.

    omega : resonance angular frequency [rad/s]
    kappa_int : intrinsic linewidth [rad/s]
    kappa_ex : external (bus) coupling rate [rad/s]
    """

    omega: float
    kappa_int: float
    kappa_ex: float

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("optical frequency must be positive")
        if self.kappa_int < 0.0 or self.kappa_ex < 0.0:
            raise ValueError("linewidth contributions must be non-negative")
        if self.kappa <= 0.0:
            raise ValueError("total linewidth must be positive")

    @property
    def kappa(self) -> float:
        """Total linewidth kappa_int + kappa_ex [rad/s]."""
        return self.kappa_int + self.kappa_ex


@dataclass(frozen=True)
class AcousticMode:
    """One high-overtone bulk acoustic resonance.

    omega_m : angular frequency [rad/s]
    kappa_m : total linewidth [rad/s]
    kappa_ex_m : microwave external coupling [rad/s]
    m_eff : effective mass [kg] (optional, used for zero-point motion)
    """

    omega_m: float
    kappa_m: float
    kappa_ex_m: float
    m_eff: float | None = None

    def __post_init__(self):
        if self.omega_m <= 0.0:
            raise ValueError("acoustic frequency must be positive")
        if not 0.0 <= self.kappa_ex_m <= self.kappa_m:
            raise ValueError("need 0 <= kappa_ex_m <= kappa_m")
        if self.m_eff is not None and self.m_eff <= 0.0:
            raise ValueError("effective mass must be positive")

    @property
    def eta_m(self) -> float:
        """Microwave extraction efficiency kappa_ex_m / kappa_m."""
        return self.kappa_ex_m / self.kappa_m

    @property
    def x_zpf(self) -> float:
        if self.m_eff is None:
            raise ValueError("m_eff not set for this acoustic mode")
        return x_zpf(self.m_eff, self.omega_m)


@dataclass(frozen=True)
class PumpConfig:
    """Pump placement and strength.

    configuration : Configuration
        ANTI_STOKES puts the pump on the lower supermode (beam splitter),
        STOKES on the upper one (two-mode squeezing).  Triple resonance is
        assumed: the pump sits exactly on its supermode.
    power_in : float
        Off-chip power in the input fiber [W].
    omega_l : float or None
        Pump angular frequency [rad/s]; used only for the photon energy.
        Defaults to the 1550 nm band value when omitted.
    """

    configuration: Configuration
    power_in: float
    omega_l: float | None = None

    def __post_init__(self):
        if self.power_in < 0.0:
            raise ValueError("pump power must be non-negative")
        if self.omega_l is not None and self.omega_l <= 0.0:
            raise ValueError("pump frequency must be positive")

    @property
    def omega_l_effective(self) -> float:
        return self.omega_l if self.omega_l is not None else DEFAULT_PUMP_OMEGA


@dataclass(frozen=True)
class PortLosses:
    """Off-chip insertion losses, as linear power ratios in (0, 1]."""

    eta_probes: float
    eta_fiber_chip: float

    def __post_init__(self):
        for name in ("eta_probes", "eta_fiber_chip"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v!r}")

    @property
    def eta_fiber_fiber(self) -> float:
        """Fiber-to-fiber transmission: the chip facet is crossed twice."""
        return self.eta_fiber_chip ** 2


@dataclass(frozen=True)
class DeviceParams:
    """Full physical parameter set of one transducer.

    left, right : OpticalModeBare
        The two micro-rings; the acoustic actuator sits on the left ring.
    coupling_j : float
        Inter-ring coupling rate J [rad/s].
    acoustic_modes : tuple of AcousticMode
        At least one mode, frequencies strictly increasing.
    g0 : float
        Vacuum optomechanical rate between the left ring and the acoustic
        mode [rad/s].
    losses : PortLosses
    """

    left: OpticalModeBare
    right: OpticalModeBare
    coupling_j: float
    acoustic_modes: tuple[AcousticMode, ...]
    g0: float
    losses: PortLosses

    def __post_init__(self):
        if self.coupling_j < 0.0:
            raise ValueError("inter-ring coupling J must be non-negative")
        if self.g0 < 0.0:
            raise ValueError("g0 must be non-negative")
        if len(self.acoustic_modes) < 1:
            raise ValueError("need at least one acoustic mode")
        freqs = [m.omega_m for m in self.acoustic_modes]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("acoustic mode frequencies must be strictly increasing")

    @property
    def transduction_mode(self) -> AcousticMode:
        """The acoustic mode used for triply resonant conversion: the one
        whose frequency is closest to the supermode splitting 2J (all modes
        are kept in ascending frequency order, so "first" and "transduction"
        need not coincide for multimode devices)."""
        target = 2.0 * self.coupling_j
        return min(self.acoustic_modes, key=lambda m: abs(m.omega_m - target))

