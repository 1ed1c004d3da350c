"""Simulation and calibration toolkit for triply resonant
piezo-optomechanical microwave-optical transducers."""

__version__ = "0.1.0"

from .errors import ConfigError, ConvergenceError, InstabilityError
from .model import (
    AcousticMode,
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PortLosses,
    PumpConfig,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    photon_flux,
    watts_to_dbm,
    x_zpf,
)
from .hybridize import (
    EffectiveCouplings,
    OperatingPoint,
    Supermodes,
    effective_couplings,
    eigen_oracle,
    operating_point,
    steady_state_amplitudes,
    supermodes,
)

__all__ = [
    "AcousticMode",
    "ConfigError",
    "Configuration",
    "ConvergenceError",
    "DeviceParams",
    "EffectiveCouplings",
    "InstabilityError",
    "OperatingPoint",
    "OpticalModeBare",
    "PortLosses",
    "PumpConfig",
    "Supermodes",
    "db_to_linear",
    "dbm_to_watts",
    "effective_couplings",
    "eigen_oracle",
    "linear_to_db",
    "operating_point",
    "photon_flux",
    "steady_state_amplitudes",
    "supermodes",
    "watts_to_dbm",
    "x_zpf",
]
