import math

import numpy as np
import pytest

from moptrans.hybridize import OperatingPoint, supermodes
from moptrans.model import (
    TWO_PI,
    AcousticMode,
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PortLosses,
    PumpConfig,
    db_to_linear,
    dbm_to_watts,
    photon_flux,
)

OMEGA_1550 = TWO_PI * 299792458.0 / 1550e-9


def make_paper_device(n_modes: int = 1) -> DeviceParams:
    """Measured-device parameters: fitted ring linewidths, splitting matched
    to the 3.48 GHz transduction mode, fitted port losses."""
    left = OpticalModeBare(OMEGA_1550, TWO_PI * 130e6, TWO_PI * 60e6)
    right = OpticalModeBare(OMEGA_1550, TWO_PI * 94e6, TWO_PI * 60e6)
    modes = [
        AcousticMode(TWO_PI * 3.48e9, TWO_PI * 13e6, TWO_PI * 0.11 * 13e6, m_eff=6e-12),
    ]
    if n_modes == 2:
        modes.insert(0, AcousticMode(TWO_PI * 3.165e9, TWO_PI * 16e6, TWO_PI * 1.6e6))
    return DeviceParams(
        left=left,
        right=right,
        coupling_j=TWO_PI * 1.74e9,
        acoustic_modes=tuple(modes),
        g0=TWO_PI * 42.0,
        losses=PortLosses(db_to_linear(-3.0), db_to_linear(-4.0)),
    )


def make_rates_op(
    configuration: Configuration,
    cooperativity: float = 0.2,
    kappa_m: float = TWO_PI * 13e6,
    kappa_o: float = TWO_PI * 172e6,
    eta_m: float = 0.11,
    eta_o: float = 0.35,
    splitting: float = TWO_PI * 3.48e9,
) -> OperatingPoint:
    """Supermode-level operating point with a prescribed cooperativity."""
    g = math.sqrt(cooperativity * kappa_o * kappa_m / 4.0)
    return OperatingPoint(
        configuration=configuration,
        omega_m=splitting,
        kappa_m=kappa_m,
        kappa_ex_m=eta_m * kappa_m,
        kappa_minus=kappa_o,
        kappa_plus=kappa_o,
        kappa_ex_minus=eta_o * kappa_o,
        kappa_ex_plus=eta_o * kappa_o,
        g_minus=g,
        g_plus=g,
        splitting=splitting,
    )


def intracavity_photons(params: DeviceParams, pump: PumpConfig) -> float:
    """Independent reference for the pumped supermode's photon number.

    Assumes the pump is resonant with the addressed supermode, giving
    n = eta_o * (4 / kappa_o) * P_wg / (hbar omega_L) with the waveguide
    power P_wg = eta_fiber_chip * P_in.
    """
    sm = supermodes(params.left, params.right, params.coupling_j)
    if pump.configuration is Configuration.ANTI_STOKES:
        kappa_ex, kappa = sm.kappa_ex_minus, sm.kappa_minus
    else:
        kappa_ex, kappa = sm.kappa_ex_plus, sm.kappa_plus
    p_wg = params.losses.eta_fiber_chip * pump.power_in
    flux = photon_flux(p_wg, pump.omega_l_effective)
    return (kappa_ex / kappa) * (4.0 / kappa) * flux


@pytest.fixture
def paper_device() -> DeviceParams:
    return make_paper_device()


@pytest.fixture
def paper_device_two_modes() -> DeviceParams:
    return make_paper_device(n_modes=2)


@pytest.fixture
def pump_21dbm() -> PumpConfig:
    return PumpConfig(Configuration.ANTI_STOKES, dbm_to_watts(21.0))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
