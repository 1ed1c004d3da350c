"""Thermal occupancies, added noise, pair rates and cross-correlations.

Operator-valued noise expressions are evaluated as stationary mean
occupancies: linear cross terms vanish for thermal/vacuum inputs and the
quadratic terms are weighted by ratios of |S|^2 coefficients.  The pair
rate integrates |S_ac|^2 over all frequencies from the Gramian of the
linear model (`hybridize.band_integral`), with no grid; its residue closed
form is exact at zero sideband detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InstabilityError
from .hybridize import OperatingPoint, band_integral, linear_model, operating_point
from .model import HBAR, K_B, TWO_PI, Configuration, DeviceParams, PumpConfig
from .response import eta_spectrum_from_rates, transfer_from_rates

# The paper invokes the Cauchy-Schwarz bound without defining the
# auto-correlations; thermal marginals of two-mode squeezed vacuum have
# g2_auto = 2, which is the assumption used for the indicator below.
G2_AUTO_ASSUMED = 2.0


@dataclass(frozen=True)
class ThermalEnvironment:
    """Bath temperature [K] with occupancy lookups."""

    temperature: float

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")

    def occupancy(self, omega: float) -> float:
        return n_thermal(omega, self.temperature)


@dataclass(frozen=True)
class NoiseReport:
    """Input-referred added noise [quanta] for up- and down-conversion,
    with a per-source breakdown."""

    n_added_up: float
    n_added_down: float
    breakdown_up: dict = field(default_factory=dict)
    breakdown_down: dict = field(default_factory=dict)


def n_thermal(omega: float, temperature: float) -> float:
    """Bose-Einstein occupancy [exp(hbar omega / k_B T) - 1]^-1; 0 at T = 0
    and wherever k_B T underflows to 0 (subnormal T)."""
    if omega <= 0.0:
        raise ValueError("frequency must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    k_t = K_B * temperature
    if k_t == 0.0:
        return 0.0
    x = HBAR * omega / k_t
    if x > 700.0:
        return 0.0
    # hbar omega underflows to 0 below about 1e-290 rad/s, where the
    # occupancy k_B T / (hbar omega) is beyond the float range
    return 1.0 / math.expm1(x) if x > 0.0 else math.inf


def decoherence_rate(kappa_m: float, n_th: float) -> float:
    """Thermal decoherence rate of the acoustic mode, in ordinary
    frequency: (kappa_m / 2pi) * n_th [Hz].  The paper's quoted 43 MHz and
    0.5 Hz follow from kappa_m = 2pi x 10 MHz only in this convention."""
    if kappa_m < 0.0 or n_th < 0.0:
        raise ValueError("rates and occupancies must be non-negative")
    return kappa_m / TWO_PI * n_th


# ---------------------------------------------------------------------------
# pair generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRate:
    """On-chip spontaneous pair generation rate estimates [pairs/s].

    Both integrate eta_-[omega] over the angular frequency axis, i.e. R =
    integral eta_-[w] dw with w in rad/s.  numeric is that integral over
    all w from the Gramian of `hybridize.linear_model` (see
    `hybridize.band_integral`), at any detuning; closed_form is the residue
    pi eta_-[0] a b (1 - C) / (a + b), a = kappa_o/2, b = kappa_m/2, exact
    at zero sideband detuning.  alternate_convention divides numeric by
    2 pi (integration against ordinary frequency).  Neither convention
    reproduces the value quoted in the source literature from its own
    stated inputs; `note` records this.
    """

    closed_form: float
    numeric: float
    alternate_convention: float
    convention: str = "angular: R = integral eta[omega] d omega, omega in rad/s"
    note: str = (
        "documented discrepancy: the literature's 190 Hz estimate is not "
        "reproduced by its stated inputs under either integration "
        "convention (they give ~7.5e3/s angular, ~1.2e3/s ordinary)"
    )


def pair_rate_from_rates(op: OperatingPoint) -> PairRate:
    """Closed-form and Gramian pair rates for a Stokes operating point; see
    PairRate for conventions."""
    if op.configuration is not Configuration.STOKES:
        raise ValueError("pair generation requires the Stokes configuration")
    eta0 = float(eta_spectrum_from_rates(op, 0.0))  # also refuses C >= 1
    a, b = 0.5 * op.kappa_active, 0.5 * op.kappa_m
    numeric = band_integral(linear_model(op), "c_in_dag", "a_out")
    return PairRate(
        closed_form=math.pi * eta0 * a * b * (1.0 - op.cooperativity) / (a + b),
        numeric=numeric,
        alternate_convention=numeric / TWO_PI,
    )


def pair_rate(params: DeviceParams, pump: PumpConfig) -> PairRate:
    """Pair-rate estimate for a device under Stokes pumping."""
    return pair_rate_from_rates(operating_point(params, pump))


# ---------------------------------------------------------------------------
# added noise
# ---------------------------------------------------------------------------

def added_noise_from_rates(
    op: OperatingPoint,
    omega: float,
    env: ThermalEnvironment,
    n_optical_in: float = 0.0,
) -> NoiseReport:
    """Added noise referred to the conversion input at signal offset
    `omega`, for stationary thermal/vacuum inputs with mean occupancies
    n_optical_in (optical port) and the Bose occupancy of `env` at the
    acoustic frequency (microwave port)."""
    if n_optical_in < 0.0:
        raise ValueError("optical occupancy must be non-negative")
    s_aa = transfer_from_rates(op, "optical", "optical", omega)
    s_cc = transfer_from_rates(op, "microwave", "microwave", omega)
    s_ac = transfer_from_rates(op, "microwave", "optical", omega)
    s_ca = transfer_from_rates(op, "optical", "microwave", omega)
    eta = abs(s_ac) ** 2
    if eta <= 0.0:
        raise InstabilityError(
            "vanishing conversion efficiency: input-referred noise is unbounded"
        )
    n_th = env.occupancy(op.omega_m)

    opt_leak_up = abs(s_aa) ** 2 / abs(s_ac) ** 2 * n_optical_in
    mw_leak_down = abs(s_cc) ** 2 / abs(s_ca) ** 2 * n_th
    if op.configuration is Configuration.ANTI_STOKES:
        up = opt_leak_up
        down = mw_leak_down
        bu = {"optical_leakage": opt_leak_up}
        bd = {"microwave_thermal": mw_leak_down}
    else:
        up = opt_leak_up + 1.0 + n_th
        down = mw_leak_down + 1.0
        bu = {
            "optical_leakage": opt_leak_up,
            "microwave_thermal": n_th,
            "squeezing_floor": 1.0,
        }
        bd = {"microwave_thermal": mw_leak_down, "squeezing_floor": 1.0}
    return NoiseReport(
        n_added_up=up, n_added_down=down, breakdown_up=bu, breakdown_down=bd
    )


def added_noise(
    params: DeviceParams,
    pump: PumpConfig,
    omega: float,
    env: ThermalEnvironment,
    n_optical_in: float = 0.0,
) -> NoiseReport:
    return added_noise_from_rates(operating_point(params, pump), omega, env, n_optical_in)


# ---------------------------------------------------------------------------
# second-order cross-correlation
# ---------------------------------------------------------------------------

def g2_cross_from_rates(op: OperatingPoint, omega: float, n_th: float) -> float:
    """Second-order microwave-optical cross-correlation of the SPDC output
    at signal offset `omega` with microwave bath occupancy `n_th`.

    Three-term expression in the scattering coefficients:

        g2 = (|S_aa|^2 + eta) / [(eta + |S_cc|^2 n)(1 + n)]
           + n / (1 + n)
           + 2 Re(S_aa* S_ac S_ca* S_cc) n
             / [eta (eta + |S_cc|^2 n)(1 + n)]

    with eta = |S_ac|^2 and the anomalous cross coefficients of the Stokes
    configuration.
    """
    if op.configuration is not Configuration.STOKES:
        raise ValueError("g2_cross applies to the Stokes (SPDC) configuration")
    if n_th < 0.0:
        raise ValueError("thermal occupancy must be non-negative")
    s_aa = transfer_from_rates(op, "optical", "optical", omega)
    s_cc = transfer_from_rates(op, "microwave", "microwave", omega)
    s_ac = transfer_from_rates(op, "microwave", "optical", omega)
    s_ca = transfer_from_rates(op, "optical", "microwave", omega)
    eta = abs(s_ac) ** 2
    denom_c = eta + abs(s_cc) ** 2 * n_th
    scale = eta * denom_c * (1.0 + n_th)
    if scale <= 0.0:  # eta = 0, or so small (below about 1e-162) that the product underflows
        raise InstabilityError(f"eta_- = {eta!r}: cross-correlation diverges")

    term1 = (abs(s_aa) ** 2 + eta) / (denom_c * (1.0 + n_th))
    term2 = n_th / (1.0 + n_th)
    interference = s_aa.conjugate() * s_ac * s_ca.conjugate() * s_cc
    term3 = 2.0 * interference.real * n_th / scale
    return term1 + term2 + term3


def g2_cross(params: DeviceParams, pump: PumpConfig, omega: float, n_th: float) -> float:
    return g2_cross_from_rates(operating_point(params, pump), omega, n_th)


def cauchy_schwarz_violated(g2_ac: float) -> bool:
    """Classical bound g2_ac <= sqrt(g2_aa g2_cc) evaluated under the
    documented thermal-marginal assumption g2_aa = g2_cc = 2."""
    return g2_ac > math.sqrt(G2_AUTO_ASSUMED * G2_AUTO_ASSUMED)
