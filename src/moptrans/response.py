"""Closed-form frequency responses, conversion efficiencies and bandwidth.

Frequency bookkeeping: every spectrum and transfer function is expressed
against a single offset omega (rad/s) from the relevant carrier -- for the
microwave port that carrier is the acoustic resonance, for the optical port
it is the converted sideband (omega_L + omega_m for anti-Stokes pumping,
omega_L - omega_m for Stokes).  With chi_x[w] = 1/(-i w + kappa_x/2) the
sideband-resolved transfer functions are

anti-Stokes (pump on a_-, determinant D = 1 + |g_+|^2 chi_+ chi_m):
    S_ac = -i sqrt(kex_+ kex_m) g_+  chi_+ chi_m / D        (c_in -> a_out)
    S_ca = +i sqrt(kex_+ kex_m) g_+* chi_+ chi_m / D        (a_in -> c_out)
    S_aa = 1 - kex_+ chi_+ / D - kex_- chi_-[w + splitting]
    S_cc = -1 + kex_m chi_m / D

Stokes (pump on a_+, determinant D = 1 - |g_-|^2 chi_- chi_m), anomalous
(two-mode-squeezing) cross coefficients:
    S_ac = -i sqrt(kex_- kex_m) g_- chi_- chi_m / D         (c_in^dag -> a_out)
    S_ca = +i sqrt(kex_- kex_m) g_- chi_- chi_m / D         (a_in^dag -> c_out)
    S_aa = 1 - kex_- chi_- / D - kex_+ chi_+[w - splitting]
    S_cc = -1 + kex_m chi_m / D

The sideband detuning d of the operating point shifts every optical
susceptibility: chi_+ and chi_- above, spectator included, are evaluated
at w + d, while chi_m stays at w.  It is zero for the transduction mode
under a resonant pump.

The on-chip photon-number conversion efficiency is |S_ac|^2 = |S_ca|^2 for
either configuration.  With a = kappa_o/2, b = kappa_m/2, chi_o^-1 =
a - i(w + d) and chi_m^-1 = b - i w for the active supermode, S_ac =
-i sqrt(kex_o kex_m) g / (chi_o^-1 chi_m^-1 +- |g|^2) (+ anti-Stokes,
- Stokes).  That denominator is -(w - r_1)(w - r_2), where r_1 and r_2,
the two normal modes of the coupled pair, are the roots of
w^2 + (d + i(a + b)) w - (c - i b d) with c = a b +- |g|^2.  So

    |S_ac|^2 = K / ([(w - Re r_1)^2 + (Im r_1)^2] [(w - Re r_2)^2 + (Im r_2)^2])

with K = kex_o kex_m |g|^2.  Each factor is a sum of squares, so nothing
cancels, and below the Stokes threshold (c = a b (1 - C) > 0) neither mode
is undamped, so the product never vanishes.  Efficiency spectra come from
this form, in blocks of _BLOCK grid points into one preallocated result:
each temporary holds 32 KB whatever the grid length, and every operation
is elementwise, so the result does not depend on the block size.
`scattering` gives the complex S matrix.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hybridize import OperatingPoint, operating_point
from .model import HBAR, Configuration, DeviceParams, PumpConfig, check_stokes_threshold

PORTS = ("optical", "microwave")
_BLOCK = 4096  # grid points per block of an efficiency spectrum


@dataclass(frozen=True)
class Spectrum:
    """Ordered frequency grid with one labeled real channel.

    omega is the offset grid in rad/s (strictly ascending); values has
    shape (n,) and labels holds the channel's one label.
    """

    omega: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...] = ("value",)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values).astype(float, casting="safe", copy=False)  # complex raises TypeError
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        if omega.ndim != 1 or omega.size < 2:
            raise ValueError("frequency grid must be a 1-D array with >= 2 points")
        if not np.all(np.isfinite(omega)):
            raise ValueError("frequency grid must be finite")
        if not np.all(omega[1:] > omega[:-1]):
            raise ValueError("frequency grid must be strictly ascending")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum values must be finite")
        if values.shape != omega.shape or len(self.labels) != 1:
            raise ValueError("values/labels shape mismatch")

    def channel(self, label: str) -> np.ndarray:
        if label != self.labels[0]:
            raise KeyError(label)
        return self.values


@dataclass(frozen=True)
class EfficiencyBudget:
    """Efficiency chain of one operating point, with a per-stage ledger.

    eta_tot is the exact chain eta_probes * eta_fiber_chip * eta_oc;
    eta_tot_linearized is the low-cooperativity closed form
    16 eta_probes eta_ff eta_m eta_o^2 C0 P_in / (hbar omega_L kappa_o).
    """

    eta_int: float
    eta_ext: float
    eta_oc: float
    eta_tot: float
    eta_tot_linearized: float
    cooperativity: float
    n_bar: float
    stages: dict = field(default_factory=dict)


def eta_internal(c: float, configuration: Configuration) -> float:
    """Internal conversion efficiency 4C/(1 +- C)^2 (+ anti-Stokes,
    - Stokes).  Stokes operation at C >= 1 is parametrically unstable."""
    if c < 0.0:
        raise ValueError("cooperativity must be non-negative")
    check_stokes_threshold(configuration, c)
    if configuration is Configuration.ANTI_STOKES:
        # (1 + c)^2 overflows past c ~ 1e154, where 4c / (1 + c)^2 is 4 / c
        # to float precision
        return 4.0 * c / (1.0 + c) ** 2 if c < 1e154 else 4.0 / c
    return 4.0 * c / (1.0 - c) ** 2


# ---------------------------------------------------------------------------
# transfer functions
# ---------------------------------------------------------------------------

def _chi(omega, kappa):
    return 1.0 / (-1j * omega + 0.5 * kappa)


def scattering(op: OperatingPoint, omega):
    """Closed-form S matrix ((S_aa, S_ac), (S_ca, S_cc)), indexed [to][from]
    in PORTS order, at the model's signal offset `omega` (scalar or array).
    Under Stokes the microwave port is the anomalous c_in^dag, so a
    physical microwave tone at +nu is omega = -nu for S_ac: criterion 7 and
    `perfbench` pass -nu, `cli.cmd_spectrum` and `_summed_eta` +nu (ROADMAP
    N1)."""
    check_stokes_threshold(op.configuration, op.cooperativity)
    omega = np.asarray(omega, dtype=float)
    chi_m = _chi(omega, op.kappa_m)
    chi_o = _chi(omega + op.sideband_detuning, op.kappa_active)
    g = op.g_active
    root = math.sqrt(op.kappa_ex_active * op.kappa_ex_m)
    if op.configuration is Configuration.ANTI_STOKES:
        det = 1.0 + abs(g) ** 2 * chi_o * chi_m
        g_ca = g.conjugate()
        spectator = op.kappa_ex_minus * _chi(omega + op.sideband_detuning + op.splitting, op.kappa_minus)
    else:
        det = 1.0 - abs(g) ** 2 * chi_o * chi_m
        g_ca = g
        spectator = op.kappa_ex_plus * _chi(omega + op.sideband_detuning - op.splitting, op.kappa_plus)
    s = ((1.0 - op.kappa_ex_active * chi_o / det - spectator, -1j * root * g * chi_o * chi_m / det),
         (1j * root * g_ca * chi_o * chi_m / det, -1.0 + op.kappa_ex_m * chi_m / det))
    return s if omega.ndim else tuple(tuple(complex(v) for v in row) for row in s)


def transfer_from_rates(op: OperatingPoint, from_port: str, to_port: str, omega):
    """One entry of `scattering`: the S parameter from `from_port` to
    `to_port` at signal offset `omega` (scalar or array)."""
    for p in (from_port, to_port):
        if p not in PORTS:
            raise ValueError(f"unknown port {p!r}")
    return scattering(op, omega)[PORTS.index(to_port)][PORTS.index(from_port)]


def _poles(a, b, c, d):
    """r_1 and r_2 of the module docstring: the larger root from the
    quadratic formula in units of s, so that no square overflows, then r_2
    from the product of the roots."""
    s = max(abs(d), a + b, math.sqrt(abs(c)))
    half_sum = complex(d / s, (a + b) / s) / 2.0
    product = complex(-c / s / s, b / s * (d / s))
    root = cmath.sqrt(half_sum * half_sum - product)
    r1 = -(half_sum + root) if (half_sum.conjugate() * root).real >= 0.0 else -(half_sum - root)
    return s * r1, s * (product / r1)


def _summed_eta(terms, omega):
    """Sum over one or more `(op, shift)` terms of |S_cross|^2 at offsets
    `omega - shift`, from the pole product of the module docstring with the
    shift folded into Re r; the first term writes the result."""
    coefficients = []
    for op, shift in terms:
        check_stokes_threshold(op.configuration, op.cooperativity)
        a, b = 0.5 * op.kappa_active, 0.5 * op.kappa_m
        g2 = abs(op.g_active) ** 2
        c = a * b + g2 if op.configuration is Configuration.ANTI_STOKES else a * b - g2
        r1, r2 = _poles(a, b, c, op.sideband_detuning)
        k = op.kappa_ex_active * op.kappa_ex_m * g2
        coefficients.append((k, shift + r1.real, r1.imag ** 2, shift + r2.real, r2.imag ** 2))

    omega = np.asarray(omega, dtype=float)
    flat = omega.ravel()
    eta = np.empty(flat.size)
    # far off resonance (|w| above about 1e154 rad/s) the product overflows
    # to inf, and k / inf = 0 is the efficiency's limit there
    with np.errstate(over="ignore"):
        for i in range(0, flat.size, _BLOCK):
            block, out = flat[i:i + _BLOCK], eta[i:i + _BLOCK]
            for j, (k, p1, q1, p2, q2) in enumerate(coefficients):
                u, v = block - p1, block - p2
                u *= u
                v *= v
                u += q1
                v += q2
                u *= v
                np.divide(k, u, out=u if j else out)
                if j:
                    out += u
    return eta.reshape(omega.shape)


def eta_spectrum_from_rates(op: OperatingPoint, omega):
    """On-chip photon-number conversion efficiency |S_cross|^2 at offsets
    `omega`; identical for up- and down-conversion."""
    return _summed_eta([(op, 0.0)], omega)


def onchip_efficiency_spectrum(
    params: DeviceParams, pump: PumpConfig, omega_grid
) -> Spectrum:
    """On-chip conversion efficiency over `omega_grid` (offsets from the
    triple-resonance point, rad/s)."""
    grid = np.asarray(omega_grid, dtype=float)
    return Spectrum(grid, eta_spectrum_from_rates(operating_point(params, pump), grid), ("eta_onchip",))


def offchip_efficiency(params: DeviceParams, pump: PumpConfig) -> EfficiencyBudget:
    """Full efficiency ledger at one pump power.

    Reports both the exact chain (probes x fiber-chip x on-chip) and the
    low-cooperativity linearized closed form.
    """
    op = operating_point(params, pump)
    c = op.cooperativity
    eta_int_val = eta_internal(c, pump.configuration)
    eta_o = op.kappa_ex_active / op.kappa_active
    eta_m = op.kappa_ex_m / op.kappa_m
    eta_ext_val = eta_o * eta_m
    eta_oc = eta_ext_val * eta_int_val
    losses = params.losses
    eta_tot = losses.eta_probes * losses.eta_fiber_chip * eta_oc

    # low-cooperativity closed form, written with the single-photon
    # cooperativity C0 = g0^2/(kappa_o kappa_m) of the hybridized device
    omega_l = pump.omega_l_effective
    c0 = params.g0 ** 2 / (op.kappa_active * op.kappa_m)
    eta_tot_lin = (16.0 * losses.eta_probes * losses.eta_fiber_fiber * eta_m * eta_o ** 2 * c0
                   * pump.power_in / (HBAR * omega_l * op.kappa_active))

    stages = {
        "eta_probes": losses.eta_probes,
        "eta_fiber_chip": losses.eta_fiber_chip,
        "eta_o": eta_o,
        "eta_m": eta_m,
        "C0": c0,
        "n_bar": op.n_pump,
        "sideband_resolution": op.sideband_resolution,
    }
    return EfficiencyBudget(eta_int=eta_int_val, eta_ext=eta_ext_val, eta_oc=eta_oc, eta_tot=eta_tot,
                            eta_tot_linearized=eta_tot_lin, cooperativity=c, n_bar=op.n_pump, stages=stages)


# ---------------------------------------------------------------------------
# multimode spectra
# ---------------------------------------------------------------------------

def multimode_spectrum(
    params: DeviceParams,
    pump: PumpConfig,
    pump_detuning: float,
    omega_grid,
) -> Spectrum:
    """Total conversion efficiency across all acoustic modes for a pump
    detuned by `pump_detuning` (rad/s) from its supermode.

    The grid is the offset from the transduction mode's frequency.  Each
    mode contributes |S_ac|^2 of its own operating point (see
    `operating_point` for its sideband detuning), added incoherently;
    overlapping modes (separation < 3 kappa_m) raise a regime warning but
    are still summed.
    """
    modes = params.acoustic_modes
    freqs = [m.omega_m for m in modes]
    if len(modes) > 1:
        widest = max(m.kappa_m for m in modes)
        min_sep = min(b - a for a, b in zip(freqs, freqs[1:]))
        if min_sep < 3.0 * widest:
            warnings.warn(
                "acoustic modes closer than 3 kappa_m: independent-mode "
                "summation is outside its validity regime",
                RuntimeWarning,
            )

    grid = np.asarray(omega_grid, dtype=float)
    ref = params.transduction_mode.omega_m
    terms = [(operating_point(params, pump, m, pump_detuning), m.omega_m - ref) for m in modes]
    eta = _summed_eta(terms, grid)
    return Spectrum(grid, eta, ("eta_onchip",))


# ---------------------------------------------------------------------------
# bandwidth and coupling optimization
# ---------------------------------------------------------------------------

def fwhm(spectrum: Spectrum) -> float:
    """Full width at half maximum of a single-peaked real spectrum, via
    linear interpolation of the half-maximum crossings.

    Requires the global maximum strictly inside the grid and a resolution
    of at least 8 grid steps across the extracted width.
    """
    y = spectrum.values
    x = spectrum.omega
    i_max = int(np.argmax(y))
    y_max = y[i_max]
    y_min = float(np.min(y))
    if y_max - y_min <= 0.0 or (y_max - y_min) < 1e-12 * max(abs(y_max), 1.0):
        raise ValueError("spectrum is flat: no peak to measure")
    if i_max == 0 or i_max == y.size - 1:
        raise ValueError("maximum sits on the grid boundary: span insufficient")
    half = 0.5 * y_max

    def cross(idx_range):
        for i in idx_range:
            lo, hi = (y[i], y[i + 1])
            if (lo - half) * (hi - half) <= 0.0 and lo != hi:
                return x[i] + (half - lo) * (x[i + 1] - x[i]) / (hi - lo)
        raise ValueError("half-maximum crossing not found: span insufficient")

    left = cross(range(i_max - 1, -1, -1))
    right = cross(range(i_max, y.size - 1))
    width = right - left
    step = float(np.min(np.diff(x)))
    if width < 8.0 * step:
        raise ValueError("grid too coarse: fewer than 8 points across the width")
    return float(width)


@dataclass(frozen=True)
class CouplingOptimum:
    """Optimal external-coupling result: eta_tot ~ F R^2/(1+R)^4 peaks at
    the critical coupling R = Q_int/Q_ex = 1 with value F/16."""

    r_opt: float
    eta_peak: float


def optimal_coupling(f_prefactor: float) -> CouplingOptimum:
    """Analytic optimum of eta(R) = F R^2 / (1+R)^4."""
    if f_prefactor <= 0.0:
        raise ValueError("prefactor F must be positive")
    return CouplingOptimum(r_opt=1.0, eta_peak=f_prefactor / 16.0)
