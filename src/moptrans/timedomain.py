"""Mean-field time-domain integration and pulsed/lock-in simulation.

The integrator evolves slowly varying mode envelopes in the interaction
picture of the chosen pump configuration; optical carriers never appear.
Langevin noise operators are replaced by deterministic drive amplitudes
(mean-field), so every trajectory is reproducible.  Counter-rotating
optomechanical terms (oscillating at 2 omega_m) are dropped; the
far-detuned spectator supermode is kept, with its drive phase rotating at
the supermode splitting, so optical-port responses include the spectator
contribution present in the closed forms.

Envelope frames:
  a_minus, a_plus  relative to their own supermode resonances,
  b                relative to the acoustic resonance,
  optical drive    relative to the pump frequency omega_L,
  microwave drive  relative to the acoustic resonance.

Input-output synthesis:
  anti-Stokes: a_out(t) = a_in(t) - sqrt(kex_-) a_-(t)
                          - sqrt(kex_+) a_+(t) exp(-i splitting t)
  Stokes:      a_out(t) = a_in(t) - sqrt(kex_-) a_-(t) exp(+i splitting t)
                          - sqrt(kex_+) a_+(t)
  either:      c_out(t) = -c_in(t) + sqrt(kex_m) b(t)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.signal import lfilter

from .errors import InstabilityError
from .hybridize import OperatingPoint, operating_point
from .model import TWO_PI, Configuration, DeviceParams, PumpConfig

_OVERFLOW = 1e12
_CHECK_EVERY = 256


@dataclass(frozen=True)
class StateVector:
    """Mode amplitudes (sqrt photons / sqrt phonons) in their rotating
    frames."""

    a_minus: complex
    a_plus: complex
    b: complex


class EnvelopeShape(Enum):
    RECT = "rect"
    RAISED_COSINE = "raised-cosine"


@dataclass(frozen=True)
class PulseSequence:
    """Pump gating: on-time tau_on [s], repetition rate f_rep [Hz] and the
    envelope shape (raised-cosine edges of duration edge_time)."""

    tau_on: float
    f_rep: float
    shape: EnvelopeShape = EnvelopeShape.RECT
    edge_time: float = 0.0

    def __post_init__(self):
        if self.tau_on <= 0.0 or self.f_rep <= 0.0:
            raise ValueError("tau_on and f_rep must be positive")
        if self.tau_on * self.f_rep > 1.0:
            raise ValueError("duty cycle tau_on * f_rep exceeds one")
        if self.shape is EnvelopeShape.RAISED_COSINE and not 0.0 < self.edge_time <= self.tau_on / 2.0:
            raise ValueError("raised-cosine edges need 0 < edge_time <= tau_on/2")

    def envelope(self, t: float, t_start: float = 0.0) -> float:
        """Dimensionless pump envelope in [0, 1] for the pulse beginning at
        t_start (single pulse; the repetition period is handled by the
        caller's time window)."""
        u = t - t_start
        if u < 0.0 or u > self.tau_on:
            return 0.0
        if self.shape is EnvelopeShape.RECT:
            return 1.0
        e = self.edge_time
        if u < e:
            return 0.5 * (1.0 - math.cos(math.pi * u / e))
        if u > self.tau_on - e:
            return 0.5 * (1.0 - math.cos(math.pi * (self.tau_on - u) / e))
        return 1.0


@dataclass(frozen=True)
class LockInConfig:
    """Digital lock-in model: quadrature mixing at omega_ref followed by a
    single-pole integrator with time constant tau_rc."""

    omega_ref: float
    tau_rc: float

    def __post_init__(self):
        if self.omega_ref <= 0.0 or self.tau_rc <= 0.0:
            raise ValueError("omega_ref and tau_rc must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Recorded mean-field trajectory."""

    t: np.ndarray
    a_minus: np.ndarray
    a_plus: np.ndarray
    b: np.ndarray

    def state(self, i: int) -> StateVector:
        return StateVector(complex(self.a_minus[i]), complex(self.a_plus[i]), complex(self.b[i]))

    def export_csv(self, path) -> None:
        header = "t_seconds,a_minus_re,a_minus_im,a_plus_re,a_plus_im,b_re,b_im"
        data = np.column_stack(
            [
                self.t,
                self.a_minus.real, self.a_minus.imag,
                self.a_plus.real, self.a_plus.imag,
                self.b.real, self.b.imag,
            ]
        )
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _zero_drive(t: float) -> complex:
    return 0.0j


def integrate(
    op: OperatingPoint,
    couplings,
    drives: dict,
    t_span: tuple[float, float],
    dt: float,
    g_envelope: Callable[[float], float] | None = None,
    initial: StateVector | None = None,
    record_every: int = 1,
    max_drive_freq: float = 0.0,
) -> Trajectory:
    """Fixed-step RK4 integration of the linearized equations of motion.

    Models zero sideband detuning: `op.sideband_detuning` is not read.

    Parameters
    ----------
    op : OperatingPoint to integrate.
    couplings : unused; pass None.
    drives : dict with optional keys "optical" and "microwave", each a
        callable t -> complex envelope (see module docstring for frames).
    t_span : (t0, t1) integration window [s].
    dt : step [s]; validated against 50 samples per fastest rate, where the
        fastest rate includes the supermode splitting whenever an optical
        drive is present (its spectator phase rotates at the splitting).
    g_envelope : optional dimensionless modulation of the effective
        couplings (pulsed pump gating).
    max_drive_freq : fastest frequency content of the drive envelopes [Hz],
        declared by the caller for step validation.
    """
    opt = drives.get("optical", _zero_drive)
    mw = drives.get("microwave", _zero_drive)
    has_opt = drives.get("optical") is not None

    fastest = max(op.kappa_minus, op.kappa_plus, op.kappa_m) / TWO_PI + max_drive_freq
    if has_opt:
        fastest += op.splitting / TWO_PI
    if dt > 1.0 / (50.0 * fastest):
        raise ValueError(
            f"step dt={dt!r} too coarse: need dt <= {1.0 / (50.0 * fastest)!r}"
        )

    t0, t1 = t_span
    n_steps = int(math.ceil((t1 - t0) / dt))
    env = g_envelope if g_envelope is not None else (lambda t: 1.0)

    km, kp, kb = 0.5 * op.kappa_minus, 0.5 * op.kappa_plus, 0.5 * op.kappa_m
    sm_, sp_, sb_ = (
        math.sqrt(op.kappa_ex_minus),
        math.sqrt(op.kappa_ex_plus),
        math.sqrt(op.kappa_ex_m),
    )
    split = op.splitting
    antistokes = op.configuration is Configuration.ANTI_STOKES
    g_plus = op.g_plus
    g_minus = op.g_minus

    if antistokes:
        def rhs(t, am, ap, b):
            a_in = opt(t)
            g = g_plus * env(t)
            d_am = -km * am + sm_ * a_in
            d_ap = -kp * ap + 1j * g * b + sp_ * a_in * cmath.exp(1j * split * t)
            d_b = -kb * b + 1j * g.conjugate() * ap + sb_ * mw(t)
            return d_am, d_ap, d_b
    else:
        def rhs(t, am, ap, b):
            a_in = opt(t)
            g = g_minus * env(t)
            d_am = -km * am + 1j * g * b.conjugate() + sm_ * a_in * cmath.exp(-1j * split * t)
            d_ap = -kp * ap + sp_ * a_in
            d_b = -kb * b + 1j * g * am.conjugate() + sb_ * mw(t)
            return d_am, d_ap, d_b

    if initial is None:
        am, ap, b = 0.0j, 0.0j, 0.0j
    else:
        am, ap, b = complex(initial.a_minus), complex(initial.a_plus), complex(initial.b)

    n_rec = n_steps // record_every + 1
    t_rec = np.empty(n_rec)
    am_rec = np.empty(n_rec, dtype=complex)
    ap_rec = np.empty(n_rec, dtype=complex)
    b_rec = np.empty(n_rec, dtype=complex)
    t = t0
    j = 0
    t_rec[0], am_rec[0], ap_rec[0], b_rec[0] = t, am, ap, b
    j = 1
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(n_steps):
        k1 = rhs(t, am, ap, b)
        k2 = rhs(t + half, am + half * k1[0], ap + half * k1[1], b + half * k1[2])
        k3 = rhs(t + half, am + half * k2[0], ap + half * k2[1], b + half * k2[2])
        k4 = rhs(t + dt, am + dt * k3[0], ap + dt * k3[1], b + dt * k3[2])
        am += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        ap += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        b += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t = t0 + (i + 1) * dt
        if (i + 1) % _CHECK_EVERY == 0:
            mag = abs(am) + abs(ap) + abs(b)
            if not math.isfinite(mag) or mag > _OVERFLOW:
                raise InstabilityError(
                    f"trajectory diverged at t={t!r} (|state| ~ {mag!r}); "
                    "operating point is above the parametric threshold"
                )
        if (i + 1) % record_every == 0:
            t_rec[j], am_rec[j], ap_rec[j], b_rec[j] = t, am, ap, b
            j += 1
    return Trajectory(t=t_rec[:j], a_minus=am_rec[:j], a_plus=ap_rec[:j], b=b_rec[:j])


# ---------------------------------------------------------------------------
# lock-in demodulation
# ---------------------------------------------------------------------------

def lockin_demodulate(
    t: np.ndarray, signal: np.ndarray, config: LockInConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature demodulation of a real signal: mix with 2 cos / -2 sin at
    omega_ref, low-pass each quadrature with a single-pole integrator of
    time constant tau_rc, and return (amplitude, phase) series."""
    t = np.asarray(t, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if t.ndim != 1 or t.size < 2 or t.shape != signal.shape:
        raise ValueError("need matching 1-D time and signal arrays")
    dt = float(t[1] - t[0])
    f_ref = config.omega_ref / TWO_PI
    if 1.0 / dt < 20.0 * f_ref:
        raise ValueError(
            f"undersampled input: need >= 20 samples per reference period, "
            f"got {1.0 / (dt * f_ref)!r}"
        )
    phase_ref = config.omega_ref * t
    i_mix = signal * 2.0 * np.cos(phase_ref)
    q_mix = signal * (-2.0) * np.sin(phase_ref)
    alpha = 1.0 - math.exp(-dt / config.tau_rc)
    b_coef = [alpha]
    a_coef = [1.0, -(1.0 - alpha)]
    i_f = lfilter(b_coef, a_coef, i_mix)
    q_f = lfilter(b_coef, a_coef, q_mix)
    amp = np.hypot(i_f, q_f)
    phase = np.arctan2(q_f, i_f)
    return amp, phase


# ---------------------------------------------------------------------------
# pulsed down-conversion pipeline
# ---------------------------------------------------------------------------

def pulsed_downconversion(
    params: DeviceParams,
    pulse: PulseSequence,
    optical_input_flux: float,
    lockin: LockInConfig,
    pump_power: float,
    duration: float | None = None,
    pulse_start: float | None = None,
    samples_per_cycle: int = 24,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end pulsed optical-to-microwave conversion.

    A Stokes pump of peak off-chip power `pump_power` [W] is gated by
    `pulse`; the intracavity pump amplitude follows its own ring-up ODE, so
    the effective coupling g_-(t) is not assumed instantaneous.  A CW
    optical tone of on-chip photon flux `optical_input_flux` [1/s] sits on
    the lower supermode; the converted microwave output at the acoustic
    carrier is synthesized as a real waveform and demodulated by the
    lock-in model.

    Returns (t, amplitude, phase).
    """
    pump = PumpConfig(Configuration.STOKES, pump_power)
    op = operating_point(params, pump)
    if op.cooperativity >= 1.0:
        raise InstabilityError("pulsed pump peak power is above the Stokes threshold")

    f_carrier = op.omega_m / TWO_PI
    dt = 1.0 / (samples_per_cycle * f_carrier)
    t_start = 3.0 * lockin.tau_rc if pulse_start is None else pulse_start
    t_end = t_start + (duration if duration is not None else min(pulse.tau_on, 1.0e-6) + 10.0 * lockin.tau_rc)
    n = int(math.ceil(t_end / dt))
    t = np.arange(n + 1) * dt

    # intracavity pump ring-up -> g_-(t); a_plus is pumped under Stokes
    kp = 0.5 * op.kappa_plus
    km, kb = 0.5 * op.kappa_minus, 0.5 * op.kappa_m
    sm_ = math.sqrt(op.kappa_ex_minus)
    sb_out = math.sqrt(op.kappa_ex_m)
    g_peak = op.g_minus  # at full pump
    s_opt = math.sqrt(optical_input_flux)

    def pump_env(time: float) -> float:
        return pulse.envelope(time, t_start)

    # state: pump amplitude alpha_p (normalized to alpha_ss), a_-, b
    a_p = 0.0
    am = 0.0j
    b = 0.0j
    b_rec = np.empty(n + 1, dtype=complex)
    b_rec[0] = b

    def rhs(time, a_p_, am_, b_):
        d_ap = -kp * a_p_ + kp * pump_env(time)  # normalized ring-up
        g = g_peak * a_p_
        d_am = -km * am_ + 1j * g * b_.conjugate() + sm_ * s_opt
        d_b = -kb * b_ + 1j * g * am_.conjugate()
        return d_ap, d_am, d_b

    half = 0.5 * dt
    sixth = dt / 6.0
    time = 0.0
    for i in range(n):
        k1 = rhs(time, a_p, am, b)
        k2 = rhs(time + half, a_p + half * k1[0], am + half * k1[1], b + half * k1[2])
        k3 = rhs(time + half, a_p + half * k2[0], am + half * k2[1], b + half * k2[2])
        k4 = rhs(time + dt, a_p + dt * k3[0], am + dt * k3[1], b + dt * k3[2])
        a_p += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        am += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        b += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        time = (i + 1) * dt
        b_rec[i + 1] = b
        if (i + 1) % _CHECK_EVERY == 0 and (not math.isfinite(abs(b)) or abs(b) > _OVERFLOW):
            raise InstabilityError("pulsed trajectory diverged")

    c_out_env = sb_out * b_rec  # no microwave input
    waveform = np.real(c_out_env * np.exp(-1j * op.omega_m * t))
    amp, phase = lockin_demodulate(t, waveform, lockin)
    return t, amp, phase


# ---------------------------------------------------------------------------
# photothermal response model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotothermalModel:
    """Three-plateau cross-phase-modulation response: an instantaneous Kerr
    term plus two single-pole photothermal processes with corner
    frequencies f_local > f_global [Hz]."""

    a_kerr: float
    a_local: float
    f_local: float
    a_global: float
    f_global: float

    def __post_init__(self):
        if self.f_local <= 0.0 or self.f_global <= 0.0:
            raise ValueError("corner frequencies must be positive")
        if self.f_global >= self.f_local:
            raise ValueError("need f_global < f_local")


def photothermal_response(f, model: PhotothermalModel):
    """H(f) = a_kerr + a_local/(1 + i f/f_local) + a_global/(1 + i f/f_global)
    for modulation frequency f [Hz] (scalar or array)."""
    f = np.asarray(f, dtype=float)
    h = (
        model.a_kerr
        + model.a_local / (1.0 + 1j * f / model.f_local)
        + model.a_global / (1.0 + 1j * f / model.f_global)
    )
    return h if h.ndim else complex(h)
