import cmath
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moptrans import timedomain
from moptrans.calibrate import fit_rc_step
from moptrans.config import load_config
from moptrans.errors import InstabilityError
from moptrans.hybridize import OperatingPoint, linear_model, operating_point
from moptrans.model import TWO_PI, Configuration, DeviceParams, PumpConfig, dbm_to_watts, photon_flux
from moptrans.response import transfer_from_rates
from moptrans.timedomain import (
    LockInConfig,
    PulseSequence,
    lockin_demodulate,
    pulsed_downconversion,
    integrate,
    Trajectory,
    _BLOCK,
    _CHECK_EVERY,
    _CHUNK,
    _MAX_PULSE_STEPS,
    _OVERFLOW,
    _PAIR_CHUNK,
    _recur,
    _scan_pair,
)

from conftest import make_paper_device, make_rates_op

# a rectangular pulse and one with raised-cosine edges; the ids name the
# shape each edge-time flag gives
SHAPES = [pytest.param(False, id="EnvelopeShape.RECT"), pytest.param(True, id="EnvelopeShape.RAISED_COSINE")]


# ---------------------------------------------------------------------------
# Reference RK4 loops: the per-step Python integrators that the affine
# recurrence replaced, kept to pin the new stepper to the old iterates.
# ---------------------------------------------------------------------------

def _envelope_ref(pulse: PulseSequence, t: float, t_start: float = 0.0) -> float:
    """The scalar pump envelope that preceded the array-valued one."""
    u = t - t_start
    if u < 0.0 or u > pulse.tau_on:
        return 0.0
    if pulse.edge_time == 0.0:
        return 1.0
    e = pulse.edge_time
    if u < e:
        return 0.5 * (1.0 - math.cos(math.pi * u / e))
    if u > pulse.tau_on - e:
        return 0.5 * (1.0 - math.cos(math.pi * (pulse.tau_on - u) / e))
    return 1.0


def _zero_drive(t: float) -> complex:
    return 0.0j


def _integrate_ref(
    op: OperatingPoint,
    couplings,
    drives: dict,
    t_span: tuple[float, float],
    dt: float,
    max_drive_freq: float = 0.0,
) -> Trajectory:
    """Fixed-step RK4 integration of the linearized equations of motion,
    from empty modes at t0, recording every step.

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

    km, kp, kb = 0.5 * op.kappa_minus, 0.5 * op.kappa_plus, 0.5 * op.kappa_m
    sm_, sp_, sb_ = (
        math.sqrt(op.kappa_ex_minus),
        math.sqrt(op.kappa_ex_plus),
        math.sqrt(op.kappa_ex_m),
    )
    split = op.splitting
    antistokes = op.configuration is Configuration.ANTI_STOKES
    g = op.g_plus if antistokes else op.g_minus

    if antistokes:
        def rhs(t, am, ap, b):
            a_in = opt(t)
            d_am = -km * am + sm_ * a_in
            d_ap = -kp * ap + 1j * g * b + sp_ * a_in * cmath.exp(1j * split * t)
            d_b = -kb * b + 1j * g.conjugate() * ap + sb_ * mw(t)
            return d_am, d_ap, d_b
    else:
        def rhs(t, am, ap, b):
            a_in = opt(t)
            d_am = -km * am + 1j * g * b.conjugate() + sm_ * a_in * cmath.exp(-1j * split * t)
            d_ap = -kp * ap + sp_ * a_in
            d_b = -kb * b + 1j * g * am.conjugate() + sb_ * mw(t)
            return d_am, d_ap, d_b

    am, ap, b = 0.0j, 0.0j, 0.0j
    t = t0
    t_rec = np.empty(n_steps + 1)
    am_rec = np.zeros(n_steps + 1, dtype=complex)
    ap_rec = np.zeros(n_steps + 1, dtype=complex)
    b_rec = np.zeros(n_steps + 1, dtype=complex)
    t_rec[0] = t
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
        t_rec[i + 1], am_rec[i + 1], ap_rec[i + 1], b_rec[i + 1] = t, am, ap, b
    return Trajectory(t=t_rec, a_minus=am_rec, a_plus=ap_rec, b=b_rec)


def _pulsed_ref(
    params: DeviceParams,
    pulse: PulseSequence,
    optical_input_flux: float,
    lockin: LockInConfig,
    pump: PumpConfig,
    duration: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end pulsed optical-to-microwave conversion.

    A Stokes pump at the power and frequency of `pump` is gated by
    `pulse`; the intracavity pump amplitude follows its own ring-up ODE, so
    the effective coupling g_-(t) is not assumed instantaneous.  A CW
    optical tone of on-chip photon flux `optical_input_flux` [1/s] sits on
    the lower supermode; the converted microwave output at the acoustic
    carrier is synthesized as a real waveform and demodulated by the
    lock-in model.

    Returns (t, amplitude, phase).
    """
    op = operating_point(params, PumpConfig(Configuration.STOKES, pump.power_in, pump.omega_l))
    if op.cooperativity >= 1.0:
        raise InstabilityError("pulsed pump peak power is above the Stokes threshold")

    f_carrier = op.omega_m / TWO_PI
    dt = 1.0 / (24 * f_carrier)
    t_start = 3.0 * lockin.tau_rc
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
        return _envelope_ref(pulse, time, t_start)

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


def _lockin_ref(t, signal, config):
    """The one-pass lock-in that the blockwise `lockin_demodulate` replaced:
    the whole signal mixed, filtered by one `_recur` call, then abs and
    angle."""
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
    filtered = _recur(1.0 - alpha, alpha * (i_mix + 1j * q_mix))  # I + iQ
    return np.abs(filtered), np.angle(filtered)


def _pulsed_whole_array(monkeypatch, *args):
    """`pulsed_downconversion(*args)` and the whole-array composition of
    the same stepper blocks: the acoustic mode collected over the window,
    the waveform synthesized from it in one pass, then `_lockin_ref`."""
    blocks, stepper = [], timedomain._stepper

    def recording_stepper(*stepper_args):
        for block in stepper(*stepper_args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(timedomain, "_stepper", recording_stepper)
    streamed = pulsed_downconversion(*args)
    params, _, _, lockin, pump, _ = args
    op = operating_point(params, PumpConfig(Configuration.STOKES, pump.power_in, pump.omega_l))
    t, b_dag = (np.concatenate(v) for v in list(zip(*blocks))[::3])
    waveform = np.real((linear_model(op).c[1][2] * b_dag).conj() * np.exp(-1j * op.omega_m * t))
    return streamed, (t, *_lockin_ref(t, waveform, lockin))


def _pair_loop_ref(rows, y0, y1, n):
    """The per-step update of the coupled pair that the affine scan
    replaced: y_{k+1} = M_k y_k + u_k with rows = (m00, m01, u0, m10, m11,
    u1), each a scalar or an array over the n steps."""
    ys0, ys1 = [], []
    for m00, m01, u0, m10, m11, u1 in zip(*(np.broadcast_to(v, (n,)).tolist() for v in rows)):
        y0, y1 = m00 * y0 + m01 * y1 + u0, m10 * y0 + m11 * y1 + u1
        ys0.append(y0)
        ys1.append(y1)
    return np.array(ys0), np.array(ys1)


def _dt_for(op, extra_hz=0.0, factor=60.0, optical_drive=False):
    """Step satisfying the integrator's conservative bound (which adds the
    sideband detuning, and the spectator's offset d +- splitting whenever
    an optical drive is present)."""
    d = abs(op.sideband_detuning)
    fastest = (max(op.kappa_minus, op.kappa_plus, op.kappa_m) + d) / TWO_PI + extra_hz
    if optical_drive:
        fastest += (op.splitting + d) / TWO_PI
    return 1.0 / (factor * fastest)


def steady_transfer(op, drive_port, nu, settle_factor=18.0, fast_extra_hz=0.0):
    """Drive one port with a tone at offset nu and demodulate both outputs
    in steady state; returns (s_to_optical, s_to_microwave) at the closed
    forms' evaluation indices."""
    s_amp = 1.0
    if drive_port == "microwave":
        drives = {"microwave": lambda t: s_amp * cmath.exp(-1j * nu * t)}
        extra = abs(nu) / TWO_PI
    else:
        if op.configuration is Configuration.ANTI_STOKES:
            carrier = op.splitting + nu
        else:
            carrier = nu - op.splitting
        drives = {"optical": lambda t: s_amp * cmath.exp(-1j * carrier * t)}
        extra = (abs(carrier)) / TWO_PI + fast_extra_hz
    kmin = min(op.kappa_m, op.kappa_minus, op.kappa_plus)
    t_end = settle_factor / kmin
    dt = _dt_for(op, extra_hz=extra, optical_drive=(drive_port == "optical"))
    traj = integrate(op, None, drives, (0.0, t_end), dt, max_drive_freq=extra)
    tf = float(traj.t[-1])
    am, ap, b = complex(traj.a_minus[-1]), complex(traj.a_plus[-1]), complex(traj.b[-1])

    antistokes = op.configuration is Configuration.ANTI_STOKES
    sq_m = math.sqrt(op.kappa_ex_m)
    sq_p = math.sqrt(op.kappa_ex_plus)
    sq_mn = math.sqrt(op.kappa_ex_minus)

    if drive_port == "microwave":
        c_in_tf = drives["microwave"](tf)
        c_out = -c_in_tf + sq_m * b
        if antistokes:
            # signal sector oscillates at e^{-i nu t}
            s_opt = (-sq_p * ap) * cmath.exp(1j * nu * tf) / s_amp
            s_mw = c_out * cmath.exp(1j * nu * tf) / s_amp
        else:
            # anomalous optical response at e^{+i nu t}; closed form at -nu
            s_opt = (-sq_mn * am) * cmath.exp(-1j * nu * tf) / s_amp
            s_mw = c_out * cmath.exp(1j * nu * tf) / s_amp
        return s_opt, s_mw
    else:
        a_in_tf = drives["optical"](tf)
        if antistokes:
            a_out_sig = a_in_tf - sq_mn * am - sq_p * ap * cmath.exp(-1j * op.splitting * tf)
            s_opt = a_out_sig * cmath.exp(1j * (op.splitting + nu) * tf) / s_amp
            c_out = sq_m * b
            s_mw = c_out * cmath.exp(1j * nu * tf) / s_amp
        else:
            a_out_sig = a_in_tf - sq_mn * am * cmath.exp(1j * op.splitting * tf) - sq_p * ap
            s_opt = a_out_sig * cmath.exp(1j * (nu - op.splitting) * tf) / s_amp
            c_out = sq_m * b
            s_mw = c_out * cmath.exp(-1j * nu * tf) / s_amp
        return s_opt, s_mw


class TestIntegrate:
    def test_bare_decay(self):
        """With g = 0, b rings down freely once its drive stops at t_off."""
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.0)
        dt = _dt_for(op)
        k_off = math.ceil(2.0 / (op.kappa_m * dt))
        t_off = k_off * dt  # on the step grid: every stage from t_off on sees no drive
        drives = {"microwave": lambda t: 1.0 if t < t_off else 0.0}
        traj = integrate(op, None, drives, (0.0, t_off + 5.0 / op.kappa_m), dt)
        assert traj.t[k_off] == t_off
        expected = math.exp(-0.5 * op.kappa_m * (traj.t[-1] - t_off))
        assert abs(traj.b[-1]) / abs(traj.b[k_off]) == pytest.approx(expected, rel=1e-6)

    def test_cw_microwave_drive_matches_closed_form(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.05)
        nu = 0.9 * op.kappa_m
        drives = {"microwave": lambda t: cmath.exp(-1j * nu * t)}
        kmin = min(op.kappa_m, op.kappa_plus)
        traj = integrate(op, None, drives, (0.0, 18.0 / kmin), _dt_for(op, abs(nu) / TWO_PI),
                         max_drive_freq=abs(nu) / TWO_PI)
        tf = traj.t[-1]
        # intracavity |a_+| equals |S_ac| / sqrt(kex_+) times the drive
        s_ac = transfer_from_rates(op, "microwave", "optical", nu)
        expected = abs(s_ac) / math.sqrt(op.kappa_ex_plus)
        assert abs(traj.a_plus[-1]) == pytest.approx(expected, rel=1e-3)

    def test_all_port_pairs_both_configurations(self):
        """Steady-state harmonic response against every closed form."""
        for cfg in (Configuration.ANTI_STOKES, Configuration.STOKES):
            op = make_rates_op(cfg, cooperativity=0.08)
            for nu in (-1.7 * op.kappa_m, 0.6 * op.kappa_m):
                s_opt, s_mw = steady_transfer(op, "microwave", nu)
                cf_ac = transfer_from_rates(op, "microwave", "optical",
                                            nu if cfg is Configuration.ANTI_STOKES else -nu)
                cf_cc = transfer_from_rates(op, "microwave", "microwave", nu)
                assert abs(s_opt - cf_ac) / abs(cf_ac) < 1e-3
                assert abs(s_mw - cf_cc) / abs(cf_cc) < 1e-3
                s_opt2, s_mw2 = steady_transfer(op, "optical", nu)
                cf_aa = transfer_from_rates(op, "optical", "optical", nu)
                cf_ca = transfer_from_rates(op, "optical", "microwave",
                                            nu if cfg is Configuration.ANTI_STOKES else -nu)
                assert abs(s_opt2 - cf_aa) / abs(cf_aa) < 1e-3
                assert abs(s_mw2 - cf_ca) / abs(cf_ca) < 1e-3

    @settings(max_examples=4)
    @given(c=st.floats(0.01, 0.9), z=st.floats(-3.0, 3.0).filter(lambda z: abs(z) > 0.05),
           x=st.floats(-3.0, 3.0))
    def test_detuned_microwave_drive_matches_closed_forms(self, c, z, x):
        """At sideband detuning d = z kappa_o the anti-Stokes steady state
        reads d through the model: S_ac and S_cc at offset x kappa_m."""
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=c)
        op = dataclasses.replace(op, sideband_detuning=z * op.kappa_plus)
        nu = x * op.kappa_m
        s_opt, s_mw = steady_transfer(op, "microwave", nu)
        for got, to_port in ((s_opt, "optical"), (s_mw, "microwave")):
            cf = transfer_from_rates(op, "microwave", to_port, nu)
            assert abs(got - cf) <= 1e-3 * abs(cf), to_port

    def test_stokes_above_threshold_diverges(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=1.2)
        drives = {"microwave": lambda t: 1.0}
        with pytest.raises(InstabilityError):
            integrate(op, None, drives, (0.0, 400.0 / op.kappa_m), _dt_for(op))

    def test_rk4_order(self):
        """Halving dt cuts the error against a dt/8 reference by ~16x."""
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.3)
        ramp = 10.0 / op.kappa_m

        def drive(t):
            if t >= ramp:
                return 1.0 + 0.0j
            return 0.5 * (1.0 - math.cos(math.pi * t / ramp))

        drives = {"microwave": drive}
        t_end = 2.0 / op.kappa_m
        # dt must divide t_end exactly so every run compares the same final
        # time (the integrator rounds the step count up otherwise)
        dt0 = t_end / math.ceil(t_end / _dt_for(op, factor=55.0))

        def final_state(dt):
            traj = integrate(op, None, drives, (0.0, t_end), dt)
            return np.array([traj.a_minus[-1], traj.a_plus[-1], traj.b[-1]])

        ref = final_state(dt0 / 8.0)
        err1 = np.linalg.norm(final_state(dt0) - ref)
        err2 = np.linalg.norm(final_state(dt0 / 2.0) - ref)
        assert 10.0 < err1 / err2 < 22.0

    def test_linearity(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=0.2)
        drives1 = {"microwave": lambda t: 0.5}
        drives2 = {"microwave": lambda t: 1.0}
        t_end = 6.0 / op.kappa_m
        dt = _dt_for(op)
        t1 = integrate(op, None, drives1, (0.0, t_end), dt)
        t2 = integrate(op, None, drives2, (0.0, t_end), dt)
        assert np.allclose(2.0 * t1.b, t2.b, rtol=1e-10, atol=1e-14)
        assert np.allclose(2.0 * t1.a_minus, t2.a_minus, rtol=1e-10, atol=1e-14)

    def test_passivity(self):
        """Both ports drive all three modes until t_off; from then on the
        anti-Stokes beam splitter only loses quanta."""
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.6)
        dt = _dt_for(op, optical_drive=True)
        k_off = math.ceil(2.0 / (op.kappa_m * dt))
        t_off = k_off * dt
        # drive amplitudes of order sqrt(kappa) fill the modes to order one quantum
        drives = {
            "optical": lambda t: (0.9 + 0.3j) * math.sqrt(op.kappa_minus) if t < t_off else 0.0j,
            "microwave": lambda t: (0.5 - 1.1j) * math.sqrt(op.kappa_m) if t < t_off else 0.0j,
        }
        traj = integrate(op, None, drives, (0.0, t_off + 8.0 / op.kappa_m), dt)
        assert traj.t[k_off] == t_off
        quanta = (np.abs(traj.a_minus) ** 2 + np.abs(traj.a_plus) ** 2 + np.abs(traj.b) ** 2)[k_off:]
        assert min(abs(v[k_off]) for v in (traj.a_minus, traj.a_plus, traj.b)) > 0.05
        assert np.all(np.diff(quanta) <= 1e-12)

    @pytest.mark.parametrize("t0", [0.0, 2.5e-9, -3e-7, 1e-3])
    @pytest.mark.parametrize("cfg", [Configuration.ANTI_STOKES, Configuration.STOKES])
    def test_time_axis_and_zero_start(self, cfg, t0):
        """Every step is recorded, at t0 + k dt exactly, from empty modes."""
        op = make_rates_op(cfg, cooperativity=0.3)
        dt = _dt_for(op)
        n = _BLOCK + 7
        drives = {"microwave": lambda t: 0.6 + 0.2j}
        traj = integrate(op, None, drives, (t0, t0 + (n - 0.5) * dt), dt)
        assert np.array_equal(traj.t, t0 + np.arange(n + 1) * dt)
        for v in (traj.a_minus, traj.a_plus, traj.b):
            assert v.shape == (n + 1,)
            assert v[0] == 0.0
        assert abs(traj.b[-1]) > 0.0

    def test_step_validation(self):
        op = make_rates_op(Configuration.ANTI_STOKES)
        with pytest.raises(ValueError):
            integrate(op, None, {}, (0.0, 1e-6), 1.0 / op.kappa_m)


def _assert_close_trajectories(traj, ref):
    assert np.array_equal(traj.t, ref.t)
    for name in ("a_minus", "a_plus", "b"):
        new, old = getattr(traj, name), getattr(ref, name)
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old)), name


class TestStepperMatchesReference:
    """The affine-recurrence stepper reproduces the per-step RK4 loops to
    rounding: bit-identical times, modes within 1e-12 of their peak."""

    @pytest.mark.parametrize("cfg", [Configuration.ANTI_STOKES, Configuration.STOKES])
    @pytest.mark.parametrize("ports", [("optical",), ("microwave",), ("optical", "microwave")])
    def test_integrate(self, cfg, ports):
        op = make_rates_op(cfg, cooperativity=0.3)
        nu = 0.7 * op.kappa_m
        carrier = op.splitting + nu if cfg is Configuration.ANTI_STOKES else nu - op.splitting
        sources = {
            "optical": lambda t: 0.8 * cmath.exp(-1j * carrier * t),
            "microwave": lambda t: (0.6 + 0.2j) * cmath.exp(-1j * nu * t),
        }
        drives = {port: sources[port] for port in ports}
        extra = abs(carrier) / TWO_PI if "optical" in ports else abs(nu) / TWO_PI
        dt = _dt_for(op, extra, optical_drive="optical" in ports)
        t0 = 2.5e-9
        t_span = (t0, t0 + (_BLOCK + 1500.5) * dt)  # spans a block boundary
        traj = integrate(op, None, drives, t_span, dt, max_drive_freq=extra)
        ref = _integrate_ref(op, None, drives, t_span, dt, max_drive_freq=extra)
        _assert_close_trajectories(traj, ref)

    @pytest.mark.parametrize("n", [1, _CHECK_EVERY, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
    @pytest.mark.parametrize("cfg", [Configuration.ANTI_STOKES, Configuration.STOKES])
    def test_integrate_lengths(self, cfg, n):
        """Runs that end inside, on and just past a block boundary record
        n + 1 samples that match the reference loop."""
        op = make_rates_op(cfg, cooperativity=0.3)
        nu = 0.7 * op.kappa_m
        carrier = op.splitting + nu if cfg is Configuration.ANTI_STOKES else nu - op.splitting
        drives = {
            "optical": lambda t: 0.8 * cmath.exp(-1j * carrier * t),
            "microwave": lambda t: (0.6 + 0.2j) * cmath.exp(-1j * nu * t),
        }
        extra = abs(carrier) / TWO_PI
        dt = _dt_for(op, extra, optical_drive=True)
        t0 = 2.5e-9
        t_span = (t0, t0 + (n - 0.5) * dt)
        traj = integrate(op, None, drives, t_span, dt, max_drive_freq=extra)
        ref = _integrate_ref(op, None, drives, t_span, dt, max_drive_freq=extra)
        assert traj.t.shape == (n + 1,)
        _assert_close_trajectories(traj, ref)

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("edged", SHAPES)
    def test_pulsed(self, fast, edged):
        from moptrans.model import AcousticMode, OpticalModeBare

        dev, power = make_paper_device(), 0.126
        if fast:  # the criterion-11 device
            fast_mode = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 300e6, TWO_PI * 33e6)
            wide = OpticalModeBare(dev.left.omega, TWO_PI * 740e6, TWO_PI * 60e6)
            dev, power = DeviceParams(wide, wide, dev.coupling_j, (fast_mode,), dev.g0, dev.losses), 0.05
        # a short pulse so both edges fall inside the window
        pulse = PulseSequence(0.25e-6, 100e3, edge_time=60e-9 if edged else 0.0)
        lockin = LockInConfig(TWO_PI * 3.48e9, 30e-9)
        args = (dev, pulse, 1e12, lockin, PumpConfig(Configuration.STOKES, power), 0.45e-6)
        t, amp, phase = pulsed_downconversion(*args)
        t_ref, amp_ref, phase_ref = _pulsed_ref(*args)
        assert np.array_equal(t, t_ref)
        peak = np.max(amp_ref)
        assert np.max(np.abs(amp - amp_ref)) <= 1e-10 * peak
        lit = amp_ref > 1e-3 * peak
        assert np.max(np.abs(np.angle(np.exp(1j * (phase[lit] - phase_ref[lit]))))) <= 1e-9

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("edged", SHAPES)
    def test_pulsed_streams_bit_identically(self, monkeypatch, fast, edged):
        """The pulse consumes the stepper's blocks as they come and the
        lock-in runs blockwise; (t, amp, phase) equal the whole-array
        composition bit for bit.  The stepper's last block has 45 steps,
        and the lock-in's 46-sample tail joins its eleventh block."""
        from moptrans.model import AcousticMode, OpticalModeBare

        dev, power = make_paper_device(), 0.126
        if fast:  # the criterion-11 device
            fast_mode = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 300e6, TWO_PI * 33e6)
            wide = OpticalModeBare(dev.left.omega, TWO_PI * 740e6, TWO_PI * 60e6)
            dev, power = DeviceParams(wide, wide, dev.coupling_j, (fast_mode,), dev.g0, dev.losses), 0.05
        pulse = PulseSequence(0.25e-6, 100e3, edge_time=60e-9 if edged else 0.0)
        lockin = LockInConfig(TWO_PI * 3.48e9, 30e-9)
        streamed, whole = _pulsed_whole_array(monkeypatch, dev, pulse, 1e12, lockin,
                                               PumpConfig(Configuration.STOKES, power), 0.45e-6)
        assert streamed[0].size == 45102
        for got, ref in zip(streamed, whole):
            assert np.array_equal(got, ref)

    def test_instability_parity(self):
        """Above the Stokes threshold both raise at the same t; the stepper
        stops within one block of it (the window runs on well past it)."""
        op = make_rates_op(Configuration.STOKES, cooperativity=1.2)
        calls = []

        def drive(t):
            calls.append(t)
            return 1.0

        span, dt = (0.0, 800.0 / op.kappa_m), _dt_for(op)
        with pytest.raises(InstabilityError) as new:
            integrate(op, None, {"microwave": drive}, span, dt)
        with pytest.raises(InstabilityError) as old:
            _integrate_ref(op, None, {"microwave": lambda t: 1.0}, span, dt)
        t_new = re.search(r"at t=(\S+) ", str(new.value)).group(1)
        t_old = re.search(r"at t=(\S+) ", str(old.value)).group(1)
        assert t_new == t_old
        steps = round(float(t_new) / dt)
        assert steps < math.ceil(span[1] / dt) - _BLOCK
        assert len(calls) <= 2 * (steps + _BLOCK) + steps // _BLOCK + 1


class TestLockIn:
    def test_pure_tone(self):
        f_ref = 200e6
        config = LockInConfig(TWO_PI * f_ref, 100e-9)
        dt = 1.0 / (25.0 * f_ref)
        t = np.arange(0.0, 2e-6, dt)
        amplitude, phase_in = 0.7, 0.4
        signal = amplitude * np.cos(TWO_PI * f_ref * t + phase_in)
        amp, phase = lockin_demodulate(t, signal, config)
        settled = t > 10 * config.tau_rc
        assert np.mean(amp[settled]) == pytest.approx(amplitude, rel=2e-3)
        assert np.mean(phase[settled]) == pytest.approx(phase_in, abs=5e-3)

    def test_step_response(self):
        f_ref = 200e6
        tau = 100e-9
        config = LockInConfig(TWO_PI * f_ref, tau)
        dt = 1.0 / (25.0 * f_ref)
        t = np.arange(0.0, 1.5e-6, dt)
        t0 = 0.3e-6
        signal = np.where(t >= t0, np.cos(TWO_PI * f_ref * t), 0.0)
        amp, _ = lockin_demodulate(t, signal, config)
        sel = t >= t0
        expected = 1.0 - np.exp(-(t[sel] - t0) / tau)
        assert np.max(np.abs(amp[sel] - expected)) < 0.02

    def test_offset_tone_suppressed(self):
        # tone at omega_ref + 10/tau: single-pole rolloff >= 20 dB
        f_ref = 200e6
        tau = 100e-9
        config = LockInConfig(TWO_PI * f_ref, tau)
        dt = 1.0 / (40.0 * f_ref)
        t = np.arange(0.0, 30 * tau, dt)
        offset = 10.0 / tau
        signal = np.cos((TWO_PI * f_ref + offset) * t)
        amp, _ = lockin_demodulate(t, signal, config)
        beat = TWO_PI / offset
        window = t > (t[-1] - 5 * beat)
        suppression_db = -20.0 * math.log10(np.mean(amp[window]))
        assert suppression_db >= 20.0

    @pytest.mark.parametrize(
        "n", [1, 2, _CHUNK, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + _CHUNK + 1, 3 * _BLOCK + 17]
    )
    def test_blockwise_matches_one_pass(self, n):
        """Runs that end inside, on and just past a block boundary equal the
        one-pass reference bit for bit, a tail of one chunk row (17 samples)
        or two (65) included; one sample is refused by both."""
        f_ref = 3.48e9
        config = LockInConfig(TWO_PI * f_ref, 30e-9)
        t = np.arange(n) / (24.0 * f_ref)
        rng = np.random.default_rng(n)
        signal = np.cos(TWO_PI * f_ref * t + 0.3) * (1.0 + 0.2 * rng.normal(size=n))
        if n < 2:
            for fn in (lockin_demodulate, _lockin_ref):
                with pytest.raises(ValueError, match="need matching 1-D time and signal arrays"):
                    fn(t, signal, config)
            return
        for got, ref in zip(lockin_demodulate(t, signal, config), _lockin_ref(t, signal, config)):
            assert got.shape == (n,)
            assert np.array_equal(got, ref)

    def test_undersampled_rejected(self):
        config = LockInConfig(TWO_PI * 200e6, 100e-9)
        t = np.arange(0.0, 1e-6, 1.0 / (5.0 * 200e6))
        with pytest.raises(ValueError):
            lockin_demodulate(t, np.zeros_like(t), config)


class TestRecurrence:
    """The chunked recurrence x_k = m x_{k-1} + u_k against
    scipy.signal.lfilter, which it replaces in the stepper and the lock-in."""

    # the lock-in's factor: tau_rc = 10 ns sampled 24 times per 3.48 GHz cycle
    M_LOCKIN = math.exp(-1.0 / (24.0 * 3.48e9 * 10e-9))

    @pytest.mark.parametrize("m", [0.9 * cmath.exp(0.3j), 0.5 - 0.7j, -0.95, M_LOCKIN])
    @pytest.mark.parametrize("n", [1, 37, _CHUNK - 1, _CHUNK, 2 * _CHUNK, 1000, 4097])
    @pytest.mark.parametrize("x0", [0.0, 0.8 - 1.3j])
    def test_matches_lfilter(self, m, n, x0):
        from scipy.signal import lfilter

        rng = np.random.default_rng(n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = lfilter([1.0], [1.0, -m], u, zi=[m * x0])[0]
        got = _recur(m, u, x0)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [63, 116093])
    def test_real_lockin_input(self, n):
        from scipy.signal import lfilter

        alpha = 1.0 - self.M_LOCKIN
        u = np.cos(0.37 * np.arange(n)) * (1.0 + 0.1 * np.sin(1e-3 * np.arange(n)))
        ref = lfilter([alpha], [1.0, -(1.0 - alpha)], u)
        got = _recur(1.0 - alpha, alpha * u)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestScanPair:
    """The chunked affine scan of the pair against the per-step loop, on
    seeded random contractive maps."""

    @pytest.mark.parametrize("n", [1, _PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1, 4096, 4097, 10_000])
    @pytest.mark.parametrize("per_step", [False, True])
    @pytest.mark.parametrize("y", [(0.0, 0.0), (1.5 - 0.5j, -0.7 + 2.0j)])
    def test_matches_loop(self, n, per_step, y):
        rng = np.random.default_rng([n, per_step])
        shape = (n,) if per_step else ()
        m = rng.normal(size=(4, *shape)) + 1j * rng.normal(size=(4, *shape))
        # Frobenius norm below 1, so every M_k is a contraction
        m *= rng.uniform(0.5, 0.999, size=shape) / np.sqrt(np.sum(np.abs(m) ** 2, axis=0))
        u = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        rows = (m[0], m[1], u[0], m[2], m[3], u[1])
        got = _scan_pair(rows, *y, n)
        ref = _pair_loop_ref(rows, *y, n)
        assert got.shape == (2, n)
        peak = max(np.max(np.abs(r)) for r in ref)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-12 * peak


class TestPulsed:
    def test_duty_cycle_invariant(self):
        with pytest.raises(ValueError):
            PulseSequence(tau_on=2e-5, f_rep=100e3)

    def test_envelope_shapes(self):
        rect = PulseSequence(1e-6, 100e3)
        assert rect.envelope(0.5e-6) == 1.0
        assert rect.envelope(-1e-9) == 0.0
        cos = PulseSequence(1e-6, 100e3, edge_time=100e-9)
        assert cos.envelope(50e-9) == pytest.approx(0.5, abs=1e-12)
        assert cos.envelope(0.5e-6) == 1.0
        assert PulseSequence(1e-6, 100e3, edge_time=0.5e-6).envelope(0.5e-6) == 1.0
        for edge in (-1e-9, 0.6e-6):
            with pytest.raises(ValueError, match="edge_time"):
                PulseSequence(1e-6, 100e3, edge_time=edge)

    @pytest.mark.parametrize("edged", SHAPES)
    def test_array_envelope(self, edged):
        """An array of times gives the scalar values elementwise, and those
        agree with the scalar envelope the integrator used to call."""
        e = 100e-9 if edged else 0.0
        pulse = PulseSequence(1e-6, 100e3, edge_time=e)
        t_start = 40e-9
        u = np.array([-1e-9, 0.0, 0.5 * e, e, 0.5e-6, 1e-6 - e, 1e-6 - 0.5 * e, 1e-6, 1e-6 + 1e-12, 3e-6])
        u = np.concatenate([u, np.linspace(-0.1e-6, 1.1e-6, 241)])
        env = pulse.envelope(u + t_start, t_start)
        scalar = [pulse.envelope(float(v), t_start) for v in u + t_start]
        assert all(isinstance(v, float) for v in scalar)
        assert env.shape == u.shape
        assert np.array_equal(env, scalar)
        ref = [_envelope_ref(pulse, float(v), t_start) for v in u + t_start]
        np.testing.assert_allclose(env, ref, rtol=0.0, atol=1e-15)

    def test_instantaneous_transducer_rise_time(self):
        """Transducer bandwidth >> lock-in bandwidth: the fitted envelope
        time constant is the lock-in's 30 ns within 5%, landing inside the
        amplitude/phase bracket 35+-4 / 27+-3 ns."""
        dev = make_paper_device()
        from moptrans.model import AcousticMode, DeviceParams, OpticalModeBare

        fast_mode = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 300e6, TWO_PI * 33e6)
        wide = OpticalModeBare(dev.left.omega, TWO_PI * 740e6, TWO_PI * 60e6)
        fast_dev = DeviceParams(wide, wide, dev.coupling_j, (fast_mode,), dev.g0, dev.losses)
        pulse = PulseSequence(1e-6, 100e3)
        lockin = LockInConfig(TWO_PI * 3.48e9, 30e-9)
        t, amp, phase = pulsed_downconversion(
            fast_dev, pulse, optical_input_flux=1e12, lockin=lockin,
            pump=PumpConfig(Configuration.STOKES, 0.05), duration=0.6e-6,
        )
        report = fit_rc_step(t, amp)
        tau = report.parameters["tau_rc"]
        assert tau == pytest.approx(30e-9, rel=0.05)
        assert 27e-9 - 3e-9 <= 30e-9 <= 35e-9 + 4e-9  # paper bracket containment

    @pytest.mark.parametrize("tau_rc", [20e-9, 30e-9])
    def test_pulse_starts_at_three_tau_rc(self, tau_rc):
        """The trajectory is sampled 24 times per acoustic carrier cycle from
        t = 0; nothing is converted before the pump pulse opens at 3 tau_rc."""
        dev = make_paper_device()
        pulse = PulseSequence(1e-6, 100e3)
        lockin = LockInConfig(TWO_PI * 3.48e9, tau_rc)
        duration = 0.2e-6
        t, amp, _ = pulsed_downconversion(
            dev, pulse, optical_input_flux=1e12, lockin=lockin,
            pump=PumpConfig(Configuration.STOKES, 0.05), duration=duration,
        )
        f_carrier = operating_point(dev, PumpConfig(Configuration.STOKES, 0.05)).omega_m / TWO_PI
        dt = 1.0 / (24 * f_carrier)
        assert t[0] == 0.0 and t[1] == dt
        assert t[-1] >= 3.0 * tau_rc + duration > t[-2]
        t_start = 3.0 * tau_rc
        assert np.all(amp[t < t_start] == 0.0)
        assert np.all(amp[t > t_start + dt] > 0.0)

    @pytest.mark.parametrize("tau_rc, duration", [(1.0, None), (30e-9, 1.0)])
    def test_step_cap(self, tau_rc, duration):
        """A window of more than _MAX_PULSE_STEPS steps is refused before
        any trajectory is allocated."""
        dev = make_paper_device()
        lockin = LockInConfig(TWO_PI * 3.48e9, tau_rc)
        with pytest.raises(ValueError, match=rf"needs \d+ integrator steps, more than {_MAX_PULSE_STEPS}$"):
            pulsed_downconversion(dev, PulseSequence(1e-6, 100e3), optical_input_flux=1e12,
                                  lockin=lockin, pump=PumpConfig(Configuration.STOKES, 0.05), duration=duration)

    def test_paper_config_peak_memory(self):
        """The paper config's pulse (116,093 steps) holds t, the waveform,
        amplitude and phase at 32 B per step plus one block's temporaries:
        its tracemalloc peak stays under 8 MB (the stepper's full
        trajectory and a one-pass lock-in took 15.2 MB)."""
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "paper_device.toml")
        dev, raw = cfg.device, cfg.raw
        pulse = PulseSequence(raw["pulse_on_s"], raw["pulse_rep_hz"])
        lockin = LockInConfig(dev.transduction_mode.omega_m, raw["lockin_tau_s"])
        watts = dev.losses.eta_fiber_chip * dbm_to_watts(raw["input_power_dbm"])
        flux = photon_flux(watts, cfg.pump.omega_l_effective)
        tracemalloc.start()
        try:
            t, _, _ = pulsed_downconversion(dev, pulse, flux, lockin, cfg.pump)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.size == 116_094
        assert peak < 8e6

    def test_zero_optical_input(self):
        dev = make_paper_device()
        pulse = PulseSequence(1e-6, 100e3)
        lockin = LockInConfig(TWO_PI * 3.48e9, 30e-9)
        t, amp, _ = pulsed_downconversion(
            dev, pulse, optical_input_flux=0.0, lockin=lockin,
            pump=PumpConfig(Configuration.STOKES, 0.05), duration=0.3e-6,
        )
        assert np.max(amp) < 1e-12
