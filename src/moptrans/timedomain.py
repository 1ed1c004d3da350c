"""Mean-field time-domain integration and pulsed/lock-in simulation.

The integrator evolves slowly varying mode envelopes under the equations
of `hybridize.linear_model`, whose docstring describes the model (frames,
signs, anomalous ports, terms left out); optical carriers never appear.
Langevin noise operators are replaced by deterministic drive amplitudes
(mean-field), so every trajectory is reproducible.  Every mode starts
empty, and every step is recorded.

Stepping: the equations are linear, so one classical RK4 step is the
affine map y_{k+1} = M_k y_k + u_k, whose coefficients come from the
coupling and drive samples alone.  One stepper builds them in numpy for
blocks of _BLOCK steps, carries the state across blocks and yields each
block as it is made.  A map that is the same at every step runs as a
first-order recurrence: `_recur` for the decoupled scalar mode (the
spectator, or the pump ring-up of the pulse), `_recur_matrix` for the
coupled pair under `integrate`.  Under the ring-up the pair's M_k changes
per step, and it runs as an affine scan (`_scan_pair`).  Each sums in
another order than a per-step loop, so they match it to rounding only.
`integrate` collects the blocks into a `Trajectory`; the pulse turns each
into its stretch of the microwave waveform and the lock-in runs blockwise,
so a pulse holds only t, the waveform, amplitude and phase: 32 B per step.

Frames are the model's, except that the spectator (mode 0 of A, which is
decoupled) runs in its own resonance frame, which is also the frame of
the optical drive (the pump frequency under a resonant pump).  The active
mode runs relative to the converted sideband, its resonance shifted by
the sideband detuning d; b and the microwave drive relative to the
acoustic resonance.  The optical drive reaches the active mode as a_in(t)
exp(i Im(A_ss) t), and the active mode reaches a_out with exp(-i Im(A_ss)
t), where Im(A_ss) = d + splitting (anti-Stokes) or d - splitting (Stokes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InstabilityError
from .hybridize import OperatingPoint, linear_model, operating_point
from .model import TWO_PI, Configuration, DeviceParams, PumpConfig, check_stokes_threshold

_OVERFLOW = 1e12
_CHECK_EVERY = 256
_BLOCK = 16 * _CHECK_EVERY  # steps per block: bounds the temporaries
_CHUNK = 64  # steps per chunk of `_recur` and `_recur_matrix`
_PAIR_CHUNK = 32  # steps per chunk of `_scan_pair`
_MAX_PULSE_STEPS = 2 ** 23  # longest pulsed window: about 270 MB of time, waveform and lock-in arrays


@dataclass(frozen=True)
class PulseSequence:
    """Pump gating: on-time tau_on [s], repetition rate f_rep [Hz] and edge
    time [s].  edge_time > 0 gives raised-cosine edges of that duration
    (at most tau_on/2); edge_time = 0 a rectangular pulse."""

    tau_on: float
    f_rep: float
    edge_time: float = 0.0

    def __post_init__(self):
        if self.tau_on <= 0.0 or self.f_rep <= 0.0:
            raise ValueError("tau_on and f_rep must be positive")
        if self.tau_on * self.f_rep > 1.0:
            raise ValueError("duty cycle tau_on * f_rep exceeds one")
        if not 0.0 <= self.edge_time <= self.tau_on / 2.0:
            raise ValueError("edge_time must lie in [0, tau_on/2]")

    def envelope(self, t, t_start: float = 0.0):
        """Dimensionless pump envelope in [0, 1] for the pulse beginning at
        t_start (single pulse; the repetition period is handled by the
        caller's time window).  t is a scalar (returns a float) or an
        array."""
        u = np.asarray(t, dtype=float) - t_start
        env = np.ones_like(u)
        if self.edge_time > 0.0:
            e = self.edge_time
            rise = 0.5 * (1.0 - np.cos(np.pi * u / e))
            fall = 0.5 * (1.0 - np.cos(np.pi * (self.tau_on - u) / e))
            env = np.where(u < e, rise, np.where(u > self.tau_on - e, fall, env))
        env = np.where((u < 0.0) | (u > self.tau_on), 0.0, env)
        return env if env.ndim else float(env)


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


def _recur(m, u, x=0.0):
    """x_k = m x_{k-1} + u_k for k = 0 .. n-1 from x_{-1} = x, with a
    constant m.  The steps run in chunks of _CHUNK: one matmul by the
    Toeplitz matrix of the powers of m gives every chunk's response from a
    zero state, and a carry over the chunks adds m^(k+1) times the state
    entering each one (the affine scan of Blelloch, CMU-CS-90-190, 1990,
    with a serial pass over the chunks)."""
    n = u.size
    p = m ** np.arange(_CHUNK + 1)
    # upper[j, i] = m^(i - j) for i >= j, else 0
    upper = sliding_window_view(np.concatenate([np.zeros(_CHUNK - 1), p[:-1]]), _CHUNK)[::-1]
    dtype = np.result_type(p, u, x)
    chunks = np.zeros(-(-n // _CHUNK) * _CHUNK, dtype)
    chunks[:n] = u
    chunks = chunks.reshape(-1, _CHUNK) @ upper
    carry = []
    m_chunk = p[-1].item()
    for last in chunks[:, -1].tolist():
        carry.append(x)
        x = m_chunk * x + last
    chunks += np.array(carry, dtype)[:, None] * p[1:]
    return chunks.ravel()[:n]


def _recur_matrix(m):
    """`_recur` for a constant d x d map m: scan(u, y, n) gives the states
    y_k = m y_{k-1} + u_k, k < n, from y_{-1} = y as d rows, u holding d
    scalars or arrays over the steps; the tables are built once, here."""
    d = len(m)
    p = np.array(list(accumulate([m] * _CHUNK, np.matmul, initial=np.eye(d))))
    k = abs(np.arange(_CHUNK) - np.arange(_CHUNK)[:, None])
    # upper[(j, q), (i, r)] = m^(i - j)[r, q] for i >= j, else 0 (the block diagonal is the identity)
    upper = np.triu(p[k].transpose(0, 3, 1, 2).reshape(_CHUNK * d, -1))

    def scan(u, y, n):
        chunks = np.zeros((-(-n // _CHUNK) * _CHUNK, d), dtype=complex)
        chunks[:n] = np.stack(np.broadcast_arrays(*u), axis=-1)
        chunks = chunks.reshape(-1, _CHUNK * d) @ upper  # the responses from a zero state
        entering = [y] + [y := p[-1] @ y + last for last in chunks[:-1, -d:]]
        chunks += np.array(entering) @ m.T @ upper[:d]  # m^(i + 1) times the state entering
        return chunks.reshape(-1, d)[:n].T

    return scan


def _scan_pair(rows, y0, y1, n):
    """The n states after (y0, y1) of y_{k+1} = M_k y_k + u_k; rows = (m00,
    m01, u0, m10, m11, u1) are the entries of [M_k | u_k], each a scalar or
    an array over the steps.  log2(_PAIR_CHUNK) doubling passes compose each
    map with those before it in its chunk of _PAIR_CHUNK steps, and a serial
    carry gives the state entering each chunk (the affine scan of Blelloch,
    CMU-CS-90-190, 1990; Martin & Cundy, ICLR 2018)."""
    y0, y1 = complex(y0), complex(y1)
    a = np.zeros((6, -(-n // _PAIR_CHUNK) * _PAIR_CHUNK), dtype=complex)
    a[[0, 4], n:] = 1.0  # identity maps pad the last chunk
    for entry, v in zip(a, rows):
        entry[:n] = v
    a = a.reshape(2, 3, -1, _PAIR_CHUNK)  # a[r] = (m_r0, m_r1, u_r) over (chunk, step)
    s = 1
    while s < _PAIR_CHUNK:  # step i now holds the map over steps i - 2s + 1 .. i of its chunk
        late, early = a[..., s:], a[..., :-s]
        composed = late[:, :1] * early[0] + late[:, 1:2] * early[1]
        composed[:, 2] += late[:, 2]
        a[..., s:] = composed
        s *= 2
    entering = []
    for m00, m01, u0, m10, m11, u1 in zip(*a[..., -1].reshape(6, -1).tolist()):
        entering.append((y0, y1))
        y0, y1 = m00 * y0 + m01 * y1 + u0, m10 * y0 + m11 * y1 + u1
    z0, z1 = np.array(entering).T[:, :, None]
    return (a[:, 0] * z0 + a[:, 1] * z1 + a[:, 2]).reshape(2, -1)[:, :n]


def _rk4_affine(a, f, y, h):
    """One classical RK4 step of y' = A y + f, vectorised over a block of
    steps.  a[s] (a list of rows) and f[s] are the matrix and the forcing at
    stage s, i.e. at t, t + h/2, t + h/2 and t + h; entries are scalars or
    arrays over the steps.  The step is affine in y: stepping the unit
    vectors without forcing gives the columns of M, and stepping zero gives
    u, in y_next = M y + u."""

    def rhs(s, z):
        return [sum(aij * zj for aij, zj in zip(row, z)) + fi for row, fi in zip(a[s], f[s])]

    half = 0.5 * h
    sixth = h / 6.0
    k1 = rhs(0, y)
    k2 = rhs(1, [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = rhs(2, [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = rhs(3, [yi + h * ki for yi, ki in zip(y, k3)])
    return [yi + sixth * (p + 2.0 * q + 2.0 * r + w) for yi, p, q, r, w in zip(y, k1, k2, k3, k4)]


def _stepper(t0, dt, n, lam, pair, inputs):
    """Fixed-step classical RK4 of a scalar mode x and a coupled pair y,

        x' = lam x + f_x(t),
        y' = [[d0, c0 e(t)], [c1 e(t), d1]] y + (f_0(t), f_1(t)),

    from x = y_0 = y_1 = 0 at t0, with pair = (d0, d1, c0, c1), as affine
    recurrences over blocks of _BLOCK steps: x_{k+1} = m x_k + u_k through
    `_recur`, and y_{k+1} = M_k y_k + u_k through `_scan_pair`, or through
    `_recur_matrix` (tables built once) when e is one scalar for the run.
    inputs(ts) returns (f_x, e, f_0, f_1) at ts, each a scalar or an array
    over ts: at t0, then at each block's later step times and midpoints, so
    each time is sampled once; the stage at t_k + h uses the sample at
    t_{k+1}.  e = None makes the coupling follow x's RK4 stages (a ring-up).
    |x| + |y_0| + |y_1| is tested for divergence every _CHECK_EVERY steps
    and at the end of each block, so a run shorter than _CHECK_EVERY steps
    is tested too.  Yields (t, x, y_0, y_1) arrays: the zero state at t0,
    then each block's states after its steps."""
    d0, d1, c0, c1 = pair
    x = y0 = y1 = 0.0j
    half = 0.5 * dt
    m = _rk4_affine([[[lam]]] * 4, [[0.0]] * 4, [1.0], dt)[0]
    edge, scan = inputs(np.array([t0 + 0.0 * dt])), None  # edge: the samples at the block's first step
    yield np.array([t0 + 0.0 * dt]), *np.zeros((3, 1), dtype=complex)
    for k0 in range(0, n, _BLOCK):
        nb = min(_BLOCK, n - k0)
        t = t0 + np.arange(k0, k0 + nb + 1) * dt
        samples = inputs(np.concatenate([t[1:], t[:-1] + half]))

        def stages(v, v0):
            return (v,) * 4 if np.ndim(v) == 0 else (np.concatenate([v0, v[:nb - 1]]), v[nb:], v[nb:], v[:nb])

        fx, e, f0, f1 = (None if v is None else stages(v, v0) for v, v0 in zip(samples, edge))
        edge = [v[nb - 1:nb] if np.ndim(v) else v for v in samples]
        ux = _rk4_affine([[[lam]]] * 4, [[v] for v in fx], [0.0], dt)[0]
        xs = _recur(m, ux + np.zeros(nb, dtype=complex), x)
        if e is None:
            x1 = np.concatenate([[x], xs[:-1]])
            x2 = x1 + half * (lam * x1 + fx[0])
            x3 = x1 + half * (lam * x2 + fx[1])
            e = (x1, x2, x3, x1 + dt * (lam * x3 + fx[2]))
        a = [[[d0, c0 * es], [c1 * es, d1]] for es in e]
        no_force = [[0.0, 0.0]] * 4
        col0 = _rk4_affine(a, no_force, [1.0, 0.0], dt)
        col1 = _rk4_affine(a, no_force, [0.0, 1.0], dt)
        u = _rk4_affine(a, list(zip(f0, f1)), [0.0, 0.0], dt)
        if np.ndim(e[0]) == 0:
            scan = scan or _recur_matrix(np.array([[col0[0], col1[0]], [col0[1], col1[1]]]))
            block = (xs, *scan(u, np.array([y0, y1]), nb))
        else:
            block = (xs, *_scan_pair((col0[0], col1[0], u[0], col0[1], col1[1], u[1]), y0, y1, nb))
        # k0 is a multiple of _CHECK_EVERY; the block's last step is checked too
        check = np.append(np.arange(_CHECK_EVERY - 1, nb - 1, _CHECK_EVERY), nb - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            mag = sum(np.abs(v[check]) for v in block)
        bad = np.flatnonzero(~(mag <= _OVERFLOW))
        if bad.size:
            i = k0 + int(check[bad[0]])
            raise InstabilityError(
                f"trajectory diverged at t={t0 + (i + 1) * dt!r} (|state| ~ {float(mag[bad[0]])!r}); "
                "operating point is above the parametric threshold"
            )
        yield t[1:], *block
        x, y0, y1 = (v[-1] for v in block)


def _check_step(dt: float, model, extra_hz: float = 0.0, advice: str = "") -> None:
    """Refuse, with a ValueError ending in `advice`, an RK4 step `dt` coarser
    than 1/(50 x the fastest rate): the largest linewidth of `model` plus
    the active mode's |d|, plus |g| under anti-Stokes pumping, plus
    `extra_hz` [Hz].  No row of the pair's matrix then sums in magnitude
    past that rate, so |lambda| dt < 2 pi/50, inside RK4's stability region.
    Below the Stokes threshold (always so in the pulse) |g| < sqrt(kappa_o
    kappa_m)/2 <= kappa_max/2 is inside the linewidth term already; an
    anti-Stokes point has no threshold, so nothing bounds |g| but its own
    term."""
    a = model.a
    coupling = abs(a[1][2]) if model.sigma[2] > 0 else 0.0
    fastest = (max(-2.0 * a[i][i].real for i in range(3)) + abs(a[1][1].imag) + coupling) / TWO_PI + extra_hz
    if dt > 1.0 / (50.0 * fastest):
        raise ValueError(f"step dt={dt!r} too coarse: need dt <= {1.0 / (50.0 * fastest)!r}{advice}")


def integrate(
    op: OperatingPoint,
    couplings,
    drives: dict,
    t_span: tuple[float, float],
    dt: float,
    max_drive_freq: float = 0.0,
) -> Trajectory:
    """Fixed-step RK4 integration of the linearized equations of motion,
    from empty modes at t0, recording every step.

    The equations are those of `hybridize.linear_model(op)`, sideband
    detuning included: the spectator is decoupled, and the active mode and
    b (b_dag, driven by the conjugate microwave drive, under Stokes) form a
    complex-linear pair.  The steps run as the affine recurrence y_{k+1} =
    M_k y_k + u_k in blocks of _BLOCK steps; each drive is called once per
    step time and once per midpoint.

    Parameters
    ----------
    op : OperatingPoint to integrate.
    couplings : unused; pass None.
    drives : dict with optional keys "optical" and "microwave", each a
        callable t -> complex envelope (see module docstring for frames).
    t_span : (t0, t1) integration window [s].
    dt : step [s], checked by `_check_step` with |Im(A_ss)| added whenever
        an optical drive is present (its phase on the pair rotates at that rate).
    max_drive_freq : fastest frequency content of the drive envelopes [Hz],
        declared by the caller for step validation.
    """
    opt = drives.get("optical")
    mw = drives.get("microwave")
    model = linear_model(op)
    a, b = model.a, model.b
    spectator = a[0][0]  # A is block diagonal: mode 0 alone, modes 1 and 2 coupled

    _check_step(dt, model, max_drive_freq + (abs(spectator.imag) / TWO_PI if opt is not None else 0.0))

    t0, t1 = t_span
    n_steps = int(math.ceil((t1 - t0) / dt))

    def inputs(ts):
        a_in, c_in = (0.0 if fn is None else np.fromiter(map(fn, ts.tolist()), complex, ts.size) for fn in (opt, mw))
        c_in = np.conj(c_in) if model.sigma_u[1] < 0 else c_in  # an anomalous microwave port
        # a_in is in the spectator's frame, Im(A_ss) off the pair's
        return b[0][0] * a_in, 1.0, b[1][0] * a_in * np.exp(1j * spectator.imag * ts), b[2][1] * c_in

    pair = (a[1][1], a[2][2], a[1][2], a[2][1])  # (d0, d1, c0, c1)
    t = t0 + np.arange(n_steps + 1) * dt  # the stepper's times
    states, k = np.empty((3, n_steps + 1), dtype=complex), 0
    for _, *block in _stepper(t0, dt, n_steps, spectator.real, pair, inputs):
        states[:, k:k + block[0].size] = block
        k += block[0].size
    return Trajectory(t=t, **{name.removesuffix("_dag"): v if sign > 0 else v.conj()
                              for name, sign, v in zip(model.modes, model.sigma, states)})


# ---------------------------------------------------------------------------
# lock-in demodulation
# ---------------------------------------------------------------------------

def lockin_demodulate(
    t: np.ndarray, signal: np.ndarray, config: LockInConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature demodulation of a real signal: mix with 2 cos / -2 sin at
    omega_ref, low-pass each quadrature with a single-pole integrator of
    time constant tau_rc, and return (amplitude, phase) series.  It runs
    blockwise with the filter state carried over, bit-identical to one pass:
    the blocks hold whole _CHUNKs, and a tail of at most _CHUNK samples joins
    the block before (numpy's one-row product rounds otherwise)."""
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
    alpha = 1.0 - math.exp(-dt / config.tau_rc)
    amp, phase, x = np.empty(t.size), np.empty(t.size), 0.0
    edges = [*range(0, max(t.size - _CHUNK, 1), _BLOCK), t.size]
    for s in map(slice, edges[:-1], edges[1:]):
        phase_ref = config.omega_ref * t[s]
        i_mix = signal[s] * 2.0 * np.cos(phase_ref)
        q_mix = signal[s] * (-2.0) * np.sin(phase_ref)
        filtered = _recur(1.0 - alpha, alpha * (i_mix + 1j * q_mix), x)  # I + iQ
        amp[s], phase[s], x = np.abs(filtered), np.angle(filtered), filtered[-1].item()
    return amp, phase


# ---------------------------------------------------------------------------
# pulsed down-conversion pipeline
# ---------------------------------------------------------------------------

def pulsed_downconversion(
    params: DeviceParams,
    pulse: PulseSequence,
    optical_input_flux: float,
    lockin: LockInConfig,
    pump: PumpConfig,
    duration: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end pulsed optical-to-microwave conversion.

    `pump` runs as a Stokes pump whatever its configuration, at its
    power_in (the peak off-chip power) and its omega_l (the photon
    energy), gated by `pulse`; the intracavity pump amplitude follows its
    own ring-up ODE, so the effective coupling g_-(t) is not assumed
    instantaneous.  A CW optical tone of on-chip photon flux
    `optical_input_flux` [1/s] sits on the lower supermode; the converted
    microwave output at the acoustic carrier is synthesized as a real
    waveform and demodulated by the lock-in model.  The pulse starts at 3
    tau_rc, and the integrator takes 24 steps per acoustic carrier cycle; a
    step `_check_step` refuses, or a window over _MAX_PULSE_STEPS steps,
    raises ValueError with its advice before anything is allocated.

    Returns (t, amplitude, phase).
    """
    op = operating_point(params, replace(pump, configuration=Configuration.STOKES))
    check_stokes_threshold(op.configuration, op.cooperativity)

    model = linear_model(op)
    dt = 1.0 / (24 * (op.omega_m / TWO_PI))  # 24 steps per acoustic carrier cycle
    _check_step(dt, model, advice=": 24 steps per acoustic carrier cycle are too few for the device's linewidths")
    t_start = 3.0 * lockin.tau_rc
    t_end = t_start + (duration if duration is not None else min(pulse.tau_on, 1.0e-6) + 10.0 * lockin.tau_rc)
    steps = t_end / dt  # compared as a float: an infinite or NaN window has no int
    if not steps <= _MAX_PULSE_STEPS:
        needed = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"the pulsed window needs {needed} integrator steps, more than {_MAX_PULSE_STEPS}: "
                         "shorten lockin_tau_s or sim_duration_s")
    n = math.ceil(steps)

    # x: the pumped spectator's amplitude over its steady state, its RK4
    # stages scaling the pair's couplings (A holds them at full pump).
    a, b = model.a, model.b
    lam = a[0][0].real
    s_opt = math.sqrt(optical_input_flux)

    def inputs(ts):
        return -lam * pulse.envelope(ts, t_start), None, b[1][0] * s_opt, 0.0

    pair = (a[1][1], a[2][2], a[1][2], a[2][1])
    t, waveform = np.arange(n + 1) * dt, np.empty(n + 1)  # the stepper's times, from t0 = 0.0
    k = 0
    for tb, _, _, b_dag in _stepper(0.0, dt, n, lam, pair, inputs):
        c_out_env = (model.c[1][2] * b_dag).conj()  # c_out_dag; no microwave input
        waveform[k:k + tb.size] = np.real(c_out_env * np.exp(-1j * op.omega_m * tb))
        k += tb.size
    amp, phase = lockin_demodulate(t, waveform, lockin)
    return t, amp, phase
