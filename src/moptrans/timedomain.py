"""Mean-field time-domain integration and pulsed/lock-in simulation.

The integrator evolves slowly varying mode envelopes under the equations
of `hybridize.linear_model`, whose docstring describes the model (frames,
signs, anomalous ports, terms left out); optical carriers never appear.
Langevin noise operators are replaced by deterministic drive amplitudes
(mean-field), so every trajectory is reproducible.  Every mode starts
empty, and every step is recorded.

Stepping: the equations are linear, so one classical RK4 step is the
affine map y_{k+1} = M_k y_k + u_k, linear in the step's drive samples and
multilinear in its stage couplings.  One stepper runs on the caller's time
axis, builds its tables once per run and yields each block of _BLOCK
states as it is made.  A constant map runs as a first-order recurrence:
`_recur` for the decoupled scalar mode (the spectator, or the pulse's pump
ring-up), `_recur_matrix` for A's coupled block, the pair, under
`integrate`.  Under the pulse's ring-up the pair's M_k changes per step,
and a two-level affine scan (`_scan_steps`) runs it.  Each sums in another
order than a per-step loop, so they match it to rounding only.  `integrate`
collects the blocks into a `Trajectory`; the pulse turns each into its
stretch of the microwave waveform and the lock-in runs blockwise, so a
pulse holds only t, the waveform, amplitude and phase: 32 B per step.

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
from functools import reduce
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InstabilityError
from .hybridize import OperatingPoint, linear_model, operating_point
from .model import TWO_PI, Configuration, DeviceParams, PumpConfig, check_stokes_threshold

_OVERFLOW = 1e12
_CHECK_EVERY = 256
_BLOCK = 16 * _CHECK_EVERY  # steps per block: bounds the temporaries
_CHUNK = 64  # steps per chunk of `_recur` and `_recur_matrix`; `_scan_steps` carries fewer maps in Python
_LEVEL = 8  # steps per chunk of `_scan_steps`
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


def _recur(m):
    """scan(u, x) gives x_k = m x_{k-1} + u_k, k < n, from x_{-1} = x for a
    constant m; the table is built once, here.  The steps run in chunks of
    _CHUNK: one matmul by the Toeplitz matrix of the powers of m gives each
    chunk's response from a zero state, and a serial carry over the chunks
    adds m^(k+1) times the state entering each (Blelloch, CMU-CS-90-190)."""
    p = m ** np.arange(_CHUNK + 1)
    # upper[j, i] = m^(i - j) for i >= j, else 0
    upper = sliding_window_view(np.concatenate([np.zeros(_CHUNK - 1), p[:-1]]), _CHUNK)[::-1]
    m_chunk = p[-1].item()

    def scan(u, x):
        n, dtype = u.size, np.result_type(p, u, x)
        chunks = np.zeros(-(-n // _CHUNK) * _CHUNK, dtype)
        chunks[:n] = u
        chunks = chunks.reshape(-1, _CHUNK) @ upper
        carry = []
        for last in chunks[:, -1].tolist():
            carry.append(x)
            x = m_chunk * x + last
        chunks += np.array(carry, dtype)[:, None] * p[1:]
        return chunks.ravel()[:n]

    return scan


def _recur_matrix(m):
    """`_recur` for a constant 2 x 2 map m: scan(u, y) gives the states y_k
    = m y_{k-1} + u_k, k < n, from y_{-1} = y as 2 rows, for the forcing u
    of shape (n, 2); the tables are built once, here."""
    p = np.array(list(accumulate([m] * _CHUNK, np.matmul, initial=np.eye(2))))
    k = abs(np.arange(_CHUNK) - np.arange(_CHUNK)[:, None])
    # upper[(j, q), (i, r)] = m^(i - j)[r, q] for i >= j, else 0 (the block diagonal is the identity)
    upper = np.triu(p[k].transpose(0, 3, 1, 2).reshape(_CHUNK * 2, -1))

    def scan(u, y):
        n = len(u)
        u = np.concatenate([u, np.zeros((-n % _CHUNK, 2))]) if n % _CHUNK else u
        chunks = u.reshape(-1, _CHUNK * 2) @ upper  # the responses from a zero state
        ends = chunks[:-1, -2:, None]  # m^_CHUNK carries each into the next chunk
        entering = _scan_steps(np.concatenate([np.broadcast_to(p[-1], (len(ends), 2, 2)), ends], axis=2), y)
        chunks += entering.T @ m.T @ upper[:2]  # m^(i + 1) times the state entering
        return chunks.reshape(-1, 2)[:n].T

    return scan


def _scan_steps(maps, y):
    """The states y_{-1} = y = (y_0, y_1) and y_k = M_k y_{k-1} + u_k, k <
    n, as 2 rows, for the (n, 2, 3) maps [M_k | u_k].  A serial pass over
    the _LEVEL steps of each chunk, vectorised over the chunks, composes
    each map with those before it in its chunk; the chunk-end maps are
    scanned the same way for the state entering each chunk, and fewer than
    _CHUNK maps are carried in Python (Blelloch, CMU-CS-90-190, 1990)."""
    n = len(maps)
    if n < _CHUNK:
        return np.array([y := tuple(map(complex, y))] + [
            y := (m[0] * y[0] + m[1] * y[1] + m[2], m[3] * y[0] + m[4] * y[1] + m[5])
            for m in maps.reshape(n, 6).tolist()], dtype=complex).T
    if n % _LEVEL:  # pads the last chunk, whose end map and padded states are never read
        maps = np.concatenate([maps, np.zeros((-n % _LEVEL, 2, 3))])
    a = maps.reshape(-1, _LEVEL, 2, 3).transpose(1, 2, 3, 0).copy()  # a[i]: step i of each chunk
    for i in range(1, _LEVEL):  # a[i] now maps the state entering its chunk to the one after step i
        composed = a[i, :, :1] * a[i - 1, 0] + a[i, :, 1:2] * a[i - 1, 1]
        composed[:, 2] += a[i, :, 2]
        a[i] = composed
    z = _scan_steps(a[-1, ..., :-1].transpose(2, 0, 1), y)  # the state entering each chunk
    states = (a[:, :, 0] * z[0] + a[:, :, 1] * z[1] + a[:, :, 2]).transpose(1, 2, 0).reshape(2, -1)
    return np.concatenate([z[:, :1], states[:, :n]], axis=1)


def _rk4_affine(a, f, y, h):
    """One classical RK4 step of y' = A y + f.  a[s] (a list of rows) and
    f[s] are the matrix and the forcing at stage s, i.e. at t, t + h/2, t +
    h/2 and t + h; the stepper's tables call it on scalars."""

    def rhs(s, z):
        return [sum(aij * zj for aij, zj in zip(row, z)) + fi for row, fi in zip(a[s], f[s])]

    half = 0.5 * h
    sixth = h / 6.0
    k1 = rhs(0, y)
    k2 = rhs(1, [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = rhs(2, [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = rhs(3, [yi + h * ki for yi, ki in zip(y, k3)])
    return [yi + sixth * (p + 2.0 * q + 2.0 * r + w) for yi, p, q, r, w in zip(y, k1, k2, k3, k4)]


def _forcing_table(a, h):
    """(M, K) of one RK4 step y -> M y + s K of y' = A y + f, with the stage
    matrices a (d x d scalars) of `_rk4_affine`: s is the row of the 3d
    forcing samples, f_i at t, t + h/2 (stages 2 and 3) and t + h in
    columns i, d + i and 2d + i, and K's rows step zero under unit samples."""
    zero = [0.0] * len(a[0])
    eye = np.eye(len(zero)).tolist()
    units = ([e if stage == j else zero for stage in (0, 1, 1, 2)] for j in range(3) for e in eye)
    m = [_rk4_affine(a, [zero] * 4, unit, h) for unit in eye]  # the columns of M
    return np.transpose(m), np.array([_rk4_affine(a, f, zero, h) for f in units])


def _coupling_maps(pair, h, f):
    """maps(e) gives the (n, 2, 3) maps [M_k | u_k] of RK4 steps of the
    coupled block pair, its off-diagonal scaled by real stage couplings e =
    (e_1, .. e_4), arrays over the n steps, under a constant forcing f.
    Being multilinear in the e_s, [M_k | u_k] = p_k C, p_k the 16 products
    of e_s over subsets of the stages; C, built here, is `_forcing_table` at
    e in {0, 1}^4 (forcing column np.tile(f, 3) @ K), Moebius-inverted."""
    stages = ([[[v if i == j else v * (c >> s & 1) for j, v in enumerate(row)] for i, row in enumerate(pair)]
               for s in range(4)] for c in range(16))
    corners = [np.hstack([m, (np.tile(f, 3) @ k)[:, None]]) for m, k in (_forcing_table(a, h) for a in stages)]
    mobius = reduce(np.kron, [[[1.0, 0.0], [-1.0, 1.0]]] * 4)  # inverts the sums over subsets
    table = (mobius @ np.array(corners).reshape(16, 6)).view(float)

    def maps(e):
        p = np.ones((16, len(e[0])))
        for s, es in enumerate(e):  # row c: the product of the e_s with bit s of c set
            np.multiply(p[:2 ** s], es, out=p[2 ** s:2 ** (s + 1)])
        return (p.T @ table).view(complex).reshape(-1, 2, 3)

    return maps


def _stepper(t, dt, lam, pair, inputs, ring_up):
    """Fixed-step classical RK4 of a scalar mode x and a coupled pair y,

        x' = lam x + f_x(t),  y' = P y + (f_0(t), f_1(t)),

    from x = y = 0 at t[0] over the caller's time axis t (len(t) - 1 steps
    of dt), in blocks of _BLOCK steps; pair is P, A's coupled block as rows.
    inputs(ts) returns (f_x, f_0, f_1) at ts, each a scalar or an array
    over ts: at t[0], then at each block's later step times and midpoints,
    so each time is sampled once; the stage at t_k + h uses the sample at
    t_{k+1}.  Each forcing is the samples times `_forcing_table`; x runs
    through `_recur`, y through `_recur_matrix`.  Under ring_up (lam, f_x
    real; f_0, f_1 scalars) P's couplings follow x's RK4 stages, and y runs
    through `_coupling_maps` and `_scan_steps`.  |x| + |y_0| + |y_1| is
    tested for divergence every _CHECK_EVERY steps and at each block's end.
    Yields (x, y_0, y_1) arrays: the zero state, then each block's states."""
    n, half, x, y = len(t) - 1, 0.5 * dt, 0.0, (0.0j, 0.0j)
    ((m,),), kx = _forcing_table([[[lam]]] * 4, dt)
    scan_x = _recur(m)
    _, *f = edge = [v[0] if np.ndim(v) else v for v in inputs(t[:1])]  # samples at t_k0
    if ring_up:
        maps = _coupling_maps(pair, dt, f)
    else:
        m_pair, k = _forcing_table([pair] * 4, dt)
        scan = _recur_matrix(m_pair)
    yield tuple(np.zeros((3, 1), dtype=complex))
    for k0 in range(0, n, _BLOCK):
        nb = min(_BLOCK, n - k0)
        samples = inputs(np.concatenate([t[k0 + 1:k0 + nb + 1], t[k0:k0 + nb] + half]))

        def rows(vs, v0s):  # each step's samples of vs: all at t_k, then at t_k + h/2, then at t_{k+1}
            vs = [np.broadcast_to(v, 2 * nb) for v in vs]
            return np.stack([np.append(v0, v[:nb - 1]) for v, v0 in zip(vs, v0s)] + [v[nb:] for v in vs]
                            + [v[:nb] for v in vs], axis=-1)

        sx = rows(samples[:1], edge[:1])
        xs = scan_x((sx @ kx)[:, 0], x)
        if ring_up:
            x1 = np.concatenate([[x], xs[:-1]])
            x2 = x1 + half * (lam * x1 + sx[:, 0])
            x3 = x1 + half * (lam * x2 + sx[:, 1])
            ys = _scan_steps(maps((x1, x2, x3, x1 + dt * (lam * x3 + sx[:, 1]))), y)[:, 1:]
        else:
            ys = scan(rows(samples[1:], edge[1:]) @ k, y)
        edge = [v[nb - 1] if np.ndim(v) else v for v in samples]
        block = (xs, *ys)
        # k0 is a multiple of _CHECK_EVERY; the block's last step is checked too
        check = np.append(np.arange(_CHECK_EVERY - 1, nb - 1, _CHECK_EVERY), nb - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            mag = sum(np.abs(v[check]) for v in block)
        bad = np.flatnonzero(~(mag <= _OVERFLOW))
        if bad.size:
            i = k0 + int(check[bad[0]])
            raise InstabilityError(
                f"trajectory diverged at t={float(t[i + 1])!r} (|state| ~ {float(mag[bad[0]])!r}); "
                "operating point is above the parametric threshold"
            )
        yield block
        x, y = xs[-1].item(), ys[:, -1]


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
    step time and once per midpoint.  Unknown drive keys, a non-positive or
    non-finite dt and a non-finite or reversed t_span raise ValueError first.

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
    t0, t1 = t_span
    if unknown := [key for key in drives if key not in ("optical", "microwave")]:
        raise ValueError(f"unknown drive keys {unknown!r}: expected 'optical' and 'microwave' only")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step dt must be positive and finite, got {dt!r}")
    steps = (t1 - t0) / dt
    if not 0.0 <= steps < math.inf:  # a non-finite t0 or t1 gives no finite step count
        raise ValueError(f"t_span must be finite with t0 <= t1 in a finite number of steps, got {t_span!r}")
    opt, mw = drives.get("optical"), drives.get("microwave")
    model = linear_model(op)
    a, b = model.a, model.b
    spectator = a[0][0]  # A is block diagonal: mode 0 alone, modes 1 and 2 coupled

    _check_step(dt, model, max_drive_freq + (abs(spectator.imag) / TWO_PI if opt is not None else 0.0))

    def inputs(ts):
        a_in, c_in = (0.0 if fn is None else np.fromiter(map(fn, ts.tolist()), complex, ts.size) for fn in (opt, mw))
        c_in = np.conj(c_in) if model.sigma_u[1] < 0 else c_in  # an anomalous microwave port
        # a_in is in the spectator's frame, Im(A_ss) off the pair's
        return b[0][0] * a_in, b[1][0] * a_in * np.exp(1j * spectator.imag * ts), b[2][1] * c_in

    t = t0 + np.arange(math.ceil(steps) + 1) * dt
    states, k = np.empty((3, t.size), dtype=complex), 0
    for block in _stepper(t, dt, spectator.real, [row[1:] for row in a[1:]], inputs, ring_up=False):
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
    scan, amp, phase, x = _recur(1.0 - alpha), np.empty(t.size), np.empty(t.size), 0.0
    edges = [*range(0, max(t.size - _CHUNK, 1), _BLOCK), t.size]
    for s in map(slice, edges[:-1], edges[1:]):
        phase_ref = config.omega_ref * t[s]
        i_mix = signal[s] * 2.0 * np.cos(phase_ref)
        q_mix = signal[s] * (-2.0) * np.sin(phase_ref)
        filtered = scan(alpha * (i_mix + 1j * q_mix), x)  # I + iQ
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
    negative duration, a step `_check_step` refuses or a window over
    _MAX_PULSE_STEPS steps raises ValueError before anything is allocated.

    Returns (t, amplitude, phase).
    """
    op = operating_point(params, replace(pump, configuration=Configuration.STOKES))
    check_stokes_threshold(op.configuration, op.cooperativity)

    model = linear_model(op)
    dt = 1.0 / (24 * (op.omega_m / TWO_PI))  # 24 steps per acoustic carrier cycle
    _check_step(dt, model, advice=": 24 steps per acoustic carrier cycle are too few for the device's linewidths")
    if duration is not None and duration < 0.0:
        raise ValueError(f"the pulsed window's duration must be non-negative, got {duration!r}")
    t_start = 3.0 * lockin.tau_rc
    t_end = t_start + (duration if duration is not None else min(pulse.tau_on, 1.0e-6) + 10.0 * lockin.tau_rc)
    steps = t_end / dt  # compared as a float: an infinite or NaN window has no int
    if not steps <= _MAX_PULSE_STEPS:
        needed = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"the pulsed window needs {needed} integrator steps, more than {_MAX_PULSE_STEPS}: "
                         "shorten lockin_tau_s or sim_duration_s")

    # x: the pumped spectator's amplitude over its steady state, its RK4
    # stages scaling the pair's couplings (A holds them at full pump).
    a, b, s_opt = model.a, model.b, math.sqrt(optical_input_flux)
    lam = a[0][0].real

    def inputs(ts):
        return -lam * pulse.envelope(ts, t_start), b[1][0] * s_opt, 0.0

    t = np.arange(math.ceil(steps) + 1) * dt
    waveform, k = np.empty(t.size), 0
    for _, _, b_dag in _stepper(t, dt, lam, [row[1:] for row in a[1:]], inputs, ring_up=True):
        c_out_env = (model.c[1][2] * b_dag).conj()  # c_out_dag; no microwave input
        waveform[k:k + b_dag.size] = np.real(c_out_env * np.exp(-1j * op.omega_m * t[k:k + b_dag.size]))
        k += b_dag.size
    amp, phase = lockin_demodulate(t, waveform, lockin)
    return t, amp, phase
