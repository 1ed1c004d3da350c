"""Photonic-molecule supermode structure and pump-dressed couplings.

Two evanescently coupled rings hybridize into a symmetric (lower, "-") and
an antisymmetric (upper, "+") supermode.  Writing delta = omega_l - omega_r,
mu = kappa_l - kappa_r and D = mu/2 + i*delta, the complex splitting is

    W = sqrt(D**2 - 4 J**2),   branch fixed so Im(W) >= 0
                               (and Re(W) >= 0 when Im(W) == 0),

and the supermodes sit at

    omega_pm = omega_bar +- Im(W)/2,      kappa_pm = kappa_bar +- Re(W).

Note the full factor on the linewidths: this is what the direct 2x2
eigendecomposition gives (and what the supermode susceptibilities require);
it reduces to the bare rings at J = 0.

Eigenvector gauge: participation amplitudes are normalized with the first
(left-ring) component real and non-negative; when that component vanishes
the right-ring component is made real positive instead.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .model import (
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PumpConfig,
    photon_flux,
)

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Supermodes:
    """Hybridized optical doublet.

    Frequencies/linewidths in rad/s; alpha/beta are the complex
    participation amplitudes of the left/right bare rings in each
    supermode (|alpha|^2 + |beta|^2 = 1 per mode).  delta_omega and
    delta_kappa are the signed differences omega_plus - omega_minus and
    kappa_plus - kappa_minus.
    """

    omega_minus: float
    omega_plus: float
    kappa_minus: float
    kappa_plus: float
    kappa_ex_minus: float
    kappa_ex_plus: float
    alpha_minus: complex
    alpha_plus: complex
    beta_minus: complex
    beta_plus: complex
    delta_omega: float
    delta_kappa: float

    def __post_init__(self):
        if self.omega_plus < self.omega_minus:
            raise ValueError("supermode ordering violated: omega_plus < omega_minus")
        if self.kappa_minus <= 0.0 or self.kappa_plus <= 0.0:
            raise ValueError("supermode linewidths must be positive")
        for a, b in ((self.alpha_minus, self.beta_minus), (self.alpha_plus, self.beta_plus)):
            norm = abs(a) ** 2 + abs(b) ** 2
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"participation amplitudes not normalized: {norm!r}")


def _branch_fixed_w(d: complex, j: float) -> complex:
    """Complex splitting W = sqrt(D^2 - 4J^2) with the documented branch."""
    w = cmath.sqrt(d * d - 4.0 * j * j)
    if w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0):
        w = -w
    return w


def _gauge(v: tuple[complex, complex]) -> tuple[complex, complex]:
    """Normalize and fix the phase so the dominant-first component is real
    and non-negative."""
    a, b = v
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / n, b / n
    ref = a if abs(a) > 1e-12 else b
    phase = ref / abs(ref)
    return a / phase, b / phase


def supermodes(left: OpticalModeBare, right: OpticalModeBare, coupling_j: float) -> Supermodes:
    """Diagonalize the two-ring system.

    External couplings of the supermodes are apportioned by bare-ring
    participation: kappa_ex_pm = |alpha_pm|^2 kappa_ex_l + |beta_pm|^2
    kappa_ex_r.  For the fitted device (equal per-ring kappa_ex) this makes
    both supermodes equally coupled, reproducing the measured eta_o.
    """
    if coupling_j < 0.0:
        raise ValueError("J must be non-negative")
    delta = left.omega - right.omega
    mu = left.kappa - right.kappa
    omega_bar = 0.5 * (left.omega + right.omega)
    kappa_bar = 0.5 * (left.kappa + right.kappa)
    d = 0.5 * mu + 1j * delta

    if coupling_j == 0.0 and delta == 0.0 and mu == 0.0:
        # Degenerate eigenbasis: any basis diagonalizes; return the bare
        # rings (identity assignment) for determinism.
        return Supermodes(
            omega_minus=left.omega, omega_plus=right.omega,
            kappa_minus=left.kappa, kappa_plus=right.kappa,
            kappa_ex_minus=left.kappa_ex, kappa_ex_plus=right.kappa_ex,
            alpha_minus=1.0 + 0.0j, beta_minus=0.0j,
            alpha_plus=0.0j, beta_plus=1.0 + 0.0j,
            delta_omega=0.0, delta_kappa=0.0,
        )

    # A (D, J) too small to square (J = 1e-270 Hz would underflow W and the
    # eigenvector components to zero) is lifted by an exact power of two;
    # any larger pair keeps its bits.
    j, lift = coupling_j, 1.0
    size = max(abs(d), j)
    if size < 1e-150:
        lift = math.ldexp(1.0, -math.frexp(size)[1])
        d, j = d * lift, j * lift
    w = _branch_fixed_w(d, j)
    omega_minus = omega_bar - 0.5 * w.imag / lift
    omega_plus = omega_bar + 0.5 * w.imag / lift
    kappa_minus = kappa_bar - w.real / lift
    kappa_plus = kappa_bar + w.real / lift

    # Eigenvectors of the frequency-domain matrix [[chi_l^-1, -iJ],
    # [-iJ, chi_r^-1]] (the off-diagonal sign follows from the -J coupling
    # Hamiltonian; it makes the lower mode symmetric).  For the eigenvalue
    # shifted by s*W/2 the (left, right) components are proportional to
    # (iJ, (D - s W)/2) or ((-D - s W)/2, iJ); use whichever row is better
    # conditioned.
    vecs = []
    for sign in (-1.0, +1.0):
        v1 = (1j * j, 0.5 * (d - sign * w))
        v2 = (0.5 * (-d - sign * w), 1j * j)
        pick = v1 if abs(v1[0]) ** 2 + abs(v1[1]) ** 2 >= abs(v2[0]) ** 2 + abs(v2[1]) ** 2 else v2
        vecs.append(_gauge(pick))
    (alpha_minus, beta_minus), (alpha_plus, beta_plus) = vecs

    kappa_ex_minus = abs(alpha_minus) ** 2 * left.kappa_ex + abs(beta_minus) ** 2 * right.kappa_ex
    kappa_ex_plus = abs(alpha_plus) ** 2 * left.kappa_ex + abs(beta_plus) ** 2 * right.kappa_ex

    return Supermodes(
        omega_minus=omega_minus, omega_plus=omega_plus,
        kappa_minus=kappa_minus, kappa_plus=kappa_plus,
        kappa_ex_minus=kappa_ex_minus, kappa_ex_plus=kappa_ex_plus,
        alpha_minus=alpha_minus, alpha_plus=alpha_plus,
        beta_minus=beta_minus, beta_plus=beta_plus,
        # taken from W directly: differencing the stored absolute
        # frequencies would quantize at the float64 resolution of omega
        delta_omega=w.imag / lift,
        delta_kappa=2.0 * w.real / lift,
    )


def eigen_oracle(
    left: OpticalModeBare,
    right: OpticalModeBare,
    coupling_j: float,
    omega_ref: float = 0.0,
) -> tuple[complex, complex]:
    """Independent verification path: eigenvalues of the 2x2 inverse
    susceptibility matrix at s = 0, via numpy's eigensolver.

    Frequencies are measured relative to `omega_ref` (pass the mean optical
    frequency for a well-conditioned comparison of the splitting).  Returns
    (lambda_minus, lambda_plus) ordered by ascending imaginary part, ties
    broken by ascending real part.
    """
    import numpy as np

    m = np.array(
        [
            [1j * (left.omega - omega_ref) + 0.5 * left.kappa, -1j * coupling_j],
            [-1j * coupling_j, 1j * (right.omega - omega_ref) + 0.5 * right.kappa],
        ],
        dtype=complex,
    )
    lam = np.linalg.eigvals(m)
    lam = sorted(lam, key=lambda z: (z.imag, z.real))
    return complex(lam[0]), complex(lam[1])


@dataclass(frozen=True)
class OperatingPoint:
    """Everything the frequency- and time-domain engines need, evaluated at
    one pump setting.

    The "active" optical supermode is the one addressed by the converted
    sideband: a_+ for anti-Stokes pumping, a_- for Stokes pumping.

    sideband_detuning [rad/s] is the offset of the converted sideband from
    the active supermode.  The transduction acoustic mode is triply
    resonant by convention: with the pump on its supermode, its sideband
    lands on the active one and the detuning is zero.  Other acoustic
    modes, and a detuned pump, move the sideband off it; see
    `operating_point`.
    """

    configuration: Configuration
    omega_m: float
    kappa_m: float
    kappa_ex_m: float
    kappa_minus: float
    kappa_plus: float
    kappa_ex_minus: float
    kappa_ex_plus: float
    g_minus: complex
    g_plus: complex
    splitting: float
    n_pump: float = 0.0
    sideband_detuning: float = 0.0

    @property
    def g_active(self) -> complex:
        return self.g_plus if self.configuration is Configuration.ANTI_STOKES else self.g_minus

    @property
    def kappa_active(self) -> float:
        return self.kappa_plus if self.configuration is Configuration.ANTI_STOKES else self.kappa_minus

    @property
    def kappa_ex_active(self) -> float:
        return (
            self.kappa_ex_plus
            if self.configuration is Configuration.ANTI_STOKES
            else self.kappa_ex_minus
        )

    @property
    def cooperativity(self) -> float:
        """C = 4 |g|^2 / (kappa_o kappa_m) of the active conversion pair."""
        return 4.0 * abs(self.g_active) ** 2 / (self.kappa_active * self.kappa_m)

    @property
    def sideband_resolution(self) -> float:
        """Diagnostic max(kappa_pm)/omega_m; the dropped counter-rotating
        terms are suppressed by at least half this factor."""
        return max(self.kappa_minus, self.kappa_plus) / self.omega_m


_D = tuple(tuple(x if o == k else 0.0 for k in range(5)) for o, x in enumerate((1.0, -1.0, 1.0, 1.0, 1.0)))


@dataclass(frozen=True)
class LinearModel:
    """a' = A a + B u, y = C a + D u, each matrix a tuple of rows (numpy.array
    makes it an array); sigma and sigma_u are the diagonals of the mode and
    port metrics (-1: a creation operator)."""

    modes: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    a: tuple[tuple[complex, ...], ...]
    b: tuple[tuple[float, ...], ...]
    c: tuple[tuple[float, ...], ...]
    d: tuple[tuple[float, ...], ...]
    sigma: tuple[float, ...]
    sigma_u: tuple[float, ...]


def linear_model(op: OperatingPoint) -> LinearModel:
    """The linearized, sideband-resolved transducer at `op`; the flow
    graphs of `sfg`, the RK4 engine of `timedomain` and the band integrals
    of `band_integral` (the pair rate of `quantumstats`) are built from it.

    Modes, in the order spectator, active, acoustic: (a_-, a_+, b) under
    anti-Stokes pumping (pump on a_-), (a_+, a_-, b_dag) under Stokes
    pumping (pump on a_+).  A is block diagonal; its coupled block is
    A[a_+, b] = i g_+, A[b, a_+] = i g_+* (anti-Stokes) or A[a_-, b_dag] =
    i g_-, A[b_dag, a_-] = -i g_-* (Stokes).  Frames: b rotates at omega_m
    and both optical modes at the converted sideband, so the sideband
    detuning d and the splitting s sit on the diagonal: -kappa/2 + i d on
    the active mode, -kappa/2 + i (d + s) on a_- or -kappa/2 + i (d - s) on
    a_+ as spectator, and -kappa_m/2 on the acoustic mode.  S(omega) = D +
    C (-i omega - A)^-1 B at the common signal offset omega.

    Ports: the optical bus a_in, the microwave port c_in (the anomalous
    c_in_dag under Stokes pumping), then one intrinsic-loss port per mode,
    <mode>_loss_in, anomalous for b_dag.  B holds sqrt(kappa_ex) and
    sqrt(kappa - kappa_ex); D = diag(1, -1, 1, 1, 1) and C = -D B^dag.
    Left out: the bus cross-damping -sqrt(kappa_ex,- kappa_ex,+)/2 between
    the supermodes (the one term that breaks A sigma + sigma A^dag + B
    sigma_u B^dag = 0), the counter-rotating terms at 2 omega_m, and the
    pumped supermode's own coupling to b.
    """
    d, s = op.sideband_detuning, op.splitting
    if op.configuration is Configuration.ANTI_STOKES:
        modes, sign, spectator_offset = ("a_minus", "a_plus", "b"), 1.0, d + s
        kappa = (op.kappa_minus, op.kappa_plus, op.kappa_m)
        kappa_ex = (op.kappa_ex_minus, op.kappa_ex_plus, op.kappa_ex_m)
        up, down = 1j * op.g_plus, 1j * op.g_plus.conjugate()
    else:
        modes, sign, spectator_offset = ("a_plus", "a_minus", "b_dag"), -1.0, d - s
        kappa = (op.kappa_plus, op.kappa_minus, op.kappa_m)
        kappa_ex = (op.kappa_ex_plus, op.kappa_ex_minus, op.kappa_ex_m)
        up, down = 1j * op.g_minus, -1j * op.g_minus.conjugate()
    diag = [-0.5 * k + 1j * w for k, w in zip(kappa, (spectator_offset, d, 0.0))]
    ex = [math.sqrt(k) for k in kappa_ex]
    # rounding can leave kappa - kappa_ex a few ulp below zero
    loss = [math.sqrt(max(k - k_ex, 0.0)) for k, k_ex in zip(kappa, kappa_ex)]
    b = (
        (ex[0], 0.0, loss[0], 0.0, 0.0),
        (ex[1], 0.0, 0.0, loss[1], 0.0),
        (0.0, ex[2], 0.0, 0.0, loss[2]),
    )
    sigma_u = (1.0, sign, 1.0, 1.0, sign)
    ports = ["a", "c"] + [f"{m.removesuffix('_dag')}_loss" for m in modes]
    names = [(p, "_dag" if u < 0 else "") for p, u in zip(ports, sigma_u)]
    return LinearModel(
        modes=modes,
        inputs=tuple(f"{p}_in{dag}" for p, dag in names),
        outputs=tuple(f"{p}_out{dag}" for p, dag in names),
        a=((diag[0], 0j, 0j), (0j, diag[1], up), (0j, down, diag[2])),
        b=b,
        c=tuple(tuple(-_D[o][o] * row[o] for row in b) for o in range(5)),  # B is real
        d=_D,
        sigma=(1.0, 1.0, sign),
        sigma_u=sigma_u,
    )


def band_integral(model: LinearModel, inp: str, out: str) -> float:
    """The integral over all omega of |S_oi(omega)|^2 from input port `inp`
    to output port `out` of `model` (names from its inputs and outputs).

    By Parseval it is 2 pi C_o W C_o^dag, where the controllability Gramian
    W solves A W + W A^dag + B_i B_i^dag = 0 (Zhou, Doyle & Glover, Robust
    and Optimal Control, 1996, ch. 4): one linear solve, with no grid and
    whatever the linewidths.  A must be stable, as it is below the Stokes
    threshold.  A port pair with D_oi != 0 has an infinite integral and
    raises ValueError.
    """
    import numpy as np

    i, o = model.inputs.index(inp), model.outputs.index(out)
    if model.d[o][i] != 0.0:
        raise ValueError(f"{inp} -> {out} passes straight through (D = {model.d[o][i]!r}): "
                         "its band integral is infinite")
    a = np.array(model.a)
    n = len(a)
    eye = np.eye(n)
    # A W + W A^dag on the row-major entries of W: the Kronecker sum
    # A (x) I + I (x) conj(A), built by broadcasting
    kron_sum = (a[:, None, :, None] * eye[None, :, None, :]
                + eye[:, None, :, None] * a.conj()[None, :, None, :]).reshape(n * n, n * n)
    b_i = np.array(model.b)[:, i]
    w = np.linalg.solve(kron_sum, -(b_i[:, None] * b_i).ravel()).reshape(n, n)  # B is real
    c_o = np.array(model.c[o])
    return 2.0 * math.pi * float((c_o @ w @ c_o).real)  # C is real


def operating_point(
    params: DeviceParams,
    pump: PumpConfig,
    acoustic_mode=None,
    pump_detuning: float = 0.0,
) -> OperatingPoint:
    """Assemble the full operating point for `params` under `pump`, offset
    by `pump_detuning` (rad/s) from the supermode it addresses.

    Uses the transduction acoustic mode unless another is supplied.  The
    sideband detuning is pump_detuning + (omega_m - omega_m,t) for
    anti-Stokes pumping and pump_detuning - (omega_m - omega_m,t) for
    Stokes, with omega_m,t the transduction mode's frequency.  The last
    few distinct points are memoized, so the verbs and a design study that
    ask for one point several times build it once.

    The build, with s = `Supermodes.delta_omega` the supermode splitting:

    - the bus photon flux |s_in|^2 = eta_fiber_chip P_in / (hbar omega_L),
      omega_L = pump.omega_l_effective;
    - the steady-state pump amplitudes of the supermodes,
      A_pm = sqrt(kappa_ex,pm) s_in / (-i Delta_pm + kappa_pm / 2), where
      Delta is pump_detuning on the pumped supermode (a_- anti-Stokes, a_+
      Stokes) and further offset on the other one: Delta_+ = pump_detuning
      - s (anti-Stokes), Delta_- = pump_detuning + s (Stokes); n_pump is
      |A|^2 of the pumped one;
    - the acoustically coupled (left) ring in the supermode basis, a_l =
      x a_- + y a_+, with (x, y) = (alpha_-*, alpha_+*) the conjugated
      left-ring participations of `Supermodes`;
    - the pump-dressed couplings g_- = g0 (|x|^2 A_- + x* y A_+) and
      g_+ = g0 (|y|^2 A_+ + x y* A_-).

    |x|^2 + |y|^2 = 1 exactly: the supermodes are eigenvectors of the
    complex-symmetric [[chi_l^-1, -iJ], [-iJ, chi_r^-1]], so v_-^T v_+ = 0,
    which in two dimensions makes v_+ proportional to (-beta_-, alpha_-);
    hence |alpha_+| = |beta_-| and |alpha_-|^2 + |alpha_+|^2 = |alpha_-|^2
    + |beta_-|^2 = 1.  At the exceptional point the two coalesce into a
    self-orthogonal vector with |alpha| = |beta| = 1/sqrt(2), and the sum
    is 1 there too.
    """
    mode = acoustic_mode if acoustic_mode is not None else params.transduction_mode
    return _operating_point(params, pump, mode, pump_detuning)


# points that share a device, such as those of a power sweep, share its supermodes
_supermodes = functools.lru_cache(maxsize=8)(supermodes)


@functools.lru_cache(maxsize=8)
def _operating_point(
    params: DeviceParams, pump: PumpConfig, mode, pump_detuning: float
) -> OperatingPoint:
    """`operating_point` with its acoustic mode resolved; its arguments are
    frozen dataclasses and floats, so they key the memo."""
    ref = params.transduction_mode
    sm = _supermodes(params.left, params.right, params.coupling_j)
    s_in = math.sqrt(photon_flux(params.losses.eta_fiber_chip * pump.power_in, pump.omega_l_effective))
    mode_offset = mode.omega_m - ref.omega_m
    anti_stokes = pump.configuration is Configuration.ANTI_STOKES
    if anti_stokes:
        delta_minus, delta_plus = pump_detuning, pump_detuning - sm.delta_omega
        sideband_detuning = pump_detuning + mode_offset
    else:
        delta_minus, delta_plus = pump_detuning + sm.delta_omega, pump_detuning
        sideband_detuning = pump_detuning - mode_offset
    a_minus = math.sqrt(sm.kappa_ex_minus) * s_in / (-1j * delta_minus + 0.5 * sm.kappa_minus)
    a_plus = math.sqrt(sm.kappa_ex_plus) * s_in / (-1j * delta_plus + 0.5 * sm.kappa_plus)
    x, y = sm.alpha_minus.conjugate(), sm.alpha_plus.conjugate()
    return OperatingPoint(
        configuration=pump.configuration,
        omega_m=mode.omega_m,
        kappa_m=mode.kappa_m,
        kappa_ex_m=mode.kappa_ex_m,
        kappa_minus=sm.kappa_minus,
        kappa_plus=sm.kappa_plus,
        kappa_ex_minus=sm.kappa_ex_minus,
        kappa_ex_plus=sm.kappa_ex_plus,
        g_minus=params.g0 * (abs(x) ** 2 * a_minus + x.conjugate() * y * a_plus),
        g_plus=params.g0 * (abs(y) ** 2 * a_plus + x * y.conjugate() * a_minus),
        splitting=sm.delta_omega,
        n_pump=abs(a_minus if anti_stokes else a_plus) ** 2,
        sideband_detuning=sideband_detuning,
    )
