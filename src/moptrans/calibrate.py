"""Nonlinear least-squares recovery of device parameters from data.

One backend serves every fit, one fit function per CLI `fit` kind
(doublet, s11, power, step).  Every nonlinear fit passes one callable,
x -> (residuals, analytic Jacobian), to `_solve`, a bounded
Levenberg-Marquardt in numpy that calls it once per trial point and keeps
the Jacobian of an accepted trial.  It solves (J^T J + mu D^2) dx = -J^T r
on the free parameters, with Marquardt's scaling (D^2 the running maximum
of the squared column norms of J; More, "The Levenberg-Marquardt
algorithm: implementation and theory", LNM 630, 1978) and Nielsen's
damping update (Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least
Squares Problems", 2004).  A parameter at a bound that the gradient pushes
against is held fixed, the trial point is clipped into the box, and a
trial with a non-finite cost is a rejected step.  The fit has converged
when an accepted step changes the cost by less than 1e-10 relative with
gain ratio > 0.25; when the gradient, each entry times the distance to the
bound that -gradient points at, is below 1e-8; or when no step changes the
cost measurably (predicted and actual change below 1e-10 relative), as at
a kink of the RC step's cost.  At 500 model evaluations per parameter the
backend raises ConvergenceError instead, so every report it returns has
converged.  Covariances come from the Gauss-Newton approximation sigma^2
(J^T J)^-1 with sigma^2 the reduced residual variance.  When J^T J is
singular there is no such estimate: the report gives those variances as
None (JSON null), never NaN, and carries a 'singular-covariance' flag, and
its condition_number (of J with unit-norm columns, at the solution) is
None.

The efficiency-vs-power fit is the closed-form exception: its model is
linear in the one parameter, so it is solved directly, with the same
sigma^2 (J^T J)^-1 rule applied to its weighted (relative) residuals.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError
from .model import HBAR

_FTOL = 1e-10
_GTOL = 1e-8
_MAX_NFEV = 500


@dataclass(frozen=True)
class FitReport:
    """Recovered parameters with diagnostics.

    parameters/covariance_diag are name-keyed maps; units records the unit
    string per parameter; flags carries non-fatal data-quality notices.
    A variance is None where the covariance estimate does not exist, and
    then so is condition_number, the 2-norm condition number of the
    Jacobian at the solution with its columns scaled to unit norm.
    """

    parameters: dict
    units: dict
    residual_norm: float
    iterations: int
    converged: bool
    covariance_diag: dict
    condition_number: float | None = None
    flags: tuple[str, ...] = ()
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)


def _report(units: dict, values, variances, residual_norm, nfev, condition=math.nan, flags=()) -> FitReport:
    """Every FitReport is made here.  `units` maps each parameter name to its
    unit, in the order of `values` and `variances`; a non-finite variance
    is reported as None under one 'singular-covariance' flag, and then the
    condition number is None too, as it is when not finite."""
    names = tuple(units)
    cov = {n: float(v) if math.isfinite(v) else None for n, v in zip(names, variances)}
    missing = [n for n, v in cov.items() if v is None]
    if missing:
        flags = (*flags, "singular-covariance: J^T J is not invertible; no variance for "
                 + ", ".join(missing))
    return FitReport(parameters=dict(zip(names, map(float, values))), units=units,
                     residual_norm=residual_norm, iterations=nfev, converged=True,
                     covariance_diag=cov, flags=tuple(flags),
                     condition_number=float(condition) if math.isfinite(condition) and not missing else None)


def _solve(model, x0, lower, upper, what: str):
    """Bounded Levenberg-Marquardt on `model(x) -> (residuals, Jacobian)`:
    returns x, the residuals and Jacobian there, and the evaluation count."""
    n = len(x0)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    with np.errstate(over="ignore", invalid="ignore"):
        r, jx = model(x)
        cost, nfev = 0.5 * float(r @ r), 1
        if not math.isfinite(cost):
            raise ValueError(f"{what}: residuals are not finite at the initial guess")
        d2, mu, nu, small_change = np.zeros(n), 1e-3, 2.0, False
        while True:
            g, a = jx.T @ r, jx.T @ jx
            d2 = np.maximum(d2, np.diag(a))  # Marquardt's scaling, never shrinking
            scale = np.where(d2 > 0.0, d2, 1.0)
            # distance to the bound along -g; a parameter with none is held
            room = np.where(g > 0.0, x - lower, upper - x)
            free = room > 0.0
            if small_change or np.max(np.abs(g) * room) <= _GTOL:
                return x, r, jx, nfev
            a_free, g_free = a[np.ix_(free, free)], g[free]
            while True:  # raise the damping until a step lowers the cost
                if nfev >= _MAX_NFEV * n:
                    raise ConvergenceError(f"{what} did not converge")
                step = np.zeros(n)
                step[free] = np.linalg.solve(a_free + mu * np.diag(scale[free]), -g_free)
                trial = np.clip(x + step, lower, upper)
                step = trial - x
                predicted = -(g @ step + 0.5 * step @ a @ step)
                r_trial, j_trial = model(trial)
                nfev += 1
                cost_trial = 0.5 * float(r_trial @ r_trial)
                rho = (cost - cost_trial) / predicted if predicted > 0.0 and math.isfinite(cost_trial) else -1.0
                if rho > 0.0:
                    break
                if predicted <= _FTOL * cost and abs(cost - cost_trial) <= _FTOL * cost:
                    return x, r, jx, nfev  # no step changes the cost measurably
                mu, nu = mu * nu, 2.0 * nu
            small_change = cost - cost_trial < _FTOL * cost and rho > 0.25
            x, r, cost, jx = trial, r_trial, cost_trial, j_trial
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0  # Nielsen's update


def _run_fit(model, x0, bounds, what: str):
    """Shared backend; `model(x)` returns the residuals and their Jacobian.
    Returns (values, variances, residual norm, nfev, condition number) and
    raises ConvergenceError('<what> did not converge')."""
    x, r, jx, nfev = _solve(model, x0, *bounds, what)
    m, n = jx.shape
    norms = np.linalg.norm(jx, axis=0)
    singular = np.linalg.svd(jx / np.where(norms > 0.0, norms, 1.0), compute_uv=False)
    condition = singular[0] / singular[-1] if singular[-1] > 0.0 else math.inf
    if m > n:
        sigma2 = float(r @ r) / (m - n)
        try:
            jtj_inv = np.linalg.inv(jx.T @ jx)
            variances = np.clip(np.diag(jtj_inv), 0.0, None) * sigma2
        except np.linalg.LinAlgError:
            variances = np.full(n, np.nan)
    else:
        variances = np.zeros(n)
    return x, variances, float(np.linalg.norm(r)), nfev, condition


# ---------------------------------------------------------------------------
# optical doublet
# ---------------------------------------------------------------------------

def _doublet_s21(omega, kappa_l, kappa_r, kappa_ex, coupling_j, delta, omega_center):
    """S21 = 1 - kex (a + b)/(ab + J^2) = 1 - kex_- chi_- - kex_+ chi_+ at equal
    per-ring kex (the trace of the 2x2 resolvent), with a, b the bare-ring
    inverse susceptibilities (intrinsic loss clamped at 1e-6 rad/s).
    Returns S21, a, b, ab + J^2 and (a + b)/(ab + J^2)."""
    a = 0.5 * (kappa_ex + max(kappa_l - kappa_ex, 1e-6)) - 1j * (omega - (omega_center + 0.5 * delta))
    b = 0.5 * (kappa_ex + max(kappa_r - kappa_ex, 1e-6)) - 1j * (omega - (omega_center - 0.5 * delta))
    det = a * b + coupling_j ** 2
    ratio = (a + b) / det
    return 1.0 - kappa_ex * ratio, a, b, det, ratio


def doublet_transmission(omega, kappa_l, kappa_r, kappa_ex, coupling_j, delta, omega_center):
    """Power transmission |1 - kex_- chi_- - kex_+ chi_+|^2 of the
    hybridized doublet versus absolute angular frequency `omega`.

    kappa_l/kappa_r are total ring linewidths, kappa_ex the common per-ring
    external coupling, delta = omega_l - omega_r and omega_center the mean
    ring frequency.
    """
    omega = np.asarray(omega, dtype=float)
    s21 = _doublet_s21(omega, kappa_l, kappa_r, kappa_ex, coupling_j, delta, omega_center)[0]
    return np.abs(s21) ** 2


def _doublet_sweep(omega, bias, theta):
    """Model of the bias-sweep fit for all spectra in one pass: the stacked
    transmissions and their Jacobian against theta = (kappa_l, kappa_r,
    kappa_ex, J, delta, delta_slope, omega_center)."""
    kl, kr, kex, j, d0, slope, c = theta
    s21, a, b, det, ratio = _doublet_s21(omega, kl, kr, kex, j, d0 + slope * bias[:, None], c)
    ds_da = -kex * (1.0 - ratio * b) / det  # dS21/da, dS21/db
    ds_db = -kex * (1.0 - ratio * a) / det
    free_l, free_r = kl - kex > 1e-6, kr - kex > 1e-6  # else the clamp follows kex
    ds_ddelta = 0.5j * (ds_da - ds_db)
    ds = np.stack([0.5 * free_l * ds_da, 0.5 * free_r * ds_db,
                   0.5 * (not free_l) * ds_da + 0.5 * (not free_r) * ds_db - ratio,
                   2.0 * kex * j * ratio / det, ds_ddelta, ds_ddelta * bias[:, None],
                   1j * (ds_da + ds_db)], axis=-1)
    jac = 2.0 * (s21.conj()[..., None] * ds).real
    return np.abs(s21).ravel() ** 2, jac.reshape(-1, len(theta))


def _local_minima(y, order):
    """Indices i with y[i] < y[j] for every other j within `order` of i;
    the first and last points never qualify (scipy.signal.argrelmin with
    mode='clip')."""
    keep = np.zeros(y.size, dtype=bool)
    keep[1:-1] = True
    for s in range(1, min(order, y.size - 1) + 1):
        keep[:-s] &= y[:-s] < y[s:]
        keep[s:] &= y[s:] < y[:-s]
        if not keep.any():
            break
    return np.flatnonzero(keep)


def _dip_candidates(omega, trans):
    """Indices of the two deepest, well-separated local minima (lightly
    smoothed against point noise); one index if the spectrum has a single
    resolved dip."""
    width = max(3, len(trans) // 100)
    kernel = np.ones(width) / width
    smooth = np.convolve(trans, kernel, mode="same")
    order = max(1, len(trans) // 50)
    idx = _local_minima(smooth, order)
    idx = sorted(idx, key=lambda i: smooth[i])
    if not idx:
        return []
    first = idx[0]
    min_sep = (omega[-1] - omega[0]) / 20.0
    for i in idx[1:]:
        if abs(omega[i] - omega[first]) > min_sep:
            return [first, i]
    return [first]


def _doublet_init(omega, trans, flags):
    """Initial (center, splitting, kappa, kappa_ex) guesses from dip
    positions, widths and depth."""
    dips = _dip_candidates(omega, trans)
    span = omega[-1] - omega[0]
    if len(dips) >= 2:
        i1, i2 = sorted(dips[:2])
        center0 = 0.5 * (omega[i1] + omega[i2])
        splitting0 = max(omega[i2] - omega[i1], span / 100.0)
    elif len(dips) == 1:
        flags.append("single-dip spectrum: splitting guess from dip width")
        center0 = omega[dips[0]]
        splitting0 = span / 10.0
    else:
        raise ConvergenceError("no transmission dip found in the spectrum")
    depth = max(1.0 - float(np.min(trans)), 1e-3)
    kappa0 = max(splitting0 / 4.0, span / 50.0)
    kappa_ex0 = 0.5 * kappa0 * (1.0 - math.sqrt(max(1.0 - depth, 0.0)))
    kappa_ex0 = min(max(kappa_ex0, 0.05 * kappa0), 0.45 * kappa0)
    return center0, splitting0, kappa0, kappa_ex0


def fit_doublet(omega, transmission, bias_axis=None) -> FitReport:
    """Recover the doublet from power transmission |S21|^2 on the absolute
    angular-frequency grid `omega` [rad/s]: one spectrum (1-D), or a bias
    sweep, a stack of shape (n_bias, n_freq) with `bias_axis` of length
    n_bias.  Both fits evaluate one model, `_doublet_sweep`.

    One spectrum gives its supermode observables: kappa_plus, kappa_minus,
    the common kappa_ex, splitting = omega_plus - omega_minus and their mean
    omega_center.  A sweep gives the bare rings: kappa_l, kappa_r, kappa_ex,
    J, omega_center and the ring detuning delta_i = delta + delta_slope * bias_i.
    """
    omega = np.asarray(omega, dtype=float)
    trans = np.asarray(transmission, dtype=float)
    if omega.ndim != 1 or omega.size < 16:
        raise ValueError("need a 1-D frequency grid with >= 16 points")
    order = np.argsort(omega)
    omega = omega[order]

    if trans.ndim == 1:
        if bias_axis is not None:
            raise ValueError("bias_axis requires a 2-D transmission stack")
        return _fit_doublet_single(omega, trans[order])
    if trans.ndim != 2 or trans.shape[1] != omega.size:
        raise ValueError("transmission stack must have shape (n_bias, n_freq)")
    if bias_axis is None or len(bias_axis) != trans.shape[0]:
        raise ValueError("bias_axis must match the stack's first dimension")
    return _fit_doublet_sweep(omega, trans[:, order], np.asarray(bias_axis, dtype=float))


def _fit_doublet_single(omega, trans) -> FitReport:
    """The sweep model at J = 0 on one zero bias point: a + b = lambda_- +
    lambda_+ and ab + J^2 = lambda_- lambda_+ for the supermode eigenvalues,
    so its uncoupled rings are the supermodes, ring l the upper one."""
    flags: list[str] = []
    center0, splitting0, kappa0, kappa_ex0 = _doublet_init(omega, trans, flags)
    # relative to center0 (exact): rounding of omega - omega_pm at 1e15 rad/s
    # leaves a rough residual floor that a noiseless fit cannot converge on
    offset = omega - center0
    x0 = np.array([kappa0, kappa0, kappa_ex0, splitting0, 0.0])
    lower = np.array([1e-6 * kappa0, 1e-6 * kappa0, 1e-8 * kappa0, 0.0, offset[0]])
    upper = np.array([100 * kappa0, 100 * kappa0, 50 * kappa0, 10 * (offset[-1] - offset[0]), offset[-1]])

    def model(x):  # (kappa_plus, kappa_minus, kappa_ex, splitting >= 0, omega_center - center0)
        fitted, jac = _doublet_sweep(offset, np.zeros(1), (*x[:3], 0.0, x[3], 0.0, x[4]))
        return fitted - trans, jac[:, [0, 1, 2, 4, 6]]

    x, variances, *stats = _run_fit(model, x0, (lower, upper), "doublet fit")
    x[4] += center0
    units = dict.fromkeys(("kappa_plus", "kappa_minus", "kappa_ex", "splitting", "omega_center"), "rad/s")
    return _report(units, x, variances, *stats, flags)


def _canonical_ring_labels(x, variances):
    """Ring relabeling (kappa_l <-> kappa_r, delta -> -delta, slope ->
    -slope) is an exact model symmetry; report the kappa_l >= kappa_r
    branch."""
    x, variances = np.array(x, dtype=float), np.array(variances, dtype=float)
    if x[0] < x[1]:
        x[[0, 1]], variances[[0, 1]] = x[[1, 0]], variances[[1, 0]]
        x[4:-1] *= -1.0  # delta and slope
    return x, variances


def _fit_doublet_sweep(omega, stack, bias) -> FitReport:
    flags: list[str] = []
    inits = np.array([_doublet_init(omega, spectrum, flags) for spectrum in stack])
    centers, splittings = inits[:, 0], inits[:, 1]
    kappa0, kappa_ex0 = inits[np.argmin(np.abs(bias)), 2:]
    j0 = 0.5 * float(np.min(splittings))
    i_min = int(np.argmin(splittings))
    delta_mag = np.sqrt(np.clip(splittings ** 2 - 4.0 * j0 ** 2, 0.0, None))
    signs = np.sign(np.arange(len(bias)) - i_min)
    signs[signs == 0] = 1.0
    delta_guess = signs * delta_mag
    slope0, delta00 = np.polyfit(bias, delta_guess, 1)
    center0 = float(np.mean(centers))
    offset = omega - center0  # as in _fit_doublet_single
    span = omega[-1] - omega[0]

    x0 = np.array([kappa0, kappa0, kappa_ex0, j0, delta00, slope0, 0.0])
    bias_scale = max(float(np.max(np.abs(bias))), 1.0)
    lower = np.array([1e-6 * kappa0, 1e-6 * kappa0, 1e-8 * kappa0, 0.0,
                      -10 * span, -10 * span / bias_scale, offset[0]])
    upper = np.array([100 * kappa0, 100 * kappa0, 50 * kappa0, 10 * span,
                      10 * span, 10 * span / bias_scale, offset[-1]])

    def model(theta):
        fitted, jac = _doublet_sweep(offset, bias, theta)
        return fitted - stack.ravel(), jac

    x, variances, *stats = _run_fit(model, x0, (lower, upper), "doublet sweep fit")
    x[6] += center0
    x, variances = _canonical_ring_labels(x, variances)
    names = ("kappa_l", "kappa_r", "kappa_ex", "J", "delta", "delta_slope", "omega_center")
    units = dict.fromkeys(names, "rad/s")
    units["delta_slope"] = "rad/s per bias unit"
    return _report(units, x, variances, *stats, flags)


# ---------------------------------------------------------------------------
# microwave one-port reflection
# ---------------------------------------------------------------------------

def s11_model(omega, omega_m, kappa_m, kappa_ex_m):
    """One-port reflection -1 + kappa_ex_m chi_m[omega - omega_m]."""
    omega = np.asarray(omega, dtype=float)
    chi = 1.0 / (-1j * (omega - omega_m) + 0.5 * kappa_m)
    return -1.0 + kappa_ex_m * chi


def _s11_jac(omega, omega_m, kappa_m, kappa_ex_m):
    """Jacobian of the stacked (real, imaginary) s11_model against
    (omega_m, kappa_m, kappa_ex_m), from chi_m and chi_m^2."""
    chi = 1.0 / (-1j * (omega - omega_m) + 0.5 * kappa_m)
    d = np.column_stack([-1j * kappa_ex_m * chi ** 2, -0.5 * kappa_ex_m * chi ** 2, chi])
    return np.concatenate([d.real, d.imag])


def fit_s11(omega, s11) -> FitReport:
    """Recover {omega_m, Q_m, eta_m} from complex reflection data around a
    single acoustic resonance.

    Residuals stack real and imaginary parts.  A dip shallower than the
    scatter of the off-resonant baseline is flagged as indistinguishable
    from background.
    """
    omega = np.asarray(omega, dtype=float)
    s11 = np.asarray(s11)
    if omega.ndim != 1 or omega.shape != s11.shape or omega.size < 8:
        raise ValueError("need matching 1-D arrays with >= 8 points")
    order = np.argsort(omega)
    omega, s11 = omega[order], s11[order]

    mag = np.abs(s11)
    flags: list[str] = []
    i_dip = int(np.argmin(mag))
    baseline = float(np.median(mag))
    dip_depth = baseline - float(mag[i_dip])
    # robust scatter; the deepest point of pure noise sits ~3 sigma below
    # the baseline, so require a clearly larger excursion
    sigma_est = 1.4826 * float(np.median(np.abs(mag - baseline))) + 1e-15
    if dip_depth < 4.5 * sigma_est:
        flags.append("no-resonance: dip depth below background scatter")

    omega_m0 = float(omega[i_dip])
    # -3 dB width of the dip in |S11|^2
    target = float(mag[i_dip]) + 0.5 * dip_depth
    above = np.where(mag > target)[0]
    left = above[above < i_dip]
    right = above[above > i_dip]
    if left.size and right.size:
        width0 = float(omega[right[0]] - omega[left[-1]])
    else:
        width0 = (omega[-1] - omega[0]) / 10.0
    kappa0 = max(width0, (omega[-1] - omega[0]) / 200.0)
    eta0 = min(max(0.5 * (1.0 - float(mag[i_dip])), 1e-3), 0.49)

    x0 = np.array([omega_m0, kappa0, eta0 * kappa0])
    lower = np.array([omega[0], 1e-6 * kappa0, 0.0])
    upper = np.array([omega[-1], 1e3 * kappa0, 1e3 * kappa0])

    def model(theta):
        diff = s11_model(omega, *theta) - s11
        return np.concatenate([diff.real, diff.imag]), _s11_jac(omega, *theta)

    x, variances, *stats = _run_fit(model, x0, (lower, upper), "S11 fit")
    omega_m, kappa_m, kappa_ex_m = map(float, x)
    var_om, var_km, var_kexm = map(float, variances)
    q_m = omega_m / kappa_m
    eta_m = kappa_ex_m / kappa_m
    # first-order propagation for the derived quantities
    var_q = q_m ** 2 * (var_om / omega_m ** 2 + var_km / kappa_m ** 2)
    var_eta = eta_m ** 2 * ((var_kexm / kappa_ex_m ** 2 if kappa_ex_m > 0 else 0.0)
                            + var_km / kappa_m ** 2)
    units = {"omega_m": "rad/s", "kappa_m": "rad/s", "kappa_ex_m": "rad/s", "Q_m": "1", "eta_m": "1"}
    return _report(units, (omega_m, kappa_m, kappa_ex_m, q_m, eta_m),
                   (var_om, var_km, var_kexm, var_q, var_eta), *stats, flags)


# ---------------------------------------------------------------------------
# efficiency-vs-power
# ---------------------------------------------------------------------------

def fit_efficiency_power(power_in, eta_tot, fixed: dict) -> FitReport:
    """Recover the single-photon cooperativity C0 and vacuum coupling g0
    from (P_in [W], eta_tot) data in the low-cooperativity regime.

    `fixed` must supply eta_probes, eta_fiber_fiber, eta_m, eta_o [linear
    ratios], kappa_o, kappa_m [rad/s] and omega_l [rad/s].  The model is
    linear through the origin,

        eta_tot = 16 eta_probes eta_ff eta_m eta_o^2 C0 P_in/(hbar w_L k_o),

    i.e. eta_tot = s P_in with g0 = 2 sqrt(kappa_o kappa_m C0 / 4) (the
    factor two reflecting the optical hybridization).

    Noise model: the scatter is relative (multiplicative), as for
    efficiencies read in dB, eta_i = s P_i (1 + e_i) with e_i of equal
    variance.  The slope therefore minimises the relative residuals
    r_i = (eta_i - s P_i) / P_i, which is weighted least squares with
    weights 1/P_i^2 and has the closed form

        s = mean(eta_i / P_i),   var_s = sigma^2 / n,
        sigma^2 = sum(r_i^2) / (n - 1),

    the backend's sigma^2 (J^T J)^-1 rule applied to the weighted
    residuals.  A single point gives s = eta / P with zero variance.
    residual_norm is the norm of the absolute residuals eta_i - s P_i.
    Data with more than 10% relative curvature are flagged as
    out-of-regime.
    """
    p = np.atleast_1d(np.asarray(power_in, dtype=float))
    eta = np.atleast_1d(np.asarray(eta_tot, dtype=float))
    if p.shape != eta.shape or p.size < 1:
        raise ValueError("need matching power/efficiency arrays")
    if np.any(p <= 0.0) or np.any(eta <= 0.0):
        raise ValueError("powers and efficiencies must be positive")
    required = ("eta_probes", "eta_fiber_fiber", "eta_m", "eta_o", "kappa_o", "kappa_m", "omega_l")
    missing = [k for k in required if k not in fixed]
    if missing:
        raise ValueError(f"missing fixed parameters: {missing}")

    flags: list[str] = []
    if p.size >= 3:
        # deviation of the best power law from slope one
        coeffs = np.polyfit(np.log(p), np.log(eta), 1)
        if abs(coeffs[0] - 1.0) > 0.10:
            flags.append(f"out-of-regime: log-log slope {coeffs[0]:.3f} deviates from 1")

    ratio = eta / p
    slope = float(np.mean(ratio))
    residual = eta - slope * p
    rnorm = float(np.linalg.norm(residual))
    var_slope = 0.0
    if p.size > 1:
        rel = ratio - slope
        sigma2 = float(np.dot(rel, rel) / (p.size - 1))
        var_slope = sigma2 / p.size
        rel_dev = float(np.max(np.abs(residual) / eta))
        if rel_dev > 0.10 and not flags:
            flags.append(f"out-of-regime: relative curvature {rel_dev:.3f} > 0.1")

    conversion = HBAR * fixed["omega_l"] * fixed["kappa_o"] / (
        16.0 * fixed["eta_probes"] * fixed["eta_fiber_fiber"] * fixed["eta_m"] * fixed["eta_o"] ** 2)
    c0 = slope * conversion
    var_c0 = var_slope * conversion ** 2
    g0 = 2.0 * math.sqrt(fixed["kappa_o"] * fixed["kappa_m"] * c0 / 4.0)
    var_g0 = (g0 / (2.0 * c0)) ** 2 * var_c0 if c0 > 0 else 0.0

    units = {"C0": "1", "g0": "rad/s", "slope": "1/W"}
    # closed form: one evaluation, reported as iterations = 1; one column,
    # so its scaled Jacobian has condition number 1
    return _report(units, (c0, g0, slope), (var_c0, var_g0, var_slope), rnorm, 1, 1.0, flags)


# ---------------------------------------------------------------------------
# RC step response
# ---------------------------------------------------------------------------

def rc_step_model(t, amplitude, tau, t0):
    t = np.asarray(t, dtype=float)
    return amplitude * (1.0 - np.exp(-np.clip(t - t0, 0.0, None) / tau))


def _rc_step_jac(t, amplitude, tau, t0):
    """Jacobian of rc_step_model against (amplitude, tau, t0); at t = t0 it
    is the one-sided derivative from t >= t0."""
    s = np.clip(t - t0, 0.0, None)
    decay = np.exp(-s / tau)
    return np.column_stack([1.0 - decay, -amplitude * s * decay / tau ** 2,
                            np.where(t >= t0, -amplitude * decay / tau, 0.0)])


def fit_rc_step(t, envelope) -> FitReport:
    """Recover {tau_rc, amplitude, t0} from a demodulated envelope with one
    rising edge, by least squares against A (1 - exp(-(t - t0)/tau)).

    Initialization: plateau from the latest samples, t0 from the 10%
    crossing, tau from the 10-90% rise time divided by 2.2.  The model has
    a kink at t0; its Jacobian there is exact and one-sided (from t >= t0),
    where a difference quotient would straddle the kink.
    """
    t = np.asarray(t, dtype=float)
    env = np.asarray(envelope, dtype=float)
    if t.ndim != 1 or t.shape != env.shape or t.size < 8:
        raise ValueError("need matching 1-D arrays with >= 8 points")
    order = np.argsort(t)
    t, env = t[order], env[order]

    tail = env[-max(3, t.size // 10):]
    plateau = float(np.mean(tail))
    base = float(np.min(env))
    if plateau - base <= 1e-12 or plateau <= base + 5.0 * float(np.std(tail) + 1e-15):
        raise ConvergenceError("no rising edge detected in the envelope")

    lo = base + 0.1 * (plateau - base)
    hi = base + 0.9 * (plateau - base)
    above_lo = np.where(env >= lo)[0]
    above_hi = np.where(env >= hi)[0]
    if above_lo.size == 0 or above_hi.size == 0:
        raise ConvergenceError("no rising edge detected in the envelope")
    t_lo, t_hi = float(t[above_lo[0]]), float(t[above_hi[0]])
    tau0 = max((t_hi - t_lo) / 2.2, float(t[1] - t[0]))
    t00 = max(t_lo - 0.105 * tau0, float(t[0]))

    x0 = np.array([plateau, tau0, t00])
    span = float(t[-1] - t[0])
    lower = np.array([0.0, 1e-6 * tau0, float(t[0]) - span])
    upper = np.array([10.0 * plateau, 1e3 * tau0, float(t[-1])])

    x, variances, *stats = _run_fit(lambda theta: (rc_step_model(t, *theta) - env, _rc_step_jac(t, *theta)),
                                    x0, (lower, upper), "RC step fit")
    units = {"amplitude": "signal", "tau_rc": "s", "t0": "s"}
    return _report(units, x, variances, *stats)
