"""Dominant-mode rational fits to frequency-sweep tensor coefficients.

Each coefficient of the real and imaginary tensors is approximated by the
single-mode shapes

    f_R(a, b) = -a b nu^2 / (nu^2 + b^2),
    f_I(c, d) =  c d nu   / (nu^2 + d^2),

whose rate parameter equals the eigenvalue when a single mode makes up the
whole response.  Higher modes pull the fitted rates above the dominant
eigenvalue, the I rate more than the R rate (analytic sphere: b = 8.64 and
d = 10.22 against lam_1 = 7.20), so the two rates need not agree.
The solver is a damped Gauss-Newton iteration with the analytic Jacobian,
multi-started over a decade grid of rates; the best local minimum wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoFitError
from .spectral import SpectralModel, assemble
from .tensors import PACKED_LABELS

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 10.0
_STEP_TOL = 1e-10
_MAX_ITER = 200

COEFF_LABELS = PACKED_LABELS


@dataclass(frozen=True)
class SweepData:
    """One tensor coefficient sampled over ascending nu values."""

    nu: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if nu.ndim != 1 or vals.shape != nu.shape:
            raise InvalidInputError("nu and values must be matching 1-D arrays")
        if np.any(nu < 0.0) or np.any(np.diff(nu) <= 0.0):
            raise InvalidInputError("nu must be nonnegative and strictly increasing")
        if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(vals))):
            raise InvalidInputError("sweep data must be finite")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FitResult:
    """Fitted (amplitude, rate) pair with residual diagnostics.

    ``amp``/``rate`` are (a, b) for kind "R" and (c, d) for kind "I"; the
    rate is normalised positive.  ``residual_curve`` follows the plotting
    convention -|data - fit| for R and +|data - fit| for I.
    """

    kind: str
    amp: float
    rate: float
    rms: float
    residual_curve: np.ndarray
    converged: bool
    iterations: int


def _model_and_jacobian(kind: str, nu: np.ndarray, amp: float, rate: float):
    denom = nu**2 + rate**2
    if kind == "R":
        f = -amp * rate * nu**2 / denom
        d_amp = -rate * nu**2 / denom
        d_rate = -amp * nu**2 * (nu**2 - rate**2) / denom**2
    else:
        f = amp * rate * nu / denom
        d_amp = rate * nu / denom
        d_rate = amp * nu * (nu**2 - rate**2) / denom**2
    return f, np.column_stack([d_amp, d_rate])


def _best_amp(kind: str, nu: np.ndarray, values: np.ndarray, rate: float) -> float:
    # the model is linear in the amplitude: closed-form optimum given the rate
    g, _ = _model_and_jacobian(kind, nu, 1.0, rate)
    gg = float(g @ g)
    return float(g @ values) / gg if gg > 0.0 else 0.0


def _gauss_newton(kind, nu, values, amp0, rate0):
    params = np.array([amp0, rate0])
    f, jac = _model_and_jacobian(kind, nu, *params)
    resid = f - values
    sse = float(resid @ resid)
    damping = _DAMPING_START
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        jtj = jac.T @ jac
        rhs = -jac.T @ resid
        try:
            step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), rhs)
        except np.linalg.LinAlgError:
            break
        trial = params + step
        f_t, jac_t = _model_and_jacobian(kind, nu, *trial)
        resid_t = f_t - values
        sse_t = float(resid_t @ resid_t)
        if sse_t <= sse:
            rel_step = np.abs(step).max() / max(np.abs(trial).max(), 1e-300)
            params, f, jac, resid, sse = trial, f_t, jac_t, resid_t, sse_t
            damping /= _DAMPING_DOWN
            if rel_step < _STEP_TOL:
                converged = True
                break
        else:
            damping *= _DAMPING_UP
            if damping > 1e12:
                break
    return params, sse, converged, iterations


def fit_dominant(data: SweepData, kind: str) -> FitResult:
    """Fit the single-mode shape to one coefficient's sweep.

    Multi-starts the rate over the decade grid spanning the positive nu
    range (plus the peak location for kind "I"); each start solves the
    amplitude in closed form before the joint Gauss-Newton refinement.
    Degenerate all-zero data raises; exhausted non-convergence returns the
    best-effort parameters flagged ``converged=False``.
    """
    if kind not in ("R", "I"):
        raise InvalidInputError(f"fit kind must be 'R' or 'I', got {kind!r}")
    nu, values = data.nu, data.values
    if nu.size < 4:
        raise NoFitError("need at least 4 data points")
    if np.abs(values).max() == 0.0:
        raise NoFitError("all sweep values are zero")

    positive = nu[nu > 0.0]
    decades = np.arange(
        np.floor(np.log10(positive.min())), np.ceil(np.log10(positive.max())) + 1
    )
    starts = list(10.0**decades)
    peak_nu = float(nu[np.argmax(np.abs(values))])
    if peak_nu > 0.0:
        starts.append(peak_nu)

    best = None
    for rate0 in starts:
        amp0 = _best_amp(kind, nu, values, rate0)
        params, sse, converged, iterations = _gauss_newton(
            kind, nu, values, amp0, rate0
        )
        if best is None or sse < best[1]:
            best = (params, sse, converged, iterations)
    params, sse, converged, iterations = best
    amp, rate = params
    if rate < 0.0:
        # f(a,b) = f(-a,-b): normalise the rate positive
        amp, rate = -amp, -rate
    fitted, _ = _model_and_jacobian(kind, nu, amp, rate)
    abs_resid = np.abs(values - fitted)
    residual_curve = -abs_resid if kind == "R" else abs_resid
    return FitResult(
        kind=kind,
        amp=float(amp),
        rate=float(rate),
        rms=float(np.sqrt(sse / nu.size)),
        residual_curve=residual_curve,
        converged=converged,
        iterations=iterations,
    )


@dataclass(frozen=True)
class FitReportRow:
    """Fit outcome for one tensor coefficient (or the reason it was skipped)."""

    label: str
    fit_r: FitResult | None
    fit_i: FitResult | None
    skipped: bool = False

    @property
    def rates_agree_15pct(self) -> bool | None:
        if self.fit_r is None or self.fit_i is None:
            return None
        b, d = self.fit_r.rate, self.fit_i.rate
        return abs(b - d) <= 0.15 * max(abs(b), abs(d))


def default_fit_grid(nu_max: float, points: int = 200) -> np.ndarray:
    """nu = 0 plus a log-uniform grid up to nu_max (the CLI default sampling)."""
    if nu_max <= 0.0:
        raise InvalidInputError("nu_max must be positive")
    return np.concatenate([[0.0], np.geomspace(1e-6 * nu_max, nu_max, points - 1)])


def sweep_coefficients(model: SpectralModel, nu: np.ndarray):
    """R and I coefficient arrays, shape (n, 6), packed like SymTensor3.

    One ``assemble`` call per point on purpose: the traced benchmark
    (``perfbench``, workload ``sphere_pipeline``) expects ``spectral.assemble``
    spans from the CLI sweep.  Contracting the whole grid at once needs a
    benchmark change first (ROADMAP item 2).
    """
    r_rows = np.empty((nu.size, 6))
    i_rows = np.empty((nu.size, 6))
    for k, nu_k in enumerate(nu):
        r_t, i_t, _ = assemble(model, nu_k)
        r_rows[k] = r_t.coeffs
        i_rows[k] = i_t.coeffs
    return r_rows, i_rows


def fit_report(
    source,
    nu_max: float,
    points: int = 200,
) -> list[FitReportRow]:
    """Fit all six independent coefficients of R and I up to nu_max.

    ``source`` is either a :class:`SpectralModel` (sampled on the default
    grid) or a tuple ``(nu, r_rows, i_rows)`` of packed coefficient arrays,
    e.g. parsed from a sweep CSV.  Coefficients that are identically zero
    (object symmetries) are reported as skipped.
    """
    if isinstance(source, SpectralModel):
        nu = default_fit_grid(nu_max, points)
        r_rows, i_rows = sweep_coefficients(source, nu)
    else:
        nu, r_rows, i_rows = source
        nu = np.asarray(nu, dtype=float)
        keep = nu <= nu_max
        if keep.sum() < 4:
            raise NoFitError(f"fewer than 4 sweep points below nu_max={nu_max:g}")
        nu = nu[keep]
        r_rows = np.asarray(r_rows, dtype=float)[keep]
        i_rows = np.asarray(i_rows, dtype=float)[keep]

    scale = max(np.abs(r_rows).max(), np.abs(i_rows).max())
    rows = []
    for k, label in enumerate(COEFF_LABELS):
        r_vals, i_vals = r_rows[:, k], i_rows[:, k]
        if max(np.abs(r_vals).max(), np.abs(i_vals).max()) <= 1e-14 * scale:
            rows.append(FitReportRow(label, None, None, skipped=True))
            continue
        fit_r = fit_dominant(SweepData(nu, r_vals), "R")
        fit_i = fit_dominant(SweepData(nu, i_vals), "I")
        rows.append(FitReportRow(label, fit_r, fit_i))
    return rows
