"""Dominant-mode rational fits to frequency-sweep tensor coefficients.

Each coefficient of the real and imaginary tensors is approximated by the
single-mode shapes

    f_R(a, b) = -a b nu^2 / (nu^2 + b^2),
    f_I(c, d) =  c d nu   / (nu^2 + d^2),

whose rate parameter equals the eigenvalue when a single mode makes up the
whole response.  Higher modes pull the fitted rates above the dominant
eigenvalue, the I rate more than the R rate (analytic sphere: b = 8.64 and
d = 10.22 against lam_1 = 7.20), so the two rates need not agree.

The amplitude enters linearly, so for a given rate it has a closed-form
optimum and the residual left after it depends on the rate alone (variable
projection: Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973; Kaufman,
BIT 15, 1975); its local minima are the rates of the local minima of the
full problem.  The fit is therefore a search over the rate alone: the
projected residual is screened on a log grid, and its two lowest local
minima there are refined by a bounded Brent search (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 5) and a secant step on its
slope or, at the grid's edge, followed outward.  The lowest residual wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import InvalidInputError, NoFitError
from .spectral import SpectralModel, _check_count, _check_nu, _frozen, assemble
from .tensors import PACKED_LABELS, _in_range, _number_array, _shown

_SCREEN_PER_DECADE = 4  # screening grid points per decade of rate
_SCREEN_MARGIN = 3  # decades the screening grid reaches past the sampled nu
_BRACKET = np.log(10.0) / _SCREEN_PER_DECADE  # one grid step in log-rate
_LOG_RATE_TOL = 1e-12  # Brent's absolute tolerance on log-rate
_SECANT_STEP = 1e-7  # half-width in log-rate of the final secant step
_EDGE_DROP = 1e-14  # an edge walk stops once a decade gains less than this x |v|^2

COEFF_LABELS = PACKED_LABELS


@dataclass(frozen=True)
class SweepData:
    """One tensor coefficient sampled over ascending nu values."""

    nu: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nu, vals = (_frozen(_number_array("sweep data", x)) for x in (self.nu, self.values))
        if nu.ndim != 1 or vals.shape != nu.shape:
            raise InvalidInputError("nu and values must be matching 1-D arrays")
        if np.any(nu < 0.0) or np.any(np.diff(nu) <= 0.0):
            raise InvalidInputError("nu must be nonnegative and strictly increasing")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FitResult:
    """Fitted (amplitude, rate) pair with residual diagnostics.

    ``amp``/``rate`` are (a, b) for kind "R" and (c, d) for kind "I"; the
    rate is positive.  ``residual_curve`` follows the plotting convention
    -|data - fit| for R and +|data - fit| for I; it is read-only, since
    report rows with identical data share one result.  ``start_rate`` is the
    grid rate of the screened minimum the winning run started from,
    ``iterations`` the run's evaluations of the projected residual, and
    ``stop`` why it ended: "step_tol" (an interior minimum; converged) or
    "asymptotic" (the residual still fell past the grid's edge, towards an
    unbounded or vanishing rate; not converged).
    """

    kind: str
    amp: float
    rate: float
    rms: float
    residual_curve: np.ndarray
    converged: bool
    iterations: int
    start_rate: float | None = None
    stop: str | None = None


def _unit_shape(kind: str, nu: np.ndarray, rate):
    # the model at unit amplitude; broadcasts over nu and rate
    denom = nu**2 + rate**2
    return -rate * nu**2 / denom if kind == "R" else rate * nu / denom


def _best_amp(kind: str, nu: np.ndarray, values: np.ndarray, rate: float) -> float:
    # the model is linear in the amplitude: closed-form optimum given the rate
    g = _unit_shape(kind, nu, rate)
    gg = float(g @ g)
    return float(g @ values) / gg if gg > 0.0 else 0.0


def _projected_resid(kind: str, nu: np.ndarray, values: np.ndarray, rates: np.ndarray):
    # per rate (columns), the shape, its closed-form amplitude and the residual
    g = _unit_shape(kind, nu[:, None], rates)
    gg = np.einsum("ps,ps->s", g, g)
    amp = np.divide(values @ g, gg, out=np.zeros_like(gg), where=gg > 0.0)
    return g, amp, g * amp - values[:, None]


def _projected(kind: str, nu: np.ndarray, values: np.ndarray, rates: np.ndarray):
    """Per rate, the residual sum of squares left by the closed-form amplitude.

    Formed from the residual itself: |v|^2 - (g.v)^2/(g.g) cancels when the
    shape fits closely.
    """
    _, _, resid = _projected_resid(kind, nu, values, rates)
    return np.einsum("ps,ps->s", resid, resid)


def _projected_slope(kind: str, nu: np.ndarray, values: np.ndarray, rates: np.ndarray):
    """Per rate, the slope of :func:`_projected` in log(rate).

    The amplitude is optimal, so the slope is
    2 amp resid . g (nu^2 - rate^2)/(nu^2 + rate^2), the shape's own change.
    """
    g, amp, resid = _projected_resid(kind, nu, values, rates)
    nu = nu[:, None]
    dg = g * (nu**2 - rates**2) / (nu**2 + rates**2)
    return 2.0 * amp * np.einsum("ps,ps->s", resid, dg)


def fit_dominant(data: SweepData, kind: str) -> FitResult:
    """Fit the single-mode shape to one coefficient's sweep.

    The data are divided by their largest |value|, so their scale does not
    matter.  The projected residual is screened at four rates per decade,
    from three decades below the positive nu range to three above.  Of its
    two lowest local minima there, an interior one is searched between its
    grid neighbours; one at the edge is followed outward a decade at a time
    while the residual falls by more than 1e-14 of |v|^2.  The lower
    residual wins.  Degenerate all-zero data raises.
    """
    if kind not in ("R", "I"):
        raise InvalidInputError(f"fit kind must be 'R' or 'I', got {_shown(kind)}")
    nu, values = data.nu, data.values
    if nu.size < 4:
        raise NoFitError("need at least 4 data points")
    scale = np.abs(values).max()
    if scale == 0.0:
        raise NoFitError("all sweep values are zero")
    v = values / scale

    positive = nu[nu > 0.0]
    # so that no screened or walked rate squares out of the float range
    if not 1e-100 <= positive.min() <= positive.max() <= 1e100:
        raise NoFitError("positive nu must lie within [1e-100, 1e100]")
    lo = np.floor(np.log10(positive.min())) - _SCREEN_MARGIN
    hi = np.ceil(np.log10(positive.max())) + _SCREEN_MARGIN
    rates = np.logspace(lo, hi, int(hi - lo) * _SCREEN_PER_DECADE + 1)
    projected = _projected(kind, nu, v, rates)
    minima = np.flatnonzero(
        (projected < np.append(np.inf, projected[:-1]))
        & (projected <= np.append(projected[1:], np.inf))
    )

    def refine(k):
        # (sse, rate, evaluations, stop, start rate) of the run from minimum k
        centre = rates[k]
        if 0 < k < rates.size - 1:
            # Brent over x = log(rate / centre) places the minimum only to
            # about sqrt(eps), where the residual is flat to rounding; a
            # secant step on its slope, which crosses zero there steeply,
            # places it to rounding
            run = minimize_scalar(
                lambda x: _projected(kind, nu, v, centre * np.exp([x]))[0],
                bounds=(-_BRACKET, _BRACKET), method="bounded",
                options={"xatol": _LOG_RATE_TOL},
            )
            x, h = run.x, _SECANT_STEP
            s_lo, s_hi = _projected_slope(kind, nu, v, centre * np.exp([x - h, x + h]))
            if s_lo < 0.0 < s_hi:
                x -= h * (s_lo + s_hi) / (s_hi - s_lo)
            sse = _projected(kind, nu, v, centre * np.exp([x]))[0]
            return sse, centre * np.exp(x), run.nfev + 3, "step_tol", centre
        # at the grid's edge: follow the minimum outward a decade at a time
        step, rate, sse, evaluations = (10.0 if k else 0.1), centre, projected[k], 0
        while True:
            trial = _projected(kind, nu, v, np.array([rate * step]))[0]
            evaluations += 1
            if not trial < sse - _EDGE_DROP * (v @ v):
                return sse, rate, evaluations, "asymptotic", centre
            rate, sse = rate * step, trial

    screened = minima[np.argsort(projected[minima], kind="stable")][:2]
    sse, rate, evaluations, stop, start_rate = min(map(refine, screened))
    amp = _best_amp(kind, nu, v, rate)
    with np.errstate(over="ignore"):
        amp_out = amp * scale
        abs_resid = np.abs(v - amp * _unit_shape(kind, nu, rate)) * scale
    _in_range(np.r_[abs_resid, amp_out], "fitted amplitude or residual exceeds the float range")
    residual_curve = _frozen(-abs_resid if kind == "R" else abs_resid)
    return FitResult(
        kind=kind,
        amp=float(amp_out),
        rate=float(rate),
        rms=float(np.sqrt(sse / nu.size) * scale),
        residual_curve=residual_curve,
        converged=stop == "step_tol",
        iterations=evaluations,
        start_rate=float(start_rate),
        stop=stop,
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
    _check_nu(nu_max, "nu_max", positive=True)
    _check_count("points", points, 2)
    low = _check_nu(1e-6 * nu_max, "1e-6 nu_max", positive=True)
    return np.concatenate([[0.0], np.geomspace(low, nu_max, points - 1)])


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
    (object symmetries) are reported as skipped.  Columns whose R and I data
    are bit-identical to an earlier column's, such as the equal diagonal
    coefficients of isotropic and axisymmetric objects, share that column's
    fits instead of being fitted again.
    """
    if isinstance(source, SpectralModel):
        nu = default_fit_grid(nu_max, points)
        r_rows, i_rows = sweep_coefficients(source, nu)
    else:
        try:
            nu, r_rows, i_rows = source
        except (TypeError, ValueError):  # not an iterable of three items
            raise InvalidInputError("sweep data must be a model or (nu, R rows, I rows)") from None
        nu, r_rows, i_rows = (_number_array("sweep data", x) for x in (nu, r_rows, i_rows))
        if nu.ndim != 1 or not r_rows.shape == i_rows.shape == (nu.size, 6):
            raise InvalidInputError("sweep data must be 1-D nu with (points, 6) R and I rows")
        keep = nu <= nu_max
        if keep.sum() < 4:
            raise NoFitError(f"fewer than 4 sweep points below nu_max={nu_max:g}")
        nu, r_rows, i_rows = nu[keep], r_rows[keep], i_rows[keep]

    scale = max(np.abs(r_rows).max(), np.abs(i_rows).max())
    rows = []
    fits = {}
    for k, label in enumerate(COEFF_LABELS):
        r_vals, i_vals = r_rows[:, k], i_rows[:, k]
        if max(np.abs(r_vals).max(), np.abs(i_vals).max()) <= 1e-14 * scale:
            rows.append(FitReportRow(label, None, None, skipped=True))
            continue
        key = (r_vals.tobytes(), i_vals.tobytes())
        if key not in fits:
            fits[key] = (
                fit_dominant(SweepData(nu, r_vals), "R"),
                fit_dominant(SweepData(nu, i_vals), "I"),
            )
        rows.append(FitReportRow(label, *fits[key]))
    return rows
