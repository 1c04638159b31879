"""Dominant-mode least-squares fitting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mptspec import (
    Mode,
    NoFitError,
    NumericRangeError,
    SpectralModel,
    SweepData,
    SymTensor3,
    dominant_mode,
    fit_dominant,
    fit_report,
)
from mptspec import fitting
from mptspec.fitting import default_fit_grid, sweep_coefficients
from mptspec.sphere import SphereSpec, sphere_spectral_model


def f_i(nu, c, d):
    return c * d * nu / (nu**2 + d**2)


def f_r(nu, a, b):
    return -a * b * nu**2 / (nu**2 + b**2)


def decade_starts(nu, values):
    """Decades spanning the positive nu range, plus the location of max |value|."""
    positive = nu[nu > 0.0]
    decades = np.arange(
        np.floor(np.log10(positive.min())), np.ceil(np.log10(positive.max())) + 1
    )
    starts = list(10.0**decades)
    peak_nu = float(nu[np.argmax(np.abs(values))])
    if peak_nu > 0.0:
        starts.append(peak_nu)
    return starts


_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 10.0
_STEP_TOL = 1e-10
_MAX_ITER = 200


def _model_and_jacobian(kind, nu, amp, rate):
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


def _gauss_newton(kind, nu, values, amp0, rate0):
    """Damped Gauss-Newton in (amp, rate) from (amp0, rate0).

    A joint two-parameter refinement with the analytic Jacobian: a reference
    independent of the library's search over the rate alone.  Returns
    (params, sse, stop, iterations) with ``stop`` one of "step_tol",
    "damping", "max_iter" or "singular".
    """
    params = np.array([amp0, rate0])
    f, jac = _model_and_jacobian(kind, nu, *params)
    resid = f - values
    sse = float(resid @ resid)
    damping = _DAMPING_START
    stop = "max_iter"
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        jtj = jac.T @ jac
        rhs = -jac.T @ resid
        try:
            step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), rhs)
        except np.linalg.LinAlgError:
            stop = "singular"
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
                stop = "step_tol"
                break
        else:
            damping *= _DAMPING_UP
            if damping > 1e12:
                stop = "damping"
                break
    return params, sse, stop, iterations


def full_multistart_sse(kind, nu, values):
    """Reference: Gauss-Newton to the end from every start; the lowest SSE."""
    best = None
    for rate0 in decade_starts(nu, values):
        amp0 = fitting._best_amp(kind, nu, values, rate0)
        _, sse, _, _ = _gauss_newton(kind, nu, values, amp0, rate0)
        if best is None or sse < best:
            best = sse
    return best


def record_brackets(monkeypatch):
    """Patch the bounded 1-D search to record each call's bounds."""
    brackets = []
    search = fitting.minimize_scalar

    def recorded(fun, **kwargs):
        brackets.append(kwargs["bounds"])
        return search(fun, **kwargs)

    monkeypatch.setattr(fitting, "minimize_scalar", recorded)
    return brackets


def count_fits(monkeypatch):
    calls = []
    fit = fitting.fit_dominant

    def counted(data, kind):
        calls.append(kind)
        return fit(data, kind)

    monkeypatch.setattr(fitting, "fit_dominant", counted)
    return calls


class TestFitDominant:
    def test_exact_recovery_imag(self):
        nu = default_fit_grid(200.0, points=120)
        data = SweepData(nu, f_i(nu, 3.0, 20.0))
        fit = fit_dominant(data, "I")
        assert fit.amp == pytest.approx(3.0, rel=1e-8)
        assert fit.rate == pytest.approx(20.0, rel=1e-8)
        assert fit.converged

    def test_exact_recovery_real(self):
        nu = default_fit_grid(500.0, points=150)
        data = SweepData(nu, f_r(nu, 2.5e-6, 35.0))
        fit = fit_dominant(data, "R")
        assert fit.amp == pytest.approx(2.5e-6, rel=1e-8)
        assert fit.rate == pytest.approx(35.0, rel=1e-8)

    def test_single_mode_model_rate_is_eigenvalue(self):
        lam = 6.3
        modes = (Mode(lam, 1, np.array([[0.4, 0.1, -0.2]])),)
        model = SpectralModel(
            alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.zero(), modes=modes
        )
        nu = default_fit_grid(100.0 * lam, points=200)
        r_rows, i_rows = sweep_coefficients(model, nu)
        for kind, rows in (("R", r_rows), ("I", i_rows)):
            fit = fit_dominant(SweepData(nu, rows[:, 0]), kind)
            assert fit.rate == pytest.approx(lam, rel=1e-6)

    def test_two_mode_dominant_rate(self):
        # well-separated eigenvalues, first mode dominant on this coefficient
        modes = (
            Mode(4.0, 1, np.array([[1.0, 0.0, 0.0]])),
            Mode(400.0, 1, np.array([[0.08, 0.0, 0.0]])),
        )
        model = SpectralModel(
            alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.zero(), modes=modes
        )
        nu_max = 40.0
        nu = default_fit_grid(nu_max, points=200)
        r_rows, i_rows = sweep_coefficients(model, nu)
        lam_dom = model.modes[dominant_mode(model, 0, 0, nu_max)].lam
        for kind, rows in (("R", r_rows), ("I", i_rows)):
            fit = fit_dominant(SweepData(nu, rows[:, 0]), kind)
            assert abs(fit.rate - lam_dom) <= 0.10 * lam_dom

    def test_scale_equivariance(self):
        nu = default_fit_grid(80.0, points=100)
        vals = f_i(nu, 1.7, 9.0) + 0.01 * f_i(nu, 0.5, 40.0)
        base = fit_dominant(SweepData(nu, vals), "I")
        # at 1e+-200 and 1e+-300 the projected residuals of unscaled data
        # overflow or fall to the noise floor
        for factor in (10.0, 1e200, 1e-200, 1e300, 1e-300):
            scaled = fit_dominant(SweepData(nu, factor * vals), "I")
            assert scaled.amp == pytest.approx(factor * base.amp, rel=1e-8)
            assert scaled.rate == pytest.approx(base.rate, rel=1e-8)

    def test_frequency_scale_equivariance(self):
        nu = default_fit_grid(80.0, points=100)
        vals = f_i(nu, 1.7, 9.0) + 0.01 * f_i(nu, 0.5, 40.0)
        base = fit_dominant(SweepData(nu, vals), "I")
        k = 3.0
        stretched = fit_dominant(SweepData(k * nu, vals), "I")
        assert stretched.rate == pytest.approx(k * base.rate, rel=1e-8)
        assert stretched.amp == pytest.approx(base.amp, rel=1e-8)

    def test_residual_never_worse_than_any_start(self):
        rng = np.random.default_rng(0)
        nu = default_fit_grid(100.0, points=80)
        vals = f_i(nu, 2.0, 12.0) + 0.05 * rng.standard_normal(nu.size)
        fit = fit_dominant(SweepData(nu, vals), "I")
        starts = [0.1, 1.0, 10.0, 100.0, float(nu[np.argmax(np.abs(vals))])]
        for rate0 in starts:
            amp0 = fitting._best_amp("I", nu, vals, rate0)
            _, sse, _, _ = _gauss_newton("I", nu, vals, amp0, rate0)
            assert fit.rms**2 * nu.size <= sse * (1.0 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["R", "I"]),
        log_grid=st.booleans(),
        points=st.integers(8, 200),
        log_nu_max=st.floats(-1.0, 4.0),
        modes=st.lists(
            st.tuples(
                st.floats(-3.0, 3.0), st.booleans(), st.floats(-3.0, 1.0)
            ),
            min_size=1,
            max_size=2,
        ),
        noise=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screening_matches_full_multistart(
        self, kind, log_grid, points, log_nu_max, modes, noise, seed
    ):
        # two modes at one rate could cancel exactly
        assume(len(modes) == 1 or abs(modes[0][2] - modes[1][2]) >= 0.01)
        nu_max = 10.0**log_nu_max
        if log_grid:
            nu = default_fit_grid(nu_max, points)
        else:
            nu = np.linspace(0.0, nu_max, points)
        shape = f_r if kind == "R" else f_i
        vals = np.zeros(nu.size)
        for log_amp, negative, log_rate in modes:
            amp = -(10.0**log_amp) if negative else 10.0**log_amp
            vals += shape(nu, amp, nu_max * 10.0**log_rate)
        rng = np.random.default_rng(seed)
        vals += noise * np.abs(vals).max() * rng.standard_normal(nu.size)
        fit = fit_dominant(SweepData(nu, vals), kind)
        sse = fit.rms**2 * nu.size
        reference = full_multistart_sse(kind, nu, vals)
        # runs that reach one minimum stop within the step tolerance of it,
        # which moves the SSE by up to about 5e-13 of |v|^2; a different
        # local minimum differs by far more
        assert sse <= reference * (1.0 + 1e-12) + 1e-12 * float(vals @ vals)

    def test_screening_finds_narrow_low_basin(self):
        # two I modes of opposite sign: the residual has a local minimum near
        # each rate.  The lower one, near 0.03, lies between decade starts;
        # the two starts of lowest projected residual (26 and 100) both lead
        # to the other minimum (SSE 128.3), so refining them alone misses it
        nu = default_fit_grid(26.0, points=54)
        vals = f_i(nu, 10.7, 28.0) + f_i(nu, -8.26, 0.029)
        fit = fit_dominant(SweepData(nu, vals), "I")
        assert fit.rms**2 * nu.size <= full_multistart_sse("I", nu, vals) * (
            1.0 + 1e-12
        )
        assert fit.rate == pytest.approx(0.0278, rel=1e-2)

    def test_screening_resolves_hump_between_decades(self):
        # near-cancelling R modes: the residual rises from 0.1 to a hump near
        # 0.4 and falls again toward large rates.  Sampled at the decades
        # alone, 1.0 looks like the rising side of the minimum near 0.05
        nu = default_fit_grid(1.0, points=161)
        vals = f_r(nu, -(10.0**-1.0625), 1.0)
        vals += f_r(nu, 10.0**-1.08203125, 10.0**-0.28125)
        fit = fit_dominant(SweepData(nu, vals), "R")
        assert fit.rms**2 * nu.size <= full_multistart_sse("R", nu, vals) * (
            1.0 + 1e-12
        )
        assert fit.rate > 1.0

    def test_refines_at_most_two_starts_when_converged(self, monkeypatch):
        brackets = record_brackets(monkeypatch)
        nu = default_fit_grid(100.0, points=80)
        vals = f_i(nu, 2.0, 12.0) + 0.01 * f_i(nu, 1.0, 70.0)
        fit = fit_dominant(SweepData(nu, vals), "I")
        assert fit.converged and fit.stop == "step_tol"
        assert 1 <= len(brackets) <= 2
        # the search runs in log(rate / start_rate) between grid neighbours
        lo, hi = brackets[0]
        assert lo < np.log(fit.rate / fit.start_rate) < hi

    @pytest.mark.parametrize(
        "kind, power", [("I", 1), ("R", 2)], ids=["I-nu", "R-nu2"]
    )
    def test_asymptotic_edge(self, monkeypatch, kind, power):
        # I ~ nu and R ~ nu^2 are the shapes' limits as the rate grows
        # without bound: the projected residual falls all the way to the top
        # of the screening grid, and the fit follows it outward and stops
        brackets = record_brackets(monkeypatch)
        nu = default_fit_grid(100.0, points=80)
        vals = -(nu**power) if kind == "R" else nu**power
        fit = fit_dominant(SweepData(nu, vals), kind)
        assert fit.stop == "asymptotic" and not fit.converged
        assert brackets == []
        assert fit.rate >= 1e3 * nu.max()
        assert fit.rms**2 * nu.size <= full_multistart_sse(kind, nu, vals) * (
            1.0 + 1e-12
        ) + 1e-12 * float(vals @ vals)

    def test_degenerate_data(self):
        nu = default_fit_grid(10.0, points=50)
        with pytest.raises(NoFitError):
            fit_dominant(SweepData(nu, np.zeros(nu.size)), "I")
        with pytest.raises(NoFitError):
            fit_dominant(SweepData(nu[:3], np.ones(3)), "I")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("first", [5e-324, 1e-101])
    def test_nu_outside_float_safe_range(self, first):
        # the screening grid reached rates whose squares underflow to zero
        nu = np.concatenate([[0.0, first], default_fit_grid(50.0, points=12)[1:]])
        with pytest.raises(NoFitError, match="within"):
            fit_dominant(SweepData(nu, f_i(nu, 1.0, 5.0)), "I")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_is_range_error(self):
        # a lone 1e308 spike: the fitted amplitude exceeds the float range
        nu = default_fit_grid(47.0, points=12)
        vals = f_r(nu, 1e-6, 5.0)
        vals[1] = 1e308
        with pytest.raises(NumericRangeError, match="float range"):
            fit_dominant(SweepData(nu, vals), "R")

    def test_residual_curve_sign_convention(self):
        nu = default_fit_grid(50.0, points=60)
        fit_r = fit_dominant(SweepData(nu, f_r(nu, 1.0, 5.0) + 1e-3), "R")
        fit_i = fit_dominant(SweepData(nu, f_i(nu, 1.0, 5.0) + 1e-3), "I")
        assert np.all(fit_r.residual_curve <= 0.0)
        assert np.all(fit_i.residual_curve >= 0.0)
        with pytest.raises(ValueError):
            fit_i.residual_curve[0] = 1.0


def _two_axis_model():
    modes = (
        Mode(3.0, 1, np.array([[1.0, 0.0, 0.0]])),
        Mode(30.0, 1, np.array([[0.0, 1.0, 0.0]])),
    )
    return SpectralModel(
        alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.zero(), modes=modes
    )


class TestFitReport:
    def test_isotropic_sphere_skips_offdiagonals(self):
        model = sphere_spectral_model(
            SphereSpec(0.01, 1.5, 5.96e6), 8, tail_modes=0
        )
        rows = fit_report(model, nu_max=47.0)
        by_label = {r.label: r for r in rows}
        for label in ("12", "13", "23"):
            assert by_label[label].skipped
        diag = [by_label[label] for label in ("11", "22", "33")]
        rates = {round(r.fit_i.rate, 9) for r in diag}
        assert len(rates) == 1  # isotropy: all diagonal fits identical

    def test_equal_columns_fitted_once(self, monkeypatch):
        calls = count_fits(monkeypatch)
        model = sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 8, tail_modes=0)
        rows = fit_report(model, nu_max=47.0)
        assert sorted(calls) == ["I", "R"]
        diag = [row for row in rows if not row.skipped]
        assert len(diag) == 3
        assert all(row.fit_r is diag[0].fit_r for row in diag)
        assert all(row.fit_i is diag[0].fit_i for row in diag)

    def test_distinct_columns_fitted_separately(self, monkeypatch):
        calls = count_fits(monkeypatch)
        rows = fit_report(_two_axis_model(), nu_max=300.0)
        # two nonzero columns (11 and 22), one R and one I fit each
        assert sum(not row.skipped for row in rows) == 2
        assert sorted(calls) == ["I", "I", "R", "R"]

    def test_anisotropic_model_distinct_rates(self):
        # distinct per-axis dominant modes give distinct fitted rates
        rows = fit_report(_two_axis_model(), nu_max=300.0)
        by_label = {r.label: r for r in rows}
        b11 = by_label["11"].fit_r.rate
        b22 = by_label["22"].fit_r.rate
        assert abs(b11 - b22) > 0.5 * max(b11, b22)

    def test_external_sweep_tuple_source(self):
        model = sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 6, tail_modes=0)
        nu = default_fit_grid(47.0, points=90)
        r_rows, i_rows = sweep_coefficients(model, nu)
        rows = fit_report((nu, r_rows, i_rows), nu_max=47.0)
        assert not rows[0].skipped
        assert rows[0].fit_i.rate > 0.0
