"""Analytic sphere: closed-form scalar, pole spectrum, model extraction."""

import hashlib

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mptspec import (
    DomainError,
    InvalidInputError,
    NumericRangeError,
    PoleSpacingError,
    SphereSpec,
    assemble,
    limit_tensors,
    mpt_sphere,
    sphere_poles,
    sphere_spectral_model,
)
from mptspec import sphere
from mptspec.modelio import save_model
from mptspec.sphere import _char, _g_ratio, _m_of_w
from scipy.optimize import brentq

FIG1 = SphereSpec(alpha=0.01, mu_r=1.5, sigma_star=5.96e6)

_CONTOUR_POINTS = 16
_CONTOUR_REL_RADIUS = 1e-3


def contour_residues(spec: SphereSpec, lams: np.ndarray) -> np.ndarray:
    """Reference residues of m(w) at each pole by small-circle contour averaging.

    Independent of the closed form the builder uses: it only samples the
    analytic scalar on a circle of radius 1e-3 of the nearer pole gap.
    """
    residues = np.empty(lams.size)
    gaps = np.diff(lams)
    theta = np.linspace(0.0, 2.0 * np.pi, _CONTOUR_POINTS, endpoint=False)
    unit = np.exp(1j * theta)
    for n, lam in enumerate(lams):
        gap_prev = lam if n == 0 else gaps[n - 1]
        gap_next = gaps[n] if n < lams.size - 1 else gap_prev
        radius = _CONTOUR_REL_RADIUS * min(gap_prev, gap_next)
        samples = np.array([_m_of_w(spec, lam + radius * u) for u in unit])
        res = (samples * radius * unit).mean()
        # a circle that picked up a neighbouring pole leaves an imaginary part
        assert abs(res.imag) <= 1e-8 * abs(res), (n, res)
        residues[n] = res.real
    return residues


def closed_form_residues(spec: SphereSpec, lams: np.ndarray) -> np.ndarray:
    """A_n = -12 pi alpha^3 mu_r / (mu_r lam_n + (mu_r - 1)(mu_r + 2))."""
    mu = spec.mu_r
    return -12.0 * np.pi * spec.alpha**3 * mu / (mu * lams + (mu - 1.0) * (mu + 2.0))


def model_residues(model) -> np.ndarray:
    """Scalar residue a_n of each isotropic mode, A_n = a_n I."""
    return np.array(
        [
            -(model.alpha**3) * m.lam / 4.0 * float((m.couplings**2).sum(axis=0)[0])
            for m in model.modes
        ]
    )


def g_ratio_mpmath(v: complex) -> complex:
    """Independent oracle for v j0(v) / j1(v) at arbitrary complex argument."""
    with mpmath.workdps(40):
        j0 = mpmath.sqrt(mpmath.pi / (2 * mpmath.mpc(v))) * mpmath.besselj(
            mpmath.mpf(1) / 2, v
        )
        j1 = mpmath.sqrt(mpmath.pi / (2 * mpmath.mpc(v))) * mpmath.besselj(
            mpmath.mpf(3) / 2, v
        )
        return complex(v * j0 / j1)


def m_shooting_oracle(spec: SphereSpec, omega: float) -> complex:
    """Radial-ODE oracle: integrate f'' + (2/r)f' + (k^2 - 2/r^2)f = 0."""
    if omega == 0.0:
        return spec.static_value()
    k2 = 1j * omega * (4e-7 * np.pi) * spec.mu_r * spec.sigma_star
    a = spec.alpha
    r0 = 1e-6 * a

    def rhs(r, y):
        f = y[0] + 1j * y[1]
        fp = y[2] + 1j * y[3]
        fpp = -(2.0 / r) * fp - (k2 - 2.0 / r**2) * f
        return [fp.real, fp.imag, fpp.real, fpp.imag]

    c3 = -k2 / 10.0  # series f = r + c3 r^3 + ... regular at the origin
    y0 = [r0, (c3 * r0**3).imag, 1.0, (3.0 * c3 * r0**2).imag]
    y0[0] = (r0 + (c3 * r0**3).real)
    y0[2] = 1.0 + (3.0 * c3 * r0**2).real
    sol = solve_ivp(rhs, (r0, a), y0, rtol=1e-12, atol=1e-30, method="DOP853")
    f = sol.y[0, -1] + 1j * sol.y[1, -1]
    fp = sol.y[2, -1] + 1j * sol.y[3, -1]
    big_f = 1.0 + a * fp / f
    return (
        2.0
        * np.pi
        * a**3
        * (2.0 * spec.mu_r - big_f)
        / (spec.mu_r + big_f)
    )


class TestScalarPolarizability:
    def test_static_limit(self):
        m0 = mpt_sphere(FIG1, 0.0)
        assert m0.real == pytest.approx(1.7952e-6, rel=1e-3)
        assert m0.imag == 0.0

    def test_perfect_conductor_limit(self):
        m_inf = mpt_sphere(FIG1, 2.0 * np.pi * 1e13)
        assert m_inf.real == pytest.approx(-6.2832e-6, rel=1e-3)
        assert abs(m_inf.imag) < 1e-3 * abs(m_inf.real)

    def test_no_contrast_no_static_response(self):
        spec = SphereSpec(alpha=0.01, mu_r=1.0, sigma_star=5.96e6)
        assert mpt_sphere(spec, 0.0) == 0.0

    def test_curve_shape(self):
        omega = 2.0 * np.pi * np.geomspace(1e-2, 1e8, 200)
        m = np.array([mpt_sphere(FIG1, w) for w in omega])
        assert np.all(np.diff(m.real) <= 1e-18)
        assert np.all(m.imag >= 0.0)
        peak = int(m.imag.argmax())
        assert np.all(np.diff(m.imag[: peak + 1]) >= 0.0)
        assert np.all(np.diff(m.imag[peak:]) <= 0.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            mpt_sphere(FIG1, -1.0)

    def test_nu_max_conversion(self):
        nu_max = FIG1.time_constant * 2.0 * np.pi * 1e4
        assert nu_max == pytest.approx(47.06, abs=0.1)

    def test_schwarz_symmetry_of_continuation(self):
        for w in (0.5 + 2.0j, -1.0 + 0.3j, 10.0 - 4.0j):
            assert _m_of_w(FIG1, np.conj(w)) == pytest.approx(
                np.conj(_m_of_w(FIG1, w)), rel=1e-13
            )

    def test_branch_invariance(self):
        for v in (1.2 + 0.8j, 3.0 - 2.0j, 0.05 + 0.01j):
            assert _g_ratio(v) == _g_ratio(-v)

    def test_bessel_ratio_against_mpmath(self):
        rng = np.random.default_rng(6)
        points = [
            0.01 + 0.0j, 0.1 + 0.05j, 1.0 + 1.0j, 5.0 - 3.0j,
            30.0 + 30.0j, 200.0 + 150.0j, 2.0 + 400.0j,
        ]
        points += [complex(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(20)]
        for v in points:
            expect = g_ratio_mpmath(v)
            assert _g_ratio(v) == pytest.approx(expect, rel=1e-10)

    def test_radial_ode_shooting_oracle(self):
        for f_hz in (0.5, 50.0, 5e3, 2e5, 1e7):
            omega = 2.0 * np.pi * f_hz
            assert mpt_sphere(FIG1, omega) == pytest.approx(
                m_shooting_oracle(FIG1, omega), rel=1e-8
            )


class TestSpherePoles:
    def test_nonpermeable_poles_are_n_pi_squared(self):
        spec = SphereSpec(alpha=0.01, mu_r=1.0, sigma_star=5.96e6)
        lams = sphere_poles(spec, 5)
        np.testing.assert_allclose(
            lams, [(n * np.pi) ** 2 for n in range(1, 6)], rtol=1e-12
        )

    def test_dense_scan_oracle(self):
        # independent root localisation by sign changes on a very fine grid
        spec = FIG1
        lams = sphere_poles(spec, 4)
        v_grid = np.linspace(0.05, 14.0, 400000)
        vals = _char(v_grid, spec.mu_r)
        crossings = v_grid[:-1][np.sign(vals[:-1]) != np.sign(vals[1:])]
        assert crossings.size >= 4
        np.testing.assert_allclose(
            np.sqrt(np.asarray(lams) * spec.mu_r)[:4],
            crossings[:4],
            atol=v_grid[1] - v_grid[0],
        )

    def test_strictly_increasing_random_specs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec = SphereSpec(
                alpha=10 ** rng.uniform(-3, 0),
                mu_r=10 ** rng.uniform(-1, 2),
                sigma_star=10 ** rng.uniform(4, 8),
            )
            lams = sphere_poles(spec, 8)
            assert np.all(np.diff(lams) > 0.0)

    def test_permeable_first_pole(self):
        # mu_r = 1.5 characteristic root v1 = 3.2859, lam_1 = v1^2 / mu_r
        lam1 = sphere_poles(FIG1, 1)[0]
        assert lam1 == pytest.approx(7.1986, abs=1e-3)


def scalar_poles(spec: SphereSpec, count: int) -> np.ndarray:
    """The root scan as a scalar walk, one knot at a time, before it became
    one array call; it reads ``sphere._char`` at call time, so a patched
    characteristic function reaches it too."""
    char = sphere._char
    roots = []
    step = np.pi / 64.0
    v_lo = 0.05
    f_lo = char(v_lo, spec.mu_r)
    v = v_lo
    v_max = (count + 3) * np.pi + 2.0
    while len(roots) < count and v < v_max:
        v_hi = v + step
        f_hi = char(v_hi, spec.mu_r)
        if f_lo == 0.0:
            roots.append(v)
        elif f_lo * f_hi < 0.0:
            roots.append(brentq(char, v, v_hi, args=(spec.mu_r,), xtol=1e-300, rtol=1e-14))
        v, f_lo = v_hi, f_hi
    if len(roots) < count:
        raise PoleSpacingError(f"found only {len(roots)} characteristic roots")
    return np.array(roots[:count]) ** 2 / spec.mu_r


class TestArrayRootScan:
    def test_bit_identical_to_scalar_walk(self):
        rng = np.random.default_rng(13)
        mu_rs = np.append(10.0 ** rng.uniform(-1.0, 2.0, 24), 1.0)
        counts = np.append(rng.integers(1, 121, 24), 120)
        for mu_r, count in zip(mu_rs, counts):
            spec = SphereSpec(FIG1.alpha, float(mu_r), FIG1.sigma_star)
            lams = sphere_poles(spec, int(count))
            assert np.array_equal(lams, scalar_poles(spec, int(count))), (mu_r, count)

    def test_exact_zero_knots_are_roots(self, monkeypatch):
        # rounding makes the function exactly zero on a few knots around each
        # n pi, so every root is a knot and brentq never runs
        monkeypatch.setattr(sphere, "_char", lambda v, mu_r: np.round(np.sin(v), 1))
        lams = sphere_poles(FIG1, 7)
        assert np.array_equal(lams, scalar_poles(FIG1, 7))
        v = np.sqrt(lams * FIG1.mu_r)
        assert np.all(np.abs(np.sin(v)) < 0.05)

    def test_too_few_roots_raises(self, monkeypatch):
        monkeypatch.setattr(sphere, "_char", lambda v, mu_r: np.ones_like(v))
        with pytest.raises(PoleSpacingError, match="found only 0"):
            sphere_poles(FIG1, 3)


class TestSphereSpectralModel:
    def test_reproduces_analytic_curve(self):
        model = sphere_spectral_model(FIG1, 30)
        tau = FIG1.time_constant
        f_grid = np.geomspace(1e-2, 1e8, 300)
        worst = 0.0
        for f in f_grid:
            nu = 2.0 * np.pi * f * tau
            truth = mpt_sphere(FIG1, 2.0 * np.pi * f)
            _, _, m_t = assemble(model, nu)
            err = abs(complex(m_t[0, 0]) - truth) / abs(truth)
            worst = max(worst, err)
        assert worst <= 1e-3

    def test_limits_with_30_modes(self):
        model = sphere_spectral_model(FIG1, 30)
        m0, minf = limit_tensors(model)
        assert m0[0, 0] == pytest.approx(1.7952e-6, rel=1e-3)
        assert minf[0, 0] == pytest.approx(-6.2832e-6, rel=1e-3)
        assert abs(minf[0, 1]) == 0.0

    def test_prefix_modes_carry_exact_poles_and_residues(self):
        n_phys = 12
        model = sphere_spectral_model(FIG1, n_phys)
        lams = sphere_poles(FIG1, n_phys)
        for n in range(n_phys):
            assert model.modes[n].lam == pytest.approx(lams[n], rel=1e-13)
        np.testing.assert_allclose(
            model_residues(model)[:n_phys], closed_form_residues(FIG1, lams), rtol=1e-13
        )

    def test_raw_truncation_keeps_only_physical_modes(self):
        model = sphere_spectral_model(FIG1, 10, tail_modes=0)
        assert len(model.modes) == 10

    def test_single_mode_imag_peak_at_lam1(self):
        model = sphere_spectral_model(FIG1, 1, tail_modes=0)
        lam1 = model.modes[0].lam
        grid = np.geomspace(lam1 / 100.0, lam1 * 100.0, 2001)
        vals = [assemble(model, nu)[1][0, 0] for nu in grid]
        peak_nu = grid[int(np.argmax(vals))]
        assert peak_nu == pytest.approx(lam1, rel=5e-3)

    def test_provenance_and_isotropy(self):
        model = sphere_spectral_model(FIG1, 5)
        assert model.provenance == "sphere-analytic"
        for mode in model.modes:
            gram = mode.gram()
            assert np.allclose(gram, gram[0, 0] * np.eye(3), atol=1e-15 * gram[0, 0])


# (mu_r, number of poles) for the comparison against the contour reference
CONTOUR_CASES = [(0.3, 60), (0.5, 64), (1.0, 68), (1.5, 72), (3.8, 76), (4.0, 80), (10.0, 85)]


class TestClosedFormResidues:
    @pytest.mark.parametrize("mu_r, n_poles", CONTOUR_CASES)
    def test_matches_contour_reference_at_every_pole(self, mu_r, n_poles):
        spec = SphereSpec(FIG1.alpha, mu_r, FIG1.sigma_star)
        model = sphere_spectral_model(spec, n_poles, tail_modes=0)
        lams = np.array([m.lam for m in model.modes])
        reference = contour_residues(spec, lams) / lams
        np.testing.assert_allclose(model_residues(model), reference, rtol=1e-10, atol=0)

    def test_nonpermeable_residues(self):
        spec = SphereSpec(FIG1.alpha, 1.0, FIG1.sigma_star)
        model = sphere_spectral_model(spec, 85, tail_modes=0)
        n = np.arange(1, 86)
        expect = -12.0 * spec.alpha**3 / (n**2 * np.pi)
        np.testing.assert_allclose(model_residues(model), expect, rtol=1e-12, atol=0)

    def test_nonpermeable_sum_rule_remainder_is_trigamma(self):
        # sum_{n>N} 12 alpha^3 / (n^2 pi) = (12 alpha^3 / pi) psi_1(N + 1)
        spec = SphereSpec(FIG1.alpha, 1.0, FIG1.sigma_star)
        model = sphere_spectral_model(spec, 85, tail_modes=0)
        remainder = (spec.pec_value() - spec.static_value()) - np.cumsum(
            model_residues(model)
        )
        for n in (1, 2, 5, 30, 85):
            expect = -(12.0 * spec.alpha**3 / np.pi) * float(mpmath.psi(1, n + 1))
            assert remainder[n - 1] == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("mu_r", [0.3, 1.5, 3.8, 10.0])
    def test_sum_rule_remainder_shrinks_like_one_over_n(self, mu_r):
        # A_n -> -12 alpha^3 mu_r / (pi n^2), so N * remainder -> -12 alpha^3 mu_r / pi
        spec = SphereSpec(FIG1.alpha, mu_r, FIG1.sigma_star)
        model = sphere_spectral_model(spec, 85, tail_modes=0)
        remainder = (spec.pec_value() - spec.static_value()) - np.cumsum(
            model_residues(model)
        )
        assert np.all(remainder < 0.0)
        assert np.all(np.diff(np.abs(remainder)) < 0.0)
        ratio = np.arange(1, 86) * remainder / (-12.0 * spec.alpha**3 * mu_r / np.pi)
        assert ratio[-1] == pytest.approx(1.0, abs=0.01)
        assert abs(ratio[-1] - 1.0) < abs(ratio[29] - 1.0) < abs(ratio[9] - 1.0)


@pytest.mark.filterwarnings("error")
class TestSphereInputChecks:
    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_mpt_sphere_rejects_non_finite_omega(self, omega):
        with pytest.raises(DomainError):
            mpt_sphere(FIG1, omega)

    def test_fractional_mode_count(self):
        with pytest.raises(InvalidInputError):
            sphere_spectral_model(FIG1, 2.5)

    def test_bool_mode_count(self):
        with pytest.raises(InvalidInputError):
            sphere_spectral_model(FIG1, True)

    def test_fractional_tail_modes(self):
        with pytest.raises(InvalidInputError):
            sphere_spectral_model(FIG1, 5, tail_modes=2.5)

    def test_negative_tail_modes(self):
        with pytest.raises(InvalidInputError):
            sphere_spectral_model(FIG1, 5, tail_modes=-1)

    def test_fractional_pole_count(self):
        with pytest.raises(InvalidInputError):
            sphere_poles(FIG1, 2.5)

    def test_numpy_integer_counts_accepted(self):
        model = sphere_spectral_model(FIG1, np.int64(3), tail_modes=np.int32(0))
        assert len(model.modes) == 3
        assert sphere_poles(FIG1, np.int64(2)).size == 2

    @pytest.mark.parametrize(
        "alpha, mu_r, sigma_star",
        [(1e300, 1.5, 1.0), (np.float64(1e300), 1.5, 1.0), (1e-200, 1.5, 1.0),
         (1e100, 1e30, 1.0), (0.01, 1.5, 1e-300)],
        ids=["cube-overflows", "numpy-cube-overflows", "cube-underflows",
             "static-limit-overflows", "time-constant-underflows"],
    )
    def test_spec_out_of_float_range(self, alpha, mu_r, sigma_star):
        with pytest.raises(InvalidInputError, match="normal floats"):
            SphereSpec(alpha, mu_r, sigma_star)

    @pytest.mark.filterwarnings("error")
    def test_numpy_scale_band_past_the_float_range(self):
        # a numpy sigma_star makes the time constant a numpy float, whose
        # products warned before the band was refused
        spec = SphereSpec(np.float64(1e4), 0.01, np.float64(1e300))
        with pytest.raises(NumericRangeError, match="f_band .* exceeds the float range"):
            sphere_spectral_model(spec, 3)

    def test_omega_overflowing(self):
        with pytest.raises(NumericRangeError, match="overflowed"):
            mpt_sphere(SphereSpec(1e4, 0.01, 1e300), 1e10)

    @pytest.mark.parametrize(
        "spec, match",
        [
            (SphereSpec(1e4, 0.01, 1e300), "f_band"),
            (SphereSpec(1e100, 1e-160, 1e-30), "tail targets"),
            (SphereSpec(1e-100, 1.0, 1.0), "tail targets"),
            (SphereSpec(1e100, 1e-300, 1e-300), "couplings"),
            (SphereSpec(0.01, 1e300, 1.5), "residues"),
            (SphereSpec(0.01, 1e308, 1.5), "residues"),
            (SphereSpec(0.01, 1e-310, 1e4), "eigenvalues"),
        ],
        ids=["band", "tail-target", "tail-target-underflows", "couplings", "residues", "huge-mu_r", "eigenvalues"],
    )
    def test_model_out_of_float_range(self, spec, match):
        with pytest.raises(NumericRangeError, match=match):
            sphere_spectral_model(spec, 3)

    @pytest.mark.parametrize(
        "f_band",
        [(np.nan, 1e8), (1e-2, np.inf), (1e8, 1e-2), (0.0, 1e8), (-1.0, 1e8)],
        ids=["nan", "inf", "reversed", "zero", "negative"],
    )
    def test_bad_f_band(self, f_band):
        with pytest.raises(InvalidInputError):
            sphere_spectral_model(FIG1, 5, f_band=f_band)


# SHA-256 of save_model's file for FIG1's radius and conductivity, written by
# the builder with closed-form prefix residues.  Against the contour-residue
# builder they replace, every eigenvalue and mode count is bit-identical and
# the prefix residues moved by at most 9e-13 relative.  They pin exact bytes,
# so a numpy or scipy build that rounds differently also moves them.
# (mu_r, n_modes, tail_modes) -> digest
SAVED_MODEL_SHA256 = {
    (1.0, 1, None): "af59d8916ede399410aee15164f7be655ecb600c8286b7f82085882a0cba4278",
    (1.5, 10, None): "e0871d10c938f9595418e749b7862768ad7b19af14fc5bad730d8533936e39a9",
    (3.8, 37, None): "8bbe265ec100234a11258927134c3a4e467c241262ff917cb84c7d7b5eed55f0",
    (20.0, 5, None): "940e66b0dc2a3d19c2d53ceffe7bdf50212283f21e5009de41be7ee8f9dc444f",
    (1.5, 30, 0): "e3d216c3ba1bf52761162ec48989dd290a311fbce38445e3896aeb57ce3af371",
    (2.5, 8, 16): "bc854a2ef2c4112bb4e3d7f178f8d38cf0ae935b8b27acbecdcc49f59ea57c6b",
}


class TestModelBuilderReusesWork:
    @pytest.mark.parametrize("case", sorted(SAVED_MODEL_SHA256, key=str))
    def test_saved_model_bytes_unchanged(self, case, tmp_path):
        mu_r, n_modes, tail_modes = case
        spec = SphereSpec(FIG1.alpha, mu_r, FIG1.sigma_star)
        path = tmp_path / "model.json"
        save_model(sphere_spectral_model(spec, n_modes, tail_modes), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_MODEL_SHA256[case]

    @pytest.mark.parametrize("tail_modes", [None, 0, 16])
    def test_one_root_scan_per_model(self, tail_modes, monkeypatch):
        counts = []

        def counted(spec, count):
            counts.append(count)
            return sphere_poles(spec, count)

        monkeypatch.setattr(sphere, "sphere_poles", counted)
        model = sphere_spectral_model(FIG1, 12, tail_modes)
        # with tail modes the scan also yields lam_13, the tail basis anchor
        assert counts == [12 if tail_modes == 0 else 13]
        np.testing.assert_array_equal(
            [m.lam for m in model.modes[:12]], sphere_poles(FIG1, 12)
        )


def _loop_fold(lam_tail, b, leftover):
    # the fold that walked the tail modes from the largest eigenvalue down
    b = b.copy()
    for k in np.argsort(lam_tail)[::-1]:
        if b[k] + leftover <= 0.0:
            b[k] += leftover
            return b, int(k)
    return b, None


class TestTailFold:
    # the tail fit's inputs as sphere_spectral_model forms them, one tail size
    N_MODES, N_TAIL = 10, 8

    def _inputs(self):
        scanned = sphere_poles(FIG1, self.N_MODES + 1)
        lams, mu = scanned[:-1], FIG1.mu_r
        residues = -12.0 * np.pi * FIG1.alpha**3 * mu / (mu * lams + (mu - 1.0) * (mu + 2.0))
        tau = FIG1.time_constant
        nu_band = (2.0 * np.pi * 1e-2 * tau, 2.0 * np.pi * 1e8 * tau)
        n0 = FIG1.static_value()
        deficit = (FIG1.pec_value() - n0) - residues.sum()
        return (FIG1, lams, scanned[-1], residues, n0, nu_band, (self.N_TAIL,)), deficit

    @pytest.mark.parametrize("pattern, fold_at", [
        (None, None),  # the fit's own solution, fold index as it falls
        ("zeros", 7),  # leftover < 0 folds into the largest eigenvalue
        ("one", 3),  # only mode 3 is deep enough to take a leftover > 0
        ("even", "none"),  # no mode is deep enough: nothing folds
    ])
    def test_fold_index_matches_loop(self, pattern, fold_at, monkeypatch):
        args, deficit = self._inputs()
        crafted = {
            "zeros": np.zeros(8),
            "one": np.array([0, 0, 0, -2.0 * deficit, 0, -0.5 * deficit, 0, 0]),
            "even": np.full(8, -deficit / 4.0),
        }
        fit, solutions = sphere.nnls, []

        def nnls(rows, rhs):
            x = fit(rows, rhs)[0] if pattern is None else crafted[pattern]
            solutions.append(x)
            return x, 0.0

        monkeypatch.setattr(sphere, "nnls", nnls)
        lam_kept, b_kept, _ = sphere._fit_tail(*args)
        (x,) = solutions
        lam_tail = np.geomspace(args[2], 4.0 * max(args[5][1], 4.0 * args[1][-1]), 8)
        b = -x
        want, k = _loop_fold(lam_tail, b, deficit - b.sum())
        if fold_at is not None:
            assert k == (None if fold_at == "none" else fold_at)
        np.testing.assert_array_equal(b_kept, want[want < 0.0])
        np.testing.assert_array_equal(lam_kept, lam_tail[want < 0.0])


class TestExtractionGeneralises:
    def test_other_specs_reproduce_their_curves(self):
        cases = [
            SphereSpec(0.005, 5.0, 1e7),
            SphereSpec(0.001, 0.3, 5.96e6),
            SphereSpec(0.02, 1.1, 3.5e7),
        ]
        for spec in cases:
            model = sphere_spectral_model(spec, 30)
            tau = spec.time_constant
            worst = 0.0
            for f in np.geomspace(1e-2, 1e8, 120):
                truth = mpt_sphere(spec, 2.0 * np.pi * f)
                _, _, m_t = assemble(model, 2.0 * np.pi * f * tau)
                worst = max(worst, abs(complex(m_t[0, 0]) - truth) / abs(truth))
            assert worst <= 1e-3, (spec, worst)
            _, minf = limit_tensors(model)
            assert minf[0, 0] == pytest.approx(spec.pec_value(), rel=1e-12)
