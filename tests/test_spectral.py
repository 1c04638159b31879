"""Spectral model assembly, derivatives, limits and commutators."""

import copy
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptspec import (
    DomainError,
    FrequencyGrid,
    InvalidInputError,
    Mode,
    NoDominantModeError,
    NumericRangeError,
    PoleResidueExpansion,
    Rotation3,
    SpectralModel,
    SphereSpec,
    SurrogateProblem,
    SweepData,
    SymTensor3,
    TransientKernel,
    Waveform,
    assemble,
    assemble_dlog,
    beta,
    beta_dlog,
    commutator_Z,
    convolve_excitation,
    dominant_mode,
    eigen_sym3,
    fit_dominant,
    from_model,
    limit_tensors,
    mode_tensor,
    modes_from_eigenvalues,
    offdiag_bound_report,
    rotate_model,
    rotate_tensor,
    sphere_spectral_model,
)
from mptspec.modelio import document_to_model, model_to_document
from mptspec.spectral import is_number
from conftest import random_model

nus = st.floats(1e-8, 1e8, allow_nan=False)
lams = st.floats(1e-6, 1e6, allow_nan=False)


def single_mode_model(lam=2.0, couplings=((1.0, 0.0, 0.0),), alpha=1.0):
    return SpectralModel(
        alpha=alpha,
        sigma_star=1.0,
        n0=SymTensor3.zero(),
        modes=(Mode(lam, len(couplings), np.asarray(couplings)),),
    )


class TestBeta:
    def test_zero_frequency(self):
        assert beta(0.0, 3.7) == 0.0

    def test_balance_point(self):
        assert beta(2.5, 2.5) == pytest.approx(-0.5 + 0.5j, abs=1e-15)

    def test_high_frequency_limit(self):
        lam = 4.2
        assert abs(beta(1e12 * lam, lam) - (-1.0)) < 1e-10

    def test_invalid_mode(self):
        with pytest.raises(InvalidInputError):
            beta(1.0, 0.0)
        with pytest.raises(InvalidInputError):
            beta(1.0, -2.0)

    @settings(max_examples=100, deadline=None)
    @given(nus, lams)
    def test_closed_form(self, nu, lam):
        direct = -1j * nu / (1j * nu - lam)
        assert abs(beta(nu, lam) - direct) <= 1e-15 * abs(direct) + 1e-300


class TestBetaDlog:
    def test_balance_point(self):
        d_re, d2_re, _ = beta_dlog(3.0, 3.0)
        assert d_re == pytest.approx(-0.5, abs=1e-15)
        assert d2_re == pytest.approx(0.0, abs=1e-15)

    def test_zero_frequency_domain_error(self):
        with pytest.raises(DomainError):
            beta_dlog(0.0, 1.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        h2 = 1e-3  # second difference needs a larger step against cancellation
        for _ in range(300):
            nu = 10.0 ** rng.uniform(-3, 3)
            lam = 10.0 ** rng.uniform(-2, 2)
            d_re, d2_re, d_im = beta_dlog(nu, lam)
            re = lambda lognu: beta(np.exp(lognu), lam).real
            im = lambda lognu: beta(np.exp(lognu), lam).imag
            x = np.log(nu)
            fd_re = (re(x + h) - re(x - h)) / (2 * h)
            fd2_re = (re(x + h2) - 2 * re(x) + re(x - h2)) / h2**2
            fd_im = (im(x + h) - im(x - h)) / (2 * h)
            # the difference quotient carries cancellation noise eps/(2h)
            # ~ 1.1e-11 once beta saturates; twice that floor is the
            # oracle's own precision
            floor = 2e-11
            assert d_re == pytest.approx(fd_re, rel=1e-6, abs=floor)
            assert d2_re == pytest.approx(fd2_re, rel=1e-5, abs=floor / h2)
            assert d_im == pytest.approx(fd_im, rel=1e-6, abs=floor)

    def test_dre_is_minus_two_im_beta_squared(self):
        for nu, lam in ((0.3, 2.0), (5.0, 5.0), (100.0, 0.7)):
            d_re, _, _ = beta_dlog(nu, lam)
            assert d_re == pytest.approx(-2.0 * beta(nu, lam).imag ** 2, rel=1e-14)


class TestModeTensor:
    def test_dark_mode_zero(self):
        model = SpectralModel(
            alpha=1.0,
            sigma_star=1.0,
            n0=SymTensor3.zero(),
            modes=(Mode(1.0, 2, np.zeros((2, 3)), dark=True),),
        )
        assert mode_tensor(model, 0).norm() == 0.0

    def test_single_axis(self):
        model = single_mode_model(lam=2.0, couplings=((1.0, 0.0, 0.0),), alpha=1.0)
        np.testing.assert_allclose(
            mode_tensor(model, 0).matrix, np.diag([-0.5, 0.0, 0.0]), atol=1e-16
        )

    def test_negative_semidefinite_rank_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mult = int(rng.integers(1, 4))
            model = SpectralModel(
                alpha=0.01,
                sigma_star=1e6,
                n0=SymTensor3.zero(),
                modes=(Mode(3.0, mult, rng.standard_normal((mult, 3))),),
            )
            a = mode_tensor(model, 0)
            w, _ = eigen_sym3(a)
            assert np.all(w <= 1e-14 * max(a.norm(), 1e-300))
            assert (w < -1e-12 * a.norm()).sum() <= mult

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_packing_matches_from_matrix_bit_for_bit(self, seed):
        # multiplicities 1-6, coupling magnitudes 1e-150 to 1e150 with some
        # exact zeros, dark modes included
        rng = np.random.default_rng(seed)
        modes = []
        for lam in np.cumsum(rng.uniform(0.1, 3.0, int(rng.integers(1, 5)))):
            mult = int(rng.integers(1, 7))
            c = rng.choice([-1.0, 1.0], (mult, 3)) * 10.0 ** rng.uniform(-150, 150, (mult, 3))
            c[rng.random((mult, 3)) < 0.2] = 0.0
            dark = bool(rng.random() < 0.2) or not c.any()
            modes.append(Mode(float(lam), mult, 0.0 * c if dark else c, dark))
        model = SpectralModel(float(rng.uniform(1e-3, 1.0)), 1.0, SymTensor3.zero(), modes)
        for n, mode in enumerate(model.modes):
            scale = -(model.alpha**3) * mode.lam / 4.0
            want = SymTensor3.from_matrix(scale * mode.gram()).coeffs
            assert mode_tensor(model, n).coeffs.tobytes() == want.tobytes()

    def test_packs_the_exact_product_past_8e307(self):
        # a residue entry past 8e307 made from_matrix halve each entry before
        # adding, which rounded odd subnormal entries; the packed product is exact
        mode = Mode(1.25, 2, [[6.4e153 / np.sqrt(1.25), 0.0, 0.0], [0.0, 3e-162, 5e-162]])
        model = SpectralModel(2.0, 1e-10, SymTensor3.zero(), (mode,))
        product = -(2.0**3) * 1.25 / 4.0 * mode.gram()
        assert np.abs(product).max() > 8e307
        want = [product[i, j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
        assert mode_tensor(model, 0).coeffs.tobytes() == np.array(want).tobytes()


class TestAssemble:
    def test_zero_frequency(self):
        model = random_model(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, i, m = assemble(model, 0.0)
            assert beta(0.0, 1.0) == 0.0
        assert r.norm() == 0.0 and i.norm() == 0.0
        np.testing.assert_array_equal(m.real.coeffs, model.n0.coeffs)

    def test_single_mode_balance(self):
        model = single_mode_model(lam=1.5, couplings=((0.2, -0.7, 1.1),))
        a = mode_tensor(model, 0)
        r, i, _ = assemble(model, 1.5)
        np.testing.assert_allclose(r.coeffs, 0.5 * a.coeffs, rtol=1e-14)
        np.testing.assert_allclose(i.coeffs, -0.5 * a.coeffs, rtol=1e-14)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            assemble(random_model(1), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_frequency_rejected(self, bad):
        model = random_model(1)
        calls = (
            lambda: beta(bad, 1.0),
            lambda: beta_dlog(bad, 1.0),
            lambda: assemble(model, bad),
            lambda: assemble_dlog(model, bad),
            lambda: dominant_mode(model, 0, 0, bad),
            lambda: commutator_Z(model, bad),
            lambda: commutator_Z(model, 1.0, bad, kind="RR"),
        )
        for call in calls:
            with pytest.raises(DomainError, match="finite"):
                call()

    def test_definiteness_over_grid(self):
        for seed in range(8):
            model = random_model(seed)
            lam_max = model.modes[-1].lam
            for nu in np.geomspace(1e-3 * model.modes[0].lam, 1e3 * lam_max, 25):
                r, i, _ = assemble(model, nu)
                wr, _ = eigen_sym3(r)
                wi, _ = eigen_sym3(i)
                assert wr.max() <= 1e-12 * max(r.norm(), 1e-300)
                assert wi.min() >= -1e-12 * max(i.norm(), 1e-300)

    def test_offdiag_bounds_always_pass(self):
        for seed in range(10):
            model = random_model(seed, n_modes=4)
            for nu in np.geomspace(1e-2, 1e4, 30):
                r, i, _ = assemble(model, nu)
                rep = offdiag_bound_report(r, i)
                assert rep.passed

    def test_monotone_diagonal_and_vanishing_imag(self):
        model = random_model(17, n_modes=4)
        grid = np.geomspace(1e-4 * model.modes[0].lam, 1e6 * model.modes[-1].lam, 60)
        r_diag = np.array([assemble(model, nu)[0].coeffs[:3] for nu in grid])
        assert np.all(np.diff(r_diag, axis=0) <= 1e-12 * np.abs(r_diag[-1]).max())
        i_first = assemble(model, grid[0])[1]
        i_last = assemble(model, grid[-1])[1]
        i_mid = assemble(model, model.modes[0].lam)[1]
        assert i_first.norm() < 1e-3 * i_mid.norm()
        assert i_last.norm() < 1e-3 * i_mid.norm()


class TestAssembleDlog:
    def test_single_mode_inflection_and_stationary(self):
        model = single_mode_model(lam=3.3, couplings=((0.5, 0.5, -0.2),))
        _, d2_r, d_i = assemble_dlog(model, 3.3)
        assert d2_r.norm() <= 1e-14 * mode_tensor(model, 0).norm()
        assert d_i.norm() <= 1e-14 * mode_tensor(model, 0).norm()

    def test_diagonal_slope_nonpositive(self):
        for seed in range(6):
            model = random_model(seed)
            for nu in np.geomspace(0.01, 100.0, 20):
                d_r, _, _ = assemble_dlog(model, nu)
                assert np.all(d_r.coeffs[:3] <= 1e-15)

    def test_finite_difference_oracle(self):
        model = random_model(23, n_modes=3)
        h = 1e-5
        for nu in np.geomspace(0.05, 50.0, 12):
            d_r, d2_r, d_i = assemble_dlog(model, nu)
            x = np.log(nu)
            r = lambda lx: assemble(model, np.exp(lx))[0].coeffs
            i = lambda lx: assemble(model, np.exp(lx))[1].coeffs
            fd_r = (r(x + h) - r(x - h)) / (2 * h)
            fd2_r = (r(x + h) - 2 * r(x) + r(x - h)) / h**2
            fd_i = (i(x + h) - i(x - h)) / (2 * h)
            scale = max(np.abs(d_r.coeffs).max(), np.abs(d_i.coeffs).max())
            np.testing.assert_allclose(d_r.coeffs, fd_r, atol=1e-5 * scale)
            np.testing.assert_allclose(d2_r.coeffs, fd2_r, atol=5e-4 * scale)
            np.testing.assert_allclose(d_i.coeffs, fd_i, atol=1e-5 * scale)

    def test_single_mode_slope_vs_imag_squared(self):
        # |dR_ii/dlog| = 2 I_ii^2 / |A_ii| when one mode carries everything
        model = single_mode_model(lam=2.2, couplings=((0.8, 0.3, 0.0),))
        a = mode_tensor(model, 0)
        for nu in (0.3, 2.2, 31.0):
            d_r, _, _ = assemble_dlog(model, nu)
            _, i_t, _ = assemble(model, nu)
            for k in range(2):  # axes with nonzero coupling
                expect = 2.0 * i_t.coeffs[k] ** 2 / abs(a.coeffs[k])
                assert abs(d_r.coeffs[k]) == pytest.approx(expect, rel=1e-12)


class TestLimits:
    def test_empty_model(self):
        model = SpectralModel(
            alpha=1.0, sigma_star=1.0, n0=SymTensor3.diag(1, 2, 3), modes=()
        )
        m0, minf = limit_tensors(model)
        np.testing.assert_array_equal(m0.coeffs, model.n0.coeffs)
        np.testing.assert_array_equal(minf.coeffs, model.n0.coeffs)
        r, i, _ = assemble(model, 2.5)
        np.testing.assert_array_equal(r.coeffs, np.zeros(6))
        np.testing.assert_array_equal(i.coeffs, np.zeros(6))

    def test_minf_minus_m0_negative_semidefinite(self):
        for seed in range(6):
            model = random_model(seed)
            m0, minf = limit_tensors(model)
            w, _ = eigen_sym3(minf - m0)
            assert w.max() <= 1e-13 * max((minf - m0).norm(), 1e-300)

    def test_high_frequency_approach(self):
        model = random_model(2, n_modes=3)
        _, minf = limit_tensors(model)
        _, i_t, m_t = assemble(model, 1e9 * model.modes[-1].lam)
        assert (m_t.real - minf).norm() <= 1e-6 * minf.norm()
        assert i_t.norm() <= 1e-6 * minf.norm()


class TestDominantMode:
    def test_single_mode(self):
        assert dominant_mode(single_mode_model(), 0, 0, 10.0) == 0

    def test_band_limited_peak(self):
        # equal |A_ij| needs couplings scaled like 1/sqrt(lam)
        modes = (
            Mode(10.0, 1, np.array([[1.0, 0.0, 0.0]]) / np.sqrt(10.0)),
            Mode(1000.0, 1, np.array([[1.0, 0.0, 0.0]]) / np.sqrt(1000.0)),
        )
        model = SpectralModel(
            alpha=1.0, sigma_star=1.0, n0=SymTensor3.zero(), modes=modes
        )
        a0 = abs(mode_tensor(model, 0)[0, 0])
        a1 = abs(mode_tensor(model, 1)[0, 0])
        assert a0 == pytest.approx(a1, rel=1e-12)
        assert dominant_mode(model, 0, 0, 47.0) == 0

    def test_brute_force_grid_oracle(self):
        for seed in range(20):
            model = random_model(seed, n_modes=4)
            nu_max = 10.0 ** np.random.default_rng(seed).uniform(-1, 3)
            grid = np.geomspace(1e-6 * nu_max, nu_max, 4000)
            best, best_val = None, 0.0
            for n in range(len(model.modes)):
                lam = model.modes[n].lam
                a_ij = abs(mode_tensor(model, n)[0, 1])
                vals = a_ij * grid * lam / (grid**2 + lam**2)
                v = vals.max()
                if v > best_val:
                    best, best_val = n, v
            if best is None:
                continue
            assert dominant_mode(model, 0, 1, nu_max) == best

    def test_all_dark_raises(self):
        model = SpectralModel(
            alpha=1.0,
            sigma_star=1.0,
            n0=SymTensor3.zero(),
            modes=(Mode(1.0, 1, np.zeros((1, 3)), dark=True),),
        )
        with pytest.raises(NoDominantModeError):
            dominant_mode(model, 0, 0, 1.0)


class TestCommutators:
    def test_axis_aligned_model_commutes(self):
        # couplings on distinct axes keep R and I diagonal at every frequency
        modes = (
            Mode(1.0, 1, np.array([[1.0, 0.0, 0.0]])),
            Mode(4.0, 1, np.array([[0.0, 2.0, 0.0]])),
            Mode(9.0, 1, np.array([[0.0, 0.0, 0.5]])),
        )
        model = SpectralModel(
            alpha=1.0, sigma_star=1.0, n0=SymTensor3.zero(), modes=modes
        )
        for nu1, nu2 in ((0.5, 7.0), (2.0, 2.0), (30.0, 0.1)):
            for kind in ("RI", "RR", "II"):
                z = commutator_Z(model, nu1, nu2, kind=kind)
                assert np.abs(z).max() == 0.0

    def test_single_mode_all_kinds_zero(self):
        model = single_mode_model(lam=2.0, couplings=((0.3, -0.4, 0.8), (1.0, 0.2, 0.0)))
        scale = mode_tensor(model, 0).norm() ** 2
        for nu1, nu2 in ((0.2, 5.0), (2.0, 20.0)):
            for kind in ("RI", "RR", "II"):
                z = commutator_Z(model, nu1, nu2, kind=kind)
                assert np.abs(z).max() <= 1e-14 * scale

    def test_growth_bound_two_modes(self):
        rng = np.random.default_rng(31)
        modes = (
            Mode(1.0, 1, rng.standard_normal((1, 3))),
            Mode(6.0, 1, rng.standard_normal((1, 3))),
        )
        model = SpectralModel(
            alpha=1.0, sigma_star=1.0, n0=SymTensor3.zero(), modes=modes
        )
        t0_sq = sum(float((m.couplings**2).sum()) for m in model.modes)
        e1 = np.sqrt(sum(m.lam**2 * float((m.couplings**2).sum()) for m in model.modes))
        c_ri = 6.0 * (0.25 * e1 * np.sqrt(t0_sq)) * (0.5 * t0_sq)
        grid = np.geomspace(1e-3 * 1.0, 1e3 * 6.0, 200)
        ratios = [
            np.abs(commutator_Z(model, nu, kind="RI")).max() / nu for nu in grid
        ]
        assert max(ratios) <= c_ri
        assert max(ratios) > 0.0  # non-commuting pair really is non-commuting

    def test_diagonal_entries_zero(self):
        model = random_model(8, n_modes=3)
        z = commutator_Z(model, 1.3, kind="RI")
        assert np.abs(np.diag(z)).max() <= 1e-16 * max(np.abs(z).max(), 1e-300)


class TestCommutatorRange:
    @pytest.mark.filterwarnings("error")
    def test_commuting_tensors_past_the_product_range(self):
        # residues near 1e300, whose products a @ b overflow before the
        # difference is taken
        modes = (
            Mode(1.0, 1, np.array([[1.0, 0.0, 0.0]])),
            Mode(4.0, 1, np.array([[0.0, 2.0, 0.0]])),
        )
        model = SpectralModel(alpha=1e100, sigma_star=1.0, n0=SymTensor3.zero(),
                              modes=modes)
        for kind in ("RI", "RR", "II"):
            assert np.abs(commutator_Z(model, 0.5, 3.0, kind=kind)).max() == 0.0

    @pytest.mark.filterwarnings("error")
    def test_in_range_commutator_of_overflowing_products(self):
        # one residue of -2.5e299 on the x axis, one of order 1 off it: the
        # products reach 1e598, the commutator only about 1e298
        modes = (
            Mode(1.0, 1, np.array([[1e150, 0.0, 0.0]])),
            Mode(4.0, 1, np.array([[0.3, 0.5, -0.2]])),
        )
        model = SpectralModel(alpha=1.0, sigma_star=1.0, n0=SymTensor3.zero(),
                              modes=modes)
        r, i, _ = assemble(model, 2.0)
        a, b = (mpmath.matrix(t.matrix.tolist()) for t in (r, i))
        want = np.array((a * b - b * a).tolist(), dtype=float)
        got = commutator_Z(model, 2.0)
        assert np.abs(want).max() > 1e297
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.filterwarnings("error")
    def test_commutator_past_the_float_range_refused(self):
        model = random_model(4, n_modes=3, alpha=1e100)
        nu = float(model.nu_from_omega(2.0 * np.pi * 1e-295))
        with pytest.raises(NumericRangeError, match="commutator exceeds"):
            commutator_Z(model, nu)


def _rate_edge_models() -> dict:
    # the sphere model with one decay rate lam / time_constant out of range:
    # overflowing to -inf, or underflowing to -0.0
    doc = model_to_document(sphere_spectral_model(SphereSpec(0.01, 2.0, 5.96e6), 30))
    over, under = copy.deepcopy(doc), copy.deepcopy(doc)
    over["alpha_m"] = 1e-100
    over["modes"][-1]["lambda"] = 1e308
    under.update(alpha_m=1e100, sigma_star_S_per_m=1e100)
    under["modes"][0]["lambda"] = 5e-324
    return {"overflow": document_to_model(over), "underflow": document_to_model(under)}


RATE_EDGE_MODELS = _rate_edge_models()
STEP_WAVE = Waveform(np.array([0.0, 1e-3]), np.array([0.0, 1.0]))
RATE_USERS = {
    "step": TransientKernel.step,
    "impulse": TransientKernel.impulse,
    "convolve": lambda m: convolve_excitation(m, STEP_WAVE, np.array([5e-4, 2e-3])),
    "from_model zero": lambda m: from_model(m, "zero"),
    "from_model auto": lambda m: from_model(m, "auto"),
}


class TestDecayRateRule:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edge", sorted(RATE_EDGE_MODELS))
    @pytest.mark.parametrize("use", sorted(RATE_USERS))
    def test_out_of_range_rate_refused(self, use, edge):
        with pytest.raises(NumericRangeError, match="decay rates"):
            RATE_USERS[use](RATE_EDGE_MODELS[edge])

    def test_every_user_reads_the_same_rates(self):
        model = random_model(6, n_modes=4)
        want = [-m.lam / model.time_constant for m in model.modes]
        for kernel in (TransientKernel.step(model), TransientKernel.impulse(model)):
            assert [s for s, _ in kernel.exp_terms] == want
        for truncation in ("zero", "auto"):
            assert from_model(model, truncation).poles_s.tolist() == want


def commutator_via_assemble(model, nu1, nu2=None, kind="RI"):
    # the formula commutator_Z used before it read the spectral core itself:
    # full assemble calls, then the dense matrices of the tensors
    if kind == "RI":
        r, i, _ = assemble(model, nu1)
        a, b = r.matrix, i.matrix
    else:
        pick = 0 if kind == "RR" else 1
        a, b = assemble(model, nu1)[pick].matrix, assemble(model, nu2)[pick].matrix
    return a @ b - b @ a


class TestCommutatorFromCore:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_assemble_formula(self, seed):
        model = random_model(seed, n_modes=1 + seed)
        grid = np.geomspace(1e-4, 1e4, 25)
        for nu1, nu2 in zip(grid, grid[::-1]):
            for kind in ("RI", "RR", "II"):
                got = commutator_Z(model, nu1, nu2, kind=kind)
                assert np.array_equal(got, commutator_via_assemble(model, nu1, nu2, kind))

    def test_does_not_call_assemble(self, monkeypatch):
        import mptspec.spectral

        def refuse(*args):
            raise AssertionError("commutator_Z called assemble")

        monkeypatch.setattr(mptspec.spectral, "assemble", refuse)
        z = commutator_Z(random_model(2), 0.7, 3.0, kind="RR")
        assert z.shape == (3, 3)


# a size whose cube overflows and one whose cube underflows
EXTREME_ALPHAS = [1e200, 1e-200, np.float64(1e200), 10**200]


class TestScaleRule:
    @pytest.mark.parametrize("alpha", EXTREME_ALPHAS, ids=repr)
    def test_model_rejects_extreme_size(self, alpha):
        with pytest.raises(InvalidInputError, match="normal floats"):
            SpectralModel(alpha=alpha, sigma_star=1.0, n0=SymTensor3.zero(), modes=())

    @pytest.mark.parametrize("alpha, sigma_star", [(1.0, 1e-310), (1e10, 1e308)])
    def test_model_rejects_extreme_time_constant(self, alpha, sigma_star):
        with pytest.raises(InvalidInputError, match="normal floats"):
            SpectralModel(alpha=alpha, sigma_star=sigma_star, n0=SymTensor3.zero(), modes=())

    @pytest.mark.parametrize("alpha", [1e200, 1e-200])
    def test_every_constructor_shares_the_rule(self, alpha):
        grid = FrequencyGrid(np.array([1.0]))
        residue = (SymTensor3.isotropic(-1.0),)
        constructors = (
            lambda: SpectralModel(alpha, 1.0, SymTensor3.zero(), ()),
            lambda: SphereSpec(alpha, 1.5, 1.0),
            lambda: PoleResidueExpansion(
                SymTensor3.zero(), np.array([-1.0]), residue, np.array([0]), alpha, 1.0
            ),
            lambda: SurrogateProblem(2, np.eye(2), np.ones((2, 3)), alpha, 1.0, grid),
        )
        for build in constructors:
            with pytest.raises(InvalidInputError, match="normal floats"):
                build()

    def test_time_constant_unchanged(self):
        model = random_model(0, alpha=0.01, sigma_star=5.96e6)
        assert model.time_constant == 4.0e-7 * np.pi * 5.96e6 * 0.01**2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lams, coupling, n0", [
        ((1e300,), 1e10, 0.0),  # one residue overflows
        ((3.0, 3.5, 4.0), 0.9e154, 0.0),  # each is finite, their sum is not
        ((4.0,), 0.5e154, 1.7e308),  # N0 + R overflows
    ], ids=["residue", "sum", "n0"])
    def test_overflowing_residues_rejected(self, lams, coupling, n0):
        modes = tuple(Mode(lam, 1, np.array([[coupling, 0.0, 0.0]])) for lam in lams)
        with pytest.raises(NumericRangeError, match="float range"):
            SpectralModel(alpha=1.0, sigma_star=1.0, n0=SymTensor3.isotropic(n0),
                          modes=modes)

    @pytest.mark.filterwarnings("error")
    def test_large_residues_accepted(self):
        # two residues of 0.12e308 and 0.16e308 and N0 = 1e307 all fit
        modes = tuple(Mode(lam, 1, np.array([[0.4e154, 0.0, 0.0]])) for lam in (3.0, 4.0))
        model = SpectralModel(alpha=1.0, sigma_star=1.0, n0=SymTensor3.isotropic(1e307),
                              modes=modes)
        _, _, m = assemble(model, 1e9)
        assert m.real[0, 0] == pytest.approx(1e307 - 0.28e308)


class TestRotationEquivariance:
    def test_assemble_equivariant_and_eigen_invariant(self):
        rng = np.random.default_rng(77)
        for seed in range(8):
            model = random_model(seed)
            q_raw, r_mat = np.linalg.qr(rng.standard_normal((3, 3)))
            q = Rotation3(q_raw * np.sign(np.diag(r_mat)))
            rotated = rotate_model(model, q)
            for nu in (0.1, 1.7, 42.0):
                r0, i0, _ = assemble(model, nu)
                r1, i1, _ = assemble(rotated, nu)
                scale = max(r0.norm() + i0.norm(), 1e-300)
                assert (r1 - rotate_tensor(r0, q)).norm() <= 1e-12 * scale
                assert (i1 - rotate_tensor(i0, q)).norm() <= 1e-12 * scale
                w0, _ = eigen_sym3(r0)
                w1, _ = eigen_sym3(r1)
                np.testing.assert_allclose(w1, w0, atol=1e-12 * scale)


class TestModelValidation:
    def test_modes_must_increase(self):
        with pytest.raises(InvalidInputError):
            SpectralModel(
                alpha=1.0,
                sigma_star=1.0,
                n0=SymTensor3.zero(),
                modes=(
                    Mode(2.0, 1, np.ones((1, 3))),
                    Mode(2.0, 1, np.ones((1, 3))),
                ),
            )

    def test_merge_rule(self):
        lams = np.array([1.0, 1.0 + 1e-12, 5.0, 5.0 + 1e-10, 9.0])
        rows = np.arange(15.0).reshape(5, 3) + 1.0
        modes = modes_from_eigenvalues(lams, rows)
        assert [(m.multiplicity) for m in modes] == [2, 2, 1]
        np.testing.assert_array_equal(modes[0].couplings, rows[:2])

    def test_distinct_eigenvalues_not_merged(self):
        modes = modes_from_eigenvalues(
            np.array([1.0, 1.001, 2.0]), np.ones((3, 3))
        )
        assert len(modes) == 3

    def test_nu_omega_conversion(self):
        model = random_model(0, alpha=0.01, sigma_star=5.96e6)
        omega = 2.0 * np.pi * 1e4
        assert float(model.nu_from_omega(omega)) == pytest.approx(47.058, abs=0.1)
        assert float(model.omega_from_nu(model.nu_from_omega(omega))) == pytest.approx(
            omega
        )

    def test_frequency_grid_validation(self):
        with pytest.raises(InvalidInputError):
            FrequencyGrid(np.array([1.0, 1.0]), "nu")
        with pytest.raises(InvalidInputError):
            FrequencyGrid(np.array([-1.0, 1.0]), "nu")
        grid = FrequencyGrid(np.array([1.0, 10.0]), "omega")
        model = random_model(0)
        np.testing.assert_allclose(
            grid.to_nu(model), model.nu_from_omega(grid.values)
        )


def _loop_modes_from_eigenvalues(lams, rows, rel_gap=1e-8):
    # the index walk that grouped eigenvalues before the break mask
    modes, start = [], 0
    for k in range(1, lams.size + 1):
        if k < lams.size and (lams[k] - lams[k - 1]) <= rel_gap * abs(lams[k]):
            continue
        c = rows[start:k]
        modes.append(Mode(float(lams[start:k].mean()), k - start, c,
                          dark=np.abs(c).max() == 0.0))
        start = k
    return tuple(modes)


def _grouping_cases():
    rng = np.random.default_rng(2019)
    for _ in range(200):
        base = np.sort(rng.uniform(0.1, 50.0, rng.integers(1, 8)))
        # repeats split by relative gaps on both sides of the merge rule
        lams = np.sort(np.concatenate([
            base, base * (1.0 + rng.choice([1e-12, 1e-9, 1e-7, 1e-3], base.size))
        ]))
        rows = rng.standard_normal((lams.size, 3))
        rows[rng.random(lams.size) < 0.3] = 0.0
        yield lams, rows, 1e-8
    # gaps exactly at rel_gap * |lam|, with rel_gap and lam powers of two
    gap = 2.0**-20
    yield np.array([1.0 - gap, 1.0, 2.0, 2.0 + 2.0 * gap]), np.ones((4, 3)), gap
    yield np.array([4.0 - 4.0 * gap, 4.0, 8.0 - 16.0 * gap, 8.0]), np.ones((4, 3)), gap
    dark = np.zeros((5, 3))
    dark[3] = 1.0
    yield np.array([1.0, 1.0, 3.0, 5.0, 5.0]), dark, 1e-8  # dark groups
    yield np.full(4, 7.0), np.ones((4, 3)), 1e-8  # a single group
    yield np.arange(1.0, 9.0), np.ones((8, 3)), 1e-8  # all distinct
    yield np.array([]), np.zeros((0, 3)), 1e-8


class TestModeGrouping:
    def test_break_mask_matches_index_walk(self):
        exact_gaps = 0
        for lams, rows, rel_gap in _grouping_cases():
            exact_gaps += int(np.any(np.diff(lams) == rel_gap * np.abs(lams[1:])))
            got = modes_from_eigenvalues(lams, rows, rel_gap)
            want = _loop_modes_from_eigenvalues(lams, rows, rel_gap)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g.lam, w.lam)
                assert np.array_equal(g.multiplicity, w.multiplicity)
                assert np.array_equal(g.couplings, w.couplings)
                assert g.dark == w.dark
        assert exact_gaps >= 2


class TestDerivedModelsKeepTheSignature:
    def test_rotate_model_keeps_every_other_field(self):
        model = replace(random_model(5), provenance="external",
                        topology_flag="torus", tail_bound=0.25)
        q = Rotation3(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        rotated = rotate_model(model, q)
        for name in ("alpha", "sigma_star", "provenance", "topology_flag", "tail_bound"):
            assert getattr(rotated, name) == getattr(model, name)
        for m, r in zip(model.modes, rotated.modes):
            assert (r.lam, r.multiplicity, r.dark) == (m.lam, m.multiplicity, m.dark)
            np.testing.assert_array_equal(r.couplings, m.couplings @ q.matrix.T)


class TestValidatedArraysAreFrozen:
    @staticmethod
    def _build():
        # each constructor, the caller arrays it was given, and its own
        t, v = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5])
        yield FrequencyGrid(t), (t,), ("values",)
        yield SweepData(t, v), (t, v), ("nu", "values")
        yield Waveform(t, v), (t, v), ("times", "values")
        poles, nv = np.array([-1.0, -2.0]), np.array([0, 1])
        residues = (SymTensor3.isotropic(-1.0),) * 2
        expansion = PoleResidueExpansion(SymTensor3.zero(), poles, residues, nv, 1.0, 1.0)
        yield expansion, (poles, nv), ("poles_s", "nv")
        k, theta0 = np.eye(2), np.ones((2, 3))
        grid = FrequencyGrid(t)
        yield SurrogateProblem(2, k, theta0, 1.0, 1.0, grid), (k, theta0), ("k_matrix", "theta0")

    def test_caller_mutation_does_not_reach_the_object(self):
        for obj, given, names in list(self._build()):
            kept = [getattr(obj, name).copy() for name in names]
            for a in given:
                a[0] += 5
            for name, before in zip(names, kept):
                np.testing.assert_array_equal(getattr(obj, name), before)

    def test_object_arrays_reject_writes(self):
        for obj, _, names in self._build():
            for name in names:
                with pytest.raises(ValueError):
                    getattr(obj, name)[0] = 9
        fit = fit_dominant(SweepData(np.geomspace(0.1, 10.0, 9), np.linspace(-1.0, -2.0, 9)), "R")
        with pytest.raises(ValueError):
            fit.residual_curve[0] = 0.0


class TestModeInvariants:
    def test_zero_couplings_require_dark(self):
        with pytest.raises(InvalidInputError):
            Mode(1.0, 1, np.zeros((1, 3)))
        Mode(1.0, 1, np.zeros((1, 3)), dark=True)

    def test_positive_eigenvalue_required(self):
        with pytest.raises(InvalidInputError):
            Mode(0.0, 1, np.ones((1, 3)))
        with pytest.raises(InvalidInputError):
            Mode(-1.0, 1, np.ones((1, 3)))

    def test_caller_array_mutation_does_not_reach_model(self):
        c = np.array([[0.3, -1.2, 0.5], [0.7, 0.1, -0.4]])
        model = single_mode_model(lam=1.5, couplings=c)
        expect = assemble(single_mode_model(lam=1.5, couplings=c.copy()), 2.0)[0]
        c[0, 0] = 50.0
        np.testing.assert_array_equal(assemble(model, 2.0)[0].coeffs, expect.coeffs)
        c[1, 2] = -9.0
        np.testing.assert_array_equal(assemble(model, 2.0)[0].coeffs, expect.coeffs)

    def test_couplings_read_only(self):
        mode = Mode(1.0, 1, np.ones((1, 3)))
        with pytest.raises(ValueError):
            mode.couplings[0, 0] = 2.0

    def test_coupling_shape_checked(self):
        with pytest.raises(InvalidInputError):
            Mode(1.0, 2, np.ones((1, 3)))
        with pytest.raises(InvalidInputError):
            Mode(1.0, 1, np.array([[1.0, np.nan, 0.0]]))

    def test_numpy_scalars_accepted(self):
        # modes_from_eigenvalues hands over numpy floats and np.bool_ flags
        mode = Mode(np.float64(2.0), np.int64(2), np.zeros((2, 3)), dark=np.bool_(True))
        model = SpectralModel(
            np.float64(0.01), np.float32(1e6), SymTensor3.zero(), (mode,),
            tail_bound=np.float64(0.0),
        )
        assert model.modes[0].multiplicity == 2

    def test_int_too_large_for_a_double_rejected(self):
        # np.isfinite raised a bare TypeError on these
        assert not is_number(10**400)
        with pytest.raises(InvalidInputError):
            Mode(1.0, 10**400, np.ones((1, 3)))
        with pytest.raises(InvalidInputError):
            Mode(10**400, 1, np.ones((1, 3)))
        assert is_number(10**300) and is_number(np.int64(3))


def _loop_beta_parts(nu, lam):
    # the scalar branch form the array core replaced
    if nu <= lam:
        x = nu / lam
        denom = 1.0 + x * x
        return -(x * x) / denom, x / denom, (1.0 - x * x) / denom
    x = lam / nu
    denom = 1.0 + x * x
    return -1.0 / denom, x / denom, (x * x - 1.0) / denom


def _loop_weights(model, nu):
    """Per-mode (Re beta, Im beta, dRe/dlog, d2Re/dlog2, dIm/dlog), shape (n, 5)."""
    rows = []
    for mode in model.modes:
        re_b, im_b, ratio = _loop_beta_parts(nu, mode.lam)
        rows.append((re_b, im_b, -2.0 * im_b * im_b, -4.0 * im_b * im_b * ratio, im_b * ratio))
    return np.array(rows).reshape(-1, 5)


def _loop_sums(model, nu):
    """Reference: the per-mode loops over mode_tensor that assemble and
    assemble_dlog used to be; rows R, I, dR/dlog, d2R/dlog2, dI/dlog."""
    out = np.zeros((5, 6))
    for n, w in enumerate(_loop_weights(model, nu)):
        a = mode_tensor(model, n).coeffs
        for k in range(5):
            out[k] -= w[k] * a
    return out


def _term_scale(model, nu):
    # max over coefficients of sum_n |w_n| |A_n|, per row: what bounds the
    # rounding of each sum
    a = np.array([mode_tensor(model, n).coeffs for n in range(len(model.modes))])
    return (np.abs(_loop_weights(model, nu)).T @ np.abs(a.reshape(-1, 6))).max(axis=1)


@st.composite
def loop_cases(draw):
    """Models of 0-60 modes, multiplicities 1-3, some dark, and a probe nu."""
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lams = np.cumsum(rng.uniform(0.05, 3.0, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
    modes = []
    for lam in lams:
        mult = int(rng.integers(1, 4))
        dark = bool(rng.random() < 0.2)
        c = np.zeros((mult, 3)) if dark else rng.standard_normal((mult, 3))
        modes.append(Mode(float(lam), mult, c, dark=dark))
    model = SpectralModel(
        alpha=float(10.0 ** rng.uniform(-3.0, 0.0)),
        sigma_star=1.0,
        n0=SymTensor3(rng.standard_normal(6)),
        modes=tuple(modes),
    )
    kind = draw(st.sampled_from(["zero", "tiny", "lam", "huge"]))
    if kind == "lam" and n:
        nu = model.modes[draw(st.integers(0, n - 1))].lam
    else:
        nu = {"zero": 0.0, "tiny": 1e-300, "lam": 1.0, "huge": 1e300}[kind]
    return model, nu


class TestCoreMatchesModeLoop:
    @settings(max_examples=150, deadline=None)
    @given(loop_cases())
    def test_assemble_and_limits(self, case):
        model, nu = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, i, m = assemble(model, nu)
        ref, scale = _loop_sums(model, nu), _term_scale(model, nu)
        assert np.abs(r.coeffs - ref[0]).max() <= 1e-13 * scale[0]
        assert np.abs(i.coeffs - ref[1]).max() <= 1e-13 * scale[1]
        np.testing.assert_array_equal(m.real.coeffs, (model.n0 + r).coeffs)

        m0, minf = limit_tensors(model)
        residues = [mode_tensor(model, n) for n in range(len(model.modes))]
        bound = 1e-13 * (sum(np.abs(t.coeffs).max() for t in residues) + model.n0.norm())
        assert np.abs(minf.coeffs - sum(residues, model.n0).coeffs).max() <= bound
        np.testing.assert_array_equal(m0.coeffs, model.n0.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(loop_cases())
    def test_assemble_dlog(self, case):
        model, nu = case
        nu = nu or 1e-300  # the derivatives need nu > 0
        got = np.array([t.coeffs for t in assemble_dlog(model, nu)])
        ref, scale = _loop_sums(model, nu), _term_scale(model, nu)
        for k in range(3):
            assert np.abs(got[k] - ref[2 + k]).max() <= 1e-13 * scale[2 + k]
