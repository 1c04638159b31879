"""Pole-residue expansion: construction, evaluation, residues, truncation."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptspec import (
    MU0,
    DomainError,
    InvalidInputError,
    Mode,
    NumericRangeError,
    PoleProximityError,
    SpectralModel,
    SphereSpec,
    SymTensor3,
    assemble,
    eigen_model,
    evaluate,
    from_model,
    generate,
    residue_at_pole,
    select_truncation,
    sphere_spectral_model,
)
from mptspec.poleresidue import PoleResidueExpansion, _terms, contour_residue
from conftest import random_model

FIG1 = SphereSpec(alpha=0.01, mu_r=1.5, sigma_star=5.96e6)


def expansion_with_residues(lams, residue_tensors, alpha=1.0, sigma=1.0, nv=None):
    tau = MU0 * sigma * alpha**2
    poles = np.array([-lam / tau for lam in lams])
    nv = np.zeros(len(lams), dtype=int) if nv is None else np.asarray(nv)
    return PoleResidueExpansion(
        n0=SymTensor3.diag(1.0, 2.0, 3.0),
        poles_s=poles,
        residues=tuple(residue_tensors),
        nv=nv,
        alpha=alpha,
        sigma_star=sigma,
    )


class TestFromModel:
    def test_pole_formula(self):
        model = SpectralModel(
            alpha=0.01,
            sigma_star=5.96e6,
            n0=SymTensor3.zero(),
            modes=(Mode(9.87, 1, np.ones((1, 3))),),
        )
        expansion = from_model(model)
        assert expansion.poles_s[0] == pytest.approx(-1.318e4, rel=1e-3)

    def test_empty_model_is_constant(self):
        model = SpectralModel(
            alpha=1.0, sigma_star=1.0, n0=SymTensor3.diag(4.0, 5.0, 6.0), modes=()
        )
        expansion = from_model(model)
        out = evaluate(expansion, 0.7 + 0.3j, variable="w")
        np.testing.assert_array_equal(out.real.coeffs, model.n0.coeffs)
        assert out.imag.norm() == 0.0

    def test_matches_assembly_on_imaginary_axis(self):
        for seed in range(6):
            model = random_model(seed)
            expansion = from_model(model)
            for nu in np.geomspace(1e-3, 1e3, 15):
                _, _, m_t = assemble(model, nu)
                out = evaluate(expansion, 1j * nu, variable="w")
                diff = (out - m_t).norm()
                assert diff <= 1e-12 * m_t.norm()

    def test_auto_truncation_policy(self):
        model = random_model(3)
        expansion = from_model(model, truncation="auto")
        assert np.all(expansion.nv >= 0)
        with pytest.raises(InvalidInputError):
            from_model(model, truncation="bogus")

    def test_auto_expansion_is_built_once(self, monkeypatch):
        # the degrees are set on the one checked expansion; they equal those
        # of a second, fully checked expansion built with replace
        model = sphere_spectral_model(FIG1, 30)
        zero = from_model(model)
        reference = replace(
            zero, nv=[select_truncation(zero, n) for n in range(zero.n_poles())]
        )
        checks = []
        post_init = PoleResidueExpansion.__post_init__

        def counted(self):
            checks.append(self)
            post_init(self)

        monkeypatch.setattr(PoleResidueExpansion, "__post_init__", counted)
        auto = from_model(model, "auto")
        assert len(checks) == 1 and checks[0] is auto
        assert auto.nv.max() > 0
        for name in ("nv", "poles_s", "_packed"):
            got, want = getattr(auto, name), getattr(reference, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable


class TestSelectTruncation:
    def test_small_residue_needs_no_subtraction(self):
        # M_n <= 2^-(n+1) already satisfies the requirement
        tensors = [SymTensor3.isotropic(-(2.0 ** -(k + 2))) for k in range(3)]
        expansion = expansion_with_residues([1.0, 2.0, 3.0], tensors)
        for k in range(3):
            assert select_truncation(expansion, k) == 0

    def test_unit_residue_third_pole(self):
        tensors = [SymTensor3.isotropic(-1.0) for _ in range(3)]
        expansion = expansion_with_residues([1.0, 2.0, 3.0], tensors)
        # max |w/(w-lam)| on |w| = lam/2 is 1, so M_3 = 1 and 2^nv >= 2^3
        assert select_truncation(expansion, 2) == 3

    def test_monotone_in_residue_scale(self):
        rng = np.random.default_rng(1)
        base = [
            SymTensor3.from_matrix(
                (lambda m: 0.5 * (m + m.T))(-np.eye(3) * rng.uniform(0.5, 2.0))
            )
            for _ in range(4)
        ]
        small = expansion_with_residues([1.0, 2.0, 3.0, 4.0], base)
        big = expansion_with_residues([1.0, 2.0, 3.0, 4.0], [10.0 * t for t in base])
        for k in range(4):
            assert select_truncation(big, k) >= select_truncation(small, k)

    def test_degree_past_the_float_exponent_range(self):
        # 2^nv overflowed a Python float from nv = 1024 on
        unit = SymTensor3.diag(-1.0, -1.0, -1.0)
        expansion = PoleResidueExpansion(
            n0=SymTensor3.zero(),
            poles_s=-np.arange(1.0, 1101.0),
            residues=(unit,) * 1100,
            nv=np.zeros(1100, dtype=int),
            alpha=1.0,
            sigma_star=1.0,
        )
        # M_n = 1, so 2^nv >= 2^(n+1) first holds at nv = n + 1
        assert select_truncation(expansion, 1099) == 1100
        assert select_truncation(expansion, 0) == 1
        nv = [select_truncation(expansion, n) for n in range(1100)]
        far = replace(expansion, nv=nv)
        with pytest.raises(NumericRangeError, match="float range"):
            evaluate(far, -1e3 * far.poles_w[-1] * 1j)

    def test_auto_expansion_of_a_large_surrogate_model(self):
        model = eigen_model(generate(1100, 3, "linear"), SymTensor3.zero())
        expansion = from_model(model, "auto")
        assert expansion.nv.min() == 0 and expansion.nv.max() > 1023


class TestEvaluate:
    def test_zero_point_gives_n0(self):
        model = random_model(5)
        expansion = from_model(model, truncation="auto")
        out = evaluate(expansion, 0.0, variable="w")
        np.testing.assert_array_equal(out.real.coeffs, model.n0.coeffs)
        assert out.imag.norm() == 0.0

    def test_between_poles_finite_near_pole_diverges(self):
        tensors = [SymTensor3.isotropic(-1.0), SymTensor3.isotropic(-0.5)]
        expansion = expansion_with_residues([1.0, 4.0], tensors)
        s1, s2 = expansion.poles_s[:2]
        mid = evaluate(expansion, 0.5 * (s1 + s2), variable="s")
        assert np.isfinite(mid.norm())
        near = evaluate(expansion, s1 * (1.0 - 1e-9), variable="s")
        assert near.norm() > 1e6 * expansion.n0.norm()

    def test_pole_proximity_error(self):
        expansion = expansion_with_residues([1.0], [SymTensor3.isotropic(-1.0)])
        with pytest.raises(PoleProximityError):
            evaluate(expansion, expansion.poles_s[0] * (1.0 - 1e-13), variable="s")

    def test_schwarz_symmetry(self):
        model = random_model(9)
        expansion = from_model(model)
        for w in (0.3 + 0.9j, -2.0 + 0.4j, 5.0 - 3.0j):
            plus = evaluate(expansion, w, variable="w")
            minus = evaluate(expansion, np.conj(w), variable="w")
            np.testing.assert_allclose(
                minus.matrix, np.conj(plus.matrix), rtol=1e-13, atol=0
            )

    def test_taylor_subtraction_zero_order(self):
        # with nv > 0 each bracket has a zero of order nv+1 at w = 0; with a
        # zero N0 the whole value scales like w^{nv+1} near the origin
        tau = MU0
        for nv in (1, 2, 3):
            expansion = PoleResidueExpansion(
                n0=SymTensor3.zero(),
                poles_s=np.array([-1.0 / tau]),
                residues=(SymTensor3.isotropic(-1.0),),
                nv=np.array([nv]),
                alpha=1.0,
                sigma_star=1.0,
            )
            w1, w2 = 1e-3, 2e-3
            f1 = evaluate(expansion, w1, "w").norm()
            f2 = evaluate(expansion, w2, "w").norm()
            order = np.log2(f2 / f1)
            assert order == pytest.approx(nv + 1, abs=0.01)

    def test_partial_sums_monitor(self):
        model = random_model(2, n_modes=4)
        expansion = from_model(model)
        full, partials = evaluate(
            expansion, 1j * 3.0, variable="w", return_partial_sums=True
        )
        assert len(partials) == 4
        np.testing.assert_allclose(
            partials[-1].matrix, full.matrix, rtol=1e-14, atol=0
        )

    def test_analytic_on_disc_grid(self):
        tensors = [SymTensor3.isotropic(-1.0), SymTensor3.isotropic(-0.25)]
        expansion = expansion_with_residues([1.0, 5.0], tensors)
        s_max = abs(expansion.poles_s).max()
        rng = np.random.default_rng(0)
        count = 0
        for _ in range(500):
            s = 2.0 * s_max * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            if np.abs(s - expansion.poles_s).min() < 1e-3 * s_max:
                continue
            assert np.isfinite(evaluate(expansion, s, variable="s").norm())
            count += 1
        assert count > 400


class TestResidues:
    def test_single_mode_closed_form(self):
        k = 0.7
        expansion = expansion_with_residues([2.0], [SymTensor3.isotropic(-k)])
        res = residue_at_pole(expansion, 0)
        tau_inv = abs(expansion.poles_s[0])
        np.testing.assert_allclose(res.matrix, tau_inv * k * np.eye(3), rtol=1e-14)

    def test_contour_cross_check(self):
        model = random_model(7, n_modes=3)
        expansion = from_model(model)
        for n in range(3):
            numeric = contour_residue(expansion, n)
            exact = residue_at_pole(expansion, n).matrix
            np.testing.assert_allclose(numeric.real, exact, rtol=1e-6)
            assert np.abs(numeric.imag).max() <= 1e-6 * np.abs(exact).max()

    def test_residues_local_to_their_pole(self):
        t1 = SymTensor3.isotropic(-1.0)
        t2 = SymTensor3.isotropic(-0.5)
        t2_perturbed = SymTensor3.isotropic(-0.75)
        e1 = expansion_with_residues([1.0, 4.0], [t1, t2])
        e2 = expansion_with_residues([1.0, 4.0], [t1, t2_perturbed])
        np.testing.assert_array_equal(
            residue_at_pole(e1, 0).coeffs, residue_at_pole(e2, 0).coeffs
        )

    def test_index_range(self):
        expansion = expansion_with_residues([1.0], [SymTensor3.isotropic(-1.0)])
        with pytest.raises(InvalidInputError):
            residue_at_pole(expansion, 5)


class TestValidation:
    def test_poles_must_be_negative_decreasing(self):
        with pytest.raises(InvalidInputError):
            PoleResidueExpansion(
                n0=SymTensor3.zero(),
                poles_s=np.array([-2.0, -1.0]),
                residues=(SymTensor3.zero(), SymTensor3.zero()),
                nv=np.zeros(2, dtype=int),
                alpha=1.0,
                sigma_star=1.0,
            )
        with pytest.raises(InvalidInputError):
            PoleResidueExpansion(
                n0=SymTensor3.zero(),
                poles_s=np.array([1.0]),
                residues=(SymTensor3.zero(),),
                nv=np.zeros(1, dtype=int),
                alpha=1.0,
                sigma_star=1.0,
            )


class TestVariableConsistency:
    def test_s_and_w_variables_agree(self):
        model = random_model(11, n_modes=3)
        expansion = from_model(model)
        scale = expansion.scale_w_per_s
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = complex(rng.uniform(-3e5, 3e5), rng.uniform(-3e5, 3e5))
            if np.abs(s - expansion.poles_s).min() < 1e-6 * abs(expansion.poles_s[0]):
                continue
            via_s = evaluate(expansion, s, variable="s")
            via_w = evaluate(expansion, -s * scale, variable="w")
            np.testing.assert_allclose(via_s.matrix, via_w.matrix, rtol=1e-14)


def sampled_truncation(expansion, n, points=256):
    """Reference: M_n by sampling |w/(w - lam)| on the circle |w| = lam/2."""
    lam = expansion.poles_w[n]
    a_max = np.abs(expansion.residues[n].coeffs).max()
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    w = 0.5 * lam * np.exp(1j * theta)
    m_n = a_max * np.abs(w / (w - lam)).max()
    if m_n == 0.0:
        return 0
    nv = int(np.ceil(np.log2(m_n) + (n + 1)))
    while 2.0**nv < m_n * 2.0 ** (n + 1):
        nv += 1
    return max(nv, 0)


def per_pole_loop(expansion, w):
    """Reference: the pole sum term by term, Taylor polynomials as power sums.

    Returns the value and the summed magnitudes of everything it added, the
    scale of its own rounding.
    """
    total = expansion.n0.matrix.astype(complex)
    scale = np.abs(total).max()
    for lam, nv, a in zip(expansion.poles_w, expansion.nv, expansion.residues):
        powers = (w / lam) ** np.arange(1, nv + 1)
        total = total + (w / (w - lam) + powers.sum()) * a.matrix
        scale += (abs(w / (w - lam)) + np.abs(powers).sum()) * np.abs(a.coeffs).max()
    return total, scale


class TestClosedForm:
    @pytest.mark.parametrize(
        "model",
        [sphere_spectral_model(FIG1, 30), sphere_spectral_model(FIG1, 85)]
        + [random_model(seed) for seed in range(10)],
    )
    def test_truncation_matches_circle_sampling(self, model):
        expansion = from_model(model)
        for n in range(expansion.n_poles()):
            assert select_truncation(expansion, n) == sampled_truncation(expansion, n)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_poles=st.integers(0, 60),
        nv_max=st.integers(0, 30),
    )
    def test_evaluate_matches_per_pole_loop(self, seed, n_poles, nv_max):
        rng = np.random.default_rng(seed)
        lams = np.cumsum(rng.uniform(0.5, 4.0, n_poles)) * 10.0 ** rng.uniform(-2, 2)
        residues = []
        for _ in range(n_poles):
            b = rng.standard_normal((3, 3))
            residues.append(
                SymTensor3.from_matrix(-(b.T @ b) * 10.0 ** rng.uniform(-2, 2), 1e-9)
            )
        nv = rng.integers(0, nv_max + 1, n_poles)
        expansion = expansion_with_residues(lams, residues, nv=nv)
        lo, hi = (1.0, 1.0) if n_poles == 0 else (lams[0], lams[-1])
        radius = lo * 10.0 ** rng.uniform(-3.0, np.log10(2.0 * hi / lo), 6)
        points = radius * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, 6))
        points[1::2] = points[1::2].conj()
        for w in points:
            want, scale = per_pole_loop(expansion, w)
            got = evaluate(expansion, w, "w").matrix
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_term_matches_mpmath(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        with mpmath.workdps(60):
            for _ in range(3000):
                nv = int(rng.integers(0, 121))
                lam = float(10.0 ** rng.uniform(-2, 2))
                x = 10.0 ** rng.uniform(-3.0, np.log10(3.0)) * np.exp(
                    1j * rng.uniform(0.0, 2.0 * np.pi)
                )
                w = x * lam
                got = _terms(np.array([lam]), np.array([nv]), np.array([w]))[0, 0]
                x_mp = mpmath.mpc(w.real, w.imag) / mpmath.mpf(lam)
                ref = x_mp ** (nv + 1) / (x_mp - 1)
                if abs(ref) < mpmath.mpf("1e-290"):
                    continue
                err = abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)
                worst = max(worst, float(err))
        assert worst <= 1e-12


class TestPartialSums:
    def test_full_value_is_last_partial_sum(self):
        model = random_model(4, n_modes=12)
        for truncation in ("zero", "auto"):
            expansion = from_model(model, truncation)
            for w in (0.3 + 2.0j, -40.0 - 1.0j, 1e3j):
                full, partials = evaluate(expansion, w, "w", return_partial_sums=True)
                assert len(partials) == expansion.n_poles()
                last = partials[-1]
                np.testing.assert_array_equal(full.real.coeffs, last.real.coeffs)
                np.testing.assert_array_equal(full.imag.coeffs, last.imag.coeffs)

    def test_zero_poles(self):
        model = SpectralModel(
            alpha=1.0, sigma_star=1.0, n0=SymTensor3.diag(4.0, 5.0, 6.0), modes=()
        )
        full, partials = evaluate(
            from_model(model), 0.7 + 0.3j, "w", return_partial_sums=True
        )
        assert partials == []
        np.testing.assert_array_equal(full.real.coeffs, model.n0.coeffs)
        assert full.imag.norm() == 0.0


class TestInputChecks:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, value):
        expansion = from_model(random_model(1))
        for point in (value, complex(1.0, value)):
            for variable in ("w", "s"):
                with pytest.raises(DomainError):
                    evaluate(expansion, point, variable)

    def test_proximity_names_first_pole(self):
        tensors = [SymTensor3.isotropic(-1.0), SymTensor3.isotropic(-0.5)]
        expansion = expansion_with_residues([1.0, 4.0], tensors)
        with pytest.raises(PoleProximityError, match="pole 1 "):
            evaluate(expansion, expansion.poles_w[1], "w")

    def test_residue_must_be_negative_semidefinite(self):
        tensors = [SymTensor3.isotropic(-1.0), SymTensor3.diag(-1.0, 0.5, -1.0)]
        with pytest.raises(InvalidInputError, match="residue 1 is not negative"):
            expansion_with_residues([1.0, 4.0], tensors)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1.5e308])
    def test_semidefinite_tolerance_is_relative_to_frobenius_norm(self, scale):
        # |A|_2 = scale and |A|_F = sqrt(2) scale: a top eigenvalue of
        # 1.4e-10 scale lies between 1e-10 |A|_2 and 1e-10 |A|_F and passes;
        # at 1.5e308 the Frobenius norm itself is past the float range
        expansion_with_residues([1.0], [SymTensor3.diag(-scale, -scale, 1.4e-10 * scale)])
        with pytest.raises(InvalidInputError, match="residue 0 is not negative"):
            expansion_with_residues([1.0], [SymTensor3.diag(-scale, -scale, 1.42e-10 * scale)])

    def test_packed_residues_read_only(self):
        expansion = from_model(random_model(2))
        with pytest.raises(ValueError):
            expansion._packed[0, 0] = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": -1}, {"n": 3}, {"n": 99}, {"points": 0}, {"points": -2},
            {"rel_radius": 0.0}, {"rel_radius": 1.0}, {"rel_radius": -1e-6},
            {"rel_radius": np.nan}, {"rel_radius": np.inf},
        ],
    )
    def test_contour_arguments_checked(self, kwargs):
        expansion = from_model(random_model(7, n_modes=3))
        with pytest.raises(InvalidInputError):
            contour_residue(expansion, **{"n": 0, **kwargs})

    @pytest.mark.parametrize("n", [-1, 2, 5])
    def test_truncation_pole_index_checked(self, n):
        tensors = [SymTensor3.isotropic(-1.0), SymTensor3.isotropic(-0.5)]
        expansion = expansion_with_residues([1.0, 4.0], tensors)
        with pytest.raises(InvalidInputError, match=f"pole index {n} out of range"):
            select_truncation(expansion, n)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"poles_s": np.array([np.nan])},
            {"poles_s": np.array([-np.inf])},
            {"alpha": np.inf},
            {"sigma_star": np.nan},
        ],
        ids=["nan-pole", "inf-pole", "inf-alpha", "nan-sigma"],
    )
    def test_non_finite_construction_rejected(self, kwargs):
        args = {
            "n0": SymTensor3.zero(),
            "poles_s": np.array([-1.0]),
            "residues": (SymTensor3.isotropic(-1.0),),
            "nv": np.array([0]),
            "alpha": 1.0,
            "sigma_star": 1.0,
        }
        with pytest.raises(InvalidInputError, match="finite"):
            PoleResidueExpansion(**{**args, **kwargs})


class TestFloatRange:
    @pytest.mark.filterwarnings("error")
    def test_residues_near_1e300_accepted(self):
        # the squares of a Frobenius norm of these residues overflow, so the
        # semidefinite check must not form one
        model = random_model(4, n_modes=3, alpha=1e100)
        value = evaluate(from_model(model), 1.0 + 1.0j)
        assert np.all(np.isfinite(value.real.coeffs))

    @pytest.mark.filterwarnings("error")
    def test_values_past_the_float_range_refused(self):
        # a subnormal pole lam = 5e-324: w / lam overflows at |w| = 1
        expansion = expansion_with_residues([5e-324, 4.0], [SymTensor3.isotropic(-1.0)] * 2)
        with pytest.raises(NumericRangeError, match="float range"):
            evaluate(expansion, 1.0 + 1.0j)
        # residues of -1e300, and a point 1e-9 from a pole: the term is 1e9
        expansion = expansion_with_residues([2.0, 4.0], [SymTensor3.isotropic(-1e300)] * 2)
        for partial_sums in (False, True):
            with pytest.raises(NumericRangeError, match="float range"):
                evaluate(expansion, 2.0 + 2e-9, return_partial_sums=partial_sums)

    @pytest.mark.filterwarnings("error")
    def test_contour_average_past_the_float_range_refused(self):
        # near pole 1 the subnormal pole's term w / lam_0 overflows
        expansion = expansion_with_residues([5e-324, 4.0], [SymTensor3.isotropic(-1.0)] * 2)
        with pytest.raises(NumericRangeError, match="float range"):
            contour_residue(expansion, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rel_radius", [1e-6, 0.5])
    def test_contour_radius_below_the_normal_floats_refused(self, rel_radius):
        # rel_radius |s_0| underflows at the subnormal pole: every contour
        # point would be the pole itself
        expansion = expansion_with_residues([5e-324, 4.0], [SymTensor3.isotropic(-1.0)] * 2)
        with pytest.raises(NumericRangeError, match="contour radius .* at pole 0 underflows"):
            contour_residue(expansion, 0, rel_radius=rel_radius)

    @pytest.mark.filterwarnings("error")
    def test_residue_at_pole_past_the_float_range(self):
        # s_n A_n = 1e310 warned, then raised InvalidInputError
        expansion = PoleResidueExpansion(
            n0=SymTensor3.zero(), poles_s=np.array([-1e300]),
            residues=(SymTensor3.isotropic(-1e10),), nv=np.array([0]), alpha=1.0,
            sigma_star=1.0,
        )
        with pytest.raises(NumericRangeError, match="tensor arithmetic exceeds"):
            residue_at_pole(expansion, 0)


class TestContourOnAutoExpansions:
    @pytest.mark.parametrize("n_modes", [30, 85])
    def test_every_pole_matches_exact_residue(self, n_modes):
        expansion = from_model(sphere_spectral_model(FIG1, n_modes), "auto")
        assert expansion.nv.max() > 0
        for n in range(expansion.n_poles()):
            numeric = contour_residue(expansion, n)
            exact = residue_at_pole(expansion, n).matrix
            assert np.abs(numeric - exact).max() <= 1e-8 * np.abs(exact).max()
