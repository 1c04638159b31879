"""Step/impulse kernels, exact convolution and frequency-domain consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mptspec import (
    DomainError,
    InvalidInputError,
    NumericRangeError,
    SingularityError,
    Mode,
    SpectralModel,
    SphereSpec,
    SymTensor3,
    TransientKernel,
    Waveform,
    assemble,
    convolve_excitation,
    dipole_green_hessian,
    from_model,
    impulse_kernel,
    limit_tensors,
    mode_tensor,
    sphere_spectral_model,
    step_kernel,
    transient_field,
)

from mptspec.spectral import _core, _decay_rates
from conftest import random_model


def two_mode_model():
    modes = (
        Mode(2.0, 1, np.array([[0.6, -0.2, 0.1]])),
        Mode(7.0, 2, np.array([[0.1, 0.5, 0.0], [0.0, 0.3, -0.4]])),
    )
    return SpectralModel(
        alpha=0.01,
        sigma_star=5.96e6,
        n0=SymTensor3.diag(2e-6, 3e-6, 4e-6),
        modes=modes,
        provenance="manual",
    )


class TestStepKernel:
    def test_causality(self):
        model = two_mode_model()
        assert step_kernel(model, -1e-9).norm() == 0.0

    def test_initial_value_is_minf(self):
        model = two_mode_model()
        _, minf = limit_tensors(model)
        np.testing.assert_allclose(
            step_kernel(model, 0.0).coeffs, minf.coeffs, rtol=1e-14
        )

    def test_long_time_is_n0(self):
        model = two_mode_model()
        slowest = TransientKernel.step(model).slowest_rate()
        out = step_kernel(model, 10.0 / abs(slowest))
        assert (out - model.n0).norm() <= 1e-4 * model.n0.norm()

    @pytest.mark.filterwarnings("error")
    def test_huge_time_is_exactly_n0(self):
        # s t overflows to -inf for every term, and exp gives exactly 0
        model = two_mode_model()
        assert np.array_equal(step_kernel(model, 1e300).coeffs, model.n0.coeffs)

    def test_single_mode_monotone_interpolation(self):
        modes = (Mode(3.0, 1, np.array([[0.5, 0.2, -0.1]])),)
        model = SpectralModel(
            alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.diag(1e-6, 2e-6, 3e-6),
            modes=modes,
        )
        slowest = abs(TransientKernel.step(model).slowest_rate())
        times = np.linspace(0.0, 8.0 / slowest, 50)
        rows = np.array([step_kernel(model, t).coeffs for t in times])
        diffs = np.diff(rows, axis=0)
        # every coefficient moves one way: from Minf toward N0
        assert np.all((diffs >= -1e-20).all(axis=0) | (diffs <= 1e-20).all(axis=0))


class TestImpulseKernel:
    def test_causality_both_parts(self):
        model = two_mode_model()
        delta, smooth = impulse_kernel(model, -1e-6)
        assert delta.norm() == 0.0 and smooth.norm() == 0.0

    def test_delta_part_reported_at_origin_only(self):
        model = two_mode_model()
        _, minf = limit_tensors(model)
        delta0, _ = impulse_kernel(model, 0.0)
        delta1, _ = impulse_kernel(model, 1e-9)
        np.testing.assert_array_equal(delta0.coeffs, minf.coeffs)
        assert delta1.norm() == 0.0

    def test_smooth_part_is_step_derivative(self):
        model = two_mode_model()
        s1 = abs(TransientKernel.step(model).slowest_rate())
        dt = 1e-6 / s1
        for t in (0.3 / s1, 1.0 / s1, 4.0 / s1):
            _, smooth = impulse_kernel(model, t)
            fd = (step_kernel(model, t + dt) - step_kernel(model, t - dt)).coeffs / (
                2.0 * dt
            )
            np.testing.assert_allclose(smooth.coeffs, fd, rtol=1e-6)

    def test_single_mode_decay_monotone(self):
        modes = (Mode(3.0, 1, np.array([[0.5, 0.2, -0.1]])),)
        model = SpectralModel(
            alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.zero(), modes=modes
        )
        rate = abs(TransientKernel.impulse(model).slowest_rate())
        times = np.linspace(0.0, 5.0 / rate, 40)
        norms = [impulse_kernel(model, t)[1].norm() for t in times]
        assert np.all(np.diff(norms) <= 0.0)


class TestConvolution:
    def test_sampled_step_converges_to_step_kernel(self):
        model = two_mode_model()
        s1 = abs(TransientKernel.step(model).slowest_rate())
        horizon = 5.0 / s1
        eps = 1e-6 * horizon
        wave = Waveform(np.array([0.0, eps, horizon]), np.array([0.0, 1.0, 1.0]))
        times = np.linspace(0.2 / s1, horizon, 7)
        outs = convolve_excitation(model, wave, times)
        for t, out in zip(times, outs):
            expect = step_kernel(model, t)
            assert (out - expect).norm() <= 1e-3 * expect.norm()

    def test_linearity(self):
        model = two_mode_model()
        s1 = abs(TransientKernel.step(model).slowest_rate())
        t_w = np.array([0.0, 0.5, 1.0, 2.0]) / s1
        vals = np.array([0.0, 1.0, -0.5, 0.25])
        times = np.linspace(0.1, 3.0, 5) / s1
        once = convolve_excitation(model, Waveform(t_w, vals), times)
        twice = convolve_excitation(model, Waveform(t_w, 2.0 * vals), times)
        for a, b in zip(once, twice):
            np.testing.assert_allclose(b.coeffs, 2.0 * a.coeffs, rtol=1e-13, atol=1e-30)

    def test_against_adaptive_quadrature(self):
        model = two_mode_model()
        kernel = TransientKernel.impulse(model)
        s1 = abs(kernel.slowest_rate())
        t_w = np.array([0.0, 0.7, 1.9, 3.0]) / s1
        vals = np.array([0.0, 1.3, 0.4, -0.2])
        wave = Waveform(t_w, vals)
        times = np.array([0.9, 2.1, 3.5]) / s1
        outs = convolve_excitation(model, wave, times)
        for t, out in zip(times, outs):
            oracle = np.zeros(6)
            for k in range(6):
                integrand = lambda tau: (
                    kernel.smooth_at(t - tau).coeffs[k] * wave(tau)
                )
                val, _ = quad(
                    integrand,
                    0.0,
                    t,
                    points=[p for p in t_w if p < t],
                    epsabs=1e-10 * max(abs(out.coeffs[k]), 1e-12 * out.norm()),
                    epsrel=1e-10,
                    limit=200,
                )
                oracle[k] = val + kernel.delta_part.coeffs[k] * wave(t)
            np.testing.assert_allclose(
                out.coeffs, oracle, rtol=1e-8, atol=1e-12 * out.norm()
            )

    @pytest.mark.parametrize(
        "query",
        [[2.0, 1.0], [np.nan], [1e-4, np.nan], [np.inf]],
        ids=["decreasing", "nan", "trailing-nan", "inf"],
    )
    def test_unordered_query_times_rejected(self, query):
        model = two_mode_model()
        wave = Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidInputError, match="query times"):
            convolve_excitation(model, wave, np.array(query))

    def test_empty_query_times(self):
        model = two_mode_model()
        wave = Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert convolve_excitation(model, wave, np.array([])) == []

    def test_zero_mode_model_scales_n0(self):
        model = SpectralModel(
            alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.diag(1e-6, 2e-6, 3e-6),
            modes=(),
        )
        wave = Waveform(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, -1.0]))
        times = np.array([0.5, 1.0, 1.5, 3.0, 4.0])
        for t, out in zip(times, convolve_excitation(model, wave, times)):
            np.testing.assert_array_equal(out.coeffs, wave(t) * model.n0.coeffs)


def _segment_integral(s_n, t: float, t0: float, t1: float, u0: float, b: float):
    # int_{t0}^{t1} s e^{s (t - tau)} (u0 + b (tau - t0)) dtau, all exponents
    # <= 0; the local origin t0 keeps the digits an intercept at 0 would lose
    def antiderivative(tau):
        return (-(u0 + b * (tau - t0)) - b / s_n) * np.exp(s_n * (t - tau))

    return antiderivative(t1) - antiderivative(t0)


def per_segment_convolution(model, excitation, query_times) -> np.ndarray:
    """Reference: every segment re-integrated up to every query, (Q, 6)."""
    kernel = TransientKernel.impulse(model)
    rates = np.array([s_n for s_n, _ in kernel.exp_terms])
    residues = np.array([b_n.coeffs / s_n for s_n, b_n in kernel.exp_terms])
    residues = residues.reshape(rates.size, 6)
    out = []
    for t in query_times:
        weight = np.zeros(rates.size)
        for t0, t1, _, b in excitation.segments_until(t):
            weight += _segment_integral(rates, t, t0, t1, excitation(t0), b)
        out.append(excitation(t) * kernel.delta_part.coeffs + weight @ residues)
    return np.array(out)


def output_scale(model, excitation) -> float:
    """Bound on any output norm: sup |u| times the kernel's total variation."""
    kernel = TransientKernel.impulse(model)
    total = kernel.delta_part.norm() + sum(
        b_n.norm() / abs(s_n) for s_n, b_n in kernel.exp_terms
    )
    return float(np.abs(excitation.values).max()) * total


class TestRecursiveConvolution:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.integers(1, 100),
        n_samples=st.integers(1, 40),
        n_random=st.integers(0, 20),
    )
    def test_matches_per_segment_closed_form(self, seed, n_modes, n_samples, n_random):
        model = random_model(seed, n_modes)
        rng = np.random.default_rng(seed)
        slowest = model.time_constant / model.modes[0].lam
        gaps = rng.uniform(0.2, 1.0, n_samples + 1)
        times = np.cumsum(gaps) * (6.0 * slowest / gaps.sum())
        wave = Waveform(times[1:], rng.standard_normal(n_samples))
        # before the first sample, on and repeated at breakpoints, inside
        # pieces and past the last sample
        span = wave.times[-1] + slowest
        queries = np.sort(
            np.concatenate(
                [
                    [0.0, wave.times[0]],
                    rng.choice(wave.times, size=min(n_samples, 5)),
                    wave.times[: min(n_samples, 3)],
                    rng.uniform(0.0, 1.5 * span, n_random),
                    [span, span],
                ]
            )
        )
        got = np.array([o.coeffs for o in convolve_excitation(model, wave, queries)])
        want = per_segment_convolution(model, wave, queries)
        np.testing.assert_allclose(
            got, want, rtol=0, atol=1e-11 * output_scale(model, wave)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_record_far_from_time_origin(self, seed):
        # samples 100 s after t = 0, about 1e5 slowest time constants, where
        # an intercept referred to t = 0 would lose about 1e-10 of the output
        model = random_model(seed, 20)
        rng = np.random.default_rng(seed)
        slowest = model.time_constant / model.modes[0].lam
        gaps = rng.uniform(0.2, 1.0, 30)
        wave = Waveform(100.0 + np.cumsum(gaps) * slowest, rng.standard_normal(30))
        queries = np.sort(rng.uniform(wave.times[0], wave.times[-1] + slowest, 20))
        got = np.array([o.coeffs for o in convolve_excitation(model, wave, queries)])
        want = per_segment_convolution(model, wave, queries)
        np.testing.assert_allclose(
            got, want, rtol=0, atol=1e-11 * output_scale(model, wave)
        )

    def test_long_stiff_record(self):
        model = sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 100, tail_modes=0)
        rng = np.random.default_rng(7)
        slowest = model.time_constant / model.modes[0].lam
        gaps = rng.uniform(0.2, 1.0, 400)
        times = (np.cumsum(gaps) - gaps[0]) * (6.0 * slowest / gaps.sum())
        queries = np.sort(rng.uniform(0.0, 1.2 * times[-1], 400))
        # a constant sampled 400 times is a unit step at t = 0
        step = Waveform(times, np.ones(400))
        kernel = TransientKernel.step(model)
        for t, out in zip(queries, convolve_excitation(model, step, queries)):
            expect = kernel.smooth_at(t)
            assert (out - expect).norm() <= 1e-9 * expect.norm()
        wave = Waveform(times, rng.standard_normal(400))
        got = convolve_excitation(model, wave, queries)
        probe = np.arange(0, 400, 40)
        want = per_segment_convolution(model, wave, queries[probe])
        np.testing.assert_allclose(
            np.array([got[k].coeffs for k in probe]),
            want,
            rtol=0,
            atol=1e-11 * output_scale(model, wave),
        )


def _indexed_convolution(model, excitation, query_times) -> np.ndarray:
    """The recursion as an indexed loop, step by step, (Q, 6)."""
    t_query = np.asarray(query_times, dtype=float)
    rates = _decay_rates(model)
    _, residues = _core(model)
    _, minf = limit_tensors(model)
    times = excitation.times
    pieces = excitation.segments_until(t_query[-1])
    _, ends, _, piece_slopes = np.reshape(pieces, (-1, 4)).T
    grid = np.union1d(np.append(times[0], ends), t_query[t_query > times[0]])
    h = np.diff(grid)
    b = piece_slopes[np.searchsorted(ends, grid[:-1], side="right")]
    u0 = excitation(grid[:-1])
    z = np.multiply.outer(h, rates)
    em1 = np.expm1(z)
    states = np.zeros((grid.size, rates.size))
    states[1:] = u0[:, None] * em1 + b[:, None] * (em1 / rates - h[:, None])
    decay = np.exp(z)
    for j in range(h.size):
        states[j + 1] += decay[j] * states[j]
    coeffs = np.outer(excitation(t_query), minf.coeffs)
    coeffs += states[np.searchsorted(grid, t_query)] @ residues
    return coeffs


class TestBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.integers(1, 60),
        n_samples=st.integers(1, 40),
        n_queries=st.integers(1, 40),
    )
    def test_convolution_matches_the_indexed_loop(self, seed, n_modes, n_samples, n_queries):
        model = random_model(seed, n_modes)
        rng = np.random.default_rng(seed)
        slowest = model.time_constant / model.modes[0].lam
        times = np.cumsum(rng.uniform(0.2, 1.0, n_samples)) * slowest
        wave = Waveform(times, rng.standard_normal(n_samples))
        queries = np.sort(rng.uniform(-slowest, 1.5 * times[-1] + slowest, n_queries))
        got = np.array([o.coeffs for o in convolve_excitation(model, wave, queries)])
        assert got.tobytes() == _indexed_convolution(model, wave, queries).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 30))
    def test_segments_match_the_loop(self, seed, n_samples):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.2, 1.0, n_samples)) * 10.0 ** rng.uniform(-6, 6)
        wave = Waveform(times, rng.standard_normal(n_samples))
        ends = [times[0] - 1.0, times[-1] + 1.0, *times, *rng.uniform(times[0], times[-1], 5)]
        for t in ends:
            want = []
            for k in range(times.size - 1):
                t0, t1 = times[k], times[k + 1]
                if t0 >= t:
                    break
                slope = (wave.values[k + 1] - wave.values[k]) / (t1 - t0)
                want.append((t0, min(t1, t), wave.values[k] - slope * t0, slope))
            if t > times[-1]:
                want.append((times[-1], t, float(wave.values[-1]), 0.0))
            got = wave.segments_until(t)
            assert np.array(got, ndmin=2).tobytes() == np.array(want, ndmin=2).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_impulse_terms_are_rate_times_residue(self, seed):
        model = random_model(seed, 20)
        kernel = TransientKernel.impulse(model)
        want = [(s, (s * mode_tensor(model, n)).coeffs.tobytes())
                for n, s in enumerate(_decay_rates(model).tolist())]
        assert [(s, b.coeffs.tobytes()) for s, b in kernel.exp_terms] == want


def test_transient_and_pole_residue_paths_skip_from_matrix(monkeypatch):
    # residues are packed from C^T C directly and kernels and outputs are
    # built from arrays, so from_matrix's symmetry checks never run here
    model = random_model(3, 12)
    wave = Waveform(np.array([0.0, 1e-3, 2e-3]), np.array([0.0, 1.0, 0.5]))

    def refuse(*args, **kwargs):
        raise AssertionError("SymTensor3.from_matrix called")

    monkeypatch.setattr(SymTensor3, "from_matrix", refuse)
    TransientKernel.impulse(model)
    TransientKernel.step(model)
    convolve_excitation(model, wave, np.linspace(0.0, 3e-3, 7))
    from_model(model, "auto")


class TestTransientField:
    def test_zero_background_zero_field(self):
        model = two_mode_model()
        out = transient_field(
            [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], model, [0.0, 0.0, 0.0], "step", 1e-5
        )
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_long_time_matches_static_tensor(self):
        model = two_mode_model()
        s1 = abs(TransientKernel.step(model).slowest_rate())
        x, z, h0 = [0.3, -0.2, 0.5], [0.0, 0.0, 0.0], [1.0, 2.0, -1.0]
        out = transient_field(x, z, model, h0, "step", 20.0 / s1)
        d2g = dipole_green_hessian(x, z).matrix
        expect = d2g @ (model.n0.matrix @ np.asarray(h0))
        np.testing.assert_allclose(out, expect, rtol=1e-6)

    def test_impulse_short_time_direct_sum(self):
        model = two_mode_model()
        tau = model.time_constant
        x, z, h0 = [0.0, 0.0, 0.4], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        smooth_vec, _ = transient_field(x, z, model, h0, "impulse", 0.0)
        acc = np.zeros((3, 3))
        for n in range(len(model.modes)):
            s_n = -model.modes[n].lam / tau
            acc += s_n * mode_tensor(model, n).matrix
        d2g = dipole_green_hessian(x, z).matrix
        np.testing.assert_allclose(smooth_vec, d2g @ (acc @ np.asarray(h0)), rtol=1e-12)


    def test_non_finite_background_rejected(self):
        # returned [nan nan nan] before the checks of perturbed_field applied
        with pytest.raises(InvalidInputError, match="background field must be finite"):
            transient_field([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], two_mode_model(),
                            [np.nan, 0.0, 0.0], "step", 1e-5)

    def test_overflowing_field_is_range_error(self):
        with pytest.raises(NumericRangeError):
            transient_field([1e-100, 0.0, 0.0], [0.0, 0.0, 0.0], two_mode_model(),
                            [1e300, 0.0, 0.0], "impulse", 1e-5)

    def test_source_point_is_singular(self):
        with pytest.raises(SingularityError):
            transient_field([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], two_mode_model(),
                            [1.0, 0.0, 0.0], "step", 1e-5)


class TestSample:
    def test_rows_bit_identical_to_term_by_term_sum(self):
        model = sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 30)
        times = np.linspace(-1e-4, 2e-3, 400)
        for kernel in (TransientKernel.step(model), TransientKernel.impulse(model)):
            rows = kernel.sample(times)
            assert rows.shape == (times.size, 6)
            for t, row in zip(times, rows):
                want = np.zeros(6)
                if t >= 0.0:
                    want = kernel.steady.coeffs.copy()
                    for s_n, b_n in kernel.exp_terms:
                        want = want + np.exp(s_n * t) * b_n.coeffs
                assert np.array_equal(row, want)
                assert np.array_equal(kernel.smooth_at(t).coeffs, row)

    @pytest.mark.filterwarnings("error")
    def test_far_negative_times_are_zero(self):
        kernel = TransientKernel.step(two_mode_model())
        rows = kernel.sample([-1e300, -1.0, -0.0])
        assert np.array_equal(rows[:2], np.zeros((2, 6)))
        assert np.array_equal(rows[2], kernel.sample([0.0])[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_time_is_domain_error(self, bad):
        model = two_mode_model()
        kernel = TransientKernel.impulse(model)
        calls = (
            lambda: kernel.sample([0.0, bad]),
            lambda: kernel.smooth_at(bad),
            lambda: step_kernel(model, bad),
            lambda: impulse_kernel(model, bad),
        )
        for call in calls:
            with pytest.raises(DomainError, match="finite"):
                call()


class TestLaplaceConsistency:
    def test_impulse_transform_matches_frequency_domain(self):
        # one-sided Laplace transform at s = +i omega equals the conjugate of
        # the assembled tensor (time convention e^{-i omega t})
        model = two_mode_model()
        kernel = TransientKernel.impulse(model)
        s1 = abs(kernel.slowest_rate())
        horizon = 40.0 / s1
        tau = model.time_constant
        for nu in np.geomspace(0.2, 50.0, 10):
            omega = nu / tau
            transform = np.zeros(6, dtype=complex)
            for k in range(6):
                re_part, _ = quad(
                    lambda t: np.cos(omega * t) * kernel.smooth_at(t).coeffs[k],
                    0.0,
                    horizon,
                    limit=800,
                    epsabs=1e-13,
                )
                im_part, _ = quad(
                    lambda t: np.sin(omega * t) * kernel.smooth_at(t).coeffs[k],
                    0.0,
                    horizon,
                    limit=800,
                    epsabs=1e-13,
                )
                # e^{-s t} with s = +i omega
                transform[k] = re_part - 1j * im_part
            transform += kernel.delta_part.coeffs
            _, _, m_t = assemble(model, nu)
            expect = m_t.real.coeffs - 1j * m_t.imag.coeffs
            np.testing.assert_allclose(transform, expect, rtol=1e-4, atol=1e-10)


class TestTruncationBound:
    def test_tail_bound_propagates_from_model(self):
        model = sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 8)
        assert model.tail_bound is not None
        kernel = TransientKernel.step(model)
        assert kernel.truncation_bound == model.tail_bound
        plain = TransientKernel.step(two_mode_model())
        assert plain.truncation_bound == 0.0


class TestKernelValidation:
    def test_nan_rate_rejected(self):
        with pytest.raises(InvalidInputError, match="finite and negative"):
            TransientKernel(
                steady=SymTensor3.zero(),
                delta_part=SymTensor3.zero(),
                exp_terms=((np.nan, SymTensor3.identity()),),
            )

    def test_slowest_rate_without_decay_terms(self):
        model = SpectralModel(
            alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.diag(1.0, 2.0, 3.0), modes=()
        )
        with pytest.raises(InvalidInputError, match="no decay terms"):
            TransientKernel.step(model).slowest_rate()


class TestImpulseRange:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_impulse_terms_refused(self):
        # a residue near 1e194 and a rate near -1e203: each is in range, and
        # the step kernel is too, but their product s_n A_n is not
        modes = (
            Mode(3.0, 1, np.array([[1.0, 0.5, 0.0]])),
            Mode(1e200, 1, np.array([[0.5, -1.5, 2.25]])),
        )
        model = SpectralModel(alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.zero(),
                              modes=modes)
        assert np.all(np.isfinite(TransientKernel.step(model).sample([0.0, 1.0])))
        with pytest.raises(NumericRangeError, match="impulse kernel at t = 0"):
            TransientKernel.impulse(model)


class TestWaveformSemantics:
    def test_zero_before_first_sample_held_after_last(self):
        wave = Waveform(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, -1.0]))
        assert wave(0.5) == 0.0
        assert wave(1.5) == pytest.approx(1.0)
        assert wave(10.0) == -1.0  # constant extrapolation of the last value

    def test_elementwise_call_matches_scalar_calls(self):
        wave = Waveform(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, -1.0]))
        t = np.array([0.5, 1.0, 1.5, 2.0, 2.9, 3.0, 10.0])
        values = wave(t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        scalars = [wave(float(x)) for x in t]
        assert all(type(u) is float for u in scalars)
        assert values.tolist() == scalars

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Waveform(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidInputError):
            Waveform(np.array([0.0, 1.0]), np.array([0.0, np.inf]))
