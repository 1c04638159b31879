"""The library's argument boundary, for scalars and for arrays.

Each scalar rule (a frequency nu, a positive parameter, a count, an index,
a tensor axis), the array rule (finite real numbers, or integers), each
public entry point that applies a rule and each bad value must raise the
rule's ``MptError`` subclass: never a bare ``IndexError``, ``TypeError``,
``ValueError`` or ``OverflowError``, never a silent coercion, and never a
warning (pytest turns every warning into an error for this suite).  Valid
edge values must still pass.
"""

import numpy as np
import pytest

from mptspec import (
    DomainError,
    FrequencyGrid,
    InvalidInputError,
    InvalidRotationError,
    Mode,
    NumericRangeError,
    PoleResidueExpansion,
    Rotation3,
    SpectralModel,
    SchemaError,
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
    dipole_green_hessian,
    direct_theta1,
    dominant_mode,
    energy_tensors_direct,
    evaluate,
    fit_dominant,
    fit_report,
    from_model,
    generate,
    mode_tensor,
    modes_from_eigenvalues,
    mpt_sphere,
    perturbed_field,
    residue_at_pole,
    select_truncation,
    sphere_poles,
    sphere_spectral_model,
    transient_field,
    verify_identities,
)
from mptspec.fitting import default_fit_grid, sweep_coefficients
from mptspec.modelio import document_to_model
from mptspec.poleresidue import contour_residue
from mptspec.surrogate import energy_tensors_alt
from mptspec.tensors import packed_index
from conftest import random_model

MODEL = random_model(3, n_modes=4)
EXPANSION = from_model(MODEL)
PROBLEM = generate(3, seed=1)
SPEC = SphereSpec(alpha=0.01, mu_r=1.5, sigma_star=5.96e6)
HUGE = 10**400  # an int too large for a double

# bad for every scalar rule: not finite, negative, a bool, beyond a double
# or not a number at all
NOT_A_NUMBER = [np.nan, np.inf, -np.inf, -1.0, True, HUGE, "1"]


def _ids(values):
    return [repr(v)[:12] for v in values]


NU_NONNEGATIVE = {
    "beta": lambda x: beta(x, 1.0),
    "assemble": lambda x: assemble(MODEL, x),
    "direct_theta1": lambda x: direct_theta1(PROBLEM, x),
    "mpt_sphere": lambda x: mpt_sphere(SPEC, x),
}
NU_POSITIVE = {
    "beta_dlog": lambda x: beta_dlog(x, 1.0),
    "assemble_dlog": lambda x: assemble_dlog(MODEL, x),
    "dominant_mode": lambda x: dominant_mode(MODEL, 0, 0, x),
    "commutator_Z nu1": lambda x: commutator_Z(MODEL, x),
    "commutator_Z RR nu2": lambda x: commutator_Z(MODEL, 1.0, x, kind="RR"),
    "commutator_Z II nu2": lambda x: commutator_Z(MODEL, 1.0, x, kind="II"),
    # nu2 is checked whenever it is given, though kind RI ignores it
    "commutator_Z RI nu2": lambda x: commutator_Z(MODEL, 1.0, x, kind="RI"),
    "energy_tensors_direct": lambda x: energy_tensors_direct(PROBLEM, x),
    "energy_tensors_alt": lambda x: energy_tensors_alt(PROBLEM, x),
    "default_fit_grid": lambda x: default_fit_grid(x),
}


def _mode(lam=1.0, multiplicity=1):
    return Mode(lam, multiplicity, np.ones((1, 3)))


def _model(alpha=0.01, sigma_star=5.96e6):
    return SpectralModel(alpha, sigma_star, SymTensor3.zero(), (_mode(),))


def _expansion(alpha=1.0, sigma_star=1.0):
    return PoleResidueExpansion(
        SymTensor3.zero(), np.array([-1.0]), (SymTensor3.isotropic(-1.0),),
        np.array([0]), alpha, sigma_star,
    )


POSITIVE = {
    "Mode.lam": lambda x: _mode(lam=x),
    "beta lam": lambda x: beta(1.0, x),
    "beta_dlog lam": lambda x: beta_dlog(1.0, x),
    "SpectralModel.alpha": lambda x: _model(alpha=x),
    "SpectralModel.sigma_star": lambda x: _model(sigma_star=x),
    "PoleResidueExpansion.alpha": lambda x: _expansion(alpha=x),
    "SphereSpec.alpha": lambda x: SphereSpec(x, 1.5, 5.96e6),
    "SphereSpec.mu_r": lambda x: SphereSpec(0.01, x, 5.96e6),
    "SphereSpec.sigma_star": lambda x: SphereSpec(0.01, 1.5, x),
    "verify_identities tol": lambda x: verify_identities(PROBLEM, tol=x),
}

# (minimum, a small valid count, call); a valid count is never large:
# generate(10**6, 0) would allocate terabytes
COUNTS = {
    "sphere_poles count": (1, 1, lambda x: sphere_poles(SPEC, x)),
    "sphere_spectral_model n_modes": (1, 1, lambda x: sphere_spectral_model(SPEC, x, 0)),
    "sphere_spectral_model tail_modes": (
        0, 1, lambda x: sphere_spectral_model(SPEC, 2, tail_modes=x)),
    "Mode.multiplicity": (1, 1, lambda x: _mode(multiplicity=x)),
    "generate dim": (2, 2, lambda x: generate(x, 0)),
    "generate seed": (0, 0, lambda x: generate(3, x)),
    "contour_residue points": (1, 1, lambda x: contour_residue(EXPANSION, 0, points=x)),
    "default_fit_grid points": (2, 2, lambda x: default_fit_grid(1.0, x)),
    # fit_dominant needs 4 points of its own
    "fit_report points": (2, 4, lambda x: fit_report(MODEL, 1.0, points=x)),
}

# (size, call)
INDICES = {
    "mode_tensor": (len(MODEL.modes), lambda n: mode_tensor(MODEL, n)),
    "select_truncation": (EXPANSION.n_poles(), lambda n: select_truncation(EXPANSION, n)),
    "residue_at_pole": (EXPANSION.n_poles(), lambda n: residue_at_pole(EXPANSION, n)),
    "contour_residue": (EXPANSION.n_poles(), lambda n: contour_residue(EXPANSION, n)),
}

TENSOR_INDICES = {
    "packed_index i": lambda k: packed_index(k, 0),
    "packed_index j": lambda k: packed_index(0, k),
    "SymTensor3[i, j]": lambda k: MODEL.n0[k, 1],
    "SymTensor3[j, i]": lambda k: MODEL.n0[1, k],
    "dominant_mode i": lambda k: dominant_mode(MODEL, k, 0, 1.0),
    "dominant_mode j": lambda k: dominant_mode(MODEL, 0, k, 1.0),
}
BAD_TENSOR_INDEX = [-1, 3, 0.5, 1.0, True, np.nan, HUGE, np.int64(-1), np.int64(3)]


class TestFrequency:
    @pytest.mark.parametrize("bad", NOT_A_NUMBER, ids=_ids(NOT_A_NUMBER))
    @pytest.mark.parametrize("site", NU_NONNEGATIVE)
    def test_nonnegative_rejects(self, site, bad):
        with pytest.raises(DomainError, match="must be finite and nonnegative"):
            NU_NONNEGATIVE[site](bad)

    @pytest.mark.parametrize("bad", [*NOT_A_NUMBER, 0, 0.0], ids=_ids([*NOT_A_NUMBER, 0, 0.0]))
    @pytest.mark.parametrize("site", NU_POSITIVE)
    def test_positive_rejects(self, site, bad):
        with pytest.raises(DomainError, match="must be finite and positive"):
            NU_POSITIVE[site](bad)

    @pytest.mark.parametrize("nu", [0, 0.0, 5e-324, np.float64(1.0), 3])
    @pytest.mark.parametrize("site", NU_NONNEGATIVE)
    def test_nonnegative_edges_pass(self, site, nu):
        NU_NONNEGATIVE[site](nu)

    @pytest.mark.parametrize("nu", [1e-300, np.float64(1.0), 3])
    @pytest.mark.parametrize("site", NU_POSITIVE)
    def test_positive_edges_pass(self, site, nu):
        NU_POSITIVE[site](nu)

    def test_assemble_at_zero_and_subnormal(self):
        r0, i0, _ = assemble(MODEL, 0.0)
        assert not r0.coeffs.any() and not i0.coeffs.any()
        r, i, _ = assemble(MODEL, 5e-324)
        assert np.all(np.isfinite(r.coeffs)) and np.all(np.isfinite(i.coeffs))
        r64, _, _ = assemble(MODEL, np.float64(1.5))
        assert np.array_equal(r64.coeffs, assemble(MODEL, 1.5)[0].coeffs)

    def test_fit_grid_whose_low_end_underflows(self):
        # 1e-6 nu_max is 0 here, and a geometric grid cannot start at 0
        with pytest.raises(DomainError, match="1e-6 nu_max"):
            default_fit_grid(5e-324)
        grid = default_fit_grid(np.float64(2.0), 2)
        assert grid.tolist() == [0.0, 2e-6]

    def test_message_names_the_argument(self):
        with pytest.raises(DomainError, match="omega must be finite and nonnegative, got -1.0"):
            mpt_sphere(SPEC, -1.0)
        with pytest.raises(DomainError, match="nu_max must be finite and positive, got 0"):
            dominant_mode(MODEL, 0, 0, 0)


class TestPositive:
    @pytest.mark.parametrize("bad", [*NOT_A_NUMBER, 0, 0.0], ids=_ids([*NOT_A_NUMBER, 0, 0.0]))
    @pytest.mark.parametrize("site", POSITIVE)
    def test_rejects(self, site, bad):
        with pytest.raises(InvalidInputError, match="must be positive and finite"):
            POSITIVE[site](bad)

    @pytest.mark.parametrize("site", ["Mode.lam", "beta lam", "SphereSpec.mu_r"])
    @pytest.mark.parametrize("x", [5e-324, np.float64(2.0), 2])
    def test_edges_pass(self, site, x):
        POSITIVE[site](x)


class TestCount:
    @pytest.mark.parametrize("site", COUNTS)
    def test_rejects(self, site):
        minimum, _, call = COUNTS[site]
        bads = [np.nan, np.inf, -np.inf, -1, 0.5, minimum + 0.5, True, HUGE, "2",
                minimum - 1, np.int64(minimum - 1), float(minimum)]
        for bad in bads:
            with pytest.raises(InvalidInputError, match="must be an integer >= "):
                call(bad)

    @pytest.mark.parametrize("site", COUNTS)
    def test_small_numpy_integer_passes(self, site):
        _, valid, call = COUNTS[site]
        call(np.int64(valid))


class TestIndex:
    @pytest.mark.parametrize("site", INDICES)
    def test_rejects(self, site):
        size, call = INDICES[site]
        bads = [np.nan, np.inf, -np.inf, -1, 0.5, True, HUGE, None, size, size + 1,
                np.int64(-1), np.int64(size), float(0)]
        for bad in bads:
            with pytest.raises(InvalidInputError, match=" out of range"):
                call(bad)

    @pytest.mark.parametrize("site", INDICES)
    def test_every_index_and_numpy_integers_pass(self, site):
        size, call = INDICES[site]
        for n in range(size):
            call(n)
            call(np.int64(n))

    def test_negative_mode_index_does_not_count_from_the_end(self):
        with pytest.raises(InvalidInputError, match="mode index -1 out of range"):
            mode_tensor(MODEL, -1)


class TestTensorIndex:
    @pytest.mark.parametrize("bad", BAD_TENSOR_INDEX, ids=_ids(BAD_TENSOR_INDEX))
    @pytest.mark.parametrize("site", TENSOR_INDICES)
    def test_rejects(self, site, bad):
        with pytest.raises(InvalidInputError, match="must be integers 0, 1 or 2"):
            TENSOR_INDICES[site](bad)

    def test_every_pair_and_numpy_integers_pass(self):
        positions = {packed_index(i, j) for i in range(3) for j in range(3)}
        assert positions == set(range(6))
        for i in range(3):
            for j in range(3):
                assert packed_index(np.int64(i), np.int64(j)) == packed_index(j, i)
                assert MODEL.n0[i, j] == MODEL.n0[np.int64(j), np.int64(i)]

    @pytest.mark.parametrize("axis", BAD_TENSOR_INDEX, ids=_ids(BAD_TENSOR_INDEX))
    def test_rotation_axis_rejected(self, axis):
        with pytest.raises(InvalidRotationError, match="must be 0..2"):
            Rotation3.about_axis(axis, 0.1)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf, True, HUGE, None, "1"],
                             ids=_ids([np.nan, np.inf, -np.inf, True, HUGE, None, "1"]))
    def test_rotation_angle_rejected(self, angle):
        with pytest.raises(InvalidRotationError, match="finite"):
            Rotation3.about_axis(0, angle)

    def test_rotation_edges_pass(self):
        q = Rotation3.about_axis(np.int64(2), np.float64(np.pi / 2.0)).matrix
        assert np.allclose(q @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert np.array_equal(Rotation3.about_axis(1, 0).matrix, np.eye(3))


class TestHugeIntInMessage:
    # Python refuses repr of an int past 4300 digits; the rule's message
    # must not raise that ValueError in place of the rule's error
    GIANT = 10**5000

    def test_frequency(self):
        with pytest.raises(DomainError, match="nu must be finite and nonnegative, got <int"):
            assemble(MODEL, self.GIANT)

    def test_positive(self):
        with pytest.raises(InvalidInputError, match="lam must be positive and finite, got <int"):
            Mode(self.GIANT, 1, [[1, 1, 1]])

    def test_index(self):
        with pytest.raises(InvalidInputError, match="mode index <int of 16610 bits> out of range"):
            mode_tensor(MODEL, self.GIANT)

    def test_tensor_index(self):
        with pytest.raises(InvalidInputError, match="must be integers 0, 1 or 2"):
            SymTensor3.zero()[self.GIANT, 0]

    # the messages outside the scalar rules name the bad value the same way
    def test_provenance(self):
        with pytest.raises(InvalidInputError, match="unknown provenance <int of 16610 bits>"):
            SpectralModel(0.01, 1e6, SymTensor3.zero(), (), provenance=self.GIANT)

    def test_evaluate_variable(self):
        with pytest.raises(InvalidInputError, match="unknown variable <int of 16610 bits>"):
            evaluate(EXPANSION, 1j, variable=self.GIANT)

    def test_commutator_kind(self):
        with pytest.raises(InvalidInputError, match="commutator kind <int of 16610 bits>"):
            commutator_Z(MODEL, 1.0, kind=self.GIANT)

    def test_truncation(self):
        with pytest.raises(InvalidInputError, match="truncation policy <int of 16610 bits>"):
            from_model(MODEL, self.GIANT)

    def test_excitation_kind(self):
        with pytest.raises(InvalidInputError, match="excitation kind <int of 16610 bits>"):
            transient_field([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], MODEL, [1.0, 0.0, 0.0],
                            self.GIANT, 1.0)

    def test_fit_kind(self):
        data = SweepData(np.linspace(0.1, 1.0, 5), np.ones(5))
        with pytest.raises(InvalidInputError, match="got <int of 16610 bits>"):
            fit_dominant(data, self.GIANT)

    def test_spectrum_shape(self):
        with pytest.raises(InvalidInputError, match="spectrum shape <int of 16610 bits>"):
            generate(3, 1, self.GIANT)

    def test_schema_version(self):
        with pytest.raises(SchemaError, match="schema_version <int of 16610 bits>"):
            document_to_model({"schema_version": self.GIANT})

    def test_f_band(self):
        # a giant upper edge is not a finite number; the band shows its size
        with pytest.raises(InvalidInputError, match="increasing: <tuple of 2 items>"):
            sphere_spectral_model(SPEC, 3, f_band=(1e-2, self.GIANT))

    def test_f_band_out_of_float_range(self):
        # only the first two entries are read; the message shows them all
        with pytest.raises(NumericRangeError, match="f_band <list of 3 items> exceeds"):
            sphere_spectral_model(SphereSpec(1e4, 0.01, 1e300), 3,
                                  f_band=[1e-2, 1e8, self.GIANT])


class TestEvaluationPoint:
    @pytest.mark.parametrize(
        "bad", ["abc", None, "3", True, np.nan, complex(0.0, np.inf), HUGE, [1.0]],
        ids=_ids(["abc", None, "3", True, np.nan, complex(0.0, np.inf), HUGE, [1.0]]),
    )
    @pytest.mark.parametrize("variable", ["w", "s"])
    def test_rejects(self, bad, variable):
        with pytest.raises(DomainError, match="evaluation point must be a finite number"):
            evaluate(EXPANSION, bad, variable)

    def test_numbers_of_every_kind_pass(self):
        point = 0.5 + 2.0j
        value = evaluate(EXPANSION, point).matrix
        assert np.array_equal(evaluate(EXPANSION, np.complex64(point)).matrix, value)
        assert np.array_equal(evaluate(EXPANSION, 3).matrix, evaluate(EXPANSION, 3.0).matrix)
        evaluate(EXPANSION, np.float64(-1.0), "s")


class TestKernelTerms:
    @pytest.mark.parametrize("rate", ["a", None, -HUGE, 0.0, 1.0, np.nan, -np.inf, True],
                             ids=_ids(["a", None, -HUGE, 0.0, 1.0, np.nan, -np.inf, True]))
    def test_rate_rejected(self, rate):
        with pytest.raises(InvalidInputError, match="finite and negative"):
            TransientKernel(SymTensor3.zero(), SymTensor3.zero(), ((rate, SymTensor3.zero()),))

    @pytest.mark.parametrize("terms", [((-1.0, "x"),), ((-1.0,),), (-1.0,)], ids=["x", "1", "flat"])
    def test_term_must_be_a_rate_and_a_tensor(self, terms):
        with pytest.raises(InvalidInputError, match="decay terms must be"):
            TransientKernel(SymTensor3.zero(), SymTensor3.zero(), terms)

    @pytest.mark.parametrize("part", ["steady", "delta_part"])
    def test_parts_must_be_tensors(self, part):
        parts = {"steady": SymTensor3.zero(), "delta_part": SymTensor3.zero(), part: [0.0] * 6}
        with pytest.raises(InvalidInputError, match="steady and delta_part"):
            TransientKernel(exp_terms=(), **parts)

    def test_numpy_rates_pass(self):
        kernel = TransientKernel(
            SymTensor3.zero(), SymTensor3.zero(), ((np.float64(-2.0), SymTensor3.identity()),)
        )
        assert kernel.slowest_rate() == -2.0


# the array rule: each site is (error, valid nested-list argument, call);
# every valid argument holds integers, so an int array of it is valid too
SWEEP_NU = default_fit_grid(1.0, 8)
SWEEP_R, SWEEP_I = sweep_coefficients(MODEL, SWEEP_NU)
WAVE = Waveform([0.0, 1.0], [0.0, 1.0])
KERNEL = TransientKernel.impulse(MODEL)
EYE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
K_INT = [[2, 1, 0], [1, 2, 0], [0, 0, 3]]


def _problem(k=K_INT, theta0=EYE):
    return SurrogateProblem(3, k, theta0, 1.0, 1.0, FrequencyGrid([1.0, 2.0]))


def _poles(poles_s=(-1, -2), nv=(0, 1)):
    return PoleResidueExpansion(SymTensor3.zero(), poles_s, (SymTensor3.isotropic(-1.0),) * 2,
                                nv, 1.0, 1.0)


REAL_SITES = {
    "SymTensor3": (InvalidInputError, [1, 2, 3, 0, 0, 0], SymTensor3),
    "SymTensor3.from_matrix": (InvalidInputError, EYE, SymTensor3.from_matrix),
    "Rotation3": (InvalidRotationError, EYE, Rotation3),
    "dipole_green_hessian x": (InvalidInputError, [1, 0, 0],
                               lambda x: dipole_green_hessian(x, [0.0, 0.0, 0.0])),
    "dipole_green_hessian z": (InvalidInputError, [0, 0, 0],
                               lambda z: dipole_green_hessian([1.0, 0.0, 0.0], z)),
    "perturbed_field h0": (InvalidInputError, [1, 0, 0],
                           lambda h: perturbed_field([1.0, 0, 0], [0.0, 0, 0], MODEL.n0, h)),
    "Mode.couplings": (InvalidInputError, [[1, 0, 0], [0, 1, 0]], lambda c: Mode(1.0, 2, c)),
    "FrequencyGrid": (InvalidInputError, [0, 1, 2], FrequencyGrid),
    "modes_from_eigenvalues lams": (InvalidInputError, [1, 2],
                                    lambda x: modes_from_eigenvalues(x, np.eye(2, 3))),
    "modes_from_eigenvalues rows": (InvalidInputError, [[1, 0, 0], [0, 1, 0]],
                                    lambda x: modes_from_eigenvalues([1.0, 2.0], x)),
    "nu_from_omega": (InvalidInputError, [1, 2], MODEL.nu_from_omega),
    "omega_from_nu": (InvalidInputError, [1, 2], MODEL.omega_from_nu),
    "Waveform times": (InvalidInputError, [0, 1], lambda t: Waveform(t, [0.0, 1.0])),
    "Waveform values": (InvalidInputError, [0, 1], lambda v: Waveform([0.0, 1.0], v)),
    "convolve_excitation": (InvalidInputError, [0, 1, 2],
                            lambda t: convolve_excitation(MODEL, WAVE, t)),
    # a non-finite sample time is outside the kernel's domain
    "TransientKernel.sample": (DomainError, [0, 1], KERNEL.sample),
    "SweepData nu": (InvalidInputError, [0, 1, 2, 3], lambda x: SweepData(x, [0.0, 1, 2, 3])),
    "SweepData values": (InvalidInputError, [0, 1, 2, 3], lambda x: SweepData([0.0, 1, 2, 3], x)),
    "fit_report nu": (InvalidInputError, SWEEP_NU.tolist(),
                      lambda x: fit_report((x, SWEEP_R, SWEEP_I), 1.0)),
    "fit_report R": (InvalidInputError, SWEEP_R.tolist(),
                     lambda x: fit_report((SWEEP_NU, x, SWEEP_I), 1.0)),
    "fit_report I": (InvalidInputError, SWEEP_I.tolist(),
                     lambda x: fit_report((SWEEP_NU, SWEEP_R, x), 1.0)),
    "PoleResidueExpansion.poles_s": (InvalidInputError, [-1, -2], lambda x: _poles(poles_s=x)),
    "SurrogateProblem K": (InvalidInputError, K_INT, lambda x: _problem(k=x)),
    "SurrogateProblem theta0": (InvalidInputError, EYE, lambda x: _problem(theta0=x)),
    "verify_identities nu_grid": (InvalidInputError, [1, 2],
                                  lambda x: verify_identities(PROBLEM, nu_grid=x)),
}
# the fit's sweep data is not integral
INTEGRAL_BASES = [site for site in REAL_SITES if not site.startswith("fit_report")]

# bad as one element of a list, and as an element of an ndarray, whose
# dtype is then float, complex, str or object
BAD_ELEMENTS = [np.nan, np.inf, -np.inf, "1", "a", True, 1j, None, HUGE]
BAD_IN_ARRAYS = [np.nan, np.inf, -np.inf, 1j, "1", None]


def _with_first(value, bad):
    # the nested list `value` with its first number replaced by `bad`
    if isinstance(value, list):
        return [_with_first(value[0], bad), *value[1:]]
    return bad


def _ragged(value):
    # rows of unequal length, or a row among numbers
    if isinstance(value[0], list):
        return [value[0], value[1][:-1], *value[2:]]
    return [value[:1], *value[1:]]


class TestRealArray:
    @pytest.mark.parametrize("bad", BAD_ELEMENTS, ids=_ids(BAD_ELEMENTS))
    @pytest.mark.parametrize("site", REAL_SITES)
    def test_bad_element_rejected(self, site, bad):
        error, valid, call = REAL_SITES[site]
        with pytest.raises(error, match="must be finite real numbers"):
            call(_with_first(valid, bad))

    @pytest.mark.parametrize("bad", BAD_IN_ARRAYS, ids=_ids(BAD_IN_ARRAYS))
    @pytest.mark.parametrize("site", REAL_SITES)
    def test_bad_element_of_an_ndarray_rejected(self, site, bad):
        error, valid, call = REAL_SITES[site]
        with pytest.raises(error, match="must be finite real numbers"):
            call(np.array(_with_first(valid, bad)))

    @pytest.mark.parametrize("site", REAL_SITES)
    def test_ragged_and_non_arrays_rejected(self, site):
        # (verify_identities takes nu_grid=None for its own grid)
        error, valid, call = REAL_SITES[site]
        for bad in (_ragged(valid), "abc", {0: 1.0}):
            with pytest.raises(error, match="must be finite real numbers"):
                call(bad)

    @pytest.mark.parametrize("site", REAL_SITES)
    def test_lists_and_float32_pass(self, site):
        _, valid, call = REAL_SITES[site]
        call(valid)
        call(np.array(valid, dtype=float).tolist())
        call(np.array(valid, dtype=np.float32))

    @pytest.mark.parametrize("site", INTEGRAL_BASES)
    def test_int_arrays_pass(self, site):
        _, valid, call = REAL_SITES[site]
        call(np.array(valid, dtype=np.int64))
        call(np.array(valid, dtype=np.int32))

    @pytest.mark.parametrize("empty", [[], (), np.array([]), np.array([], dtype=int)],
                             ids=["list", "tuple", "float", "int"])
    def test_empty_query_times_pass(self, empty):
        assert convolve_excitation(MODEL, WAVE, empty) == []

    def test_stored_arrays_are_float(self):
        assert Mode(1.0, 1, [[1, 0, 0]]).couplings.dtype == np.float64
        assert FrequencyGrid(np.array([1, 2], dtype=np.uint8)).values.tolist() == [1.0, 2.0]
        coeffs = np.arange(6.0)
        assert SymTensor3(coeffs).coeffs is coeffs  # float64 is not copied

    @pytest.mark.parametrize("r_cols, i_cols", [(5, 6), (6, 5), (5, 5), (7, 6)])
    def test_fit_report_rows_need_six_columns(self, r_cols, i_cols):
        nu = np.linspace(0.1, 1.0, 10)
        with pytest.raises(InvalidInputError, match=r"\(points, 6\)"):
            fit_report((nu, np.ones((10, r_cols)), np.ones((10, i_cols))), 1.0)

    @pytest.mark.parametrize("source", [None, 1.0, (SWEEP_NU, SWEEP_R), [SWEEP_NU] * 4],
                             ids=["None", "float", "pair", "four"])
    def test_fit_report_source_must_be_three_arrays(self, source):
        with pytest.raises(InvalidInputError, match="sweep data must be a model or"):
            fit_report(source, 1.0)

    def test_fit_report_nu_must_match_the_rows(self):
        with pytest.raises(InvalidInputError, match=r"\(points, 6\)"):
            fit_report((SWEEP_NU[:-1], SWEEP_R, SWEEP_I), 1.0)
        with pytest.raises(InvalidInputError, match=r"\(points, 6\)"):
            fit_report((SWEEP_NU[:, None], SWEEP_R, SWEEP_I), 1.0)


NV_BAD = [0.5, 1.9, True, "2", np.nan, np.inf, 1j, None, HUGE, 2**63]


class TestIntegerArray:
    @pytest.mark.parametrize("bad", NV_BAD, ids=_ids(NV_BAD))
    def test_bad_degree_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="must be finite integers"):
            _poles(nv=[bad, 0])

    @pytest.mark.parametrize("bad", [[0.5, 1], [1.0, 0.0], ["2", 0], [1j, 0]])
    def test_ndarray_of_non_integers_rejected(self, bad):
        # a float array is refused even when its values are whole
        with pytest.raises(InvalidInputError, match="must be finite integers"):
            _poles(nv=np.array(bad))

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInputError, match="must be finite integers"):
            _poles(nv=[[0], 1])

    @pytest.mark.parametrize("nv", [[0, 1], (2, 0), np.array([0, 3]), np.array([1, 0], np.uint8),
                                    [np.int32(1), np.int64(2)]],
                             ids=["list", "tuple", "int64", "uint8", "numpy ints"])
    def test_integers_pass(self, nv):
        stored = _poles(nv=nv).nv
        assert stored.dtype == np.int64 and stored.tolist() == [int(k) for k in nv]
