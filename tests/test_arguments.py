"""The library's scalar-argument boundary.

Each scalar rule (a frequency nu, a positive parameter, a count, an index,
a tensor axis), each public entry point that applies it and each bad value
must raise the rule's ``MptError`` subclass: never a bare ``IndexError``,
``TypeError``, ``ValueError`` or ``OverflowError``, and never a warning
(pytest turns every warning into an error for this suite).  Valid edge
values must still pass.
"""

import numpy as np
import pytest

from mptspec import (
    DomainError,
    InvalidInputError,
    InvalidRotationError,
    Mode,
    PoleResidueExpansion,
    Rotation3,
    SpectralModel,
    SphereSpec,
    SymTensor3,
    assemble,
    assemble_dlog,
    beta,
    beta_dlog,
    commutator_Z,
    direct_theta1,
    dominant_mode,
    energy_tensors_direct,
    fit_report,
    from_model,
    generate,
    mode_tensor,
    mpt_sphere,
    residue_at_pole,
    select_truncation,
    sphere_poles,
    sphere_spectral_model,
    verify_identities,
)
from mptspec.fitting import default_fit_grid
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
