"""Surrogate problem generation, direct solves and the identity battery."""

import numpy as np
import pytest

from mptspec import (
    DomainError,
    InvalidInputError,
    SymTensor3,
    assemble,
    beta,
    direct_theta1,
    eigen_model,
    energy_tensors_direct,
    generate,
    verify_identities,
)
from mptspec.spectral import FrequencyGrid
from mptspec.surrogate import SurrogateProblem, energy_tensors_alt


class TestGenerate:
    def test_deterministic(self):
        p1 = generate(12, seed=4, spectrum_shape="linear")
        p2 = generate(12, seed=4, spectrum_shape="linear")
        np.testing.assert_array_equal(p1.k_matrix, p2.k_matrix)
        np.testing.assert_array_equal(p1.theta0, p2.theta0)

    def test_quadratic_spectrum(self):
        p = generate(10, seed=0, spectrum_shape="quadratic")
        lam = np.linalg.eigvalsh(p.k_matrix)
        np.testing.assert_allclose(lam, np.arange(1, 11) ** 2, atol=1e-12 * 100)

    def test_clustered_pairs_merge(self):
        p = generate(8, seed=2, spectrum_shape="clustered")
        model = eigen_model(p, SymTensor3.zero())
        assert all(m.multiplicity == 2 for m in model.modes)
        lam = np.linalg.eigvalsh(p.k_matrix)
        gaps = np.diff(lam)[::2] / lam[1::2]
        assert np.all(gaps < 1e-10)

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInputError):
            generate(1, seed=0)

    def test_symmetry_invariant(self):
        p = generate(30, seed=9, spectrum_shape="linear")
        assert np.abs(p.k_matrix - p.k_matrix.T).max() <= 1e-14 * np.abs(
            p.k_matrix
        ).max()


class TestDirectTheta1:
    def test_zero_frequency_vanishes(self):
        p = generate(6, seed=1)
        out = direct_theta1(p, 0.0)
        np.testing.assert_array_equal(out, np.zeros((6, 3), dtype=complex))

    def test_diagonal_single_entry(self):
        lam = 3.5
        p = SurrogateProblem(
            dim=2,
            k_matrix=np.diag([lam, 10.0]),
            theta0=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            alpha=1.0,
            sigma_star=1.0,
            nu_grid=FrequencyGrid(np.array([1.0, 2.0]), "nu"),
        )
        for nu in (0.4, lam, 80.0):
            out = direct_theta1(p, nu)
            assert out[0, 0] == pytest.approx(beta(nu, lam), rel=1e-13)
            assert abs(out[1, 0]) == 0.0

    def test_matches_eigenmode_series(self):
        p = generate(25, seed=8, spectrum_shape="linear")
        lam, phi = np.linalg.eigh(p.k_matrix)
        proj = phi.T @ p.theta0
        for nu in np.geomspace(1e-3 * lam[0], 1e3 * lam[-1], 40):
            direct = direct_theta1(p, nu)
            series = phi @ ((-1j * nu / (1j * nu - lam))[:, None] * proj)
            np.testing.assert_allclose(
                direct, series, atol=1e-10 * np.linalg.norm(direct)
            )


class TestEnergyTensors:
    def test_single_mode_balance_point(self):
        lam = 2.0
        c = np.array([0.6, -0.3, 0.2])
        p = SurrogateProblem(
            dim=2,
            k_matrix=np.diag([lam, lam * 50.0]),
            theta0=np.vstack([c, np.zeros(3)]),
            alpha=1.0,
            sigma_star=1.0,
            nu_grid=FrequencyGrid(np.array([1.0, 2.0]), "nu"),
        )
        r, i = energy_tensors_direct(p, lam)
        np.testing.assert_allclose(
            r.matrix, -(lam / 8.0) * np.outer(c, c), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            i.matrix, (lam / 8.0) * np.outer(c, c), rtol=0, atol=1e-14
        )

    def test_alternative_forms_agree(self):
        p = generate(15, seed=3, spectrum_shape="quadratic")
        for nu in np.geomspace(0.1, 1e3, 15):
            r_d, i_d = energy_tensors_direct(p, nu)
            r_a, i_a = energy_tensors_alt(p, nu)
            scale = max(r_d.norm() + i_d.norm(), 1e-300)
            assert (r_a - r_d).norm() <= 1e-12 * scale
            assert (i_a - i_d).norm() <= 1e-12 * scale

    def test_assembly_matches_direct(self):
        p = generate(20, seed=5, spectrum_shape="linear")
        model = eigen_model(p, SymTensor3.zero())
        for nu in np.geomspace(1e-3, 1e3, 40):
            r_d, i_d = energy_tensors_direct(p, nu)
            r_m, i_m, _ = assemble(model, nu)
            scale = max(r_d.norm() + i_d.norm(), 1e-300)
            assert (r_m - r_d).norm() + (i_m - i_d).norm() <= 1e-10 * scale

    def test_nu_zero_rejected(self):
        with pytest.raises(DomainError):
            energy_tensors_direct(generate(4, seed=0), 0.0)

    def test_direct_route_never_reads_the_spectral_core(self, monkeypatch):
        import mptspec.spectral

        def refuse(model):
            raise AssertionError("the direct LU route read the spectral core")

        monkeypatch.setattr(mptspec.spectral, "_core", refuse)
        p = generate(6, seed=2)
        with pytest.raises(AssertionError):
            assemble(eigen_model(p, SymTensor3.zero()), 1.0)
        assert direct_theta1(p, 1.0).shape == (6, 3)
        for form in (energy_tensors_direct, energy_tensors_alt):
            r, i = form(p, 1.0)
            assert r.norm() > 0.0 and i.norm() > 0.0


class TestVerifyIdentities:
    def test_fresh_problem_passes(self):
        report = verify_identities(generate(8, seed=11, spectrum_shape="linear"))
        assert report.passed
        assert all(c.max_violation <= 1e-9 for c in report.checks)

    def test_corruption_detected_and_localised(self):
        report = verify_identities(
            generate(8, seed=11, spectrum_shape="linear"), corrupt_coupling=True
        )
        failed = {c.name for c in report.checks if not c.passed}
        assert "assemble_vs_energy_direct" in failed
        # direct-solve-only identities are untouched by a model corruption
        names = {c.name: c for c in report.checks}
        assert names["series_vs_direct_solve"].passed
        assert names["energy_alternative_forms"].passed

    def test_minimal_problem_fast(self):
        import time

        start = time.monotonic()
        report = verify_identities(generate(2, seed=1))
        assert report.passed
        assert time.monotonic() - start < 1.0

    def test_single_mode_checks_present(self):
        report = verify_identities(generate(2, seed=3, spectrum_shape="clustered"))
        names = {c.name for c in report.checks}
        assert "inflection_stationary_coincidence" in names
        assert "commutator_single_mode_zero" in names
        assert report.passed

    def test_report_serialisation(self):
        report = verify_identities(generate(5, seed=7))
        doc = report.to_dict()
        assert doc["passed"] is True
        assert len(doc["checks"]) == len(report.checks)
        text = report.format_text()
        assert "result: PASS" in text
