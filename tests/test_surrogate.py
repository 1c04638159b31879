"""Surrogate problem generation, direct solves and the identity battery."""

import ast
import hashlib
import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from mptspec import (
    DomainError,
    InvalidInputError,
    MptError,
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
from mptspec.surrogate import SurrogateProblem, _corrupt_first_coupling, energy_tensors_alt
from conftest import ORACLE_CASES, random_model


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

    @pytest.mark.parametrize("seed", [-1, 2.5, None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            generate(3, seed=seed)

    def test_symmetry_invariant(self):
        p = generate(30, seed=9, spectrum_shape="linear")
        assert np.abs(p.k_matrix - p.k_matrix.T).max() <= 1e-14 * np.abs(
            p.k_matrix
        ).max()


def _problem(k, theta0, alpha=1.0, sigma_star=1.0) -> SurrogateProblem:
    return SurrogateProblem(
        dim=len(k),
        k_matrix=k,
        theta0=theta0,
        alpha=alpha,
        sigma_star=sigma_star,
        nu_grid=FrequencyGrid(np.array([1.0, 2.0]), "nu"),
    )


NAN_K = np.array([[1.0, np.nan], [np.nan, 2.0]])
INF_K = np.diag([1.0, np.inf])
NAN_THETA0 = np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]])
INF_THETA0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -np.inf]])
GOOD_THETA0 = np.eye(2, 3)


class TestSurrogateProblem:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "k, theta0, alpha, sigma_star",
        [
            (NAN_K, GOOD_THETA0, 1.0, 1.0),
            (INF_K, GOOD_THETA0, 1.0, 1.0),
            (np.eye(2), NAN_THETA0, 1.0, 1.0),
            (np.eye(2), INF_THETA0, 1.0, 1.0),
            (np.eye(2), GOOD_THETA0, np.nan, 1.0),
            (np.eye(2), GOOD_THETA0, np.inf, 1.0),
            (np.eye(2), GOOD_THETA0, 0.0, 1.0),
            (np.eye(2), GOOD_THETA0, -1.0, 1.0),
            (np.eye(2), GOOD_THETA0, 1.0, np.nan),
            (np.eye(2), GOOD_THETA0, 1.0, np.inf),
            (np.eye(2), GOOD_THETA0, 1.0, 0.0),
            (np.eye(2), GOOD_THETA0, 1.0, -5.0),
        ],
        ids=[
            "nan-K", "inf-K", "nan-theta0", "inf-theta0",
            "nan-alpha", "inf-alpha", "zero-alpha", "negative-alpha",
            "nan-sigma", "inf-sigma", "zero-sigma", "negative-sigma",
        ],
    )
    def test_rejects_non_finite_or_non_positive(self, k, theta0, alpha, sigma_star):
        with pytest.raises(InvalidInputError):
            _problem(k, theta0, alpha, sigma_star)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["alpha", "sigma_star"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_generate_rejects_bad_scalars(self, field, value):
        with pytest.raises(InvalidInputError):
            generate(4, 0, **{field: value})

    def test_holds_private_read_only_copies(self):
        k = np.diag([1.0, 2.0])
        theta0 = GOOD_THETA0.copy()
        p = _problem(k, theta0)
        assert p.k_matrix is not k and p.theta0 is not theta0
        k[0, 0] = 99.0
        theta0[0, 0] = 99.0
        assert p.k_matrix[0, 0] == 1.0 and p.theta0[0, 0] == 1.0
        for arr in (p.k_matrix, p.theta0):
            with pytest.raises(ValueError):
                arr[0, 0] = 5.0


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

    @pytest.mark.parametrize("dim", [2, 3, 13, 34, 100])
    @pytest.mark.parametrize("shape", ["linear", "quadratic", "clustered"])
    def test_matches_scipy_lu_reference(self, dim, shape):
        # the earlier implementation, kept here as an independent reference
        p = generate(dim, seed=dim, spectrum_shape=shape)
        for nu in p.nu_grid.values:
            a = p.k_matrix.astype(complex) - 1j * nu * np.eye(dim)
            ref = lu_solve(lu_factor(a), 1j * nu * p.theta0.astype(complex))
            got = direct_theta1(p, nu)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "k, nu",
        [
            # subnormal nu: the solve returns NaN, so the residual is NaN
            (np.zeros((2, 2)), 5e-324),
            # rank-one K dwarfs nu: LAPACK meets an exactly zero pivot
            (1e110 * np.outer([1.0, -1.0, 2.0], [1.0, -1.0, 2.0]), 1e-250),
        ],
        ids=["nan-residual", "singular"],
    )
    def test_failed_solve_is_domain_error(self, k, nu):
        with pytest.raises(DomainError):
            direct_theta1(_problem(k, np.ones((len(k), 3))), nu)

    @pytest.mark.filterwarnings("error")
    def test_huge_frequency_residual_does_not_overflow(self):
        # |K theta1| and nu |theta0| near 1e300: their squares overflowed
        # the residual norm before it was taken on scaled operands
        theta0 = np.ones((2, 3))
        got = direct_theta1(_problem(np.ones((2, 2)), theta0), 1e300)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, -theta0, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "solve", [direct_theta1, energy_tensors_direct, energy_tensors_alt]
    )
    def test_non_finite_nu_rejected(self, solve, nu):
        with pytest.raises(DomainError):
            solve(generate(4, seed=0), nu)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [5e-324, np.float64(5e-324), 1e-310])
    def test_subnormal_nu_gives_finite_tensors(self, nu):
        # the Ohmic weight alpha^3 / (4 nu) overflows here, and inf * 0 must
        # not reach the tensor as NaN
        p = generate(3, seed=1)
        r, i = energy_tensors_direct(p, nu)
        assert np.all(np.isfinite(r.coeffs)) and np.all(np.isfinite(i.coeffs))
        assert np.all(i.coeffs == 0.0)

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

    def test_corrupted_control_keeps_the_model_signature(self):
        model = replace(random_model(2), provenance="external",
                        topology_flag="torus", tail_bound=0.25)
        corrupted = _corrupt_first_coupling(model)
        for name in ("alpha", "sigma_star", "n0", "provenance", "topology_flag",
                     "tail_bound"):
            assert getattr(corrupted, name) == getattr(model, name)
        assert corrupted.modes[1:] == model.modes[1:]
        delta = corrupted.modes[0].couplings - model.modes[0].couplings
        assert delta[0, 0] == pytest.approx(1e-3) and np.count_nonzero(delta) == 1

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


# SHA-256 of the JSON list of to_dict() of the reports of _pinned_reports,
# taken before the battery kept one record per check and commutator_Z read
# the spectral core without assemble
BATTERY_SHA256 = "8e288cfc469b2ddd32c3eef4cfcc7cc576d0f8cd05fdb44503462de488769c7b"


def _pinned_reports():
    # criterion 3's problems, the corrupted control and a single-mode problem
    reports = [verify_identities(generate(*case), tol=1e-9) for case in ORACLE_CASES]
    reports.append(verify_identities(generate(8, 11), corrupt_coupling=True))
    reports.append(verify_identities(generate(2, 3, "clustered")))
    return reports


class TestReportBytes:
    def test_battery_reports_pinned(self):
        text = json.dumps([r.to_dict() for r in _pinned_reports()])
        assert hashlib.sha256(text.encode()).hexdigest() == BATTERY_SHA256

    @pytest.mark.parametrize("shape", ["linear", "clustered"])
    def test_empty_positive_grid_reports_zero(self, shape):
        report = verify_identities(generate(2, 3, shape), nu_grid=[0.0])
        assert report.n_grid == 0
        assert len(report.checks) == 9
        assert all(c.max_violation == 0.0 and c.passed for c in report.checks)


def _imports_scipy_linalg(node) -> bool:
    if isinstance(node, ast.Import):
        return any(
            a.name == "scipy.linalg" or a.name.startswith("scipy.linalg.")
            for a in node.names
        )
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = node.module or ""
        return (
            module == "scipy.linalg"
            or module.startswith("scipy.linalg.")
            or (module == "scipy" and any(a.name == "linalg" for a in node.names))
        )
    return False


def test_no_module_imports_scipy_linalg():
    # scipy ships its own OpenBLAS, apart from numpy's.  Dense linear algebra
    # split between the two makes every call switch thread pools, and each
    # pool's threads spin while the other one runs: on two cores that halved
    # the oracle battery's throughput.  So src/ uses numpy.linalg only.
    src = Path(__file__).resolve().parents[1] / "src" / "mptspec"
    modules = sorted(src.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_scipy_linalg(node)
    ]
    assert offenders == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                # `import a.b` binds `a`
                name = a.asname or a.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_has_an_unused_import():
    # an import left behind when its last use moves elsewhere; the package's
    # __init__ imports only to re-export
    src = Path(__file__).resolve().parents[1] / "src" / "mptspec"
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def _non_mpt_raises(path: Path) -> list[str]:
    # each `raise X(...)` or `raise X` whose X is not an MptError subclass;
    # a bare re-raise has no X
    raises = [
        node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    module = importlib.import_module(f"mptspec.{path.stem}") if raises else None
    hits = []
    for node in raises:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = ast.unparse(exc)
        cls = getattr(module, name, None) if isinstance(exc, ast.Name) else None
        if name != "_UsageError" and not (isinstance(cls, type) and issubclass(cls, MptError)):
            hits.append(f"{path.name}:{node.lineno} {name}")
    return hits


def test_every_raise_in_the_package_is_an_mpt_error():
    # bad input raises an MptError subclass, never a bare builtin error; the
    # CLI's own usage error, which it turns into exit 1, is exempt
    src = Path(__file__).resolve().parents[1] / "src" / "mptspec"
    modules = sorted(src.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _non_mpt_raises(path)] == []


def _typed_conversions(path: Path) -> list[str]:
    # each np.asarray/np.array call that converts with dtype=float or int
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.asarray", "np.array")
            and any(
                k.arg == "dtype" and ast.unparse(k.value) in ("float", "int")
                for k in node.keywords
            )
        ):
            hits.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return hits


def test_every_array_argument_goes_through_the_one_rule():
    # a float or int conversion coerces bools, numeric strings and complex
    # values; argument arrays go through tensors._number_array instead
    src = Path(__file__).resolve().parents[1] / "src" / "mptspec"
    modules = sorted(src.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _typed_conversions(path)] == []


_PER_ROW = ("SymTensor3", "_complex_tensor")


def _per_row_constructions(path: Path) -> list[str]:
    # each SymTensor3(...) or _complex_tensor(...) called inside a
    # comprehension, and each map over either
    hits = []
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, comprehensions):
            calls = [
                n for n in ast.walk(node)
                if isinstance(n, ast.Call) and ast.unparse(n.func) in _PER_ROW
            ]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "map":
            calls = [node] if node.args and ast.unparse(node.args[0]) in _PER_ROW else []
        else:
            continue
        hits += [f"{path.name}:{n.lineno} {ast.unparse(n)}" for n in calls]
    return hits


def test_tensors_from_an_array_are_checked_once():
    # each SymTensor3(row) checks its row again; tensors built row by row
    # from an array go through SymTensor3._rows, one check for the array
    src = Path(__file__).resolve().parents[1] / "src" / "mptspec"
    modules = sorted(src.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _per_row_constructions(path)] == []
