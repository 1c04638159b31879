"""Finite-dimensional Galerkin surrogate of the transmission problem.

A :class:`SurrogateProblem` replaces the continuum curl-curl operator by a
real symmetric positive matrix K and the source fields by three vectors
theta0_i.  Every spectral identity then holds exactly in finite dimensions
and can be verified by brute force: the frequency response solves
(K - i nu I) theta1 = i nu theta0 directly, while the eigendecomposition of
K packages the same problem as a :class:`SpectralModel`.  Agreement between
the two routes, at every grid frequency, is the package's strongest internal
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InvalidInputError
from .spectral import (
    FrequencyGrid,
    SpectralModel,
    _check_count,
    _check_nu,
    _check_positive,
    _check_scale,
    _frozen,
    _packed_ri,
    assemble,
    assemble_dlog,
    commutator_Z,
    limit_tensors,
    modes_from_eigenvalues,
    rotate_model,
)
from .tensors import (
    _PACK_FLAT,
    Rotation3,
    SymTensor3,
    _in_range,
    _norms,
    _number_array,
    _rotated,
    _shown,
    _symmetric_packed,
    eigen_sym3,
    offdiag_bound_report,
)

SPECTRUM_SHAPES = ("linear", "quadratic", "clustered")
_CLUSTER_REL_GAP = 1e-12


@dataclass(frozen=True)
class SurrogateProblem:
    """Symmetric operator K, three source vectors and the frequency grid."""

    dim: int
    k_matrix: np.ndarray
    theta0: np.ndarray
    alpha: float
    sigma_star: float
    nu_grid: FrequencyGrid

    def __post_init__(self):
        _check_scale(self.alpha, self.sigma_star)
        # numpy.linalg passes NaN and inf on to LAPACK unchecked
        k = _frozen(_number_array("K", self.k_matrix))
        t = _frozen(_number_array("theta0", self.theta0))
        if k.shape != (self.dim, self.dim):
            raise InvalidInputError("K must be dim x dim")
        if t.shape != (self.dim, 3):
            raise InvalidInputError("theta0 must be dim x 3")
        if np.abs(k - k.T).max() > 1e-14 * max(np.abs(k).max(), 1.0):
            raise InvalidInputError("K must be symmetric to 1e-14")
        object.__setattr__(self, "k_matrix", k)
        object.__setattr__(self, "theta0", t)


def _spectrum(dim: int, shape: str) -> np.ndarray:
    n = np.arange(1, dim + 1, dtype=float)
    if shape == "linear":
        return n
    if shape == "quadratic":
        return n**2
    if shape == "clustered":
        # near-degenerate pairs exercise the multiplicity merge rule
        base = np.repeat(np.arange(1, dim // 2 + 2, dtype=float) ** 2, 2)[:dim]
        jitter = np.zeros(dim)
        jitter[1::2] = _CLUSTER_REL_GAP * base[1::2]
        return base + jitter
    raise InvalidInputError(f"unknown spectrum shape {_shown(shape)}")


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    # Q of a Gaussian matrix's QR, signed so that R's diagonal is
    # nonnegative: a seeded random orthogonal n x n matrix
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def generate(
    dim: int,
    seed: int,
    spectrum_shape: str = "linear",
    alpha: float = 0.01,
    sigma_star: float = 5.96e6,
) -> SurrogateProblem:
    """Deterministic surrogate problem with a prescribed positive spectrum.

    K = Q diag(spectrum) Q^T for a seeded random orthogonal Q; the source
    vectors are seeded unit Gaussians, which automatically lie in the span of
    K's (all-positive) eigenvectors.
    """
    _check_count("dim", dim, 2)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    lam = _spectrum(dim, spectrum_shape)
    q = _orthogonal(rng, dim)
    k = (q * lam) @ q.T
    k = 0.5 * (k + k.T)
    theta0 = rng.standard_normal((dim, 3))
    theta0 /= np.linalg.norm(theta0, axis=0)
    grid = FrequencyGrid(np.geomspace(1e-3 * lam.min(), 1e3 * lam.max(), 40), "nu")
    return SurrogateProblem(dim, k, theta0, alpha, sigma_star, grid)


def direct_theta1(problem: SurrogateProblem, nu: float) -> np.ndarray:
    """Solve (K - i nu I) theta1_i = i nu theta0_i for the three sources.

    Complex LU with partial pivoting (LAPACK ``gesv`` through
    ``numpy.linalg``, so that every dense solve in the package runs on one
    BLAS); returns a dim x 3 complex array.  The response vanishes
    identically at nu = 0.
    """
    if _check_nu(nu) == 0.0:
        return np.zeros((problem.dim, 3), dtype=complex)
    a = problem.k_matrix.astype(complex) - 1j * nu * np.eye(problem.dim)
    rhs = 1j * nu * problem.theta0.astype(complex)
    try:
        theta1 = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"K - i nu I is singular at nu = {nu:g}") from exc
    # both norms on one real scale: their squares overflow from about 1e154
    resid, size = np.abs(a @ theta1 - rhs), np.abs(rhs)
    scale = max(resid.max(), size.max(), 1e-300)
    resid, size = np.linalg.norm(resid / scale), np.linalg.norm(size / scale)
    if not resid <= 1e-12 * max(size, 1e-300 / scale):
        raise DomainError(f"direct solve residual exceeds tolerance at nu = {nu:g}")
    return theta1


def eigen_model(problem: SurrogateProblem, n0: SymTensor3) -> SpectralModel:
    """Package the eigendecomposition of K as a spectral model.

    Couplings are phi_nk . theta0_i; eigenvalues with relative gap below 1e-8
    merge into one mode with the multiplicity counting merged eigenvectors.
    """
    lam, phi = np.linalg.eigh(problem.k_matrix)
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigendecomposition of K failed")
    rows = phi.T @ problem.theta0
    modes = modes_from_eigenvalues(lam, rows)
    return SpectralModel(
        alpha=problem.alpha,
        sigma_star=problem.sigma_star,
        n0=n0,
        modes=modes,
        provenance="surrogate",
    )


def energy_tensors_direct(
    problem: SurrogateProblem, nu: float
) -> tuple[SymTensor3, SymTensor3]:
    """(R, I) from direct solves through the energy forms.

    R_ij = -(alpha^3/4) Re[theta1_j^H K theta1_i] is the (negated) magnetic
    energy; I_ij = (alpha^3/(4 nu)) Re[(K theta1_j)^H (K theta1_i)] the Ohmic
    one.  Both are symmetric by the symmetry of K.
    """
    _check_nu(nu, positive=True)  # the 1/nu weight
    theta1 = direct_theta1(problem, nu)[None]
    return tuple(SymTensor3._rows(_energy_direct(problem, np.array([float(nu)]), theta1)[:, 0]))


def _packed(r: np.ndarray, i: np.ndarray) -> np.ndarray:
    # packed (2, points, 6) R and I of stacked 3x3 blocks: 0.5 (m + m^T) is
    # exactly symmetric, so it is packed as it is, checked as from_matrix checks
    ri = np.stack((r, i))
    sym = 0.5 * (ri + ri.swapaxes(-1, -2))
    return _number_array("tensor coefficients", sym.reshape(2, -1, 9)[..., _PACK_FLAT])


def _energy_direct(problem: SurrogateProblem, nus: np.ndarray, theta1: np.ndarray):
    # (R, I) at each of nus from theta1 stacked (points, dim, 3)
    kt = problem.k_matrix @ theta1
    scale = problem.alpha**3 / 4.0
    r = -scale * np.real(theta1.conj().swapaxes(1, 2) @ kt)
    ohmic = np.real(kt.conj().swapaxes(1, 2) @ kt)
    # where the weight alpha^3 / (4 nu) overflows, inf * 0 would give NaN;
    # kt is of order nu there, so dividing by nu first stays finite
    with np.errstate(over="ignore"):
        weight = scale / nus
    big = weight == np.inf
    i = np.where(big, 1.0, weight)[:, None, None] * ohmic
    i[big] = scale * (ohmic[big] / nus[big, None, None])
    return _packed(r, i)


def energy_tensors_alt(
    problem: SurrogateProblem, nu: float
) -> tuple[SymTensor3, SymTensor3]:
    """(R, I) from the alternative first-order forms.

    R_ij = -(alpha^3 nu / 4) Im(theta1_i) . theta0_j and
    I_ij = (alpha^3 nu / 4) [Re(theta1_i) . theta0_j + theta0_i . theta0_j];
    equality with :func:`energy_tensors_direct` is one of the verified
    identities.
    """
    _check_nu(nu, positive=True)
    theta1 = direct_theta1(problem, nu)[None]
    return tuple(SymTensor3._rows(_energy_alt(problem, np.array([float(nu)]), theta1)[:, 0]))


def _energy_alt(problem: SurrogateProblem, nus: np.ndarray, theta1: np.ndarray):
    scale = problem.alpha**3 / 4.0
    t0 = problem.theta0
    r = (-scale * nus)[:, None, None] * (theta1.imag.swapaxes(1, 2) @ t0)
    i = (scale * nus)[:, None, None] * (theta1.real.swapaxes(1, 2) @ t0 + t0.T @ t0)
    return _packed(r, i)


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: largest relative violation over the grid."""

    name: str
    max_violation: float
    tol: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_violation": float(self.max_violation),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the full identity battery on one surrogate problem."""

    dim: int
    n_grid: int
    checks: tuple[IdentityCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "dim": int(self.dim),
            "n_grid": int(self.n_grid),
            "passed": bool(self.passed),
            "checks": [c.to_dict() for c in self.checks],
        }

    def format_text(self) -> str:
        lines = [f"surrogate identity battery: dim={self.dim} grid={self.n_grid}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}: max violation {c.max_violation:.3e} (tol {c.tol:g})"
            if c.note:
                line += f" -- {c.note}"
            lines.append(line)
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _corrupt_first_coupling(model: SpectralModel, amount: float = 1e-3) -> SpectralModel:
    first = model.modes[0]
    rows = first.couplings.copy()
    rows[0, 0] += amount
    modes = (replace(first, couplings=rows, dark=False),) + model.modes[1:]
    return replace(model, modes=modes)


# the checks whose report entries carry a note
_NOTES = {
    "inflection_stationary_coincidence":
        "single-mode: d2R/dlog2 and dI/dlog vanish at nu = lam_1",
    "commutator_growth_bound":
        "|Z_RI|/nu, |Z_RR|, |Z_II|/(nu1 nu2) under derived constants",
}


def _rel(diff: float, scale: float) -> float:
    return diff / max(scale, 1e-300)


@np.errstate(over="ignore", invalid="ignore")  # past the float range, the range rule refuses
def verify_identities(
    problem: SurrogateProblem,
    nu_grid=None,
    tol: float = 1e-9,
    corrupt_coupling: bool = False,
) -> VerificationReport:
    """Run the full identity battery on every positive grid point.

    Each check records its worst relative violation over those points (0.0
    if there are none) and passes when that is at most ``tol``.  The checks
    come in a fixed order; a single-mode model gets the inflection and
    zero-commutator checks in place of the commutator growth bound and the
    zero-diagonal check.  Failures become report entries, never exceptions.
    ``corrupt_coupling`` perturbs one model coupling by 1e-3 after
    extraction, which must break the model-vs-direct identities while the
    direct-solve-only ones stay green (fault localisation).

    The direct solve, the series check, the eigenvalues and the off-diagonal
    bounds run per point; the rest (R and I, energy forms, norms, rotations,
    commutators) is formed on the whole grid, with the per-point bits.
    """
    _check_positive("tol", tol)
    if nu_grid is None:
        nus = problem.nu_grid.values
    elif isinstance(nu_grid, FrequencyGrid):
        nus = nu_grid.values
    else:
        nus = FrequencyGrid(nu_grid, "nu").values
    nus = nus[nus > 0.0]

    a3 = problem.alpha**3
    n0 = SymTensor3.from_matrix(a3 * (problem.theta0.T @ problem.theta0), asym_tol=1e-9)
    model = eigen_model(problem, n0)
    if corrupt_coupling:
        model = _corrupt_first_coupling(model)
    lam_raw, phi = np.linalg.eigh(problem.k_matrix)
    proj = phi.T @ problem.theta0

    q = Rotation3(_orthogonal(np.random.default_rng(20190531), 3))
    model_rot = rotate_model(model, q)

    # derived commutator bound constants (Cauchy-Schwarz through the
    # alternative forms): T0^2 = sum of squared couplings, E1 weighted by
    # lam; numpy scalars, so that past the float range they become inf or 0
    t0_sq = sum((m.couplings**2).sum() for m in model.modes)
    e1 = np.sqrt(sum(np.float64(m.lam)**2 * (m.couplings**2).sum() for m in model.modes))
    r_bar, i_bar = 0.25 * a3 * e1 * np.sqrt(t0_sq), 0.5 * a3 * t0_sq
    bounds = np.array([6.0 * r_bar * i_bar, 6.0 * r_bar**2, 6.0 * i_bar**2])  # RI, RR, II
    single_mode = len(model.modes) == 1
    if not single_mode:  # the growth bound divides by them
        _in_range(bounds, "commutator bound constants leave the normal floats", normal=True)

    # the worst relative violation of each check over the grid, in report
    # order
    comm_zero = "commutator_single_mode_zero" if single_mode else "commutator_diagonal_zero"
    worst = dict.fromkeys(
        ("series_vs_direct_solve", "assemble_vs_energy_direct", "energy_alternative_forms",
         "definiteness_R_I", "offdiagonal_bounds", "rotation_equivariance",
         "inflection_stationary_coincidence" if single_mode else "commutator_growth_bound",
         comm_zero, "infinite_frequency_limit"),
        0.0,
    )

    def record(name: str, *columns) -> None:
        # a running max over each point's values (one per column), in grid order
        worst[name] = max([worst[name], *np.column_stack(columns).ravel().tolist()])

    # one LU solve per nu feeds the series check and both energy forms
    theta1, series = [], []
    for nu in nus:
        theta1.append(direct_theta1(problem, nu))
        beta_diag = -1j * nu / (1j * nu - lam_raw)
        theta1_series = phi @ (beta_diag[:, None] * proj)
        series.append(
            _rel(np.linalg.norm(theta1[-1] - theta1_series), np.linalg.norm(theta1[-1])))
    record("series_vs_direct_solve", np.array(series))
    theta1 = np.array(theta1, dtype=complex).reshape(-1, problem.dim, 3)

    def norms(blocks):  # of packed (2, points, 6) R and I
        return _in_range(_norms(blocks), "tensor norm exceeds the float range")

    def diff(a, b):  # |a_R - b_R| + |a_I - b_I| at each point
        d = norms(_in_range(a - b, "tensor arithmetic exceeds the float range"))
        return d[0] + d[1]

    direct = _energy_direct(problem, nus, theta1)
    mod, rot = _packed_ri(model, nus), _packed_ri(model_rot, nus)
    n_direct, n_mod = norms(direct), norms(mod)
    scale = np.maximum(n_direct[0] + n_direct[1], 1e-300)
    record("assemble_vs_energy_direct", diff(mod, direct) / scale)
    record("energy_alternative_forms", diff(_energy_alt(problem, nus, theta1), direct) / scale)
    rotated = _in_range(_rotated(mod, q), "rotated tensor exceeds the float range")
    rotation = diff(rot, _symmetric_packed(rotated, 1e-9)) / scale

    per_nu = []  # the eigenvalues and off-diagonal bounds
    for r_mod, i_mod, r_rot, nr, ni in zip(
        *map(SymTensor3._rows, (mod[0], mod[1], rot[0])), *n_mod.tolist()
    ):
        (eig_r, _), (eig_i, _), (er_rot, _) = map(eigen_sym3, (r_mod, i_mod, r_rot))
        rep = offdiag_bound_report(r_mod, i_mod)
        per_nu.append((
            _rel(max(eig_r.max(), 0.0), nr),
            _rel(max(-eig_i.min(), 0.0), ni),
            _rel(max(-rep.margin_r, 0.0), abs(r_mod.trace())),
            _rel(max(-rep.margin_i, 0.0), i_mod.trace()),
            _rel(np.abs(er_rot - eig_r).max(), nr),
        ))
    per_nu = np.array(per_nu).reshape(-1, 5).T
    record("definiteness_R_I", *per_nu[:2])
    record("offdiagonal_bounds", *per_nu[2:4])
    record("rotation_equivariance", rotation, per_nu[4])

    nus2 = np.roll(nus, -7)  # the point 7 further on, cyclically
    z = [commutator_Z(model, nus, nus2, kind=kind) for kind in ("RI", "RR", "II")]
    peaks = [np.abs(zk).max(axis=(1, 2)) for zk in z]
    zscale = np.maximum(n_mod[0] * n_mod[1], 1e-300)
    # diagonal commutator entries vanish for any object
    diagonal = np.abs(np.diagonal(z[0], axis1=1, axis2=2)).max(axis=1) / zscale
    if single_mode:
        record(comm_zero, *(p / zscale for p in peaks), diagonal)
    else:
        weights = (nus, 1.0, nus * nus2)  # |Z_RI| / nu, |Z_RR|, |Z_II| / (nu nu2)
        record("commutator_growth_bound",
               *(np.maximum(p / w - c, 0.0) / c for p, w, c in zip(peaks, weights, bounds)))
        record(comm_zero, diagonal)

    m0, minf = limit_tensors(model)
    # stationary point of I_ii coincides with the inflection of R_ii for a
    # single-mode model, analytically at nu = lam_1
    if single_mode:
        _, d2_r, d_i = assemble_dlog(model, model.modes[0].lam)
        a1 = minf - m0  # the one residue A_1
        record(
            "inflection_stationary_coincidence",
            _rel(d2_r.norm(), a1.norm()),
            _rel(d_i.norm(), a1.norm()),
        )

    nu_huge = 1e9 * model.modes[-1].lam
    r_huge = assemble(model, nu_huge)[0]
    record(
        "infinite_frequency_limit",
        _rel((minf - (model.n0 + r_huge)).norm(), max(minf.norm(), m0.norm())),
    )

    checks = tuple(
        IdentityCheck(name, v, tol, v <= tol, _NOTES.get(name, ""))
        for name, v in worst.items()
    )
    return VerificationReport(problem.dim, int(nus.size), checks)
