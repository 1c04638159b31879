"""Spectral signature of a conducting permeable object.

A :class:`SpectralModel` stores the object's size, conductivity, its
magnetostatic tensor and an ordered list of eigenmodes.  Every mode carries a
positive eigenvalue ``lam`` and a coupling matrix whose rows couple the mode
to the three excitation directions.  The frequency dependence of the
polarizability tensor follows from the spectral response function

    beta(nu, lam) = -i nu / (i nu - lam),

evaluated at the dimensionless frequency nu = omega * sigma * mu0 * alpha^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, NoDominantModeError
from .tensors import (
    ComplexSymTensor3,
    Rotation3,
    SymTensor3,
    packed_index,
    rotate_tensor,
)

MU0 = 4.0e-7 * np.pi  # permeability of free space, H/m

PROVENANCES = ("sphere-analytic", "surrogate", "external", "manual")

# eigenvalues closer than this relative gap are one mode with multiplicity
MULTIPLICITY_REL_GAP = 1e-8


@dataclass(frozen=True)
class Mode:
    """One eigenvalue with its multiplicity and coupling rows.

    ``couplings`` has shape (multiplicity, 3); row k, column i holds the
    inner product of the k-th eigenfunction with the source field of the
    i-th excitation direction.  A dark mode couples to nothing and must be
    marked explicitly.
    """

    lam: float
    multiplicity: int
    couplings: np.ndarray
    dark: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise InvalidInputError(f"mode eigenvalue must be positive, got {self.lam}")
        if self.multiplicity < 1:
            raise InvalidInputError("multiplicity must be >= 1")
        # a private read-only copy, so no caller can change a cached core
        c = np.array(self.couplings, dtype=float)
        c.setflags(write=False)
        if c.shape != (self.multiplicity, 3):
            raise InvalidInputError(
                f"couplings must be {self.multiplicity}x3, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("couplings must be finite")
        if not self.dark and np.abs(c).max() == 0.0:
            raise InvalidInputError("all-zero couplings require dark=True")
        object.__setattr__(self, "couplings", c)

    def gram(self) -> np.ndarray:
        """Sum over eigenfunctions of the coupling outer products, C^T C."""
        return self.couplings.T @ self.couplings


@dataclass(frozen=True)
class SpectralModel:
    """Object signature: size, conductivity, magnetostatic tensor and modes."""

    alpha: float
    sigma_star: float
    n0: SymTensor3
    modes: tuple[Mode, ...]
    provenance: str = "manual"
    topology_flag: str | None = None
    tail_bound: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidInputError("alpha must be positive")
        if not (np.isfinite(self.sigma_star) and self.sigma_star > 0.0):
            raise InvalidInputError("sigma_star must be positive")
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "modes", tuple(self.modes))
        lams = [m.lam for m in self.modes]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise InvalidInputError(
                "mode eigenvalues must be strictly increasing; merge equal "
                "eigenvalues into one mode via multiplicity"
            )

    @property
    def mu0(self) -> float:
        return MU0

    @property
    def time_constant(self) -> float:
        """mu0 * sigma_star * alpha^2, the seconds-per-unit-nu scale."""
        return MU0 * self.sigma_star * self.alpha**2

    def nu_from_omega(self, omega):
        """Dimensionless frequency nu = omega * sigma * mu0 * alpha^2."""
        return np.asarray(omega, dtype=float) * self.time_constant

    def omega_from_nu(self, nu):
        return np.asarray(nu, dtype=float) / self.time_constant


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing grid of nu (dimensionless) or omega (rad/s) values."""

    values: np.ndarray
    kind: str = "nu"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.kind not in ("nu", "omega"):
            raise InvalidInputError("grid kind must be 'nu' or 'omega'")
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise InvalidInputError("grid must be a finite 1-D array")
        if np.any(v < 0.0) or np.any(np.diff(v) <= 0.0):
            raise InvalidInputError("grid must be nonnegative and strictly increasing")
        object.__setattr__(self, "values", v)

    def to_nu(self, model: SpectralModel) -> np.ndarray:
        if self.kind == "nu":
            return self.values.copy()
        return model.nu_from_omega(self.values)


def _finite(nu: float, name: str = "nu") -> float:
    if not np.isfinite(nu):
        raise DomainError(f"{name} must be finite, got {nu}")
    return nu


def _beta_parts(nu, lam):
    # overflow-safe: work with the smaller/larger ratio so nu^2 + lam^2 is
    # never formed; also returns (lam^2 - nu^2)/(lam^2 + nu^2).  Broadcasts
    # over arrays; nu = 0 gives exact zeros since max(nu, lam) = lam > 0.
    low = nu <= lam
    x = np.minimum(nu, lam) / np.maximum(nu, lam)
    x2 = x * x
    denom = 1.0 + x2
    re = -np.where(low, x2, 1.0) / denom
    im = x / denom
    ratio = np.where(low, 1.0 - x2, x2 - 1.0) / denom
    return re, im, ratio


def beta(nu: float, lam: float) -> complex:
    """Spectral response -i nu / (i nu - lam) of a single mode.

    Real part -nu^2/(nu^2+lam^2) decreases from 0 to -1 with nu; imaginary
    part nu*lam/(nu^2+lam^2) has a single maximum 1/2 at nu = lam.
    """
    if not (np.isfinite(lam) and lam > 0.0):
        raise InvalidInputError(f"mode eigenvalue must be positive, got {lam}")
    if _finite(nu) < 0.0:
        raise DomainError("nu must be nonnegative")
    re, im, _ = _beta_parts(nu, lam)
    return complex(float(re), float(im))


def beta_dlog(nu: float, lam: float) -> tuple[float, float, float]:
    """Log-frequency derivatives of beta: (dRe/dlog, d2Re/dlog2, dIm/dlog).

    dRe/dlog = -2 (Im beta)^2 and the second derivative and dIm/dlog carry
    the extra factor (lam^2 - nu^2)/(lam^2 + nu^2), which flips sign at the
    balance point nu = lam.
    """
    if not (np.isfinite(lam) and lam > 0.0):
        raise InvalidInputError(f"mode eigenvalue must be positive, got {lam}")
    if _finite(nu) <= 0.0:
        raise DomainError("log-frequency derivative requires nu > 0")
    return tuple(float(d) for d in _dlog_parts(nu, lam))


def _dlog_parts(nu, lam):
    _, im, ratio = _beta_parts(nu, lam)
    return -2.0 * im * im, -4.0 * im * im * ratio, im * ratio


def mode_tensor(model: SpectralModel, n: int) -> SymTensor3:
    """Residue tensor of mode ``n``: -(alpha^3 lam / 4) * C^T C.

    Negative semidefinite with rank at most the mode multiplicity.
    """
    mode = model.modes[n]
    scale = -(model.alpha**3) * mode.lam / 4.0
    return SymTensor3.from_matrix(scale * mode.gram())


def _core(model: SpectralModel) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, shape (n,), and packed residues A_n, shape (n, 6).

    Built on first use and cached on the model; both the model and its
    modes are immutable, so the cache cannot go stale.
    """
    core = model.__dict__.get("_core")
    if core is None:
        n = len(model.modes)
        lams = np.array([m.lam for m in model.modes], dtype=float)
        a = np.array([mode_tensor(model, k).coeffs for k in range(n)]).reshape(n, 6)
        lams.setflags(write=False)
        a.setflags(write=False)
        core = (lams, a)
        object.__setattr__(model, "_core", core)
    return core


def _contract(weights: np.ndarray, a: np.ndarray) -> list[SymTensor3]:
    # -sum_n w_n A_n for each row of weights; 0.0 - keeps exact zero
    # coefficients at +0.0, as the sum from a zero start gives them
    return [SymTensor3(row) for row in 0.0 - weights @ a]


def assemble(
    model: SpectralModel, nu: float
) -> tuple[SymTensor3, SymTensor3, ComplexSymTensor3]:
    """Assemble (R, I, M) at dimensionless frequency nu.

    R(nu) = sum_n [nu^2/(nu^2+lam_n^2)] A_n is negative semidefinite,
    I(nu) = -sum_n [nu lam_n/(nu^2+lam_n^2)] A_n positive semidefinite, and
    M = N0 + R + iI.
    """
    if _finite(nu) < 0.0:
        raise DomainError("nu must be nonnegative")
    lams, a = _core(model)
    re, im, _ = _beta_parts(nu, lams)
    r_t, i_t = _contract(np.stack((re, im)), a)
    return r_t, i_t, ComplexSymTensor3(model.n0 + r_t, i_t)


def assemble_dlog(
    model: SpectralModel, nu: float
) -> tuple[SymTensor3, SymTensor3, SymTensor3]:
    """Log-frequency derivatives (dR/dlog, d2R/dlog2, dI/dlog) at nu > 0."""
    if _finite(nu) <= 0.0:
        raise DomainError("log-frequency derivative requires nu > 0")
    lams, a = _core(model)
    return tuple(_contract(np.stack(_dlog_parts(nu, lams)), a))


def limit_tensors(model: SpectralModel) -> tuple[SymTensor3, SymTensor3]:
    """Zero- and infinite-frequency limits (M0, Minf) = (N0, N0 + sum A_n)."""
    _, a = _core(model)
    return model.n0, model.n0 + SymTensor3(a.sum(axis=0))


def dominant_mode(model: SpectralModel, i: int, j: int, nu_max: float) -> int:
    """Index of the mode dominating coefficient (i, j) for nu in (0, nu_max].

    Scores each mode by the peak of |Im beta_n| * |A_n_ij| on the band; the
    peak sits at nu = min(lam_n, nu_max).  Ties break toward smaller lam.
    """
    if _finite(nu_max, "nu_max") <= 0.0:
        raise DomainError("nu_max must be positive")
    lams, a = _core(model)
    _, im, _ = _beta_parts(np.minimum(lams, nu_max), lams)
    scores = np.abs(a[:, packed_index(i, j)]) * im
    if not np.any(scores > 0.0):
        raise NoDominantModeError(
            f"all mode contributions to coefficient ({i},{j}) are zero"
        )
    return int(np.argmax(scores))


def commutator_Z(
    model: SpectralModel, nu1: float, nu2: float | None = None, kind: str = "RI"
) -> np.ndarray:
    """Commutator matrix diagnosing shared eigenvectors of R and I.

    kind 'RI' uses nu1 only and returns R(nu1) I(nu1) - I(nu1) R(nu1);
    'RR' and 'II' commute the same tensor at two frequencies nu1, nu2.
    Diagonal entries vanish identically; single-mode models give zero.
    """
    if _finite(nu1, "nu1") <= 0.0:
        raise DomainError("nu1 must be positive")
    if nu2 is not None:
        _finite(nu2, "nu2")
    if kind == "RI":
        r, i, _ = assemble(model, nu1)
        a, b = r.matrix, i.matrix
    elif kind in ("RR", "II"):
        if nu2 is None or nu2 <= 0.0:
            raise DomainError(f"kind {kind} requires a positive nu2")
        t1 = assemble(model, nu1)
        t2 = assemble(model, nu2)
        pick = 0 if kind == "RR" else 1
        a, b = t1[pick].matrix, t2[pick].matrix
    else:
        raise InvalidInputError(f"unknown commutator kind {kind!r}")
    return a @ b - b @ a


def modes_from_eigenvalues(
    lams, coupling_rows, rel_gap: float = MULTIPLICITY_REL_GAP
) -> tuple[Mode, ...]:
    """Group raw (eigenvalue, coupling-row) pairs into modes.

    Eigenvalues with relative gap below ``rel_gap`` merge into one mode whose
    multiplicity counts the merged eigenfunctions; numerical eigensolvers
    split exact multiplicities and this undoes that.  Rows of zero-coupling
    groups are kept as dark modes.
    """
    lams = np.asarray(lams, dtype=float)
    rows = np.asarray(coupling_rows, dtype=float)
    if lams.ndim != 1 or rows.shape != (lams.size, 3):
        raise InvalidInputError("need matching eigenvalue list and (n, 3) couplings")
    if np.any(np.diff(lams) < 0.0):
        raise InvalidInputError("eigenvalues must be sorted ascending")
    modes = []
    start = 0
    for k in range(1, lams.size + 1):
        if k < lams.size and (lams[k] - lams[k - 1]) <= rel_gap * abs(lams[k]):
            continue
        group = slice(start, k)
        lam = float(lams[group].mean())
        c = rows[group]
        dark = np.abs(c).max() == 0.0
        modes.append(Mode(lam, k - start, c, dark=dark))
        start = k
    return tuple(modes)


def rotate_model(model: SpectralModel, q: Rotation3) -> SpectralModel:
    """Model of the rotated object: couplings c -> c Q^T, N0 rotated."""
    modes = tuple(
        Mode(m.lam, m.multiplicity, m.couplings @ q.matrix.T, dark=m.dark)
        for m in model.modes
    )
    return SpectralModel(
        alpha=model.alpha,
        sigma_star=model.sigma_star,
        n0=rotate_tensor(model.n0, q),
        modes=modes,
        provenance=model.provenance,
        topology_flag=model.topology_flag,
        tail_bound=model.tail_bound,
    )
