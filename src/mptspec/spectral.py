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

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import DomainError, InvalidInputError, NoDominantModeError
from .tensors import (
    ComplexSymTensor3,
    Rotation3,
    SymTensor3,
    _PACK_FLAT,
    _TINY,
    _in_range,
    _number_array,
    _shown,
    is_number,
    packed_index,
    rotate_tensor,
    unpack,
)

MU0 = 4.0e-7 * np.pi  # permeability of free space, H/m

PROVENANCES = ("sphere-analytic", "surrogate", "external", "manual")

# eigenvalues closer than this relative gap are one mode with multiplicity
MULTIPLICITY_REL_GAP = 1e-8


# the scalar-argument rules of the public entry points, built on is_number
def _check_nu(x, name="nu", positive=False):
    # a dimensionless frequency, nu = omega mu0 sigma_star alpha^2
    if not (is_number(x) and (x > 0.0 if positive else x >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"{name} must be finite and {sign}, got {_shown(x)}")
    return x


def _check_positive(name, x):
    if not (is_number(x) and x > 0.0):
        raise InvalidInputError(f"{name} must be positive and finite, got {_shown(x)}")


def _check_count(name, x, minimum):
    if not (is_number(x, Integral) and x >= minimum):
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {_shown(x)}")
    return x


def _check_index(name, n, size):
    # 0-based, so no negative index counts from the end
    if not (is_number(n, Integral) and 0 <= n < size):
        raise InvalidInputError(f"{name} {_shown(n)} out of range")
    return n


def _frozen(values, dtype=float) -> np.ndarray:
    # a private read-only copy, so no caller can change a checked object or
    # a cache built from it
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _time_constant(alpha, sigma_star):
    # mu0 sigma_star alpha^2, the seconds per unit of nu
    return MU0 * sigma_star * alpha**2


def _check_scale(alpha, sigma_star) -> None:
    # the one scale rule of every model-like object: alpha^3 scales each
    # tensor and the time constant each frequency
    _check_positive("alpha", alpha)
    _check_positive("sigma_star", sigma_star)
    try:
        with np.errstate(over="ignore"):
            cube, tau = float(alpha**3), float(_time_constant(alpha, sigma_star))
    except OverflowError:  # a Python float's ** raises instead
        cube = tau = math.inf
    if not (_TINY <= cube < math.inf and _TINY <= tau < math.inf):
        raise InvalidInputError("alpha^3 and the time constant must be normal floats")


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
        _check_positive("lam", self.lam)
        _check_count("multiplicity", self.multiplicity, 1)
        if not isinstance(self.dark, (bool, np.bool_)):
            raise InvalidInputError(f"dark must be a bool, got {_shown(self.dark)}")
        c = _frozen(_number_array("couplings", self.couplings))
        if c.shape != (self.multiplicity, 3):
            raise InvalidInputError(
                f"couplings must be {self.multiplicity}x3, got {c.shape}"
            )
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
        _check_scale(self.alpha, self.sigma_star)
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {_shown(self.provenance)}")
        if not isinstance(self.topology_flag, (str, type(None))):
            raise InvalidInputError("topology_flag must be a string or None")
        bound = self.tail_bound
        if bound is not None and not (is_number(bound) and bound >= 0.0):
            raise InvalidInputError(f"tail_bound must be finite and >= 0, got {_shown(bound)}")
        object.__setattr__(self, "modes", tuple(self.modes))
        lams = [m.lam for m in self.modes]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise InvalidInputError(
                "mode eigenvalues must be strictly increasing; merge equal "
                "eigenvalues into one mode via multiplicity"
            )
        # |C^T C| is at most its largest diagonal entry and a contraction
        # weighs each residue by at most 1, so no residue, sum or N0 + R overflows
        with np.errstate(over="ignore"):
            peak = max((m.lam * (m.couplings**2).sum(0).max() for m in self.modes), default=0)
            bound = self.alpha**3 / 4.0 * peak * len(self.modes) + np.abs(self.n0.coeffs).max()
        _in_range(bound, "mode residues or N0 + R exceed the float range")

    @property
    def mu0(self) -> float:
        return MU0

    @property
    def time_constant(self) -> float:
        """mu0 * sigma_star * alpha^2, the seconds-per-unit-nu scale."""
        return _time_constant(self.alpha, self.sigma_star)

    def nu_from_omega(self, omega):
        """Dimensionless frequency nu = omega * sigma * mu0 * alpha^2."""
        return _number_array("omega", omega) * self.time_constant

    def omega_from_nu(self, nu):
        return _number_array("nu", nu) / self.time_constant


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing grid of nu (dimensionless) or omega (rad/s) values."""

    values: np.ndarray
    kind: str = "nu"

    def __post_init__(self):
        v = _frozen(_number_array("grid values", self.values))
        if self.kind not in ("nu", "omega"):
            raise InvalidInputError("grid kind must be 'nu' or 'omega'")
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("grid must be a nonempty 1-D array")
        if np.any(v < 0.0) or np.any(np.diff(v) <= 0.0):
            raise InvalidInputError("grid must be nonnegative and strictly increasing")
        object.__setattr__(self, "values", v)

    def to_nu(self, model: SpectralModel) -> np.ndarray:
        if self.kind == "nu":
            return self.values.copy()
        return model.nu_from_omega(self.values)


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
    _check_positive("lam", lam)
    re, im, _ = _beta_parts(_check_nu(nu), lam)
    return complex(float(re), float(im))


def beta_dlog(nu: float, lam: float) -> tuple[float, float, float]:
    """Log-frequency derivatives of beta: (dRe/dlog, d2Re/dlog2, dIm/dlog).

    dRe/dlog = -2 (Im beta)^2 and the second derivative and dIm/dlog carry
    the extra factor (lam^2 - nu^2)/(lam^2 + nu^2), which flips sign at the
    balance point nu = lam.
    """
    _check_positive("lam", lam)
    return tuple(float(d) for d in _dlog_parts(_check_nu(nu, positive=True), lam))


def _dlog_parts(nu, lam):
    _, im, ratio = _beta_parts(nu, lam)
    return -2.0 * im * im, -4.0 * im * im * ratio, im * ratio


def mode_tensor(model: SpectralModel, n: int) -> SymTensor3:
    """Residue tensor of mode ``n``: -(alpha^3 lam / 4) * C^T C.

    Negative semidefinite with rank at most the mode multiplicity.
    """
    mode = model.modes[_check_index("mode index", n, len(model.modes))]
    scale = -(model.alpha**3) * mode.lam / 4.0
    # C^T C is exactly symmetric, so its packed entries are the tensor
    return SymTensor3((scale * mode.gram()).take(_PACK_FLAT))


def _core(model: SpectralModel) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, shape (n,), and packed residues A_n, shape (n, 6).

    Built on first use and cached on the model; both the model and its
    modes are immutable, so the cache cannot go stale.
    """
    core = model.__dict__.get("_core")
    if core is None:
        n = len(model.modes)
        lams = _frozen([m.lam for m in model.modes])
        a = _frozen([mode_tensor(model, k).coeffs for k in range(n)]).reshape(n, 6)
        core = (lams, a)
        object.__setattr__(model, "_core", core)
    return core


def _decay_rates(model: SpectralModel) -> np.ndarray:
    """Decay rates s_n = -lam_n / time_constant, shape (n,), each finite and
    below 0: a quotient that overflows to -inf, or underflows to -0.0, is no
    decay rate and raises NumericRangeError."""
    lams, _ = _core(model)
    with np.errstate(over="ignore", under="ignore"):
        rates = -lams / model.time_constant
    rates = np.where(rates < 0.0, rates, np.nan)  # refuse one that underflowed to -0.0
    return _in_range(rates, "decay rates lam_n / time_constant leave the float range")


def _contract(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    # -sum_n w_n A_n for each row of weights; 0.0 - keeps exact zero
    # coefficients at +0.0, as the sum from a zero start gives them
    return 0.0 - weights @ a


def _packed_ri(model: SpectralModel, nu) -> np.ndarray:
    """Packed R and I at nu, shape (2, 6), or at each nu of a 1-D array,
    shape (2, points, 6), with the bits of the one-nu contraction."""
    lams, a = _core(model)
    if getattr(nu, "ndim", 0):  # one (2, n) @ (n, 6) product per point
        re, im, _ = _beta_parts(nu[:, None], lams)
        return _contract(np.stack((re, im), axis=1), a).swapaxes(0, 1)
    re, im, _ = _beta_parts(nu, lams)
    return _contract(np.stack((re, im)), a)


def assemble(
    model: SpectralModel, nu: float
) -> tuple[SymTensor3, SymTensor3, ComplexSymTensor3]:
    """Assemble (R, I, M) at dimensionless frequency nu.

    R(nu) = sum_n [nu^2/(nu^2+lam_n^2)] A_n is negative semidefinite,
    I(nu) = -sum_n [nu lam_n/(nu^2+lam_n^2)] A_n positive semidefinite, and
    M = N0 + R + iI.
    """
    ri = _packed_ri(model, _check_nu(nu))  # N0 + R is a third row, in range by the residue bound
    r_t, i_t, m_real = SymTensor3._rows(np.concatenate((ri, (model.n0.coeffs + ri[0])[None])))
    return r_t, i_t, ComplexSymTensor3(m_real, i_t)


def assemble_dlog(
    model: SpectralModel, nu: float
) -> tuple[SymTensor3, SymTensor3, SymTensor3]:
    """Log-frequency derivatives (dR/dlog, d2R/dlog2, dI/dlog) at nu > 0."""
    _check_nu(nu, positive=True)
    lams, a = _core(model)
    return tuple(SymTensor3._rows(_contract(np.stack(_dlog_parts(nu, lams)), a)))


def limit_tensors(model: SpectralModel) -> tuple[SymTensor3, SymTensor3]:
    """Zero- and infinite-frequency limits (M0, Minf) = (N0, N0 + sum A_n)."""
    _, a = _core(model)
    return model.n0, model.n0 + SymTensor3(a.sum(axis=0))


def dominant_mode(model: SpectralModel, i: int, j: int, nu_max: float) -> int:
    """Index of the mode dominating coefficient (i, j) for nu in (0, nu_max].

    Scores each mode by the peak of |Im beta_n| * |A_n_ij| on the band; the
    peak sits at nu = min(lam_n, nu_max).  Ties break toward smaller lam.
    """
    _check_nu(nu_max, "nu_max", positive=True)
    lams, a = _core(model)
    _, im, _ = _beta_parts(np.minimum(lams, nu_max), lams)
    scores = np.abs(a[:, packed_index(i, j)]) * im
    if not np.any(scores > 0.0):
        raise NoDominantModeError(
            f"all mode contributions to coefficient ({i},{j}) are zero"
        )
    return int(np.argmax(scores))


@np.errstate(over="ignore")  # only the last ldexp can overflow, and the rule refuses it
def commutator_Z(
    model: SpectralModel, nu1, nu2=None, kind: str = "RI"
) -> np.ndarray:
    """Commutator matrix diagnosing shared eigenvectors of R and I.

    kind 'RI' uses nu1 only and returns R(nu1) I(nu1) - I(nu1) R(nu1);
    'RR' and 'II' commute the same tensor at two frequencies nu1, nu2.
    Diagonal entries vanish identically; single-mode models give zero.
    R and I come from the same contraction of the cached core that
    :func:`assemble` makes, as dense 3x3 matrices, with no tensor objects.
    A 1-D array nu1, with nu2 one frequency or an array of its shape, gives
    (points, 3, 3), each matrix the bits of its one-point call.  Only a
    commutator beyond the float range raises NumericRangeError.
    """
    grid = any(isinstance(x, (list, tuple)) or getattr(x, "ndim", 0) for x in (nu1, nu2))
    if grid:
        named = (("nu1", nu1), ("nu2", nu2))
        nu1, nu2 = (x if x is None else _number_array(n, x) for n, x in named)
        for n, x in zip(("nu1", "nu2"), (nu1, nu2)):
            if x is not None and (x <= 0.0).any():
                bad = _shown(float(x[x <= 0.0][0]))
                raise DomainError(f"{n} must be finite and positive, got {bad}")
        if nu1.ndim != 1 or np.shape(nu2) not in ((), nu1.shape):
            raise InvalidInputError(f"need a 1-D nu1 and nu2 of its shape or one nu2, "
                                    f"got {nu1.shape}, {np.shape(nu2)}")
    else:
        _check_nu(nu1, "nu1", positive=True)
        if nu2 is not None:
            _check_nu(nu2, "nu2", positive=True)
    if kind == "RI":
        rows = _packed_ri(model, nu1)
    elif kind in ("RR", "II"):
        if nu2 is None:
            raise DomainError(f"kind {kind} requires a positive nu2")
        pick = 0 if kind == "RR" else 1
        nu2 = np.broadcast_to(nu2, nu1.shape) if grid else nu2
        rows = np.stack((_packed_ri(model, nu1)[pick], _packed_ri(model, nu2)[pick]))
    else:
        raise InvalidInputError(f"unknown commutator kind {_shown(kind)}")
    # a power of two per point scales each factor to a largest entry below 1,
    # exactly, so the products cannot overflow and in-range results do not move
    ea, eb = np.frexp(np.abs(rows).max(axis=-1))[1][..., None, None]
    a, b = unpack(rows)
    a, b = np.ldexp(a, -ea), np.ldexp(b, -eb)
    return _in_range(np.ldexp(a @ b - b @ a, ea + eb), "commutator exceeds the float range")


def modes_from_eigenvalues(
    lams, coupling_rows, rel_gap: float = MULTIPLICITY_REL_GAP
) -> tuple[Mode, ...]:
    """Group raw (eigenvalue, coupling-row) pairs into modes.

    Eigenvalues with relative gap below ``rel_gap`` merge into one mode whose
    multiplicity counts the merged eigenfunctions; numerical eigensolvers
    split exact multiplicities and this undoes that.  Rows of zero-coupling
    groups are kept as dark modes.
    """
    lams = _number_array("eigenvalues", lams)
    rows = _number_array("coupling rows", coupling_rows)
    if lams.ndim != 1 or rows.shape != (lams.size, 3):
        raise InvalidInputError("need matching eigenvalue list and (n, 3) couplings")
    if np.any(np.diff(lams) < 0.0):
        raise InvalidInputError("eigenvalues must be sorted ascending")
    # a group ends where the next eigenvalue lies more than rel_gap above it
    ends = np.flatnonzero(np.diff(lams) > rel_gap * np.abs(lams[1:])) + 1
    bounds = [0, *ends.tolist(), lams.size] if lams.size else []
    return tuple(
        Mode(float(lams[a:b].mean()), b - a, rows[a:b],
             dark=np.abs(rows[a:b]).max() == 0.0)
        for a, b in zip(bounds, bounds[1:])
    )


def rotate_model(model: SpectralModel, q: Rotation3) -> SpectralModel:
    """Model of the rotated object: couplings c -> c Q^T, N0 rotated."""
    return replace(
        model,
        n0=rotate_tensor(model.n0, q),
        modes=tuple(replace(m, couplings=m.couplings @ q.matrix.T) for m in model.modes),
    )
