"""Pole-residue representation of the polarizability tensor in the complex plane.

On the physical axis the tensor is a rational function of w = i*nu with
simple poles at the mode eigenvalues on the positive real w-axis; in the
Laplace variable s = -i*omega the poles move to s_n = -lam_n / (mu0 sigma
alpha^2) on the negative real axis.  Each mode may carry a Taylor-subtraction
polynomial of degree ``nv`` that keeps the series absolutely convergent far
from the physical axis; nv = 0 reproduces spectral assembly exactly on the
imaginary w-axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PoleProximityError
from .spectral import MU0, SpectralModel, mode_tensor
from .tensors import ComplexSymTensor3, SymTensor3

POLE_PROXIMITY_REL = 1e-12
BOUNDARY_CIRCLE_POINTS = 256


@dataclass(frozen=True)
class PoleResidueExpansion:
    """Simple poles s_n < 0 with negative-semidefinite residue tensors A_n."""

    n0: SymTensor3
    poles_s: np.ndarray
    residues: tuple[SymTensor3, ...]
    nv: np.ndarray
    alpha: float
    sigma_star: float

    def __post_init__(self):
        poles = np.asarray(self.poles_s, dtype=float)
        nv = np.asarray(self.nv, dtype=int)
        object.__setattr__(self, "poles_s", poles)
        object.__setattr__(self, "nv", nv)
        object.__setattr__(self, "residues", tuple(self.residues))
        if poles.ndim != 1 or len(self.residues) != poles.size or nv.size != poles.size:
            raise InvalidInputError("poles, residues and nv must have equal length")
        if np.any(poles >= 0.0) or np.any(np.diff(poles) >= 0.0):
            raise InvalidInputError("poles must be negative and strictly decreasing")
        if np.any(nv < 0):
            raise InvalidInputError("Taylor-subtraction degrees must be >= 0")
        if not (self.alpha > 0.0 and self.sigma_star > 0.0):
            raise InvalidInputError("alpha and sigma_star must be positive")
        for k, a in enumerate(self.residues):
            top = np.linalg.eigvalsh(a.matrix).max()
            if top > 1e-10 * max(a.norm(), 1e-300):
                raise InvalidInputError(
                    f"residue {k} is not negative semidefinite (top eig {top:g})"
                )

    @property
    def scale_w_per_s(self) -> float:
        """w = -s * mu0 * sigma_star * alpha^2."""
        return MU0 * self.sigma_star * self.alpha**2

    @property
    def poles_w(self) -> np.ndarray:
        """Pole locations in the w-plane (positive real)."""
        return -self.poles_s * self.scale_w_per_s

    def n_poles(self) -> int:
        return self.poles_s.size


def from_model(model: SpectralModel, truncation: str = "zero") -> PoleResidueExpansion:
    """Build the expansion of a spectral model.

    ``truncation`` selects the Taylor-subtraction degrees: "zero" keeps
    nv = 0 for every mode (converges on the physical axis, which is where the
    expansion is evaluated by default), "auto" applies
    :func:`select_truncation` per mode for far-field complex-plane use.
    """
    tau = model.time_constant
    poles = np.array([-m.lam / tau for m in model.modes])
    residues = tuple(mode_tensor(model, n) for n in range(len(model.modes)))
    expansion = PoleResidueExpansion(
        n0=model.n0,
        poles_s=poles,
        residues=residues,
        nv=np.zeros(poles.size, dtype=int),
        alpha=model.alpha,
        sigma_star=model.sigma_star,
    )
    if truncation == "zero":
        return expansion
    if truncation == "auto":
        nv = np.array(
            [select_truncation(expansion, n) for n in range(expansion.n_poles())]
        )
        return PoleResidueExpansion(
            model.n0, poles, residues, nv, model.alpha, model.sigma_star
        )
    raise InvalidInputError(f"unknown truncation policy {truncation!r}")


def select_truncation(expansion: PoleResidueExpansion, n: int) -> int:
    """Smallest Taylor degree nv with 2^nv >= M_n 2^(n+1) for pole ``n``.

    M_n is the largest entry magnitude of the singular part on the circle
    |w| = lam_n / 2, sampled on a boundary grid (maximum-modulus principle
    makes interior points redundant).  ``n`` is the 0-based pole index; the
    convergence requirement counts poles from one.
    """
    lam = expansion.poles_w[n]
    a_max = np.abs(expansion.residues[n].coeffs).max()
    theta = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_CIRCLE_POINTS, endpoint=False)
    w = 0.5 * lam * np.exp(1j * theta)
    m_n = a_max * np.abs(w / (w - lam)).max()
    if m_n == 0.0:
        return 0
    nv = int(np.ceil(np.log2(m_n) + (n + 1)))
    # exact powers of two: ceil of the log can sit one below the requirement
    while 2.0**nv < m_n * 2.0 ** (n + 1):
        nv += 1
    return max(nv, 0)


def _term_coeff(w: complex, lam: float, nv: int) -> complex:
    # w/(w-lam) plus the subtracted Taylor polynomial; p(w) = -(x + ... + x^nv) A
    # leaves a zero of order nv+1 at w = 0
    coeff = w / (w - lam)
    if nv > 0:
        x = w / lam
        coeff += (x ** np.arange(1, nv + 1)).sum()
    return coeff


def _eval_w(expansion: PoleResidueExpansion, w: complex) -> np.ndarray:
    poles_w = expansion.poles_w
    too_close = np.abs(w - poles_w) <= POLE_PROXIMITY_REL * np.abs(poles_w)
    if np.any(too_close):
        k = int(np.nonzero(too_close)[0][0])
        raise PoleProximityError(
            f"evaluation point within {POLE_PROXIMITY_REL:g} of pole {k} "
            f"(w = {poles_w[k]:g})"
        )
    total = expansion.n0.matrix.astype(complex)
    for k in range(expansion.n_poles()):
        total = total + (
            _term_coeff(w, poles_w[k], int(expansion.nv[k]))
            * expansion.residues[k].matrix
        )
    return total


def evaluate(
    expansion: PoleResidueExpansion,
    point: complex,
    variable: str = "w",
    return_partial_sums: bool = False,
):
    """Evaluate the expansion at a complex point in the 'w' or 's' variable.

    Refuses points within a relative distance 1e-12 of any pole, where
    floating-point cancellation dominates.  With ``return_partial_sums`` the
    running entrywise partial sums (after each pole term) are returned as a
    second value for convergence monitoring.
    """
    if variable == "w":
        w = complex(point)
    elif variable == "s":
        w = -complex(point) * expansion.scale_w_per_s
    else:
        raise InvalidInputError(f"unknown variable {variable!r}")
    full = ComplexSymTensor3.from_matrix(_eval_w(expansion, w), asym_tol=1e-9)
    if not return_partial_sums:
        return full
    partials = []
    total = expansion.n0.matrix.astype(complex)
    for k in range(expansion.n_poles()):
        total = total + (
            _term_coeff(w, expansion.poles_w[k], int(expansion.nv[k]))
            * expansion.residues[k].matrix
        )
        partials.append(ComplexSymTensor3.from_matrix(total, asym_tol=1e-9))
    return full, partials


def residue_at_pole(expansion: PoleResidueExpansion, n: int) -> SymTensor3:
    """Residue of the expansion at s_n: lim (s - s_n) M(s) = s_n A_n."""
    if not 0 <= n < expansion.n_poles():
        raise InvalidInputError(f"pole index {n} out of range")
    return float(expansion.poles_s[n]) * expansion.residues[n]


def contour_residue(
    expansion: PoleResidueExpansion,
    n: int,
    rel_radius: float = 1e-6,
    points: int = 8,
) -> np.ndarray:
    """Numerical residue at pole n by averaging over a small circle in s.

    Cross-checks :func:`residue_at_pole`; the trapezoid average of
    f(s) (s - s_n) over the circle converges spectrally for a simple pole.
    """
    s_n = expansion.poles_s[n]
    radius = rel_radius * abs(s_n)
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    offsets = radius * np.exp(1j * theta)
    acc = np.zeros((3, 3), dtype=complex)
    for ds in offsets:
        acc += _eval_w(expansion, -(s_n + ds) * expansion.scale_w_per_s) * ds
    return acc / points
