"""Pole-residue representation of the polarizability tensor in the complex plane.

On the physical axis the tensor is a rational function of w = i*nu with
simple poles at the mode eigenvalues on the positive real w-axis; in the
Laplace variable s = -i*omega the poles move to s_n = -lam_n / (mu0 sigma
alpha^2) on the negative real axis.  The expansion is the Mittag-Leffler
construction (Mittag-Leffler's theorem; e.g. Ahlfors, *Complex Analysis*,
3rd ed., section 5.2.1) that arXiv:1906.00382 uses for the tensor:

    M(w) = N0 + sum_n [w/(w - lam_n) + x_n + x_n^2 + ... + x_n^nv_n] A_n,

with x_n = w / lam_n.  The Taylor-subtraction polynomial of degree nv_n
keeps the series absolutely convergent far from the physical axis; nv = 0
reproduces spectral assembly exactly on the imaginary w-axis.  Each bracket
has the closed form x_n^(nv_n + 1) / (x_n - 1), one expression that shows
the zero of order nv_n + 1 at w = 0 and that is evaluated for every pole
and point at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Complex, Integral

import numpy as np

from .errors import DomainError, InvalidInputError, PoleProximityError
from .spectral import (
    SpectralModel,
    _check_count,
    _check_index,
    _check_scale,
    _decay_rates,
    _frozen,
    _time_constant,
    mode_tensor,
)
from .tensors import ComplexSymTensor3, SymTensor3, _in_range, _number_array, _shown
from .tensors import is_number, unpack

POLE_PROXIMITY_REL = 1e-12


@dataclass(frozen=True)
class PoleResidueExpansion:
    """Simple poles s_n < 0 with negative-semidefinite residue tensors A_n."""

    n0: SymTensor3
    poles_s: np.ndarray
    residues: tuple[SymTensor3, ...]
    nv: np.ndarray
    alpha: float
    sigma_star: float
    # the residues' coefficients, shape (n, 6), read-only
    _packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        poles = _frozen(_number_array("poles", self.poles_s))
        nv = _frozen(_number_array("Taylor-subtraction degrees", self.nv, Integral), int)
        object.__setattr__(self, "poles_s", poles)
        object.__setattr__(self, "nv", nv)
        object.__setattr__(self, "residues", tuple(self.residues))
        if poles.ndim != 1 or len(self.residues) != poles.size or nv.size != poles.size:
            raise InvalidInputError("poles, residues and nv must have equal length")
        if np.any(poles >= 0.0) or np.any(np.diff(poles) >= 0.0):
            raise InvalidInputError("poles must be negative and strictly decreasing")
        if np.any(nv < 0):
            raise InvalidInputError("Taylor-subtraction degrees must be >= 0")
        _check_scale(self.alpha, self.sigma_star)
        packed = _frozen([a.coeffs for a in self.residues]).reshape(poles.size, 6)
        # half the Frobenius norm, from the eigenvalues: hypot forms no squares
        # and sqrt(3)/2 < 1, so it stays finite for every finite residue
        eig = np.linalg.eigvalsh(unpack(packed))
        top = eig.max(axis=1, initial=-np.inf)
        half = np.hypot.reduce(eig / 2.0, axis=1)
        bad = np.flatnonzero(top > 2e-10 * np.maximum(half, 0.5e-300))
        if bad.size:
            k = bad[0]
            raise InvalidInputError(
                f"residue {k} is not negative semidefinite (top eig {top[k]:g})"
            )
        object.__setattr__(self, "_packed", packed)

    @property
    def scale_w_per_s(self) -> float:
        """w = -s * mu0 * sigma_star * alpha^2."""
        return _time_constant(self.alpha, self.sigma_star)

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
    poles = _decay_rates(model)
    expansion = PoleResidueExpansion(
        n0=model.n0,
        poles_s=poles,
        residues=tuple(mode_tensor(model, n) for n in range(poles.size)),
        nv=np.zeros(poles.size, dtype=int),
        alpha=model.alpha,
        sigma_star=model.sigma_star,
    )
    if truncation == "zero":
        return expansion
    if truncation == "auto":
        # integers >= 0 by construction, so no second __post_init__ checks them
        nv = [select_truncation(expansion, n) for n in range(poles.size)]
        object.__setattr__(expansion, "nv", _frozen(nv, int))
        return expansion
    raise InvalidInputError(f"unknown truncation policy {_shown(truncation)}")


def select_truncation(expansion: PoleResidueExpansion, n: int) -> int:
    """Smallest Taylor degree nv with 2^nv >= M_n 2^(n+1) for pole ``n``.

    M_n is the largest entry magnitude of the singular part on the circle
    |w| = lam_n / 2.  There |w - lam_n| >= lam_n / 2, so the maximum of
    |w / (w - lam_n)| is exactly 1, reached at w = lam_n / 2, and M_n is the
    largest coefficient magnitude of the residue.  ``n`` is the 0-based pole
    index; the convergence requirement counts poles from one.
    """
    _check_index("pole index", n, expansion.n_poles())
    m_n = np.abs(expansion._packed[n]).max()
    if m_n == 0.0:
        return 0
    # m_n = f 2^e with 0.5 <= f < 1, so log2(m_n) lies in [e - 1, e), and at
    # e - 1 exactly when f = 0.5; no power of two is formed, so none overflows
    f, e = math.frexp(m_n)
    return max(n + 1 + e - (f == 0.5), 0)


def _terms(poles_w: np.ndarray, nv, w: np.ndarray) -> np.ndarray:
    """Bracket coefficients, shape (points, poles), at the points ``w``.

    w/(w - lam) + x + ... + x^nv = x^(nv+1) / (x - 1) with x = w / lam; the
    denominator is formed as (w - lam) / lam, which keeps full relative
    accuracy near the pole.  Refuses points within a relative distance 1e-12
    of any pole.
    """
    gap = w[:, None] - poles_w
    too_close = np.abs(gap) <= POLE_PROXIMITY_REL * poles_w
    if np.any(too_close):
        k = int(np.argwhere(too_close)[0, 1])
        raise PoleProximityError(
            f"evaluation point within {POLE_PROXIMITY_REL:g} of pole {k} "
            f"(w = {poles_w[k]:g})"
        )
    return (w[:, None] / poles_w) ** (nv + 1) * (poles_w / gap)


def _complex_tensor(coeffs: np.ndarray) -> ComplexSymTensor3:
    # packed coefficients are symmetric by construction
    return ComplexSymTensor3(SymTensor3(coeffs.real), SymTensor3(coeffs.imag))


def evaluate(
    expansion: PoleResidueExpansion,
    point: complex,
    variable: str = "w",
    return_partial_sums: bool = False,
):
    """Evaluate the expansion at a complex point in the 'w' or 's' variable.

    Refuses points within a relative distance 1e-12 of any pole, where
    floating-point cancellation dominates, and raises NumericRangeError
    where a term or the value leaves the float range.  With
    ``return_partial_sums`` the running entrywise partial sums (after each
    pole term) are returned as a second value for convergence monitoring;
    the full value is then the last of them.
    """
    if not is_number(point, Complex):
        raise DomainError(
            f"evaluation point must be a finite number, got {_shown(point)}"
        )
    point = complex(point)
    if variable not in ("w", "s"):
        raise InvalidInputError(f"unknown variable {_shown(variable)}")
    n0 = expansion.n0.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        w = point if variable == "w" else -point * expansion.scale_w_per_s
        coeff = _terms(expansion.poles_w, expansion.nv, np.array([w]))[0]
        if return_partial_sums:
            sums = n0 + np.cumsum(coeff[:, None] * expansion._packed, axis=0)
        else:
            sums = n0 + coeff @ expansion._packed
    _in_range(sums, "the expansion leaves the float range at this point")
    if not return_partial_sums:
        return _complex_tensor(sums)
    rows = zip(SymTensor3._rows(sums.real), SymTensor3._rows(sums.imag))
    partials = [ComplexSymTensor3(r, i) for r, i in rows]
    full = partials[-1] if partials else _complex_tensor(n0.astype(complex))
    return full, partials


def residue_at_pole(expansion: PoleResidueExpansion, n: int) -> SymTensor3:
    """Residue of the expansion at s_n: lim (s - s_n) M(s) = s_n A_n."""
    _check_index("pole index", n, expansion.n_poles())
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
    Only the singular parts w/(w - lam_k) are integrated: N0 and the Taylor
    polynomials are entire and have no residue, but near a high pole their
    average would cancel only down to rounding of their (large) size.
    Raises NumericRangeError where the radius or that average leaves the float range.
    """
    _check_index("pole index", n, expansion.n_poles())
    _check_count("points", points, 1)
    if not 0.0 < rel_radius < 1.0:
        raise InvalidInputError(f"rel_radius must lie in (0, 1), got {rel_radius}")
    s_n = expansion.poles_s[n]
    radius = rel_radius * abs(s_n)
    _in_range(radius, "contour radius {:g} at pole {} underflows", radius, n, normal=True)
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    offsets = radius * np.exp(1j * theta)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = _terms(expansion.poles_w, 0, -(s_n + offsets) * expansion.scale_w_per_s)
        average = offsets @ coeff @ expansion._packed / points
    return unpack(_in_range(average, "the contour average leaves the float range"))
