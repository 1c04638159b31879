"""Closed-form polarizability of a homogeneous conducting permeable sphere.

The sphere's tensor is isotropic, M(omega) = m(omega) * I, with the scalar
built from half-integer-order spherical Bessel functions of complex argument
v = k * alpha, k^2 = i omega mu0 mu_r sigma (branch Re k > 0):

    m = 2 pi alpha^3 (2 mu_r + 1 - g) / (mu_r - 1 + g),   g = v j0(v) / j1(v).

The same scalar, continued to the w = i*nu plane, is meromorphic with simple
poles at lam_n = v_n^2 / mu_r where v_n are the positive roots of
(mu_r - 1) j1(v) + v j0(v) = 0; this is the closed-form pole spectrum used to
extract a spectral model from the analytic solution.  At a pole g = 1 - mu_r
and dg/dv = (3g - g^2)/v - v, so with v_n^2 = mu_r lam_n the residues are
closed form too, summing to pec - static = -6 pi alpha^3 mu_r / (mu_r + 2):

    A_n = Res_w(m, lam_n) / lam_n = -12 pi alpha^3 mu_r / (v_n^2 + (mu_r - 1)(mu_r + 2))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, nnls

from .errors import InvalidInputError, PoleSpacingError
from .spectral import (
    Mode,
    SpectralModel,
    _check_count,
    _check_nu,
    _check_positive,
    _check_scale,
    _time_constant,
)
from .tensors import SymTensor3, _in_range, _shown, is_number

_SERIES_SWITCH = 0.2  # |v| below which the small-argument series is used


@dataclass(frozen=True)
class SphereSpec:
    """Radius (m), relative permeability and conductivity (S/m) of a sphere."""

    alpha: float
    mu_r: float
    sigma_star: float

    def __post_init__(self):
        _check_scale(self.alpha, self.sigma_star)
        _check_positive("mu_r", self.mu_r)
        # a finite static limit also bounds 2 pi alpha^3, the other limit
        with np.errstate(over="ignore", invalid="ignore"):
            if not abs(self.static_value()) < np.inf:
                raise InvalidInputError("alpha^3 and the time constant must be normal "
                                        "floats, and the static limit finite")

    @property
    def time_constant(self) -> float:
        return _time_constant(self.alpha, self.sigma_star)

    def static_value(self) -> float:
        """Magnetostatic polarizability 4 pi a^3 (mu_r - 1) / (mu_r + 2)."""
        return 4.0 * np.pi * self.alpha**3 * (self.mu_r - 1.0) / (self.mu_r + 2.0)

    def pec_value(self) -> float:
        """Perfect-conductor limit -2 pi a^3 of the real part."""
        return -2.0 * np.pi * self.alpha**3


def _g_ratio(v: complex) -> complex:
    """g(v) = v j0(v) / j1(v), even in v and Schwarz-symmetric.

    Small arguments use the Taylor series (the closed form cancels like v^3);
    elsewhere the exponentials are factored so nothing overflows however
    large Im(v) gets.  Callers hold ``np.errstate``: a huge |v| overflows.
    """
    v = complex(v)
    if abs(v) <= _SERIES_SWITCH:
        v2 = v * v
        return 3.0 - v2 / 5.0 - v2 * v2 / 175.0 - 2.0 * v2 * v2 * v2 / 7875.0
    if v.imag < 0.0:
        return np.conj(_g_ratio(np.conj(v)))
    # j0 = sin(v)/v, j1 = sin(v)/v^2 - cos(v)/v; divide through by e^{-iv},
    # the dominant exponential for Im(v) >= 0, so q = e^{2iv} has |q| <= 1
    q = np.exp(2j * v)
    num = v * v * (q - 1.0)
    den = (q - 1.0) - 1j * v * (q + 1.0)
    return _in_range(num / den, "Bessel ratio overflowed at |v| = {:g}", abs(v))


def _m_of_w(spec: SphereSpec, w: complex) -> complex:
    """Scalar polarizability as a function of w = i*nu (dimensionless).

    Even in v = sqrt(mu_r w), so single-valued in w despite the square root.
    """
    g = _g_ratio(np.sqrt(spec.mu_r * complex(w)))
    scale = 2.0 * np.pi * spec.alpha**3
    return scale * (2.0 * spec.mu_r + 1.0 - g) / (spec.mu_r - 1.0 + g)


def mpt_sphere(spec: SphereSpec, omega: float) -> complex:
    """Closed-form scalar polarizability m(omega) with M(omega) = m(omega) I.

    m(0) is the magnetostatic value and Re m -> -2 pi a^3, Im m -> 0 as
    omega -> infinity.  Units m^3.
    """
    _check_nu(omega, "omega")
    with np.errstate(over="ignore", invalid="ignore"):
        m = _m_of_w(spec, 1j * omega * spec.time_constant)
    return _in_range(m, "sphere polarizability overflowed at omega = {:g}", omega)


def _char(v, mu_r: float):
    """(mu_r - 1) j1(v) + v j0(v), scaled form that is regular at v = 0.

    Elementwise over an array of v.
    """
    return (mu_r - 1.0) * (np.sin(v) - v * np.cos(v)) / (v * v) + np.sin(v)


def sphere_poles(spec: SphereSpec, count: int) -> np.ndarray:
    """First ``count`` eigenvalues lam_n = v_n^2 / mu_r, strictly ascending.

    v_n are the positive roots of the sphere characteristic equation; for
    mu_r = 1 they reduce to n*pi so lam_n = (n pi)^2, which fixes the
    convention against the nonpermeable sphere.

    The characteristic function is evaluated in one array call at knots
    pi/64 apart, from v = 0.05 to the first knot at or past
    (count + 3) pi + 2.  The knots are running sums, v_lo + step + step + ...,
    so they are bit-identical to those of a scalar walk adding one step at a
    time, and so are the roots: a knot where the function is exactly zero is
    a root, and each sign-change bracket is refined by ``brentq``, in order,
    until ``count`` roots are found.
    """
    _check_count("count", count, 1)
    step = np.pi / 64.0
    v_lo = 0.05
    v_max = (count + 3) * np.pi + 2.0
    n_steps = int(np.ceil((v_max - v_lo) / step)) + 2
    knots = np.add.accumulate(np.concatenate([[v_lo], np.full(n_steps, step)]))
    # intervals start at every knot below v_max; keep the knot that closes
    # the last of them
    knots = knots[: np.count_nonzero(knots < v_max) + 1]
    roots = []
    # a huge mu_r overflows _char to +-inf, which keeps its sign
    with np.errstate(over="ignore"):
        f = _char(knots, spec.mu_r)
        # signs, not products, which overflow or underflow for extreme mu_r
        hits = np.flatnonzero((f[:-1] == 0.0) | (np.sign(f[:-1]) == -np.sign(f[1:])))
        for k in hits[:count]:
            if f[k] == 0.0:
                roots.append(knots[k])
            else:
                roots.append(
                    brentq(_char, knots[k], knots[k + 1], args=(spec.mu_r,),
                           xtol=1e-300, rtol=1e-14)
                )
    if len(roots) < count:
        raise PoleSpacingError(
            f"found only {len(roots)} characteristic roots scanning "
            f"v in [{v_lo:g}, {v_max:g}]"
        )
    with np.errstate(over="ignore"):
        lam = np.array(roots) ** 2 / spec.mu_r
    _in_range(lam, "sphere eigenvalues leave the float range", normal=True)
    if np.any(np.diff(lam) <= 0.0):
        raise PoleSpacingError("pole spectrum not strictly increasing")
    return lam


def _fit_tail(
    spec: SphereSpec,
    lams: np.ndarray,
    lam_next: float,
    residues: np.ndarray,
    n0: float,
    nu_band: tuple[float, float],
    counts: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Effective modes for the truncated spectral tail.

    The stored prefix misses sum_{n>N} a_n ~ 1/N of the pole mass, a 2-3 %
    error at the top of a wide band.  A handful of constrained (non-positive)
    residues on eigenvalues above lam_N absorbs it; the constraint row pins
    the infinite-frequency limit at the exact perfect-conductor value.
    ``lam_next`` is the first missing eigenvalue, lam_{N+1}.  Each tail size
    in ``counts`` is tried in turn against one analytic target, stopping at
    the first whose in-band error is at most 5e-4; the one with the smallest
    error is returned.
    """
    nu_lo, nu_hi = nu_band
    lam_max = lams[-1]
    deficit = (spec.pec_value() - n0) - residues.sum()

    n_band = 200
    nu_grid = np.geomspace(max(nu_lo, 1e-6 * lams[0]), nu_hi, n_band)
    # beyond-band rows stabilise the fit out to the limit; they do not count
    # toward the in-band quality metric
    nu_grid = np.concatenate([nu_grid, np.geomspace(2.0 * nu_hi, 200.0 * nu_hi, 12)])
    w = 1j * nu_grid
    with np.errstate(over="ignore", invalid="ignore"):  # the targets weight the fit
        target = np.array([_m_of_w(spec, wk) for wk in w])
        _in_range(target, "sphere tail targets leave the float range", normal=True)
    partial = n0 + (w[:, None] / (w[:, None] - lams[None, :])) @ residues
    resid = target - partial
    weight = 1.0 / np.abs(target)
    rhs = np.concatenate([resid.real * weight, resid.imag * weight])

    best = None
    for n_tail in counts:
        # the first missing eigenvalue anchors the tail basis; starting any
        # higher leaves its leakage into the band unservable
        lam_tail = np.geomspace(lam_next, 4.0 * max(nu_hi, 4.0 * lam_max), n_tail)
        basis = w[:, None] / (w[:, None] - lam_tail[None, :])
        rows = np.vstack(
            [
                basis.real * weight[:, None],
                basis.imag * weight[:, None],
            ]
        )
        # residues are non-positive: solve for x = -b >= 0, and pin sum(b) to
        # the exact high-frequency deficit with a heavy anchor row
        anchor = 100.0
        rows = np.vstack([rows, anchor * np.ones((1, lam_tail.size))])
        x, _ = nnls(rows, np.concatenate([-rhs, [anchor * (-deficit)]]))
        b = -x
        # close the infinite-frequency limit exactly by folding the leftover
        # into the largest-eigenvalue tail mode that stays non-positive (a
        # sub-permille shift); lam_tail ascends
        leftover = deficit - b.sum()
        fold = np.flatnonzero(b + leftover <= 0.0)
        if fold.size:
            b[fold[-1]] += leftover
        keep = b < 0.0
        fitted = partial + basis @ b
        max_rel_err = float(np.abs((fitted - target) * weight)[:n_band].max())
        if best is None or max_rel_err < best[2]:
            best = (lam_tail[keep], b[keep], max_rel_err)
        if max_rel_err <= 5e-4:
            break
    return best


def sphere_spectral_model(
    spec: SphereSpec,
    n_modes: int,
    tail_modes: int | None = None,
    f_band: tuple[float, float] = (1e-2, 1e8),
) -> SpectralModel:
    """Extract a spectral model from the analytic sphere solution.

    The first ``n_modes`` modes carry the exact pole eigenvalues from
    :func:`sphere_poles` and their closed-form residues (module docstring)
    A_n = -12 pi alpha^3 mu_r / (mu_r lam_n + (mu_r - 1)(mu_r + 2)), each
    isotropic with multiplicity 3.  Because the residues only decay like
    1/n^2, the raw truncation misses a few percent of the response at
    frequencies far above lam_N; by default a small set of effective tail
    modes (eigenvalues above the stored spectrum, fitted residues) compensates
    so that assembly reproduces the analytic curve over ``f_band`` and the
    exact limits at both ends.  Pass ``tail_modes=0`` for the raw truncation.

    Parameters
    ----------
    spec : sphere geometry and materials
    n_modes : number of exact pole modes to carry
    tail_modes : number of compensation modes (None = automatic)
    f_band : frequency band (Hz) the compensated model must reproduce
    """
    _check_count("n_modes", n_modes, 1)
    _check_count("tail_modes", 0 if tail_modes is None else tail_modes, 0)
    if not (is_number(f_band[0]) and is_number(f_band[1]) and 0.0 < f_band[0] < f_band[1]):
        raise InvalidInputError(f"f_band must be finite, positive, increasing: {_shown(f_band)}")
    counts = (8, 16, 24) if tail_modes is None else ((tail_modes,) if tail_modes else ())
    # one root scan also yields lam_{N+1}, which anchors the tail basis; the
    # scan finds roots in order, so its first N equal sphere_poles(spec, N)
    scanned = sphere_poles(spec, n_modes + 1 if counts else n_modes)
    lams = scanned[:n_modes]
    mu = spec.mu_r
    with np.errstate(over="ignore", invalid="ignore"):
        residues = -12.0 * np.pi * spec.alpha**3 * mu / (mu * lams + (mu - 1.0) * (mu + 2.0))
    _in_range(residues, "sphere residues leave the float range", normal=True)
    if np.any(residues >= 0.0):
        raise PoleSpacingError("extracted a non-negative residue tensor")
    n0 = spec.static_value()

    tau = spec.time_constant
    with np.errstate(over="ignore"):  # a numpy alpha or sigma_star makes tau a numpy float
        nu_band = (2.0 * np.pi * f_band[0] * tau, 2.0 * np.pi * f_band[1] * tau)
        top = 200.0 * nu_band[1]  # the tail fit samples up to 200 times the band's top
    if counts:
        _in_range(top, "f_band {} exceeds the float range in units of nu", _shown(f_band))
    all_lams, all_residues = lams, residues
    if counts:
        lam_tail, res_tail, _ = _fit_tail(
            spec, lams, scanned[-1], residues, n0, nu_band, counts
        )
        all_lams = np.concatenate([lams, lam_tail])
        all_residues = np.concatenate([residues, res_tail])

    # A = a I with a = -(alpha^3 lam / 4) c^2 for three orthogonal rows c e_i
    with np.errstate(over="ignore"):
        couplings = np.sqrt(-4.0 * all_residues / (spec.alpha**3 * all_lams))
    _in_range(couplings, "sphere couplings leave the float range", normal=True)
    modes = tuple(
        Mode(lam=lam, multiplicity=3, couplings=c * np.eye(3))
        for lam, c in zip(all_lams, couplings)
    )
    tail_bound = abs((spec.pec_value() - n0) - all_residues.sum())
    return SpectralModel(
        alpha=spec.alpha,
        sigma_star=spec.sigma_star,
        n0=SymTensor3.isotropic(n0),
        modes=modes,
        provenance="sphere-analytic",
        topology_flag="simply connected",
        tail_bound=tail_bound,
    )
