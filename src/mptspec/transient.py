"""Time-domain polarizability kernels for step and impulse excitation.

The pole-residue structure makes the kernels sums of decaying exponentials:

    step:    M_step(t) = (N0 + sum_n e^{s_n t} A_n) u(t)
    impulse: M_imp(t)  = Minf delta(t) + sum_n s_n e^{s_n t} A_n u(t)

with s_n = -lam_n / (mu0 sigma alpha^2) < 0.  The step response starts at
the perfect-conductor tensor Minf and relaxes to the magnetostatic N0; the
impulse response is its time derivative.  The distributional part of the
impulse kernel is reported as a separate coefficient tensor, never sampled
onto a time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularityError
from .spectral import SpectralModel, limit_tensors, mode_tensor
from .tensors import SymTensor3, dipole_green_hessian


@dataclass(frozen=True)
class TransientKernel:
    """Exponential-sum kernel: steady part, delta coefficient, decay terms.

    ``truncation_bound`` carries the model's stored estimate of the missing
    spectral tail (sum of residue magnitudes beyond the stored modes), the
    worst-case kernel truncation error, attained at t = 0.
    """

    steady: SymTensor3
    delta_part: SymTensor3
    exp_terms: tuple[tuple[float, SymTensor3], ...]
    truncation_bound: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(s) and s < 0.0 for s, _ in self.exp_terms):
            raise InvalidInputError("decay rates must be finite and negative")

    @classmethod
    def step(cls, model: SpectralModel) -> "TransientKernel":
        tau = model.time_constant
        terms = tuple(
            (-model.modes[n].lam / tau, mode_tensor(model, n))
            for n in range(len(model.modes))
        )
        return cls(
            steady=model.n0,
            delta_part=SymTensor3.zero(),
            exp_terms=terms,
            truncation_bound=model.tail_bound or 0.0,
        )

    @classmethod
    def impulse(cls, model: SpectralModel) -> "TransientKernel":
        tau = model.time_constant
        _, minf = limit_tensors(model)
        terms = []
        for n in range(len(model.modes)):
            s_n = -model.modes[n].lam / tau
            terms.append((s_n, s_n * mode_tensor(model, n)))
        return cls(
            steady=SymTensor3.zero(),
            delta_part=minf,
            exp_terms=tuple(terms),
            truncation_bound=model.tail_bound or 0.0,
        )

    def smooth_at(self, t: float) -> SymTensor3:
        """Regular (non-distributional) part of the kernel at time t."""
        if t < 0.0:
            return SymTensor3.zero()
        acc = self.steady.coeffs.copy()
        for s_n, b_n in self.exp_terms:
            acc = acc + np.exp(s_n * t) * b_n.coeffs
        return SymTensor3(acc)

    def slowest_rate(self) -> float:
        if not self.exp_terms:
            raise InvalidInputError("kernel has no decay terms, so no slowest rate")
        return max(s for s, _ in self.exp_terms)


def step_kernel(model: SpectralModel, t: float) -> SymTensor3:
    """Polarizability response to a unit-step background field.

    Zero for t < 0, equal to Minf at t = 0+ and relaxing to N0; the long-time
    response is that of the purely permeable object.
    """
    return TransientKernel.step(model).smooth_at(t)


def impulse_kernel(model: SpectralModel, t: float) -> tuple[SymTensor3, SymTensor3]:
    """Polarizability response to an impulsive background field.

    Returns (delta_coeff, smooth): the delta coefficient equals Minf and is
    reported only at t == 0 (zero elsewhere); the smooth part is the time
    derivative of the step kernel for t > 0.
    """
    kernel = TransientKernel.impulse(model)
    delta = kernel.delta_part if t == 0.0 else SymTensor3.zero()
    return delta, kernel.smooth_at(t)


@dataclass(frozen=True)
class Waveform:
    """Piecewise-linear excitation: zero before the first sample, held after."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 1 or v.shape != t.shape:
            raise InvalidInputError("waveform needs matching 1-D times and values")
        if np.any(np.diff(t) <= 0.0):
            raise InvalidInputError("waveform times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidInputError("waveform samples must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t: float) -> float:
        if t < self.times[0]:
            return 0.0
        if t >= self.times[-1]:
            return float(self.values[-1])
        return float(np.interp(t, self.times, self.values))

    def segments_until(self, t: float):
        """Linear pieces (t0, t1, a, b) with u(tau) = a + b*tau covering (first, t]."""
        pieces = []
        times, values = self.times, self.values
        for k in range(times.size - 1):
            t0, t1 = times[k], times[k + 1]
            if t0 >= t:
                break
            hi = min(t1, t)
            slope = (values[k + 1] - values[k]) / (t1 - t0)
            pieces.append((t0, hi, values[k] - slope * t0, slope))
        if t > times[-1]:
            pieces.append((times[-1], t, float(values[-1]), 0.0))
        return pieces


def convolve_excitation(
    model: SpectralModel, excitation: Waveform, query_times
) -> list[SymTensor3]:
    """Convolve the impulse kernel with a piecewise-linear excitation, exactly.

    The delta part contributes Minf times the instantaneous excitation value.
    Each decay term s_n e^{s_n t} A_n contributes A_n times the pole state
    x_n(t) = int s_n e^{s_n (t - tau)} u(tau) dtau, which is advanced by
    recursive convolution (Semlyen & Dabuleanu, IEEE Trans. PAS 94(2),
    1975): one forward pass over the sorted union of waveform breakpoints and
    query times.  Across a step of length h on which u = u0 + b (tau - start),

        x_n <- e^{s_n h} x_n + u0 expm1(s_n h) + b (expm1(s_n h) / s_n - h),

    the closed-form integral of the linear piece, so no quadrature error
    enters; s_n h <= 0, so no exponential can overflow.  The cost is
    O((Q + S) N) for Q query times, S waveform samples and N poles.  Output
    is one tensor per query time.
    """
    t_query = np.asarray(query_times, dtype=float)
    if (
        t_query.ndim != 1
        or not np.all(np.isfinite(t_query))
        or np.any(np.diff(t_query) < 0.0)
    ):
        raise InvalidInputError("query times must be a finite, nondecreasing 1-D array")
    if t_query.size == 0:
        return []
    kernel = TransientKernel.impulse(model)
    rates = np.array([s_n for s_n, _ in kernel.exp_terms])
    # b_n = s_n A_n, so the pole state multiplies A_n = b_n / s_n
    residues = np.reshape([b_n.coeffs / s_n for s_n, b_n in kernel.exp_terms], (-1, 6))

    times, values = excitation.times, excitation.values
    # pieces run contiguously from the first sample to the last query time
    pieces = excitation.segments_until(t_query[-1])
    _, ends, _, piece_slopes = np.reshape(pieces, (-1, 4)).T
    grid = np.union1d(np.append(times[0], ends), t_query[t_query > times[0]])
    h = np.diff(grid)
    b = piece_slopes[np.searchsorted(ends, grid[:-1], side="right")]
    u0 = np.interp(grid[:-1], times, values)

    z = np.multiply.outer(h, rates)
    em1 = np.expm1(z)
    # states[j] holds the pole states at grid[j]; all are zero at the first sample
    states = np.zeros((grid.size, rates.size))
    states[1:] = u0[:, None] * em1 + b[:, None] * (em1 / rates - h[:, None])
    decay = np.exp(z)
    for j in range(h.size):
        states[j + 1] += decay[j] * states[j]

    # queries at or before the first sample map to grid[0], where x = 0
    u_query = np.where(t_query < times[0], 0.0, np.interp(t_query, times, values))
    coeffs = np.outer(u_query, kernel.delta_part.coeffs)
    coeffs += states[np.searchsorted(grid, t_query)] @ residues
    return [SymTensor3(row) for row in coeffs]


def transient_field(
    x,
    z,
    model: SpectralModel,
    h0_at_z,
    excitation_kind: str,
    t: float,
):
    """Transient perturbed field at x from an object at z.

    Contracts the Green's-function Hessian with the time-domain kernel and
    the background field; the asymptotic remainder is zero when the formula's
    validity conditions hold.  For 'step' returns a real 3-vector; for
    'impulse' returns (smooth vector, delta-part vector).
    """
    h0 = np.asarray(h0_at_z, dtype=float)
    if h0.shape != (3,):
        raise InvalidInputError("background field must be a real 3-vector")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.array_equal(x, z):
        raise SingularityError("transient field is singular at x == z")
    d2g = dipole_green_hessian(x, z).matrix
    if excitation_kind == "step":
        return d2g @ (step_kernel(model, t).matrix @ h0)
    if excitation_kind == "impulse":
        delta, smooth = impulse_kernel(model, t)
        return d2g @ (smooth.matrix @ h0), d2g @ (delta.matrix @ h0)
    raise InvalidInputError(f"unknown excitation kind {excitation_kind!r}")
