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

from .errors import DomainError, InvalidInputError, NumericRangeError
from .spectral import SpectralModel, _core, _decay_rates, _frozen, limit_tensors, mode_tensor
from .tensors import SymTensor3, _number_array, _shown, is_number, perturbed_field


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
        if not all(isinstance(t, SymTensor3) for t in (self.steady, self.delta_part)):
            raise InvalidInputError("steady and delta_part must be SymTensor3")
        if not all(
            isinstance(term, tuple) and len(term) == 2 and isinstance(term[1], SymTensor3)
            for term in self.exp_terms
        ):
            raise InvalidInputError("decay terms must be (rate, SymTensor3) pairs")
        if not all(is_number(s) and s < 0.0 for s, _ in self.exp_terms):
            raise InvalidInputError("decay rates must be finite and negative")

    @classmethod
    def step(cls, model: SpectralModel) -> "TransientKernel":
        rates = _decay_rates(model).tolist()
        terms = tuple((s_n, mode_tensor(model, n)) for n, s_n in enumerate(rates))
        return cls(
            steady=model.n0,
            delta_part=SymTensor3.zero(),
            exp_terms=terms,
            truncation_bound=model.tail_bound or 0.0,
        )

    @classmethod
    def impulse(cls, model: SpectralModel) -> "TransientKernel":
        rates = _decay_rates(model)
        _, minf = limit_tensors(model)
        # sum_n |s_n| max|A_n| bounds every sample, since exp(s_n t) <= 1, and
        # lies within a factor 3 of the value at t = 0 (the A_n are semidefinite)
        with np.errstate(over="ignore"):
            bound = -rates @ np.abs(_core(model)[1]).max(axis=1, initial=0.0)
        if not bound < np.inf:
            raise NumericRangeError(
                "impulse kernel at t = 0 (the sum of the terms s_n A_n) exceeds the float range"
            )
        a = np.reshape([mode_tensor(model, n).coeffs for n in range(rates.size)], (-1, 6))
        terms = tuple(zip(rates.tolist(), SymTensor3._rows(rates[:, None] * a)))
        return cls(
            steady=SymTensor3.zero(),
            delta_part=minf,
            exp_terms=terms,
            truncation_bound=model.tail_bound or 0.0,
        )

    def sample(self, times) -> np.ndarray:
        """Regular part of the kernel at each of the 1-D ``times``, (points, 6).

        Zero at negative times; a non-finite time raises DomainError.
        """
        try:
            t = _number_array("sample times", times)
        except InvalidInputError as exc:
            raise DomainError(str(exc)) from None
        if t.ndim != 1:
            raise InvalidInputError("sample times must be a 1-D array")
        acc = np.tile(self.steady.coeffs, (t.size, 1))
        # the rates are negative, so s t overflows only towards -inf, where
        # exp gives the exact limit 0; negative times are zeroed below
        t_pos = np.where(t < 0.0, 0.0, t)[:, None]
        with np.errstate(over="ignore"):
            for s_n, b_n in self.exp_terms:
                acc = acc + np.exp(s_n * t_pos) * b_n.coeffs
        acc[t < 0.0] = 0.0
        return acc

    def smooth_at(self, t: float) -> SymTensor3:
        """Regular (non-distributional) part of the kernel at time t."""
        return SymTensor3(self.sample([t])[0])

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
        t = _frozen(_number_array("waveform times", self.times))
        v = _frozen(_number_array("waveform values", self.values))
        if t.ndim != 1 or t.size < 1 or v.shape != t.shape:
            raise InvalidInputError("waveform needs matching 1-D times and values")
        if np.any(np.diff(t) <= 0.0):
            raise InvalidInputError("waveform times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        """u(t), elementwise over an array t; a float for a scalar t."""
        u = np.interp(t, self.times, self.values, left=0.0)
        return float(u) if np.ndim(u) == 0 else u

    def segments_until(self, t: float):
        """Linear pieces (t0, t1, a, b) with u(tau) = a + b*tau covering (first, t].

        The intercept a = u(t0) - b*t0 is referred to tau = 0, so it loses
        digits when the samples lie far from t = 0 compared with their
        spacing: for samples at 1 s + k us with values of order 1, a + b*t1
        misses the next sample by about 1e-11.  Where that matters, rebuild
        each piece about its own start as u(t0) + b*(tau - t0).
        """
        times, values = self.times, self.values
        # the pieces that start before t, all at once
        m = min(int(np.searchsorted(times, t)), times.size - 1)
        t0, t1 = times[:m], times[1 : m + 1]
        slope = np.diff(values[: m + 1]) / (t1 - t0)
        columns = (t0, np.minimum(t1, t), values[:m] - slope * t0, slope)
        pieces = list(zip(*(c.tolist() for c in columns)))
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
    t_query = _number_array("query times", query_times)
    if t_query.ndim != 1 or np.any(np.diff(t_query) < 0.0):
        raise InvalidInputError("query times must be a finite, nondecreasing 1-D array")
    if t_query.size == 0:
        return []
    rates = _decay_rates(model)
    _, residues = _core(model)
    _, minf = limit_tensors(model)

    times = excitation.times
    # pieces run contiguously from the first sample to the last query time
    pieces = excitation.segments_until(t_query[-1])
    _, ends, _, piece_slopes = np.reshape(pieces, (-1, 4)).T
    grid = np.union1d(np.append(times[0], ends), t_query[t_query > times[0]])
    h = np.diff(grid)
    b = piece_slopes[np.searchsorted(ends, grid[:-1], side="right")]
    u0 = excitation(grid[:-1])

    z = np.multiply.outer(h, rates)
    em1 = np.expm1(z)
    # states[j] holds the pole states at grid[j]; all are zero at the first sample
    states = np.zeros((grid.size, rates.size))
    states[1:] = u0[:, None] * em1 + b[:, None] * (em1 / rates - h[:, None])
    decay = np.exp(z)
    prev = states[0]
    for d, cur in zip(decay, states[1:]):
        cur += d * prev
        prev = cur

    # queries at or before the first sample map to grid[0], where x = 0
    coeffs = np.outer(excitation(t_query), minf.coeffs)
    coeffs += states[np.searchsorted(grid, t_query)] @ residues
    return SymTensor3._rows(coeffs)


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
    if excitation_kind == "step":
        return perturbed_field(x, z, step_kernel(model, t), h0_at_z)
    if excitation_kind == "impulse":
        delta, smooth = impulse_kernel(model, t)
        return (
            perturbed_field(x, z, smooth, h0_at_z),
            perturbed_field(x, z, delta, h0_at_z),
        )
    raise InvalidInputError(f"unknown excitation kind {_shown(excitation_kind)}")
