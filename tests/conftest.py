"""Shared builders for randomised spectral models."""

import numpy as np
import pytest

from mptspec import Mode, SpectralModel, SymTensor3

# 20 seeded problems across dims 2-100 and every spectrum shape
ORACLE_CASES = [
    (dim, seed, shape)
    for seed, (dim, shape) in enumerate(
        zip(
            [2, 3, 5, 8, 13, 21, 34, 55, 89, 100, 2, 4, 6, 10, 16, 25, 40, 60, 80, 100],
            [
                "linear", "quadratic", "clustered", "linear", "quadratic",
                "clustered", "linear", "quadratic", "clustered", "linear",
                "clustered", "quadratic", "linear", "clustered", "quadratic",
                "linear", "clustered", "quadratic", "linear", "quadratic",
            ],
        )
    )
]


def random_sym_tensor(rng, scale=1.0) -> SymTensor3:
    m = rng.standard_normal((3, 3)) * scale
    return SymTensor3.from_matrix(0.5 * (m + m.T))


def random_model(seed, n_modes=3, alpha=0.01, sigma_star=5.96e6, multiplicities=None):
    """Random valid model: ascending eigenvalues, Gaussian couplings."""
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(0.5, 4.0, n_modes).cumsum() * 10.0 ** rng.uniform(-1, 1))
    if multiplicities is None:
        multiplicities = rng.integers(1, 4, n_modes)
    modes = tuple(
        Mode(float(lam), int(mult), rng.standard_normal((int(mult), 3)))
        for lam, mult in zip(lams, multiplicities)
    )
    n0 = random_sym_tensor(rng, scale=alpha**3)
    return SpectralModel(
        alpha=alpha, sigma_star=sigma_star, n0=n0, modes=modes, provenance="manual"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
