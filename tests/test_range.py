"""The float-range rule: every result that can leave the float range refuses it.

One table row per input that reaches a call of ``tensors._in_range`` from
finite arguments.  Each row runs with warnings as errors, so no
floating-point warning may come first, and checks the site's whole message.
"""

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mptspec import (
    MU0,
    ComplexSymTensor3,
    Mode,
    NumericRangeError,
    PoleResidueExpansion,
    Rotation3,
    SpectralModel,
    SphereSpec,
    SweepData,
    SymTensor3,
    TransientKernel,
    Waveform,
    commutator_Z,
    convolve_excitation,
    eigen_sym3,
    evaluate,
    fit_dominant,
    generate,
    mpt_sphere,
    perturbed_field,
    rotate_tensor,
    sphere_spectral_model,
    verify_identities,
)
from mptspec.fitting import default_fit_grid
from mptspec.poleresidue import contour_residue
from conftest import random_model

SRC = Path(__file__).resolve().parents[1] / "src" / "mptspec"

HUGE = SymTensor3([1.7e308, -1.7e308, 1e308, 1.7e308, 1.7e308, 1.7e308])
BIG = SymTensor3([1e308] * 3 + [0.0] * 3)


def _model(lams, coupling, alpha=1.0, sigma_star=1.0, n0=0.0):
    modes = tuple(Mode(lam, 1, np.array([[coupling, 0.5, 0.0]])) for lam in lams)
    return SpectralModel(alpha=alpha, sigma_star=sigma_star, n0=SymTensor3.isotropic(n0),
                         modes=modes)


def _expansion(lams):
    # unit residues at w-plane poles lams, with alpha = sigma_star = 1
    return PoleResidueExpansion(
        n0=SymTensor3.zero(),
        poles_s=np.array([-lam / MU0 for lam in lams]),
        residues=(SymTensor3.isotropic(-1.0),) * len(lams),
        nv=np.zeros(len(lams), dtype=int),
        alpha=1.0,
        sigma_star=1.0,
    )


def _impulse_overflow():
    # each term is in range, and so is the step kernel, but not s_n A_n
    modes = (
        Mode(3.0, 1, np.array([[1.0, 0.5, 0.0]])),
        Mode(1e200, 1, np.array([[0.5, -1.5, 2.25]])),
    )
    model = SpectralModel(alpha=0.01, sigma_star=5.96e6, n0=SymTensor3.zero(), modes=modes)
    return TransientKernel.impulse(model)


def _commutator_overflow():
    model = random_model(4, n_modes=3, alpha=1e100)
    return commutator_Z(model, float(model.nu_from_omega(2.0 * np.pi * 1e-295)))


def _fit_overflow():
    # a lone 1e308 spike: the fitted amplitude exceeds the float range
    nu = default_fit_grid(47.0, points=12)
    values = -1e-6 * nu**2 / (nu**2 + 25.0)
    values[1] = 1e308
    return fit_dominant(SweepData(nu, values), "R")


def _kernel_sample():
    big = SymTensor3.isotropic(1e308)
    return TransientKernel(big, SymTensor3.zero(), ((-1.0, big),)).sample([0.0, 1.0])


def _battery(k_scale=1.0, theta0_scale=1.0):
    # a three-mode problem whose commutator bound constants, lam^2 T0^2 and
    # T0^4 in scale, leave the normal floats
    p = generate(3, 1)
    return verify_identities(replace(p, k_matrix=p.k_matrix * k_scale,
                                     theta0=p.theta0 * theta0_scale))


# (site, id, call, message): the site is the function that holds the check
RANGE_CASES = [
    ("tensors.SymTensor3.norm", "norm",
     lambda: SymTensor3.diag(1.5e308, 1.5e308, 0.0).norm(),
     "tensor norm exceeds the float range"),
    ("tensors.ComplexSymTensor3.norm", "complex-norm",
     lambda: ComplexSymTensor3(SymTensor3.diag(1.5e308, 0.0, 0.0),
                               SymTensor3.identity() * 1e308).norm(),
     "tensor norm exceeds the float range"),
    ("tensors.SymTensor3._result", "arithmetic", lambda: BIG + BIG,
     "tensor arithmetic exceeds the float range"),
    ("tensors.SymTensor3.trace", "trace",
     lambda: SymTensor3([1.7e308] * 3 + [1.0] * 3).trace(),
     "tensor trace exceeds the float range"),
    ("tensors.eigen_sym3", "eigenvalues", lambda: eigen_sym3(HUGE),
     "eigenvalues exceed the float range"),
    ("tensors.rotate_tensor", "rotation",
     lambda: rotate_tensor(HUGE, Rotation3.about_axis(2, 0.7)),
     "rotated tensor exceeds the float range"),
    ("tensors.perturbed_field", "perturbed-field",
     lambda: perturbed_field([1e-100, 0.0, 0.0], [0.0, 0.0, 0.0],
                             ComplexSymTensor3(SymTensor3.isotropic(1.8e-6),
                                               SymTensor3.isotropic(1e-7)),
                             [1e160, 1e160, 0.0]),
     "perturbed field exceeds the float range"),
    ("spectral.SpectralModel.__post_init__", "residue-bound",
     lambda: _model((1e300,), 1e10),
     r"mode residues or N0 \+ R exceed the float range"),
    ("spectral._decay_rates", "rate-overflows",
     lambda: TransientKernel.step(_model((1e308,), 1.0, alpha=1e-100)),
     "decay rates lam_n / time_constant leave the float range"),
    ("spectral._decay_rates", "rate-underflows",
     lambda: TransientKernel.step(_model((5e-324,), 1.0, alpha=1e100, sigma_star=1e100)),
     "decay rates lam_n / time_constant leave the float range"),
    ("spectral.commutator_Z", "commutator", _commutator_overflow,
     "commutator exceeds the float range"),
    ("poleresidue.evaluate", "evaluate",
     lambda: evaluate(_expansion([5e-324, 4.0]), 1.0 + 1.0j),
     "the expansion leaves the float range at this point"),
    ("poleresidue.contour_residue", "contour-radius",
     lambda: contour_residue(_expansion([5e-324, 4.0]), 0),
     r"contour radius \S+ at pole 0 underflows"),
    ("poleresidue.contour_residue", "contour-average",
     lambda: contour_residue(_expansion([5e-324, 4.0]), 1),
     "the contour average leaves the float range"),
    ("transient.TransientKernel.impulse", "impulse-bound", _impulse_overflow,
     r"impulse kernel at t = 0 \(the sum of the terms s_n A_n\) exceeds the float range"),
    ("transient.TransientKernel.sample", "kernel-sample", _kernel_sample,
     "transient kernel exceeds the float range"),
    ("transient.Waveform.segments_until", "waveform-slope",
     lambda: Waveform([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0]).segments_until(0.5),
     "waveform slopes or intercepts leave the float range"),
    ("transient.convolve_excitation", "convolution",
     lambda: convolve_excitation(_model((1.0,), 1.0, n0=10.0), Waveform([0.0], [1e308]),
                                 [1.0]),
     "convolution exceeds the float range"),
    ("fitting.fit_dominant", "fitted-amplitude", _fit_overflow,
     "fitted amplitude or residual exceeds the float range"),
    ("sphere._g_ratio", "bessel-ratio",
     lambda: mpt_sphere(SphereSpec(1e4, 0.01, 1e300), 1e10),
     r"Bessel ratio overflowed at \|v\| = inf"),
    ("sphere.mpt_sphere", "sphere-value",
     lambda: mpt_sphere(SphereSpec(0.01, 1e308, 1.5), 1.0),
     "sphere polarizability overflowed at omega = 1"),
    ("sphere.sphere_poles", "sphere-eigenvalues",
     lambda: sphere_spectral_model(SphereSpec(0.01, 1e-310, 1e4), 3),
     "sphere eigenvalues leave the float range"),
    ("sphere._fit_tail", "tail-targets",
     lambda: sphere_spectral_model(SphereSpec(1e100, 1e-160, 1e-30), 3),
     "sphere tail targets leave the float range"),
    ("sphere._fit_tail", "tail-targets-underflow",
     lambda: sphere_spectral_model(SphereSpec(1e-100, 1.0, 1.0), 3),
     "sphere tail targets leave the float range"),
    ("sphere.sphere_spectral_model", "sphere-residues",
     lambda: sphere_spectral_model(SphereSpec(0.01, 1e300, 1.5), 3),
     "sphere residues leave the float range"),
    ("sphere.sphere_spectral_model", "f_band",
     lambda: sphere_spectral_model(SphereSpec(1e4, 0.01, 1e300), 3),
     r"f_band \(0\.01, 100000000\.0\) exceeds the float range in units of nu"),
    ("sphere.sphere_spectral_model", "sphere-couplings",
     lambda: sphere_spectral_model(SphereSpec(1e100, 1e-300, 1e-300), 3),
     "sphere couplings leave the float range"),
    ("surrogate.verify_identities", "bound-constants-overflow",
     lambda: _battery(k_scale=1e154),
     "commutator bound constants leave the normal floats"),
    ("surrogate.verify_identities", "bound-constants-underflow",
     lambda: _battery(theta0_scale=2.0**-540),
     "commutator bound constants leave the normal floats"),
    ("surrogate.verify_identities", "bound-products-overflow",
     lambda: _battery(k_scale=2.0**40, theta0_scale=2.0**262),
     "commutator bound constants leave the normal floats"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [case[2:] for case in RANGE_CASES],
                         ids=[case[1] for case in RANGE_CASES])
def test_every_rule_site_refuses_its_overflow(call, message):
    with pytest.raises(NumericRangeError) as err:
        call()
    assert re.fullmatch(message, str(err.value))


def _rule_sites() -> set[str]:
    # module.function, or module.Class.method, of each call of the rule
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = [(path.stem, tree)] + [
            (f"{path.stem}.{node.name}", node)
            for node in tree.body if isinstance(node, ast.ClassDef)
        ]
        for prefix, owner in owners:
            for fn in owner.body:
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and ast.unparse(n.func) == "_in_range"
                    for n in ast.walk(fn)
                ):
                    sites.add(f"{prefix}.{fn.name}")
    return sites


def test_the_table_reaches_every_rule_site():
    assert _rule_sites() == {case[0] for case in RANGE_CASES}
