"""The four benchmark workloads: seeded inputs, one op, and the op's check.

Each workload is a fixed cycle of slots.  The seed draws the values inside a
slot (problem seeds, sphere materials, waveforms, evaluation points) but never
a slot's size, so every seed gives the same cost mix and a run that covers
whole cycles always measures the same mix.  The library only ever receives
the generated inputs.

Apart from the oracle battery's fixed 21 problems, the slots of a cycle form
blocks of about equal cost: cheap, middling and heavy.  The median op and the
p90 op each fall in the middle of a block, so that with whole cycles each
quantile is, in effect, a median over the many samples of one block, and
never jumps between slots of different cost from one run to the next.  A
cycle of n slots puts p90 at slot rank 0.9 (n - 1) and the median at rank
(n - 1) / 2: with 20 slots, 5 cheap, 11 middling and 4 heavy; with 13, 3
cheap, 6 middling, 3 heavy and one heaviest.

``run(item)`` is the timed op.  ``check(item, result)`` runs outside the
timed region with tracing off; it returns None when the op's output is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

import mptspec
from mptspec import cli

PACKED_OFFDIAG = slice(3, 6)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, workdir) -> list of items, one cycle
    run: Callable  # item -> result
    check: Callable  # (item, result) -> None | str
    # span names that must be nonzero in a traced run, and span-name
    # prefixes that must stay zero (a trailing "." means a whole module)
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# relative permeability range of the seeded spheres: above about 4.5 a
# sphere model needs more tail modes, so an op's cost would step up with
# the seed
MU_R_MAX = 4.0


def _sphere(rng: np.random.Generator, mu_r: float | None = None) -> mptspec.SphereSpec:
    """A sphere of radius 5-20 mm and 1e6-6e7 S/m; mu_r 1-MU_R_MAX unless given."""
    alpha = float(10.0 ** rng.uniform(np.log10(0.005), np.log10(0.02)))
    if mu_r is None:
        mu_r = rng.uniform(1.0, MU_R_MAX)
    return mptspec.SphereSpec(
        alpha=alpha, mu_r=float(mu_r), sigma_star=float(10.0 ** rng.uniform(6.0, 7.8))
    )


def _rel(diff: float, scale: float) -> float:
    return diff / max(scale, 1e-300)


# --------------------------------------------------------------------------
# oracle_battery: the 20 problems of acceptance criterion 3 plus one
# corrupted control per cycle

ORACLE_CASES = tuple(
    zip(
        (2, 3, 5, 8, 13, 21, 34, 55, 89, 100, 2, 4, 6, 10, 16, 25, 40, 60, 80, 100),
        (
            "linear", "quadratic", "clustered", "linear", "quadratic",
            "clustered", "linear", "quadratic", "clustered", "linear",
            "clustered", "quadratic", "linear", "clustered", "quadratic",
            "linear", "clustered", "quadratic", "linear", "quadratic",
        ),
    )
)
# the control is a dim-100 problem, so that with the two dim-100 problems of
# criterion 3 it makes a block of three ops of about equal cost, in which p90
# falls
ORACLE_CONTROL = (100, "linear")


@dataclass(frozen=True)
class OracleItem:
    dim: int
    seed: int
    shape: str
    corrupt: bool


def oracle_build(seed: int, workdir: str) -> list:
    seeds = _rng(seed, 1).integers(0, 2**31, size=len(ORACLE_CASES) + 1)
    items = [
        OracleItem(dim, int(s), shape, False)
        for (dim, shape), s in zip(ORACLE_CASES, seeds)
    ]
    dim, shape = ORACLE_CONTROL
    items.append(OracleItem(dim, int(seeds[-1]), shape, True))
    return items


def oracle_run(item: OracleItem):
    problem = mptspec.generate(item.dim, item.seed, item.shape)
    return mptspec.verify_identities(problem, tol=1e-9, corrupt_coupling=item.corrupt)


def oracle_check(item: OracleItem, report) -> str | None:
    if item.corrupt:
        return "corrupted control passed" if report.passed else None
    if not report.passed:
        bad = [c.name for c in report.checks if not c.passed]
        return f"dim={item.dim} {item.shape}: identities failed {bad}"
    return None


# --------------------------------------------------------------------------
# sphere_pipeline: `sphere --emit-model` -> `sweep` -> `fit --json` through
# cli.main, acceptance criterion 7 generalised over materials and sizes

# (--modes, --points, mu_r); the stored model adds 6-15 tail modes to
# --modes, so totals run from 16 to about 100 and the grid from 10 to 2000
# points.  The sweep costs about (total modes) x (points).  In units of nu
# the problem depends on mu_r alone, so the fit's cost does too: the seed
# moves mu_r only within MU_R_JITTER of the slot's value, and the slots
# together span mu_r from 1.1 to 3.8.  Blocks: 3 cheap, 6 middling, 3 heavy
# and the 2000-point grid, heaviest of all.
PIPELINE_SLOTS = (
    (1, 10, 1.2), (5, 20, 3.5), (10, 30, 2.8),
    (30, 120, 3.0), (45, 80, 1.1), (60, 65, 2.5), (20, 150, 3.8), (37, 100, 1.8),
    (85, 40, 2.0),
    (30, 700, 1.4), (20, 1000, 1.7), (60, 450, 3.6),
    (1, 2000, 3.2),
)
MU_R_JITTER = 0.03
NUMAX_PER_LAM1 = 6.5


@dataclass(frozen=True)
class PipelineItem:
    spec: mptspec.SphereSpec
    modes: int
    points: int
    numax: float
    fmax: float
    paths: tuple[str, str, str]


def pipeline_build(seed: int, workdir: str) -> list:
    rng = _rng(seed, 2)
    paths = tuple(os.path.join(workdir, f) for f in ("model.json", "sweep.csv", "fit.json"))
    items = []
    for modes, points, mu_r in PIPELINE_SLOTS:
        spec = _sphere(rng, mu_r * (1.0 + MU_R_JITTER * rng.uniform(-1.0, 1.0)))
        numax = NUMAX_PER_LAM1 * float(mptspec.sphere_poles(spec, 1)[0])
        fmax = numax / (2.0 * np.pi * spec.time_constant)
        items.append(PipelineItem(spec, modes, points, numax, fmax, paths))
    return items


def pipeline_run(item: PipelineItem):
    model, sweep, fit = item.paths
    spec = item.spec
    argvs = (
        ["sphere", "--alpha", repr(spec.alpha), "--mur", repr(spec.mu_r),
         "--sigma", repr(spec.sigma_star), "--emit-model", model,
         "--modes", str(item.modes)],
        ["sweep", "--model", model, "--fmin", "0", "--fmax", repr(item.fmax),
         "--points", str(item.points), "--out", sweep],
        ["fit", "--sweep", sweep, "--numax", repr(item.numax), "--json", fit],
    )
    out = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in argvs:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    return codes, out.getvalue()


def pipeline_check(item: PipelineItem, result) -> str | None:
    codes, output = result
    if codes != [0, 0, 0]:
        return f"exit codes {codes}: {output.strip()[-200:]}"
    _, sweep_path, fit_path = item.paths
    rows = np.loadtxt(sweep_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] != item.points:
        return f"sweep has {rows.shape[0]} rows, expected {item.points}"
    omega = rows[:, 1]
    truth = np.array([mptspec.mpt_sphere(item.spec, w) for w in omega])
    rem, imm = rows[:, 15:21], rows[:, 21:27]
    worst = 0.0
    for k in range(3):
        worst = max(worst, float(np.max(np.abs(rem[:, k] + 1j * imm[:, k] - truth) / np.abs(truth))))
    off = np.abs(rem[:, PACKED_OFFDIAG]) + np.abs(imm[:, PACKED_OFFDIAG])
    worst = max(worst, float(np.max(off.max(axis=1) / np.abs(truth))))
    # acceptance criterion 4's tolerance for the sphere model against mpt_sphere
    if worst > 1e-3:
        return f"sweep deviates from mpt_sphere by {worst:.2e} (tol 1e-3)"
    with open(fit_path) as handle:
        fits = json.load(handle)["fits"]
    for entry in fits:
        if entry["skipped"]:
            continue
        rates = (entry["b"], entry["d"])
        if not entry["converged"] or not all(np.isfinite(r) and r > 0.0 for r in rates):
            return f"fit {entry['coefficient']} converged={entry['converged']} rates={rates}"
    # rates_agree_15pct is the known red of criteria 2 and 7: recorded by the
    # traced run as fitting.rates_agree_frac, never gated here
    return None


# --------------------------------------------------------------------------
# transient_convolution: impulse kernel and exact piecewise-linear
# convolution, the one quadratic path

TRANSIENT_MODES = (15, 37, 100)
# (model index into TRANSIENT_MODES, waveform samples, query times); an op
# costs about samples x queries x modes.  Blocks: 5 cheap, 11 middling on the
# 37-mode model and 4 heavy on the 100-mode model, each block at about one
# samples x queries product
TRANSIENT_SLOTS = (
    (0, 10, 50), (1, 10, 20), (2, 10, 10), (0, 30, 20), (0, 15, 15),
    (1, 40, 50), (1, 200, 10), (1, 10, 200), (1, 50, 40), (1, 20, 100), (1, 100, 20),
    (1, 45, 45), (1, 25, 80), (1, 80, 25), (1, 30, 67), (1, 67, 30),
    (2, 45, 45), (2, 10, 200), (2, 200, 10), (2, 100, 20),
)


@dataclass(frozen=True)
class TransientItem:
    model: mptspec.SpectralModel
    waveform: mptspec.Waveform
    queries: np.ndarray
    check_query: float


def transient_build(seed: int, workdir: str) -> list:
    rng = _rng(seed, 3)
    models = []
    for n in TRANSIENT_MODES:
        spec = _sphere(rng)
        models.append(mptspec.sphere_spectral_model(spec, n, tail_modes=0))
    items = []
    for m, samples, queries in TRANSIENT_SLOTS:
        model = models[m]
        slowest = model.time_constant / model.modes[0].lam
        gaps = rng.uniform(0.2, 1.0, samples)
        times = np.cumsum(gaps) * (6.0 * slowest / gaps.sum())
        waveform = mptspec.Waveform(times, rng.standard_normal(samples))
        # one query in each of `queries` equal strata, so the work per op
        # barely depends on the seed
        q = (np.arange(queries) + rng.uniform(size=queries)) * (1.2 * times[-1] / queries)
        items.append(TransientItem(model, waveform, q, float(q[rng.integers(queries)])))
    return items


def transient_run(item: TransientItem):
    kernel = mptspec.TransientKernel.impulse(item.model)
    return kernel, mptspec.convolve_excitation(item.model, item.waveform, item.queries)


def _kernel_11(model):
    # impulse-kernel poles and 11-residues straight from the mode data,
    # independent of the transient module
    lam = np.array([m.lam for m in model.modes])
    g11 = np.array([m.gram()[0, 0] for m in model.modes])
    a11 = -(model.alpha**3) * lam / 4.0 * g11
    return -lam / model.time_constant, a11, model.n0[0, 0] + a11.sum()


def _quadrature_11(model, waveform, t: float, epsabs: float) -> float:
    s, a11, minf11 = _kernel_11(model)
    total = waveform(t) * minf11
    times = waveform.times
    knots = list(times[times < t]) + [t]
    for t0, t1 in zip(knots, knots[1:]):
        val, _ = quad(
            lambda tau: float(np.dot(s * np.exp(s * (t - tau)), a11)) * waveform(tau),
            t0, t1, epsabs=epsabs, epsrel=1e-11, limit=200,
        )
        total += val
    return total


def transient_check(item: TransientItem, result) -> str | None:
    kernel, out = result
    model = item.model
    _, a11, minf11 = _kernel_11(model)
    if len(out) != item.queries.size:
        return f"{len(out)} outputs for {item.queries.size} queries"
    if _rel(abs(kernel.delta_part[0, 0] - minf11), abs(minf11)) > 1e-12:
        return "impulse delta part differs from Minf"
    # a unit step reproduces the step kernel
    step = mptspec.Waveform(np.array([0.0]), np.array([1.0]))
    probe = item.queries[:: max(1, item.queries.size // 3)]
    for t, got in zip(probe, mptspec.convolve_excitation(model, step, probe)):
        want = mptspec.step_kernel(model, float(t))
        err = _rel((got - want).norm(), want.norm())
        if err > 1e-9:
            return f"unit step at t={t:g} misses step_kernel by {err:.2e}"
    # the random waveform agrees with adaptive quadrature at one query
    scale = (abs(minf11) + np.abs(a11).sum()) * max(1.0, float(np.abs(item.waveform.values).max()))
    k = int(np.searchsorted(item.queries, item.check_query))
    want = _quadrature_11(model, item.waveform, item.check_query, 1e-13 * scale)
    err = _rel(abs(out[k][0, 0] - want), scale)
    if err > 1e-8:
        return f"convolution at t={item.check_query:g} misses quadrature by {err:.2e}"
    return None


# --------------------------------------------------------------------------
# pole_residue_plane: expansions with automatic Taylor subtraction,
# evaluated in the complex plane, with residues extracted at every pole

# ("eigen", dim, shape) surrogate models with 1 to 100 modes (a clustered
# spectrum has dim / 2 modes); ("sphere", n) the sphere model with n exact
# modes plus its tail, 37 modes in all.  An op costs about (modes)^2, for the
# contour residue at every pole.  Blocks: 5 cheap, 11 middling of 35 to 38
# modes and 4 heavy of 98 to 100 modes
POLE_SLOTS = (
    ("eigen", 2, "clustered"), ("eigen", 2, "linear"), ("eigen", 3, "quadratic"),
    ("eigen", 5, "linear"), ("eigen", 6, "clustered"),
    ("eigen", 36, "linear"), ("eigen", 36, "quadratic"), ("eigen", 72, "clustered"),
    ("eigen", 37, "linear"), ("eigen", 37, "quadratic"), ("eigen", 74, "clustered"),
    ("eigen", 38, "linear"), ("eigen", 38, "quadratic"), ("eigen", 76, "clustered"),
    ("eigen", 70, "clustered"), ("sphere", 30),
    ("eigen", 100, "linear"), ("eigen", 100, "quadratic"),
    ("eigen", 98, "linear"), ("eigen", 98, "quadratic"),
)
POLE_POINTS = 8
POLE_PARTIAL_SUM_POINTS = 2
POLE_AXIS_POINTS = 3


@dataclass(frozen=True)
class PoleItem:
    model: mptspec.SpectralModel
    points_w: np.ndarray
    axis_nu: np.ndarray


def pole_build(seed: int, workdir: str) -> list:
    rng = _rng(seed, 4)
    items = []
    for slot in POLE_SLOTS:
        if slot[0] == "eigen":
            _, dim, shape = slot
            problem = mptspec.generate(dim, int(rng.integers(0, 2**31)), shape)
            n0 = mptspec.SymTensor3.from_matrix(
                problem.alpha**3 * (problem.theta0.T @ problem.theta0), asym_tol=1e-9
            )
            model = mptspec.eigen_model(problem, n0)
        else:
            model = mptspec.sphere_spectral_model(_sphere(rng), slot[1])
        lam_lo, lam_hi = model.modes[0].lam, model.modes[-1].lam
        radius = lam_lo * 10.0 ** rng.uniform(-2.0, np.log10(lam_hi / lam_lo) + 0.3, POLE_POINTS)
        points = radius * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, POLE_POINTS))
        points[1::2] = points[1::2].conj()
        axis = lam_lo * 10.0 ** rng.uniform(-3.0, np.log10(lam_hi / lam_lo) + 3.0, POLE_AXIS_POINTS)
        items.append(PoleItem(model, points, axis))
    return items


def pole_run(item: PoleItem):
    exp = mptspec.from_model(item.model, "auto")
    in_w, in_s, partial = [], [], []
    for k, w in enumerate(item.points_w):
        if k < POLE_PARTIAL_SUM_POINTS:
            value, sums = mptspec.evaluate(exp, w, "w", return_partial_sums=True)
            partial.append((value, sums))
        else:
            value = mptspec.evaluate(exp, w, "w")
        in_w.append(value)
        in_s.append(mptspec.evaluate(exp, -w / exp.scale_w_per_s, "s"))
    # residues come from the nv = 0 expansion, as in acceptance criterion 4:
    # on the "auto" one the Taylor terms of the other poles cancel to only
    # about 1e-6..1e-1 on models with 40 or more modes
    exp0 = mptspec.from_model(item.model)
    residues = [mptspec.poleresidue.contour_residue(exp0, n) for n in range(exp0.n_poles())]
    try:
        mptspec.evaluate(exp, complex(exp.poles_w[0]), "w")
        refused = False
    except mptspec.PoleProximityError:
        refused = True
    return exp, exp0, in_w, in_s, partial, residues, refused


def pole_check(item: PoleItem, result) -> str | None:
    exp, exp0, in_w, in_s, partial, residues, refused = result
    if not refused:
        return "evaluation exactly at a pole was not refused"
    for n, numeric in enumerate(residues):
        exact = mptspec.residue_at_pole(exp0, n).matrix
        err = _rel(np.abs(numeric - exact).max(), np.abs(exact).max())
        if err > 1e-6:
            return f"contour residue at pole {n} off by {err:.2e}"
    for k, (vw, vs) in enumerate(zip(in_w, in_s)):
        err = _rel((vw - vs).norm(), vw.norm())
        if err > 1e-9:
            return f"w and s evaluations at point {k} differ by {err:.2e}"
    for value, sums in partial:
        if len(sums) != exp.n_poles() or _rel((sums[-1] - value).norm(), value.norm()) > 1e-12:
            return "last partial sum differs from the full value"
    # with nv = 0 the expansion equals spectral assembly on the imaginary axis
    for nu in item.axis_nu:
        _, _, m_t = mptspec.assemble(item.model, float(nu))
        err = _rel((mptspec.evaluate(exp0, 1j * nu, "w") - m_t).norm(), m_t.norm())
        if err > 1e-12:
            return f"nv=0 axis value at nu={nu:g} differs from assemble by {err:.2e}"
    return None


# why each workload is there: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle_battery",
            oracle_build, oracle_run, oracle_check,
            stresses=(
                "spectral.assemble", "spectral.mode_tensor", "spectral.commutator_Z",
                "spectral.assemble_dlog", "spectral.limit_tensors",
                "tensors.SymTensor3.from_matrix", "tensors.eigen_sym3",
                "tensors.rotate_tensor", "tensors.offdiag_bound_report",
                "surrogate.generate", "surrogate.eigen_model",
                "surrogate.direct_theta1", "surrogate.verify_identities",
            ),
            bypasses=("cli.", "modelio.", "sphere.", "fitting.", "transient.", "poleresidue."),
        ),
        Workload(
            "sphere_pipeline",
            pipeline_build, pipeline_run, pipeline_check,
            stresses=(
                "cli.sphere", "cli.sweep", "cli.fit", "spectral.assemble",
                "modelio.save_model", "modelio.load_model", "modelio.write_sweep_csv",
                "modelio.read_sweep_csv", "modelio.write_json",
                "sphere.sphere_spectral_model", "sphere.sphere_poles",
                "fitting.fit_report", "fitting.fit_dominant",
            ),
            bypasses=("surrogate.", "transient.", "poleresidue."),
        ),
        Workload(
            "transient_convolution",
            transient_build, transient_run, transient_check,
            stresses=(
                "transient.TransientKernel.impulse", "transient.convolve_excitation",
                "transient.Waveform.segments_until", "spectral.mode_tensor",
                "spectral.limit_tensors",
            ),
            bypasses=(
                "spectral.assemble", "surrogate.", "fitting.", "poleresidue.",
                "sphere.", "modelio.", "cli.",
            ),
        ),
        Workload(
            "pole_residue_plane",
            pole_build, pole_run, pole_check,
            stresses=(
                "poleresidue.from_model", "poleresidue.select_truncation",
                "poleresidue.evaluate", "poleresidue.contour_residue",
                "spectral.mode_tensor",
            ),
            bypasses=(
                "spectral.assemble", "surrogate.", "transient.", "fitting.",
                "sphere.", "modelio.", "cli.",
            ),
        ),
    )
}
