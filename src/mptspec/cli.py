"""Command-line interface tying the modules together.

Frequencies are accepted in Hz and converted to the dimensionless nu
internally.  Exit codes: 0 success, 1 usage/file/schema errors, 2 oracle
verification failure.  ``main`` may be called any number of times in one
process: it builds the argument parser once, on its first call, and reuses
it, since parsing leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fitting, modelio, poleresidue, surrogate, transient
from .errors import MptError
from .spectral import SpectralModel, assemble, commutator_Z
from .sphere import SphereSpec, mpt_sphere, sphere_spectral_model
from .tensors import PACKED_LABELS, perturbed_field


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the oracle subcommand
    # reserves 2 for verification failures, so route usage errors to 1
    def error(self, message):
        raise _UsageError(message)


def _frequency_grid(fmin: float, fmax: float, points: int, log: bool) -> np.ndarray:
    # one positive test, so that NaN fails it
    if not (0.0 <= fmin <= fmax < math.inf and fmax > 0.0 and points >= 2):
        raise _UsageError("need finite 0 <= fmin <= fmax, fmax > 0 and points >= 2")
    if not log:
        return np.linspace(fmin, fmax, points)
    if fmin > 0.0:
        return np.geomspace(fmin, fmax, points)
    # log spacing cannot reach 0: keep the exact zero row and span six decades
    return fitting.default_fit_grid(fmax, points)


def _sweep_rows(model: SpectralModel, freq: np.ndarray):
    omega = 2.0 * np.pi * freq
    nu = model.nu_from_omega(omega)
    r_rows, i_rows = fitting.sweep_coefficients(model, nu)
    return nu, omega, r_rows, i_rows, model.n0.coeffs + r_rows, i_rows


def _cmd_sweep(args) -> int:
    model = modelio.load_model(args.model)
    freq = _frequency_grid(args.fmin, args.fmax, args.points, args.log)
    nu, omega, r_rows, i_rows, rem, imm = _sweep_rows(model, freq)
    modelio.write_sweep_csv(args.out, nu, omega, r_rows, i_rows, rem, imm)
    print(f"wrote {len(nu)} sweep rows to {args.out}")
    return 0


def _cmd_sphere(args) -> int:
    spec = SphereSpec(alpha=args.alpha, mu_r=args.mur, sigma_star=args.sigma)
    wrote = False
    if args.emit_model:
        model = sphere_spectral_model(spec, args.modes)
        modelio.save_model(model, args.emit_model)
        print(f"wrote {len(model.modes)}-mode sphere model to {args.emit_model}")
        wrote = True
    if args.out:
        freq = _frequency_grid(args.fmin, args.fmax, args.points, args.log)
        omega = 2.0 * np.pi * freq
        # mpt_sphere refuses an omega whose nu overflows, so m comes first
        m = np.array([mpt_sphere(spec, w) for w in omega])
        nu = omega * spec.time_constant
        n0 = spec.static_value()
        zeros = np.zeros((len(nu), 3))
        r_rows = np.hstack([np.tile((m.real - n0)[:, None], (1, 3)), zeros])
        i_rows = np.hstack([np.tile(m.imag[:, None], (1, 3)), zeros])
        rem = np.hstack([np.tile(m.real[:, None], (1, 3)), zeros])
        modelio.write_sweep_csv(args.out, nu, omega, r_rows, i_rows, rem, i_rows)
        print(f"wrote {len(nu)} sphere sweep rows to {args.out}")
        wrote = True
    if not wrote:
        raise _UsageError("sphere: pass --out and/or --emit-model")
    return 0


def _cmd_fit(args) -> int:
    sweep = modelio.read_sweep_csv(args.sweep)
    rows = fitting.fit_report((sweep["nu"], sweep["R"], sweep["I"]), args.numax)
    table = []
    for row in rows:
        if row.skipped:
            table.append({"coefficient": row.label, "skipped": True})
            continue
        table.append(
            {
                "coefficient": row.label,
                "skipped": False,
                "a": row.fit_r.amp,
                "b": row.fit_r.rate,
                "c": row.fit_i.amp,
                "d": row.fit_i.rate,
                "rms_R": row.fit_r.rms,
                "rms_I": row.fit_i.rms,
                "converged": row.fit_r.converged and row.fit_i.converged,
                "rates_agree_15pct": row.rates_agree_15pct,
            }
        )
    if args.json_out:
        modelio.write_json(args.json_out, {"nu_max": args.numax, "fits": table})
    header = "coefficient,a,b,c,d,rms_R,rms_I,converged,rates_agree_15pct".split(",")
    csv_rows = []
    for entry in table:
        if entry["skipped"]:
            csv_rows.append([entry["coefficient"], "skipped"] + [""] * 7)
            continue
        csv_rows.append(
            [entry[k] for k in header[:7]] + [str(entry[k]) for k in header[7:]]
        )
    text = modelio.csv_text(header, csv_rows)
    if args.out:
        modelio.write_text(args.out, text)
        print(f"wrote fit table to {args.out}")
    else:
        print(text, end="")
    if args.residuals:
        kept = [r for r in rows if not r.skipped]
        nu = sweep["nu"][sweep["nu"] <= args.numax]
        header_cols = ["nu"]
        cols = [nu]
        for row in kept:
            header_cols += [f"resR{row.label}", f"resI{row.label}"]
            cols += [row.fit_r.residual_curve, row.fit_i.residual_curve]
        text = modelio.csv_text(header_cols, np.column_stack(cols).tolist())
        modelio.write_text(args.residuals, text)
        print(f"wrote residual curves to {args.residuals}")
    return 0


def _cmd_transient(args) -> int:
    # a finite span too, or the grid's step overflows
    if not (
        -math.inf < args.tmin < args.tmax < math.inf
        and args.tmax - args.tmin < math.inf
        and args.points >= 2
    ):
        raise _UsageError("need finite tmin < tmax and points >= 2")
    model = modelio.load_model(args.model)
    times = np.linspace(args.tmin, args.tmax, args.points)
    if args.kind == "step":
        kernel = transient.TransientKernel.step(model)
    else:
        kernel = transient.TransientKernel.impulse(model)
        delta_path = args.delta_out or (args.out + ".delta.json")
        modelio.write_json(
            delta_path,
            {
                "delta_coefficient": [float(c) for c in kernel.delta_part.coeffs],
                "order": list(PACKED_LABELS),
                "note": "distributional part at t = 0; never sampled on the grid",
            },
        )
        print(f"wrote impulse delta part to {delta_path}")
    modelio.write_transient_csv(args.out, times, kernel.sample(times))
    print(f"wrote {len(times)} kernel samples to {args.out}")
    return 0


def _cmd_field(args) -> int:
    model = modelio.load_model(args.model)
    nu = model.nu_from_omega(2.0 * np.pi * args.f)
    _, _, m_t = assemble(model, float(nu))
    vec = perturbed_field(args.x, args.z, m_t, args.h0)
    payload = {
        "f_Hz": args.f,
        "nu": float(nu),
        "field_re_A_per_m": [float(v) for v in vec.real],
        "field_im_A_per_m": [float(v) for v in vec.imag],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_oracle(args) -> int:
    problem = surrogate.generate(args.dim, args.seed, args.shape)
    report = surrogate.verify_identities(
        problem, tol=args.tol, corrupt_coupling=args.inject_corruption
    )
    if args.json_out:
        payload = report.to_dict()
        payload.update({"seed": args.seed, "shape": args.shape, "tol": args.tol})
        modelio.write_json(args.json_out, payload)
    print(
        f"problem: dim={args.dim} seed={args.seed} shape={args.shape} "
        f"tol={args.tol:g} corrupted={args.inject_corruption}"
    )
    print(report.format_text())
    return 0 if report.passed else 2


def _cmd_ml_eval(args) -> int:
    model = modelio.load_model(args.model)
    expansion = poleresidue.from_model(model)
    point = complex(args.re, args.im)
    value = poleresidue.evaluate(expansion, point, variable=args.variable)
    payload = {
        "variable": args.variable,
        "point": [args.re, args.im],
        "ReM": [float(c) for c in value.real.coeffs],
        "ImM": [float(c) for c in value.imag.coeffs],
        "order": list(PACKED_LABELS),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_commutator(args) -> int:
    model = modelio.load_model(args.model)
    freq = _frequency_grid(args.fmin, args.fmax, args.points, log=True)
    freq = freq[freq > 0.0]
    omega = 2.0 * np.pi * freq
    nu = model.nu_from_omega(omega)
    nu2 = None
    if args.kind in ("RR", "II"):
        if args.f2 is None:
            raise _UsageError(f"kind {args.kind} requires --f2")
        nu2 = float(model.nu_from_omega(2.0 * np.pi * args.f2))
    header = ["nu", "omega_rad_s", "f_Hz", "absZ12", "absZ13", "absZ23"]
    z = commutator_Z(model, nu, nu2, kind=args.kind)
    table = np.column_stack((nu, omega, freq, np.abs(z[:, [0, 0, 1], [1, 2, 2]])))
    modelio.write_text(args.out, modelio.csv_text(header, table.tolist()))
    print(f"wrote {len(nu)} commutator rows to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mptspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="frequency sweep of a model to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--fmin", type=float, default=0.0)
    p.add_argument("--fmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--log", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sphere", help="analytic sphere sweep and model extraction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mur", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--fmin", type=float, default=0.0)
    p.add_argument("--fmax", type=float, default=1e8)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--log", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out")
    p.add_argument("--emit-model", dest="emit_model")
    p.add_argument("--modes", type=int, default=30)
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("fit", help="dominant-mode fits of a sweep CSV")
    p.add_argument("--sweep", required=True)
    p.add_argument("--numax", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--json", dest="json_out")
    p.add_argument("--residuals")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("transient", help="step/impulse kernel time series")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("step", "impulse"), required=True)
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-out", dest="delta_out")
    p.set_defaults(func=_cmd_transient)

    p = sub.add_parser("field", help="perturbed field vector at a point")
    p.add_argument("--model", required=True)
    p.add_argument("--x", type=float, nargs=3, required=True)
    p.add_argument("--z", type=float, nargs=3, required=True)
    p.add_argument("--h0", type=float, nargs=3, required=True)
    p.add_argument("--f", type=float, required=True)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("oracle", help="surrogate identity battery")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", choices=surrogate.SPECTRUM_SHAPES, default="linear")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", dest="json_out")
    p.add_argument("--inject-corruption", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ml-eval", help="pole-residue evaluation at a complex point")
    p.add_argument("--model", required=True)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, required=True)
    p.add_argument("--variable", choices=("w", "s"), default="w")
    p.set_defaults(func=_cmd_ml_eval)

    p = sub.add_parser("commutator", help="|Z| columns against frequency")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("RI", "RR", "II"), default="RI")
    p.add_argument("--fmin", type=float, required=True)
    p.add_argument("--fmax", type=float, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--f2", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_commutator)

    return parser


# building the parser costs more than parsing with it, mostly in argparse's
# help formatters, which each query the terminal size
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, MptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
