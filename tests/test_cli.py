"""Command-line surface, serialisation round-trips, exit-code contract."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mptspec import MptError, SchemaError, SphereSpec, sphere_spectral_model
from mptspec import cli
from mptspec.cli import build_parser, main
from mptspec.modelio import (
    SWEEP_HEADER,
    csv_text,
    document_to_model,
    load_model,
    model_to_document,
    read_sweep_csv,
    save_model,
    write_sweep_csv,
    write_transient_csv,
)
from conftest import random_model


@pytest.fixture
def sphere_model_path(tmp_path):
    path = tmp_path / "sphere.json"
    code = main(
        [
            "sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
            "--emit-model", str(path), "--modes", "10",
        ]
    )
    assert code == 0
    return str(path)


class TestModelDocument:
    def test_round_trip_byte_identical(self, tmp_path):
        model = random_model(3, n_modes=4)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(model, str(p1))
        save_model(load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_document_fields(self):
        model = random_model(1)
        doc = model_to_document(model)
        assert doc["schema_version"] == 1
        assert len(doc["N0"]) == 6
        assert doc["modes"][0]["multiplicity"] == model.modes[0].multiplicity

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        from mptspec import SchemaError

        with pytest.raises(SchemaError):
            load_model(str(bad))

    def test_values_survive_round_trip_exactly(self, tmp_path):
        model = random_model(5, n_modes=3)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        back = load_model(str(path))
        np.testing.assert_array_equal(back.n0.coeffs, model.n0.coeffs)
        for m1, m2 in zip(model.modes, back.modes):
            assert m1.lam == m2.lam
            np.testing.assert_array_equal(m1.couplings, m2.couplings)


# (path into the model document, value written there); the loader coerced
# or accepted every one of these before it checked field types
BAD_FIELDS = [
    (("tail_bound",), "abc"),
    (("tail_bound",), float("nan")),
    (("tail_bound",), -1.0),
    (("modes", 0, "multiplicity"), 3.7),
    (("modes", 0, "dark"), "false"),
    (("modes", 0, "lambda"), True),
    (("topology_flag",), 42),
    (("schema_version",), True),
    (("schema_version",), 1.0),
    (("N0", 0), True),
    (("N0", 2), "1e-3"),
    (("N0", 5), None),
    (("modes", 0, "couplings", 0, 0), True),
    (("modes", 0, "couplings", 0, 1), "1e-3"),
]


def _field_id(path, value) -> str:
    # the last key of the path and any list indices after it: couplings[0][1]
    i = max(k for k, key in enumerate(path) if isinstance(key, str))
    return path[i] + "".join(f"[{k}]" for k in path[i + 1 :]) + f"={value!r}"


class TestStrictModelDocument:
    @pytest.mark.parametrize(
        "path, value", BAD_FIELDS, ids=[_field_id(p, v) for p, v in BAD_FIELDS]
    )
    def test_bad_field_is_schema_error(self, path, value, tmp_path):
        model = sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 3)
        doc = model_to_document(model)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError):
            document_to_model(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--model", str(bad), "--fmax", "1e4", "--out", str(out)]) == 1


class TestSweepCsv:
    def test_header_golden(self, tmp_path, sphere_model_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--model", sphere_model_path, "--fmax", "1e4", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(SWEEP_HEADER)
        assert header.startswith("nu,omega_rad_s,f_Hz,R11,R22,R33,R12,R13,R23,I11")

    def test_values_round_trip_17_digits(self, tmp_path, sphere_model_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--model", sphere_model_path, "--fmax", "1e4", "--out", str(out)])
        sweep = read_sweep_csv(str(out))
        model = load_model(sphere_model_path)
        from mptspec import assemble

        k = 17
        nu = sweep["nu"][k]
        r_t, i_t, _ = assemble(model, nu)
        np.testing.assert_array_equal(sweep["R"][k], r_t.coeffs)
        np.testing.assert_array_equal(sweep["I"][k], i_t.coeffs)

    def test_sphere_sweep_limits(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            [
                "sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
                "--fmin", "0", "--fmax", "1e8", "--points", "120", "--out", str(out),
            ]
        )
        assert code == 0
        sweep = read_sweep_csv(str(out))
        assert sweep["ReM"][0, 0] == pytest.approx(1.7952e-6, rel=1e-3)
        assert sweep["ReM"][-1, 0] == pytest.approx(-6.2832e-6, rel=1e-2)


class TestExitCodes:
    def test_oracle_pass_is_zero(self):
        assert main(["oracle", "--dim", "2", "--seed", "1"]) == 0

    def test_oracle_corruption_is_two(self):
        assert main(["oracle", "--dim", "6", "--seed", "1", "--inject-corruption"]) == 2

    def test_missing_file_is_one(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--model", "/does/not/exist.json", "--fmax", "1",
                     "--out", str(out)]) == 1

    def test_unknown_flag_is_one(self):
        assert main(["sweep", "--bogus", "1"]) == 1

    def test_schema_mismatch_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--model", str(bad), "--fmax", "1", "--out", str(out)]) == 1


# numeric CLI arguments the subcommands accepted, coerced or failed late on;
# "MODEL" stands for a model file, and the test appends --out
STEP = ["transient", "--model", "MODEL", "--kind", "step"]
BAD_ARGUMENTS = [
    ["sweep", "--model", "MODEL", "--fmin", "-5", "--fmax", "1e4"],
    ["sweep", "--model", "MODEL", "--fmin", "nan", "--fmax", "1e4"],
    ["sweep", "--model", "MODEL", "--fmax", "inf"],
    ["sweep", "--model", "MODEL", "--fmax", "nan", "--no-log"],
    ["sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6", "--fmin", "-3"],
    ["commutator", "--model", "MODEL", "--fmin", "-1", "--fmax", "1e4"],
    STEP + ["--tmax", "1e-3", "--points", "-1"],
    STEP + ["--tmax", "1e-3", "--points", "1"],
    STEP + ["--tmax", "nan"],
    STEP + ["--tmin=-1e308", "--tmax", "1e308"],
    ["transient", "--model", "MODEL", "--kind", "impulse", "--tmin=-inf", "--tmax", "1"],
]


class TestStrictArguments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv", BAD_ARGUMENTS, ids=[" ".join(a) for a in BAD_ARGUMENTS]
    )
    def test_bad_number_is_usage_error(self, argv, tmp_path, sphere_model_path, capsys):
        out = tmp_path / "out.csv"
        argv = [sphere_model_path if a == "MODEL" else a for a in argv]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need finite")
        assert not out.exists()


class TestStrictLibraryArguments:
    # values only the library checks; they fail as MptError, so exit 1
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_oracle_bad_tol_is_one(self, tol, capsys):
        assert main(["oracle", "--dim", "3", "--seed", "1", f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: tol must be positive and finite")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["--x", "--z", "--h0"])
    def test_field_non_finite_vector_is_one(self, option, value, sphere_model_path, capsys):
        vectors = {"--x": ["0.5", "0", "0"], "--z": ["0", "0", "0"], "--h0": ["0", "0", "1"]}
        vectors[option][2] = value
        argv = ["field", "--model", sphere_model_path, "--f", "1e3"]
        for name, vec in vectors.items():
            argv += [name, *vec]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err


    @pytest.mark.filterwarnings("error")
    def test_field_overflowing_near_point_is_one(self, sphere_model_path, capsys):
        argv = ["field", "--model", sphere_model_path, "--x", "1e-110", "0", "0",
                "--z", "0", "0", "0", "--h0", "0", "0", "1", "--f", "1e3"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "|x - z| = 1e-110" in err

    @pytest.mark.filterwarnings("error")
    def test_field_overflowing_product_is_one(self, sphere_model_path, capsys):
        argv = ["field", "--model", sphere_model_path, "--x", "1e-100", "0", "0",
                "--z", "0", "0", "0", "--h0", "1e160", "0", "0", "--f", "1e3"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: perturbed field exceeds the float range\n"

    @pytest.mark.filterwarnings("error")
    def test_field_far_point_is_finite(self, sphere_model_path, capsys):
        argv = ["field", "--model", sphere_model_path, "--x", "1e110", "0", "0",
                "--z", "0", "0", "0", "--h0", "0", "0", "1", "--f", "1e3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("field_re_A_per_m", "field_im_A_per_m"):
            assert len(payload[key]) == 3 and np.all(np.isfinite(payload[key]))


class TestExtremeModelScale:
    # a size whose cube overflows, and one whose cube underflows; both ended
    # in an OverflowError or ZeroDivisionError traceback before the scale
    # rule was shared
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e200, 1e-200])
    @pytest.mark.parametrize("command", [
        ["sweep", "--fmax", "1e4", "--points", "5", "--out"],
        ["transient", "--kind", "impulse", "--tmax", "1e-3", "--points", "5", "--out"],
        ["ml-eval", "--re", "1", "--im", "1"],
        ["field", "--x", "1", "0", "0", "--z", "0", "0", "0", "--h0", "1", "0", "0",
         "--f", "1e3"],
        ["commutator", "--fmin", "1", "--fmax", "1e3", "--points", "5", "--out"],
    ], ids=lambda argv: argv[0])
    def test_exits_one_without_traceback(self, alpha, command, tmp_path,
                                         sphere_model_path):
        doc = json.loads(Path(sphere_model_path).read_text())
        doc["alpha_m"] = alpha
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        argv = [command[0], "--model", str(path), *command[1:]]
        if argv[-1] == "--out":
            argv.append(str(tmp_path / "out.csv"))
        code, err = _run_quietly(argv)
        assert code == 1
        assert err.startswith("error: malformed model document: alpha^3")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def range_models(tmp_path_factory):
    """Model files past the float range of a decay rate or of a commutator."""
    root = tmp_path_factory.mktemp("range")
    doc = model_to_document(sphere_spectral_model(SphereSpec(0.01, 2.0, 5.96e6), 30))
    docs = {name: copy.deepcopy(doc) for name in ("overflow", "underflow", "commuting")}
    # lam / time_constant overflows to -inf, or underflows to -0.0
    docs["overflow"]["alpha_m"] = 1e-100
    docs["overflow"]["modes"][-1]["lambda"] = 1e308
    docs["underflow"].update(alpha_m=1e100, sigma_star_S_per_m=1e100)
    docs["underflow"]["modes"][0]["lambda"] = 5e-324
    # residues near 1e300, so the commutator's products overflow
    docs["commuting"]["alpha_m"] = 1e100
    docs["anisotropic"] = model_to_document(random_model(4, n_modes=3, alpha=1e100))
    paths = {name: str(root / f"{name}.json") for name in docs}
    for name, path in paths.items():
        Path(path).write_text(json.dumps(docs[name]))
    return paths


class TestRangeCli:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edge", ["overflow", "underflow"])
    @pytest.mark.parametrize("command", [
        ["transient", "--kind", "impulse", "--tmax", "1e-3", "--points", "5", "--out"],
        ["transient", "--kind", "step", "--tmax", "1e-3", "--points", "5", "--out"],
        ["ml-eval", "--re", "1", "--im", "1"],
    ], ids=["impulse", "step", "ml-eval"])
    def test_out_of_range_decay_rate_exits_one(self, edge, command, range_models,
                                               tmp_path):
        argv = [command[0], "--model", range_models[edge], *command[1:]]
        if argv[-1] == "--out":
            argv.append(str(tmp_path / "out.csv"))
        code, err = _run_quietly(argv)
        assert code == 1
        assert err == "error: decay rates lam_n / time_constant leave the float range\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edge", ["overflow", "underflow"])
    def test_sweep_needs_no_decay_rate(self, edge, range_models, tmp_path):
        argv = ["sweep", "--model", range_models[edge], "--fmax", "1e4", "--points", "5",
                "--out", str(tmp_path / "s.csv")]
        assert _run_quietly(argv) == (0, "")

    @pytest.mark.filterwarnings("error")
    def test_commuting_tensors_past_the_product_range(self, range_models, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["commutator", "--model", range_models["commuting"], "--fmin", "1",
                "--fmax", "1e3", "--points", "3", "--out", str(out)]
        assert _run_quietly(argv) == (0, "")
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (3, 6) and np.all(rows[:, 3:] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_commutator_past_the_float_range_exits_one(self, range_models, tmp_path):
        argv = ["commutator", "--model", range_models["anisotropic"], "--fmin", "1e-300",
                "--fmax", "1e-290", "--points", "3", "--out", str(tmp_path / "c.csv")]
        code, err = _run_quietly(argv)
        assert code == 1
        assert err == "error: commutator exceeds the float range\n"


class TestTransientCli:
    def test_step_long_time_rows_reach_n0(self, tmp_path, sphere_model_path):
        model = load_model(sphere_model_path)
        from mptspec import TransientKernel

        slowest = abs(TransientKernel.step(model).slowest_rate())
        out = tmp_path / "k.csv"
        code = main(
            [
                "transient", "--model", sphere_model_path, "--kind", "step",
                "--tmin", "0", "--tmax", str(12.0 / slowest), "--points", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0][0] == "t_s"
        last = np.array([float(v) for v in rows[-1][1:]])
        np.testing.assert_allclose(
            last, model.n0.coeffs, atol=1e-4 * model.n0.norm()
        )

    def test_impulse_emits_delta_json(self, tmp_path, sphere_model_path):
        out = tmp_path / "imp.csv"
        code = main(
            [
                "transient", "--model", sphere_model_path, "--kind", "impulse",
                "--tmin", "0", "--tmax", "1e-3", "--points", "10", "--out", str(out),
            ]
        )
        assert code == 0
        delta = json.loads((tmp_path / "imp.csv.delta.json").read_text())
        model = load_model(sphere_model_path)
        from mptspec import limit_tensors

        _, minf = limit_tensors(model)
        np.testing.assert_allclose(delta["delta_coefficient"], minf.coeffs)


class TestOtherSubcommands:
    def test_field_output(self, tmp_path, sphere_model_path, capsys):
        code = main(
            [
                "field", "--model", sphere_model_path,
                "--x", "0.5", "0", "0", "--z", "0", "0", "0",
                "--h0", "0", "0", "1", "--f", "1e3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["field_re_A_per_m"]) == 3
        assert payload["nu"] == pytest.approx(4.7058, rel=1e-3)

    def test_ml_eval_matches_assembly(self, tmp_path, sphere_model_path, capsys):
        model = load_model(sphere_model_path)
        nu = 5.0
        code = main(
            ["ml-eval", "--model", sphere_model_path, "--re", "0", "--im", str(nu)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        from mptspec import assemble

        _, _, m_t = assemble(model, nu)
        np.testing.assert_allclose(payload["ReM"], m_t.real.coeffs, rtol=1e-12)
        np.testing.assert_allclose(payload["ImM"], m_t.imag.coeffs, rtol=1e-12)

    def test_commutator_csv(self, tmp_path):
        model = random_model(4, n_modes=3)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        out = tmp_path / "z.csv"
        code = main(
            [
                "commutator", "--model", str(path), "--kind", "RI",
                "--fmin", "1", "--fmax", "1e5", "--points", "40", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nu,omega_rad_s,f_Hz,absZ12,absZ13,absZ23"
        assert len(lines) > 30

    def test_fit_pipeline_files_only(self, tmp_path):
        model_path = tmp_path / "m.json"
        sweep_path = tmp_path / "s.csv"
        fit_json = tmp_path / "fit.json"
        assert main(
            [
                "sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
                "--emit-model", str(model_path), "--modes", "20",
            ]
        ) == 0
        assert main(
            [
                "sweep", "--model", str(model_path), "--fmin", "0", "--fmax", "1e4",
                "--points", "200", "--out", str(sweep_path),
            ]
        ) == 0
        assert main(
            ["fit", "--sweep", str(sweep_path), "--numax", "47.06",
             "--json", str(fit_json)]
        ) == 0
        table = json.loads(fit_json.read_text())["fits"]
        first = table[0]
        assert not first["skipped"]
        assert abs(first["b"] - 10.0) <= 1.5
        assert abs(first["d"] - 10.0) <= 1.5


class TestFitResiduals:
    def test_residual_curves_emitted(self, tmp_path):
        sweep_path = tmp_path / "s.csv"
        res_path = tmp_path / "res.csv"
        assert main(
            [
                "sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
                "--fmin", "0", "--fmax", "1e4", "--points", "120",
                "--out", str(sweep_path),
            ]
        ) == 0
        assert main(
            ["fit", "--sweep", str(sweep_path), "--numax", "47.06",
             "--out", str(tmp_path / "t.csv"), "--residuals", str(res_path)]
        ) == 0
        lines = res_path.read_text().splitlines()
        assert lines[0].startswith("nu,resR11,resI11")
        cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # R residuals are emitted negated, I residuals positive
        assert np.all(cols[:, 1] <= 0.0)
        assert np.all(cols[:, 2] >= 0.0)


class TestFitScale:
    @pytest.mark.filterwarnings("error")
    def test_scaled_sweeps_give_unscaled_rates(self, tmp_path):
        # unnormalised, every projected residual of the 1e200 sweep
        # overflows and those of the 1e-200 sweep sink to the noise floor
        sweep_path = tmp_path / "s.csv"
        assert main(
            [
                "sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
                "--fmin", "0", "--fmax", "1e4", "--points", "60",
                "--out", str(sweep_path),
            ]
        ) == 0

        def fit_rates(path):
            out = tmp_path / "fit.json"
            assert main(
                ["fit", "--sweep", str(path), "--numax", "40", "--json", str(out)]
            ) == 0
            entry = json.loads(out.read_text())["fits"][0]
            assert entry["converged"]
            return entry["b"], entry["d"]

        base = fit_rates(sweep_path)
        sweep = read_sweep_csv(str(sweep_path))
        for factor in (1e200, 1e-200):
            path = tmp_path / f"s{factor:g}.csv"
            write_sweep_csv(
                str(path), sweep["nu"], sweep["omega"], factor * sweep["R"],
                factor * sweep["I"], sweep["ReM"], sweep["ImM"],
            )
            assert fit_rates(path) == pytest.approx(base, rel=1e-12)


class TestOracleJson:
    def test_seed_and_shape_recorded(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["oracle", "--dim", "5", "--seed", "42", "--shape", "clustered",
             "--json", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 42
        assert payload["shape"] == "clustered"
        assert payload["tol"] == 1e-9
        assert payload["passed"] is True


class TestMalformedSweep:
    def test_bad_rows_exit_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(SWEEP_HEADER) + "\n1,2,not_a_number\n")
        assert main(["fit", "--sweep", str(bad), "--numax", "10"]) == 1


def _cli_table_outputs(tmp_path, capsys) -> dict:
    """Run every table-writing subcommand on fixed inputs; name -> bytes."""
    p = {name: str(tmp_path / name) for name in (
        "m.json", "sphere.csv", "log.csv", "lin.csv", "fit.csv", "fit.json",
        "res.csv", "step.csv", "imp.csv", "imp.json", "aniso.json", "ri.csv", "rr.csv",
    )}
    sphere = ["sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6"]
    runs = [
        sphere + ["--emit-model", p["m.json"], "--modes", "10"],
        sphere + ["--fmin", "0", "--fmax", "1e4", "--points", "120",
                  "--out", p["sphere.csv"]],
        ["sweep", "--model", p["m.json"], "--fmin", "0", "--fmax", "1e4",
         "--points", "80", "--out", p["log.csv"]],
        ["sweep", "--model", p["m.json"], "--fmin", "10", "--fmax", "1e4",
         "--points", "50", "--no-log", "--out", p["lin.csv"]],
        ["fit", "--sweep", p["sphere.csv"], "--numax", "47.06", "--out", p["fit.csv"],
         "--json", p["fit.json"], "--residuals", p["res.csv"]],
        ["transient", "--model", p["m.json"], "--kind", "step", "--tmin", "0",
         "--tmax", "1e-3", "--points", "40", "--out", p["step.csv"]],
        ["transient", "--model", p["m.json"], "--kind", "impulse", "--tmin", "0",
         "--tmax", "1e-3", "--points", "40", "--out", p["imp.csv"],
         "--delta-out", p["imp.json"]],
    ]
    save_model(random_model(4, n_modes=3), p["aniso.json"])
    commutator = ["commutator", "--model", p["aniso.json"], "--fmin", "1",
                  "--fmax", "1e5", "--points", "40"]
    runs += [
        commutator + ["--kind", "RI", "--out", p["ri.csv"]],
        commutator + ["--kind", "RR", "--f2", "300", "--out", p["rr.csv"]],
    ]
    for argv in runs:
        assert main(argv) == 0
    capsys.readouterr()
    out = {name: (tmp_path / name).read_bytes() for name in p}
    stdout_runs = {
        "fit stdout": ["fit", "--sweep", p["sphere.csv"], "--numax", "47.06"],
        "ml-eval w stdout": ["ml-eval", "--model", p["aniso.json"], "--re", "3",
                             "--im", "4"],
        "ml-eval s stdout": ["ml-eval", "--model", p["aniso.json"], "--re=-2e3",
                             "--im", "500", "--variable", "s"],
        "field stdout": ["field", "--model", p["aniso.json"], "--x", "0.3", "-0.1", "0.2",
                         "--z", "0", "0.05", "0", "--h0", "1", "-2", "0.5", "--f", "2e3"],
    }
    for name, argv in stdout_runs.items():
        assert main(argv) == 0
        out[name] = capsys.readouterr().out.encode()
    return out


# SHA-256 of every file and of the stdout table written by the commands of
# _cli_table_outputs, taken before the tables shared one CSV writer; the fit
# outputs (fit.csv, fit.json, res.csv, fit stdout) retaken when the fit moved
# to a 1-D search over the rate, which moved its rates by at most 5.5e-12
# relative; the ml-eval and field stdout taken before the decay rates were
# formed in one place
CLI_TABLE_SHA256 = {
    "m.json": "e0871d10c938f9595418e749b7862768ad7b19af14fc5bad730d8533936e39a9",
    "sphere.csv": "c31955a384c52d9cc99141c553cdccf19d7210f23101ffd3bf8be70e5850e234",
    "log.csv": "682ca04982ccba1f1ca899c8c174ddae5655d6fe8b98c15a939d0b24423d3c03",
    "lin.csv": "c925c86ebf283173c52d4ec7ff8150e32776b15e70da65279dfaeb00ad56afd0",
    "fit.csv": "fc4d211b9b60ddae6ffa419dbfc9a8cee89d42ff635b610b7a47f10775172e40",
    "fit.json": "e2d13300e55e963618ebd38f7b5bfec30222237a13725f889f377bac7b5b4ad4",
    "res.csv": "52f1e5089e2eac8c1cb49d96edf9a1dff9d02ab23c3ae1cd7e8f7107889f3701",
    "step.csv": "fa82434b9b9753629e7e99b5d2f58467503190e55f9fecfd03e37a9f59b0f64e",
    "imp.csv": "cbdff570bda661308a616097673696d3ad387dc17086e30ffbb7f48a1e4499e1",
    "imp.json": "410ba3eabab4676147c7b1dfe657c322d048eb5eed02d4faeea87d613a40585d",
    "aniso.json": "98697a68fef20dc35972af5cf38f478fd1fa91236b5b73283c55c5d2e21dce72",
    "ri.csv": "887165d64c204566f957201584c3fa243bce99fe0ec0f00811474b30622f7344",
    "rr.csv": "f2c8272b36b92224272043132502e370c789bbba2adbe3a41d6e384a0ea2dfcb",
    "fit stdout": "fc4d211b9b60ddae6ffa419dbfc9a8cee89d42ff635b610b7a47f10775172e40",
    "ml-eval w stdout": "92cd6a20b01276115df1b927baebbf008c5fd12f56e394d1c75dcb441c2897dd",
    "ml-eval s stdout": "2a983200ccb32c27c303b299318465f2363bd4e65f4f5efb71fb61ab54e9d8ed",
    "field stdout": "f0074c160718fdbb13f057c7c56383e4bd7d5c6899d22f5f618d09ed43699371",
}


class TestOutputBytes:
    def test_cli_tables_pinned(self, tmp_path, capsys):
        got = _cli_table_outputs(tmp_path, capsys)
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in got.items()}
        assert digests == CLI_TABLE_SHA256


def _old_rows_csv(header, columns) -> str:
    # the per-row formatter the CSV writers used before they shared one:
    # each value as its own (numpy) scalar, 17 significant digits
    lines = [",".join(header)]
    for k in range(len(columns[0])):
        lines.append(",".join(f"{c[k]:.17g}" for c in columns))
    return "\n".join(lines) + "\n"


class TestCsvWriterBytes:
    SPECIAL = np.array(
        [-0.0, 5e-324, 1e300, 0.0, 3.0, -7.0, 1e20, -1e-300, 0.1, 2.0**53]
    )

    def _table(self, rng, rows, cols):
        # magnitudes over the whole double range, the special values in the
        # first column and integral values in every third row
        shape = (rows, cols)
        table = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        table[: self.SPECIAL.size, 0] = self.SPECIAL
        whole = table[self.SPECIAL.size :: 3]
        whole[:] = rng.integers(-(10**9), 10**9, whole.shape)
        return table

    def test_sweep_writer_matches_old_formatter(self, tmp_path, rng):
        t = self._table(rng, 40, 26)
        path = tmp_path / "s.csv"
        blocks = t[:, 2:8], t[:, 8:14], t[:, 14:20], t[:, 20:]
        write_sweep_csv(str(path), t[:, 0], t[:, 1], *blocks)
        freq = t[:, 1] / (2.0 * np.pi)
        columns = [t[:, 0], t[:, 1], freq, *t[:, 2:].T]
        assert path.read_text() == _old_rows_csv(SWEEP_HEADER, columns)

    @pytest.mark.parametrize("int_times", [False, True])
    def test_transient_writer_matches_old_formatter(self, tmp_path, rng, int_times):
        t = self._table(rng, 40, 7)
        times = np.arange(40) if int_times else t[:, 0]
        path = tmp_path / "k.csv"
        write_transient_csv(str(path), times, t[:, 1:])
        header = ["t_s", "K11", "K22", "K33", "K12", "K13", "K23"]
        assert path.read_text() == _old_rows_csv(header, [times, *t[:, 1:].T])

    def test_special_values_read_back_exactly(self):
        text = csv_text(["x", "label"], [[v, "s"] for v in self.SPECIAL.tolist()])
        lines = text.splitlines()
        assert text.endswith("\n") and lines[0] == "x,label"
        back = np.array([float(line.split(",")[0]) for line in lines[1:]])
        np.testing.assert_array_equal(back, self.SPECIAL)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(self.SPECIAL))
        assert {line.split(",")[1] for line in lines[1:]} == {"s"}


# (column, text) written into one row of a valid sweep; float() accepts all
# of these, and the reader passed them on
BAD_SWEEP_FIELDS = [
    ("nu", "nan"),
    ("nu", "NaN"),
    ("nu", "inf"),
    ("nu", "1_0"),
    ("f_Hz", "Infinity"),
    ("R11", "-inf"),
    ("I11", "1_0e-6"),
    ("R22", "\u0661\u0660"),
    ("ImM33", "\uff11\uff10"),
]


class TestStrictSweepCsv:
    @pytest.fixture
    def sweep_path(self, tmp_path):
        path = tmp_path / "s.csv"
        argv = ["sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
                "--fmin", "0", "--fmax", "1e4", "--points", "60", "--out", str(path)]
        assert main(argv) == 0
        return path

    @pytest.mark.parametrize(
        "column, text", BAD_SWEEP_FIELDS, ids=[f"{c}={t}" for c, t in BAD_SWEEP_FIELDS]
    )
    def test_bad_field_is_schema_error(self, sweep_path, column, text):
        lines = sweep_path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[SWEEP_HEADER.index(column)] = text
        lines[5] = ",".join(fields)
        sweep_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            read_sweep_csv(str(sweep_path))
        assert main(["fit", "--sweep", str(sweep_path), "--numax", "47.06"]) == 1

    def test_spaces_and_exponent_forms_accepted(self, sweep_path):
        want = read_sweep_csv(str(sweep_path))
        lines = sweep_path.read_text().splitlines()
        # padded, signed, upper-case exponent, 17 significant digits
        respelled = [
            ",".join(f" {float(v):+.16E} " for v in line.split(","))
            for line in lines[1:]
        ]
        sweep_path.write_text("\n".join(lines[:1] + respelled) + "\n")
        got = read_sweep_csv(str(sweep_path))
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])


@pytest.fixture
def fresh_parser(monkeypatch):
    """A shared parser that no earlier call has used; counts its builds."""
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_shared_parser", functools.cache(counted))
    return builds


class TestSharedParser:
    def _sweep(self, model_path, out, extra=()):
        argv = ["sweep", "--model", model_path, "--fmin", "0", "--fmax", "1e4",
                "--points", "12", "--out", str(out), *extra]
        assert main(argv) == 0
        return out.read_bytes()

    def test_earlier_flag_does_not_leak(self, tmp_path, sphere_model_path, fresh_parser):
        alone = self._sweep(sphere_model_path, tmp_path / "a.csv")
        linear = self._sweep(sphere_model_path, tmp_path / "b.csv", ["--no-log"])
        after = self._sweep(sphere_model_path, tmp_path / "c.csv")
        assert after == alone != linear
        assert fresh_parser == [1]
        nu = read_sweep_csv(str(tmp_path / "c.csv"))["nu"]
        assert nu[0] == 0.0
        np.testing.assert_allclose(nu[2:] / nu[1:-1], nu[2] / nu[1], rtol=1e-12)

    def test_usage_error_then_valid_command(self, tmp_path, sphere_model_path,
                                            fresh_parser, capsys):
        before = self._sweep(sphere_model_path, tmp_path / "a.csv")
        first = capsys.readouterr()
        for bad in (["sweep", "--bogus", "1"], ["sweep", "--points", "x"], ["sweep"], []):
            assert main(bad) == 1
            assert capsys.readouterr().err.startswith("error: ")
        after = self._sweep(sphere_model_path, tmp_path / "b.csv")
        second = capsys.readouterr()
        assert after == before
        assert second.out.replace("b.csv", "a.csv") == first.out
        assert second.err == first.err == ""
        assert fresh_parser == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
        assert cli._shared_parser() is cli._shared_parser()


class TestPackageProcess:
    # the package started as a program, with every warning an error
    @pytest.mark.parametrize("argv, code, err", [
        (["oracle", "--dim", "3", "--seed", "1"], 0, ""),
        (["oracle", "--dim", "3"], 1, "error: the following arguments are required: --seed\n"),
    ], ids=["oracle", "usage error"])
    def test_python_m_mptspec(self, argv, code, err):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-W", "error", "-m", "mptspec", *argv],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": path})
        assert (run.returncode, run.stderr) == (code, err)


# the argv fuzz: options of every subcommand with values from small sets.
# Sizes stay small, so that no run asks for a large allocation.
SPECIAL = ["nan", "inf", "-inf", "0", "-1"]
SIZES = st.sampled_from(["1", "2", "3", "5", *SPECIAL])
REALS = st.sampled_from(
    ["1", "1e-3", "0.01", "1.5", "5.96e6", "1e4", "1e100", "1e-100", "1e160",
     "1e-160", "1e300", "1e-300", "-1e300", "x", *SPECIAL]
)
FUZZ_OPTIONS = {
    "sweep": ("--model", "--fmax", "--out", "--fmin", "--points", "--log", "--no-log"),
    "sphere": ("--alpha", "--mur", "--sigma", "--fmin", "--fmax", "--points", "--log",
               "--no-log", "--out", "--emit-model", "--modes"),
    "fit": ("--sweep", "--numax", "--out", "--json", "--residuals"),
    "transient": ("--model", "--kind", "--tmax", "--out", "--tmin", "--points",
                  "--delta-out"),
    "field": ("--model", "--x", "--z", "--h0", "--f"),
    "oracle": ("--dim", "--seed", "--shape", "--tol", "--json", "--inject-corruption"),
    "ml-eval": ("--model", "--re", "--im", "--variable"),
    "commutator": ("--model", "--fmin", "--fmax", "--out", "--kind", "--points", "--f2"),
}
FUZZ_CHOICES = {
    "--kind": ["step", "impulse", "RI", "RR", "II", "XX"],
    "--shape": ["linear", "quadratic", "clustered", "bogus"],
    "--variable": ["w", "s", "z"],
}
FUZZ_FLAGS = {"--log", "--no-log", "--inject-corruption"}
FUZZ_SIZES = {"--points", "--dim", "--modes", "--seed"}
FUZZ_VECTORS = {"--x", "--z", "--h0"}
FUZZ_INPUTS = {"--model", "--sweep"}


@st.composite
def fuzz_argv(draw, inputs, outputs):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    # each option is present with probability 3/4, so most runs get past
    # argparse's required-option check and reach the command
    argv = [command]
    for name in FUZZ_OPTIONS[command]:
        if draw(st.integers(0, 3)) == 0:
            continue
        argv.append(name)
        if name in FUZZ_FLAGS:
            continue
        if name in FUZZ_CHOICES:
            values = st.sampled_from(FUZZ_CHOICES[name])
        elif name in FUZZ_SIZES:
            values = SIZES
        elif name in FUZZ_INPUTS:
            values = st.sampled_from(inputs)
        elif name in ("--out", "--json", "--residuals", "--emit-model", "--delta-out"):
            values = st.sampled_from(outputs)
        else:
            values = REALS
        argv += [draw(values) for _ in range(3 if name in FUZZ_VECTORS else 1)]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model, sweep = str(root / "m.json"), str(root / "s.csv")
    sphere = ["sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sphere + ["--emit-model", model, "--modes", "2"]) == 0
        assert main(sphere + ["--fmax", "1e4", "--points", "12", "--out", sweep]) == 0
    inputs = [model, sweep, str(root / "missing.json"), str(root)]
    outputs = [str(root / "o1"), str(root / "o2"), str(root / "no" / "dir")]
    return inputs, outputs


def _run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestArgvFuzz:
    @pytest.mark.filterwarnings("error")
    def test_repeated_runs_exit_cleanly(self, fuzz_files):
        inputs, outputs = fuzz_files
        reference = ["sweep", "--model", inputs[0], "--fmax", "1e4", "--points", "5",
                     "--out", outputs[0]]
        assert _run_quietly(reference) == (0, "")
        pinned = Path(outputs[0]).read_bytes()

        @settings(max_examples=300, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.lists(fuzz_argv(inputs, outputs), min_size=1, max_size=3))
        def runs(argvs):
            for argv in argvs:
                code, err = _run_quietly(argv)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err, argv
            # nothing the runs parsed carries over into the next parse
            assert _run_quietly(reference) == (0, "")
            assert Path(outputs[0]).read_bytes() == pinned

        runs()


# the file fuzz: model documents and sweep CSVs with values swapped for
# extreme, mistyped or nested ones, and keys dropped.  Every list is short,
# so that no input asks for a large allocation.
FILE_VALUES = [1e200, -1e200, 1e-200, 1e100, 1e-100, 1e308, -1e308, 1e-308, 5e-324, 0,
               -1, 0.0, 2, True, False, "x", "1e-3", None, [], [1.0],
               [[1.0, 2.0], [3.0]], {}]
CSV_VALUES = ["1e200", "-1e200", "1e-200", "1e308", "-1e308", "1e-308", "5e-324", "0",
              "-0", "-1", "nan", "inf", "true", "null", "x", "", "[1]"]


def _paths(node, prefix=()):
    """Every key or index path below a JSON node, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_document(draw, documents):
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            # a copy, so that a later mutation cannot change FILE_VALUES
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FILE_VALUES)))
    return doc


@st.composite
def mutated_sweep(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, len(lines) - 1))
        if draw(st.integers(0, 5)) == 0:
            del lines[row]
            if not lines:
                break
            continue
        fields = lines[row].split(",")
        column = draw(st.integers(0, len(fields) - 1))
        if draw(st.integers(0, 5)) == 0:
            del fields[column]
        else:
            fields[column] = draw(st.sampled_from(CSV_VALUES))
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


class TestFileFuzz:
    FUZZ = settings(max_examples=120, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

    @pytest.mark.filterwarnings("error")
    def test_model_documents_load_strictly(self, tmp_path):
        documents = [
            model_to_document(sphere_spectral_model(SphereSpec(0.01, 1.5, 5.96e6), 2)),
            model_to_document(random_model(4, n_modes=2)),
        ]
        first, second, out = (str(tmp_path / n) for n in ("a.json", "b.json", "s.csv"))
        # every subcommand that reads a model, after it loaded and round-tripped
        commands = [
            ["sweep", "--fmax", "1e4", "--points", "5", "--out", out],
            ["commutator", "--fmin", "1", "--fmax", "1e3", "--points", "3", "--out", out],
            ["commutator", "--kind", "RR", "--f2", "300", "--fmin", "1", "--fmax", "1e3",
             "--points", "3", "--out", out],
            ["transient", "--kind", "step", "--tmax", "1e-3", "--points", "5", "--out", out],
            ["transient", "--kind", "impulse", "--tmax", "1e-3", "--points", "5",
             "--out", out],
            ["field", "--x", "0.3", "0", "0", "--z", "0", "0", "0", "--h0", "0", "0", "1",
             "--f", "1e3"],
            ["ml-eval", "--re", "1", "--im", "1"],
        ]

        @self.FUZZ
        @given(mutated_document(documents))
        def runs(doc):
            try:
                model = document_to_model(doc)
            except MptError:
                return
            save_model(model, first)
            save_model(load_model(first), second)
            assert Path(first).read_bytes() == Path(second).read_bytes()
            for command in commands:
                code, err = _run_quietly([command[0], "--model", first, *command[1:]])
                assert code in (0, 1), (command[0], doc)
                assert "Traceback" not in err, (command[0], doc)

        runs()

    @pytest.mark.filterwarnings("error")
    def test_sweep_csvs_fit_strictly(self, tmp_path):
        path = tmp_path / "s.csv"
        argv = ["sphere", "--alpha", "0.01", "--mur", "1.5", "--sigma", "5.96e6",
                "--fmin", "0", "--fmax", "1e4", "--points", "12", "--out", str(path)]
        assert _run_quietly(argv) == (0, "")
        text = path.read_text()

        @self.FUZZ
        @given(mutated_sweep(text))
        def runs(mutated):
            path.write_text(mutated)
            code, err = _run_quietly(["fit", "--sweep", str(path), "--numax", "47.06"])
            assert code in (0, 1), mutated
            assert "Traceback" not in err, mutated

        runs()
