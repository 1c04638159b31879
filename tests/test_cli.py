"""Command-line surface, serialisation round-trips, exit-code contract."""

import json
import os

import numpy as np
import pytest

from mptspec import SchemaError, SphereSpec, sphere_spectral_model
from mptspec.cli import main
from mptspec.modelio import (
    SWEEP_HEADER,
    document_to_model,
    load_model,
    model_to_document,
    read_sweep_csv,
    save_model,
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
]


class TestStrictModelDocument:
    @pytest.mark.parametrize(
        "path, value", BAD_FIELDS, ids=[f"{p[-1]}={v!r}" for p, v in BAD_FIELDS]
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
