import json
import math

import numpy as np
import pytest

from npmlmix import (
    CensorMask,
    CensoringDesign,
    FitOptions,
    IdentityLocation,
    LinearInS,
    MixingMeasure,
    ModelSpec,
    PkExp,
    TimeDesign,
    apply_censoring,
    simulate_dataset,
)
from npmlmix.cli import main
from npmlmix.serialize import (
    dataset_from_dict,
    dataset_to_dict,
    dumps,
    fit_from_dict,
    fit_options_from_dict,
    fit_to_dict,
    measure_from_dict,
    measure_to_dict,
    read_json,
    spec_from_dict,
    spec_to_dict,
    write_json,
)
from npmlmix.solver import fit_npml


@pytest.fixture
def sim_config(tmp_path):
    cfg = {
        "model": {
            "p": 2,
            "n": 3,
            "sigma": 0.2,
            "f": {"kind": "pk_exp"},
            "time_design": [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5]],
        },
        "truth": {"atoms": [[1.0, 0.3], [2.0, 0.8]], "weights": [0.5, 0.5]},
        "N": 40,
        "seed": 7,
    }
    path = tmp_path / "sim.json"
    write_json(path, cfg)
    return path


class TestSchemas:
    def test_spec_roundtrip(self):
        for f, p in ((PkExp(), 2), (IdentityLocation(), 1), (LinearInS(((1.0, 0.0), (0.0, 1.0))), 2)):
            spec = ModelSpec(
                p=p,
                n=2,
                sigma=0.4,
                f=f,
                time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))),
                sigma_prime=0.3 if p == 1 else None,
                noise="laplace" if p == 1 else "gaussian",
            )
            again = spec_from_dict(json.loads(dumps(spec_to_dict(spec))))
            assert again == spec

    def test_measure_roundtrip(self):
        mu = MixingMeasure(np.array([[0.5, 1.5], [2.5, 0.1]]), [0.25, 0.75])
        again = measure_from_dict(json.loads(dumps(measure_to_dict(mu))))
        np.testing.assert_array_equal(again.atoms, mu.atoms)
        np.testing.assert_array_equal(again.weights, mu.weights)

    def test_dataset_roundtrip_uncensored(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 12, seed=3)
        again = dataset_from_dict(json.loads(dumps(dataset_to_dict(ds))))
        assert again.spec == ds.spec
        assert again.seed == ds.seed
        np.testing.assert_array_equal(again.values(), ds.values())
        np.testing.assert_array_equal(again.times(), ds.times())
        np.testing.assert_array_equal(again.truth.atoms, ds.truth.atoms)

    def test_dataset_roundtrip_censored(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 12, seed=4)
        design = CensoringDesign(((CensorMask(4, (0, 2)), 0.5), (CensorMask.full(4), 0.5)))
        censored = apply_censoring(ds, design, seed=5)
        again = dataset_from_dict(json.loads(dumps(dataset_to_dict(censored))))
        assert again.is_censored
        assert again.censoring == censored.censoring
        for a, b in zip(again.observations, censored.observations):
            np.testing.assert_array_equal(a.z, b.z)
            assert a.mask == b.mask

    def test_dataset_rejects_schema_violations(self):
        with pytest.raises(Exception):
            dataset_from_dict({"p": 1})

    def test_fit_roundtrip(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 25, seed=6)
        fit = fit_npml(ds, [(0.0, 2.5)], [4], FitOptions(max_em_iters=500))
        obj = json.loads(dumps(fit_to_dict(fit, box=[(0.0, 2.5)], include_trace=True)))
        again = fit_from_dict(obj)
        assert again.status == fit.status
        assert again.final_loglik == fit.final_loglik
        np.testing.assert_array_equal(again.measure.atoms, fit.measure.atoms)
        np.testing.assert_array_equal(again.loglik_trace, fit.loglik_trace)
        assert obj["box"] == [[0.0, 2.5]]

    def test_fit_options_defaults(self):
        opts = fit_options_from_dict(None)
        assert opts == FitOptions()
        opts = fit_options_from_dict({"max_em_iters": 77})
        assert opts.max_em_iters == 77 and opts.prune_eps == FitOptions().prune_eps


class TestCliSimulate:
    def test_writes_dataset(self, sim_config, tmp_path, capsys):
        out = tmp_path / "data.json"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 0
        ds = dataset_from_dict(read_json(out))
        assert ds.N == 40 and ds.spec.n == 3
        assert "N=40" in capsys.readouterr().out

    def test_deterministic_files(self, sim_config, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", str(sim_config), "--out", str(out1)])
        main(["simulate", "--config", str(sim_config), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_censoring_block(self, sim_config, tmp_path):
        cfg = read_json(sim_config)
        cfg["censoring"] = {"n": 3, "masks": [[0, 1], [0, 1, 2]], "probabilities": [0.5, 0.5]}
        path = tmp_path / "cens.json"
        write_json(path, cfg)
        out = tmp_path / "data.json"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        ds = dataset_from_dict(read_json(out))
        assert ds.is_censored

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = tmp_path / "data.json"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_field_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"model": {"p": 1}})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "d.json")]) == 1


class TestCliFit:
    def test_npml_fit_file(self, sim_config, tmp_path):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        fit_path = tmp_path / "fit.json"
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--method",
                "npml",
                "--box",
                "0.5,2.5;0.1,1.2",
                "--grid",
                "5",
                "--out",
                str(fit_path),
                "--max-iters",
                "2000000",
                "--tol",
                "1e-15",
                "--prune-eps",
                "1e-4",
                "--refine-grid",
                "33",
            ]
        )
        assert code == 0
        fit = fit_from_dict(read_json(fit_path))
        assert fit.status == "converged"
        assert fit.certificate.sup_dir_derivative <= 1.0 + 1e-6

    def test_sieve_fit_file(self, tmp_path):
        cfg = {
            "model": {
                "p": 1,
                "n": 2,
                "sigma": 0.4,
                "f": {"kind": "identity_location"},
                "time_design": [[0.0, 1.0], [1.0, 2.0]],
            },
            "truth": {"atoms": [[0.7], [1.8]], "weights": [0.5, 0.5]},
            "N": 30,
            "seed": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, cfg)
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(cfg_path), "--out", str(data)])
        fit_path = tmp_path / "fit.json"
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--method",
                "sieve",
                "--box",
                "0.0,2.5",
                "--sieve-m",
                "8",
                "--out",
                str(fit_path),
            ]
        )
        assert code in (0, 2)
        fit = fit_from_dict(read_json(fit_path))
        assert len(fit.measure.coefficients) == 9

    def test_refit_idempotent_loglik(self, sim_config, tmp_path):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        args = [
            "fit",
            "--data",
            str(data),
            "--method",
            "npml",
            "--box",
            "0.5,2.5;0.1,1.2",
            "--grid",
            "5",
            "--tol",
            "1e-15",
            "--max-iters",
            "2000000",
            "--prune-eps",
            "1e-4",
            "--refine-grid",
            "33",
        ]
        fit1, fit2 = tmp_path / "f1.json", tmp_path / "f2.json"
        main(args + ["--out", str(fit1)])
        main(args + ["--out", str(fit2)])
        a, b = read_json(fit1), read_json(fit2)
        assert a == b

    def test_input_error_exit(self, tmp_path):
        assert main(
            ["fit", "--data", str(tmp_path / "nope.json"), "--method", "npml", "--box", "0,1", "--out", str(tmp_path / "f.json")]
        ) == 1


class TestCliCertify:
    def test_certify_converged_fit(self, sim_config, tmp_path, capsys):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        fit_path = tmp_path / "fit.json"
        main(
            [
                "fit",
                "--data",
                str(data),
                "--method",
                "npml",
                "--box",
                "0.5,2.5;0.1,1.2",
                "--grid",
                "5",
                "--out",
                str(fit_path),
                "--tol",
                "1e-15",
                "--max-iters",
                "2000000",
                "--prune-eps",
                "1e-4",
                "--refine-grid",
                "33",
            ]
        )
        capsys.readouterr()
        code = main(["certify", "--data", str(data), "--fit", str(fit_path), "--resolution", "33"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert payload["grid_resolution"] == 33
        assert math.isfinite(payload["sup"])
        assert payload["optimal"] == (payload["sup"] <= 1.0 + payload["tolerance"])

    def test_sieve_certify_uses_fit_quadrature(self, tmp_path, capsys):
        cfg = {
            "model": {
                "p": 1,
                "n": 2,
                "sigma": 0.3,
                "f": {"kind": "identity_location"},
                "time_design": [[0.0, 1.0], [1.0, 2.0]],
            },
            "truth": {"atoms": [[0.7], [1.8]], "weights": [0.5, 0.5]},
            "N": 200,
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, cfg)
        data, fit_path = tmp_path / "data.json", tmp_path / "fit.json"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(data)]) == 0
        fit_args = ["--method", "sieve", "--box", "0.0,2.5", "--sieve-m", "8", "--quad-points", "2"]
        fit_args += ["--tol", "1e-14", "--max-iters", "200000"]
        assert main(["fit", "--data", str(data), *fit_args, "--out", str(fit_path)]) == 0
        fit_obj = read_json(fit_path)
        assert fit_obj["sieve"]["quad_points"] == 2
        capsys.readouterr()
        assert main(["certify", "--data", str(data), "--fit", str(fit_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sup"] == fit_obj["certificate"]["sup"]
        assert payload["argmax"] == fit_obj["certificate"]["argmax"]
        # a sieve block without quad_points reads as the default order 8
        del fit_obj["sieve"]["quad_points"]
        write_json(fit_path, fit_obj)
        main(["certify", "--data", str(data), "--fit", str(fit_path)])
        assert json.loads(capsys.readouterr().out)["sup"] != payload["sup"]


class TestCliErrors:
    """Every package error reaches the user as one 'error:' line and exit 1."""

    def _assert_one_line_error(self, capsys, code):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_non_integer_grid(self, sim_config, tmp_path, capsys):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        capsys.readouterr()
        code = main(
            ["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--grid", "abc", "--out", str(tmp_path / "f.json")]
        )
        self._assert_one_line_error(capsys, code)

    def test_heteroscedastic_box_outside_model_domain(self, sim_config, tmp_path, capsys):
        cfg = read_json(sim_config)
        cfg["model"]["g"] = {"sigma_prime": 0.3}
        write_json(sim_config, cfg)
        data = tmp_path / "data.json"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data)]) == 0
        capsys.readouterr()
        # negative amplitudes make the heteroscedastic scale g = sigma' * f negative
        code = main(
            ["fit", "--data", str(data), "--method", "npml", "--box=-0.5,2.5;0.05,1.2", "--out", str(tmp_path / "f.json")]
        )
        self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("box", ["0,inf;0.1,1.2", "nan,2;0.1,1.2"])
    def test_non_finite_box(self, sim_config, tmp_path, capsys, box):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--method", "npml", f"--box={box}", "--out", str(tmp_path / "f.json")])
        assert "box" in self._assert_one_line_error(capsys, code)


class TestCliExitCodes:
    def test_fit_iter_limit_exit_two(self, sim_config, tmp_path):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--method",
                "npml",
                "--box",
                "0.5,2.5;0.1,1.2",
                "--grid",
                "5",
                "--out",
                str(tmp_path / "f.json"),
                "--max-iters",
                "3",
                "--max-refinements",
                "0",
            ]
        )
        assert code == 2


class TestCliExperiment:
    def _write_config(self, tmp_path, kind, **extra):
        cfg = {
            "kind": kind,
            "model": {
                "p": 1,
                "n": 2,
                "sigma": 0.4,
                "f": {"kind": "identity_location"},
                "time_design": [[0.0, 1.0], [1.0, 2.0]],
            },
            "truth": {"atoms": [[0.7], [1.8]], "weights": [0.5, 0.5]},
            "box": [[0.0, 2.5]],
            "initial_counts": [5],
            "N_schedule": [30],
            "seeds": [1, 2],
            "fit_options": {
                "tol_rel_loglik": 1e-12,
                "max_em_iters": 3000,
                "refine_grid": 17,
                "max_refinements": 5,
            },
        }
        cfg.update(extra)
        path = tmp_path / f"{kind}.json"
        write_json(path, cfg)
        return path

    def test_consistency_kind(self, tmp_path):
        from npmlmix.experiments import read_report_csv

        cfg = self._write_config(tmp_path, "consistency", N_schedule=[20, 40])
        out = tmp_path / "report.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--emit-gnuplot"]) == 0
        rows = read_report_csv(out)
        assert len(rows) == 4
        assert (tmp_path / "report.gp").exists()

    def test_sieve_kind(self, tmp_path):
        from npmlmix.experiments import read_report_csv

        cfg = self._write_config(
            tmp_path,
            "sieve",
            m_schedule=[4, 8],
            seeds=[3],
            fit_options={"tol_rel_loglik": 1e-13, "max_em_iters": 50000, "refine_grid": 17},
        )
        out = tmp_path / "sieve.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_report_csv(out)
        assert {r.experiment for r in rows} == {"sieve", "sieve/npml"}

    def test_censoring_kind(self, tmp_path):
        cfg = self._write_config(
            tmp_path,
            "censoring",
            seeds=[4],
            censoring={"n": 2, "masks": [[0], [0, 1]], "probabilities": [0.5, 0.5]},
        )
        out = tmp_path / "cens.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0

    def test_contrast_kind(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            "contrast",
            N_schedule=[60],
            seeds=[5],
            competitors=20,
            fit_options={
                "tol_rel_loglik": 1e-15,
                "max_em_iters": 500000,
                "prune_eps": 1e-4,
                "refine_grid": 17,
            },
        )
        out = tmp_path / "contrast.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert "contrast" in capsys.readouterr().out

    def test_unknown_kind_exit_one(self, tmp_path):
        cfg = self._write_config(tmp_path, "consistency")
        payload = read_json(cfg)
        payload["kind"] = "bootstrap"
        write_json(cfg, payload)
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
