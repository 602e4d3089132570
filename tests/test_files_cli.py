import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npmlmix import (
    CensorMask,
    CensoringDesign,
    FitOptions,
    IdentityLocation,
    InvalidArgumentError,
    LinearInS,
    MixingMeasure,
    ModelSpec,
    PkExp,
    SieveBasis,
    SieveDensity,
    TimeDesign,
    apply_censoring,
    simulate_dataset,
)
from npmlmix import cli, experiments
from npmlmix.cli import main
from npmlmix.experiments import atom_count
from npmlmix.serialize import (
    _number,
    dataset_from_dict,
    dataset_to_dict,
    dumps,
    fit_file_from_dict,
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
from npmlmix.solver import Certificate, FitResult, fit_npml


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


@st.composite
def fit_files(draw):
    """A fit as a fit file carries it: (result, box, include_trace, quad_points), discrete or sieve."""
    p = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=p, max_size=p)))
    box = np.stack([lo, lo + draw(st.lists(st.floats(1e-2, 1e6), min_size=p, max_size=p))], axis=1)
    finite = st.floats(-1e300, 1e300)
    if draw(st.booleans()):
        basis = SieveBasis(box, draw(st.lists(st.integers(1, 4), min_size=p, max_size=p)))
        m, quad_points = basis.m, draw(st.integers(1, 12))
    else:
        m, quad_points = draw(st.integers(1, 6)), None
        atoms = np.array(draw(st.lists(finite, min_size=m * p, max_size=m * p))).reshape(m, p)
    # integer shares: the simplex points a fit reaches are as generic as these ratios
    weights = np.array(draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m).filter(any)), dtype=float)
    weights /= weights.sum()
    measure = MixingMeasure(atoms, weights) if quad_points is None else SieveDensity(basis, weights)
    trace = np.array(draw(st.lists(finite, min_size=1, max_size=5)))
    argmax = np.array(draw(st.lists(finite, min_size=p, max_size=p)))
    cert = Certificate(draw(finite), argmax, draw(st.integers(1, 500)))
    status = draw(st.sampled_from(["converged", "iter-limit"]))
    fit = FitResult(measure, trace, float(trace[-1]), draw(st.integers(0, 10**6)), cert, status)
    return fit, box, draw(st.booleans()), quad_points


def _fit_file_text(fit, box, include_trace, quad_points) -> str:
    return dumps(fit_to_dict(fit, box=box, include_trace=include_trace, quad_points=quad_points))


class TestFitFileRoundTrip:
    """A fit file read back holds what was written; written again, it should keep its bytes."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=fit_files())
    def test_every_field_reads_back(self, case):
        fit, box, include_trace, quad_points = case
        again, box_again, quad_again = fit_file_from_dict(json.loads(_fit_file_text(*case)))
        assert (again.status, again.iterations, again.final_loglik) == (fit.status, fit.iterations, fit.final_loglik)
        assert again.certificate.sup_dir_derivative == fit.certificate.sup_dir_derivative
        assert again.certificate.grid_resolution == fit.certificate.grid_resolution
        np.testing.assert_array_equal(again.certificate.argmax_point, fit.certificate.argmax_point)
        np.testing.assert_array_equal(box_again, box)
        assert quad_again == quad_points
        if include_trace:
            np.testing.assert_array_equal(again.loglik_trace, fit.loglik_trace)
        sieve = quad_points is not None
        weights = again.measure.coefficients if sieve else again.measure.weights
        written = fit.measure.coefficients if sieve else fit.measure.weights
        if not sieve:
            np.testing.assert_array_equal(again.measure.atoms, fit.measure.atoms)
        # reading renormalizes the weights, which moves them by rounding only
        np.testing.assert_allclose(weights, written, rtol=written.size * np.finfo(float).eps, atol=0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=fit_files())
    def test_write_read_write_keeps_the_bytes(self, case):
        text = _fit_file_text(*case)
        again, box, quad_points = fit_file_from_dict(json.loads(text))
        assert _fit_file_text(again, box, case[2], quad_points) == text


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
        for a, b in zip(again.mask_groups, ds.mask_groups, strict=True):
            for x, y in zip(a[1:], b[1:]):
                np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(again.truth.atoms, ds.truth.atoms)

    def test_dataset_roundtrip_censored(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 12, seed=4)
        design = CensoringDesign(((CensorMask(4, (0, 2)), 0.5), (CensorMask.full(4), 0.5)))
        censored = apply_censoring(ds, design, seed=5)
        again = dataset_from_dict(json.loads(dumps(dataset_to_dict(censored))))
        assert again.is_censored
        assert again.censoring == censored.censoring
        assert again.masks == censored.masks
        np.testing.assert_array_equal(again.Y, censored.Y)
        np.testing.assert_array_equal(again.T, censored.T)

    @pytest.mark.parametrize("censored", [False, True], ids=["uncensored", "censored"])
    def test_data_file_rewrites_its_bytes(self, pk_spec, two_point_pk_truth, censored):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=6)
        if censored:
            masks = (CensorMask.empty(4), CensorMask(4, (1,)), CensorMask(4, (0, 3)), CensorMask.full(4))
            ds = apply_censoring(ds, CensoringDesign(tuple((m, 0.25) for m in masks)), seed=7)
            assert len(ds.mask_groups) == 4
        text = dumps(dataset_to_dict(ds))
        again = dataset_from_dict(json.loads(text))
        assert dumps(dataset_to_dict(again)) == text
        assert again.Y.tobytes() == ds.Y.tobytes() and again.T.tobytes() == ds.T.tobytes()
        assert again.masks == ds.masks

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row.update(y=[1.0, 2.0]), "observations[3]: y has 2 entries, its mask keeps 1"),
            (lambda row: row.update(t=[0.1, 0.6, 1.1]), "observations[3]: t has 3 entries, the model's n is 4"),
            (lambda row: row.update(mask=[0, 9]), "observations[3]: mask indices must lie in [0, 4)"),
            (lambda row: row.update(y=[float("nan")]), "observations[3]: y must hold only finite numbers, got nan"),
            (lambda row: row.pop("mask"), "observations[3]: no mask, unlike observations[0]"),
        ],
        ids=["y-longer-than-mask", "t-length", "mask-index", "non-finite-y", "no-mask"],
    )
    def test_row_errors_name_the_row_and_its_key(self, pk_spec, two_point_pk_truth, edit, message):
        design = CensoringDesign(((CensorMask(4, (2,)), 1.0),))
        doc = dataset_to_dict(apply_censoring(simulate_dataset(pk_spec, two_point_pk_truth, 6, seed=1), design, seed=2))
        edit(doc["observations"][3])
        with pytest.raises(InvalidArgumentError) as exc:
            dataset_from_dict(doc)
        assert str(exc.value) == message

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
        opts = fit_options_from_dict({"max_em_iters": 2.0, "refine_tol": 1})
        assert opts.max_em_iters == 2 and type(opts.max_em_iters) is int and opts.refine_tol == 1.0

    @pytest.mark.parametrize(
        "given",
        [{"max_em_iters": 2.7}, {"refine_grid": True}, {"max_refinements": "3"}, {"refine_tol": True}],
        ids=["fraction", "bool", "text", "bool-float"],
    )
    def test_fit_options_not_truncated(self, given):
        (name,) = given
        with pytest.raises(InvalidArgumentError, match=name):
            fit_options_from_dict(given)


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

    def test_a_capped_sup_prints_a_short_line(self, tmp_path, capsys):
        # sigma = 0.01 caps the first scan's sup near 5e303, which a fixed-point format spells out in 304 digits
        cfg = {
            "model": {
                "p": 1, "n": 2, "sigma": 0.01, "f": {"kind": "identity_location"},
                "time_design": [[0.0, 1.0], [1.0, 2.0]],
            },
            "truth": {"atoms": [[0.7], [1.8]], "weights": [0.5, 0.5]},
            "N": 200,
            "seed": 1,
        }
        write_json(tmp_path / "sim.json", cfg)
        data, fit = str(tmp_path / "data.json"), str(tmp_path / "fit.json")
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", data]) == 0
        capsys.readouterr()
        fit_args = ["--method", "npml", "--box", "0,2.5", "--grid", "3", "--refine-grid", "33", "--max-refinements", "0"]
        assert main(["fit", "--data", data, *fit_args, "--out", fit]) == 2
        line = capsys.readouterr().out.strip()
        sup = read_json(fit)["certificate"]["sup"]
        assert sup > 1e300 and len(line) < 120
        assert float(line.split("cert_sup=")[1]) == pytest.approx(sup, rel=1e-8, abs=0)

    def test_sieve_fit_file(self, tmp_path, capsys):
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
        fit_obj = read_json(fit_path)
        fit = fit_from_dict(fit_obj)
        assert len(fit.measure.coefficients) == 9
        assert fit_obj["sieve"]["quad_points"] == 8
        # the report's count: coefficients above prune_eps, not the basis size
        assert f" atoms={atom_count(fit.measure, FitOptions().prune_eps)} " in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        assert "only sets how a sieve fit's report counts atoms" in " ".join(capsys.readouterr().out.split())

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

    def test_default_resolution_is_the_fits(self, sim_config, tmp_path, capsys):
        data, fit_path = tmp_path / "data.json", tmp_path / "fit.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        fit_args = ["--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--grid", "5", "--refine-grid", "33"]
        main(["fit", "--data", str(data), *fit_args, "--out", str(fit_path)])
        capsys.readouterr()
        main(["certify", "--data", str(data), "--fit", str(fit_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid_resolution"] == 33
        fit_cert = read_json(fit_path)["certificate"]
        assert (payload["sup"], payload["argmax"]) == (fit_cert["sup"], fit_cert["argmax"])

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


    def test_a_fit_whose_scan_overflows_reads_back_under_w_error(self, tmp_path):
        # sigma = 0.01 puts log K(mu)(x_i) hundreds below the best grid column for some rows;
        # a scan that exponentiates their difference overflows, warns, and writes an infinite sup
        cfg = {
            "model": {
                "p": 1,
                "n": 2,
                "sigma": 0.01,
                "f": {"kind": "identity_location"},
                "time_design": [[0.0, 1.0], [1.0, 2.0]],
            },
            "truth": {"atoms": [[0.7], [1.8]], "weights": [0.5, 0.5]},
            "N": 200,
            "seed": 1,
        }
        write_json(tmp_path / "sim.json", cfg)
        script = """
import sys
from npmlmix.cli import main
fit = ["--method", "npml", "--box", "0,2.5", "--grid", "3", "--refine-grid", "33", "--out", "fit.json"]
codes = [
    main(["simulate", "--config", "sim.json", "--out", "data.json"]),
    main(["fit", "--data", "data.json", *fit]),
    main(["certify", "--data", "data.json", "--fit", "fit.json"]),
]
assert codes == [0, 2, 2], codes
"""
        env = dict(os.environ)
        src = Path(experiments.__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        fit_obj = read_json(tmp_path / "fit.json")
        assert fit_obj["status"] == "iter-limit" and len(fit_obj["measure"]["atoms"]) == 3
        # finite, and at least e^700 / N: the cap keeps d finite without letting the fit certify
        assert math.exp(700) / 200 <= fit_obj["certificate"]["sup"] < math.inf
        verdict = json.loads(proc.stdout[proc.stdout.index("{"):])
        assert verdict["sup"] == fit_obj["certificate"]["sup"] and verdict["optimal"] is False

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

    @pytest.mark.parametrize(
        "command, edit, reason",
        [
            # reason None: the message is Python's own TypeError text
            ("simulate", lambda cfg: 3, None),
            ("simulate", lambda cfg: {**cfg, "model": {**cfg["model"], "p": "x"}}, "p must be an integer"),
            ("simulate", lambda cfg: {**cfg, "model": {**cfg["model"], "time_design": 5}}, None),
            ("fit", lambda data: {**data, "observations": [1, 2]}, None),
            (
                "certify",
                lambda fit: {k: v for k, v in fit.items() if k != "final_loglik"},
                "missing required field 'final_loglik'",
            ),
            ("certify", lambda fit: {**fit, "status": "done"}, "status must be"),
            ("certify", lambda fit: {k: v for k, v in fit.items() if k != "box"}, "missing required field 'box'"),
            (
                "certify",
                lambda fit: {
                    **{k: v for k, v in fit.items() if k != "measure"},
                    "sieve": {"box": fit["box"], "node_counts": [2, 2], "coefficients": [0.25] * 4, "quad_points": 0},
                },
                "quad_points must be at least 1",
            ),
            (
                "certify",
                lambda fit: {**fit, "certificate": {**fit["certificate"], "grid_resolution": 0}},
                "grid_resolution must be at least 1, got 0",
            ),
        ],
        ids=[
            "top-level-number",
            "text-p",
            "number-time-design",
            "number-observations",
            "fit-without-final-loglik",
            "unknown-status",
            "discrete-fit-without-box",
            "sieve-fit-with-zero-quad-points",
            "fit-with-zero-grid-resolution",
        ],
    )
    def test_malformed_document_names_the_file(self, sim_config, tmp_path, capsys, command, edit, reason):
        data, fit = tmp_path / "data.json", tmp_path / "fit.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--max-refinements", "1", "--out", str(fit)])
        doc = {"simulate": sim_config, "fit": data, "certify": fit}[command]
        bad = tmp_path / "bad.json"
        write_json(bad, edit(read_json(doc)))
        capsys.readouterr()
        if command == "simulate":
            argv = ["simulate", "--config", str(bad), "--out", str(tmp_path / "d.json")]
        elif command == "fit":
            argv = ["fit", "--data", str(bad), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--out", str(tmp_path / "f.json")]
        else:
            argv = ["certify", "--data", str(data), "--fit", str(bad)]
        err = self._assert_one_line_error(capsys, main(argv))
        assert str(bad) in err
        if reason is not None:
            assert reason in err

    @pytest.mark.parametrize("cells", ["0", "-1"])
    def test_sieve_m_below_one(self, sim_config, tmp_path, capsys, cells):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        capsys.readouterr()
        argv = ["fit", "--data", str(data), "--method", "sieve", "--box", "0.5,2.5;0.1,1.2", f"--sieve-m={cells}"]
        code = main([*argv, "--out", str(tmp_path / "f.json")])
        assert "--sieve-m" in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("simulate", "N", 40.5),
            ("simulate", "seed", True),
            ("simulate", "censor_seed", 1.5),
            ("experiment", "quad_points", 2.5),
            ("experiment", "competitors", True),
        ],
    )
    def test_config_integer_not_truncated(self, sim_config, tmp_path, capsys, command, field, value):
        cfg = read_json(sim_config)
        if command == "experiment":
            cfg.update(kind="contrast", box=[[0.5, 2.5], [0.1, 1.2]], initial_counts=[3, 3], N_schedule=[40], seeds=[1])
        cfg[field] = value
        write_json(sim_config, cfg)
        code = main([command, "--config", str(sim_config), "--out", str(tmp_path / "out")])
        assert f"{field} must be an integer" in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("box", ["abc", 5, [[2.5, 0.5], [0.1, 1.2]], [[0.5, 2.5]]])
    def test_malformed_fit_box_names_the_file(self, sim_config, tmp_path, capsys, box):
        data, fit = tmp_path / "data.json", tmp_path / "fit.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--max-refinements", "1", "--out", str(fit)])
        write_json(fit, {**read_json(fit), "box": box})
        capsys.readouterr()
        code = main(["certify", "--data", str(data), "--fit", str(fit)])
        assert str(fit) in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--refine-tol", "nan", "--max-refinements", "2"], "refine_tol"),
            (["--prune-eps", "nan"], "prune_eps"),
            (["--tol", "inf"], "tol_rel_loglik"),
            (["--max-iters", "0"], "max_em_iters must be at least 1, got 0"),
            (["--refine-grid", "0"], "refine_grid must be at least 1, got 0"),
            (["--max-refinements", "-1"], "max_refinements must be at least 0, got -1"),
            # the last --method wins, so this is a sieve fit
            (["--method", "sieve", "--sieve-m", "2", "--quad-points", "0"], "--quad-points of at least 1, got 0"),
            (["--grid", "0"], "--grid"),
            (["--grid", "3,3,3"], "--grid"),
        ],
        ids=[
            "refine-tol", "prune-eps", "tol", "max-iters", "refine-grid", "max-refinements", "quad-points",
            "grid-zero", "grid-axes",
        ],
    )
    def test_fit_tolerance_not_finite(self, sim_config, tmp_path, capsys, flags, name):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--out", str(tmp_path / "f.json"), *flags])
        assert name in self._assert_one_line_error(capsys, code)

    def test_out_of_memory_is_one_line(self, sim_config, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        capsys.readouterr()

        def fit_npml(*args):  # the error numpy raises for a table too large, without allocating it
            raise MemoryError("Unable to allocate 4.37 TiB for an array with shape (60, 10000000000)")

        monkeypatch.setattr(cli, "fit_npml", fit_npml)
        code = main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--out", str(tmp_path / "f.json")])
        assert "out of memory: Unable to allocate 4.37 TiB" in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_certify_tolerance_must_be_positive(self, sim_config, tmp_path, capsys, tol):
        data, fit = tmp_path / "data.json", tmp_path / "fit.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--max-refinements", "1", "--out", str(fit)])
        capsys.readouterr()
        code = main(["certify", "--data", str(data), "--fit", str(fit), f"--tol={tol}"])
        self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("resolution", ["0", "-1"])
    def test_certify_resolution_below_one(self, sim_config, tmp_path, capsys, resolution):
        data, fit = tmp_path / "data.json", tmp_path / "fit.json"
        main(["simulate", "--config", str(sim_config), "--out", str(data)])
        main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--max-refinements", "1", "--out", str(fit)])
        capsys.readouterr()
        code = main(["certify", "--data", str(data), "--fit", str(fit), f"--resolution={resolution}"])
        assert f"--resolution must be at least 1, got {resolution}" in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "command, field, value, reason",
        [
            ("simulate", "seed", -1, "seed must be non-negative, got -1"),
            ("simulate", "censor_seed", -2, "seed must be non-negative, got -2"),
            ("experiment", "seeds", [-1], "seed must be non-negative, got -1"),
            ("experiment", "quad_points", 0, "quad_points must be at least 1, got 0"),
            ("experiment", "competitors", 0, "competitors must be at least 1, got 0"),
        ],
    )
    def test_config_value_out_of_range(self, sim_config, tmp_path, capsys, command, field, value, reason):
        cfg = read_json(sim_config)
        if command == "simulate":
            cfg["censoring"] = {"n": 3, "masks": [[0, 2], [0, 1, 2]], "probabilities": [0.4, 0.6]}
        else:
            cfg.update(kind="consistency", box=[[0.5, 2.5], [0.1, 1.2]], initial_counts=[3, 3], N_schedule=[40], seeds=[1])
        cfg[field] = value
        write_json(sim_config, cfg)
        code = main([command, "--config", str(sim_config), "--out", str(tmp_path / "out")])
        assert reason in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "atom, extra",
        [
            # exp(400 t) overflows: numpy's overflow warning must not reach stderr
            ([1.0, -400.0], {}),
            # a negative amplitude makes g = sigma' * f negative at the truth atom
            ([-1.0, 0.3], {"g": {"sigma_prime": 0.3}}),
        ],
        ids=["overflow", "negative-scale"],
    )
    def test_simulate_outside_model_domain_one_stderr_line(self, sim_config, tmp_path, atom, extra):
        cfg = read_json(sim_config)
        cfg["model"].update(extra, time_design=[[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        cfg["truth"] = {"atoms": [atom], "weights": [1.0]}
        write_json(sim_config, cfg)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "npmlmix.cli", "simulate", "--config", str(sim_config), "--out", str(tmp_path / "d.json")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["fit", "--data", "d.json", "--method", "npml", "--out", "f.json"], "required: --box"),
            (["fit", "--data", "d.json", "--method", "npml", "--box", "0,1", "--out", "f.json", "--bogus"], "unrecognized arguments: --bogus"),
            (["fit", "--data", "d.json", "--method", "npml", "--box", "0,1", "--out", "f.json", "--refine-grid", "x"], "invalid int value: 'x'"),
            ([], "required: command"),
        ],
        ids=["missing-box", "unknown-flag", "non-integer-refine-grid", "no-subcommand"],
    )
    def test_usage_error(self, capsys, argv, reason):
        # exit 2 is the certificate's verdict, so a usage error is an input error like any other
        assert reason in self._assert_one_line_error(capsys, main(argv))

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0 and "--box" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content",
        [
            lambda cfg: b"[" * 100_000,
            # valid JSON, but deeper than the reader of nested number arrays can recurse
            lambda cfg: dumps({**cfg, "truth": {**cfg["truth"], "atoms": "ATOMS"}})
            .replace('"ATOMS"', "[" * 900 + "1.0" + "]" * 900)
            .encode(),
            lambda cfg: b"\xff\xfe{}",
        ],
        ids=["json-100000-deep", "atoms-900-deep", "not-utf-8"],
    )
    def test_unreadable_document_names_the_file(self, sim_config, tmp_path, capsys, content):
        bad = tmp_path / "deep.json"
        bad.write_bytes(content(read_json(sim_config)))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "d.json")])
        assert str(bad) in self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "command, path, value, reason",
        [
            ("simulate", ("model", "p"), 0, "p and n must be positive"),
            ("simulate", ("model", "sigma"), -1, "sigma must be finite and nonnegative"),
            ("simulate", ("model", "p"), 1, "model function has parameter dimension 2, spec says p=1"),
            ("simulate", ("model", "n"), 2, "time design length does not match n"),
            ("simulate", ("model", "g"), {"sigma_prime": -1}, "sigma_prime must be finite and nonnegative"),
            ("simulate", ("model", "noise"), "cauchy", "unknown noise family 'cauchy'"),
            ("simulate", ("model", "f"), {"kind": "spline"}, "unknown model function kind 'spline'"),
            ("simulate", ("model", "f"), {"kind": "linear_in_s", "coefficients": [1.0, 2.0]}, "needs a (p, degree+1) coefficient table"),
            ("simulate", ("truth",), {"atoms": [], "weights": []}, "atoms must form a nonempty (m, p) array"),
            ("simulate", ("censoring",), {"n": 0, "masks": [[0]], "probabilities": [1.0]}, "mask needs n >= 1"),
            ("simulate", ("censoring",), {"n": 3, "masks": [], "probabilities": []}, "censoring design needs at least one mask"),
            ("simulate", ("censoring",), {"n": 3, "masks": [[0, 2]], "probabilities": [0.5, 0.5]}, "masks and probabilities must have equal length"),
            ("simulate", ("censoring",), {"n": 2, "masks": [[0, 1]], "probabilities": [1.0]}, "censoring design does not match the spec's n"),
            ("fit", ("observations", 0, "y"), [1.0, 2.0], "observations[0]: y has 2 entries, the model's n is 3"),
            ("fit", ("observations", 0, "mask"), [0, 1, 2], "observations[1]: no mask, unlike observations[0]"),
            ("fit", ("observations", 0), {"y": [1.0, 2.0], "t": [0.1, 0.6]}, "observations[0]: t has 2 entries, the model's n is 3"),
            ("fit", ("observations",), [], "observations must be a nonempty array"),
            ("fit", None, None, "cannot parse box 'abc'"),
            ("certify", ("iterations",), -7, "iterations must be at least 0, got -7"),
            ("certify", ("loglik_trace",), [], "loglik_trace must be nonempty and end at final_loglik"),
            ("certify", ("loglik_trace",), [-1e300], "loglik_trace must be nonempty and end at final_loglik"),
        ],
        ids=[
            "p-zero", "negative-sigma", "pk-with-p-one", "n-not-interval-count", "negative-sigma-prime",
            "unknown-noise", "unknown-model-kind", "one-row-linear-coefficients", "no-truth-atoms",
            "censoring-n-zero", "censoring-no-masks", "censoring-probability-count", "censoring-n-not-model-n",
            "row-y-t-lengths", "rows-mix-masks", "row-t-length", "no-observations", "unparsable-box",
            "negative-iterations", "empty-loglik-trace", "loglik-trace-not-ending-at-final-loglik",
        ],
    )  # fmt: skip
    def test_input_check_names_its_condition(self, sim_config, tmp_path, capsys, command, path, value, reason):
        data, fit, bad = tmp_path / "data.json", tmp_path / "fit.json", tmp_path / "bad.json"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data)]) == 0
        if command == "certify":
            main(["fit", "--data", str(data), "--method", "npml", "--box", "0.5,2.5;0.1,1.2", "--max-refinements", "1", "--out", str(fit)])
        doc = read_json({"simulate": sim_config, "fit": data, "certify": fit}[command])
        write_json(bad, doc if path is None else _replaced(doc, path, value))
        capsys.readouterr()
        if command == "simulate":
            argv = ["simulate", "--config", str(bad), "--out", str(tmp_path / "d.json")]
        elif command == "certify":
            argv = ["certify", "--data", str(data), "--fit", str(bad)]
        else:
            box = "abc" if path is None else "0.5,2.5;0.1,1.2"
            argv = ["fit", "--data", str(bad), "--method", "npml", "--box", box, "--out", str(tmp_path / "f.json")]
        assert reason in self._assert_one_line_error(capsys, main(argv))


# fields that hold integers; every other number in a document is a float
INT_FIELDS = {
    "p", "n", "N", "seed", "censor_seed", "masks", "mask", "iterations", "grid_resolution", "node_counts",
    "quad_points", "initial_counts", "N_schedule", "seeds", "m_schedule", "competitors",
    "max_em_iters", "refine_grid", "max_refinements",
}  # fmt: skip


def _numeric_leaves(doc, field=None, path=()):
    """(path, name of the enclosing field, value) of every number in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numeric_leaves(value, key, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numeric_leaves(value, field, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, field, doc


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


class TestEveryDocumentField:
    """Each number of each document the CLI reads follows the one number rule.

    Every numeric leaf of a valid document is replaced by a boolean, a
    numeric string and NaN, and an integer leaf also by a non-integral
    number; each replacement must end as one error line naming the file.
    """

    BOX = "0.5,2.5;0.1,1.2"

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("docs")
        model = {
            "p": 2,
            "n": 3,
            "sigma": 0.2,
            "f": {"kind": "pk_exp"},
            "time_design": [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5]],
            "g": {"sigma_prime": 0.1},
        }
        truth = {"atoms": [[1.0, 0.3], [2.0, 0.8]], "weights": [0.5, 0.5]}
        censoring = {"n": 3, "masks": [[0, 2], [0, 1, 2]], "probabilities": [0.4, 0.6]}
        sim = {"model": model, "truth": truth, "N": 3, "seed": 7, "censoring": censoring, "censor_seed": 9}
        docs = {"simulate config": sim}
        paths = {name: tmp / f"{name}.json" for name in ("sim", "plain-sim", "data", "censored", "npml", "sieve")}
        write_json(paths["sim"], sim)
        write_json(paths["plain-sim"], {k: v for k, v in sim.items() if k not in ("censoring", "censor_seed")})
        assert main(["simulate", "--config", str(paths["plain-sim"]), "--out", str(paths["data"])]) == 0
        assert main(["simulate", "--config", str(paths["sim"]), "--out", str(paths["censored"])]) == 0
        short = ["--max-iters", "3", "--max-refinements", "0", "--refine-grid", "3"]
        npml = ["--method", "npml", "--box", self.BOX, "--grid", "2", "--trace", *short]
        sieve = ["--method", "sieve", "--box", self.BOX, "--sieve-m", "2", "--quad-points", "2", *short]
        for name, flags in (("npml", npml), ("sieve", sieve)):
            assert main(["fit", "--data", str(paths["data"]), *flags, "--out", str(paths[name])]) in (0, 2)
        # each kind refuses the fields another kind reads, so each field sits in a document of a kind that reads it
        experiment = {
            "model": model,
            "truth": truth,
            "box": [[0.5, 2.5], [0.1, 1.2]],
            "initial_counts": [2, 2],
            "N_schedule": [20],
            "seeds": [1],
            "fit_options": {
                "tol_rel_loglik": 1e-6,
                "max_em_iters": 3,
                "prune_eps": 1e-6,
                "refine_grid": 3,
                "refine_tol": 1e-6,
                "max_refinements": 0,
            },
        }
        docs["experiment config"] = {"kind": "consistency", **experiment, "censoring": censoring}
        docs["sieve experiment config"] = {"kind": "sieve", **experiment, "m_schedule": [1, 2], "quad_points": 2}
        docs["contrast experiment config"] = {"kind": "contrast", **experiment, "competitors": 3}
        docs["dataset"] = read_json(paths["data"])
        docs["censored dataset"] = read_json(paths["censored"])
        docs["npml fit file"] = read_json(paths["npml"])
        docs["sieve fit file"] = read_json(paths["sieve"])
        return tmp, paths["data"], docs

    def _argv(self, name, bad, tmp, data):
        if name == "simulate config":
            return ["simulate", "--config", str(bad), "--out", str(tmp / "out.json")]
        if name.endswith("experiment config"):
            return ["experiment", "--config", str(bad), "--out", str(tmp / "out.csv")]
        if name.endswith("dataset"):
            return ["fit", "--data", str(bad), "--method", "npml", "--box", self.BOX, "--max-iters", "1",
                    "--max-refinements", "0", "--out", str(tmp / "out.json")]  # fmt: skip
        return ["certify", "--data", str(data), "--fit", str(bad)]

    @pytest.mark.parametrize(
        "name",
        [
            "simulate config",
            "experiment config",
            "sieve experiment config",
            "contrast experiment config",
            "dataset",
            "censored dataset",
            "npml fit file",
            "sieve fit file",
        ],
    )
    def test_every_number_follows_the_rule(self, documents, capsys, name):
        tmp, data, docs = documents
        doc = docs[name]
        bad = tmp / f"bad {name}.json"
        argv = self._argv(name, bad, tmp, data)
        write_json(bad, doc)
        capsys.readouterr()
        assert main(argv) in (0, 2), capsys.readouterr().err  # the valid document is read
        leaves = list(_numeric_leaves(doc))
        assert len(leaves) > 10
        accepted = []
        for path, field, value in leaves:
            replacements = [True, str(value), math.nan]
            if field in INT_FIELDS:
                replacements.append(value + 0.5)
            for replacement in replacements:
                write_json(bad, _replaced(doc, path, replacement))
                capsys.readouterr()
                code = main(argv)
                err = capsys.readouterr().err
                if not (code == 1 and err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err):
                    accepted.append((path, replacement, code, err))
        assert not accepted, accepted[:5]


@pytest.mark.parametrize(
    "value, kind, expected",
    [
        (np.float64(2.5), float, 2.5),
        (Fraction(1, 2), float, 0.5),
        (np.int64(3), int, 3),
        (np.float64(3.0), int, 3),
        (np.float64("inf"), float, None),
        (np.float64(2.5), int, None),
        (np.bool_(True), float, None),
        (True, int, None),
    ],
)
def test_numbers_of_other_types_follow_the_rule(value, kind, expected):
    # the JSON reader's plain float and int skip the ABC checks; every other type still takes them
    if expected is None:
        with pytest.raises(InvalidArgumentError, match="^x must hold only"):
            _number({"x": [value]}, "x", kind)
    else:
        got = _number({"x": [value]}, "x", kind)
        assert got == [expected] and type(got[0]) is kind


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

    def test_fit_exit_is_certify_verdict(self, tmp_path, capsys):
        # --tol and --max-iters tune em_fit only, so they leave the fit as it is: fit and certify agree it is optimal
        cfg = {
            "model": {
                "p": 1,
                "n": 2,
                "sigma": 0.3,
                "f": {"kind": "identity_location"},
                "time_design": [[0.0, 1.0], [1.0, 2.0]],
            },
            "truth": {"atoms": [[0.7], [1.8]], "weights": [0.5, 0.5]},
            "N": 60,
            "seed": 1,
        }
        cfg_path, data, fit = tmp_path / "cfg.json", tmp_path / "data.json", tmp_path / "sieve.json"
        write_json(cfg_path, cfg)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(data)]) == 0
        argv = ["fit", "--data", str(data), "--method", "sieve", "--box", "0.0,2.5", "--sieve-m", "4"]
        fit_code = main([*argv, "--tol", "1e-15", "--max-iters", "50", "--out", str(fit)])
        assert main([*argv, "--out", str(tmp_path / "default.json")]) == fit_code
        assert read_json(fit) == read_json(tmp_path / "default.json")
        certify_code = main(["certify", "--data", str(data), "--fit", str(fit)])
        assert fit_code == certify_code == 0


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

    def test_contrast_failure_exit_two(self, tmp_path, capsys):
        # one EM step and no refinement: the fit is far from the optimum
        cfg = self._write_config(
            tmp_path,
            "contrast",
            N_schedule=[40],
            seeds=[1],
            initial_counts=[3],
            competitors=200,
            fit_options={"max_em_iters": 1, "max_refinements": 0},
        )
        out = tmp_path / "contrast.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "contrast log" in captured.out
        assert "optimality tolerance" in captured.err
        assert out.exists()

    def test_longer_schedule_than_the_kind_reads_exit_one(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "sieve", m_schedule=[4], N_schedule=[30, 60], seeds=[1, 2])
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N schedule [30, 60]" in err

    def test_censoring_block_on_a_sieve_experiment_exit_one(self, tmp_path, capsys):
        censoring = {"n": 2, "masks": [[0], [0, 1]], "probabilities": [0.5, 0.5]}
        cfg = self._write_config(tmp_path, "sieve", m_schedule=[4], seeds=[1], censoring=censoring)
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sieve experiments fit uncensored data" in err

    def test_field_of_another_kind_exit_one(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "consistency", competitors=20)
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "consistency experiments take no competitors" in err

    def test_full_mask_mismatch_exit_one(self, tmp_path, capsys, monkeypatch):
        # the uncensored and full-mask likelihoods of the same fit are made to disagree
        offsets = iter(range(10))
        real = experiments.log_likelihood
        monkeypatch.setattr(experiments, "log_likelihood", lambda km, w: real(km, w) + next(offsets))
        cfg = self._write_config(
            tmp_path, "censoring", seeds=[4], censoring={"n": 2, "masks": [[0], [0, 1]], "probabilities": [0.5, 0.5]}
        )
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "cens.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: full-mask likelihood differs") and err.count("\n") == 1

    def test_unknown_kind_exit_one(self, tmp_path):
        cfg = self._write_config(tmp_path, "consistency")
        payload = read_json(cfg)
        payload["kind"] = "bootstrap"
        write_json(cfg, payload)
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1


def test_fit_and_certify_load_no_scipy(tmp_path):
    # simulate, fit, certify and experiment, with every import of scipy made to fail
    model = {
        "p": 2,
        "n": 4,
        "sigma": 0.2,
        "f": {"kind": "pk_exp"},
        "time_design": [[0, 0.75], [0.75, 1.5], [1.5, 2.25], [2.25, 3]],
    }
    truth = {"atoms": [[1.0, 0.3], [2.0, 0.8]], "weights": [0.5, 0.5]}
    censoring = {"n": 4, "masks": [[0, 2], [0, 1, 2, 3]], "probabilities": [0.4, 0.6]}
    plain = {"model": model, "truth": truth, "N": 120, "seed": 3}
    write_json(tmp_path / "plain.json", plain)
    write_json(tmp_path / "censored.json", dict(plain, censoring=censoring))
    experiment = {"model": model, "truth": truth, "box": [[0.5, 2.5], [0.05, 1.2]], "initial_counts": [3, 3]}
    experiment.update(N_schedule=[40], seeds=[1])
    write_json(tmp_path / "exp-consistency.json", dict(experiment, kind="consistency"))
    write_json(tmp_path / "exp-sieve.json", dict(experiment, kind="sieve", m_schedule=[3]))
    script = """
import sys
sys.modules["scipy"] = None
from npmlmix.cli import main
box = ["--box", "0.5,2.5;0.05,1.2"]
codes = [
    main(["simulate", "--config", "censored.json", "--out", "censored-data.json"]),
    main(["fit", "--data", "censored-data.json", "--method", "npml", *box, "--grid", "5", "--out", "fit.json"]),
    main(["certify", "--data", "censored-data.json", "--fit", "fit.json", "--resolution", "33"]),
    main(["simulate", "--config", "plain.json", "--out", "data.json"]),
    main(["fit", "--data", "data.json", "--method", "sieve", *box, "--sieve-m", "4", "--out", "sieve.json"]),
    main(["certify", "--data", "data.json", "--fit", "sieve.json"]),
    main(["experiment", "--config", "exp-consistency.json", "--out", "consistency.csv"]),
    main(["experiment", "--config", "exp-sieve.json", "--out", "sieve.csv"]),
]
assert 1 not in codes, codes
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert loaded == ["scipy"], loaded
"""
    env = dict(os.environ)
    src = Path(experiments.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
