import numpy as np
import pytest

from npmlmix import (
    CensorMask,
    CensoringDesign,
    FitOptions,
    IdentityLocation,
    InvalidArgumentError,
    MixingMeasure,
    ModelSpec,
    TimeDesign,
)
from npmlmix.experiments import (
    CSV_HEADER,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ReportRow,
    gnuplot_script,
    read_report_csv,
    run_censoring_experiment,
    run_consistency_experiment,
    run_contrast_experiment,
    run_sieve_experiment,
    write_report_csv,
)

FAST = FitOptions(tol_rel_loglik=1e-12, max_em_iters=3000, refine_grid=17, max_refinements=6)


def location_config(kind, **kwargs):
    spec = ModelSpec(
        p=1,
        n=2,
        sigma=0.4,
        f=IdentityLocation(),
        time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))),
    )
    truth = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
    base = dict(
        kind=kind,
        spec=spec,
        truth=truth,
        box=((0.0, 2.5),),
        initial_counts=(5,),
        n_schedule=(40,),
        seeds=(1, 2),
        options=FAST,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_schedules_must_increase(self):
        # (100.5, 100.7) is stored as (100, 100), which does not increase
        for bad in ((100, 50), (100.5, 100.7)):
            with pytest.raises(InvalidArgumentError):
                location_config("consistency", n_schedule=bad)

    def test_seeds_distinct(self):
        with pytest.raises(InvalidArgumentError):
            location_config("consistency", seeds=(1, 1))

    def test_sieve_needs_nested_schedule(self):
        # (4.5, 9) is stored as (4, 9), which is not nested
        for bad in ((4, 6), (0, 4), (8, 4), (4.5, 9)):
            with pytest.raises(InvalidArgumentError):
                location_config("sieve", m_schedule=bad, seeds=(1,))
        location_config("sieve", m_schedule=(4, 8, 16), seeds=(1,))

    @pytest.mark.parametrize(
        "kind, schedules, named",
        [
            ("sieve", dict(n_schedule=(30, 60), seeds=(1,)), r"N schedule \[30, 60\]"),
            ("contrast", dict(n_schedule=(30, 60), seeds=(1,)), r"N schedule \[30, 60\]"),
            ("censoring", dict(n_schedule=(30, 60)), r"N schedule \[30, 60\]"),
            ("sieve", dict(seeds=(1, 2)), r"seed schedule \[1, 2\]"),
            ("contrast", dict(seeds=(1, 2)), r"seed schedule \[1, 2\]"),
        ],
        ids=["sieve-N", "contrast-N", "censoring-N", "sieve-seed", "contrast-seed"],
    )
    def test_single_dataset_kinds_refuse_longer_schedules(self, kind, schedules, named):
        # these kinds read one dataset (censoring one N per seed), so a longer schedule is an error, not cut short
        with pytest.raises(InvalidArgumentError, match=named):
            location_config(kind, m_schedule=(4,), **schedules)

    @pytest.mark.parametrize("kind", ["sieve", "contrast"])
    def test_uncensored_kinds_refuse_a_censoring_design(self, kind):
        design = CensoringDesign(((CensorMask(2, (0,)), 0.5), (CensorMask.full(2), 0.5)))
        with pytest.raises(InvalidArgumentError, match=f"^{kind} experiments"):
            location_config(kind, m_schedule=(4,), seeds=(1,), censoring=design)

    @pytest.mark.parametrize(
        "name, value, default, reader",
        [("m_schedule", (4,), (), "sieve"), ("quad_points", 4, 8, "sieve"), ("competitors", 10, 50, "contrast")],
        ids=["m_schedule", "quad_points", "competitors"],
    )
    def test_kinds_refuse_fields_they_do_not_read(self, name, value, default, reader):
        for kind in EXPERIMENT_KINDS:
            valid = dict(seeds=(1,), m_schedule=(4,) if kind == "sieve" else ())
            if kind == reader:
                assert getattr(location_config(kind, **{**valid, name: value}), name) == value
                continue
            with pytest.raises(InvalidArgumentError, match=f"^{kind} experiments take no {name}; only {reader} "):
                location_config(kind, **{**valid, name: value})
            # the default value is what an unset field holds, so it is accepted
            assert getattr(location_config(kind, **{**valid, name: default}), name) == default

    def test_censoring_takes_many_seeds_at_one_n(self):
        assert location_config("censoring", n_schedule=(40,), seeds=(1, 2)).seeds == (1, 2)

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            location_config("bootstrap")


class TestConsistency:
    def test_rows_shape_and_order(self):
        cfg = location_config("consistency", n_schedule=(20, 40), seeds=(1, 2, 3))
        rows = run_consistency_experiment(cfg)
        assert len(rows) == 6
        keys = [(r.N, r.seed) for r in rows]
        assert keys == sorted(keys)
        assert all(r.distance_to_truth >= 0 for r in rows)
        assert all(r.experiment == "consistency" for r in rows)

    def test_deterministic(self):
        cfg = location_config("consistency", n_schedule=(25,), seeds=(4,))
        a = run_consistency_experiment(cfg)
        b = run_consistency_experiment(cfg)
        assert a[0].final_loglik == b[0].final_loglik
        assert a[0].distance_to_truth == b[0].distance_to_truth

    def test_censoring_design_is_applied(self):
        # a consistency cell censors its sample as the censoring experiment's random copy does
        design = CensoringDesign(((CensorMask(2, (0,)), 0.5), (CensorMask.full(2), 0.5)))
        plain = run_consistency_experiment(location_config("consistency", seeds=(6,)))
        censored = run_consistency_experiment(location_config("consistency", seeds=(6,), censoring=design))
        assert censored[0].final_loglik != plain[0].final_loglik
        rows = run_censoring_experiment(location_config("censoring", seeds=(6,), censoring=design))
        random_row = next(r for r in rows if r.experiment == "censoring/random")
        assert censored[0].final_loglik == random_row.final_loglik
        assert censored[0].distance_to_truth == random_row.distance_to_truth


class TestSieve:
    def test_gap_structure(self):
        cfg = location_config(
            "sieve",
            n_schedule=(120,),
            seeds=(5,),
            m_schedule=(4, 8, 16),
            options=FitOptions(tol_rel_loglik=1e-13, max_em_iters=100000, refine_grid=17),
        )
        rows = run_sieve_experiment(cfg)
        ref = [r for r in rows if r.experiment == "sieve/npml"]
        sieve = sorted([r for r in rows if r.experiment == "sieve"], key=lambda r: r.m)
        assert len(ref) == 1 and len(sieve) == 3
        gaps = [ref[0].final_loglik - r.final_loglik for r in sieve]
        assert all(g >= -1e-9 for g in gaps)
        assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12
        assert gaps[-1] <= gaps[0]


class TestCensoring:
    def test_three_fits_and_exact_full_mask(self):
        design = CensoringDesign(((CensorMask(2, (0,)), 0.5), (CensorMask.full(2), 0.5)))
        cfg = location_config("censoring", n_schedule=(40,), seeds=(6,), censoring=design)
        rows = run_censoring_experiment(cfg)
        kinds = sorted(r.experiment for r in rows)
        assert kinds == ["censoring/full-mask", "censoring/random", "censoring/uncensored"]
        assert all(r.distance_to_truth >= 0 for r in rows)

    def test_empty_mask_only_design_flat_likelihood(self):
        design = CensoringDesign(((CensorMask.empty(2), 1.0),))
        cfg = location_config("censoring", n_schedule=(10,), seeds=(7,), censoring=design)
        rows = run_censoring_experiment(cfg)
        random_row = next(r for r in rows if r.experiment == "censoring/random")
        # no information: every mixture gives density exp(0); the fit stays flat
        assert random_row.final_loglik == pytest.approx(0.0, abs=1e-12)


class TestContrast:
    def test_maxima_within_tolerance(self):
        cfg = location_config(
            "contrast",
            n_schedule=(60,),
            seeds=(8,),
            options=FitOptions(tol_rel_loglik=1e-15, max_em_iters=500000, prune_eps=1e-4, refine_grid=17),
            competitors=25,
        )
        rows, maxima = run_contrast_experiment(cfg)
        assert set(maxima) == {"log", "t-1", "1-1/t"}
        assert all(v <= cfg.options.refine_tol for v in maxima.values())
        assert len(rows) == 1


class TestReports:
    def test_csv_roundtrip(self, tmp_path):
        rows = [
            ReportRow("consistency", 100, None, 3, -1.25, 0.07, 4, 1.0000001, 12.5),
            ReportRow("sieve", 400, 8, 1, -1.5, 0.1, 9, 1.1, 80.0),
        ]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        again = read_report_csv(path)
        assert again == rows
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)

    def test_byte_identical_apart_from_walltime(self, tmp_path):
        cfg = location_config("consistency", n_schedule=(15,), seeds=(9,))
        paths = []
        for name in ("r1.csv", "r2.csv"):
            rows = run_consistency_experiment(cfg)
            p = tmp_path / name
            write_report_csv(rows, p)
            paths.append(p)
        strip = lambda p: ["," .join(line.split(",")[:-1]) for line in p.read_text().splitlines()]
        assert strip(paths[0]) == strip(paths[1])

    def test_gnuplot_script_references_csv(self):
        text = gnuplot_script("out.csv", "consistency")
        assert "out.csv" in text and "plot" in text

    def test_csv_bytes(self, tmp_path):
        # floats by shortest round-trip repr, m = None as an empty cell
        rows = [
            ReportRow("consistency", 100, None, 3, 0.1 + 0.2, 1 / 3, 4, 1.0000001, 12.5),
            ReportRow("sieve/npml", 400, None, 1, -1e-300, 0.0, 9, 1.0, 80.0),
            ReportRow("sieve", 400, 8, 1, -1.5, 2.5e17, 9, 1.1, 0.25),
        ]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        assert path.read_bytes() == (
            b"report_version,experiment,N,m,seed,final_loglik,distance_to_truth,atom_count,certificate_sup,wall_time_ms\r\n"
            b"1,consistency,100,,3,0.30000000000000004,0.3333333333333333,4,1.0000001,12.5\r\n"
            b"1,sieve/npml,400,,1,-1e-300,0.0,9,1.0,80.0\r\n"
            b"1,sieve,400,8,1,-1.5,2.5e+17,9,1.1,0.25\r\n"
        )
        assert read_report_csv(path) == rows

    @pytest.mark.parametrize(
        "kind, axes",
        [
            ("consistency", ["set logscale x", "set xlabel 'N'", "set ylabel 'distance to truth'"]),
            ("sieve", ["set xlabel 'sieve cells per axis'", "set ylabel 'final log-likelihood'"]),
            ("censoring", ["set xlabel 'N'", "set ylabel 'distance to truth'"]),
            ("contrast", ["set xlabel 'N'", "set ylabel 'distance to truth'"]),
        ],
        ids=["consistency", "sieve", "censoring", "contrast"],
    )
    def test_gnuplot_script_text(self, kind, axes):
        plot = (
            "plot 'out.csv' every ::1 using 4:6 with linespoints title 'sieve'"
            if kind == "sieve"
            else "plot 'out.csv' every ::1 using 3:7 with points pt 7 title 'fits'"
        )
        head = ["set datafile separator ','", "set key outside", f"set title '{kind} experiment'"]
        assert gnuplot_script("out.csv", kind) == "\n".join(head + axes + [plot]) + "\n"

    def test_report_row_requires_finite_fields(self):
        with pytest.raises(InvalidArgumentError):
            ReportRow("consistency", 10, None, 1, float("nan"), 0.0, 1, 1.0, 1.0)

