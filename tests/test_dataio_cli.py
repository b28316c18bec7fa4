import dataclasses
import json

import numpy as np
import pytest

from vcpde import cli, pipeline, selection, solvers
from vcpde.baselines import SgtrConfig
from vcpde.cli import main
from vcpde.dataio import load_dataset, save_dataset, save_report
from vcpde.filters import DEFAULT_GRIDS, FilterSpec
from vcpde.gibbs import BglssConfig
from vcpde.library import LibrarySpec
from vcpde.pipeline import DifferentiationSpec, filter_dataset, noisy_dataset, simulate_dataset
from vcpde.solvers import make_scenario
from vcpde.tbglss import TbglssConfig, ThresholdSpec, run_tbglss

from conftest import random_grouped_system


@pytest.fixture(scope="module")
def small_dataset(small_burgers_clean):
    return noisy_dataset(small_burgers_clean, noise_level=0.02, seed=5)


class TestDatasetArchive:
    def test_json_round_trip_bit_exact(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.field.values, small_dataset.field.values)
        np.testing.assert_array_equal(loaded.field.x_coords, small_dataset.field.x_coords)
        assert loaded.metadata == small_dataset.metadata

    def test_csv_round_trip(self, small_dataset, tmp_path):
        meta_path = save_dataset(small_dataset, tmp_path / "d", fmt="csv")
        loaded = load_dataset(meta_path)
        np.testing.assert_allclose(loaded.field.values, small_dataset.field.values, rtol=1e-15)
        assert loaded.metadata["family"] == "burgers"

    def test_write_is_deterministic(self, small_dataset, tmp_path):
        p1 = save_dataset(small_dataset, tmp_path / "a.json")
        p2 = save_dataset(small_dataset, tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_filter_provenance_recorded(self, small_dataset, tmp_path):
        filtered = filter_dataset(small_dataset, FilterSpec.of("moving_average", 5))
        path = save_dataset(filtered, tmp_path / "f.json")
        loaded = load_dataset(path)
        assert loaded.metadata["filters"][0]["kind"] == "moving_average"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.json")

    @pytest.mark.parametrize("key", ["shape", "values_base64", "metadata", "family"])
    def test_missing_required_key_named(self, small_dataset, tmp_path, key):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        doc = json.loads(path.read_text())
        del (doc["metadata"] if key == "family" else doc)[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=key):
            load_dataset(path)
        assert main(["discover", "--dataset", str(path), "--t-rms", "0.1",
                     "--output", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("key,value,message", [
        ("format", "other-format", "is not a vcpde-dataset file"),
        ("version", 2, "version 2"),
    ], ids=["format", "version"])
    def test_wrong_format_or_version_rejected(self, small_dataset, tmp_path, fmt, key, value,
                                              message):
        path = save_dataset(small_dataset, tmp_path / "d.json", fmt=fmt)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_dataset(path)

    def test_dataset_id_stable(self, small_dataset):
        assert small_dataset.dataset_id() == small_dataset.dataset_id()


class TestReportFiles:
    def test_report_bundle_written(self, tmp_path):
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=3)))
        paths = save_report(report, tmp_path, stem="run")
        assert paths["json"].exists()
        doc = json.loads(paths["json"].read_text())
        assert doc["selected"] == list(report.selected)
        header = paths["csv"].read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        for name in report.selected:
            assert name in header and f"{name}_std" in header
        assert "equation: u_t =" in paths["summary"].read_text()


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_simulate_is_byte_identical(self, tmp_path):
        args = ["simulate", "--family", "burgers", "--noise", "0.05", "--seed", "1",
                "--nx", "64", "--nt", "32", "--output", str(tmp_path)]
        assert self.run(*args) == 0
        first = (tmp_path / "burgers_noise0.05_seed1.json").read_bytes()
        assert self.run(*args) == 0
        assert (tmp_path / "burgers_noise0.05_seed1.json").read_bytes() == first
        assert (tmp_path / "burgers_noise0.05_seed1_clean.json").exists()

    def test_simulate_writes_clean_twin_from_its_one_solve(self, monkeypatch, tmp_path):
        solved = []

        def counting_solve(scenario):
            solved.append(scenario.family)
            return solvers.solve(scenario)

        monkeypatch.setattr(pipeline, "solve", counting_solve)
        assert self.run("simulate", "--family", "burgers", "--noise", "0.05", "--seed", "1",
                        "--nx", "64", "--nt", "32", "--output", str(tmp_path)) == 0
        assert solved == ["burgers"]
        expected = simulate_dataset(make_scenario("burgers", n_x=64, n_t=32), seed=1)
        clean = load_dataset(tmp_path / "burgers_noise0.05_seed1_clean.json")
        noisy = load_dataset(tmp_path / "burgers_noise0.05_seed1.json")
        np.testing.assert_array_equal(clean.field.values, expected.field.values)
        assert clean.metadata == expected.metadata
        assert noisy.metadata == {**expected.metadata, "noise_level": 0.05}
        assert not np.array_equal(noisy.field.values, clean.field.values)

    @pytest.mark.parametrize("argv,message", [
        (["discover", "--dataset", "x.json", "--iterations", "abc"],
         "argument --iterations: invalid int value: 'abc'"),
        (["discover", "--dataset", "x.json", "--method", "lasso"],
         "argument --method: invalid choice: 'lasso'"),
        (["sweep", "--dataset", "x.json", "--range", "-1:1:3"],
         "argument --range: expected one argument"),
        (["simulate", "--nx", "64", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["bad_int", "bad_choice", "bare_negative_range", "unknown_argument"])
    def test_usage_error_is_validation_error(self, tmp_path, capsys, argv, message):
        assert self.run(*argv, "--output", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: vcpde ") and f"\nerror: {message}" in err
        assert not list(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            self.run("simulate", "--help")
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vcpde simulate")

    def test_simulate_negative_noise_is_validation_error(self, tmp_path, capsys):
        code = self.run("simulate", "--family", "burgers", "--noise", "-0.05",
                        "--nx", "64", "--nt", "32", "--output", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: noise level must be nonnegative")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("noise", ["-0.05", "nan"])
    def test_simulate_checks_noise_before_solving(self, monkeypatch, tmp_path, capsys, noise):
        solved = []
        solver = solvers._solve_etdrk4
        monkeypatch.setattr(solvers, "_solve_etdrk4",
                            lambda scenario: solved.append(scenario) or solver(scenario))
        code = self.run("simulate", "--family", "ks", "--noise", noise, "--output", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: noise level must be nonnegative")
        assert solved == []
        assert not list(tmp_path.iterdir())

    def test_simulate_rejects_a_span_before_the_retained_window(self, monkeypatch, tmp_path,
                                                                 capsys):
        solved = []
        # the fake reads dt, as the integrator does, so the scenario's options validate
        monkeypatch.setattr(solvers, "_solve_etdrk4",
                            lambda scenario, dt=0.05: solved.append(scenario))
        code = self.run("simulate", "--family", "ks", "--nx", "64", "--nt", "32",
                        "--t-span", "0:50", "--output", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --t-span ends at 50.0, before the kuramoto_sivashinsky scenario's "
            "retain_t_from=100.0: discovery would keep no time samples\n")
        assert solved == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("method", ["tbglss", "sgtr"])
    def test_discover_names_an_empty_retained_window(self, tmp_path, capsys, method):
        # a dataset made before simulate checked its span
        dataset = simulate_dataset(make_scenario("ks", n_x=64, n_t=32, t_span=(0.0, 50.0)))
        path = save_dataset(dataset, tmp_path / "ks.json")
        code = self.run("discover", "--dataset", str(path), "--method", method,
                        *(["--t-rms", "0.1"] if method == "tbglss" else []),
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: retain_t_from=100.0 keeps no time samples: the data's last time is 50.0 "
            "(the last with derivatives 48.387096774193544)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--space-width", "--space-degree", "--time-width",
                                      "--time-degree"])
    def test_finite_differences_reject_a_poly_fit_option(self, small_dataset, tmp_path, capsys,
                                                         flag):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--method", "sgtr",
                        "--sgtr-threshold", "0.05", "--diff-method", "finite_difference", flag,
                        "5", "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --diff-method finite_difference does not use {flag}\n")
        assert not (tmp_path / "out").exists()

    def test_discover_nan_threshold_is_validation_error(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--t-ge", "nan",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: t_ge must be nonnegative, got nan")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--t-rms", "0.1", "--lam", "nan"], "lam must be positive, got nan"),
        (["--method", "sgtr", "--sgtr-threshold", "nan"], "threshold must be positive, got nan"),
        (["--method", "sgtr", "--sgtr-threshold", "0.1", "--sgtr-ridge", "nan"],
         "ridge penalty must be nonnegative, got nan"),
        (["--method", "group_lasso", "--lasso-lam", "nan"], "lam must be positive, got nan"),
        (["--t-rms", "0.1", "--final-chains", "0"], "final_chains must be at least 1, got 0\n"),
        (["--t-rms", "0.1", "--final-chains", "-2"], "final_chains must be at least 1, got -2\n"),
        (["--t-rms", "0.1", "--update-iterations", "0"],
         "update_iterations must be at least 1, got 0\n"),
        (["--t-rms", "0.1", "--update-burnin", "300"],
         "update_burnin must be at least 0 and below update_iterations (200), got 300\n"),
        (["--t-rms", "0.1", "--update-burnin", "-1"],
         "update_burnin must be at least 0 and below update_iterations (200), got -1\n"),
    ], ids=["lam", "sgtr_threshold", "sgtr_ridge", "lasso_lam", "final_chains_zero",
            "final_chains_negative", "update_iterations_zero", "update_burnin_too_long",
            "update_burnin_negative"])
    def test_discover_nan_option_is_validation_error(self, small_dataset, tmp_path, capsys,
                                                     argv, message):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), *argv,
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--method", "sgtr", "--with-ci"], "sgtr does not use with_ci"),
        (["--method", "sgtr", "--dump-trace", "trace.npz"], "--dump-trace needs the tbglss method"),
        (["--method", "sgtr", "--final-chains", "3"], "sgtr does not use final_chains"),
        (["--method", "sgtr", "--t-rms", "0.02"], "sgtr does not use thresholds"),
        (["--method", "group_lasso", "--t-ge", "0.1"], "group_lasso does not use thresholds"),
        (["--method", "group_lasso", "--with-ci"], "group_lasso does not use with_ci"),
        (["--method", "sgtr", "--iterations", "50"], "sgtr does not use iterations\n"),
        (["--method", "group_lasso", "--sgtr-ridge", "5"], "group_lasso does not use sgtr_ridge\n"),
        (["--t-rms", "0.1", "--lasso-lam", "0.5"], "tbglss does not use lasso_lam\n"),
        (["sweep", "--axis", "lambda", "--range", "0.01:0.1:2", "--sgtr-ridge", "7"],
         "group_lasso does not use sgtr_ridge\n"),
    ], ids=["sgtr-with-ci", "sgtr-dump-trace", "sgtr-final-chains", "sgtr-t-rms",
            "group_lasso-t-ge", "group_lasso-with-ci", "sgtr-iterations",
            "group_lasso-sgtr-ridge", "tbglss-lasso-lam", "lambda-sweep-sgtr-ridge"])
    def test_discover_option_only_tbglss_reads_is_validation_error(self, small_dataset,
                                                                   tmp_path, capsys, argv, message):
        command, argv = (argv[0], argv[1:]) if argv[0] == "sweep" else ("discover", argv)
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run(command, "--dataset", str(path), *argv,
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        if command == "discover":
            assert not (tmp_path / "out").exists()
        else:  # sweep makes its output directory first
            assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("method, seed", [("sgtr", "3"), ("group_lasso", "0")])
    def test_baseline_discover_accepts_and_ignores_seed(self, small_dataset, tmp_path, method,
                                                        seed):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        written = []
        for argv in ([], ["--seed", seed]):
            out = tmp_path / str(len(argv))
            assert self.run("discover", "--dataset", str(path), "--method", method, *argv,
                            "--output", str(out)) == 0
            written.append({file.name: file.read_bytes() for file in out.iterdir()})
        assert written[0] == written[1]

    def test_filter_option_its_kind_ignores_is_validation_error(self, small_dataset, tmp_path,
                                                                 capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("filter", "--dataset", str(path), "--kind", "moving_average",
                        "--window", "5", "--order", "6", "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: a moving_average filter does not use butterworth_order")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, text, message", [
        ("--x-span", "5", "--x-span expects lo:hi, got '5'"),
        ("--t-span", "0:1:2", "--t-span expects lo:hi, got '0:1:2'"),
        ("--t-span", "0:b", "--t-span expects lo:hi, got '0:b'"),
    ], ids=["too_few", "too_many", "not_a_number"])
    def test_malformed_span_names_its_option(self, tmp_path, capsys, option, text, message):
        code = self.run("simulate", "--family", "burgers", option, text, "--output", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_malformed_range_names_its_option(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        lowpass = ["--filter", "zero_phase_lowpass", "--clean", str(path)]
        for argv, message in [
            (["--axis", "t_rms", "--range", "0.02:0.2:x"],
             "--range expects lo:hi:count, got '0.02:0.2:x'"),
            (["--axis", "t_rms", "--range", "0.1:0.2:0"],
             "--range expects a positive count, got '0.1:0.2:0'"),
            (["--axis", "t_rms", "--range=0.1:0.2:-1"],
             "--range expects a positive count, got '0.1:0.2:-1'"),
            ([*lowpass, "--cutoffs=0.1:0.2:0"],
             "--cutoffs expects a positive count, got '0.1:0.2:0'"),
        ]:
            code = self.run("sweep", "--dataset", str(path), *argv,
                            "--output", str(tmp_path / "out"))
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not list((tmp_path / "out").iterdir())

    def test_malformed_window_range_names_its_option(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        for text, expects in [("3:9", "start:stop:step"),
                              ("3:9:0", "start <= stop and a positive step"),
                              ("9:3:2", "start <= stop and a positive step")]:
            code = self.run("sweep", "--dataset", str(path), "--filter", "moving_average",
                            "--clean", str(path), "--windows", text,
                            "--output", str(tmp_path / "out"))
            assert code == 1
            assert capsys.readouterr().err == f"error: --windows expects {expects}, got {text!r}\n"
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("axis, method", [("sgtr_threshold", "sgtr"),
                                              ("lambda", "group_lasso")])
    def test_baseline_sweep_rejects_thresholds(self, small_dataset, tmp_path, capsys,
                                                axis, method):
        # as discover --method sgtr --t-ge does: only tbglss reads the thresholds
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--axis", axis,
                        "--range", "0.01:0.1:2", "--t-ge", "0.1",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {method} does not use thresholds\n"
        assert not list((tmp_path / "out").iterdir())

    def test_sweep_rejects_the_swept_thresholds_option(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--axis", "t_rms", "--t-rms", "0.5",
                        "--range", "0.01:0.1:2", "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --axis t_rms sweeps t_rms: give its values with --range, not --t-rms\n")
        assert not list((tmp_path / "out").iterdir())

    def test_sweep_rejects_axis_with_filter(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--filter", "moving_average",
                        "--clean", str(path), "--axis", "t_ge", "--t-rms", "0.3",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == ("error: --axis sweeps a method parameter and --filter "
                                           "a filter parameter: give one of them\n")
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("argv, flags", [
        (["--windows", "5:9:2", "--polyorder", "2"], "--windows or --polyorder"),
        (["--cutoffs", "0.1:0.2:2"], "--cutoffs"), (["--order", "4"], "--order"),
        (["--clean", "{path}"], "--clean"), (["--axis-direction", "space"], "--axis-direction"),
    ], ids=["windows-polyorder", "cutoffs", "order", "clean", "axis-direction"])
    def test_axis_sweep_rejects_the_filter_sweep_options(self, small_dataset, tmp_path, capsys,
                                                         argv, flags):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--axis", "t_ge", "--t-rms", "0.02",
                        "--range", "0.05:0.1:2", *[a.format(path=path) for a in argv],
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: an --axis sweep does not use {flags}\n"
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("argv, flags", [
        (["--t-rms", "0.3", "--seed", "4"], "--t-rms or --seed"),
        (["--sgtr-ridge", "1e-5"], "--sgtr-ridge"), (["--iterations", "50"], "--iterations"),
        (["--range", "0.1:0.2:2", "--log"], "--range or --log"), (["--with-truth"], "--with-truth"),
        (["--diff-method", "poly_fit"], "--diff-method"), (["--max-power", "2"], "--max-power"),
    ], ids=["thresholds-seed", "sgtr-ridge", "iterations", "range-log", "with-truth",
            "diff-method", "max-power"])
    def test_filter_sweep_rejects_the_method_sweep_options(self, small_dataset, tmp_path, capsys,
                                                           argv, flags):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--filter", "moving_average",
                        "--clean", str(path), *argv, "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: a --filter sweep does not use {flags}\n"
        assert not list((tmp_path / "out").iterdir())

    def test_simulate_clean_no_twin(self, tmp_path, capsys):
        assert self.run("simulate", "--family", "ad", "--nx", "64", "--nt", "32",
                        "--output", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "data MSE" not in out
        assert (tmp_path / "advection_diffusion_noise0_seed0.json").exists()

    def test_unknown_family_is_validation_error(self, tmp_path):
        assert self.run("simulate", "--family", "wave", "--output", str(tmp_path)) == 1

    def test_discover_writes_report(self, tmp_path, capsys):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("discover", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--method", "tbglss", "--t-rms", "0.02", "--t-ge", "0.1",
                        "--iterations", "200", "--burnin", "50",
                        "--update-iterations", "80", "--update-burnin", "20",
                        "--output", str(tmp_path / "out"))
        assert code == 0
        out = capsys.readouterr().out
        assert "u_t =" in out
        report = json.loads((tmp_path / "out" / "tbglss_burgers_noise0_seed0.json").read_text())
        assert report["provenance"]["dataset"]["family"] == "burgers"

    def test_discover_records_a_width_given_with_auto(self, small_burgers_clean, tmp_path):
        # at 1% noise the tier smooths first and widens the fits, but the width given wins
        path = save_dataset(noisy_dataset(small_burgers_clean, 0.01, seed=0), tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--method", "sgtr",
                        "--sgtr-threshold", "0.05", "--space-width", "13",
                        "--output", str(tmp_path / "out"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "sgtr_burgers_noise0.01_seed0.json").read_text())
        assert report["provenance"]["differentiation"] == {
            "method": "poly_fit", "space_width": 13, "space_degree": 4, "time_width": 9,
            "time_degree": 3, "prefilter_time": [21, 3], "prefilter_space": [9, 4]}

    @pytest.mark.parametrize("extra,says", [
        ([], []),
        (["--dump-trace", "trace.npz"], ["no trace written: no terms selected"]),
    ], ids=["report", "dump-trace"])
    def test_empty_model_exits_zero(self, tmp_path, capsys, extra, says):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("discover", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--t-rms", "1e9", "--iterations", "100", "--burnin", "20",
                        "--update-iterations", "60", "--update-burnin", "15",
                        *extra, "--output", str(tmp_path / "out2"))
        assert code == 0
        out = capsys.readouterr().out
        assert all(line in out for line in ["status: no terms selected", *says])
        assert not (tmp_path / "out2" / "trace.npz").exists()

    def test_filter_command_reports_mse(self, tmp_path, capsys):
        self.run("simulate", "--family", "burgers", "--noise", "0.05", "--seed", "2",
                 "--nx", "64", "--nt", "48", "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("filter", "--dataset", str(tmp_path / "burgers_noise0.05_seed2.json"),
                        "--kind", "moving_average", "--window", "5",
                        "--clean", str(tmp_path / "burgers_noise0.05_seed2_clean.json"),
                        "--output", str(tmp_path))
        assert code == 0
        assert "data MSE vs clean" in capsys.readouterr().out
        filtered = load_dataset(tmp_path / "burgers_noise0.05_seed2_moving_average5.json")
        assert filtered.metadata["filters"]

    def test_threshold_sweep_command_with_truth(self, tmp_path, capsys):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("sweep", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--axis", "t_rms", "--range", "0.05:0.2:2", "--t-ge", "0.5",
                        "--iterations", "120", "--burnin", "30", "--with-truth",
                        "--output", str(tmp_path / "sw2"))
        assert code == 0
        csv_text = (tmp_path / "sw2" / "sweep_t_rms_burgers_noise0_seed0.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header.startswith("t_rms,loss,total_error_bar,coefficient_mse")
        assert json.loads((tmp_path / "sw2" / "sweep_t_rms_burgers_noise0_seed0.json").read_text())["argmin"]

    def test_threshold_sweep_without_fixed_threshold(self, tmp_path):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("sweep", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--axis", "t_rms", "--range", "0.05:0.2:2",
                        "--iterations", "120", "--burnin", "30", "--output", str(tmp_path / "sw"))
        assert code == 0
        summary = json.loads((tmp_path / "sw" / "sweep_t_rms_burgers_noise0_seed0.json").read_text())
        assert summary["n_failed"] == 0
        empty = self.run("sweep", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                         "--axis", "t_rms", "--range", "0.05:0.2:0", "--output", str(tmp_path / "sw"))
        assert empty == 1

    def test_sweep_rejects_a_non_finite_grid(self, tmp_path, capsys):
        # a log range with a bound at or below 0 is rejected before numpy takes its log
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        for bounds in ("-1:1:3", "0:1:3", "0.1:0:3"):
            code = self.run("sweep", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                            "--axis", "t_ge", "--log", f"--range={bounds}",
                            "--output", str(tmp_path / "sw"))
            assert code == 1
            assert (f"error: --range with --log expects positive bounds, got '{bounds}'"
                    in capsys.readouterr().err)
        assert not (tmp_path / "sw" / "sweep_t_ge_burgers_noise0_seed0.csv").exists()

    def test_discover_every_grid_point_failing_exits_two(self, monkeypatch, tmp_path, capsys):
        from vcpde import selection

        def singular(system, config, fits=None):
            raise np.linalg.LinAlgError("singular per-step Gram")

        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        monkeypatch.setattr(selection, "sgtr", singular)
        code = self.run("discover", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--method", "sgtr", "--output", str(tmp_path / "out"))
        assert code == 2
        assert "LinAlgError: singular per-step Gram" in capsys.readouterr().err

    def test_discover_with_ci_and_trace(self, tmp_path):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("discover", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--t-rms", "0.02", "--t-ge", "0.1",
                        "--iterations", "120", "--burnin", "30",
                        "--update-iterations", "60", "--update-burnin", "15",
                        "--with-ci", "--dump-trace", "trace.npz",
                        "--output", str(tmp_path / "ci_out"))
        assert code == 0
        report = json.loads((tmp_path / "ci_out" / "tbglss_burgers_noise0_seed0.json").read_text())
        assert report["bootstrap_cis"]["level"] == 0.95
        assert (tmp_path / "ci_out" / "trace.npz").exists()

    def test_filter_sweep_command(self, tmp_path, capsys):
        self.run("simulate", "--family", "burgers", "--noise", "0.05", "--seed", "2",
                 "--nx", "64", "--nt", "48", "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("sweep", "--dataset", str(tmp_path / "burgers_noise0.05_seed2.json"),
                        "--filter", "moving_average", "--windows", "3:9:2",
                        "--clean", str(tmp_path / "burgers_noise0.05_seed2_clean.json"),
                        "--output", str(tmp_path / "sw"))
        assert code == 0
        assert (tmp_path / "sw" / "filter_sweep_moving_average.csv").exists()

    def test_filter_sweep_default_grid(self, tmp_path):
        self.run("simulate", "--family", "burgers", "--noise", "0.05", "--seed", "2",
                 "--nx", "64", "--nt", "48", "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("sweep", "--dataset", str(tmp_path / "burgers_noise0.05_seed2.json"),
                        "--filter", "savitzky_golay",
                        "--clean", str(tmp_path / "burgers_noise0.05_seed2_clean.json"),
                        "--output", str(tmp_path / "sw"))
        assert code == 0
        rows = (tmp_path / "sw" / "filter_sweep_savitzky_golay.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == list(DEFAULT_GRIDS["savitzky_golay"])

    def test_filter_needs_its_parameter(self, tmp_path, capsys):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "32",
                 "--output", str(tmp_path))
        code = self.run("filter", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        "--kind", "zero_phase_lowpass", "--window", "5",
                        "--output", str(tmp_path))
        assert code == 1
        assert "--cutoff is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--config", "{dir}", "simulate", "--family", "burgers"],
        ["discover", "--dataset", "{dir}", "--t-rms", "0.1"],
    ], ids=["config", "dataset"])
    def test_directory_path_is_validation_error(self, tmp_path, capsys, argv):
        code = self.run(*[arg.format(dir=tmp_path) for arg in argv],
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_options_left_unset_take_the_library_defaults(self, monkeypatch, tmp_path):
        class Captured(Exception):
            pass

        def capture(*args, **kwargs):
            raise Captured(args, kwargs)

        monkeypatch.setattr(cli, "discover", capture)
        monkeypatch.setattr(cli, "sweep", capture)
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "48",
                 "--t-span", "0:4", "--output", str(tmp_path))
        dataset = str(tmp_path / "burgers_noise0_seed0.json")

        def called(*argv):
            with pytest.raises(Captured) as caught:
                self.run(*argv, "--dataset", dataset, "--output", str(tmp_path))
            return caught.value.args

        args, kwargs = called("discover", "--t-rms", "0.02")
        assert args[1] == TbglssConfig(thresholds=ThresholdSpec(t_rms=0.02))
        assert kwargs == {"library": LibrarySpec.standard(), "diff": DifferentiationSpec()}
        args, _ = called("discover", "--method", "sgtr")
        assert args[1] == SgtrConfig()
        args, _ = called("sweep", "--axis", "t_ge", "--t-rms", "0.01")
        assert args[3] == TbglssConfig(thresholds=ThresholdSpec(t_rms=0.01, t_ge=0.0))
        args, _ = called("sweep", "--axis", "sgtr_threshold")
        assert args[3] == SgtrConfig()

    def test_filter_options_left_unset_take_filter_spec_defaults(self, monkeypatch, tmp_path):
        self.run("simulate", "--family", "burgers", "--noise", "0.05", "--nx", "64", "--nt", "32",
                 "--output", str(tmp_path))
        dataset = str(tmp_path / "burgers_noise0.05_seed0.json")
        for kind, option, value in (("savitzky_golay", "--window", "7"),
                                    ("zero_phase_lowpass", "--cutoff", "0.1")):
            assert self.run("filter", "--dataset", dataset, "--kind", kind, option, value,
                            "--output", str(tmp_path / kind)) == 0
            written, = (tmp_path / kind).iterdir()
            assert load_dataset(written).metadata["filters"] == [
                FilterSpec.of(kind, float(value)).to_dict()]

        swept, real_sweep = [], cli.filter_sweep

        def recording_sweep(*args, **options):
            swept.append(options)
            return real_sweep(*args, **options)

        monkeypatch.setattr(cli, "filter_sweep", recording_sweep)
        assert self.run("sweep", "--dataset", dataset, "--filter", "savitzky_golay",
                        "--clean", str(tmp_path / "burgers_noise0.05_seed0_clean.json"),
                        "--output", str(tmp_path / "sw")) == 0
        assert swept == [{}]
        summary = json.loads((tmp_path / "sw" / "filter_sweep_savitzky_golay.json").read_text())
        assert summary["axis"] == FilterSpec.of("savitzky_golay", 7).axis

    @pytest.mark.parametrize("alias,family", [
        ("burgers", "burgers"), ("ad", "advection_diffusion"), ("ks", "kuramoto_sivashinsky"),
    ])
    def test_cli_make_scenario_resolves_aliases(self, alias, family):
        assert cli.make_scenario(alias).family == family

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"family": "burgers", "nx": 64, "nt": 32, "noise": 0.01}))
        code = self.run("--config", str(config), "simulate", "--noise", "0.02",
                        "--output", str(tmp_path))
        assert code == 0
        # CLI --noise beats the config file; nx comes from the file
        written = load_dataset(tmp_path / "burgers_noise0.02_seed0.json")
        assert written.metadata["noise_level"] == 0.02
        assert written.metadata["n_x"] == 64

    @pytest.mark.parametrize("command,text,message", [
        ("simulate", None, "No such file"),
        ("simulate", "{not json", "not valid JSON"),
        ("simulate", "[1, 2]", "must hold a JSON object"),
        ("simulate", '{"family": "burgers", "iteration": 5000}',
         "keys no command declares: iteration"),
        # values are checked as the command line checks them
        ("discover", '{"iterations": 300.5}', "sets iterations to 300.5"),
        ("discover", '{"seed": 1.5}', "sets seed to 1.5"),
        ("discover", '{"lam": [1]}', "sets lam to [1]"),
        ("discover", '{"method": "lasso"}', "sets method to 'lasso': expected one of"),
        ("discover", '{"with_ci": 1}', "sets with_ci to 1: expected true or false"),
        ("simulate", '{"family": "burgers", "noise": "abc"}', "sets noise to 'abc'"),
        ("simulate", '{"family": ["burgers"]}', "sets family to ['burgers']: expected a string"),
    ], ids=["missing", "malformed", "not_an_object", "unknown_key", "float_iterations",
            "float_seed", "list_lam", "unknown_method", "non_bool_flag", "text_noise",
            "list_family"])
    def test_bad_config_file_is_validation_error(self, tmp_path, capsys, command, text, message):
        config = tmp_path / "cfg.json"
        if text is not None:
            config.write_text(text)
        options = {"simulate": ["--family", "burgers", "--nx", "64", "--nt", "32"],
                   "discover": ["--dataset", str(tmp_path / "burgers.json")]}[command]
        code = self.run("--config", str(config), command, *options, "--output", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err and message in err
        assert not list(tmp_path.glob("burgers*"))

    def test_config_key_of_another_command_accepted(self, tmp_path):
        # "iterations" belongs to discover and sweep; simulate ignores it
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"family": "burgers", "iterations": 50}))
        assert self.run("--config", str(config), "simulate", "--nx", "64", "--nt", "32",
                        "--output", str(tmp_path)) == 0
        assert (tmp_path / "burgers_noise0_seed0.json").exists()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VCPDE_OUTPUT_ROOT", str(tmp_path))
        assert self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "32") == 0
        assert (tmp_path / "burgers_noise0_seed0.json").exists()

    def test_reproduce_unknown_cell_rejected(self, tmp_path):
        code = self.run("reproduce-paper", "--only", "no_such_cell", "--output", str(tmp_path))
        assert code == 1

    def test_reproduce_single_cell(self, tmp_path, capsys):
        code = self.run("reproduce-paper", "--only", "burgers_noise0_sgtr",
                        "--output", str(tmp_path))
        assert code == 0
        assert "completed 1 cells" in capsys.readouterr().out
        assert (tmp_path / "burgers_noise0_sgtr" / "report.json").exists()

    def test_reproduce_solves_each_family_once(self, monkeypatch, tmp_path):
        solved, fitted = [], []

        def counting_solve(scenario):
            solved.append(scenario.family)
            return solvers.solve(scenario)

        class Report:
            def rendered_equation(self):
                return "u_t = 0"

        def recording_discover(dataset, config):
            fitted.append((dataset.metadata["family"], dataset.noise_level, type(config)))
            return Report()

        monkeypatch.setattr(pipeline, "solve", counting_solve)
        monkeypatch.setattr(cli, "discover", recording_discover)
        monkeypatch.setattr(cli, "save_report", lambda report, path: None)
        assert self.run("reproduce-paper", "--only", "sgtr", "--output", str(tmp_path)) == 0
        assert solved == ["burgers", "advection_diffusion", "kuramoto_sivashinsky"]
        assert fitted == [(family, noise, SgtrConfig)
                          for family, spec in cli.BENCHMARK_CELLS.items()
                          for noise in spec["noises"]]

    def test_reproduce_fits_each_dataset_and_config_once(self, monkeypatch, tmp_path):
        # the filter study's unfiltered arm is the 5% Burgers tbglss cell: one fit, written to
        # both directories; its filtered arm takes that cell's thresholds
        fitted, saved = [], {}

        class Report:
            def rendered_equation(self):
                return "u_t = 0"

        def recording_discover(dataset, config):
            fitted.append((dataset.dataset_id(), repr(config)))
            return Report()

        monkeypatch.setattr(cli, "discover", recording_discover)
        monkeypatch.setattr(cli, "save_report",
                            lambda report, path: saved.update({path.name: report}))
        assert self.run("reproduce-paper", "--only", "burgers", "--output", str(tmp_path)) == 0
        assert len(fitted) == len(set(fitted)) == 10  # nine cells and the filtered arm
        assert saved["burgers_5pct_unfiltered"] is saved["burgers_noise0.05_tbglss"]
        thresholds = repr(ThresholdSpec(*cli.BENCHMARK_CELLS["burgers"]["thresholds"][0.05]))
        assert thresholds in fitted[-1][1]

    def test_numerical_failure_exits_two(self, monkeypatch, tmp_path):
        from vcpde import cli
        from vcpde.solvers import SolverBlowupError

        def exploding(args):
            raise SolverBlowupError("burgers", 2.0)

        monkeypatch.setattr(cli, "cmd_simulate", exploding)
        parser = cli.build_parser()
        parser.subcommand_parsers["simulate"].set_defaults(func=exploding)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        code = main(["simulate", "--family", "burgers", "--output", str(tmp_path)])
        assert code == 2

    def test_key_error_is_not_a_validation_error(self, monkeypatch, tmp_path):
        from vcpde import cli

        def faulty(args):
            raise KeyError("a fault in the program")

        parser = cli.build_parser()
        parser.subcommand_parsers["simulate"].set_defaults(func=faulty)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        with pytest.raises(KeyError, match="a fault"):
            main(["simulate", "--family", "burgers", "--output", str(tmp_path)])


# Options every discover and sweep run reads, whatever the method: --seed is BGLSS_OPTIONS',
# which every method accepts and only tbglss reads.
SHARED_OPTIONS = {"dataset", "output", "method", "dump_trace", *cli.DIFF_OPTIONS,
                  *cli.LIBRARY_OPTIONS, "axis_name", "range", "log", "with_truth",
                  "filter", "windows", "cutoffs", "clean", *cli.FILTER_OPTIONS}


def test_every_sweep_option_is_read_by_one_kind_of_sweep_or_both():
    # an option that neither table names is read by both kinds, so it must be one of these
    both = {"help", "dataset", "output", "axis_name", "filter"}
    kinds = [cli.METHOD_SWEEP_OPTIONS, cli.FILTER_SWEEP_OPTIONS, both]
    parser = cli.build_parser().subcommand_parsers["sweep"]
    flags = {action.dest: action.option_strings for action in parser._actions}
    for dest in flags:
        assert sum(dest in kind for kind in kinds) == 1, dest
    for table in kinds[:2]:  # each error names the flag as it is written
        assert all(flag in flags[dest] for dest, flag in table.items())


def test_every_method_option_sets_its_config_and_has_one_owner():
    # an option that no table names would be silently ignored by every method
    for method, table in cli.METHOD_OPTIONS.items():
        fields = {field.name for field in dataclasses.fields(selection.METHODS[method])}
        assert set(table.values()) <= fields, method
    owners = [*cli.METHOD_OPTIONS.values(), {*cli.THRESHOLD_OPTIONS, *cli.BGLSS_OPTIONS},
              SHARED_OPTIONS]
    for command in ("discover", "sweep"):
        for action in cli.build_parser().subcommand_parsers[command]._actions:
            if action.dest != "help":
                assert sum(action.dest in owner for owner in owners) == 1, (command, action.dest)
