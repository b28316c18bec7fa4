import inspect
import json
import re
import runpy
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from vcpde import cli, dataio, pipeline, pool, selection, solvers, tbglss
from vcpde.baselines import SgtrConfig
from vcpde.cli import main
from vcpde.dataio import load_dataset, save_dataset, save_report
from vcpde.differentiation import DifferentiationSpec
from vcpde.fields import SpatioTemporalField
from vcpde.filters import DEFAULT_GRIDS, FILTER_KINDS, FilterSpec, parameter_name
from vcpde.gibbs import BglssConfig, SamplerError
from vcpde.library import LibrarySpec
from vcpde.pipeline import Dataset, filter_dataset, noisy_dataset, simulate_dataset
from vcpde.selection import AXIS_METHODS, METHODS
from vcpde.solvers import make_scenario
from vcpde.tbglss import DiscoveryReport, TbglssConfig, ThresholdSpec, run_tbglss

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_float_is_written_to_no_file(self, tmp_path, value):
        # strict JSON has no NaN or Infinity token
        with pytest.raises(ValueError, match="not JSON compliant"):
            dataio._write_json(tmp_path / "doc.json", {"rms": [0.5, value]})
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value,message", [
        (None, "expected a number"), ("0.01", "expected a number"), (True, "expected a number"),
        (-0.1, "noise level must be nonnegative and finite, got -0.1"),
    ], ids=["null", "text", "bool", "negative"])
    def test_a_noise_level_that_is_not_a_level_is_rejected_on_load(
            self, small_dataset, tmp_path, capsys, fmt, value, message):
        # the noise level picks the differentiation tier and names the output files
        path = save_dataset(small_dataset, tmp_path / "d.json", fmt=fmt)
        doc = json.loads(path.read_text())
        doc["metadata"]["noise_level"] = value
        path.write_text(json.dumps(doc))
        expected = f"{path} metadata sets noise_level to {value!r}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            load_dataset(path)
        assert main(["discover", "--dataset", str(path), "--t-rms", "0.1",
                     "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_format_rejected(self, small_dataset, tmp_path):
        with pytest.raises(ValueError, match="^fmt must be 'json' or 'csv'$"):
            save_dataset(small_dataset, tmp_path / "d.json", fmt="npz")
        assert not any(tmp_path.iterdir())

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


def stub_report():
    """A report the CLI writes and prints as it would a real one."""
    report = mock.MagicMock(spec=DiscoveryReport)
    report.rendered_equation.return_value = "u_t = 0"
    return report


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

    # Outputs are strict JSON, so every number a run takes is finite: the config or the
    # scenario that owns it says so, and the range parser for a grid built before either.
    @pytest.mark.parametrize("config,command,argv,message", [
        (None, "discover", ["--t-ge", "inf"], "t_ge must be nonnegative and finite, got inf"),
        (None, "discover", ["--t-rms=-inf"], "t_rms must be nonnegative and finite, got -inf"),
        (None, "discover", ["--t-rms", "0.1", "--lam", "nan"],
         "lam must be positive and finite, got nan"),
        (None, "discover", ["--t-rms", "0.1", "--pi0", "inf"], "fixed pi0 must lie in [0, 1]"),
        (None, "discover", ["--method", "sgtr", "--sgtr-threshold", "nan"],
         "threshold must be positive and finite, got nan"),
        (None, "discover", ["--method", "sgtr", "--sgtr-ridge", "inf"],
         "ridge penalty must be nonnegative and finite, got inf"),
        (None, "discover", ["--method", "group_lasso", "--lasso-lam", "nan"],
         "lam must be positive and finite, got nan"),
        ('{"t_ge": Infinity}', "discover", [], "t_ge must be nonnegative and finite, got inf"),
        (None, "sweep", ["--axis", "t_ge", "--t-rms", "0.1", "--range", "0:inf:5"],
         "--range expects finite bounds and a positive count, got '0:inf:5'"),
        (None, "simulate", ["--t-span", "0:inf"],
         "domain spans must be increasing and finite, got x_span=(-8.0, 8.0) and "
         "t_span=(0.0, inf)"),
        (None, "simulate", ["--x-span=-inf:8"],
         "domain spans must be increasing and finite, got x_span=(-inf, 8.0) and "
         "t_span=(0.0, 10.0)"),
        (None, "simulate", ["--noise", "inf"],
         "noise level must be nonnegative and finite, got inf"),
    ], ids=["infinite_t_ge", "infinite_t_rms", "nan_lam", "infinite_pi0", "nan_sgtr_threshold",
            "infinite_sgtr_ridge", "nan_lasso_lam", "config_infinite_t_ge", "infinite_range",
            "infinite_t_span", "infinite_x_span", "infinite_noise"])
    def test_a_non_finite_number_is_rejected_before_any_solve_or_chain(
            self, monkeypatch, small_dataset, tmp_path, capsys, config, command, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("a solve or a chain ran")

        monkeypatch.setattr(pipeline, "solve", never)
        monkeypatch.setattr(tbglss, "sample_posterior", never)
        given = ["--family", "burgers", "--nx", "64", "--nt", "32"]
        if command != "simulate":
            given = ["--dataset", str(save_dataset(small_dataset, tmp_path / "d.json"))]
        prefix = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            prefix = ["--config", str(tmp_path / "cfg.json")]
        code = self.run(*prefix, command, *given, *argv, "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("noise", ["-0.05", "nan", "inf"])
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
            "error: t_span ends at 50.0, so the kuramoto_sivashinsky scenario's "
            "retain_t_from=100.0 must be finite and at most that, or discovery would keep no "
            "time samples\n")
        assert solved == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("method", ["tbglss", "sgtr"])
    def test_discover_names_an_empty_retained_window(self, tmp_path, capsys, method):
        # no scenario ends before its retained window, but a dataset's metadata is only data
        x, t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False), np.linspace(0.0, 50.0, 32)
        field = SpatioTemporalField(np.sin(x)[:, None] * np.exp(-0.01 * t)[None, :], x, t)
        metadata = {"family": "kuramoto_sivashinsky", "varying_axis": "space",
                    "retain_t_from": 100.0, "noise_level": 0.0}
        path = save_dataset(Dataset(field, metadata), tmp_path / "ks.json")
        code = self.run("discover", "--dataset", str(path), "--method", method,
                        *(["--t-rms", "0.1"] if method == "tbglss" else []),
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: retain_t_from=100.0 keeps no time samples: the data's last time is 50.0 "
            "(the last with derivatives 48.387096774193544)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["discover", "sweep"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--max-derivative", "0", "max_deriv_order must be in 1..4, got 0"),
        ("--max-derivative", "5", "max_deriv_order must be in 1..4, got 5"),
        ("--max-power", "-1", "max_poly_power must be nonnegative, got -1"),
    ], ids=["derivative-0", "derivative-5", "power-negative"])
    def test_a_library_size_is_rejected_before_any_prefilter(
            self, small_dataset, monkeypatch, tmp_path, capsys, command, flag, value, message):
        # the 2%-noise tier prefilters the field; the library's sizes are checked first
        filtered = []
        monkeypatch.setattr(pipeline, "apply_filter", lambda *args: filtered.append(args))
        path = save_dataset(small_dataset, tmp_path / "d.json")
        argv = ["--axis", "sgtr_threshold"] if command == "sweep" else ["--method", "sgtr"]
        code = self.run(command, "--dataset", str(path), *argv, flag, value,
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert filtered == []
        assert not (tmp_path / "out").exists()

    def test_a_grid_that_is_not_uniform_exits_one(self, small_dataset, tmp_path, capsys):
        # a GridError is a ValueError: a validation error
        path = save_dataset(small_dataset, tmp_path / "d.json")
        doc = json.loads(path.read_text())
        doc["x_coords"][3] += 0.01
        path.write_text(json.dumps(doc))
        code = self.run("discover", "--dataset", str(path), "--method", "sgtr",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == "error: x_coords must be uniformly spaced (rtol 1e-09)\n"
        assert not (tmp_path / "out").exists()

    def test_an_identically_zero_design_column_exits_one(self, tmp_path, capsys):
        # a constant field has u_x = 0 exactly; a ZeroColumnError is a ValueError
        x, t = np.linspace(0.0, 1.0, 32), np.linspace(0.0, 1.0, 16)
        metadata = {"family": "burgers", "noise_level": 0.0}
        path = save_dataset(Dataset(SpatioTemporalField(np.ones((32, 16)), x, t), metadata),
                            tmp_path / "c.json")
        code = self.run("discover", "--dataset", str(path), "--method", "sgtr",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: term 'u_x' has a zero column at step 0.0666667\n")
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

    @pytest.mark.parametrize("command", ["discover", "sweep"])
    def test_auto_on_clean_data_rejects_each_poly_fit_option(self, small_burgers_clean,
                                                             monkeypatch, tmp_path, capsys,
                                                             command):
        # the option table cannot see this rule: the noise level that picks the tier is data
        monkeypatch.setattr(cli, "build_system", None)  # rejected before any system is built
        path = save_dataset(small_burgers_clean, tmp_path / "c.json")
        argv = ["--axis", "sgtr_threshold"] if command == "sweep" else ["--method", "sgtr"]
        code = self.run(command, "--dataset", str(path), *argv, "--space-width", "11",
                        "--time-degree", "2", "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --diff-method auto, which picks finite_difference at noise level 0, "
            "does not use --space-width or --time-degree\n")
        assert not (tmp_path / "out").exists()

    def test_with_ci_on_a_final_chain_too_short_to_bootstrap_samples_no_chain(
            self, small_dataset, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(tbglss, "sample_posterior", None)  # rejected before any chain
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--t-rms", "0.02",
                        "--iterations", "40", "--burnin", "20", "--with-ci",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: with_ci bootstraps at least 30 retained draws: bglss.n_iterations - "
            "bglss.n_burnin is 40 - 20\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, fields", [
        (["--update-iterations", "5", "--update-burnin", "4"],
         "update_iterations - update_burnin is 5 - 4"),
        (["--iterations", "100", "--burnin", "99"],
         "bglss.n_iterations - bglss.n_burnin is 100 - 99"),
    ], ids=["screening", "final"])
    def test_a_chain_keeping_one_draw_samples_no_chain(self, small_dataset, monkeypatch, tmp_path,
                                                        capsys, argv, fields):
        # one draw has no ddof=1 variance: its group error bars would be NaN
        monkeypatch.setattr(tbglss, "sample_posterior", None)  # rejected before any chain
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--t-rms", "0.02", *argv,
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: a chain keeps at least 2 retained draws: {fields}\n")
        assert not (tmp_path / "out").exists()

    def test_negative_burnin_samples_no_chain(self, small_dataset, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(tbglss, "sample_posterior", None)  # rejected before any chain
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--t-rms", "0.02", "--burnin", "-5",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: n_burnin must be at least 0 and below n_iterations (1000), got -5\n")
        assert not (tmp_path / "out").exists()

    def test_discover_without_a_threshold_names_both_flags(self, small_dataset, tmp_path,
                                                           capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: at least one threshold must be given: --t-rms or --t-ge\n")
        assert not (tmp_path / "out").exists()

    def test_discover_nan_threshold_is_validation_error(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), "--t-ge", "nan",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == "error: t_ge must be nonnegative and finite, got nan\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--t-rms", "0.1", "--final-chains", "0"], "final_chains must be at least 1, got 0\n"),
        (["--t-rms", "0.1", "--final-chains", "-2"], "final_chains must be at least 1, got -2\n"),
        (["--t-rms", "0.1", "--update-iterations", "0"],
         "update_burnin must be at least 0 and below update_iterations (0), got 50\n"),
        (["--t-rms", "0.1", "--update-burnin", "300"],
         "update_burnin must be at least 0 and below update_iterations (200), got 300\n"),
        (["--t-rms", "0.1", "--update-burnin", "-1"],
         "update_burnin must be at least 0 and below update_iterations (200), got -1\n"),
        (["--t-rms", "0.1", "--burnin", "-5"],
         "n_burnin must be at least 0 and below n_iterations (1000), got -5\n"),
        (["--t-rms", "0.1", "--iterations", "100", "--burnin", "100"],
         "n_burnin must be at least 0 and below n_iterations (100), got 100\n"),
    ], ids=["final_chains_zero", "final_chains_negative", "update_iterations_zero",
            "update_burnin_too_long", "update_burnin_negative", "burnin_negative",
            "burnin_too_long"])
    def test_discover_nan_option_is_validation_error(self, small_dataset, tmp_path, capsys,
                                                     argv, message):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("discover", "--dataset", str(path), *argv,
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--method", "sgtr", "--with-ci"], "sgtr does not use --with-ci"),
        (["--method", "sgtr", "--dump-trace", "trace.npz"], "sgtr does not use --dump-trace"),
        (["--method", "sgtr", "--final-chains", "3"], "sgtr does not use --final-chains"),
        (["--method", "sgtr", "--t-rms", "0.02"], "sgtr does not use --t-rms"),
        (["--method", "group_lasso", "--t-ge", "0.1"], "group_lasso does not use --t-ge"),
        (["--method", "group_lasso", "--with-ci"], "group_lasso does not use --with-ci"),
        (["--method", "sgtr", "--iterations", "50"], "sgtr does not use --iterations\n"),
        (["--method", "group_lasso", "--sgtr-ridge", "5"],
         "group_lasso does not use --sgtr-ridge\n"),
        (["--t-rms", "0.1", "--lasso-lam", "0.5"], "tbglss does not use --lasso-lam\n"),
        (["sweep", "--axis", "lambda", "--range", "0.01:0.1:2", "--sgtr-ridge", "7"],
         "group_lasso does not use --sgtr-ridge\n"),
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
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("kind, argv, flags", [
        ("moving_average", ["--window", "5", "--order", "6"], "--order"),
        ("moving_average", ["--window", "13", "--cutoff", "0.1"], "--cutoff"),
        ("zero_phase_lowpass", ["--cutoff", "0.1", "--window", "13"], "--window"),
        ("savitzky_golay", ["--window", "7", "--cutoff", "0.1", "--order", "2"],
         "--cutoff or --order"),
        # a range for the other kind's parameter, beside a sweep of the kind's own or its grid
        ("moving_average", ["--cutoff", "0.1:0.2:3", "--clean", "{path}"], "--cutoff"),
        ("zero_phase_lowpass", ["--window", "3:9:2", "--clean", "{path}"], "--window"),
        ("zero_phase_lowpass", ["--cutoff", "0.1:0.2:3", "--window", "3:9:2", "--clean",
                                "{path}"], "--window"),
    ], ids=["order", "cutoff", "window", "cutoff-order", "cutoff-range", "window-range",
            "window-range-beside-cutoff-range"])
    def test_filter_option_its_kind_ignores_is_validation_error(self, small_dataset, tmp_path,
                                                                 capsys, kind, argv, flags):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("filter", "--dataset", str(path), "--kind", kind,
                        *[arg.format(path=path) for arg in argv],
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: a {kind} filter does not use {flags}\n"
        assert not (tmp_path / "out").exists()

    def test_filter_sweep_rejects_format(self, small_dataset, tmp_path, capsys):
        # a sweep writes its curve as CSV and JSON, never a dataset archive
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("filter", "--dataset", str(path), "--kind", "moving_average",
                        "--window", "3:9:2", "--clean", str(path), "--format", "csv",
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == "error: a filter sweep does not use --format\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, text, message", [
        ("--x-span", "5", "--x-span expects lo:hi, got '5'"),
        ("--t-span", "0:1:2", "--t-span expects lo:hi, got '0:1:2'"),
        ("--t-span", "0:b", "--t-span expects lo:hi, got '0:b'"),
        ("--t-span", "0:inf", "domain spans must be increasing and finite, got "
                              "x_span=(-8.0, 8.0) and t_span=(0.0, inf)"),
    ], ids=["too_few", "too_many", "not_a_number", "infinite"])
    def test_malformed_span_names_its_option(self, tmp_path, capsys, option, text, message):
        code = self.run("simulate", "--family", "burgers", option, text, "--output", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_malformed_range_names_its_option(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        for argv, message in [
            (["--axis", "t_rms", "--range", "0.02:0.2:x"],
             "--range expects lo:hi:count, got '0.02:0.2:x'"),
            (["--axis", "t_ge", "--range", "0:inf:3"],
             "--range expects finite bounds and a positive count, got '0:inf:3'"),
            (["--axis", "t_ge", "--range", "nan:1:3"],
             "--range expects finite bounds and a positive count, got 'nan:1:3'"),
            (["--axis", "t_rms", "--range", "0.1:0.2:0"],
             "--range expects finite bounds and a positive count, got '0.1:0.2:0'"),
            (["--axis", "t_rms", "--range=0.1:0.2:-1"],
             "--range expects finite bounds and a positive count, got '0.1:0.2:-1'"),
            (["--axis", "t_ge", "--log"], "--log spaces --range: give --range with it"),
        ]:
            code = self.run("sweep", "--dataset", str(path), *argv,
                            "--output", str(tmp_path / "out"))
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_filter_parameter_names_its_option(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        for kind, option, text, expects in [
            ("moving_average", "--window", "3:9", "start:stop:step"),
            ("moving_average", "--window", "3:9:0", "start <= stop and a positive step"),
            ("moving_average", "--window", "9:3:2", "start <= stop and a positive step"),
            ("moving_average", "--window", "5.5", "one value or a range"),
            ("zero_phase_lowpass", "--cutoff", "0.1:0.2:0", "finite bounds and a positive count"),
            ("zero_phase_lowpass", "--cutoff", "0.1:0.2", "lo:hi:count"),
            ("zero_phase_lowpass", "--cutoff", "low", "one value or a range"),
        ]:
            code = self.run("filter", "--dataset", str(path), "--kind", kind, "--clean", str(path),
                            f"{option}={text}", "--output", str(tmp_path / "out"))
            assert code == 1
            assert capsys.readouterr().err == f"error: {option} expects {expects}, got {text!r}\n"
        assert not (tmp_path / "out").exists()

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
        assert capsys.readouterr().err == f"error: {method} does not use --t-ge\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis, message", [
        ("sgtr_threshold", "threshold must be positive and finite, got 0.0"),
        ("lambda", "lam must be positive and finite, got 0.0"),
    ])
    def test_sweep_rejects_a_grid_value_at_zero(self, small_dataset, tmp_path, capsys, axis,
                                                message):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--axis", axis,
                        "--range", "0:0.1:2", "--output", str(tmp_path / "out"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("sweep_*"))

    def test_sweep_rejects_the_swept_thresholds_option(self, small_dataset, tmp_path, capsys):
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run("sweep", "--dataset", str(path), "--axis", "t_rms", "--t-rms", "0.5",
                        "--range", "0.01:0.1:2", "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --axis t_rms sweeps t_rms: give its values with --range, not --t-rms\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, argv, flag", [
        ("sweep", ["--axis", "t_ge", "--t-rms", "0.02", "--filter", "moving_average"], "--filter"),
        *[("sweep", ["--axis", "t_ge", "--t-rms", "0.02", flag, value], flag) for flag, value in (
            ("--windows", "5:9:2"), ("--cutoffs", "0.1:0.2:2"), ("--polyorder", "2"),
            ("--order", "4"), ("--clean", "{path}"), ("--axis-direction", "space"))],
        *[("filter", ["--kind", "moving_average", "--clean", "{path}", *argv], argv[0])
          for argv in (["--t-rms", "0.3"], ["--seed", "4"], ["--sgtr-ridge", "1e-5"],
                       ["--iterations", "50"], ["--range", "0.1:0.2:2"], ["--log"],
                       ["--with-truth"], ["--diff-method", "poly_fit"], ["--max-power", "2"])],
    ])
    def test_method_sweep_and_filter_sweep_reject_each_others_options(
            self, small_dataset, tmp_path, capsys, command, argv, flag):
        # sweep sweeps only method parameters and filter only its kind's parameter
        path = save_dataset(small_dataset, tmp_path / "d.json")
        code = self.run(command, "--dataset", str(path), *[a.format(path=path) for a in argv],
                        "--output", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: vcpde ")
        assert f"\nerror: unrecognized arguments: {flag}" in err
        assert not (tmp_path / "out").exists()

    def test_simulate_clean_no_twin(self, tmp_path, capsys):
        assert self.run("simulate", "--family", "ad", "--nx", "64", "--nt", "32",
                        "--output", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "data MSE" not in out
        assert (tmp_path / "advection_diffusion_noise0_seed0.json").exists()

    @pytest.mark.parametrize("argv, config", [
        (["--write-clean"], None), (["--no-write-clean"], None), ([], True), ([], False),
    ], ids=["write-clean", "no-write-clean", "config-true", "config-false"])
    def test_simulate_write_clean_at_zero_noise_is_validation_error(
            self, monkeypatch, tmp_path, capsys, argv, config):
        # the option table cannot see this rule: it depends on the --noise value
        solved = []
        monkeypatch.setattr(solvers, "_solve_etdrk4", lambda scenario: solved.append(scenario))
        given_config = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps({"write_clean": config}))
            given_config = ["--config", str(tmp_path / "config.json")]
        code = self.run(*given_config, "simulate", "--family", "ad", "--noise", "0", *argv,
                        "--output", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --write-clean and --no-write-clean "
                                                  "need --noise > 0")
        assert solved == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, twin", [([], True), (["--write-clean"], True),
                                            (["--no-write-clean"], False)])
    def test_simulate_write_clean_with_noise(self, tmp_path, argv, twin):
        assert self.run("simulate", "--family", "burgers", "--noise", "0.05", "--nx", "64",
                        "--nt", "32", *argv, "--output", str(tmp_path)) == 0
        assert (tmp_path / "burgers_noise0.05_seed0.json").exists()
        assert (tmp_path / "burgers_noise0.05_seed0_clean.json").exists() == twin

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

    def test_dump_trace_prints_the_path_it_wrote(self, small_burgers_clean, tmp_path, capsys):
        # an npz archive gets .npz appended unless its name ends in it; a .csv name is a CSV,
        # either suffix in any case
        data = str(save_dataset(small_burgers_clean, tmp_path / "d.json"))
        for name, written in (("trace", "trace.npz"), ("t.txt", "t.txt.npz"),
                              ("t.npz", "t.npz"), ("t.csv", "t.csv"), ("t.CSV", "t.CSV"),
                              ("t.NPZ", "t.NPZ")):
            out = tmp_path / f"out_{name}"
            assert self.run("discover", "--dataset", data, "--t-rms", "0.02", "--t-ge", "0.1",
                            "--iterations", "120", "--burnin", "30", "--update-iterations", "60",
                            "--update-burnin", "15", "--dump-trace", name,
                            "--output", str(out)) == 0
            printed = capsys.readouterr().out.splitlines()
            assert printed[1] == f"wrote {out / written}"
            assert sorted(path.name for path in out.iterdir()
                          if not path.name.startswith("tbglss_")) == [written]

    def test_filter_sweep_command(self, tmp_path, capsys):
        self.run("simulate", "--family", "burgers", "--noise", "0.05", "--seed", "2",
                 "--nx", "64", "--nt", "48", "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("filter", "--dataset", str(tmp_path / "burgers_noise0.05_seed2.json"),
                        "--kind", "moving_average", "--window", "3:9:2",
                        "--clean", str(tmp_path / "burgers_noise0.05_seed2_clean.json"),
                        "--output", str(tmp_path / "sw"))
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == f"wrote {tmp_path / 'sw' / 'filter_sweep_moving_average.csv'}"
        assert out[-1].startswith("argmin: ")
        rows = (tmp_path / "sw" / "filter_sweep_moving_average.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["parameter", "3.0", "5.0", "7.0", "9.0"]
        assert json.loads((tmp_path / "sw" / "filter_sweep_moving_average.json").read_text())[
            "kind"] == "moving_average"

    def test_filter_sweep_default_grid(self, tmp_path):
        self.run("simulate", "--family", "burgers", "--noise", "0.05", "--seed", "2",
                 "--nx", "64", "--nt", "48", "--t-span", "0:4", "--output", str(tmp_path))
        code = self.run("filter", "--dataset", str(tmp_path / "burgers_noise0.05_seed2.json"),
                        "--kind", "savitzky_golay",
                        "--clean", str(tmp_path / "burgers_noise0.05_seed2_clean.json"),
                        "--output", str(tmp_path / "sw"))
        assert code == 0
        rows = (tmp_path / "sw" / "filter_sweep_savitzky_golay.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == list(DEFAULT_GRIDS["savitzky_golay"])

    def test_filter_sweep_writes_what_the_paper_filter_study_writes(self, monkeypatch, tmp_path):
        # `filter --clean` on its kind's default grid and reproduce-paper's filter study
        # write the same CSV and JSON summary, here on a small 5% Burgers grid
        small = {"n_x": 64, "n_t": 48, "t_span": (0.0, 4.0)}
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 1)
        monkeypatch.setattr(pipeline, "make_scenario",
                            lambda family: make_scenario(family, **small))
        monkeypatch.setattr(pipeline, "discover", lambda dataset, config: stub_report())
        monkeypatch.setattr(cli, "save_report", lambda report, path: None)
        assert self.run("reproduce-paper", "--only", "burgers_filter_study",
                        "--output", str(tmp_path / "paper")) == 0
        assert self.run("simulate", "--family", "burgers", "--noise", "0.05", "--nx", "64",
                        "--nt", "48", "--t-span", "0:4", "--output", str(tmp_path)) == 0
        for kind in FILTER_KINDS:
            assert self.run("filter", "--dataset", str(tmp_path / "burgers_noise0.05_seed0.json"),
                            "--kind", kind,
                            "--clean", str(tmp_path / "burgers_noise0.05_seed0_clean.json"),
                            "--output", str(tmp_path / "cli")) == 0
            for suffix in (".csv", ".json"):
                paper = tmp_path / "paper" / f"burgers_filter_{kind}{suffix}"
                assert (tmp_path / "cli" / f"filter_sweep_{kind}{suffix}").read_bytes() == (
                    paper.read_bytes())

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "zero_phase_lowpass", "--window", "5"], "--cutoff is required"),
        (["--kind", "moving_average", "--window", "5:9:2"],
         "a filter sweep needs --clean for the reference field"),
    ], ids=["parameter", "sweep-clean"])
    def test_filter_needs_its_parameter(self, tmp_path, capsys, argv, message):
        self.run("simulate", "--family", "burgers", "--nx", "64", "--nt", "32",
                 "--output", str(tmp_path))
        code = self.run("filter", "--dataset", str(tmp_path / "burgers_noise0_seed0.json"),
                        *argv, "--output", str(tmp_path / "out"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
                asdict(FilterSpec.of(kind, float(value)))]

        swept, real_sweep = [], cli.filter_sweep

        def recording_sweep(*args, **options):
            swept.append(options)
            return real_sweep(*args, **options)

        monkeypatch.setattr(cli, "filter_sweep", recording_sweep)
        assert self.run("filter", "--dataset", dataset, "--kind", "savitzky_golay",
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
        # filter's --window and --cutoff take a range: no command declares windows or cutoffs
        ("simulate", '{"family": "burgers", "windows": "5:9:2", "cutoffs": "0.1:0.2:3"}',
         "keys no command declares: cutoffs, windows"),
        # values are checked as the command line checks them
        ("discover", '{"iterations": 300.5}', "sets iterations to 300.5"),
        ("discover", '{"seed": 1.5}', "sets seed to 1.5"),
        ("discover", '{"lam": [1]}', "sets lam to [1]"),
        ("discover", '{"method": "lasso"}', "sets method to 'lasso': expected one of"),
        ("discover", '{"with_ci": 1}', "sets with_ci to 1: expected true or false"),
        ("simulate", '{"family": "burgers", "noise": "abc"}', "sets noise to 'abc'"),
        ("simulate", '{"family": ["burgers"]}', "sets family to ['burgers']: expected a string"),
    ], ids=["missing", "malformed", "not_an_object", "unknown_key", "sweep_grids",
            "float_iterations", "float_seed", "list_lam", "unknown_method",
            "non_bool_flag", "text_noise", "list_family"])
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

    def test_config_null_keeps_the_built_in_default(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"family": "burgers", "nx": 64, "nt": 32, "noise": None,
                                      "seed": None}))
        assert self.run("--config", str(config), "simulate", "--output", str(tmp_path)) == 0
        assert load_dataset(tmp_path / "burgers_noise0_seed0.json").metadata["noise_level"] == 0

    def test_config_false_leaves_a_flag_unset(self, small_dataset, tmp_path):
        # false for a store_true flag is the flag not given, so sgtr, which does not use
        # --with-ci, runs as it does without the file
        path = save_dataset(small_dataset, tmp_path / "d.json")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"with_ci": False}))
        argv = ["discover", "--dataset", str(path), "--method", "sgtr", "--output"]
        assert self.run(*argv, str(tmp_path / "plain")) == 0
        assert self.run("--config", str(config), *argv, str(tmp_path / "config")) == 0
        written = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert written and written == sorted(p.name for p in (tmp_path / "config").iterdir())
        for name in written:
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes())

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

    def test_reproduce_tge_sweep_writes_what_the_sweep_command_writes(self, tmp_path, capsys):
        paper = tmp_path / "paper"
        assert self.run("reproduce-paper", "--only", "ad_tge_sweep", "--seed", "0",
                        "--output", str(paper)) == 0
        assert "[ad_tge_sweep] argmin {'loss': " in capsys.readouterr().out
        assert self.run("simulate", "--family", "ad", "--noise", "0.02", "--seed", "0",
                        "--output", str(tmp_path)) == 0
        dataset = tmp_path / "advection_diffusion_noise0.02_seed0.json"
        assert self.run("sweep", "--dataset", str(dataset), "--axis", "t_ge", "--t-rms", "0.01",
                        "--seed", "0", "--with-truth", "--output", str(tmp_path / "cli")) == 0
        for suffix in (".csv", ".json"):
            cli_file = tmp_path / "cli" / f"sweep_t_ge_advection_diffusion_noise0.02_seed0{suffix}"
            assert cli_file.read_bytes() == (paper / f"ad_tge_sweep{suffix}").read_bytes()

    def test_reproduce_solves_each_family_once(self, monkeypatch, tmp_path):
        solved, fitted = [], []

        def counting_solve(scenario):
            solved.append(scenario.family)
            return solvers.solve(scenario)

        def recording_discover(dataset, config):
            fitted.append((dataset.metadata["family"], dataset.noise_level, type(config)))
            return stub_report()

        # one worker, so the grid's tasks run in this process, where the fits are recorded
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 1)
        monkeypatch.setattr(pipeline, "solve", counting_solve)
        monkeypatch.setattr(pipeline, "discover", recording_discover)
        monkeypatch.setattr(cli, "save_report", lambda report, path: None)
        assert self.run("reproduce-paper", "--only", "sgtr", "--output", str(tmp_path)) == 0
        assert solved == ["burgers", "advection_diffusion", "kuramoto_sivashinsky"]
        assert fitted == [(family, noise, SgtrConfig)
                          for family, spec in pipeline.PAPER_CELLS.items()
                          for noise in spec["noises"]]

    def test_reproduce_fits_each_dataset_and_config_once(self, monkeypatch, tmp_path):
        # the filter study's unfiltered arm is the 5% Burgers tbglss cell: one fit, written to
        # both directories; its filtered arm takes that cell's thresholds
        fitted, saved = [], {}

        def recording_discover(dataset, config):
            fitted.append((dataset.dataset_id(), repr(config)))
            return stub_report()

        # one worker, so the grid's tasks run in this process, where the fits are recorded
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 1)
        monkeypatch.setattr(pipeline, "discover", recording_discover)
        monkeypatch.setattr(cli, "save_report",
                            lambda report, path: saved.update({path.name: report}))
        assert self.run("reproduce-paper", "--only", "burgers", "--output", str(tmp_path)) == 0
        assert len(fitted) == len(set(fitted)) == 10  # nine cells and the filtered arm
        assert saved["burgers_5pct_unfiltered"] is saved["burgers_noise0.05_tbglss"]
        thresholds = repr(ThresholdSpec(*pipeline.PAPER_CELLS["burgers"]["thresholds"][0.05]))
        assert thresholds in fitted[-1][1]

    def test_reproduce_failing_cell_writes_no_file(self, monkeypatch, tmp_path, capsys):
        def failing_discover(dataset, config):
            if isinstance(config, SgtrConfig):
                raise SamplerError("sigma2 diverged")
            return stub_report()

        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 1)
        monkeypatch.setattr(pipeline, "discover", failing_discover)
        assert self.run("reproduce-paper", "--only", "burgers_noise0_",
                        "--output", str(tmp_path)) == 2
        assert "sigma2 diverged" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.*"))

    def test_reproduce_writes_the_same_bytes_inline_and_on_workers(self, monkeypatch, tmp_path,
                                                                   capsys):
        written = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda n_tasks: min(workers, n_tasks))
            out = tmp_path / str(workers)
            assert self.run("reproduce-paper", "--only", "noise0_sgtr", "--output", str(out)) == 0
            files = {path.relative_to(out): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()}
            written[workers] = files, capsys.readouterr().out.replace(str(out), "OUT")
        assert written[1] == written[2]
        files, printed = written[1]
        assert len(files) == 3 * 3 and printed.count("_noise0_sgtr] ") == 3  # three reports

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


# A value for each option that differs from its default and from every path's own argv.
OPTION_VALUES = {
    "family": ["--family", "ad"], "noise": ["--noise", "0.02"], "seed": ["--seed", "3"],
    "nx": ["--nx", "48"], "nt": ["--nt", "24"], "x_span": ["--x-span", "0:3"],
    "t_span": ["--t-span", "0:2"], "write_clean": ["--no-write-clean"],
    "format": ["--format", "csv"], "dataset": ["--dataset", "{clean}"],
    "window": ["--window", "7"], "cutoff": ["--cutoff", "0.15"], "polyorder": ["--polyorder", "2"],
    "order": ["--order", "2"], "axis": ["--axis", "space"], "clean": ["--clean", "{data}"],
    "range": ["--range", "0.3:0.4:3"], "log": ["--log"], "with_truth": ["--with-truth"],
    "t_rms": ["--t-rms", "0.05"], "t_ge": ["--t-ge", "0.2"], "lam": ["--lam", "2.0"],
    "pi0": ["--pi0", "0.3"], "iterations": ["--iterations", "300"], "burnin": ["--burnin", "10"],
    "update_iterations": ["--update-iterations", "300"], "update_burnin": ["--update-burnin", "20"],
    "final_chains": ["--final-chains", "2"], "with_ci": ["--with-ci"],
    "dump_trace": ["--dump-trace", "trace.npz"], "sgtr_threshold": ["--sgtr-threshold", "0.05"],
    "sgtr_ridge": ["--sgtr-ridge", "1e-3"], "lasso_lam": ["--lasso-lam", "0.5"],
    "space_width": ["--space-width", "11"], "space_degree": ["--space-degree", "3"],
    "time_width": ["--time-width", "11"], "time_degree": ["--time-degree", "2"],
    "max_power": ["--max-power", "2"], "max_derivative": ["--max-derivative", "3"],
    "only": ["--only", "burgers_noise0_group_lasso"], "output": ["--output", "{other}"],
}
# Options that pick the path; every path reads them.
SELECTORS = {"kind", "method", "axis_name", "diff_method"}
BASELINES = ("sgtr", "group_lasso")


def command_paths(command: str):
    """(modes, argv) of each path `command` can take: its mode of each kind an option's
    readers can name (cli.Option), and the options that take it."""
    if command in ("simulate", "reproduce-paper"):
        yield (), {"simulate": ["--family", "burgers", "--noise", "0.05", "--nx", "64",
                                "--nt", "32"],
                   "reproduce-paper": ["--only", "burgers_noise0_sgtr"]}[command]
    for kind in FILTER_KINDS if command == "filter" else ():
        flag = "--" + parameter_name(kind)
        one, grid = ("0.1", "0.1:0.2:3") if flag == "--cutoff" else ("5", "5:9:2")
        argv = ["--dataset", "{data}", "--kind", kind]
        yield (kind, "filter"), [*argv, flag, one]
        yield (kind, "filter sweep"), [*argv, flag, grid, "--clean", "{clean}"]
        yield (kind, "filter sweep"), [*argv, "--clean", "{clean}"]  # the default grid
    for diff in cli.DIFF_METHODS if command in ("discover", "sweep") else ():
        argv = ["--dataset", "{data}", "--diff-method", diff]
        if command == "discover":
            for method in METHODS:
                yield (method, diff), [*argv, "--method", method,
                                       *(["--t-rms", "0.1"] if method == "tbglss" else [])]
        else:
            for axis, method in AXIS_METHODS.items():
                yield (method, diff), [*argv, "--axis", axis, "--range", "0.1:0.2:3"]


def table_reads(option, modes) -> bool:
    """Whether the option table says a path in `modes` reads `option`."""
    if not option.readers:
        return True
    kind = next(kind for kind in (METHODS, cli.DIFF_METHODS, FILTER_KINDS, cli.FILTER_MODES)
                if set(option.readers) <= set(kind))
    mode = [mode for mode in modes if mode in kind]
    return not mode or mode[0] in option.readers


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_option_is_read_on_every_path_or_rejected_by_flag(
        small_burgers_clean, monkeypatch, tmp_path, capsys, command):
    # Run each path alone and with each option set: the option is read (the calls into the
    # library or the printout change) or the run exits 1 naming its flag, as the table says.
    # The one exception: sgtr and group_lasso accept --seed and ignore it, because perfbench
    # passes --seed to every discover job, baselines included.
    files = {"data": str(save_dataset(noisy_dataset(small_burgers_clean, 0.02, seed=5),
                                      tmp_path / "d.json")),
             "clean": str(save_dataset(small_burgers_clean, tmp_path / "c.json")),
             "other": str(tmp_path / "other")}
    monkeypatch.setenv("VCPDE_OUTPUT_ROOT", str(tmp_path / "out"))
    # the cheap calls run for real, the fits and the system build are recorded only
    real = ("load_dataset", "save_dataset", "filter_dataset", "filter_sweep", "simulate_dataset")
    stubs = {name: mock.MagicMock(wraps=getattr(cli, name) if name in real else None)
             for name in (*real, "discover", "save_report", "save_trace", "build_system",
                          "default_grid", "truth_on", "sweep", "save_sweep")}
    stubs["sweep"].return_value.points = [mock.MagicMock(error=None)]
    for name, stub in stubs.items():
        monkeypatch.setattr(cli, name, stub)

    def run(argv):
        for stub in stubs.values():
            stub.reset_mock()
        code = main([command, *[arg.format(**files) for arg in argv]])
        out, err = capsys.readouterr()
        return code, err, out + repr([stub.mock_calls for stub in stubs.values()])

    options = [option for option in cli.OPTIONS if command in option.commands]
    assert {option.dest for option in options} <= set(OPTION_VALUES) | SELECTORS
    for modes, argv in command_paths(command):
        code, err, base = run(argv)
        assert code == 0, (argv, err)
        for option in options:
            if option.dest in SELECTORS:
                continue
            code, err, seen = run([*argv, *OPTION_VALUES[option.dest]])
            swept = command == "sweep" and option.dest == argv[argv.index("--axis") + 1]
            if option.dest == "seed" and set(modes) & set(BASELINES):
                assert (code, seen) == (0, base), (argv, option.flag)
            elif table_reads(option, modes) and not swept:
                assert code == 0 and seen != base, (argv, option.flag, err)
            else:
                assert code == 1 and err.startswith("error: ") and option.flag in err, (
                    argv, option.flag, err)


def test_every_option_field_is_a_field_of_its_config():
    # a field no config has would fail only when its option is given
    configs = {"scenario": solvers.PdeScenario, "filter": FilterSpec, "thresholds": ThresholdSpec,
               "bglss": BglssConfig, **selection.METHODS, "diff": DifferentiationSpec,
               "library": LibrarySpec.standard}
    for option in cli.OPTIONS:
        if option.field:
            config, _, name = option.field.partition(".")
            assert name in inspect.signature(configs[config]).parameters, option.flag


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [0, 1])
def test_every_benchmark_job_parses_and_builds_its_configs(tmp_path, seed):
    # The benchmark runs these argvs through cli.main; an option renamed, removed or newly
    # rejected would fail its run.  Each argv is parsed, and its configs are built as its
    # command builds them, without solving or fitting.
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    parser = cli.build_parser()
    commands = set()
    for workload in workloads["WORKLOADS"]:
        for job in workloads["jobs_for"](workload, seed):
            args = parser.parse_args(job.argv(tmp_path))
            commands.add(args.command)
            if args.command == "simulate":
                solvers.check_noise_level(args.noise)
                assert args.noise > 0 or args.write_clean is None  # as cmd_simulate checks
                make_scenario(args.family, **cli._given(args, "scenario"))
                continue
            if args.command == "discover":
                method, swept = args.method or "tbglss", None
            else:
                method, swept = AXIS_METHODS[args.axis_name], args.axis_name
                cli._parse_range(args.range, "--range", log=args.log)
            assert isinstance(cli._method_config(args, method, swept=swept), METHODS[method])
            # the dataset is written by an earlier job; its noise level picks the auto tier
            cli._diff_spec_from_args(args, Dataset(None, {"noise_level": job.data.noise}))
            cli._library_from_args(args)
    assert commands == {"simulate", "discover", "sweep"}
