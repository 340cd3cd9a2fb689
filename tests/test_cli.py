"""End-to-end tests of the command-line surface: subcommands, CSV and config
conventions, exit codes, and seeded reproducibility."""

import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import glemarket.cli as cli
import glemarket.laplace as laplace
import glemarket.models as models
import oracles
from glemarket.cli import main, parse_config
from glemarket import errors
from glemarket.errors import AccuracyError, ParseError, SolverError
from glemarket.estimate import fit_prices
from glemarket.market import price_from_returns
from glemarket.models import (CATALOG, ROUTES, ModelSpec, Variant, force_shape, identity_residual,
                              observable_shape)
from glemarket.volterra import simulate_stationary_ensemble


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


# -- config ----------------------------------------------------------------------


def serialize_config(config):
    """Canonical text form, keys sorted; parse_config(serialize_config(c)) == c."""
    lines = [f"{key} = {value if key == 'out_dir' else repr(value)}"
             for key, value in sorted(config.items())]
    return "".join(line + "\n" for line in lines)


class TestRunConfig:
    def test_round_trip_identity(self):
        text = (
            "# desk defaults\n"
            "seed = 99\n"
            "out_dir = results\n"
            "tolerance = 1e-09\n"
            "model.tau_r = 0.5\n"
            "model.theta = 2.0\n"
        )
        cfg = parse_config(text)
        assert cfg == {"seed": 99, "out_dir": "results", "tolerance": 1e-09,
                       "model.tau_r": 0.5, "model.theta": 2.0}
        canon = serialize_config(cfg)
        assert parse_config(canon) == cfg
        assert serialize_config(parse_config(canon)) == canon

    def test_defaults(self):
        cfg = parse_config("# comments and blank lines only\n\n")
        # no keys: each command falls back to its flags' defaults in FLAGS
        assert cfg == {}
        assert serialize_config(cfg) == ""

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("time_unit day\n", "key=value"),
            ("seed = 1\nseed = 2\n", "duplicate"),
            ("volatility = 3\n", "unknown config key"),
            ("seed = abc\n", "could not parse"),
            ("model.gamma = 1.0\n", "unknown config key"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert fragment in str(err.value)
        assert "line" in str(err.value)

    def test_time_unit_is_not_a_config_key(self, tmp_path):
        # no command ever read it: naming it is an unknown key, exit 2
        with pytest.raises(ParseError, match="line 2: unknown config key 'time_unit'"):
            parse_config("seed = 1\ntime_unit = day\n")
        config = tmp_path / "old.cfg"
        config.write_text("# desk defaults\ntime_unit = day\n", encoding="utf-8")
        code, _, err = run_cli("fig1", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2 and "line 2" in err and "time_unit" in err
        assert list(tmp_path.iterdir()) == [config]

    def test_field_validation(self, tmp_path):
        # a config value is checked where its flag is read, with the flag's check
        for key, value, argv, message in [
            ("seed", "-1", ["simulate", "--model", "white", "--n-paths", "1", "--n-steps", "8",
                            "--h", "0.1"], "seed must be an integer in [0, 2^64)"),
            ("tolerance", "0.0", ["audit", "--model", "selfsim", "--n-real", "4", "--out", "a.csv"],
             "tolerance must be positive and finite"),
        ]:
            config = tmp_path / f"{key}.cfg"
            config.write_text(f"{key} = {value}\n", encoding="utf-8")
            out_dir = tmp_path / key
            assert run_cli(*argv, "--config", str(config), "--out-dir", str(out_dir)) == (
                2, "", f"error: {message}\n")
            assert not out_dir.exists()
        with pytest.raises(ParseError, match="line 1: unknown config key 'model.gamma'"):
            parse_config("model.gamma = 1.0\n")


# -- fig1 ------------------------------------------------------------------------


class TestFig1:
    def test_columns_and_zero_crossings(self, tmp_path):
        code, out, _ = run_cli(
            "fig1", "--out-dir", str(tmp_path), "--max-lag-ratio", "4",
            "--n-points", "4001",
        )
        assert code == 0 and "fig1.csv" in out
        header, data = read_csv(tmp_path / "fig1.csv")
        assert header == ["lag_ratio", "lambda1", "lambda0"]
        assert data[0].tolist() == [0.0, 1.0, 1.0]
        grid = data[1, 0] - data[0, 0]
        first_zero = lambda col: data[np.nonzero(np.diff(np.sign(data[:, col])))[0][0], 0]
        assert abs(first_zero(1) - 1.9159) <= 2 * grid + 1e-4
        assert abs(first_zero(2) - 2.4048) <= 2 * grid + 1e-4
        # the later curve oscillates with larger amplitude at large lag
        tail = data[data[:, 0] >= 3.0]
        assert np.abs(tail[:, 2]).max() > np.abs(tail[:, 1]).max()

    def test_input_validation(self, tmp_path):
        code, _, err = run_cli("fig1", "--out-dir", str(tmp_path), "--n-points", "1")
        assert code == 2 and "n-points" in err

    @pytest.mark.parametrize("argv,flag", [
        # the curves are functions of the lag ratio alone: no memory time enters
        (["fig1"], "--tau-R"),
        # flags no code of the command reads
        (["fig1"], "--seed"),
        (["fig1"], "--tolerance"),
        (["acf", "--model", "white", "--route", "closed", "--h", "0.1"], "--seed"),
        (["simulate", "--model", "white", "--n-paths", "1", "--n-steps", "8", "--h", "0.1",
          "--seed", "1"], "--tolerance"),
        (["estimate", "--input", "prices.csv"], "--seed"),
        (["estimate", "--input", "prices.csv"], "--tolerance"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v.lstrip("-"))
    def test_removed_tau_R_flag_refused_before_writing(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path), flag, "7"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        code, _, err = run_cli("fig1", "--out-dir", str(blocker / "sub"))
        assert code == 2 and "error:" in err


# -- acf -------------------------------------------------------------------------


class TestAcf:
    def test_closed_vs_laplace_agree(self, tmp_path):
        args = ["--out-dir", str(tmp_path), "--model", "selfsim", "--tau-R", "1.0",
                "--h", "0.1", "--n-points", "100"]
        code, _, _ = run_cli("acf", *args, "--route", "closed", "--out", "c.csv")
        assert code == 0
        code, _, _ = run_cli("acf", *args, "--route", "laplace", "--out", "l.csv")
        assert code == 0
        _, closed = read_csv(tmp_path / "c.csv")
        _, lap = read_csv(tmp_path / "l.csv")
        assert np.abs(closed[:, 1] - lap[:, 1]).max() <= 1e-4

    def test_config_tolerance_is_honoured(self, tmp_path):
        config = tmp_path / "strict.cfg"
        config.write_text("tolerance = 1e-20\n", encoding="utf-8")
        args = ["acf", "--out-dir", str(tmp_path), "--model", "selfsim", "--route",
                "laplace", "--h", "0.05", "--n-points", "50"]
        assert run_cli(*args)[0] == 0
        assert run_cli(*args, "--config", str(config))[0] == 4
        # the flag still wins over the config
        assert run_cli(*args, "--config", str(config), "--tolerance", "1e-6")[0] == 0

    def test_infinite_tolerance_is_bad_input(self, tmp_path):
        # inf would disable the accuracy check; a config inf is refused alike
        code, _, err = run_cli("acf", "--out-dir", str(tmp_path), "--model", "selfsim",
                               "--route", "laplace", "--h", "0.05", "--n-points", "50",
                               "--tolerance", "inf")
        assert code == 2 and "tolerance must be positive and finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("route", ["closed", "volterra"])
    def test_tolerance_flag_is_refused_off_the_laplace_route(self, tmp_path, route):
        args = ["acf", "--out-dir", str(tmp_path), "--model", "selfsim", "--route",
                route, "--h", "0.05", "--n-points", "50"]
        code, _, err = run_cli(*args, "--tolerance", "1e-20")
        assert code == 2
        assert "acf reads --tolerance only with --route laplace" in err
        assert not (tmp_path / "acf.csv").exists()
        # a config tolerance keeps its meaning: it only tunes the laplace route
        config = tmp_path / "strict.cfg"
        config.write_text("tolerance = 1e-20\n", encoding="utf-8")
        assert run_cli(*args, "--config", str(config))[0] == 0

    def test_boltzmann_volterra_route(self, tmp_path):
        code, _, _ = run_cli(
            "acf", "--out-dir", str(tmp_path), "--model", "boltzmann",
            "--route", "volterra", "--h", "0.05", "--n-points", "64",
        )
        assert code == 0
        header, data = read_csv(tmp_path / "acf.csv")
        assert header == ["lag", "acf"]
        assert data[0, 1] == 1.0

    def test_oversized_inversion_exits_2_and_points_to_closed(self, tmp_path, monkeypatch):
        # a horizon of 1e6 tau_R needs about 2e6 image points on its top contour
        args = ["acf", "--out-dir", str(tmp_path), "--model", "selfsim",
                "--h", "100", "--n-points", "10000"]
        code, _, err = run_cli(*args, "--route", "laplace")
        assert code == 2 and "image points" in err and "--route closed" in err
        assert list(tmp_path.iterdir()) == []
        assert run_cli(*args, "--route", "closed")[0] == 0
        # stock theta = 0.0125 at 8000 lags needs only about 1e5 image points
        assert run_cli("acf", "--out-dir", str(tmp_path), "--model", "stock", "--theta", "0.0125",
                       "--h", "0.05", "--n-points", "8000", "--route", "laplace")[0] == 0
        # the bound is checked before the grid's lags are built
        monkeypatch.setattr(laplace, "CONTOUR_POINT_BOUND", 1000)
        code, _, err = run_cli("acf", "--out-dir", str(tmp_path / "low"), "--model", "selfsim",
                               "--route", "laplace", "--h", "0.05", "--n-points", str(2**22))
        assert code == 2 and "image points on one contour" in err
        assert not (tmp_path / "low").exists()

    def test_oversized_neumann_series_exits_2_and_points_to_laplace(self, tmp_path):
        # theta = 2e-5 at h = 1 needs 6.2e9 recurrence steps, the contours only 0.6 s
        args = ["acf", "--out-dir", str(tmp_path), "--model", "stock", "--theta", "2e-5",
                "--h", "1", "--n-points", "16"]
        code, _, err = run_cli(*args, "--route", "closed")
        assert code == 2 and "recurrence steps" in err and "--route laplace" in err
        assert list(tmp_path.iterdir()) == []
        assert run_cli(*args, "--route", "laplace")[0] == 0

    def test_capability_gap_prints_matrix(self, tmp_path):
        code, _, err = run_cli(
            "acf", "--out-dir", str(tmp_path), "--model", "scaling", "--theta", "1.5",
            "--route", "closed", "--h", "0.1", "--n-points", "16",
        )
        assert code == 3
        assert "capability matrix" in err and "volterra" in err

    @pytest.mark.parametrize(
        "model,route",
        [("white", "volterra"), ("scaling", "laplace"), ("fractional", "laplace")],
    )
    def test_unsupported_combinations(self, tmp_path, model, route):
        extra = ["--theta", "1.0"] if model in ("scaling", "fractional") else []
        code, _, _ = run_cli(
            "acf", "--out-dir", str(tmp_path), "--model", model, *extra,
            "--route", route, "--h", "0.1", "--n-points", "16",
        )
        assert code == 3

    @pytest.mark.parametrize("model", ["scaling", "fractional"])
    def test_real_axis_refusal_names_what_serves_the_model(self, tmp_path, model):
        # no ACF route serves these models, volterra included: the refusal
        # names the real-axis audit, which does
        argv = ["acf", "--out-dir", str(tmp_path), "--model", model, "--theta", "1.5",
                "--h", "0.1", "--n-points", "16"]
        code, _, err = run_cli(*argv, "--route", "laplace")
        message = err.split("\n\n")[0]
        assert code == 3 and "real-axis audit" in message and "volterra" not in message
        assert run_cli(*argv, "--route", "volterra")[0] == 3

    def test_help_lists_capability_matrix(self):
        for command in ("acf", "simulate", "audit"):
            out = io.StringIO()
            with redirect_stdout(out), pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            help_text = out.getvalue()
            assert "capability matrix" in help_text
            for name in [v.value for v in Variant] + list(ROUTES):
                assert name in help_text, (command, name)

    # exit codes of acf closed, laplace, volterra, simulate and
    # audit --n-complex 2; a 2 under simulate is argparse refusing a model
    # that simulate does not offer
    @pytest.mark.parametrize("variant,extra,codes", [
        pytest.param(variant, extra, codes, id=f"{variant}{tag}")
        for variant, extra, codes, tag in [
            (Variant.WHITE_NOISE, [], (0, 0, 3, 0, 0), ""),
            (Variant.LINEAR_SELF_SIMILAR, [], (0, 0, 0, 0, 0), ""),
            (Variant.STOCK_THETA, [], (0, 0, 0, 0, 0), ""),
            (Variant.STOCK_THETA, ["--theta", "0"], (0, 0, 3, 0, 0), "-theta0"),
            (Variant.STOCK_THETA, ["--theta", "3"], (0, 0, 0, 0, 0), "-theta3"),
            (Variant.SCALING, ["--theta", "1.5"], (3, 3, 3, 2, 3), ""),
            (Variant.FRACTIONAL, ["--theta", "1.5"], (3, 3, 3, 2, 3), ""),
            (Variant.BOLTZMANN, [], (3, 0, 0, 2, 0), ""),
            (Variant.DIFFERENTIAL, [], (3, 0, 0, 2, 0), ""),
        ]
    ])
    def test_catalog_notes_match_behaviour(self, tmp_path, variant, extra, codes):
        # every route note the catalog marks "no" exits 3, and so does the
        # volterra route of a memoryless model; every other one succeeds
        # (stock at the default theta = 1 unless given); each refusal's
        # first paragraph names the model, the route and the row's note
        row, model = CATALOG[variant], variant.value
        memoryless = model == "white" or extra == ["--theta", "0"]
        for route, want in zip(("closed", "laplace", "volterra"), codes):
            code, _, err = run_cli(
                "acf", "--out-dir", str(tmp_path), "--model", model, *extra,
                "--route", route, "--h", "0.1", "--n-points", "16",
            )
            assert code == want, route
            refused = not row.supports(route) or (route == "volterra" and memoryless)
            assert code == (3 if refused else 0), route
            if refused:
                message = err.split("\n\n")[0]
                assert model in message and route in message, message
                assert getattr(row, route) in message, message
        code, _, err = run_cli("audit", "--model", model, *extra, "--n-real", "4",
                               "--n-complex", "2", "--seed", "1")
        assert code == codes[4]
        assert code == (0 if row.complex_p else 3)
        if code == 3:
            message = err.split("\n\n")[0]
            assert model in message and row.audit in message, message
        argv = ["simulate", "--out-dir", str(tmp_path), "--model", model, *extra,
                "--n-paths", "1", "--n-steps", "64", "--h", "0.125", "--seed", "1"]
        if row.supports("simulate"):
            assert codes[3] == 0
            assert run_cli(*argv)[0] == 0
        else:  # not among the simulate choices
            with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == codes[3] == 2


# -- simulate ----------------------------------------------------------------------


class TestSimulate:
    def test_gbm_zero_volatility_is_exact_exponential(self, tmp_path):
        code, out, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "gbm",
            "--sigma", "0", "--mu", "0.05", "--M0", "100",
            "--n-paths", "1", "--n-steps", "16", "--h", "0.25", "--seed", "1",
        )
        assert code == 0 and "variance = 0.0" in out
        header, data = read_csv(tmp_path / "simulate_paths.csv")
        assert header == ["t", "price"]
        assert np.array_equal(data[:, 1], 100.0 * np.exp(0.05 * data[:, 0]))
        # deterministic run: summary carries the header only
        with open(tmp_path / "simulate_summary.csv") as fh:
            assert fh.read() == "lag,acf_mean,acf_se\n"

    @pytest.mark.parametrize("argv,n_paths,n_steps", [
        (["--model", "selfsim", "--emit-prices"], 600, 1024),
        (["--model", "white"], 400, 1024),
        (["--model", "stock", "--theta", "1"], 300, 512),
    ])
    def test_peak_memory_stays_within_the_size_bound(self, tmp_path, argv, n_paths, n_steps):
        # _simulate_size's bound: eight float64 arrays per path and two
        # shared, over the grid (these lengths are their own circulant grid)
        assert cli._circulant_length(n_steps) == n_steps
        bound = 64 * (n_paths + 2) * n_steps
        tracemalloc.start()
        try:
            code, _, _ = run_cli("simulate", "--out-dir", str(tmp_path), "--h", "0.125",
                                 "--seed", "3", "--n-paths", str(n_paths),
                                 "--n-steps", str(n_steps), *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= bound

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--out-dir", str(tmp_path), "--model", "stock",
                "--theta", "2.5", "--n-paths", "3", "--n-steps", "128",
                "--h", "0.125", "--seed", "7"]
        assert run_cli(*args)[0] == 0
        first = (tmp_path / "simulate_paths.csv").read_bytes()
        assert run_cli(*args)[0] == 0
        assert (tmp_path / "simulate_paths.csv").read_bytes() == first

    def test_summary_and_seed_lineage(self, tmp_path):
        code, out, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "white",
            "--tau-R", "0.5", "--n-paths", "4", "--n-steps", "512",
            "--h", "0.05", "--seed", "11",
        )
        assert code == 0
        assert "master_seed = 11" in out and cli._LANE_LEGEND in out.splitlines()
        header, data = read_csv(tmp_path / "simulate_summary.csv")
        assert header == ["lag", "acf_mean", "acf_se"]
        assert data[0, 1] == 1.0 and data.shape[0] >= 64

    def test_emit_prices_single_path_feeds_estimate(self, tmp_path):
        code, _, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "white",
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "3",
            "--emit-prices",
        )
        assert code == 0
        header, data = read_csv(tmp_path / "simulate_prices.csv")
        assert header == ["t", "price"]
        assert data.shape == (65, 2) and data[0, 1] == 1.0

    def test_emit_prices_leaves_the_paths_csv_as_it_is(self, tmp_path):
        # the two files share one formatting of the time column: the paths
        # CSV keeps its bytes whether or not prices are emitted, and the
        # prices' times are the grid's n + 1 points
        argv = ["simulate", "--model", "stock", "--theta", "1.5", "--n-paths", "2",
                "--n-steps", "300", "--h", "0.1", "--seed", "5"]
        assert run_cli(*argv, "--out-dir", str(tmp_path / "alone"))[0] == 0
        assert run_cli(*argv, "--emit-prices", "--out-dir", str(tmp_path / "both"))[0] == 0
        paths = (tmp_path / "both" / "simulate_paths.csv").read_bytes()
        assert paths == (tmp_path / "alone" / "simulate_paths.csv").read_bytes()
        with open(tmp_path / "both" / "simulate_prices.csv", newline="", encoding="utf-8") as fh:
            times = [row[0] for row in csv.reader(fh)][1:]
        assert times == [repr(t) for t in (0.1 * np.arange(301)).tolist()]

    def test_market_models_refuse_stock_flags_in_every_subcommand(self, tmp_path):
        tails = {
            "acf": ["--route", "closed", "--h", "0.1"],
            "audit": ["--n-real", "4", "--out", "audit.csv"],
            "simulate": ["--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "1"],
        }
        for command, tail in tails.items():
            code, _, err = run_cli(
                command, "--out-dir", str(tmp_path), "--model", "white",
                "--theta", "2", "--tau-r", "5", *tail,
            )
            assert code == 2 and (f"{command} reads --theta only with a stock-family --model, "
                                  "without --tau-R") in err
        assert not (tmp_path / "simulate_paths.csv").exists()

    @pytest.mark.parametrize("flag", ["--theta", "--tau-r", "--tau-R", "--variance"])
    def test_gbm_refuses_model_flags(self, tmp_path, flag):
        # gbm prices read mu, sigma and M0 alone: a return variance changes nothing
        readers = {"--theta": "a stock-family --model, without --tau-R",
                   "--tau-r": "a stock-family --model",
                   "--tau-R": "a market-family --model, or a stock-family one without --theta",
                   "--variance": "a return-rate --model, not gbm"}[flag]
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "gbm", flag, "2",
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "1",
        )
        assert code == 2 and f"simulate reads {flag} only with {readers}" in err
        assert list(tmp_path.iterdir()) == []

    def test_seed_required(self, tmp_path):
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "white",
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1",
        )
        assert code == 2 and "--seed" in err

    @pytest.mark.parametrize("model", ["gbm", "white", "stock"])
    @pytest.mark.parametrize("n_steps", ["2", "3"])
    def test_too_few_steps_refused_before_writing(self, tmp_path, model, n_steps):
        # the summary ACF needs 4 samples; nothing may be written first
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", model,
            "--n-paths", "1", "--n-steps", n_steps, "--h", "0.1", "--seed", "1",
        )
        assert code == 2 and "--n-steps must be >= 4" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--mu", "nan", "mu must be finite"),
        ("--M0", "-1", "M0 must be positive"),
    ])
    def test_bad_price_flags_refused_before_writing(self, tmp_path, flag, value, message):
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "stock", "--theta", "1",
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "1",
            "--emit-prices", flag, value,
        )
        assert code == 2 and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", ["gbm", "white", "stock"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--max-lag", "0", "--max-lag must be >= 1"),
        ("--max-lag", "-3", "--max-lag must be >= 1"),
    ])
    def test_window_flags_checked_for_every_model(self, tmp_path, model, flag, value, message):
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", model,
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "1", flag, value,
        )
        assert code == 2 and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["--model", "gbm", "--emit-prices"],
         "simulate reads --emit-prices only with a return-rate --model, not gbm"),
    ], ids=["gbm-emit-prices"])
    def test_flags_that_change_nothing_refused_before_writing(self, tmp_path, argv, message):
        # gbm always writes prices
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), *argv,
            "--n-paths", "1", "--n-steps", "8", "--h", "0.1", "--seed", "1",
        )
        assert code == 2 and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--model", "gbm", "--burn-in", "5"],
        ["--model", "white", "--burn-in", "5"],
        ["--model", "stock", "--theta", "0", "--burn-in", "0"],
        ["--model", "stock", "--theta", "1", "--burn-in", "64"],
    ], ids=["gbm", "white", "stock0", "stock1"])
    def test_removed_burn_in_flag_refused_before_writing(self, tmp_path, capsys, argv):
        # every model is sampled stationary from its first step: there is no burn-in
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out-dir", str(tmp_path), *argv,
                  "--n-paths", "1", "--n-steps", "8", "--h", "0.1", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --burn-in" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--model", "stock", "--theta", "1", "--emit-prices", "--mu", "1e300"],
        ["--model", "stock", "--theta", "1", "--emit-prices", "--mu=-1e300"],
        ["--model", "gbm", "--mu", "1e300"],
    ], ids=["stock-inf", "stock-zero", "gbm-inf"])
    def test_prices_out_of_float_range_exit_2_before_writing(self, tmp_path, argv):
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), *argv,
            "--n-paths", "1", "--n-steps", "64", "--h", "1", "--seed", "1",
        )
        assert code == 2 and "non-finite price at path 0, sample 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_oversized_fold_exits_2_before_writing(self, tmp_path):
        # theta = 1e-5 folds a band of 2e5 onto [0, 8 pi]: 7.96e6 band cells
        start = time.perf_counter()
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "stock", "--theta", "1e-5",
            "--n-paths", "1", "--n-steps", "1000", "--h", "0.125", "--seed", "1",
        )
        assert code == 2
        assert "folded spectrum too costly" in err and "7.96e+06 band cells" in err
        assert time.perf_counter() - start < 5.0
        assert list(tmp_path.iterdir()) == []

    def test_four_step_selfsim_at_small_h_runs(self, tmp_path):
        # the band then fell inside one cell's 16 midpoints as a single point
        code, out, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "selfsim", "--h", "0.01",
            "--n-steps", "4", "--n-paths", "1", "--seed", "1",
        )
        assert code == 0 and "(return rates, 1 paths x 4 samples)" in out

    def test_config_supplies_seed_and_presets(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 42\nmodel.tau_R = 0.5\nout_dir = %s\n" % tmp_path)
        code, out, _ = run_cli(
            "simulate", "--config", str(cfg), "--model", "white",
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1",
        )
        assert code == 0 and "master_seed = 42" in out

    @pytest.mark.parametrize(
        "model,sizes",
        [
            ("stock", ["--n-paths", "1", "--n-steps", str(10**13)]),
            ("selfsim", ["--n-paths", str(10**12), "--n-steps", "64"]),
            ("white", ["--n-paths", "1000", "--n-steps", str(10**12)]),
            ("gbm", ["--n-paths", str(10**9), "--n-steps", "10000"]),
        ],
    )
    def test_oversized_request_refused_before_allocating(self, tmp_path, monkeypatch, model, sizes):
        def untouchable(*args, **kwargs):
            raise AssertionError("the size guard must fire before any sampler runs")

        for name in ("simulate_stationary_ensemble", "generate_wiener_increments"):
            monkeypatch.setattr(cli, name, untouchable)
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", model,
            "--h", "0.125", "--seed", "1", *sizes,
        )
        assert code == 2
        assert "request too large" in err and "bytes" in err
        assert not (tmp_path / "simulate_paths.csv").exists()

    def test_memory_error_maps_to_exit_2_with_estimate(self, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "simulate_stationary_ensemble", exhausted)
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "stock",
            "--n-paths", "3", "--n-steps", "1000", "--h", "0.125", "--seed", "1",
        )
        # 1000 steps run on a 1000-step grid (even, 5-smooth), with no burn-in
        assert code == 2
        assert "out of memory: 3 paths x 1000 steps need about 3.2e+05 bytes" in err


# -- estimate ----------------------------------------------------------------------


def write_prices(path, prices, times=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if times is None:
            writer.writerow(["price"])
            writer.writerows([[p] for p in prices])
        else:
            writer.writerow(["t", "price"])
            writer.writerows(zip(times, prices))


def read_outcome(path, fast=True):
    """What ``_read_price_csv`` makes of a file: the arrays' bytes, or the
    error's type, message and line; ``fast=False`` takes the csv.reader
    loop alone."""
    split = cli._split_price_csv if fast else lambda text: None
    with mock.patch.object(cli, "_split_price_csv", split):
        try:
            t, prices = cli._read_price_csv(path)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "line", None)
    return None if t is None else t.tobytes(), prices.tobytes()


# the first FLOAT_CELLS cells are floats to float(), a non-ASCII digit and a
# no-break space among them
PRICE_CELLS = ["0.0", "1.5", "-2", " 3.25 ", "1e-3", "inf", "nan", "1_0", "\u0661", "\xa01",
               "", "oops", '"4.5"', "0.125", "1.0#x", "\x1f1"]
FLOAT_CELLS = 10


@st.composite
def price_csv_texts(draw):
    """Price files near the split parse's edge: one cell too many or few, a
    bad cell, a blank or whitespace-only line, a quote, a comment mark, a
    carriage return, a BOM or a missing header, a body of newlines only."""
    if draw(st.booleans()):
        # the layout `simulate` writes, give or take one cell or line
        header = draw(st.sampled_from(["t,price", " t , price", "price", "\ufefft,price"]))
        width = header.count(",") + 1
        cell = st.sampled_from(PRICE_CELLS[:FLOAT_CELLS])
        line = st.lists(cell, min_size=width, max_size=width).map(",".join)
        body = draw(st.lists(line, min_size=2, max_size=8))
        if draw(st.booleans()):
            spoilers = PRICE_CELLS[FLOAT_CELLS:] + ["1,2,3", "", " \t", "0.5\r,1.5", '"0.5,1.5"',
                                                    "1\0"]
            for spoiler in draw(st.lists(st.sampled_from(spoilers), min_size=1, max_size=2)):
                body.insert(draw(st.integers(0, len(body))), spoiler)
        elif draw(st.integers(0, 7)) == 0:
            body = [""] * len(body)
        end = "\n"
    else:
        header = draw(st.sampled_from(["t,price", "price", "value", '"t","price"', ""]))
        cells = st.lists(st.sampled_from(PRICE_CELLS), min_size=0, max_size=3).map(",".join)
        body = draw(st.lists(cells, max_size=8))
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([header, *body]) + draw(st.sampled_from(["", end]))


# the reader's own edges, in every run: a comment mark, a whitespace-only
# line, blank lines in the middle and at the end, a BOM, a non-ASCII digit,
# a body of newlines only, and separators np.loadtxt strips but float() refuses
@pytest.mark.filterwarnings("error")
@given(text=price_csv_texts())
@example(text="price\n1.0#x\n2\n3\n")
@example(text="price\n1\n \t\n2\n3\n")
@example(text="price\n1\n\n2\n3\n")
@example(text="price\n1\n2\n3\n\n")
@example(text="\ufeffprice\n1\n2\n3\n")
@example(text="price\n\u0661\n2\n3\n")
@example(text="price\n\n\n\n")
@example(text="price\n\x1f1\n2\n3\n")
@example(text="t,price\n0,1\n1,2\n2,3\x1c\n")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_parse_agrees_with_the_csv_loop(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_outcome(path) == read_outcome(path, fast=False)


@pytest.mark.filterwarnings("error")
def test_simulated_prices_take_the_split_parse(tmp_path):
    assert run_cli("simulate", "--out-dir", str(tmp_path), "--model", "stock", "--theta", "1",
                   "--n-paths", "1", "--n-steps", "600", "--h", "0.125", "--seed", "3",
                   "--emit-prices")[0] == 0
    path = tmp_path / "simulate_prices.csv"
    t, prices = cli._split_price_csv(path.read_text(encoding="utf-8"))
    assert t.size == prices.size == 601 and t[1] == 0.125
    assert read_outcome(path) == read_outcome(path, fast=False)


class TestEstimate:
    def test_boundary_class_round_trip(self, tmp_path):
        # synthesized theta=2 prices: fitted theta within +-0.3 and the
        # class label on either side of the light/ultra-light boundary
        code, _, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "stock",
            "--theta", "2", "--tau-r", "1.0", "--n-paths", "1",
            "--n-steps", "32768", "--h", "0.125", "--seed", "21",
            "--emit-prices", "--out", "s",
        )
        assert code == 0
        code, out, _ = run_cli(
            "estimate", "--input", str(tmp_path / "s_prices.csv"),
            "--lag-window", "40",
        )
        assert code == 0
        report = dict(line.split(" = ") for line in out.strip().splitlines() if " = " in line)
        assert abs(float(report["theta"]) - 2.0) <= 0.3
        assert report["stock_class"] in ("light", "ultra-light")

    def test_white_prices_classified_heavy(self, tmp_path):
        code, _, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "white",
            "--tau-R", "0.5", "--n-paths", "1", "--n-steps", "16000",
            "--h", "0.05", "--seed", "11", "--emit-prices", "--out", "w",
        )
        assert code == 0
        code, out, _ = run_cli("estimate", "--input", str(tmp_path / "w_prices.csv"))
        assert code == 0
        report = dict(line.split(" = ") for line in out.strip().splitlines() if " = " in line)
        assert float(report["theta"]) <= 0.3
        assert report["stock_class"] == "heavy"
        assert abs(float(report["tau_r"]) - 0.5) <= 0.1

    def test_header_without_time_column_needs_h(self, tmp_path):
        f = tmp_path / "p.csv"
        write_prices(f, 1.0 + 0.01 * np.random.default_rng(0).standard_normal(100))
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "--h" in err
        code, _, _ = run_cli("estimate", "--input", str(f), "--h", "0.1")
        assert code == 0

    def test_infinite_price_refused_without_warnings(self, tmp_path):
        f = tmp_path / "p.csv"
        prices = 1.0 + 0.01 * np.random.default_rng(0).standard_normal(100)
        f.write_text("t,price\n" + "".join(
            f"{0.1 * i!r},{'inf' if i == 40 else repr(float(x))}\n" for i, x in enumerate(prices)
        ))
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "non-finite price at path 0, sample 40" in err

    def test_malformed_inputs_report_line_numbers(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,price\n0.0,1.0\n0.1,oops\n")
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "line 3" in err
        f.write_text("value\n1.0\n")
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "line 1" in err
        f.write_text("t,price\n0.0,1.0\n0.1\n")
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "line 3" in err and "columns" in err

    def test_non_utf8_input_is_a_parse_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"t,price\n0.0,1.0\n0.1,\xff2\n")
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "line 3" in err and "not UTF-8" in err

    def test_non_utf8_config_is_a_parse_error(self, tmp_path):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"seed = 1\r\n# caf\xe9\r\n")
        prices = tmp_path / "p.csv"
        write_prices(prices, np.linspace(1, 2, 50), times=0.1 * np.arange(50))
        code, _, err = run_cli("estimate", "--config", str(config), "--input", str(prices))
        assert code == 2 and "line 2" in err and "not UTF-8" in err

    def test_constant_prices_are_degenerate(self, tmp_path):
        f = tmp_path / "const.csv"
        write_prices(f, np.full(200, 42.0), times=0.1 * np.arange(200))
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2 and "zero variance" in err

    def test_deterministic_exponential_prices_flag_zero_variance(self, tmp_path):
        t = 0.1 * np.arange(400)
        f = tmp_path / "exp.csv"
        write_prices(f, 100.0 * np.exp(0.03 * t), times=t)
        code, _, err = run_cli("estimate", "--input", str(f), "--detrend", "sample-mean")
        assert code == 2 and "zero variance" in err

    def test_detrend_none_turns_drift_into_window_warning(self, tmp_path):
        # a pure drift left in the returns gives the biased-estimator ramp
        # acf 1 - k/N: fits as extreme persistence, flagged by window_ok
        t = 0.1 * np.arange(400)
        f = tmp_path / "exp.csv"
        write_prices(f, 100.0 * np.exp(0.03 * t), times=t)
        code, out, err = run_cli("estimate", "--input", str(f), "--detrend", "none")
        assert code == 0
        assert "window_ok = false" in out
        assert "lag window shorter" in err
        report = dict(line.split(" = ") for line in out.strip().splitlines() if " = " in line)
        assert float(report["tau_r"]) > 0.1 * 400 / 3  # persistence beyond the window

    def test_max_lag_below_the_fit_minimum_names_the_flag(self, tmp_path):
        f = tmp_path / "p.csv"
        write_prices(f, 1.0 + 0.01 * np.random.default_rng(0).standard_normal(400),
                     times=0.1 * np.arange(400))
        code, out, err = run_cli("estimate", "--input", str(f), "--max-lag", "5")
        assert (code, out) == (2, "") and "--max-lag must be >= 8" in err
        # a series with fewer than 8 usable lags is still too short, whatever the cap
        write_prices(f, 1.0 + 0.01 * np.random.default_rng(0).standard_normal(20),
                     times=0.1 * np.arange(20))
        code, out, err = run_cli("estimate", "--input", str(f), "--max-lag", "8")
        assert (code, out) == (2, "") and "series too short" in err

    def test_nonuniform_times_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        write_prices(f, np.linspace(1, 2, 50), times=np.linspace(0, 1, 50) ** 2)
        code, _, err = run_cli("estimate", "--input", str(f))
        assert code == 2

    def test_report_csv_output(self, tmp_path):
        code, _, _ = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "white",
            "--n-paths", "1", "--n-steps", "2048", "--h", "0.1", "--seed", "2",
            "--emit-prices", "--out", "r",
        )
        assert code == 0
        code, _, _ = run_cli(
            "estimate", "--input", str(tmp_path / "r_prices.csv"),
            "--out-dir", str(tmp_path), "--out", "report.csv",
        )
        assert code == 0
        header, rows = read_csv_status(tmp_path / "report.csv")
        assert header[:4] == ["tau_r", "theta", "variance", "residual"]
        assert header[4:] == ["stock_class", "lags_used", "degenerate", "window_ok"]
        assert len(rows) == 1 and rows[0][4] == "heavy"

    @pytest.mark.parametrize("n_steps", [1200, 4096])  # n // 4 below and above --max-lag 400
    @pytest.mark.parametrize("detrend", ["sample-mean", "none"])
    @pytest.mark.parametrize("lag_window", [None, 20.0])
    def test_prints_the_report_of_fit_prices(self, tmp_path, n_steps, detrend, lag_window):
        h = 0.125
        model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0)
        returns = simulate_stationary_ensemble(model, h, n_steps, 1, seed=4)
        prices = price_from_returns(returns, mu=0.03, M0=100.0)
        write_prices(tmp_path / "p.csv", prices.paths[0], times=h * np.arange(prices.n_steps))
        argv = ["--detrend", detrend] + ([] if lag_window is None else ["--lag-window", repr(lag_window)])
        code, out, _ = run_cli("estimate", "--input", str(tmp_path / "p.csv"), *argv)
        report, _ = fit_prices(prices, lag_window=lag_window, detrend=detrend)
        assert code == 0
        assert out.splitlines() == [
            f"tau_r = {report.tau_r!r}",
            f"theta = {report.theta!r}",
            f"variance = {report.variance!r}",
            f"residual = {report.residual!r}",
            f"stock_class = {report.stock_class.value}",
            f"lags_used = {report.lags_used}",
            f"degenerate = {str(report.degenerate).lower()}",
            f"window_ok = {str(report.window_ok).lower()}",
        ]


# -- audit -------------------------------------------------------------------------


AUDIT_MODELS = [
    (model, ["--theta", theta])
    for model in ("stock", "scaling", "fractional")
    for theta in ("0.5", "1.5", "3")
] + [(model, []) for model in ("white", "selfsim", "boltzmann", "differential")]


def audit_args(*argv):
    """The audit arguments as ``main`` resolves them, without a config."""
    args = cli._build_parser().parse_args(["audit", *argv])
    cli._resolve_flags(args)
    return args


def per_point_audit_rows(model, args, tolerance):
    """Reference audit table: one identity_residual call per p, residuals
    kept as floats (nan where the point raised a solver or accuracy error)."""
    scale = 1.0 / model.corr_time
    p_real = list(scale * np.logspace(-2.0, 2.0, args.n_real))
    points = list(p_real)
    if args.n_complex > 0:
        rng = np.random.default_rng(args.seed)
        magnitude = scale * 10.0 ** rng.uniform(-2.0, 2.0, size=(args.n_complex, 2))
        signs = rng.choice([-1.0, 1.0], size=args.n_complex)
        points += [complex(re, sign * im) for (re, im), sign in zip(magnitude, signs)]
    rows = []
    for p in points:
        try:
            residual = float(identity_residual(model, p))
            status = "ok" if residual <= tolerance else "FAIL"
        except AccuracyError:
            residual, status = float("nan"), "no-converge"
        rows.append(["closure", repr(float(np.real(p))), repr(float(np.imag(p))), residual, status])
    if model.variant is Variant.DIFFERENTIAL:
        step = args.fd_step
        fd_tol = max(tolerance, 10.0 * step**2)
        for p in p_real:
            u = model.tau_R * p
            du = step * max(u, 1.0)
            slope = (force_shape(model, (u + du) / model.tau_R)
                     - force_shape(model, (u - du) / model.tau_R)) / (2.0 * du)
            residual = abs(slope - observable_shape(model, p))
            rows.append(["derivative", repr(float(p)), "0.0", residual,
                         "ok" if residual <= fd_tol else "FAIL"])
    return rows


class TestAudit:
    def test_self_similar_passes_everywhere(self, tmp_path):
        code, out, _ = run_cli(
            "audit", "--model", "selfsim", "--n-real", "50",
            "--n-complex", "25", "--seed", "2", "--out-dir", str(tmp_path),
            "--out", "audit.csv",
        )
        assert code == 0 and "failures = 0" in out
        header, _ = read_csv_status(tmp_path / "audit.csv")
        assert header == ["check", "p_real", "p_imag", "residual", "status"]

    def test_seeded_complex_grid_is_deterministic(self):
        a = run_cli("audit", "--model", "stock", "--theta", "1.5",
                    "--n-real", "10", "--n-complex", "10", "--seed", "4")
        b = run_cli("audit", "--model", "stock", "--theta", "1.5",
                    "--n-real", "10", "--n-complex", "10", "--seed", "4")
        assert a == b and a[0] == 0

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_refused_like_simulate(self, tmp_path, seed):
        # one seed rule for every command: exit 2, never a traceback
        code, _, err = run_cli("audit", "--model", "stock", "--theta", "1.5",
                               "--n-real", "5", "--n-complex", "3", "--seed", seed)
        assert code == 2 and "seed" in err
        code, _, err = run_cli(
            "simulate", "--out-dir", str(tmp_path), "--model", "white",
            "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", seed,
        )
        assert code == 2 and "seed" in err

    def test_seed_without_complex_points_is_refused(self, tmp_path):
        # the real grid draws nothing, so an explicit --seed would change nothing
        argv = ["audit", "--model", "selfsim", "--n-real", "4"]
        code, out, err = run_cli(*argv, "--seed", "5")
        assert code == 2 and out == "" and "audit reads --seed only with --n-complex above 0" in err
        # one config serves every command: its seed stays accepted
        config = tmp_path / "seeded.cfg"
        config.write_text("seed = 5\n", encoding="utf-8")
        assert run_cli(*argv, "--config", str(config)) == run_cli(*argv)

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_is_bad_input_from_flag_or_config(self, tmp_path, value):
        # exit 2 before any row is computed, never 4 (failed rows) or 0
        argv = ["audit", "--model", "selfsim", "--n-real", "4"]
        config = tmp_path / "tolerance.cfg"
        config.write_text(f"tolerance = {value}\n", encoding="utf-8")
        expected = (2, "", "error: tolerance must be positive and finite\n")
        assert run_cli(*argv, "--tolerance", value) == expected
        assert run_cli(*argv, "--config", str(config)) == expected

    @pytest.mark.parametrize("model", ["boltzmann", "differential"])
    def test_lambert_models_pass_on_the_complex_grid(self, model):
        # closure rows at 1e-10 on 200 seeded right-half-plane points;
        # differential's derivative rows keep their own fd-step threshold
        code, out, _ = run_cli("audit", "--model", model, "--tau-R", "2.5", "--n-real", "40",
                               "--n-complex", "200", "--seed", "9")
        assert code == 0 and "failures = 0" in out and "tolerance = 1e-10" in out
        rows = [line.split(",") for line in out.splitlines() if line.startswith("closure,")]
        assert sum(float(row[2]) != 0.0 for row in rows) == 200

    def test_real_axis_only_models_refuse_complex_grid(self):
        for model in ("scaling", "fractional"):
            code, _, err = run_cli("audit", "--model", model, "--theta", "1.5",
                                   "--n-complex", "5", "--seed", "1")
            assert code == 3 and "real axis" in err
            code, _, _ = run_cli("audit", "--model", model, "--theta", "1.5", "--n-real", "20")
            assert code == 0

    def test_differential_emits_derivative_rows(self):
        code, out, _ = run_cli("audit", "--model", "differential", "--n-real", "12")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("derivative,")]
        assert len(rows) == 12
        assert all(row.endswith(",ok") for row in rows)

    def test_functional_models_audit_on_real_axis(self):
        for model in ("scaling", "fractional"):
            code, out, _ = run_cli("audit", "--model", model, "--theta", "1.3",
                                   "--n-real", "12")
            assert code == 0 and "failures = 0" in out

    def test_unachievable_tolerance_exits_nonzero(self):
        code, _, err = run_cli("audit", "--model", "selfsim", "--n-real", "5",
                               "--tolerance", "1e-18")
        assert code == 4 and "exceed" in err

    @pytest.mark.parametrize("model,flags", AUDIT_MODELS)
    def test_batched_rows_match_per_point_reference(self, model, flags):
        argv = ["--model", model, *flags, "--n-real", "40"]
        if CATALOG[Variant(model)].complex_p:
            argv += ["--n-complex", "25", "--seed", "9"]
        args = audit_args(*argv)
        built = cli._build_model(args)
        lines, failures, worst = cli._audit_rows(built, args, 1e-10)
        rows = [line.split(",") for line in lines]
        reference = per_point_audit_rows(built, args, 1e-10)
        assert len(rows) == len(reference)
        assert failures == sum(r[4] != "ok" for r in reference) == 0
        assert worst == max(float(row[3]) for row in rows)
        for row, expected in zip(rows, reference):
            assert row[:3] + row[4:] == expected[:3] + expected[4:]
            # derivative rows are central-difference cancellations near 6e-11
            bound = 1e-11 if row[0] == "derivative" else 1e-15
            assert abs(float(row[3]) - expected[3]) <= bound, row

    def test_solver_failure_marks_only_its_rows(self, monkeypatch):
        argv = ["audit", "--model", "stock", "--theta", "1.5", "--n-real", "12",
                "--n-complex", "6", "--seed", "3"]
        code, clean, _ = run_cli(*argv)
        assert code == 0
        rows = [line.split(",") for line in clean.splitlines() if line.startswith("closure,")]
        marked = [complex(float(rows[i][1]), float(rows[i][2])) for i in (2, 7, 15)]
        patched_solvable(monkeypatch, marked)
        code, out, err = run_cli(*argv)
        assert code == 4 and "3 audit rows exceed tolerance" in err
        assert "failures = 3" in out
        broken = [line.split(",") for line in out.splitlines() if line.startswith("closure,")]
        assert len(broken) == len(rows)
        for i, (row, clean_row) in enumerate(zip(broken, rows)):
            if i in (2, 7, 15):
                assert row[:3] == clean_row[:3] and row[3:] == ["nan", "no-converge"]
            else:  # the rest of each grid is one call: the clean run's cells
                assert row == clean_row

    def test_unreachable_scaling_points_cost_no_solve(self, monkeypatch):
        # 10 of these 20 points have chains deeper than the solver's bound
        seen = []
        original = cli.identity_residual

        def counted(model, p):
            seen.append(np.size(p))
            return original(model, p)

        monkeypatch.setattr(cli, "identity_residual", counted)
        code, out, err = run_cli("audit", "--model", "scaling", "--theta", "1.00015",
                                 "--n-real", "20")
        assert code == 4 and "10 audit rows exceed tolerance" in err
        assert seen == [10]
        rows = [line.split(",") for line in out.splitlines() if line.startswith("closure,")]
        assert [row[4] for row in rows] == ["no-converge"] * 10 + ["ok"] * 10
        assert [row[3] for row in rows] == ["nan"] * 10 + ["0.0"] * 5 + [
            "1.1102230246251565e-16", "0.0", "0.0", "0.0", "1.1102230246251565e-16"]
        assert [float(row[1]) for row in rows] == np.logspace(-2.0, 2.0, 20).tolist()
        assert out.endswith("checked 20 points, worst residual = 1.1102230246251565e-16, "
                            "tolerance = 1e-10, failures = 10\n")

    def test_complex_grid_is_refused_with_no_solvable_real_point(self, monkeypatch):
        monkeypatch.setattr(models, "_CHAIN_MAX_DEPTH", 1)
        code, _, err = run_cli("audit", "--model", "scaling", "--n-complex", "2", "--seed", "1")
        assert code == 3 and "real axis only" in err

    def test_solver_error_on_a_grid_exits_4_and_writes_nothing(self, monkeypatch, tmp_path):
        patched_residual(monkeypatch, raise_at=grid_points(12, (3,)))
        code, out, err = run_cli("audit", "--model", "stock", "--theta", "1.5", "--n-real", "12",
                                 "--out-dir", str(tmp_path), "--out", "audit.csv")
        assert code == 4 and "marked point (achieved inf)" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,calls", [
        (["--model", "stock", "--theta", "1.5", "--n-complex", "30", "--seed", "2"], 2),
        (["--model", "scaling", "--theta", "1.5"], 1),
        (["--model", "differential"], 1),
    ])
    def test_each_grid_is_one_identity_residual_call(self, monkeypatch, argv, calls):
        seen = []
        original = cli.identity_residual

        def counted(model, p):
            seen.append(np.size(p))
            return original(model, p)

        monkeypatch.setattr(cli, "identity_residual", counted)
        code, _, _ = run_cli("audit", *argv, "--n-real", "50")
        assert code == 0 and len(seen) == calls

    def test_fd_step_bound_is_the_grid_edge(self):
        code, _, err = run_cli("audit", "--model", "differential", "--fd-step", "0.05")
        assert code == 2
        assert "--fd-step must be in (0, 0.01]" in err and "u - du" in err and ">= 0" in err
        assert "Re p" not in err
        code, out, _ = run_cli("audit", "--model", "differential", "--fd-step", "0.009",
                               "--n-real", "20")
        assert code == 0 and "failures = 0" in out
        # the largest step reaches u - du = 0, up to roundoff, at odd tau_R
        code, _, _ = run_cli("audit", "--model", "differential", "--tau-R", "3",
                             "--fd-step", "0.01", "--n-real", "20")
        assert code == 0

    @pytest.mark.parametrize("tau_R", ["1", "3", "0.7"])
    def test_default_step_derivative_rows_are_unchanged(self, tau_R):
        args = audit_args("--model", "differential", "--tau-R", tau_R, "--n-real", "60")
        model = cli._build_model(args)
        rows = [line.split(",") for line in cli._audit_rows(model, args, 1e-10)[0]]
        # reference: the plain central difference, without the clamp at p = 0
        p = (1.0 / model.corr_time) * np.logspace(-2.0, 2.0, 60)
        u = model.tau_R * p
        du = 1e-4 * np.maximum(u, 1.0)
        slope = (force_shape(model, (u + du) / model.tau_R)
                 - force_shape(model, (u - du) / model.tau_R)) / (2.0 * du)
        expected = [repr(float(r)) for r in np.abs(slope - observable_shape(model, p))]
        assert [row[3] for row in rows if row[0] == "derivative"] == expected


# the curves benchmark workload's audits (perfbench/workloads.py, Curves.audit_argv):
# every model on 300 real points, and 100 seeded complex points where the
# image is complex-capable
CURVES_AUDITS = [
    ["--model", model, "--n-real", "300", "--variance", "0.8",
     *(["--theta", "1.5"] if model in ("stock", "scaling", "fractional") else []),
     *(["--n-complex", "100", "--seed", "12"] if model in ("white", "selfsim", "stock") else [])]
    for model in ("white", "selfsim", "stock", "scaling", "fractional", "boltzmann", "differential")
]


@pytest.fixture
def audit_twice(tmp_path, monkeypatch):
    """``outcomes(argv)``: the exit code, stdout, stderr and ``--out`` bytes
    (None without ``--out``) of ``audit argv``, first through cmd_audit and
    then through the row-by-row oracle.  A run with --out writes into tmp_path."""

    def outcome(argv, command):
        path = tmp_path / "audit.csv"
        path.unlink(missing_ok=True)
        with monkeypatch.context() as m:
            if command is not None:
                m.setitem(cli._COMMANDS, "audit", (command, *cli._COMMANDS["audit"][1:]))
                m.setattr(cli, "_parser", cli._build_parser)
            out_dir = ["--out-dir", str(tmp_path)] if "--out" in argv else []
            code, out, err = run_cli("audit", *argv, *out_dir)
        return code, out, err, path.read_bytes() if path.exists() else None

    return lambda argv: (outcome(argv, None), outcome(argv, oracles.cmd_audit_rowwise))


def grid_points(n, picks):
    """The real audit grid of a model with corr_time 1 (n points), at ``picks``."""
    return np.logspace(-2.0, 2.0, n)[list(picks)]


def patched_solvable(monkeypatch, unsolvable):
    """Make cli._solvable leave out the points of ``unsolvable`` as well."""
    original = cli._solvable
    monkeypatch.setattr(cli, "_solvable",
                        lambda model, p: original(model, p) & ~np.isin(p, unsolvable))


def patched_residual(monkeypatch, raise_at=(), nan_at=()):
    """Make cli.identity_residual raise a SolverError for any call holding a
    point of ``raise_at``, and return nan at the points of ``nan_at``."""
    original = cli.identity_residual

    def residual(model, p):
        if np.isin(np.atleast_1d(p), raise_at).any():
            raise SolverError("marked point", residual=np.inf)
        r = np.where(np.isin(p, nan_at), np.nan, original(model, p))
        return r if np.ndim(p) else float(r)

    monkeypatch.setattr(cli, "identity_residual", residual)


@pytest.mark.parametrize("model,flags", AUDIT_MODELS)
def test_column_table_is_the_row_loop_byte_for_byte(audit_twice, model, flags):
    argv = ["--model", model, *flags, "--n-real", "40", "--out", "audit.csv"]
    if CATALOG[Variant(model)].complex_p:
        argv += ["--n-complex", "25", "--seed", "9"]
    new, old = audit_twice(argv)
    assert new == old and new[0] == 0 and new[3] is not None


@pytest.mark.parametrize("argv", CURVES_AUDITS, ids=lambda argv: argv[1])
def test_benchmark_audits_are_the_row_loop_byte_for_byte(audit_twice, argv):
    new, old = audit_twice(argv)
    assert new == old and new[0] == 0 and new[3] is None


@pytest.mark.parametrize("argv", [
    ["--model", "selfsim", "--n-real", "5", "--tolerance", "1e-18"],
    ["--model", "stock", "--theta", "1.5", "--n-real", "30", "--n-complex", "10", "--seed", "3",
     "--tolerance", "1e-16"],
    ["--model", "differential", "--n-real", "30", "--tolerance", "1e-17", "--fd-step", "1e-3"],
])
def test_failing_tolerance_is_the_row_loop_byte_for_byte(audit_twice, argv):
    new, old = audit_twice([*argv, "--out", "audit.csv"])
    assert new == old and new[0] == 4 and "FAIL" in new[1]


def test_unconverged_and_nan_rows_are_the_row_loop_byte_for_byte(audit_twice, monkeypatch):
    # points the mask leaves out are no-converge, and a nan the model returns is a FAIL
    patched_solvable(monkeypatch, grid_points(12, (2, 7)))
    patched_residual(monkeypatch, nan_at=grid_points(12, (4,)))
    new, old = audit_twice(["--model", "stock", "--theta", "1.5", "--n-real", "12",
                            "--n-complex", "4", "--seed", "3", "--out", "audit.csv"])
    assert new == old and new[0] == 4
    rows = [line.split(",") for line in new[1].splitlines() if line.startswith("closure,")]
    assert [row[3:] for row in rows if row[3] == "nan"] == [
        ["nan", "no-converge"], ["nan", "FAIL"], ["nan", "no-converge"]]
    assert "failures = 3" in new[1]


def test_nan_from_the_grid_call_is_a_fail_row(audit_twice, monkeypatch):
    patched_residual(monkeypatch, nan_at=grid_points(20, (0, 19)))
    new, old = audit_twice(["--model", "selfsim", "--n-real", "20", "--out", "audit.csv"])
    assert new == old and new[0] == 4
    assert new[1].count(",nan,FAIL\n") == 2 and "no-converge" not in new[1]


def test_nan_derivative_rows_fail(audit_twice, monkeypatch):
    original = cli.observable_shape
    monkeypatch.setattr(cli, "observable_shape", lambda model, p: np.where(
        np.isin(p, grid_points(10, (3,))), np.nan, original(model, p)))
    new, old = audit_twice(["--model", "differential", "--n-real", "10", "--out", "audit.csv"])
    assert new == old and new[0] == 4
    assert new[1].count("derivative,") == 10 and ",nan,FAIL\n" in new[1]


def test_all_no_converge_reports_worst_zero(audit_twice, monkeypatch):
    patched_solvable(monkeypatch, np.logspace(-2.0, 2.0, 6))
    new, old = audit_twice(["--model", "selfsim", "--n-real", "6", "--out", "audit.csv"])
    assert new == old and new[0] == 4
    assert new[1].count(",nan,no-converge\n") == 6
    assert "worst residual = 0.0," in new[1] and "failures = 6" in new[1]


# -- the flag table ----------------------------------------------------------------


MODELS = [v.value for v in Variant]

# each command's argv contexts, on tiny grids: every model and route, with and
# without --emit-prices and --n-complex, a gbm run at sigma 0, and estimate and
# audit without --out; contexts that fail without any swept flag changed (a
# capability gap, gbm --emit-prices) are skipped
SWEEP_CONTEXTS = {
    "fig1": [["--n-points", "8"]],
    "acf": [["--model", model, "--route", route, "--h", "0.5", "--n-points", "8"]
            for model in MODELS for route in ROUTES[:3]],
    "simulate": [["--model", model, "--n-paths", "1", "--n-steps", "64", "--h", "0.5",
                  "--seed", "1", *emit]
                 for model in ("gbm", "white", "selfsim", "stock")
                 for emit in ([], ["--emit-prices"])]
                + [["--model", "gbm", "--sigma", "0", "--n-paths", "1", "--n-steps", "64",
                    "--h", "0.5", "--seed", "1"]],  # deterministic: no summary ACF
    "estimate": [["--input", "{tmp}/prices_a.csv", *out] for out in (["--out", "report.csv"], [])],
    "audit": [["--model", model, "--n-real", "4", "--out", "audit.csv", *grid]
              for model in MODELS for grid in ([], ["--n-complex", "2", "--seed", "1"])]
             + [["--model", "stock", "--n-real", "4", "--n-complex", "2", "--seed", "1"],
                ["--model", "differential", "--n-real", "4"]],
}

# two values of each flag; a store_true flag's are absent and given
SWEEP_VALUES = {
    "--config": ("{tmp}/x.cfg", "{tmp}/y.cfg"),
    "--out-dir": ("{work}/x", "{work}/y"),
    "--input": ("{tmp}/prices_a.csv", "{tmp}/prices_b.csv"),
    "--model": ("selfsim", "white"),
    "--tau-R": ("0.5", "2"),
    "--tau-r": ("0.5", "2"),
    "--theta": ("0.5", "1.5"),
    "--variance": ("0.5", "2"),
    "--route": ("closed", "laplace"),
    "--seed": ("1", "2"),
    "--tolerance": ("1e-6", "1e-30"),
    "--mu": ("0.1", "0.2"),
    "--sigma": ("0.1", "0.2"),
    "--M0": ("1", "2"),
    "--max-lag-ratio": ("4", "8"),
    "--n-paths": ("1", "2"),
    "--n-steps": ("64", "32"),
    "--h": ("0.5", "0.25"),
    "--n-points": ("8", "9"),
    "--detrend": ("sample-mean", "none"),
    "--max-lag": ("8", "9"),
    "--lag-window": ("2", "4"),
    "--emit-prices": (None, ""),
    "--n-real": ("4", "5"),
    "--n-complex": ("0", "2"),
    "--fd-step": ("1e-4", "1e-3"),
    "--out": ("a.csv", "b.csv"),
}


def with_flag(argv, flag, value):
    """``argv`` without ``flag`` (and its value), then with ``flag value``;
    a value of None leaves the flag out, "" gives it bare."""
    out = list(argv)
    if flag in out:
        i = out.index(flag)
        del out[i : i + (1 if i + 1 == len(out) or out[i + 1].startswith("--") else 2)]
    if value is not None:
        out += [flag] + ([value] if value else [])
    return out


@pytest.fixture
def sweep(tmp_path, monkeypatch):
    """``outcome(command, argv)``: the exit code, stdout, stderr and files
    of one run, with {tmp} and {work} in argv filled in.  Runs start in an
    empty working directory ``work``, where the default out_dir '.' points,
    and each argv runs once.  Two price files (prices_a.csv, prices_b.csv)
    and two configs (x.cfg, y.cfg, out_dir work/x and work/y) are in tmp."""
    work = tmp_path / "work"
    for name, seed in (("a", "3"), ("b", "4")):
        assert run_cli("simulate", "--model", "stock", "--n-paths", "1", "--n-steps", "256",
                       "--h", "0.125", "--seed", seed, "--emit-prices", "--out-dir",
                       str(tmp_path), "--out", name)[0] == 0
        (tmp_path / f"{name}_prices.csv").rename(tmp_path / f"prices_{name}.csv")
    for name in ("x", "y"):
        (tmp_path / f"{name}.cfg").write_text(f"out_dir = {work / name}\n", encoding="utf-8")
    work.mkdir()
    monkeypatch.chdir(work)
    runs = {}

    def outcome(command, argv):
        argv = (command, *(a.format(tmp=tmp_path, work=work) for a in argv))
        if argv not in runs:
            for path in work.iterdir():
                shutil.rmtree(path) if path.is_dir() else path.unlink()
            code, out, err = run_cli(*argv)
            files = {str(p.relative_to(work)): p.read_bytes()
                     for p in sorted(work.rglob("*")) if p.is_file()}
            runs[argv] = code, out, err, files
        return runs[argv]

    return outcome


def test_every_flag_is_read_or_refused(sweep):
    # each (command, flag) cell of the table: in every context, two values of
    # the flag write different stdout or files, or the flag is refused (exit 2,
    # nothing written)
    cells = [(command, flag.name) for flag in cli.FLAGS for command in flag.cells]
    assert {flag for _, flag in cells} == set(SWEEP_VALUES)
    for command, flag in cells:
        for context in SWEEP_CONTEXTS[command]:
            base = sweep(command, context)
            if base[0] != 0:
                continue
            a, b = (sweep(command, with_flag(context, flag, value))
                    for value in SWEEP_VALUES[flag])
            if flag == "--variance" and command in ("acf", "audit"):
                # accepted but not read, as the ACFs are normalized; ROADMAP
                # item 2 drops it from the benchmark so that it can be refused
                assert a == b and a[0] == 0, (command, context)
            elif f"{command} reads {flag} only with" in b[2]:
                assert b[0] == 2 and b[3] == {}, (command, flag, context)
                assert a == b or SWEEP_VALUES[flag][0] is None, (command, flag, context)
            elif all(any(f"{command} reads {other} only with" in run[2]
                         for other in context if other != flag) for run in (a, b)):
                # both values leave another flag of the context unread, as --model
                # selfsim and white do gbm's --sigma: the context cannot show this flag
                assert a[0] == b[0] == 2 and a[3] == b[3] == {}, (command, flag, context)
            elif flag == "--config" and f"{command} reads --out-dir only with" in sweep(
                    command, with_flag(context, "--out-dir", "{work}/x"))[2]:
                # x.cfg and y.cfg differ only in out_dir, which is dropped here
                assert a == b == base, (command, context)
            else:
                assert a[:2] + a[3:] != b[:2] + b[3:], (command, flag, context)


# a value of each config key that its flag refuses, by the flag's check or by
# what the command builds from it before writing
BAD_CONFIG_VALUES = {
    "out_dir": "{tmp}/x.cfg/sub",  # under a file: it cannot be made
    "model.theta": "nan",
    "model.tau_R": "nan",
    "model.tau_r": "nan",
    "model.variance": "nan",
    "seed": "-1",
    "tolerance": "0",
    "model.mu": "inf",
    "model.sigma": "nan",
    "model.M0": "0",
}


def test_every_config_key_is_read_where_its_flag_is(sweep, tmp_path):
    # each (command, config key) pair in every sweep context: a refused value
    # from the config does what the same value given as the flag does where
    # the flag is read (exit 2, nothing written), and nothing where it is not
    flags = {flag.config: flag for flag in cli.FLAGS if flag.config}
    assert set(flags) == set(BAD_CONFIG_VALUES)
    for key, value in BAD_CONFIG_VALUES.items():
        config = tmp_path / f"bad_{key}.cfg"
        config.write_text(f"{key} = {value.format(tmp=tmp_path)}\n", encoding="utf-8")
        flag = flags[key]
        for command, contexts in SWEEP_CONTEXTS.items():
            for context in contexts:
                if sweep(command, context)[0] != 0:
                    continue
                plain = with_flag(context, flag.name, None)
                got = sweep(command, [*plain, "--config", str(config)])
                given = (sweep(command, with_flag(plain, flag.name, value))
                         if command in flag.cells else None)
                if given is None or f"{command} reads {flag.name} only with" in given[2]:
                    assert got == sweep(command, plain), (command, key, context)
                else:
                    assert given[0] == 2 and given[3] == {}, (command, key, context)
                    assert got == given, (command, key, context)
                if flag.name in context:  # the given flag wins over the config
                    assert sweep(command, [*context, "--config", str(config)]) == sweep(
                        command, context), (command, key, context)


PAIR_RUNS = [
    ("acf", ["--model", "stock", "--route", "closed", "--h", "0.25", "--n-points", "16"]),
    ("simulate", ["--model", "stock", "--n-paths", "1", "--n-steps", "64", "--h", "0.5",
                  "--seed", "1"]),
    ("audit", ["--model", "stock", "--n-real", "6", "--n-complex", "2", "--seed", "1",
               "--out", "audit.csv"]),
]


@pytest.mark.parametrize("command,argv", PAIR_RUNS, ids=[command for command, _ in PAIR_RUNS])
@pytest.mark.parametrize("flags,config,same_as", [
    (["--tau-R", "3"], "model.theta = 2\n", ["--tau-R", "3"]),
    (["--theta", "2"], "model.tau_R = 3\n", ["--theta", "2"]),
    ([], "model.theta = 2\nmodel.tau_R = 3\n", ["--theta", "2"]),
    ([], "model.tau_R = 3\n", ["--tau-R", "3"]),
    ([], "model.tau_r = 2\n", ["--tau-r", "2", "--theta", "1"]),
], ids=["tau-R-flag", "theta-flag", "both-presets", "tau-R-preset", "theta-default"])
def test_stock_pair_flag_wins_then_theta(sweep, tmp_path, command, argv, flags, config, same_as):
    # theta or tau_R: a flag wins over the config, theta over tau_R within
    # the config, and theta = 1 when neither is set anywhere
    path = tmp_path / "pair.cfg"
    path.write_text(config, encoding="utf-8")
    got = sweep(command, [*argv, *flags, "--config", str(path)])
    assert got[0] == 0 and got == sweep(command, [*argv, *same_as])


@pytest.mark.parametrize("command,argv", PAIR_RUNS, ids=[command for command, _ in PAIR_RUNS])
def test_stock_pair_refuses_both_flags(sweep, command, argv):
    code, out, err, files = sweep(command, [*argv, "--theta", "2", "--tau-R", "3"])
    assert (code, out, files) == (2, "", {})
    assert f"{command} reads --theta only with a stock-family --model, without --tau-R" in err


@pytest.mark.parametrize("argv", [
    ["--model", "stock", "--sigma", "0.3"],
    ["--model", "stock", "--mu", "0.5"],
    ["--model", "stock", "--M0", "3"],
], ids=["sigma", "mu", "M0"])
def test_unread_price_flags_are_refused(tmp_path, argv):
    # they once wrote the same CSVs as a run without them
    code, out, err = run_cli("simulate", "--out-dir", str(tmp_path), *argv, "--theta", "1",
                             "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "1")
    assert code == 2 and out == "" and f"simulate reads {argv[2]} only with" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", [["selfsim"], ["stock", "--theta", "1.5"], ["boltzmann"]],
                         ids=lambda model: model[0])
def test_fd_step_is_refused_off_differential(model):
    # it once printed the default table
    code, out, err = run_cli("audit", "--model", *model, "--n-real", "4", "--fd-step", "1e-3")
    assert (code, out) == (2, "")
    assert "audit reads --fd-step only with --model differential" in err


def test_gbm_ignores_a_config_return_variance(tmp_path):
    # one config serves every command: gbm accepts model.variance unread
    config = tmp_path / "zero.cfg"
    config.write_text("model.variance = 0\n", encoding="utf-8")
    argv = ["simulate", "--model", "gbm", "--n-paths", "2", "--n-steps", "64", "--h", "0.1",
            "--seed", "1"]
    for name, extra in (("plain", []), ("config", ["--config", str(config)])):
        code, out, _ = run_cli(*argv, *extra, "--out-dir", str(tmp_path / name))
        assert code == 0
    for csv_name in ("simulate_paths.csv", "simulate_summary.csv"):
        assert ((tmp_path / "plain" / csv_name).read_bytes()
                == (tmp_path / "config" / csv_name).read_bytes())


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sigma_zero_from_flag_or_config_refuses_max_lag(tmp_path, source):
    # a deterministic gbm run writes no summary ACF; a config sigma of 0 once
    # left a given --max-lag read, and --max-lag 8 and 9 wrote the same files
    config = tmp_path / "sigma0.cfg"
    config.write_text("model.sigma = 0\n", encoding="utf-8")
    sigma = {"flag": ["--sigma", "0"], "config": ["--config", str(config)]}[source]
    code, out, err = run_cli("simulate", "--model", "gbm", *sigma, "--max-lag", "5",
                             "--n-paths", "1", "--n-steps", "64", "--h", "0.1", "--seed", "1",
                             "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert ("simulate reads --max-lag only with a return-rate --model, or gbm with --sigma "
            "other than 0") in err
    assert not (tmp_path / "out").exists()


def test_sigma_zero_gbm_keeps_seed_as_lineage_only(tmp_path):
    # a deterministic gbm run draws nothing: --seed is read for master_seed alone
    outs = {}
    for seed in ("1", "2"):
        code, outs[seed], _ = run_cli("simulate", "--model", "gbm", "--sigma", "0", "--n-paths",
                                      "2", "--n-steps", "64", "--h", "0.1", "--seed", seed,
                                      "--out-dir", str(tmp_path / seed))
        assert code == 0
    for csv_name in ("simulate_paths.csv", "simulate_summary.csv"):
        assert (tmp_path / "1" / csv_name).read_bytes() == (tmp_path / "2" / csv_name).read_bytes()
    lines = {seed: out.replace(str(tmp_path / seed), "<dir>").splitlines()
             for seed, out in outs.items()}
    assert [(a, b) for a, b in zip(lines["1"], lines["2"]) if a != b] == [
        ("master_seed = 1", "master_seed = 2")]
    assert len(lines["1"]) == len(lines["2"])


def test_a_bad_config_value_is_reported_before_an_unread_flag(tmp_path):
    # the config pass runs before the given flags are judged
    config = tmp_path / "bad.cfg"
    config.write_text("seed = -1\n", encoding="utf-8")
    code, out, err = run_cli("simulate", "--model", "gbm", "--variance", "2", "--config",
                             str(config), "--n-paths", "1", "--n-steps", "64", "--h", "0.1",
                             "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (2, "") and "seed must be an integer in [0, 2^64)" in err
    assert "--variance" not in err and not (tmp_path / "out").exists()


def read_csv_status(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- CSV bytes ---------------------------------------------------------------------


def numpy_scalar_csv_digest(header, columns):
    """SHA-256 of the CSV that csv.writer makes from np.float64 cells, the
    way columns were written before they went through .tolist()."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_float_columns_write_the_bytes_of_numpy_scalars(tmp_path):
    values = np.array([-0.0, 0.0, 1e16, 1e-5, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0,
                       -1e30, 1e-30, 123456789.125, 0.1 + 0.2, 1e300, -7.0])
    cli._write_columns(tmp_path / "v.csv", ["a", "b"], values, values[::-1])
    text = (tmp_path / "v.csv").read_text(encoding="utf-8")
    assert "-0.0," in text and "1e+16" in text and "5e-324" in text
    assert file_digest(tmp_path / "v.csv") == numpy_scalar_csv_digest(
        ["a", "b"], [values, values[::-1]])


def test_seeded_csvs_write_the_bytes_of_numpy_scalars(tmp_path, monkeypatch):
    expected = {}
    write_columns = cli._write_columns

    def recording(path, header, *columns):
        expected[os.path.basename(path)] = numpy_scalar_csv_digest(header, columns)
        write_columns(path, header, *columns)

    monkeypatch.setattr(cli, "_write_columns", recording)
    out = ["--out-dir", str(tmp_path)]
    assert run_cli("simulate", *out, "--model", "stock", "--theta", "1.5", "--n-paths", "2",
                   "--n-steps", "256", "--h", "0.125", "--seed", "11", "--emit-prices")[0] == 0
    assert run_cli("acf", *out, "--model", "stock", "--theta", "0.5", "--route", "closed",
                   "--h", "0.1", "--n-points", "300", "--out", "closed.csv")[0] == 0
    assert run_cli("acf", *out, "--model", "stock", "--theta", "3", "--route", "laplace",
                   "--h", "0.1", "--n-points", "200", "--out", "laplace.csv")[0] == 0
    assert run_cli("fig1", *out, "--n-points", "200")[0] == 0
    assert len(expected) == 6
    for name, digest in expected.items():
        assert file_digest(tmp_path / name) == digest, name


def mixed_columns(n_cols, n_rows):
    """Float columns with every special value, int and bool columns, in turn."""
    rng = np.random.default_rng(n_cols * 7919 + n_rows)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.225073858507201e-308,
                         -1e-310, 1e16, 1e-5, 0.1 + 0.2, -1e300, 1.0 / 3.0])
    columns = []
    for k in range(n_cols):
        if k % 3 == 0:
            col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)
            col[: specials.size] = specials[: n_rows]
        elif k % 3 == 1:
            col = rng.integers(-(2**62), 2**62, n_rows)
        else:
            col = rng.random(n_rows) < 0.5
        columns.append(col)
    return columns


BLOCK = cli._CSV_BLOCK


@pytest.mark.parametrize("n_cols,n_rows", [
    (3, 0), (3, BLOCK - 1), (3, BLOCK), (3, BLOCK + 1), (1, BLOCK + 1), (501, BLOCK + 1),
])
def test_block_writer_matches_csv_writer(tmp_path, n_cols, n_rows):
    header = [f"c{k}" for k in range(n_cols)]
    columns = mixed_columns(n_cols, n_rows)
    cli._write_columns(tmp_path / "b.csv", header, *columns)
    assert file_digest(tmp_path / "b.csv") == numpy_scalar_csv_digest(header, columns)
    text = (tmp_path / "b.csv").read_text(encoding="utf-8")
    assert text.count("\n") == n_rows + 1
    if n_rows:
        assert "nan" in text and "-inf" in text and "5e-324" in text and "-0.0" in text
    if n_rows and n_cols >= 3:
        assert "True" in text and "False" in text


class HookedFile:
    """File object wrapper that hands every write to ``hook`` first."""

    def __init__(self, fh, hook):
        self.fh, self.hook = fh, hook

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.hook(text)
        return self.fh.write(text)


def hook_writes(monkeypatch, hook):
    monkeypatch.setattr(cli, "open", lambda *a, **k: HookedFile(open(*a, **k), hook),
                        raising=False)


def test_block_writer_writes_one_call_per_block(tmp_path, monkeypatch):
    writes = []
    hook_writes(monkeypatch, writes.append)
    n_rows = 3 * BLOCK + 5
    columns = mixed_columns(3, n_rows)
    cli._write_columns(tmp_path / "w.csv", ["a", "b", "c"], *columns)
    assert len(writes) <= 1 + -(-n_rows // BLOCK)
    assert file_digest(tmp_path / "w.csv") == numpy_scalar_csv_digest(["a", "b", "c"], columns)


def test_block_writer_peak_memory_holds_one_block(tmp_path):
    def peak(n_rows):
        columns = [np.linspace(0.0, 1.0, n_rows), np.arange(n_rows), np.ones(n_rows)]
        tracemalloc.start()
        try:
            cli._write_columns(tmp_path / "m.csv", ["a", "b", "c"], *columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # .tolist() of the whole table would grow the peak eightfold
    assert peak(16 * BLOCK) <= 1.1 * peak(2 * BLOCK)


def test_block_write_failure_exits_2(tmp_path, monkeypatch):
    (tmp_path / "acf.csv").mkdir()  # the output path is taken by a directory
    argv = ["acf", "--model", "selfsim", "--route", "closed", "--h", "0.1",
            "--n-points", str(3 * BLOCK)]
    code, _, err = run_cli(*argv, "--out-dir", str(tmp_path))
    assert code == 2 and "cannot write" in err

    def disk_full_after_header(text):
        if not text.startswith("lag,"):
            raise OSError(28, "No space left on device")

    hook_writes(monkeypatch, disk_full_after_header)
    code, _, err = run_cli(*argv, "--out-dir", str(tmp_path / "sub"))
    assert code == 2 and "cannot write" in err and "No space left" in err


# -- process-level behavior ----------------------------------------------------------


@pytest.mark.parametrize("error,code", [
    (errors.GleMarketError, 2),
    (errors.InputError, 2),
    (errors.DomainError, 2),
    (errors.ParseError, 2),
    (errors.DegenerateSeriesError, 2),
    (errors.CapabilityError, 3),
    (errors.AccuracyError, 4),
    (errors.SolverError, 4),
    (errors.SpectralPositivityError, 4),
])
def test_each_error_class_exits_with_its_code(tmp_path, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(cli, "lambda1", fail)
    assert error.exit_code == code
    got, out, err = run_cli("fig1", "--out-dir", str(tmp_path))
    assert (got, out) == (code, "") and err.startswith("error: planted")
    # only a capability gap prints the matrix
    assert (cli.CAPABILITY_MATRIX in err) == (code == 3)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,target,argv", [
    ("acf", "invert", ["--model", "stock", "--theta", "1", "--route", "laplace",
                       "--h", "0.1", "--n-points", "10"]),
    ("audit", "identity_residual", ["--model", "stock", "--theta", "1"]),
    ("estimate", "fit_prices", None),
])
def test_memory_error_maps_to_exit_2_in_every_subcommand(tmp_path, monkeypatch,
                                                         command, target, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    if argv is None:  # estimate needs a readable price series first
        prices = np.exp(np.cumsum(np.random.default_rng(5).normal(0.0, 0.01, 400)))
        write_prices(tmp_path / "prices.csv", prices, times=0.1 * np.arange(400))
        argv = ["--input", str(tmp_path / "prices.csv")]
    monkeypatch.setattr(cli, target, exhausted)
    code, _, err = run_cli(command, "--out-dir", str(tmp_path), "--out", "out.csv", *argv)
    assert code == 2 and err.startswith("error: out of memory")


def test_console_help_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "glemarket", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for command in ("fig1", "acf", "simulate", "estimate", "audit"):
        assert command in proc.stdout
    assert "capability matrix" in proc.stdout


def test_main_reuses_one_parser_that_parses_and_helps_alike(monkeypatch):
    build = cli._build_parser
    cli._parser()

    def refuse():
        raise AssertionError("main must not build a second parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    argv = ["simulate", "--model", "stock", "--n-paths", "2", "--n-steps", "64", "--h", "0.1"]

    def helped(parser, command):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            parser([*command, "--help"])
        return out.getvalue()

    first = cli._parser().parse_args(argv)
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        main(["acf", "--model", "stock", "--route", "bogus", "--h", "0.1"])
    assert cli._parser().parse_args(argv) == first == build().parse_args(argv)
    for command in ([], ["fig1"], ["acf"], ["simulate"], ["estimate"], ["audit"]):
        assert helped(main, command) == helped(build().parse_args, command)


def test_unknown_subcommand_is_input_error():
    proc = subprocess.run(
        [sys.executable, "-m", "glemarket", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
