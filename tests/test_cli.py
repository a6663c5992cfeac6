"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import csv

import pytest

from splitavg.cli import build_parser, main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def test_table1_values_and_schema(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    comment, header, rows = read_csv(out)
    assert header == ["loss", "noise", "r2_over_r1"]
    values = {(r[0], r[1]): float(r[2]) for r in rows}
    assert values[("squared", "gaussian")] == pytest.approx(1.0, abs=1e-9)
    assert values[("squared", "laplace")] == pytest.approx(1.0, abs=1e-9)
    assert values[("pseudo_huber", "gaussian")] == pytest.approx(0.94585, abs=1e-4)
    assert values[("pseudo_huber", "laplace")] == pytest.approx(1.30735, abs=1e-4)
    assert values[("absolute", "gaussian")] == pytest.approx(0.914, abs=2e-3)
    assert "sigma2=10" in comment


def test_plan_reproduces_reference_counts(tmp_path):
    out = tmp_path / "plan.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "100",
                 "--sigma2", "10", "--total-eps", "2e-3", "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["mode", "constraint", "m", "achieved_error"]
    assert rows[0][2] == "9901"

    out2 = tmp_path / "plan2.csv"
    code = main(["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "100",
                 "--sigma2", "10", "--total-eps", "2e-3", "--out", str(out2)])
    assert code == 0
    assert read_csv(out2)[2][0][2] == "51"

    out3 = tmp_path / "plan3.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "100",
                 "--sigma2", "10", "--constraint", "relative", "--rel-eps", "0.1",
                 "--out", str(out3)])
    assert code == 0
    assert int(read_csv(out3)[2][0][2]) in (990, 991)


def test_plan_absolute_loss_reaches_the_kappa_cap(tmp_path):
    # at N = 1e5, p = 100 the bound is not binding, so the planner goes to its
    # cap m = 990 and solves the absolute-loss equations at kappa = 0.99
    out = tmp_path / "plan.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "1e5", "--p", "100",
                 "--regime", "high-dim", "--loss", "absolute", "--total-eps", "1",
                 "--out", str(out)])
    assert code == 0
    assert read_csv(out)[2][0][2] == "990"


def test_plan_per_coordinate_epsilon(tmp_path):
    out = tmp_path / "plan.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "100",
                 "--sigma2", "10", "--per-coord-eps", "2e-5", "--out", str(out)])
    assert code == 0
    assert read_csv(out)[2][0][2] == "9901"


def test_ratio_sweep_deterministic_reruns(tmp_path):
    args = ["ratio-sweep", "--p", "3", "--m", "2", "--n-grid", "60,120",
            "--reps", "8", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, header, rows = read_csv(a)
    assert header == ["n", "m", "median_ratio", "mad_ratio", "reps"]
    assert [r[0] for r in rows] == ["60", "120"]


def test_bias_mse_schema(tmp_path):
    out = tmp_path / "bm.csv"
    code = main(["bias-mse", "--model", "ridge", "--p", "3", "--N", "600",
                 "--m-grid", "3,6", "--reps", "20", "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["m", "p", "coord", "mean_bias", "theory_bias",
                      "mse_emp", "mse_theory"]
    assert len(rows) == 2 * 3
    # ridge second-order bias is negative for positive coefficients
    assert all(float(r[4]) < 0 for r in rows)


def test_highdim_sweep_schema(tmp_path):
    out = tmp_path / "hd.csv"
    code = main(["highdim-sweep", "--n-grid", "100", "--m", "5", "--reps", "15",
                 "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["n", "m", "kappa", "mse_ratio_emp", "mse_ratio_theory"]
    assert float(rows[0][4]) == pytest.approx(1.2, abs=1e-9)


def test_wishart_check_output(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wishart-check", "--reps", "2e4", "--p-grid", "1,2",
                 "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["identity", "p", "reps", "max_abs_z"]
    assert len(rows) == 18
    assert all(float(r[3]) < 8 for r in rows)


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 4\nm = 2\nn_grid = 50\nreps = 6\n")
    out = tmp_path / "o.csv"
    code = main(["ratio-sweep", "--config", str(cfg), "--p", "3",
                 "--out", str(out)])
    assert code == 0
    comment, _, rows = read_csv(out)
    assert "p=3" in comment  # flag beats the file
    assert "m=2" in comment  # file value used


def test_thread_count_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITAVG_THREADS", "2")
    out = tmp_path / "o.csv"
    args = ["ratio-sweep", "--p", "3", "--m", "2", "--n-grid", "60",
            "--reps", "6", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    threaded = out.read_bytes()
    monkeypatch.delenv("SPLITAVG_THREADS")
    assert main(args) == 0
    assert out.read_bytes() == threaded  # schedule-independent output


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["ratio-sweep", "--bogus-flag", "3"]) == 1
    assert main(["plan", "--mode", "fixed-N", "--p", "10"]) == 1  # bound missing
    assert main(["plan", "--mode", "fixed-N", "--constraint", "absolute",
                 "--p", "10", "--total-eps", "1e-3"]) == 1  # --N missing
    assert main(["bias-mse", "--model", "logistic"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["table1", "--seed", "1"],
    ["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "10", "--total-eps", "0.1",
     "--threads", "2"],
    ["wishart-check", "--reps", "1e4", "--p-grid", "1", "--threads", "2"],
], ids=lambda argv: argv[0])
def test_unread_options_are_not_accepted(tmp_path, capsys, argv):
    # --seed and --threads exist only where a subcommand reads them
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["--regime", "high-dim", "--model", "ridge", "--penalty", "3"], "--model ridge"),
    (["--regime", "fixed-p", "--loss", "absolute"], "--loss absolute"),
    (["--N", "7"], "argument --N: not allowed with argument --n"),
    (["--constraint", "relative", "--rel-eps", "0.1"], "not allowed with"),
], ids=["high-dim-model", "fixed-p-loss", "n-and-N", "two-bounds"])
def test_plan_rejects_options_it_would_not_read(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "100", "--sigma2", "10",
                 "--total-eps", "5", *argv, "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--penalty", "3"], "--penalty"),
    (["--theta-norm", "2"], "--theta-norm"),
    (["--delta", "2"], "--delta"),
    (["--regime", "high-dim", "--penalty", "0"], "--penalty"),
    (["--regime", "high-dim", "--loss", "absolute", "--delta", "3"], "--delta"),
], ids=["ols-penalty", "ols-theta-norm", "squared-delta", "high-dim-penalty",
        "absolute-delta"])
def test_plan_rejects_settings_it_does_not_read(tmp_path, capsys, argv, flag):
    # a setting the plan would ignore is an error, not a header entry
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "100", "--sigma2", "10",
                 "--total-eps", "2e-3", *argv, "--out", str(out)])
    assert code == 1
    assert f"does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_plan_header_names_the_settings_it_reads(tmp_path):
    out = tmp_path / "x.csv"
    base = ["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "100", "--sigma2", "10",
            "--total-eps", "2e-3", "--out", str(out)]
    assert main(base) == 0
    assert "model=ols p=100 penalty=0 theta_norm=1 loss=squared delta=3" in read_csv(out)[0]
    assert main([*base, "--model", "ridge", "--penalty", "3", "--theta-norm", "2"]) == 0
    assert "model=ridge p=100 penalty=3 theta_norm=2 loss=squared delta=3" in read_csv(out)[0]


@pytest.mark.parametrize("command", [
    ["plan", "--mode", "fixed-n", "--n", "1e4", "--sigma2", "10", "--total-eps", "2e-3"],
    ["ratio-sweep", "--m", "2", "--n-grid", "50", "--reps", "4"],
], ids=lambda argv: argv[0])
def test_config_file_forms(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("p = 4\n")
    out = tmp_path / "x.csv"
    assert main([*command, f"--config={cfg}", "--out", str(out)]) == 0
    assert " p=4 " in read_csv(out)[0]
    out.unlink()
    # flags are given in full: an abbreviation is not taken for --config
    assert main([*command, "--conf", str(cfg), "--out", str(out)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["table1", "--quad-nodes", "16", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_table1_repeated_kappa_exits_one(tmp_path, capsys):
    # four copies of one kappa once printed r2_over_r1 = 0.001 and exited 0
    out = tmp_path / "t.csv"
    assert main(["table1", "--kappa-grid", "1e-3,1e-3,1e-3,1e-3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: kappa_grid needs >= 4 distinct points\n"
    assert not out.exists()


_PLAN_N = ["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "100", "--sigma2", "10"]


@pytest.mark.parametrize("argv", [
    ["highdim-sweep", "--kappa", "nan"],
    [*_PLAN_N, "--total-eps", "nan"],
    [*_PLAN_N, "--constraint", "relative", "--rel-eps", "nan"],
    ["ratio-sweep", "--sigma2", "nan", "--reps", "2"],
    ["ratio-sweep", "--model", "ridge", "--penalty", "nan", "--reps", "2"],
    ["ratio-sweep", "--noise", "laplace", "--laplace-scale", "inf", "--reps", "2"],
    ["ratio-sweep", "--n-grid", "50,-inf", "--reps", "2"],
    ["plan", "--mode", "fixed-n", "--n", "inf", "--p", "10", "--total-eps", "1"],
    ["table1", "--kappa-grid", "0.001,0.002,nan,0.004"],
], ids=["kappa", "total-eps", "rel-eps", "sigma2", "penalty", "laplace-scale", "n-grid", "n",
        "kappa-grid"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert "error: argument --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "0", "--total-eps", "1"],
    ["bias-mse", "--p", "0", "--N", "100", "--m-grid", "2", "--reps", "2"],
    ["wishart-check", "--reps", "1e4", "--p-grid", "0"],
    ["wishart-check", "--reps", "1e4", "--p-grid", "-1"],  # checked before it seeds
], ids=["plan", "bias-mse", "wishart-check", "wishart-check-negative"])
def test_zero_dimension_exits_one(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
    assert ">= 1" in capsys.readouterr().err


def test_validation_errors_exit_one(tmp_path):
    out = tmp_path / "x.csv"
    # m does not divide N*... n-grid makes N = n*m so this passes; use bad eps
    assert main(["plan", "--mode", "fixed-N", "--N", "100", "--p", "10",
                 "--sigma2", "10", "--total-eps", "-1", "--out", str(out)]) == 1


def test_infeasible_plan_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "100",
                 "--sigma2", "10", "--total-eps", "1e-5", "--out", str(out)])
    assert code == 1
    assert "single machine" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "1"], ["--model", "ridge", "--penalty", "1", "--n", "5"]],
                         ids=["ols", "ridge"])
def test_plan_fixed_n_below_p_exits_one(tmp_path, capsys, argv):
    # the fixed-p expansion needs n >= p samples per machine; these once planned 1200 and 18
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-n", *argv, "--p", "10", "--total-eps", "0.1",
                 "--out", str(out)])
    assert code == 1
    assert "n >= p" in capsys.readouterr().err
    assert not out.exists()


def test_plan_fixed_N_keeps_p_samples_per_machine(tmp_path):
    # once planned m = 50, one sample per machine; N / p = 5 is the cap, not the bound
    out = tmp_path / "plan.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "50", "--p", "10", "--total-eps", "100",
                 "--out", str(out)])
    assert code == 0
    assert read_csv(out)[2] == [["fixed-N", "absolute", "5", "0.42"]]


def test_plan_fixed_N_below_p_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "9", "--p", "10", "--total-eps", "100",
                 "--out", str(out)])
    assert code == 1
    assert "n >= p (N = 9, p = 10)" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_two(tmp_path, capsys):
    # tiny separable logistic shards abort the replication
    out = tmp_path / "x.csv"
    code = main(["ratio-sweep", "--model", "logistic", "--p", "2", "--m", "16",
                 "--n-grid", "10", "--reps", "2", "--theta-norm", "4",
                 "--sigma2", "1", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plan_fixed_N_with_a_non_finite_prediction_exits_two(tmp_path, capsys):
    # sigma^4 overflows: the second-order sum is inf - inf, once written out as m = 1e6
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "100", "--sigma2", "1e308",
                 "--constraint", "relative", "--rel-eps", "0.1", "--out", str(out)])
    assert code == 2
    assert "numerical failure: the predicted error at m = 1.0 is nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plan_fixed_n_with_a_non_finite_prediction_exits_two(tmp_path, capsys):
    # the same overflow once ended in the root finder's NaN traceback
    out = tmp_path / "x.csv"
    code = main(["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "100", "--sigma2", "1e308",
                 "--total-eps", "1e300", "--out", str(out)])
    assert code == 2
    assert "numerical failure: the predicted error at m = 1.0 is nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [["--model", "ols"], ["--model", "ridge", "--penalty", "0.1"]],
                         ids=["ols", "ridge"])
def test_bias_mse_with_a_non_finite_theory_exits_two(tmp_path, capsys, model):
    # sigma2 (1 + p) overflows in gamma2 and gamma3: the sum is -inf + inf, once written as nan
    out = tmp_path / "x.csv"
    code = main(["bias-mse", *model, "--p", "2", "--N", "20", "--m-grid", "2", "--reps", "2",
                 "--sigma2", "1e308", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "numerical failure: the theoretical bias or MSE at m = 2 is not finite" \
        in capsys.readouterr().err
    assert not out.exists()


def test_bias_mse_theory_uses_laplace_variance(tmp_path):
    # Laplace(b = 2) has variance 2 b^2 = 8: the theory column must equal the
    # one for gaussian noise of variance 8, whatever --sigma2 says
    base = ["bias-mse", "--model", "ols", "--p", "3", "--N", "600", "--m-grid", "3",
            "--reps", "4"]
    lap, gauss = tmp_path / "lap.csv", tmp_path / "gauss.csv"
    assert main(base + ["--noise", "laplace", "--laplace-scale", "2",
                        "--out", str(lap)]) == 0
    assert main(base + ["--sigma2", "8", "--out", str(gauss)]) == 0
    theory_lap = {float(r[6]) for r in read_csv(lap)[2]}
    theory_gauss = {float(r[6]) for r in read_csv(gauss)[2]}
    assert theory_lap == theory_gauss
    (value,) = theory_lap
    assert value == pytest.approx(8.0 * 3 / 600, rel=0.05)  # sigma^2 p / N


def test_plan_fixed_p_uses_laplace_variance(tmp_path):
    base = ["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "100",
            "--total-eps", "2e-3"]
    lap, gauss = tmp_path / "lap.csv", tmp_path / "gauss.csv"
    # Laplace(b) with 2 b^2 = 10 against the reference gaussian sigma^2 = 10
    assert main(base + ["--noise", "laplace", "--laplace-scale", str(5 ** 0.5),
                        "--out", str(lap)]) == 0
    assert main(base + ["--sigma2", "10", "--out", str(gauss)]) == 0
    row_lap, row_gauss = read_csv(lap)[2][0], read_csv(gauss)[2][0]
    assert row_lap[2] == row_gauss[2] == "51"
    assert float(row_lap[3]) == pytest.approx(float(row_gauss[3]), rel=1e-12)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "", "1.5"])
def test_bad_thread_env_exits_one(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SPLITAVG_THREADS", value)
    out = tmp_path / "o.csv"
    code = main(["ratio-sweep", "--p", "3", "--m", "2", "--n-grid", "60",
                 "--reps", "2", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2.0", "2e0"])
def test_thread_env_takes_the_flag_syntax(monkeypatch, value):
    # SPLITAVG_THREADS is the default of --threads and parses the same way
    monkeypatch.setenv("SPLITAVG_THREADS", value)
    assert build_parser().parse_args(["ratio-sweep"]).threads == 2


def test_bad_thread_flag_exits_one(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = main(["ratio-sweep", "--p", "3", "--m", "2", "--n-grid", "60",
                 "--reps", "2", "--threads", "-3", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_highdim_sweep_noiseless_exits_zero(tmp_path):
    out = tmp_path / "hd.csv"
    code = main(["highdim-sweep", "--sigma2", "0", "--theta-norm", "0",
                 "--n-grid", "100", "--m", "2", "--reps", "3", "--out", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    assert rows[0][3:] == ["1", "1"]  # both fits exact: ratio 0/0 = 1


_SMALL_RUNS = {
    "ratio-sweep": ["--p", "2", "--m", "2", "--n-grid", "20", "--reps", "2"],
    "bias-mse": ["--p", "2", "--N", "40", "--m-grid", "2", "--reps", "2"],
    "highdim-sweep": ["--n-grid", "20", "--m", "2", "--reps", "2"],
    "table1": ["--quad-nodes", "16"],
    "plan": ["--mode", "fixed-n", "--n", "1e4", "--p", "10", "--total-eps", "0.1"],
    "wishart-check": ["--reps", "1e4", "--p-grid", "1"],
}


def test_header_names_every_option(tmp_path):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_SMALL_RUNS)
    for command, argv in _SMALL_RUNS.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *argv, "--out", str(out)]) == 0
        comment, _, _ = read_csv(out)
        named = {tok.split("=", 1)[0] for tok in comment[2:].split()}
        args = build_parser().parse_args([command, *argv])
        options = {a.dest for a in sub.choices[command]._actions
                   if a.dest not in ("help", "out", "threads", "config")
                   and getattr(args, a.dest) is not None}
        assert options <= named, (command, options - named)
        assert f"cmd={command}" in comment


@pytest.mark.parametrize("argv", [
    ["ratio-sweep", "--n-grid", "50.9,200", "--reps", "2"],
    ["bias-mse", "--p", "2", "--N", "100.5", "--m-grid", "2", "--reps", "2"],
    ["bias-mse", "--p", "2", "--N", "100", "--m-grid", "2,2.5", "--reps", "2"],
    ["plan", "--mode", "fixed-n", "--n", "99.7", "--p", "10", "--total-eps", "1"],
    ["plan", "--mode", "fixed-N", "--N", "1000000.5", "--p", "10", "--total-eps", "1"],
    ["wishart-check", "--reps", "10000.5", "--p-grid", "1"],
    ["ratio-sweep", "--reps", "2.5"],
    ["ratio-sweep", "--p", "2.5", "--reps", "2"],
    ["ratio-sweep", "--m", "1.5", "--reps", "2"],
    ["ratio-sweep", "--seed", "0.5", "--reps", "2"],
    ["ratio-sweep", "--threads", "1.5", "--reps", "2"],
    ["bias-mse", "--p", "2", "--N", "100", "--m-grid", "2", "--reps", "2.5"],
    ["highdim-sweep", "--m", "2.5", "--reps", "2"],
    ["table1", "--quad-nodes", "16.5"],
    ["plan", "--mode", "fixed-n", "--n", "100", "--p", "10.5", "--total-eps", "1"],
    ["wishart-check", "--seed", "0.5", "--p-grid", "1"],
    # seeds are also integers >= 0, what numpy's default_rng takes
    ["ratio-sweep", "--seed", "-1", "--reps", "2"],
    ["wishart-check", "--seed", "-5", "--reps", "1e4", "--p-grid", "1"],
], ids=["n-grid", "bias-mse-N", "m-grid", "n", "plan-N", "reps", "ratio-sweep-reps", "p", "m",
        "seed", "threads", "bias-mse-reps", "highdim-m", "quad-nodes", "plan-p", "wishart-seed",
        "negative-seed", "wishart-negative-seed"])
def test_fractional_integers_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: argument --" in err and "expected an integer" in err
    assert not out.exists()


def test_integer_arguments_take_float_notation():
    args = build_parser().parse_args(
        ["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "10", "--total-eps", "1"])
    assert args.N == 10 ** 6 and isinstance(args.N, int)
    parse = build_parser().parse_args
    args = parse(["ratio-sweep", "--reps", "1e3", "--p", "1e1", "--m", "5e0", "--seed", "7e2",
                  "--threads", "2.0"])
    assert (args.reps, args.p, args.m, args.seed, args.threads) == (1000, 10, 5, 700, 2)
    assert all(isinstance(v, int) for v in (args.reps, args.p, args.m, args.seed, args.threads))
    assert parse(["bias-mse", "--p", "2e1", "--reps", "1e3"]).p == 20
    assert parse(["highdim-sweep", "--m", "1e1"]).m == 10
    assert parse(["table1", "--quad-nodes", "6.4e1"]).quad_nodes == 64
    assert parse(["plan", "--mode", "fixed-n", "--p", "1e2"]).p == 100
    assert parse(["wishart-check", "--seed", "1e1"]).seed == 10
    # plain integers stay exact past 2^53, where float notation would round
    assert parse(["wishart-check", "--seed", str(2 ** 64 + 1)]).seed == 2 ** 64 + 1


_PLAN_FIXED_N = ["plan", "--mode", "fixed-n", "--n", "1e4", "--sigma2", "10", "--total-eps", "2e-3"]


def test_unknown_flag_is_reported_before_plan_requirements(tmp_path, capsys):
    # --p is missing too, but the misspelt --config is the cause to name
    cfg = tmp_path / "c.cfg"
    cfg.write_text("p = 4\n")
    assert main([*_PLAN_FIXED_N, "--conf", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "unrecognized arguments: --conf" in capsys.readouterr().err


@pytest.mark.parametrize("argv, missing", [
    (["plan"], "--mode, --p, --total-eps or --per-coord-eps (absolute constraint)"),
    (["plan", "--mode", "fixed-N", "--p", "10", "--total-eps", "1"], "--N (mode fixed-N)"),
    (["plan", "--mode", "fixed-n", "--N", "1e6", "--p", "10", "--total-eps", "1"],
     "--n (mode fixed-n)"),
    (["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "10", "--constraint", "relative",
      "--total-eps", "1"], "--rel-eps (relative constraint)"),
    (["plan", "--mode", "fixed-N", "--N", "1e6", "--p", "10", "--rel-eps", "0.1"],
     "--total-eps or --per-coord-eps (absolute constraint)"),
], ids=["all", "N", "n", "rel-eps", "total-eps"])
def test_plan_names_every_missing_requirement(tmp_path, capsys, argv, missing):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: the following arguments are required: {missing}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["ratio-sweep", "--p", "0"], "--p"),
    (["ratio-sweep", "--m", "-1"], "--m"),
    (["ratio-sweep", "--n-grid", "50,0"], "--n-grid"),
    (["highdim-sweep", "--reps", "0e0"], "--reps"),
    (["bias-mse", "--p", "-3"], "--p"),
    (["bias-mse", "--N", "0"], "--N"),
    (["bias-mse", "--m-grid", "-2"], "--m-grid"),
    (["table1", "--quad-nodes", "0"], "--quad-nodes"),
    (["plan", "--mode", "fixed-n", "--n", "0", "--p", "10", "--total-eps", "1"], "--n"),
    (["plan", "--mode", "fixed-n", "--n", "1e4", "--p", "-1", "--total-eps", "1"], "--p"),
    (["wishart-check", "--reps", "0"], "--reps"),
], ids=["ratio-sweep-p", "ratio-sweep-m", "n-grid", "reps", "bias-mse-p", "N", "m-grid",
        "quad-nodes", "n", "plan-p", "wishart-reps"])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: argument {flag}: expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "p = 4\nno key value\n"], ids=["missing", "no-equals"])
def test_unreadable_config_file_exits_one(tmp_path, capsys, content):
    cfg = tmp_path / "c.cfg"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "x.csv"
    assert main(["ratio-sweep", "--reps", "2", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_config_flag_without_a_path_exits_one(capsys):
    assert main(["ratio-sweep", "--config"]) == 1
    assert "error: argument --config: expected one argument" in capsys.readouterr().err


def test_last_config_file_is_read(tmp_path):
    # --config follows argparse's rule for every flag: of two, the last one holds
    first, last = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("p = 4\n")
    last.write_text("p = 3\n")
    out = tmp_path / "x.csv"
    assert main(["ratio-sweep", "--m", "2", "--n-grid", "50", "--reps", "4", "--config",
                 str(first), "--config", str(last), "--out", str(out)]) == 0
    assert " p=3 " in read_csv(out)[0]
