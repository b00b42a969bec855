"""End-to-end checks of the command line front end.

Every subcommand gets a small smoke run into a temp directory; config parsing
and the exit code contract (0 pass, 1 target failed, 2 bad config with nothing
written, 3 backend gave up) are exercised through main() in process.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import condlab
from condlab.cli import main, parse_config
from condlab.environment import ConductanceField, Lattice, load_field, parse_law, sample_field
from condlab.errors import ConfigError
from condlab.functionals import evaluate_all, functional_by_name
from condlab.operators import build_generator
from condlab.spectral import load_measure_csv, spectral_measure
from condlab.util import STREAM_SIMULATE_WALK, child_rng, field_seed
from condlab.walker import simulate_vsrw


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_config_values_and_dash_keys():
    text = """
# weekly sweep
experiment = decay
law = twopoint:0.5,1,4
n = 16
t-grid = 0,0.5,1
mu = 1,0.1
kind = simple
realizations = 3   # trailing comment
"""
    vals = parse_config(text)
    assert vals["experiment"] == "decay"
    assert vals["law"].descriptor() == "twopoint:0.5,1,4"
    assert vals["n"] == 16
    assert vals["t_grid"] == [0.0, 0.5, 1.0]
    assert vals["mu"] == [1.0, 0.1]
    assert vals["kind"] == "simple"
    assert vals["realizations"] == 3


def test_parse_config_reports_every_error_with_line_numbers():
    text = "n=2\nbogus=1\nd=abc\nmu=0,1\nnotakv\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    errors = err.value.errors
    assert [loc for loc, _ in errors] == [f"line {i}" for i in range(1, 6)]
    msgs = dict(errors)
    assert msgs["line 1"] == "n must be >= 3"
    assert "unknown key 'bogus'" in msgs["line 2"]
    assert "d expects an integer" in msgs["line 3"]
    assert msgs["line 4"] == "all mu values must be > 0"
    assert "expected key=value" in msgs["line 5"]


def test_parse_config_choice_and_law_messages():
    with pytest.raises(ConfigError) as err:
        parse_config("kind=jumpy")
    assert "must be one of conductance, simple" in err.value.errors[0][1]
    with pytest.raises(ConfigError) as err:
        parse_config("law=twopoint:2")
    assert err.value.errors[0][0] == "line 1"


# ---------------------------------------------------------------------------
# assembly and exit codes


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=simulate\nlaw=constant:2\nn=32\nhorizon=1.0\n")
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--n", "8", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    echoed = (out / "config.txt").read_text()
    assert echoed.splitlines()[0] == "# condlab-config v1"
    assert "n=8" in echoed
    assert "n=32" not in echoed
    assert "law=constant:2" in echoed


def test_bad_mu_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "diff"
    rc = main(["diffusivity", "--law", "constant:1", "--mu", "1,0,-1",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "config error (--mu): all mu values must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--law", "constant:1", "--horizon", "inf"],
         "(--horizon): horizon must be finite"),
        (["simulate", "--law", "constant:1", "--horizon", "nan"],
         "(--horizon): horizon must be finite"),
        (["msd", "--law", "constant:1", "--times", "0.5,1,inf"], "(--times): times must be finite"),
        (["decay", "--law", "constant:1", "--functional", "edge", "--times", "1,nan,4"],
         "(--times): times must be finite"),
        (["diffusivity", "--law", "constant:1", "--mu", "nan,1,0.5"], "(--mu): mu must be finite"),
        (["diffusivity", "--law", "constant:1", "--mu", "1,0.5,nan"], "(--mu): mu must be finite"),
        (["diffusivity", "--law", "constant:1", "--mu", "1,0.5,-inf"], "(--mu): mu must be finite"),
        (["diffusivity", "--law", "twopoint:0.5,1,4", "--mu", "1,0.5,0.5"],
         "(--mu): mu value 0.5 is repeated"),
        (["diffusivity", "--law", "twopoint:0.5,1,4", "--mu", "0.5,1,0.25,0.5"],
         "(--mu): mu value 0.5 is repeated"),
        (["nash-check", "--law", "twopoint:0.5,1,4", "--n-list", "2,1,2"],
         "(--n-list): box size 2 is repeated"),
        (["nash-check", "--law", "twopoint:0.5,1,4", "--n-list", "4", "--torus-n", "9"],
         "(--torus-n): torus period 9 too small for box 4 plus stencil"),
        (["contract", "--p", "0.9", "--eps", "8.0", "--cap", "3.0", "--t-grid", "1"],
         "(--t-grid): t-grid must be at least two nonnegative, strictly increasing times"),
        # one walk in all has no standard error for the gap gates to divide by
        (["msd", "--law", "twopoint:0.5,1,4", "--d", "1", "--n", "3", "--realizations", "1", "--walks", "1",
          "--times", "1"], "(--walks): need at least 2 walks in all"),
    ],
)
def test_nonfinite_and_repeated_values_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error {message}" in capsys.readouterr().err


def test_msd_has_no_mu_flag(tmp_path, capsys):
    # msd's sigma2 is the zero shift alone, so there is no mu to pass
    out = tmp_path / "msd"
    assert main(["msd", "--law", "twopoint:0.5,1,4", "--mu", "1,0.5", "--out", str(out)]) == 2
    assert not out.exists()
    assert "unrecognized arguments: --mu" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # a site past the torus, refused before any field is sampled
    (["simulate", "--law", "constant:1", "--d", "2", "--n", "4", "--start", "16"],
     "config error (--start): start site 16 out of range (torus has 16 sites)"),
    (["decay", "--functional", "edge"], "config error (--law): required (flag or config file)"),
    # a ParameterError from the library names no key
    (["decay", "--law", "constant:1", "--functional", "bogus"], "config error: unknown functional 'bogus'"),
])
def test_refusals_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, why",
    [
        (["--law", "twopoint:0.5,1,4", "--d", "2", "--n", "4", "--mu", "0.5"],
         "fewer than 2 mu values"),
        (["--law", "constant:2", "--d", "2", "--n", "4"],
         "the corrector vanishes, A2 is constant in mu"),
        # 1 + 1e-300 alpha rounds to 1, so that shift gets the zero shift's
        # solution bit for bit and a difference of exactly 0
        (["--law", "twopoint:0.5,1,4", "--d", "2", "--n", "4", "--mu", "1,1e-300"],
         "A2(mu) - A2(0) is not positive at every mu"),
    ],
    ids=["one-mu", "vanishing-corrector", "zero-difference"],
)
def test_diffusivity_without_a_fit_notes_why_and_still_writes_a_report(tmp_path, capsys, flags, why):
    out = tmp_path / "run"
    rc = main(["diffusivity"] + flags + ["--realizations", "2", "--expected-order", "1.5",
                                         "--workers", "1", "--out", str(out)])
    assert rc == 1
    summary = (out / "summary.txt").read_text()
    assert f"note: no mu-order fit: {why}\n" in summary
    assert "fit mu_order" not in summary
    assert "FAIL convergence-order: no fit available, expected 1.5" in summary
    assert "PASS chain-identity" in summary and "PASS estimator-ordering" in summary
    assert summary.rstrip().endswith("result: fail")
    assert (out / "estimators.csv").read_text().splitlines()[-1].startswith("0,")
    assert len((out / "fields.csv").read_text().splitlines()) == 2 + 2
    capsys.readouterr()


def test_diffusivity_summary_gives_the_torus_diffusivity_and_its_field_sd(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["diffusivity", "--law", "twopoint:0.5,1,4", "--d", "1", "--n", "6",
               "--realizations", "3", "--mu", "1,0.5,0.25,0.01", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "fields.csv").read_text().splitlines()
    assert lines[:2] == ["# condlab-csv v1 fields", "field,sigma2_torus"]
    torus = np.array([float(line.split(",")[1]) for line in lines[2:]])
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "1", "2"]
    # sigma2 = 2 a2 on the mu=0 row, the last one
    sigma2 = 2.0 * float((out / "estimators.csv").read_text().splitlines()[-1].split(",")[3])
    assert sigma2 == pytest.approx(torus.mean(), rel=1e-11)
    notes = [line for line in (out / "summary.txt").read_text().splitlines()
             if line.startswith("note: torus diffusivity 2 A2(0) ")]
    assert len(notes) == 1
    assert notes[0].endswith(f"field sd {np.std(torus, ddof=1):.2g}")
    capsys.readouterr()


def test_config_experiment_mismatch_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=decay\nlaw=constant:1\n")
    out = tmp_path / "spec"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "config is for 'decay' but the command is 'spectrum'" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_keys_the_command_does_not_take_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("law=constant:1\nhorizon=1\nmu=0.5\nwalks=7\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"config error ({cfg}): simulate takes no key 'mu'" in err
    assert f"config error ({cfg}): simulate takes no key 'walks'" in err
    # experiment, seed, workers and out are keys of every command
    cfg.write_text(f"experiment=simulate\nlaw=constant:1\nhorizon=1\nseed=3\nworkers=1\nout={out}\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "seed=3" in (out / "config.txt").read_text()
    capsys.readouterr()


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert main(["field-dump", "--law", "constant:1", "--out", str(blocker / "sub")]) == 2
    assert "config error (--out): " in capsys.readouterr().err
    # the report is written, but field.txt cannot be
    out = tmp_path / "sim"
    (out / "field.txt").mkdir(parents=True)
    assert main(["simulate", "--law", "constant:1", "--horizon", "1", "--out", str(out)]) == 2
    assert "config error (--out): " in capsys.readouterr().err
    assert os.listdir(out) == ["field.txt"]


def test_a_rerun_into_the_same_out_keeps_no_earlier_artifact(tmp_path, capsys):
    out = tmp_path / "msd"
    flags = ["--law", "twopoint:0.5,1,4", "--d", "1", "--n", "12", "--times", "0.5,1,2",
             "--realizations", "2", "--walks", "8", "--no-trend", "--workers", "1", "--out", str(out)]
    assert main(["msd", *flags]) != 2
    assert (out / "fields.csv").exists()
    assert main(["msd", *flags, "--sigma2", "4.0"]) != 2
    assert not (out / "fields.csv").exists()
    assert "sigma2=4" in (out / "config.txt").read_text()
    out = tmp_path / "run"
    assert main(["field-dump", "--law", "constant:1", "--out", str(out)]) == 0
    # files that are not condlab tables or field records stay
    (out / "notes.txt").write_text("# condlab-csv notes\n")
    (out / "other.csv").write_text("a,b\n1,2\n")
    assert main(["simulate", "--law", "constant:1", "--horizon", "1", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["config.txt", "field.txt", "notes.txt", "other.csv",
                                       "summary.txt", "trajectory.csv"]
    capsys.readouterr()


def test_argparse_failures_map_to_exit_codes(capsys):
    assert main([]) == 2
    assert main(["simulate", "--bogus", "x"]) == 2
    # argparse exits 0 on --help; main translates instead of letting it escape
    assert main(["--help"]) == 0
    capsys.readouterr()


# sha256 of each --help text at 80 columns, as Python 3.11's argparse lays it out
HELP_SHA256 = {
    "": "9a270c73746b79166dff6fa5ac84e57e51ef8ca539701d1dd75221757d127d55",
    "simulate": "3cf0290f81fd6900c16ba13ab6d0cb1b5dc80e6d1093f9184b79b04148fbdfed",
    "decay": "9d1f5f2a44807c22ad2d2422fcff1f5e7e01d81579349098b17e558bf417306f",
    "diffusivity": "309f8ae5407eda35f9af6ef122c5c960a3376bb88024823602444ef7943bac31",
    "msd": "63c804ceb79a8edff36638e25a70168d4f4dc426b2dd0d1ec2152ff47f87bcf7",
    "spectrum": "44759779927975c6599907878e1a66b402aa143c21a07c2b8b356b705b89fffe",
    "contract": "4f5f771e9830296b3425dea75efcdc068854e6f3a270d19a08616a9c6ccd2bea",
    "nash-check": "273d024a9e80002c4e8091d8cb0923117ef5d7866c560d313309dd2348c72bf8",
    "field-dump": "4169ed630b1e924ef8ec09d7da4a8c25760766fa6512e0ebed55ce1fb7503c39",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_texts_are_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert main([command, "--help"] if command else ["--help"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


def test_backend_failure_exits_3(tmp_path, capsys):
    # 4097 sites is past the dense eigensystem cutoff
    out = tmp_path / "spec"
    rc = main(["spectrum", "--law", "constant:1", "--d", "1", "--n", "4097",
               "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "backend error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand smoke runs


def test_simulate_smoke(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--law", "twopoint:0.5,1,4", "--n", "8",
               "--horizon", "2", "--seed", "4", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "result: pass" in captured
    assert f"wrote {out}" in captured
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "# condlab-csv v1 trajectory"
    assert (out / "field.txt").exists()
    summary = (out / "summary.txt").read_text()
    assert summary.splitlines()[0] == "# condlab-summary v1"
    assert "jumps in time" in summary


def test_decay_vanishing_functional_noted(tmp_path, capsys):
    out = tmp_path / "decay"
    rc = main(["decay", "--law", "constant:1", "--functional", "drift",
               "--d", "1", "--n", "16", "--times", "1,2,4",
               "--realizations", "2", "--out", str(out)])
    assert rc == 0
    assert "functional vanishes on this law" in (out / "summary.txt").read_text()
    capsys.readouterr()


def test_decay_missed_exponent_exits_1(tmp_path, capsys):
    out = tmp_path / "decay"
    rc = main(["decay", "--law", "twopoint:0.5,1,4", "--functional", "edge",
               "--d", "1", "--n", "64", "--times", "0.5,1,2,4,8,16,32",
               "--fit-window", "0.5,32", "--realizations", "2",
               "--expected-alpha", "5", "--alpha-tol", "0.01",
               "--out", str(out)])
    assert rc == 1
    summary = (out / "summary.txt").read_text()
    assert "FAIL decay-exponent" in summary
    assert summary.rstrip().endswith("result: fail")
    assert (out / "curve.csv").exists()
    capsys.readouterr()


def test_diffusivity_smoke(tmp_path, capsys):
    out = tmp_path / "diff"
    rc = main(["diffusivity", "--law", "constant:1", "--d", "2", "--n", "4",
               "--mu", "1,0.5,0.1,0.01", "--realizations", "2",
               "--out", str(out)])
    assert rc == 0
    head = (out / "estimators.csv").read_text().splitlines()
    assert head[0] == "# condlab-csv v1 estimators"
    assert head[1] == "mu,a0,a1,a2,a2_stderr,phi_sq,a2_minus_torus,diff_stderr"
    # one row per mu, descending, then the zero shift
    assert [row.split(",")[0] for row in head[2:]] == ["1", "0.5", "0.1", "0.01", "0"]
    capsys.readouterr()


def test_msd_smoke_with_no_trend(tmp_path, capsys):
    out = tmp_path / "msd"
    rc = main(["msd", "--law", "constant:1", "--d", "1", "--n", "8",
               "--times", "0.5,1", "--realizations", "2", "--walks", "8",
               "--no-trend", "--out", str(out)])
    assert rc == 0
    assert (out / "msd.csv").exists()
    capsys.readouterr()


def test_no_trend_in_a_config_file_equals_the_flag(tmp_path, capsys):
    flags = ["--law", "twopoint:0.5,1,4", "--d", "2", "--n", "8", "--times", "0.5,1,2",
             "--realizations", "2", "--walks", "8", "--workers", "1"]
    cfg = tmp_path / "msd.cfg"
    cfg.write_text("no-trend = true\n")
    rc = main(["msd", *flags, "--no-trend", "--out", str(tmp_path / "flag")])
    assert main(["msd", *flags, "--config", str(cfg), "--out", str(tmp_path / "file")]) == rc != 2
    for name in ("config.txt", "summary.txt", "msd.csv", "fields.csv"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes(), name
    assert "gap-decreasing" not in (tmp_path / "file" / "summary.txt").read_text()
    cfg.write_text("no-trend = yes\n")
    assert main(["msd", *flags, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "no-trend must be true or false" in capsys.readouterr().err


def test_msd_with_one_sampling_time_skips_the_trend(tmp_path, capsys):
    # with one time the gap has no trend: the target is skipped, not failed
    out = tmp_path / "msd"
    rc = main(["msd", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "8", "--times", "4",
               "--realizations", "2", "--walks", "32", "--workers", "1", "--out", str(out)])
    summary = (out / "summary.txt").read_text()
    assert rc == 0, summary
    assert "gap-decreasing" not in summary
    assert "note: one sampling time: no gap trend to check" in summary
    capsys.readouterr()


def test_contract_smoke(tmp_path, capsys):
    # light tail: the formula is negative, so the verdict path is deterministic
    out = tmp_path / "contract"
    rc = main(["contract", "--p", "0.9", "--eps", "8.0", "--cap", "3.0",
               "--realizations", "5000", "--fields", "2", "--torus-n", "8",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert (out / "derivative.csv").exists()
    assert (out / "analogue_curve.csv").exists()
    capsys.readouterr()


def test_nash_check_smoke(tmp_path, capsys):
    out = tmp_path / "nash"
    rc = main(["nash-check", "--law", "twopoint:0.5,1,4", "--n-list", "1,2",
               "--realizations", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "PASS box-inequality" in (out / "summary.txt").read_text()
    assert (out / "boxes.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv, shown", [
    (["decay", "--law", "twopoint:0.5,1,4", "--functional", "edge", "--n", "32", "--realizations", "2",
      "--times", "1,2,4,8,16,32,64", "--kind", "simple", "--fit-window", "2,50", "--expected-alpha", "0.4",
      "--alpha-tol", "0.3"],
     ["kind=simple", "window=[2,50]", "expected 0.4 +/- 0.3"]),
    (["decay", "--law", "twopoint:0.5,1,4", "--functional", "edge", "--n", "16", "--realizations", "2",
      "--times", "1,2,4", "--method", "mc", "--walks", "5"],
     ["method=mc", "walks=5"]),
    (["contract", "--realizations", "1000", "--fields", "2", "--torus-n", "10", "--t-grid", "0,1"],
     ["realizations=1000", "fields=2", "torus-n=10", "t-grid=0,1"]),
    (["nash-check", "--law", "twopoint:0.5,1,4", "--torus-n", "21", "--n-list", "1,2", "--functional", "edge"],
     ["torus-n=21", "n-list=1,2", "functional=edge"]),
])
def test_forwarded_flags_reach_the_experiment(argv, shown, tmp_path, capsys):
    assert main(argv + ["--workers", "1", "--out", str(tmp_path)]) in (0, 1)
    echoed = (tmp_path / "config.txt").read_text() + (tmp_path / "summary.txt").read_text()
    for text in shown:
        assert text in echoed, text
    capsys.readouterr()


def test_field_dump_smoke(tmp_path, capsys):
    out = tmp_path / "dump"
    rc = main(["field-dump", "--law", "twopoint:0.5,1,4", "--d", "2",
               "--n", "6", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "field.csv").exists()
    assert (out / "field.txt").exists()
    assert (out / "classification.csv").exists()
    assert "bad fraction" in (out / "summary.txt").read_text()
    capsys.readouterr()


def test_commands_given_one_seed_use_its_field_zero(tmp_path, capsys):
    # simulate, spectrum and field-dump sample field_seed(seed, 0), field 0 of
    # every experiment run with that seed
    law, d, n, seed = "twopoint:0.5,1,4", 2, 6, 5
    field = sample_field(parse_law(law), Lattice(d, n), field_seed(seed, 0))
    common = ["--law", law, "--d", str(d), "--n", str(n), "--seed", str(seed), "--workers", "1"]
    for command in ("simulate", "field-dump"):
        out = tmp_path / command
        assert main([command] + common + ["--out", str(out)]) == 0
        assert np.array_equal(load_field(str(out / "field.txt")).omega, field.omega), command
    assert main(["spectrum"] + common + ["--out", str(tmp_path / "spectrum")]) == 0
    lam, _ = build_generator(field, "conductance").eigensystem()
    expected = ["# condlab-csv v1 spectrum", "index,eigenvalue"] + [f"{i},{v:.12g}" for i, v in enumerate(lam)]
    assert (tmp_path / "spectrum" / "spectrum.csv").read_text() == "\n".join(expected) + "\n"
    capsys.readouterr()


def test_field_dump_without_threshold_exits_2(tmp_path, capsys):
    # the heavy tailed law has no analytic threshold, --eta becomes mandatory
    out = tmp_path / "dump"
    rc = main(["field-dump", "--law", "boundedpareto:0.2,0.5,50",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "config error (--eta)" in capsys.readouterr().err


def test_spectrum_rerun_is_byte_identical(tmp_path, capsys):
    args = ["spectrum", "--law", "uniform:1,2", "--d", "1", "--n", "32",
            "--functional", "edge", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "spectrum.csv" in names and "measure.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    capsys.readouterr()


LAW = "twopoint:0.5,1,4"
DECAY = ["decay", "--law", LAW, "--functional", "edge", "--n", "16", "--realizations", "2"]
MSD = ["msd", "--law", LAW, "--d", "1", "--n", "8", "--times", "0.5,1", "--realizations", "2", "--walks", "8"]
NASH = ["nash-check", "--law", LAW, "--n-list", "1,2", "--realizations", "2"]
RERUNS = {
    "simulate": ["simulate", "--law", LAW, "--d", "2", "--n", "6", "--horizon", "3"],
    "simulate-inexact-law": ["simulate", "--law", "twopoint:0.123456789,1,4", "--n", "8", "--horizon", "2"],
    "decay-default-times": DECAY,
    "decay-window": DECAY + ["--times", "1,2,4,8,16,32,64", "--kind", "simple", "--fit-window", "2,50",
                             "--expected-alpha", "0.4", "--alpha-tol", "0.3"],
    "decay-mc": DECAY + ["--times", "1,2,4", "--method", "mc", "--walks", "5"],
    "diffusivity-default-mu": ["diffusivity", "--law", LAW, "--d", "2", "--n", "4", "--realizations", "2"],
    "msd-paired": MSD,
    "msd-sigma2": MSD + ["--sigma2", "4.0"],
    "msd-no-trend": MSD + ["--no-trend"],
    "spectrum": ["spectrum", "--law", "uniform:1,3", "--d", "2", "--n", "4"],
    "spectrum-functional": ["spectrum", "--law", "uniform:1,3", "--d", "2", "--n", "4", "--functional", "drift"],
    "contract": ["contract", "--p", "0.9", "--eps", "8.0", "--cap", "3.0", "--realizations", "5000",
                 "--fields", "2"],
    "contract-torus": ["contract", "--realizations", "1000", "--fields", "2", "--torus-n", "10", "--t-grid", "0,1"],
    "nash-check": NASH,
    "nash-check-torus": NASH + ["--torus-n", "11"],
    "field-dump": ["field-dump", "--law", LAW, "--d", "2", "--n", "4"],
}


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_every_command_reruns_from_its_own_config(name, tmp_path, capsys):
    # config.txt holds the run's inputs exactly, so it reproduces the directory byte for byte
    argv = RERUNS[name]
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    rc = main(argv + ["--workers", "1", "--out", str(first)])
    assert rc in (0, 1), capsys.readouterr().err
    # each flag given reads back from config.txt as the same value; a trailing bare flag is skipped
    echoed = parse_config((first / "config.txt").read_text())
    for flag, value in zip(argv[1::2], argv[2::2]):
        dest = flag[2:].replace("-", "_")
        assert echoed[dest] == parse_config(f"{flag[2:]}={value}")[dest], flag
    assert main([argv[0], "--config", str(first / "config.txt"), "--workers", "1", "--out", str(rerun)]) == rc
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(rerun))
    for filename in names:
        assert (first / filename).read_bytes() == (rerun / filename).read_bytes(), filename
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CSV files: write_report writes every one of them, in one layout


SMALL_RUNS = [
    ["simulate", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "6", "--horizon", "3"],
    ["decay", "--law", "twopoint:0.5,1,4", "--functional", "edge", "--d", "1", "--n", "32",
     "--times", "1,2,4", "--realizations", "2"],
    ["diffusivity", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "6", "--realizations", "2"],
    ["msd", "--law", "twopoint:0.5,1,4", "--d", "1", "--n", "8", "--times", "0.5,1",
     "--realizations", "2", "--walks", "8", "--no-trend"],
    ["spectrum", "--law", "uniform:1,3", "--d", "2", "--n", "4", "--functional", "drift"],
    ["contract", "--p", "0.9", "--eps", "8.0", "--cap", "3.0", "--realizations", "5000",
     "--fields", "2", "--torus-n", "8"],
    ["nash-check", "--law", "twopoint:0.5,1,4", "--n-list", "1,2", "--realizations", "2"],
    ["field-dump", "--law", "twopoint:0.5,1,4", "--d", "3", "--n", "3"],
]


def test_every_csv_of_every_command_has_one_layout(tmp_path, capsys):
    for argv in SMALL_RUNS:
        out = tmp_path / argv[0]
        assert main(argv + ["--seed", "1", "--workers", "1", "--out", str(out)]) == 0, argv[0]
        csvs = sorted(out.glob("*.csv"))
        assert csvs, argv[0]
        for path in csvs:
            magic, columns, *rows = path.read_text().splitlines()
            assert magic == f"# condlab-csv v1 {path.stem}", path
            width = len(columns.split(","))
            assert width >= 2 and all(len(row.split(",")) == width for row in rows), path
    capsys.readouterr()


# sha256 of the files that had writers of their own, recorded with those writers
CSV_SHA256 = {
    "simulate-readme": (["simulate", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "16", "--horizon", "50"],
                        {"trajectory.csv": "84462890df6b7b4d7dd5c87bbeda4272b90484782b2a6c2e57a25e24e9c97b72"}),
    "simulate-d1": (["simulate", "--law", "boundedpareto:0.3,0.5,20", "--d", "1", "--n", "64", "--horizon", "200"],
                    {"trajectory.csv": "38443850aec0c8d1c3bd0c89aacfc6d8f1c2ccb4b68bf726f425b2a85a254e10"}),
    "simulate-d3": (["simulate", "--law", "uniform:1,3", "--d", "3", "--n", "6", "--horizon", "20", "--seed", "4"],
                    {"trajectory.csv": "df709596c815a044f9a4cf1250ac57b7574aee22f7b94c44a841d771b2bc87ea"}),
    "simulate-simple": (["simulate", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "10", "--kind", "simple",
                         "--horizon", "30", "--start", "7"],
                        {"trajectory.csv": "635480a5c401597b40fce7174713d37997a34a3c009668d4517749e87f69477f"}),
    "spectrum-readme": (["spectrum", "--law", "uniform:1,3", "--n", "64", "--functional", "drift"],
                        {"spectrum.csv": "3ea52408ecaa20cab23c9d0f8792829a2f1619557e5c3e4072fd816fb13a814d",
                         "measure.csv": "fc68a3a422d197fe3178fce7114491b8d33abf9b857466089ca6221e197df189"}),
    "spectrum-no-functional": (["spectrum", "--law", "twopoint:0.3,1,5", "--d", "2", "--n", "8"],
                               {"spectrum.csv": "0cafdc766a388e559963fc1e7389b2b831e2401c95d6aa4f552e048d7b8cea0f"}),
    "spectrum-simple": (["spectrum", "--law", "uniform:1,3", "--d", "2", "--n", "6", "--kind", "simple",
                         "--functional", "edge"],
                        {"spectrum.csv": "e3936e9b1e975be320ae6862138397b37ab059400ce3178d815a45b486e20b8b",
                         "measure.csv": "3b168d5ad52c1992f5597c0fc8f5ee4b1348b51d08f56df9389ebe5788bd92fb"}),
    "field-dump-readme": (["field-dump", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "8"],
                          {"field.csv": "9b60049b98b72a7c7a8f3114410c5bb4203414ffd12946a59aed5611b8f00371"}),
    "field-dump-d3": (["field-dump", "--law", "uniform:1,3", "--d", "3", "--n", "4"],
                      {"field.csv": "a19ac92d481d2f3d4d01a51363574abe32d47d43344ce795d77c5fa7f2571393"}),
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_csv_files_are_pinned(name, tmp_path, capsys):
    argv, digests = CSV_SHA256[name]
    assert main(argv + ["--workers", "1", "--out", str(tmp_path)]) == 0
    for filename, digest in digests.items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename
    capsys.readouterr()


def test_trajectory_csv_layout(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--law", "constant:1", "--kind", "simple", "--d", "2", "--n", "6",
                 "--start", "4", "--horizon", "3", "--seed", "2", "--out", str(out)]) == 0
    lat = Lattice(2, 6)
    traj = simulate_vsrw(ConductanceField(lat, lat.unit_weights), 4, 3.0, child_rng(2, STREAM_SIMULATE_WALK))
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# condlab-csv v1 trajectory"
    assert lines[1] == "time,site,dx0,dx1"
    assert lines[2] == "0,4,0,0"
    assert len(lines) == 3 + traj.jump_count
    last = lines[-1].split(",")
    assert int(last[1]) == traj.sites[-1]
    capsys.readouterr()


def test_simulate_without_jumps_writes_the_start_row(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--law", "boundedpareto:0.3,0.5,20", "--d", "1", "--n", "9",
                 "--horizon", "0.01", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "note: 0 jumps in time 0.01" in summary
    assert "note: final displacement (0,)" in summary
    assert (out / "trajectory.csv").read_text() == "# condlab-csv v1 trajectory\ntime,site,dx0\n0,0,0\n"
    capsys.readouterr()


def test_spectrum_csv_layout(tmp_path, capsys):
    assert main(["spectrum", "--law", "uniform:1,3", "--d", "1", "--n", "5", "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "# condlab-csv v1 spectrum"
    assert lines[1] == "index,eigenvalue"
    vals = np.array([float(line.split(",")[1]) for line in lines[2:]])
    assert vals[0] == 0.0 and np.all(np.diff(vals) >= 0)
    capsys.readouterr()


def test_measure_csv_round_trip(tmp_path, capsys):
    law, d, n, seed = "uniform:1,3", 1, 32, 6
    assert main(["spectrum", "--law", law, "--d", str(d), "--n", str(n), "--seed", str(seed),
                 "--functional", "drift", "--out", str(tmp_path)]) == 0
    field = sample_field(parse_law(law), Lattice(d, n), field_seed(seed, 0))
    f = functional_by_name("drift", d, parse_law(law))
    m = spectral_measure(build_generator(field, "conductance"), evaluate_all(f, field), center=True)
    back = load_measure_csv(tmp_path / "measure.csv")
    assert np.array_equal(back.lambdas, m.lambdas)
    assert np.array_equal(back.weights, m.weights)
    capsys.readouterr()


def test_field_csv_layout(tmp_path, capsys):
    lat = Lattice(2, 6)
    assert main(["field-dump", "--law", "boundedpareto:0.3,0.5,50", "--d", "2", "--n", "6",
                 "--eta", "2", "--seed", "21", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "field.csv").read_text().splitlines()
    assert text[0].startswith("# condlab-csv v1")
    assert len(text) == 2 + lat.d * lat.n_sites
    capsys.readouterr()


def _python_with_condlab(code, *args):
    """Run code in a fresh interpreter that imports this checkout's condlab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(condlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by_cli_import(module):
    """Whether a fresh interpreter has module loaded after `import condlab.cli`."""
    code = f"import sys, condlab.cli; print({module!r} in sys.modules)"
    return _python_with_condlab(code).strip() == "True"


def test_cli_import_leaves_every_scipy_module_unloaded():
    # scipy.sparse alone was half of `import condlab.cli`; each scipy module
    # is imported by the code that needs it, when it runs
    assert not _loaded_by_cli_import("scipy")


_SCIPY_AFTER_MAIN = """
import contextlib, io, json, sys
from condlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("argv", [
    ["simulate", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "8", "--horizon", "5"],
    ["decay", "--law", "twopoint:0.5,1,4", "--functional", "edge", "--d", "1", "--n", "64",
     "--kind", "simple", "--realizations", "4"],
    pytest.param(["decay", "--law", "twopoint:0.5,1,4", "--functional", "edge", "--d", "2",
                  "--n", "8", "--kind", "conductance", "--realizations", "2"], id="decay-conductance"),
    ["spectrum", "--law", "uniform:1,2", "--d", "1", "--n", "16", "--functional", "edge"],
    ["contract", "--p", "0.9", "--eps", "8.0", "--cap", "3.0", "--realizations", "5000",
     "--fields", "2", "--torus-n", "8"],
    # beyond the dense limit the analogue curve is still an FFT
    pytest.param(["contract", "--p", "0.9", "--eps", "8.0", "--cap", "3.0", "--realizations", "5000",
                  "--fields", "2", "--torus-n", "8192"], id="contract-beyond-dense-limit"),
    ["nash-check", "--law", "twopoint:0.5,1,4", "--n-list", "1,2", "--realizations", "2"],
    ["field-dump", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "6"],
    ["diffusivity", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "6", "--realizations", "2"],
], ids=lambda argv: argv[0])
def test_only_sparse_solves_load_scipy(argv, tmp_path):
    # the conjugate-gradient solves of diffusivity (and msd) and the Lanczos
    # steps of a conductance decay multiply by the scipy CSR generator; the
    # other commands never import scipy, and none imports scipy.linalg,
    # which would add 0.06-0.09 s to each run
    argv = argv + ["--workers", "1", "--out", str(tmp_path)]
    rc, loaded = json.loads(_python_with_condlab(_SCIPY_AFTER_MAIN, json.dumps(argv)))
    assert rc == 0
    if argv[0] == "diffusivity" or "conductance" in argv:
        assert "scipy.sparse" in loaded
        assert "scipy.linalg" not in loaded
    else:
        assert loaded == []
