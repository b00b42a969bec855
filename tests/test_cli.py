"""End-to-end checks of the command line front end.

Every subcommand gets a small smoke run into a temp directory; config parsing
and the exit code contract (0 pass, 1 target failed, 2 bad config with nothing
written, 3 backend gave up) are exercised through main() in process.
"""

import os
import subprocess
import sys

import pytest

import condlab
from condlab.cli import main, parse_config
from condlab.errors import ConfigError


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
         "(mu): mu value 0.5 is repeated"),
        (["msd", "--law", "twopoint:0.5,1,4", "--mu", "1,0.5,0.25,0.5"],
         "(mu): mu value 0.5 is repeated"),
    ],
)
def test_nonfinite_and_repeated_values_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, note",
    [
        (["--law", "twopoint:0.5,1,4", "--d", "2", "--n", "4", "--realizations", "2",
          "--mu", "2,0.10000000000000002,0.1"],
         "note: effective diffusivity 4.97617 +/- 0.37 (baseline 2 A2(mu_min), "
         "not extrapolated: the mu-order fit failed)"),
        (["--law", "constant:2", "--d", "2", "--n", "4", "--realizations", "2"],
         "note: effective diffusivity 4 +/- 0 (baseline 2 A2(mu_min), "
         "not extrapolated: the corrector vanishes)"),
        (["--law", "twopoint:0.5,1,4", "--d", "1", "--n", "6", "--realizations", "2",
          "--mu", "1,0.5,0.25,0.01"],
         "note: extrapolated effective diffusivity "),
    ],
)
def test_diffusivity_note_says_whether_sigma2_was_extrapolated(tmp_path, capsys, flags, note):
    out = tmp_path / "run"
    main(["diffusivity"] + flags + ["--workers", "1", "--out", str(out)])
    notes = [line for line in (out / "summary.txt").read_text().splitlines()
             if "effective diffusivity" in line]
    assert len(notes) == 1 and notes[0].startswith(note)
    capsys.readouterr()


def test_diffusivity_fit_failure_and_overflow_still_write_a_report(tmp_path, capsys):
    # A2(mu) equals its baseline at the next float up: a nonpositive difference
    out = tmp_path / "flat"
    rc = main(["diffusivity", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "4",
               "--realizations", "2", "--mu", "2,0.10000000000000002,0.1",
               "--workers", "1", "--out", str(out)])
    assert rc == 1
    summary = (out / "summary.txt").read_text()
    assert "FAIL mu-order-fit: nonpositive A2 differences" in summary
    assert "result: fail" in summary
    # msd estimates its sigma2 from the same sweep and carries the failure over
    out = tmp_path / "msd"
    rc = main(["msd", "--law", "twopoint:0.5,1,4", "--d", "2", "--n", "4", "--times", "0.5,1",
               "--realizations", "2", "--walks", "4", "--mu", "2,0.10000000000000002,0.1",
               "--no-trend", "--workers", "1", "--out", str(out)])
    assert rc == 1
    assert "FAIL mu-order-fit: nonpositive A2 differences" in (out / "summary.txt").read_text()
    # three nearly equal mus fit an order near 1e4; extrapolating it must not overflow
    out = tmp_path / "steep"
    rc = main(["diffusivity", "--law", "twopoint:0.5,1,4", "--d", "1", "--n", "6",
               "--realizations", "2", "--mu", "1e-3,1.0000001e-3,9.999e-4",
               "--workers", "1", "--out", str(out)])
    assert rc == 0
    config = (out / "config.txt").read_text()
    sigma2 = float(next(line for line in config.splitlines() if line.startswith("sigma2="))[7:])
    assert 0.0 < sigma2 < 10.0
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


def test_argparse_failures_map_to_exit_codes(capsys):
    assert main([]) == 2
    assert main(["simulate", "--bogus", "x"]) == 2
    # argparse exits 0 on --help; main translates instead of letting it escape
    assert main(["--help"]) == 0
    capsys.readouterr()


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
    assert head[1] == "mu,a0,a1,a2,a2_stderr,phi_sq,a2_minus_baseline,diff_stderr"
    capsys.readouterr()


def test_msd_smoke_with_no_trend(tmp_path, capsys):
    out = tmp_path / "msd"
    rc = main(["msd", "--law", "constant:1", "--d", "1", "--n", "8",
               "--times", "0.5,1", "--realizations", "2", "--walks", "8",
               "--no-trend", "--out", str(out)])
    assert rc == 0
    assert (out / "msd.csv").exists()
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


def _loaded_by_cli_import(module):
    """Whether a fresh interpreter has module loaded after `import condlab.cli`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(condlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, condlab.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the startup time and only the uniformization
    # backend needs it, so a fresh interpreter must not load it with the CLI
    assert not _loaded_by_cli_import("scipy.stats")


def test_cli_import_leaves_scipy_sparse_linalg_unloaded():
    # the resolvent is a hand-written multi-shift CG, so nothing needs the
    # scipy solvers, and loading them costs tens of milliseconds per start
    assert not _loaded_by_cli_import("scipy.sparse.linalg")


def test_cli_import_leaves_scipy_sparse_csgraph_unloaded():
    # the cluster diagnostics walk the lattice's star directly; csgraph would
    # add about 0.1 s to every start
    assert not _loaded_by_cli_import("scipy.sparse.csgraph")
