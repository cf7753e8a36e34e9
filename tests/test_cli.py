import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from restent.cli import main
from restent.dynamics import default_region, linear_map_system
from restent.entropy import SCHEMA_VERSION, lyapunov_oracle


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(args):
    return main(args)


def test_bound_identity_system(tmp_path, capsys):
    stem = str(tmp_path / "ident")
    code = run(["bound", "--system", "identity", "--dim", "2",
                "--metric", "identity", "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound: 0.000000 bits/step" in out
    assert json.load(open(f"{stem}.report.json"))["bound"] == 0.0


def test_bound_linmap_diagonal(tmp_path, capsys):
    stem = str(tmp_path / "lin")
    # a whole number spelt as a float is a grid count as well
    for resolution in ("3", "3.0", "3,3.0"):
        code = run(["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
                    "--metric", "identity", "--resolution", resolution, "--out", stem])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound: 1.000000 bits/step" in out


def test_sweep_diagonal_long_horizon(tmp_path, capsys):
    # the horizon-16 Jacobian products have condition number 2**30, their
    # inverse Gram matrices 2**60
    stem = str(tmp_path / "diag")
    code = run(["sweep", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--horizons", "16", "--resolution", "2", "--out", stem])
    capsys.readouterr()
    assert code == 0
    report = json.load(open(f"{stem}.h16.report.json"))
    assert report["bound"] == pytest.approx(1.0, abs=1e-9)
    assert not report["excluded"]


def test_bound_lanford_reference(tmp_path, capsys):
    stem = str(tmp_path / "lan")
    code = run(["bound", "--system", "lanford", "--a", "0.6667",
                "--metric", "lanford-exp", "--resolution", "21", "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("bound:")][0]
    value = float(line.split()[1])
    assert abs(value - 0.9618) < 1e-3


def test_bound_round_trip_and_deterministic_csv(tmp_path):
    stem1 = str(tmp_path / "a")
    stem2 = str(tmp_path / "b")
    argv = ["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
            "--metric", "identity", "--resolution", "4"]
    assert run(argv + ["--out", stem1]) == 0
    assert run(argv + ["--out", stem2]) == 0
    csv1 = open(f"{stem1}.points.csv").read()
    csv2 = open(f"{stem2}.points.csv").read()
    assert csv1 == csv2
    # each report survives a json round trip, and the two differ in their
    # creation time alone
    rep1, rep2 = (open(f"{stem}.report.json").read() for stem in (stem1, stem2))
    back1, back2 = json.loads(rep1), json.loads(rep2)
    assert rep1 == json.dumps(back1) + "\n" and rep2 == json.dumps(back2) + "\n"
    assert rep1.replace(back1["created"], back2["created"]) == rep2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"system": "linmap", "params": {"matrix": [[2.0, 0.0], [0.0, 0.5]]},
           "box": [[-1, 1], [-1, 1]], "resolution": 3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    stem = str(tmp_path / "cfg")
    code = run(["bound", "--config", str(path), "--metric", "identity",
                "--out", stem])
    assert code == 0
    assert "bound: 1.000000" in capsys.readouterr().out


def test_exit_code_config_error(capsys):
    assert run(["bound", "--system", "nope"]) == 1
    assert run(["bound", "--system", "linmap"]) == 1          # missing matrix
    # continuous-only metric on a discrete system
    assert run(["bound", "--system", "linmap", "--matrix", "diag:2,1",
                "--metric", "lanford-exp"]) == 1
    # discrete-only metric on a continuous system
    assert run(["bound", "--system", "linode", "--matrix", "diag:1,-1",
                "--metric", "auto:x"]) == 1


@pytest.mark.parametrize("command", [
    ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--metric", "identity",
     "--resolution", "3"],
    ["props", "--instances", "1"]])
def test_out_in_no_directory_is_config_error(tmp_path, capsys, command):
    # refused before anything is computed; a file is no directory either
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x", tmp_path / "file" / "x"):
        assert run(command + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: --out {str(out)!r}: "
                                       "no writable directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_zero_time_samples_is_config_error(tmp_path, capsys):
    code = run(["bound", "--system", "lanford", "--metric", "auto:1",
                "--time-samples", "0", "--resolution", "2",
                "--out", str(tmp_path / "ts0")])
    assert code == 1
    assert "time_samples must be at least 1" in capsys.readouterr().err


# --bar-tol and --time-samples next to a metric that does not read them
@pytest.mark.parametrize("argv,message", [
    (["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--metric", "auto:4",
      "--time-samples", "3"], "--time-samples applies to flows only"),
    (["sweep", "--system", "linmap", "--matrix", "diag:2,0.5", "--horizons", "1,2",
      "--time-samples", "3"], "--time-samples applies to flows only"),
    (["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--metric", "identity",
      "--bar-tol", "1e-5"], "apply to auto: metrics only"),
    (["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--metric", "identity",
      "--time-samples", "8"], "apply to auto: metrics only"),
    (["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--bar-tol", "1e-5"],
     "apply to auto: metrics only"),
    (["bound", "--system", "lanford", "--metric", "lanford-exp", "--time-samples", "8"],
     "apply to auto: metrics only"),
    (["bound", "--system", "linode", "--matrix", "diag:1,-1", "--metric",
      "constant:diag:1,2", "--bar-tol", "1e-5"], "apply to auto: metrics only"),
], ids=["map-auto-time-samples", "map-sweep-time-samples", "identity-bar-tol",
        "identity-time-samples", "default-metric-bar-tol", "lanford-exp-time-samples",
        "flow-constant-bar-tol"])
def test_unread_auto_metric_option_is_config_error(tmp_path, capsys, argv, message):
    stem = str(tmp_path / "unread")
    assert run(argv + ["--resolution", "2", "--out", stem]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("spec", ["auto:0", "auto:-1", "auto:inf", "auto:nan"])
def test_flow_auto_horizon_must_be_positive_and_finite(tmp_path, capsys, spec):
    assert run(["bound", "--system", "linode", "--matrix", "diag:0.5,-0.3",
                "--metric", spec, "--resolution", "2", "--out", str(tmp_path / "h")]) == 1
    assert "horizon must be positive and finite" in capsys.readouterr().err


def test_time_samples_set_the_map_step_of_a_flow_metric(tmp_path, capsys):
    stem = str(tmp_path / "ts")
    assert run(["bound", "--system", "linode", "--matrix", "diag:0.5,-0.3",
                "--metric", "auto:2", "--time-samples", "5", "--bar-tol", "1e-9",
                "--resolution", "2", "--out", stem]) == 0
    capsys.readouterr()
    report = json.load(open(f"{stem}.report.json"))
    assert ([report[k] for k in ("metric", "metric_horizon", "map_step")]
            == ["auto:T=2", 2.0, 0.5])


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_nonpositive_bar_tol_is_config_error(tmp_path, capsys, value):
    # at inf every window would pass as converged at its log-Euclidean start
    code = run(["bound", "--system", "linmap", "--matrix", "[[2,1],[0,2]]",
                "--metric", "auto:2", "--bar-tol", value, "--resolution", "2",
                "--out", str(tmp_path / "bt")])
    assert code == 1
    assert (f"barycenter tolerance must be positive and finite, got {float(value):g}"
            in capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "bt.report.json")


@pytest.mark.parametrize("argv", [
    ["bound", "--system", "linmap", "--matrix", "diag:2,x"],
    ["bound", "--system", "linmap", "--matrix", "[1,"],
    ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--box", "0:1,zz"],
    ["bound", "--system", "identity", "--resolution", "abc"],
    ["sweep", "--system", "linmap", "--matrix", "diag:2,0.5", "--horizons", "1,b"],
    ["oracle", "--system", "identity", "--horizons", "5,x"],
    ["bound", "--config", "/nonexistent.json"],
    ["props", "--dims", "1,x"],
    ["props", "--seed", "-1"],
    # --a, --matrix and --dim on a system that does not take them
    ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--a", "0.7"],
    ["bound", "--system", "lanford", "--matrix", "diag:1,1,1"],
    ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--dim", "5"],
    # grid counts that are not whole numbers of at least 2
    ["bound", "--system", "identity", "--resolution", "2.5"],
    ["bound", "--system", "identity", "--resolution", "nan"],
    ["bound", "--system", "identity", "--resolution", "1"],
])
def test_malformed_input_is_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "bad")]) == 1
    assert "configuration error: " in capsys.readouterr().err


# a NaN horizon or record time once made propagation loop forever
@pytest.mark.parametrize("argv", [
    ["oracle", "--system", "lanford", "--resolution", "3", "--horizons", "nan"],
    ["oracle", "--system", "lanford", "--resolution", "3", "--horizons", "5,nan"],
    ["oracle", "--system", "lanford", "--resolution", "3", "--horizons", "nan,5"],
    ["oracle", "--system", "lanford", "--resolution", "3", "--horizons", "inf"],
    ["bound", "--system", "lanford", "--metric", "lanford-exp", "--resolution", "3",
     "--check-invariance", "--check-horizon", "nan"],
    ["bound", "--system", "lanford", "--metric", "lanford-exp", "--resolution", "3",
     "--check-invariance", "--check-horizon", "inf"],
    ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--resolution", "3",
     "--check-invariance", "--check-horizon", "inf"],
    ["lanford", "--resolution", "3", "--check-horizon", "nan"],
])
def test_nonfinite_horizon_is_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "h")]) == 1
    assert "configuration error: " in capsys.readouterr().err


# a repeated horizon once made sweep bound and write it twice, and made the
# oracle's Aitken value read the repeated horizon's value
@pytest.mark.parametrize("argv", [
    ["oracle", "--horizons", "2,2,8"],
    ["sweep", "--horizons", "2,2"],
    ["sweep", "--horizons", "2,4,2.0"],
], ids=["oracle", "sweep", "sweep-spelled-apart"])
def test_repeated_horizon_is_config_error(tmp_path, capsys, argv):
    system = ["--system", "linmap", "--matrix", "[[2,1],[0,0.5]]", "--resolution", "3"]
    assert run([*argv, *system, "--out", str(tmp_path / "rep")]) == 1
    assert "configuration error: horizons must not repeat" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_repeated_config_horizon_is_config_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"system": "identity", "horizons": [1, 1.0]}))
    assert run(["oracle", "--config", str(config), "--out", str(tmp_path / "rep")]) == 1
    assert "configuration error: horizons must not repeat" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"system": "lanford", "params": {"b": 1}},
    {"system": "lanford", "params": [1]},
    {"system": "lanford", "params": {"a": "x"}},
    {"system": "identity", "params": {"dim": 0}},
    {"system": "identity", "params": {"dim": 2.5}},
    [1],
    {"name": "identity"},
    {"system": "identity", "horizons": [1]},
    {"system": "identity", "params": {"dim": 2}, "resolution": [2.5, 3]},
    {"system": "identity", "params": {"dim": 2}, "resolution": 0},
], ids=["unknown-key", "not-an-object", "bad-value", "zero-dim", "fractional-dim",
        "config-not-an-object", "name-alias-key", "horizons-key-on-bound",
        "fractional-resolution", "zero-resolution"])
def test_bad_config_params_is_config_error(tmp_path, capsys, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "bad")]) == 1
    assert "configuration error: " in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_dim_below_one_is_config_error(tmp_path, capsys, dim):
    code = run(["bound", "--system", "identity", "--dim", dim,
                "--out", str(tmp_path / "dim")])
    assert code == 1
    assert f"--dim must be positive, got {dim}" in capsys.readouterr().err


def test_dim_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"system": "identity", "params": {"dim": 2}}))
    stem = str(tmp_path / "id3")
    assert run(["bound", "--config", str(path), "--dim", "3", "--resolution", "2",
                "--out", stem]) == 0
    capsys.readouterr()
    assert json.load(open(f"{stem}.report.json"))["params"] == {"dim": 3}


def test_oracle_and_sweep_csv_bytes_match_csv_module(tmp_path, capsys, csv_table):
    system = linear_map_system(np.diag([2.0, 0.5]))
    region = default_region(system)
    stem = str(tmp_path / "orc")
    assert run(["oracle", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--horizons", "2,4,8", "--resolution", "3", "--out", stem]) == 0
    result = lyapunov_oracle(system, region, horizons=(2, 4, 8), resolution=3)
    csv_table(tmp_path / "orc.ref.csv", ["x0", "x1", "lam1", "lam2"],
              np.hstack([result.states, result.exponents]))
    assert (open(f"{stem}.points.csv", "rb").read()
            == (tmp_path / "orc.ref.csv").read_bytes())

    stem = str(tmp_path / "sw")
    assert run(["sweep", "--system", "linmap", "--matrix", "[[2,1],[0,2]]",
                "--horizons", "1,2,4", "--resolution", "2", "--bar-tol", "1e-5",
                "--out", stem]) == 0
    capsys.readouterr()
    rows = [(h, json.load(open(f"{stem}.h{h:g}.report.json"))["bound"])
            for h in (1.0, 2.0, 4.0)]
    csv_table(tmp_path / "sw.ref.csv", ["horizon", "bound"], rows)
    assert (open(f"{stem}.sweep.csv", "rb").read()
            == (tmp_path / "sw.ref.csv").read_bytes())


def test_cli_import_leaves_scipy_unloaded():
    # the runtime is numpy only; scipy is a reference for the tests alone
    probe = ("import sys, restent, restent.cli, restent.props; "
             "restent.props.run_property_suite(instances=4); "
             "print('scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout.strip() == "False"


def test_seed_flag_only_on_props(capsys):
    for command in ("bound", "sweep", "oracle"):
        assert run([command, "--system", "identity", "--seed", "1"]) == 1
        assert ("configuration error: restent: unrecognized arguments: --seed 1"
                in capsys.readouterr().err)


def test_help_exits_zero(capsys):
    for command in ("bound", "sweep", "oracle", "lanford", "props"):
        with pytest.raises(SystemExit) as done:
            run([command, "--help"])
        assert done.value.code == 0
        assert "--out" in capsys.readouterr().out


_BASE = {
    "sweep": ["sweep", "--system", "linmap", "--matrix", "diag:2,0.5",
              "--horizons", "1", "--resolution", "2"],
    "oracle": ["oracle", "--system", "linmap", "--matrix", "diag:2,0.5",
               "--horizons", "2", "--resolution", "2"],
    "lanford": ["lanford", "--resolution", "3"],
    "props": ["props", "--instances", "1", "--dims", "1"],
}


# every (command, flag) pair that the command accepted without reading it
@pytest.mark.parametrize("command,flag", [
    ("sweep", ["--check-invariance"]),
    ("sweep", ["--check-horizon", "1"]),
    ("oracle", ["--refine"]),
    ("oracle", ["--bar-tol", "5"]),
    ("oracle", ["--time-samples", "8"]),
    ("oracle", ["--check-invariance"]),
    ("oracle", ["--check-horizon", "1"]),
    ("lanford", ["--config", "run.json"]),
    ("lanford", ["--system", "linmap"]),
    ("lanford", ["--matrix", "diag:2,0.5"]),
    ("lanford", ["--dim", "5"]),
    ("lanford", ["--box", "0:1,0:1,0:1"]),
    ("lanford", ["--refine"]),
    ("lanford", ["--bar-tol", "5"]),
    ("lanford", ["--time-samples", "8"]),
    ("lanford", ["--check-invariance"]),
    ("props", ["--tol", "0"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unread_flag_is_usage_error(tmp_path, capsys, command, flag):
    assert run(_BASE[command] + flag + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: restent: unrecognized arguments: {flag[0]}" in err


def test_config_horizons_on_sweep(tmp_path, capsys):
    path = tmp_path / "sw.json"
    path.write_text(json.dumps({"system": "linmap", "params": {"matrix": "diag:2,0.5"},
                                "resolution": 2, "horizons": [1, 2]}))
    stem = str(tmp_path / "sw")
    assert run(["sweep", "--config", str(path), "--out", stem]) == 0
    capsys.readouterr()
    assert open(f"{stem}.sweep.csv").read().splitlines()[1:] == ["1,1", "2,1"]


def test_sweep_non_integer_horizon_of_a_map_is_config_error(tmp_path, capsys):
    stem = str(tmp_path / "frac")
    assert run(["sweep", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--horizons", "2.5", "--resolution", "2", "--out", stem]) == 1
    assert "step counts" in capsys.readouterr().err
    assert not os.path.exists(f"{stem}.sweep.csv")


def test_bound_refine_of_tied_values_evaluates_the_doubled_grid(tmp_path, capsys):
    # every local bound of diag(2, 0.5) is 1, so no cell is ruled out
    stem = str(tmp_path / "ref")
    assert run(["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--resolution", "3", "--refine", "--out", stem]) == 0
    out = capsys.readouterr().out
    report = json.load(open(f"{stem}.report.json"))
    assert report["refinements"] >= 1
    c = 3
    for _ in range(report["refinements"]):
        c = 2 * c - 1
    assert report["resolution"] == [c, c]
    assert len(report["per_point"]) == c * c and not report["excluded"]
    assert report["bound"] == pytest.approx(1.0)
    assert report["bound_kind"] == "grid-adaptive"
    assert "bound: 1.000000 bits/step" in out
    assert f"grid: grid-adaptive, resolution [{c}, {c}], {c * c} points evaluated" in out


# z up to 236.5: P = diag(1, 1, 1/2) e^{3z} is finite (about 1.3e308), but
# its orbital derivative overflows on the top layer of the grid
FAR_BOX = ["bound", "--system", "lanford", "--metric", "lanford-exp", "--resolution", "7"]


def test_excluded_points_label_the_bound(tmp_path, capsys):
    stem = str(tmp_path / "far")
    assert run(FAR_BOX + ["--box=-1:1,-1:1,0:236.5", "--out", stem]) == 0
    out = capsys.readouterr().out
    assert "max over kept points (49 excluded): 0.961797 bits/time" in out
    assert "bound:" not in out
    assert "grid: grid-minus-excluded, resolution [7, 7, 7], 343 points evaluated" in out
    report = json.load(open(f"{stem}.report.json"))
    assert report["bound_kind"] == "grid-minus-excluded"
    assert {e["reason"] for e in report["excluded"]} == {"non-finite orbital derivative"}
    assert {e["state"][2] for e in report["excluded"]} == {236.5}


def test_excluded_points_label_each_sweep_horizon(tmp_path, capsys):
    # after 2 steps of x -> 1e5 x the orbit of every x0 != 0 has blown up
    assert run(["sweep", "--system", "linmap", "--matrix", "[[1e5,0],[0,1]]",
                "--horizons", "1,3", "--resolution", "3",
                "--out", str(tmp_path / "sw")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "horizon 1: bound 16.609640 bits/step"
    assert out[1] == "horizon 3: max over kept points (6 excluded) 16.609640 bits/step"


def test_far_box_is_refused_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(FAR_BOX + ["--box=-1:1,-1:1,235:236.5",
                              "--out", str(tmp_path / "far")]) == 2
        assert run(FAR_BOX + ["--box=-1:1,-1:1,0:236.5", "--refine",
                              "--out", str(tmp_path / "far-refined")]) == 0
        # at z = 240 the metric itself overflows
        assert run(FAR_BOX + ["--box=-1:1,-1:1,0:240", "--out", str(tmp_path / "farther")]) == 0
    assert "every sample point was excluded" in capsys.readouterr().err
    excluded = json.load(open(tmp_path / "farther.report.json"))["excluded"]
    assert len(excluded) == 49
    assert {e["reason"] for e in excluded} == {"metric value is not finite"}


def test_bound_constant_metric(tmp_path, capsys):
    stem = str(tmp_path / "const")
    assert run(["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--metric", "constant:diag:1,4", "--resolution", "3",
                "--out", stem]) == 0
    assert "bound: 1.000000 bits/step" in capsys.readouterr().out
    report = json.load(open(f"{stem}.report.json"))
    assert report["metric"] == "constant"
    assert report["bound"] == pytest.approx(1.0, abs=1e-12)


def test_exit_code_numeric_failure(tmp_path, capsys):
    stem = str(tmp_path / "sing")
    code = run(["bound", "--system", "linmap", "--matrix", "diag:1,0",
                "--metric", "auto:3", "--resolution", "3", "--out", stem])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_oracle_names_the_last_horizon_when_every_point_blows_up(tmp_path, capsys):
    # xdot = 3x from the unit box passes the blow-up norm near t = 6: after
    # the first horizons, before the last one
    code = run(["oracle", "--system", "linode", "--matrix", "diag:3,3", "--resolution", "2",
                "--horizons", "1,2,10", "--out", str(tmp_path / "orc")])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "numeric failure: every sample point blew up by the last horizon t=10")


@pytest.mark.parametrize("matrix,horizons,last", [
    ("[[1e100,0],[0,0.5]]", "1,2,4", "4"),
    ("diag:1e30,0.5", "20", "20"),
], ids=["jacobian-overflows-at-t4", "jacobian-overflows-before-t20"])
def test_map_oracle_excludes_rows_whose_jacobian_overflows(tmp_path, capsys, matrix,
                                                            horizons, last):
    # the rows from x0 = 0 keep a bounded state while their Jacobian passes
    # the float maximum: they escape at that step, as every other row did at
    # the first, instead of reading 0 bits/step or failing in the SVD
    code = run(["oracle", "--system", "linmap", "--matrix", matrix, "--resolution", "3",
                "--horizons", horizons, "--out", str(tmp_path / "orc")])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        f"numeric failure: every sample point blew up by the last horizon t={last}")


def test_constant_metric_that_cannot_serve_the_system_is_config_error(tmp_path, capsys):
    base = ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--resolution", "3",
            "--out", str(tmp_path / "const")]
    assert run(base + ["--metric", "constant:diag:1,1,1"]) == 1
    assert capsys.readouterr().err.strip() == (
        "configuration error: metric dimension 3 != system dimension 2")
    assert run(base + ["--metric", "constant:[[1,0],[0,-1]]"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: metric 'constant:[[1,0],[0,-1]]': "
                          "matrix is not positive definite")
    assert not os.path.exists(tmp_path / "const.report.json")


def test_exit_code_invariance_failure(tmp_path, capsys):
    stem = str(tmp_path / "inv")
    code = run(["bound", "--system", "lanford", "--a", "1.0",
                "--metric", "lanford-exp", "--resolution", "7",
                "--check-invariance", "--check-horizon", "3.0", "--out", stem])
    assert code == 3
    assert "invariance" in capsys.readouterr().err


def test_invariance_check_passes_at_heteroclinic_parameter(tmp_path, capsys):
    stem = str(tmp_path / "inv-ok")
    code = run(["bound", "--system", "lanford", "--metric", "lanford-exp",
                "--resolution", "7", "--check-invariance",
                "--check-horizon", "3.0", "--out", stem])
    assert code == 0
    assert "fraction 0.0000" in capsys.readouterr().out


def test_map_spot_check_over_no_steps_exits_zero(tmp_path, capsys):
    stem = str(tmp_path / "inv-none")
    code = run(["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--metric", "identity", "--resolution", "3", "--check-invariance",
                "--check-horizon", "0", "--out", stem])
    assert code == 0
    assert "invariance spot check: 0/9 escaped" in capsys.readouterr().out


def test_sweep_nonnormal_map(tmp_path, capsys):
    stem = str(tmp_path / "sw")
    code = run(["sweep", "--system", "linmap", "--matrix", "[[2,1],[0,2]]",
                "--horizons", "1,2,4", "--resolution", "2",
                "--bar-tol", "1e-5", "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotone nonincreasing within tolerance: yes" in out
    rows = open(f"{stem}.sweep.csv").read().splitlines()
    assert rows[0] == "horizon,bound"
    assert len(rows) == 4
    first = float(rows[1].split(",")[1])
    last = float(rows[-1].split(",")[1])
    assert abs(first - 2.0) < 1e-9 and abs(last - 2.0) < 0.05


def test_sweep_horizons_in_ascending_order(tmp_path, capsys):
    # the bound tightens from 1.168436 at N = 1 to 1.003282 at N = 8, in
    # whichever order the horizons are given
    stem = str(tmp_path / "down")
    assert run(["sweep", "--system", "linmap", "--matrix", "[[2,1],[0,0.5]]",
                "--horizons", "8,1", "--resolution", "3", "--out", stem]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["horizon 1: bound 1.168436 bits/step",
                       "horizon 8: bound 1.003282 bits/step",
                       "monotone nonincreasing within tolerance: yes"]
    rows = open(f"{stem}.sweep.csv").read().splitlines()
    assert [row.split(",")[0] for row in rows] == ["horizon", "1", "8"]


def test_sweep_lanford_horizons(tmp_path, capsys):
    stem = str(tmp_path / "lansw")
    code = run(["sweep", "--system", "lanford", "--horizons", "0.5,1.5",
                "--resolution", "3", "--time-samples", "8",
                "--bar-tol", "1e-5", "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    rows = open(f"{stem}.sweep.csv").read().splitlines()[1:]
    finals = [float(r.split(",")[1]) for r in rows]
    assert all(abs(v - 0.961797) < 0.1 for v in finals)
    assert "monotone nonincreasing within tolerance: yes" in out


def test_oracle_command(tmp_path, capsys):
    stem = str(tmp_path / "orc")
    code = run(["oracle", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--horizons", "2,4,8", "--resolution", "3", "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    assert "aitken extrapolation: 1.000000" in out
    payload = json.load(open(f"{stem}.report.json"))
    assert payload["kind"] == "oracle"
    assert payload["values"][-1] == pytest.approx(1.0)


def test_array_params_load_back_from_bound_and_oracle_reports(tmp_path, capsys, monkeypatch):
    # the built-in systems store lists; a system built elsewhere may not
    matrix = np.diag([2.0, 0.5])

    def with_array_params(name, **params):
        return dataclasses.replace(linear_map_system(matrix), params={"matrix": matrix})

    monkeypatch.setattr("restent.cli.make_system", with_array_params)
    system = ["--system", "linmap", "--matrix", "diag:2,0.5", "--resolution", "3"]
    assert run(["bound", *system, "--out", str(tmp_path / "b")]) == 0
    assert run(["oracle", *system, "--horizons", "2,4", "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    for stem in ("b", "o"):
        payload = json.load(open(tmp_path / f"{stem}.report.json"))
        assert payload["params"] == {"matrix": [[2.0, 0.0], [0.0, 0.5]]}


@pytest.mark.parametrize("argv,units", [
    (["--system", "linmap", "--matrix", "diag:2,0.5"], "bits/step"),
    (["--system", "lanford"], "bits/time"),
], ids=["map", "lanford"])
def test_oracle_prints_and_reports_the_units_of_its_time_type(tmp_path, capsys, argv, units):
    stem = str(tmp_path / "orc")
    assert run(["oracle", *argv, "--resolution", "3", "--horizons", "2,4",
                "--out", stem]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("t=")]
    assert len(lines) == 2 and all(l.endswith(f" {units}") for l in lines)
    assert json.load(open(f"{stem}.report.json"))["units"] == units


def test_lanford_command(tmp_path, capsys):
    stem = str(tmp_path / "lanf")
    code = run(["lanford", "--resolution", "11", "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    assert "fraction 0.0000" in out
    bound = float([l for l in out.splitlines() if "metric bound" in l][0].split(":")[1].split()[0])
    assert abs(bound - 0.961797) < 1e-4


def test_lanford_command_with_oracle_and_resolution_list(tmp_path, capsys):
    stem = str(tmp_path / "lanf-orc")
    code = run(["lanford", "--resolution", "5,5,5", "--with-oracle", "--out", stem])
    assert code == 0
    assert "oracle at t=40" in capsys.readouterr().out
    payload = json.load(open(f"{stem}.report.json"))
    assert payload["oracle"] == pytest.approx(0.9618, abs=1e-3)


def test_props_command_passes_and_writes(tmp_path, capsys):
    stem = str(tmp_path / "props")
    code = run(["props", "--seed", "42", "--instances", "4", "--dims", "1,2",
                "--out", stem])
    out = capsys.readouterr().out
    assert code == 0
    assert "properties passed" in out
    payload = json.load(open(f"{stem}.report.json"))
    assert payload["seed"] == 42
    assert all(r["passed"] for r in payload["results"])


def test_props_report_counts_the_instances_each_property_ran(tmp_path, capsys):
    # one requested draw over two dimensions runs one per dimension
    stem = str(tmp_path / "one")
    assert run(["props", "--instances", "1", "--dims", "1,4", "--out", stem]) == 0
    out = capsys.readouterr().out
    payload = json.load(open(f"{stem}.report.json"))
    assert payload["instances"] == 1
    printed = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(printed) == len(payload["results"]) == 15
    assert all(l.endswith("(2 instances)") for l in printed)
    assert [r["instances"] for r in payload["results"]] == [2] * 15


@pytest.mark.parametrize("argv", [
    ["bound", "--system", "lanford", "--metric", "lanford-exp", "--resolution", "5"],
    ["oracle", "--system", "lanford", "--resolution", "3", "--horizons", "2,4"],
], ids=["bound", "oracle"])
def test_report_json_rows_are_the_points_csv_rows(tmp_path, capsys, report_tables, argv):
    stem = tmp_path / argv[0]
    assert run(argv + ["--out", str(stem)]) == 0
    capsys.readouterr()
    (columns, json_rows), (header, csv_rows) = report_tables(stem)
    assert columns == header
    assert len(json_rows) > 0
    assert np.array_equal(json_rows, csv_rows, equal_nan=True)


@pytest.mark.parametrize("argv,report", [
    (["bound", "--system", "identity", "--dim", "2"], "{}.report.json"),
    (["sweep", "--system", "linmap", "--matrix", "diag:2,0.5", "--horizons", "1,2",
      "--resolution", "2"], "{}.h2.report.json"),
    (["oracle", "--system", "linmap", "--matrix", "diag:2,0.5", "--horizons", "2,4",
      "--resolution", "2"], "{}.report.json"),
    (["props", "--instances", "2", "--dims", "1"], "{}.report.json"),
], ids=["bound", "sweep", "oracle", "props"])
def test_every_report_has_one_shape(tmp_path, capsys, argv, report):
    stem = str(tmp_path / argv[0])
    assert run(argv + ["--out", stem]) == 0
    capsys.readouterr()
    payload = json.load(open(report.format(stem)))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["kind"] == ("bound" if argv[0] == "sweep" else argv[0])
    assert payload["created"]


def test_closed_stdout_exits_141_quietly():
    # the read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "restent.cli", "props",
                               "--instances", "4"], stdout=write_end,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC})
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


@pytest.mark.parametrize("dims", ["0", "2,-1"])
def test_props_dims_below_one_is_config_error(tmp_path, capsys, dims):
    code = run(["props", "--dims", dims, "--instances", "1",
                "--out", str(tmp_path / "props")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "one or more dims >= 1" in err


@pytest.mark.parametrize("argv", [
    ["--matrix", "diag:2,0.5", "--box", "0:inf,0:1"],
    ["--matrix", "diag:2,nan"],
    ["--matrix", "diag:2,inf"],
], ids=["infinite-box", "nan-matrix", "infinite-matrix"])
def test_nonfinite_box_or_matrix_is_config_error(tmp_path, capsys, argv):
    code = run(["bound", "--system", "linmap", *argv, "--resolution", "3",
                "--out", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "finite" in err


def test_props_violation_exit_code(monkeypatch, capsys):
    from restent import props
    from restent.props import PropertyResult

    def fake_suite(seed=42, instances=50, dims=(1, 2, 3, 5), names=None):
        return [PropertyResult(name="forced", instances=1, worst=1.0,
                               tolerance=1e-9)]

    # cmd_props looks the suite up on the props module at call time
    monkeypatch.setattr(props, "run_property_suite", fake_suite)
    assert run(["props"]) == 4
    assert "FAIL" in capsys.readouterr().out
