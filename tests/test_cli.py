import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from restent.cli import main
from restent.entropy import BoundReport


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
    report = BoundReport.from_json(f"{stem}.report.json")
    assert report.bound == 0.0


def test_bound_linmap_diagonal(tmp_path, capsys):
    stem = str(tmp_path / "lin")
    code = run(["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
                "--metric", "identity", "--resolution", "3", "--out", stem])
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
    report = BoundReport.from_json(f"{stem}.h16.report.json")
    assert report.bound == pytest.approx(1.0, abs=1e-9)
    assert not report.excluded


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
    rep = BoundReport.from_json(f"{stem1}.report.json")
    rep.to_json(f"{stem1}.again.json")
    assert BoundReport.from_json(f"{stem1}.again.json") == rep


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


def test_zero_time_samples_is_config_error(tmp_path, capsys):
    code = run(["bound", "--system", "lanford", "--metric", "auto:1",
                "--time-samples", "0", "--resolution", "2",
                "--out", str(tmp_path / "ts0")])
    assert code == 1
    assert "time_samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_bar_tol_is_config_error(tmp_path, capsys, value):
    code = run(["bound", "--system", "linmap", "--matrix", "[[2,1],[0,2]]",
                "--metric", "auto:2", "--bar-tol", value, "--resolution", "2",
                "--out", str(tmp_path / "bt")])
    assert code == 1
    assert "--bar-tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bound", "--system", "linmap", "--matrix", "diag:2,x"],
    ["bound", "--system", "linmap", "--matrix", "[1,"],
    ["bound", "--system", "linmap", "--matrix", "diag:2,0.5", "--box", "0:1,zz"],
    ["bound", "--system", "identity", "--resolution", "abc"],
    ["sweep", "--system", "linmap", "--matrix", "diag:2,0.5", "--horizons", "1,b"],
    ["oracle", "--system", "identity", "--horizons", "5,x"],
    ["bound", "--config", "/nonexistent.json"],
    ["props", "--dims", "1,x"],
])
def test_malformed_input_is_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "bad")]) == 1
    assert "configuration error: " in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is the property suite's independent reference, not a start-up cost
    probe = "import sys, restent.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout.strip() == "False"


def test_seed_flag_only_on_props(capsys):
    for command in ("bound", "sweep", "oracle"):
        with pytest.raises(SystemExit):
            run([command, "--system", "identity", "--seed", "1"])
    capsys.readouterr()


def test_exit_code_numeric_failure(tmp_path, capsys):
    stem = str(tmp_path / "sing")
    code = run(["bound", "--system", "linmap", "--matrix", "diag:1,0",
                "--metric", "auto:3", "--resolution", "3", "--out", stem])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


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


def test_props_zero_tolerance_is_config_error(capsys):
    assert run(["props", "--tol", "0"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_props_violation_exit_code(monkeypatch, capsys):
    from restent import props
    from restent.props import PropertyResult

    def fake_suite(seed=42, instances=50, dims=(1, 2, 3, 5), names=None):
        return [PropertyResult(name="forced", instances=1, worst=1.0,
                               tolerance=1e-9)]

    # cmd_props imports the suite when it runs
    monkeypatch.setattr(props, "run_property_suite", fake_suite)
    assert run(["props"]) == 4
    assert "FAIL" in capsys.readouterr().out
