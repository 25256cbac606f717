import json
import os

import pytest

from liesys import cli

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def run_scenario(name, tmp_path, extra=()):
    path = os.path.join(SCENARIO_DIR, name)
    return cli.main(["run", path, "--out", str(tmp_path), *extra])


def write_scenario(tmp_path, body, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_list_catalog(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "milne_pinney" in out
    assert "generalized_ermakov" in out
    for pipeline in cli.PIPELINES:
        assert pipeline in out
    reduce_line = next(line for line in out.splitlines()
                       if line.split()[:1] == ["reduce"])
    for method in cli.REDUCE_METHODS:
        assert method in reduce_line


def test_reduce_rejects_an_unlisted_method(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "pipeline": "reduce", "method": "pinney_from_pinney",
        "initial_states": [[1.0, 0.0], [1.0, 0.0]], "t_span": [0.0, 1.0],
    })
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 2
    assert "method" in capsys.readouterr().err


def test_integrate_equilibrium_scenario(tmp_path):
    assert run_scenario("integrate_pinney_equilibrium.json", tmp_path) == 0
    csv = (tmp_path / "pinney_equilibrium.csv").read_text().splitlines()
    assert csv[0] == "time,y0,y1"
    # the equilibrium stays put in every row
    for line in csv[1:]:
        _, x, v = line.split(",")
        assert abs(float(x) - 1.0) < 1e-7 and abs(float(v)) < 1e-7
    summary = json.loads((tmp_path / "pinney_equilibrium_summary.json").read_text())
    assert summary["pass"] is True


def test_integrate_summary_reports_solver_statistics(tmp_path):
    assert run_scenario("integrate_pinney_equilibrium.json", tmp_path) == 0
    summary = json.loads((tmp_path / "pinney_equilibrium_summary.json").read_text())
    run = summary["runs"][0]
    sysd = cli.build_system({"name": "milne_pinney", "k": 1.0,
                             "frequency": {"name": "constant", "omega_squared": 1.0}})
    traj = sysd.integrate([1.0, 0.0], (0.0, 10.0))
    assert run["accepted_steps"] == len(traj.times) - 1
    assert run["nfev"] == traj.nfev
    # DOP853 spends 12 stages on every accepted step
    assert run["nfev"] >= 12 * run["accepted_steps"] > 0


def test_verify_algebra_scenario(tmp_path):
    assert run_scenario("verify_algebra_ermakov.json", tmp_path) == 0
    rows = (tmp_path / "ermakov_algebra.csv").read_text().splitlines()
    assert rows[0] == "pair,max_residual"
    assert len(rows) == 4  # three generator pairs
    for line in rows[1:]:
        assert float(line.split(",")[1]) < 1e-9


def test_superpose_pinney_scenario_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_scenario("superpose_pinney.json", out1) == 0
    assert run_scenario("superpose_pinney.json", out2) == 0
    name = "pinney_superpose.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reduce_scenario(tmp_path):
    assert run_scenario("reduce_oscillator.json", tmp_path) == 0
    header = (tmp_path / "oscillator_reduction.csv").read_text().splitlines()[0]
    assert header == "time,tau,reduced_x,reference_x,abs_error,det_drift"


def test_minimal_m_scenario(tmp_path):
    assert run_scenario("minimal_m_oscillator.json", tmp_path) == 0
    summary = json.loads((tmp_path / "oscillator_m_summary.json").read_text())
    assert summary["m"] == 2


def test_group_solve_scenario(tmp_path):
    assert run_scenario("group_solve_two_plus_sin.json", tmp_path) == 0
    summary = json.loads((tmp_path / "group_two_plus_sin_summary.json").read_text())
    assert summary["max_det_drift"] < 1e-9
    assert summary["max_action_error"] < 1e-6


def test_tol_override_can_force_failure(tmp_path):
    assert run_scenario("reduce_oscillator.json", tmp_path,
                        extra=["--tol-override", "1e-20"]) == 1


def test_unknown_system_is_usage_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "pipeline": "integrate",
        "system": {"name": "pendulum"},
        "initial_states": [[1.0, 0.0]],
        "t_span": [0.0, 1.0],
    })
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 2
    assert "system.name" in capsys.readouterr().err


def test_dimension_mismatch_is_usage_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "pipeline": "integrate",
        "system": {"name": "ermakov"},
        "initial_states": [[1.0, 0.0]],  # needs 4 components
        "t_span": [0.0, 1.0],
    })
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 2
    assert "initial_states" in capsys.readouterr().err


def test_runtime_singularity_reported(tmp_path, capsys):
    # attractive k < 0 drives the solution into x = 0: nonzero exit plus a
    # summary carrying the last good time
    path = write_scenario(tmp_path, {
        "pipeline": "integrate",
        "system": {"name": "milne_pinney", "k": -1.0,
                   "frequency": {"name": "constant", "omega_squared": 1.0}},
        "initial_states": [[0.5, -1.0]],
        "t_span": [0.0, 5.0],
        "output": {"csv": "sing.csv"},
    })
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "sing_summary.json").read_text())
    assert summary["pass"] is False
    assert 0.0 < summary["last_good_time"] < 5.0


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path))
    path = os.path.join(SCENARIO_DIR, "minimal_m_oscillator.json")
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "oscillator_m_summary.json").exists()


def test_every_shipped_scenario_validates():
    # each example file names a known pipeline/system and carries a seed
    names = sorted(os.listdir(SCENARIO_DIR))
    assert len(names) >= 14
    for name in names:
        with open(os.path.join(SCENARIO_DIR, name)) as fh:
            scn = json.load(fh)
        assert scn["pipeline"] in cli.PIPELINES
        assert "seed" in scn
