import copy
import csv
import functools
import glob
import importlib
import inspect
import json
import math
import operator
import os
import pathlib
import re
import runpy
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from liesys import acceptance, cli, group, invariants, systems

integrate_module = importlib.import_module("liesys.integrate")

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
MANIFEST = runpy.run_path(os.path.join(os.path.dirname(__file__), "update_manifest.py"))


def run_scenario(name, tmp_path, extra=()):
    path = os.path.join(SCENARIO_DIR, name)
    return cli.main(["run", path, "--out", str(tmp_path), *extra])


def write_scenario(tmp_path, body, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_the_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "scn.json", "--seed", "x"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "invalid int value: 'x'" in errors[0]
    assert cli.main(["list"]) == 0


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
    # the profiles and shapes come from their registries
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert set(cli.FREQUENCY_PROFILES) | set(cli.SHAPE_FUNCTIONS) <= listed
    assert "t_switch=5.0, before=1.0, after=4.0" in out
    for shapes in cli.SHAPE_FUNCTIONS.values():
        assert shapes().description in out


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
    traj.dense(np.linspace(0.0, 10.0, 201))  # as the pipeline reads it
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


@pytest.mark.parametrize("x0", [0.7, 0.35, 1.4])
def test_a_pinney_target_at_rest_runs(x0, tmp_path):
    # against y = (1, 0), z = (0, 1), the target (x0, 0) has 4 I1 I2 - k W^2 = 0,
    # whose roundoff may read below 0
    with open(os.path.join(SCENARIO_DIR, "superpose_pinney.json")) as fh:
        scn = json.load(fh)
    scn["initial_states"][2] = [x0, 0.0]
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "pinney_superpose_summary.json").read_text())
    assert summary["pass"] is True


def test_pinney_rule_on_a_target_that_crosses_zero_fails_its_oracle(tmp_path):
    # with k = 0 the Pinney target is an oscillator solution, which crosses 0,
    # while the rule returns |x| in x0's half-plane: the oracle check fails
    with open(os.path.join(SCENARIO_DIR, "superpose_pinney.json")) as fh:
        scn = json.load(fh)
    scn["system"]["k"] = 0.0
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "pinney_superpose_summary.json").read_text())
    assert summary["pass"] is False
    assert summary["max_error"] > summary["threshold"]


def test_pinney_rule_that_leaves_its_domain_reports_the_last_good_time(tmp_path, capsys):
    # k = -0.5 against y = (1, 0), z = (0, 1): x^2 = (x0 y + v0 z)^2 + k z^2 / x0^2
    # falls to 0, and the run ends at the last sample of y before it does
    with open(os.path.join(SCENARIO_DIR, "superpose_pinney.json")) as fh:
        scn = json.load(fh)
    scn["system"]["k"] = -0.5
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 1
    assert "nonpositive radicand" in capsys.readouterr().err
    summary = json.loads((tmp_path / "pinney_superpose_summary.json").read_text())
    osc = cli.build_system(scn["system"], "oscillator_1d")
    y, z = (osc.integrate(state, tuple(scn["t_span"])).states[:, 0]
            for state in scn["initial_states"][:2])
    (x0, v0), k = scn["initial_states"][2], scn["system"]["k"]
    first_bad = np.argmax((x0 * y + v0 * z) ** 2 + k * z * z / x0**2 <= 0.0)
    assert first_bad > 0
    assert summary["last_good_time"] == osc.integrate(
        [1.0, 0.0], tuple(scn["t_span"])).times[first_bad - 1]


@pytest.mark.parametrize("k", [0.0, -1.0])
def test_pinney_self_with_k_not_positive_is_a_usage_error(k, tmp_path, capsys,
                                                          monkeypatch):
    # the field alone decides it, so nothing is solved
    monkeypatch.setattr(systems, "integrate", None)
    with open(os.path.join(SCENARIO_DIR, "reduce_pinney_self.json")) as fh:
        scn = json.load(fh)
    scn["system"]["k"] = k
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(out)]) == 2
    assert "usage error in field 'system.k'" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_scenario(tmp_path):
    assert run_scenario("reduce_oscillator.json", tmp_path) == 0
    header = (tmp_path / "oscillator_reduction.csv").read_text().splitlines()[0]
    assert header == "time,tau,reduced_x,reference_x,abs_error"


def test_minimal_m_scenario(tmp_path):
    assert run_scenario("minimal_m_oscillator.json", tmp_path) == 0
    summary = json.loads((tmp_path / "oscillator_m_summary.json").read_text())
    assert summary["m"] == 2


@pytest.mark.parametrize("name", sorted(systems.SYSTEM_FACTORIES))
def test_minimal_m_rows_agree_with_m(name, tmp_path):
    # one row per copy count up to m: full rank at m, below it before
    path = write_scenario(tmp_path, {"pipeline": "minimal-m", "system": name,
                                     "output": {"csv": "m.csv"}})
    rank = len(cli.build_system(name).generators)
    for seed in range(10):
        assert cli.main(["run", path, "--seed", str(seed), "--out", str(tmp_path)]) == 0
        m = json.loads((tmp_path / "m_summary.json").read_text())["m"]
        with open(tmp_path / "m.csv") as fh:
            rows = [(int(c), int(r)) for c, r in list(csv.reader(fh))[1:]]
        assert [c for c, _ in rows] == list(range(1, m + 1))
        assert rows[-1][1] == rank
        assert all(r < rank for _, r in rows[:-1])


def test_the_probing_pipelines_sample_the_half_plane_of_the_scenario(tmp_path,
                                                                       monkeypatch):
    sample_domain, signs = systems.SystemDef.sample_domain, []

    def spy(self, rng, count=1, **kwargs):
        probes = sample_domain(self, rng, count, **kwargs)
        signs.extend(np.sign(p[0]) for p in probes)
        return probes
    monkeypatch.setattr(systems.SystemDef, "sample_domain", spy)
    for pipeline in ("verify-algebra", "minimal-m"):
        path = write_scenario(tmp_path, {"pipeline": pipeline, "system": {
            "name": "milne_pinney", "half_plane": -1}})
        assert cli.main(["run", path, "--out", str(tmp_path)]) == 0
    assert len(signs) > 100 and set(signs) == {-1.0}


def test_group_solve_scenario(tmp_path):
    assert run_scenario("group_solve_two_plus_sin.json", tmp_path) == 0
    summary = json.loads((tmp_path / "group_two_plus_sin_summary.json").read_text())
    assert summary["max_det_drift"] < 1e-9
    assert summary["max_action_error"] < 1e-6


# Two targets each: every target gets a run and a CSV of its own.
MULTI_TARGET = {
    "superpose_pinney": {
        "pipeline": "superpose", "rule": "pinney", "t_span": [0.0, 10.0],
        "system": {"name": "milne_pinney", "frequency": "two_plus_sin"},
        "initial_states": [[1.0, 0.0], [0.0, 1.0], [0.7, 0.4], [1.2, -0.3]]},
    "reduce_pinney_self": {
        "pipeline": "reduce", "method": "pinney-self", "t_span": [0.0, 5.0],
        "system": {"frequency": "constant"},
        "initial_states": [[1.3, 0.2], [0.8, 0.5], [1.1, -0.4]]},
    "reduce_pinney_osc": {
        "pipeline": "reduce", "method": "pinney-osc", "t_span": [0.0, 1.2],
        "system": {"frequency": "constant"},
        "initial_states": [[1.0, 0.3], [0.8, 0.5], [1.1, -0.4]]},
    "group_solve": {  # 3 samples: the solver's nodes hold the worst |det - 1|
        "pipeline": "group-solve", "t_span": [0.0, 10.0], "samples": 3,
        "system": {"frequency": "two_plus_sin"},
        "initial_states": [[1.0, 0.5], [-0.3, 1.1]]},
}
WORST_ERROR = {"superpose": "max_error", "reduce": "max_rel_error",
               "group-solve": "max_action_error"}


@pytest.mark.parametrize("case", sorted(MULTI_TARGET))
def test_every_target_gets_a_run_and_a_csv(case, tmp_path):
    body = {**MULTI_TARGET[case], "output": {"csv": "multi.csv"}}
    assert cli.main(["run", write_scenario(tmp_path, body),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "multi_summary.json").read_text())
    runs, key = summary["runs"], WORST_ERROR[body["pipeline"]]
    assert [run["initial_state"] for run in runs] == body["initial_states"][-2:]
    assert summary[key] == max(run[key] for run in runs) > 0.0
    assert summary["csv_files"] == ["multi_target0.csv", "multi_target1.csv"]
    tables = [(tmp_path / name).read_text().splitlines()
              for name in summary["csv_files"]]
    assert tables[0][0] == tables[1][0] and tables[0] != tables[1]
    if case == "group_solve":
        osc = cli.build_system(body["system"], "oscillator_1d")
        sol = group.solve_group_equation(
            lambda t: group.Sl2Vector(*(-b(t) for b in osc.coefficients)),
            (0.0, 10.0))
        nodes = np.max(np.abs(np.linalg.det(sol.states.reshape(-1, 2, 2)) - 1.0))
        assert summary["max_det_drift"] >= nodes
        # the worst |det - 1| of the samples and of the solver's nodes
        samples = np.linalg.det(sol.dense(np.linspace(0.0, 10.0, 3)).reshape(-1, 2, 2))
        assert summary["max_det_drift"] == max(np.max(np.abs(samples - 1.0)), nodes)


def test_the_oracles_of_all_targets_are_one_lane_solve(tmp_path):
    # one target: the plain solo solve; two: the lanes of one solve
    body = MULTI_TARGET["superpose_pinney"]
    mp = cli.build_system(body["system"])
    times = np.linspace(0.0, 10.0, 201)
    for count, names in ((1, ["s.csv"]), (2, ["s_target0.csv", "s_target1.csv"])):
        targets = body["initial_states"][2:2 + count]
        scn = {**body, "initial_states": body["initial_states"][:2] + targets,
               "output": {"csv": "s.csv"}}
        out = tmp_path / str(count)
        assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(out)]) == 0
        for name, ref in zip(names, mp.integrate_lanes(targets, (0.0, 10.0))):
            with open(out / name, newline="") as fh:
                column = [float(row["reference_x"]) for row in csv.DictReader(fh)]
            assert column == ref.position(times).tolist()

    # the forms of one target: the oracle is the solo solve, bit for bit
    for form in ("superpose-linear", "superpose-quadrature", "reduce-dalembert"):
        scn = closed_form_scenario(form, "two_plus_sin")
        osc, span = cli.build_system(scn["system"]), scn["t_span"]
        (x0, v0), (k_prime, k) = scn["initial_states"][0], scn["keys"]
        target = {
            "superpose-linear": lambda: scn["initial_states"][2],
            "superpose-quadrature": lambda: [k_prime * x0, k_prime * v0 + k / x0],
            "reduce-dalembert": lambda: group.reduce_oscillator(
                osc.integrate([x0, v0], span), k_prime, k).states[0],
        }[form]()
        _, _, [(_, header, rows)] = closed_form_run(scn)(scn)
        times = np.linspace(*span, scn["samples"])
        assert ([row[header.index("reference_x")] for row in rows]
                == osc.integrate(target, span).position(times).tolist())

    # group-solve: each target's action error against its lane
    scn = closed_form_scenario("group-solve", "two_plus_sin")
    states, span = scn["initial_states"], scn["t_span"]
    times = np.linspace(*span, scn["samples"])
    lanes = cli.build_system(scn["system"]).integrate_lanes(states, span)
    _, _, files = cli.pipeline_group_solve(scn)
    for p0, lane, (_, header, rows) in zip(states, lanes, files):
        rows = np.array(list(rows))
        g = rows[:, 1:5].copy().reshape(-1, 2, 2)  # g11, g12, g21, g22
        err = integrate_module.compare(g @ p0, lane.dense(times), "rel")
        assert rows[:, header.index("action_error")].tolist() == err.tolist()


# --- error floors of the closed forms ------------------------------------------
# Each closed form meets its DOP853 oracle to the oracle's tolerance, far below
# the shipped thresholds (1e-8 to 1e-5), which pass a 1e-7 relative defect in
# a closed form.

CLOSED_FORMS = {
    "superpose-linear": ("superpose", {"rule": "linear"}),
    "superpose-quadrature": ("superpose", {"rule": "quadrature"}),
    "superpose-pinney": ("superpose", {"rule": "pinney"}),
    "reduce-dalembert": ("reduce", {"method": "dalembert"}),
    "reduce-pinney-osc": ("reduce", {"method": "pinney-osc"}),
    "reduce-pinney-self": ("reduce", {"method": "pinney-self"}),
    "group-solve": ("group-solve", {}),
}


def closed_form_scenario(form, frequency):
    """The scenario of one closed form on ``frequency``, its states drawn
    from one seed: |x0| and |v0| in [0.3, 1.5] (so B != 0) and Pinney
    targets in both half-planes.  x1 lies in the half-plane x > 0 on
    ``constant`` and x < 0 on ``two_plus_sin``; the oscillator x1 starts at
    x = +-1 and moves away from 0."""
    rng = np.random.default_rng(6)

    def draw(count, sides=(1,)):
        x, v = rng.uniform(0.3, 1.5, (2, count))
        return [[sides[i % len(sides)] * float(x[i]), float(rng.choice((-1, 1)) * v[i])]
                for i in range(count)]

    side = 1 if frequency == "constant" else -1
    x1 = [[side * 1.0, side * float(rng.uniform(0.1, 0.4))]]
    keys = [float(k) for k in rng.uniform(0.3, 1.0, 2)]
    pipeline, fields = CLOSED_FORMS[form]
    states, t_span = {
        "superpose-linear": (draw(3), 3.0),
        "superpose-quadrature": (x1, 0.9),
        "superpose-pinney": (draw(2) + draw(4, (1, -1)), 3.0),
        "reduce-dalembert": (x1, 0.9),
        "reduce-pinney-osc": (x1 + draw(2, (1, -1)), 0.9),
        "reduce-pinney-self": (draw(1, (side,)) + draw(2, (1, -1)), 3.0),
        "group-solve": (draw(2), 3.0),
    }[form]
    name = "milne_pinney" if form == "superpose-pinney" else "oscillator_1d"
    # k only where it is read: the Pinney rule and the reductions
    k = {"k": 1.3} if form == "superpose-pinney" or pipeline == "reduce" else {}
    return {"pipeline": pipeline, **fields, "initial_states": states, "keys": keys,
            "system": {"name": name, **k, "frequency": frequency},
            "t_span": [0.0, t_span], "samples": 41}


def closed_form_run(scn):
    """The pipeline function that runs ``scn``."""
    return getattr(cli, "pipeline_" + scn["pipeline"].replace("-", "_"))


@pytest.mark.parametrize("frequency", ["constant", "two_plus_sin"])
@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_closed_form_errors_track_the_integrator_tolerance(form, frequency):
    scn = closed_form_scenario(form, frequency)
    run = closed_form_run(scn)
    errors = []
    for tol in (1e-8, 1e-12):
        _, summary, _ = run({**scn, "tolerances": {"abs": tol, "rel": tol}})
        errors.append(summary[WORST_ERROR[scn["pipeline"]]])
    assert errors[1] < 1e-9, errors
    assert errors[0] >= 100.0 * errors[1], errors


# The first scenario state that is an oracle target, for the forms whose
# targets are scenario states; the others compute their one target.
FIRST_TARGET = {"superpose-linear": 2, "superpose-pinney": 2, "reduce-pinney-osc": 1,
                "reduce-pinney-self": 1, "group-solve": 0}


@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_each_closed_form_meets_all_its_oracles_in_one_call(form, monkeypatch):
    scn = closed_form_scenario(form, "constant")
    calls = []
    oracle_runs = cli._oracle_runs
    monkeypatch.setattr(cli, "_oracle_runs",
                        lambda *args: calls.append(args[1]) or oracle_runs(*args))
    closed_form_run(scn)(scn)
    [targets] = calls
    if form in FIRST_TARGET:
        states = scn["initial_states"][FIRST_TARGET[form]:]
        assert np.asarray(targets).tolist() == states
    else:
        assert len(targets) == 1


def test_the_pinney_targets_of_the_error_floors_take_both_branches():
    # each half-plane with each sign of the rule's root r = P Q - k y z / x^2
    scn = closed_form_scenario("superpose-pinney", "constant")
    (y, vy), (z, vz), *targets = scn["initial_states"]
    k = scn["system"]["k"]
    cases = set()
    for x0, v0 in targets:
        root = (y * v0 - x0 * vy) * (x0 * vz - z * v0) - k * y * z / x0**2
        cases.add((math.copysign(1.0, x0), math.copysign(1.0, root)))
    assert cases == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


@pytest.mark.parametrize("k, target", [(0.0, [2.0, 0.6]), (-0.5, [1.0, 0.3])])
def test_pinney_osc_runs_for_k_not_positive(k, target, tmp_path):
    # k = 0 with the target 2 x1 on x1's ray, and k = -0.5, where x^2 falls
    # toward 0: both closed forms meet their oracle
    path = write_scenario(tmp_path, {
        "pipeline": "reduce", "method": "pinney-osc",
        "system": {"k": k, "frequency": {"name": "constant", "omega_squared": 1.0}},
        "initial_states": [[1.0, 0.3], target], "t_span": [0.0, 1.0],
        "output": {"csv": "r.csv"}})
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "r_summary.json").read_text())
    assert summary["max_rel_error"] < 1e-8


def test_pinney_osc_reports_the_last_sample_before_s_vanishes(tmp_path, capsys):
    # k = -0.5 and the target x1's own state: on d'Alembert's pair (x1, x1 tau)
    # x^2 = x1^2 s(tau) with s = 1 - tau^2 / 2, which vanishes at tau = sqrt 2.
    # On x1 = cos t + 0.3 sin t, tau(t) = (tan(t - phi) + 0.3) / 1.09 with
    # tan phi = 0.3, so s > 0 exactly at the samples before t*.
    body = {"pipeline": "reduce", "method": "pinney-osc",
            "system": {"k": -0.5,
                       "frequency": {"name": "constant", "omega_squared": 1.0}},
            "initial_states": [[1.0, 0.3], [1.0, 0.3]], "t_span": [0.0, 1.5],
            "output": {"csv": "r.csv"}}
    path = write_scenario(tmp_path, body)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 1
    assert "nonpositive radicand" in capsys.readouterr().err
    summary = json.loads((tmp_path / "r_summary.json").read_text())
    t_star = math.atan(1.09 * math.sqrt(2.0) - 0.3) + math.atan(0.3)
    osc = cli.build_system(body["system"], "oscillator_1d")
    x1 = osc.integrate([1.0, 0.3], (0.0, 1.5))
    assert summary["last_good_time"] == x1.times[x1.times < t_star][-1]


@pytest.mark.parametrize("name, y0", [("milne_pinney", [0.0, 1.0]),
                                      ("pinney_triple", [0.0, 1.0, 0.5, 1.0, 0.0, 0.3])])
def test_a_k_zero_pinney_system_runs_through_x_zero(name, y0, tmp_path):
    path = write_scenario(tmp_path, {
        "pipeline": "integrate", "system": {"name": name, "k": 0},
        "initial_states": [y0], "t_span": [0, 3], "output": {"csv": "i.csv"}})
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 0


def test_a_k_zero_pinney_triple_drifts_through_x_zero(tmp_path):
    # with k = 0 the pair invariants have no k (y/x)^2 term to be singular
    path = write_scenario(tmp_path, {
        "pipeline": "drift", "system": {"name": "pinney_triple", "k": 0},
        "initial_states": [[0, 1, 0.5, 1, 0, 0.3]], "t_span": [0, 3],
        "output": {"csv": "d.csv"}})
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "d_summary.json").read_text())
    assert [run["partial"] for run in summary["runs"]] == [False] * 3


DRIFT = {"pipeline": "drift", "t_span": [0.0, 5.0],
         "system": {"name": "ermakov", "frequency": "two_plus_sin"},
         "invariant": "lewis_ermakov", "output": {"csv": "d.csv"},
         "initial_states": [[0.3, 1.0, 1.2, -0.2], [-0.5, 0.4, 0.8, 0.1]]}


def _drift_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(row["time"]) for row in rows], [float(row["value"]) for row in rows]


def test_drift_solves_its_states_as_lanes_of_one_solve(tmp_path):
    assert cli.main(["run", write_scenario(tmp_path, DRIFT), "--out", str(tmp_path)]) == 0
    sysd = cli.build_system(DRIFT["system"])
    lewis = sysd.invariants["lewis_ermakov"]
    lanes = sysd.integrate_lanes(DRIFT["initial_states"], (0.0, 5.0))
    for i, lane in enumerate(lanes):
        times, values = _drift_columns(tmp_path / f"d_run{i}.csv")
        assert times == lane.times.tolist()
        assert values == invariants.drift(lane.times, lane.states, lewis).values.tolist()


def test_one_state_drift_is_the_solo_solve(tmp_path):
    scn = {**DRIFT, "initial_states": DRIFT["initial_states"][:1]}
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 0
    sysd = cli.build_system(DRIFT["system"])
    solo = sysd.integrate(scn["initial_states"][0], (0.0, 5.0))
    series = invariants.drift(solo.times, solo.states, sysd.invariants["lewis_ermakov"])
    running = np.maximum.accumulate(np.abs(series.values - series.values[0]))
    cli.write_csv(tmp_path / "solo.csv", ["time", "value", "running_drift"],
                  zip(series.times, series.values, running))
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()


@pytest.mark.parametrize("span", [[0.0, 5.0], [5.0, 0.0]])
def test_integrate_reports_the_final_state_at_t1(span, tmp_path):
    # the summary's final_state is the CSV's last row, at t_span[1], on a
    # reversed span too
    with open(os.path.join(SCENARIO_DIR, "integrate_ermakov.json")) as fh:
        scn = {**json.load(fh), "t_span": span}
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "ermakov_orbit_summary.json").read_text())
    with open(tmp_path / "ermakov_orbit.csv", newline="") as fh:
        last = [float(cell) for cell in list(csv.reader(fh))[-1]]
    assert last[0] == span[1]
    assert summary["runs"][0]["final_state"] == last[1:]
    assert summary["runs"][0]["final_state"] != scn["initial_states"][0]


@pytest.mark.parametrize("span", [[0.0, 20.0], [20.0, 0.0]])
def test_drift_runs_from_t0(span, tmp_path):
    # each CSV starts at t_span[0] with I(y0) and a running drift of 0, on a
    # reversed span too
    with open(os.path.join(SCENARIO_DIR, "drift_lewis_ermakov.json")) as fh:
        scn = {**json.load(fh), "t_span": span}
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 0
    lewis = cli.build_system(scn["system"]).invariants["lewis_ermakov"]
    for i, y0 in enumerate(scn["initial_states"]):
        with open(tmp_path / f"lewis_drift_run{i}.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["time"]) == span[0]
        assert float(first["value"]) == lewis(np.array(y0))
        assert float(first["running_drift"]) == 0.0


def test_drift_without_an_invariant_runs_all_of_the_system(tmp_path):
    scn = {**DRIFT, "system": {"name": "pinney_triple", "frequency": "two_plus_sin"},
           "initial_states": [[1.0, 0.3, -0.2, 0.1, 0.5, 0.4],
                              [1.5, -0.6, 0.7, -0.3, 0.2, -0.1]]}
    del scn["invariant"]
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "d_summary.json").read_text())
    names = ["pair_i1", "pair_i2", "wronskian"]
    assert "invariant" not in summary
    assert [(run["initial_state"], run["invariant"]) for run in summary["runs"]] == [
        (state, name) for state in scn["initial_states"] for name in names]
    assert summary["csv_files"] == [f"d_run{j}.csv" for j in range(6)]
    # every run reads its state's lane on the grid all lanes share
    times = [_drift_columns(tmp_path / name)[0] for name in summary["csv_files"]]
    assert all(column == times[0] for column in times)


@pytest.mark.parametrize("system", ["milne_pinney", "oscillator_1d"])
def test_drift_of_a_system_without_invariants_says_so(system, tmp_path, capsys):
    scn = {**INTEGRATE, "pipeline": "drift", "system": {"name": system}}
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert (f"usage error in field 'invariant': system {system} has no registered "
            "invariant") in err
    assert "null" not in err


# Shipped scenarios with t_span reversed: the closed forms are anchored at the
# first sample, so superpose's quadrature and pinney rules and every reduction
# refuse a reversed span before any work; the pipelines without a closed form
# anchored there run backwards.
@pytest.mark.parametrize("name, change, status", [
    ("superpose_pinney.json", {}, 2),
    ("superpose_quadrature.json", {}, 2),
    ("reduce_oscillator.json", {}, 2),
    ("reduce_pinney_self.json", {}, 2),
    ("reduce_pinney_self.json", {"method": "pinney-osc"}, 2),
    ("integrate_ermakov.json", {}, 0),
    ("drift_lewis_ermakov.json", {}, 0),
    ("superpose_linear.json", {}, 0),
    ("group_solve_two_plus_sin.json", {}, 0),
], ids=["superpose_pinney", "superpose_quadrature", "reduce_dalembert",
        "reduce_pinney_self", "reduce_pinney_osc", "integrate", "drift",
        "superpose_linear", "group_solve"])
def test_reversed_t_span(name, change, status, tmp_path, capsys):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = {**json.load(fh), **change}
    scn["t_span"] = scn["t_span"][::-1]
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(out)]) == status
    if status == 2:
        assert "usage error in field 't_span'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("name, change", [
    ("superpose_quadrature.json", {}),
    ("reduce_oscillator.json", {}),
    ("reduce_pinney_self.json",
     {"method": "pinney-osc", "initial_states": [[0.0, 1.0], [0.8, 0.5]]}),
], ids=["superpose_quadrature.json", "reduce_oscillator.json", "pinney_osc"])
def test_vanishing_x1_with_k_nonzero_is_a_runtime_error(name, change, tmp_path, capsys,
                                                        monkeypatch):
    # x1(t0) = 0: tau, and the target velocity k / x1(t0), are undefined
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = {**json.load(fh), "initial_states": [[0.0, 1.0]], **change}
    if name.startswith("superpose"):  # it stops before any solve
        monkeypatch.setattr(systems, "integrate", None)
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(out)]) == 1
    assert "runtime error" in capsys.readouterr().err
    # the summary alone, with no good time to report
    stem = scn["output"]["csv"][:-len(".csv")]
    assert os.listdir(out) == [f"{stem}_summary.json"]
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    assert summary["pass"] is False and summary["last_good_time"] is None


@pytest.mark.parametrize("name", ["superpose_quadrature.json", "reduce_oscillator.json"])
def test_x1_vanishing_inside_the_span_exits_1_with_the_last_good_time(name, tmp_path,
                                                                      capsys):
    # tau is defined up to the last sample before x1 vanishes
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = {**json.load(fh), "t_span": [0.0, 2.0]}
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 1
    assert "vanishes inside the quadrature window" in capsys.readouterr().err
    stem = scn["output"]["csv"][:-len(".csv")]
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert summary["pass"] is False and summary["pipeline"] == scn["pipeline"]
    assert 0.0 < summary["last_good_time"] < 2.0


@pytest.mark.parametrize("name, x0", [
    ("superpose_pinney.json", 1e-200), ("superpose_pinney.json", 1e200),
    ("reduce_pinney_self.json", 1e-200), ("reduce_pinney_self.json", 1e200)])
def test_a_pinney_target_out_of_range_is_a_runtime_error(name, x0, tmp_path, capsys):
    # k / x0^2 or x0^2 overflows: the map reports it, and numpy warns nothing
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = json.load(fh)
    scn["initial_states"][-1][0] = x0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_scenario(tmp_path, scn),
                         "--out", str(tmp_path)]) == 1
    assert "runtime error" in capsys.readouterr().err
    stem = scn["output"]["csv"][:-len(".csv")]
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert summary["pass"] is False and summary["last_good_time"] is None


@pytest.mark.parametrize("name, field, stderr_lines", [
    ("integrate_ermakov.json", ("initial_states", 0, 0), 1),
    ("integrate_pinney_equilibrium.json", ("initial_states", 0, 0), 1),
    ("verify_algebra_triple.json", ("system", "k"), 0)])
def test_a_value_at_the_float_limit_ends_without_a_numpy_warning(
        name, field, stderr_lines, tmp_path, capsys):
    # x = 1e308 overflows the first steps and k = 1e308 the brackets: each run
    # exits 1, after a runtime error or a failed check, and numpy warns nothing
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = json.load(fh)
    functools.reduce(operator.getitem, field[:-1], scn)[field[-1]] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_scenario(tmp_path, scn),
                         "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == stderr_lines
    assert all(line.startswith("runtime error: ") for line in err)
    stem = scn["output"]["csv"][:-len(".csv")]
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert summary["pass"] is False


def _reject(constant):
    """parse_constant for json.loads: strict JSON holds no NaN or Infinity."""
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


CELLS = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
         np.float64(2.0 / 3.0), np.float64(-0.0), np.float64(math.nan),
         np.float64(-math.inf), np.float64(5e-324), np.float32(0.1), np.float32(-0.0),
         np.float32(math.inf), 7, -3, np.int64(-2**63), True, False, np.bool_(True),
         np.bool_(False), "name", ""]


def test_write_csv_keeps_the_per_cell_rule_byte_for_byte(tmp_path):
    # float and numpy floating cells by f"{c:.17g}", every other one by str,
    # joined by "," and "\n": rows given as a list, a zip of arrays and an
    # enumerate, with the cell types mixed within rows and across them
    rng = np.random.default_rng(5)
    mixed = [[CELLS[j] for j in rng.integers(len(CELLS), size=rng.integers(1, 6))]
             for _ in range(200)] + [[]]
    floats = rng.normal(size=(3, 50)).astype(np.float32)
    cases = [(lambda: mixed, ["a", "b"]),
             (lambda: zip(np.array(CELLS[:8]), floats[0, :8], np.arange(8), CELLS[-8:]),
              ["t", "x", "i", "tag"]),
             (lambda: enumerate(floats[1]), ["i", "x"]),
             (lambda: enumerate(CELLS), ["i", "cell"])]
    for i, (rows, header) in enumerate(cases):
        path = tmp_path / f"cells{i}.csv"
        cli.write_csv(path, header, rows())
        want = [",".join(header)] + [
            ",".join(f"{c:.17g}" if isinstance(c, (float, np.floating)) else str(c)
                     for c in row) for row in rows()]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode(), i


def test_a_summary_is_strict_json_with_non_finite_values_as_strings(tmp_path):
    path = tmp_path / "summary.json"
    cli.write_summary(path, {"nan": math.nan, "inf": math.inf, "ninf": -np.inf,
                             "runs": [{"err": np.float64(0.25)}, (np.int64(3), True)],
                             "array": np.array([np.nan, 2.0]), "zero": np.float32(0.0)})
    summary = json.loads(path.read_text(), parse_constant=_reject)
    assert summary == {"nan": "NaN", "inf": "Infinity", "ninf": "-Infinity",
                       "runs": [{"err": 0.25}, [3, True]], "array": ["NaN", 2.0],
                       "zero": 0.0}
    assert float(summary["inf"]) == math.inf and float(summary["ninf"]) == -math.inf
    assert math.isnan(float(summary["nan"]))


def test_a_nan_residual_fails_verify_algebra_and_is_written(tmp_path):
    # k = 1e308 makes each pair's brackets NaN at some probes (an inf Jacobian
    # entry times 0), and N2-N3's inf at most others: each pair's worst is
    # NaN, which the CSV writes as nan and the summary as the string "NaN"
    with open(os.path.join(SCENARIO_DIR, "verify_algebra_triple.json")) as fh:
        scn = json.load(fh)
    scn["system"]["k"] = 1e308
    assert cli.main(["run", write_scenario(tmp_path, scn), "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "triple_algebra.csv").read_text().splitlines()
    assert rows == ["pair,max_residual", "N1-N2,nan", "N1-N3,nan", "N2-N3,nan"]
    summary = json.loads((tmp_path / "triple_algebra_summary.json").read_text(),
                         parse_constant=_reject)
    assert summary["pass"] is False and summary["worst_residual"] == "NaN"


@pytest.mark.parametrize("name", ["integrate_ermakov.json", "reduce_oscillator.json"])
def test_an_unwritable_out_is_a_usage_error(name, tmp_path, capsys):
    # a run that passes, and one that exits 1 (x1 vanishes in its span) and
    # writes its summary alone
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = {**json.load(fh), "t_span": [0.0, 2.0]}
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["run", write_scenario(tmp_path, scn),
                     "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'--out'" in err[0] and "Not a directory" in err[0]


def test_verify_into_an_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [acceptance.criterion_2])
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["verify", "--out", str(blocker)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'--out'" in err[0] and "File exists" in err[0]
    assert blocker.read_text() == ""


def test_quadrature_rule_with_k_zero_needs_no_tau(tmp_path):
    # x2 = k' x1 when k = 0, so x1(t0) = 0 is no obstacle
    with open(os.path.join(SCENARIO_DIR, "superpose_quadrature.json")) as fh:
        scn = {**json.load(fh), "initial_states": [[0.0, 1.0]], "keys": [0.2, 0.0]}
    assert cli.main(["run", write_scenario(tmp_path, scn),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "quadrature_superpose_summary.json").read_text())
    assert summary["runs"][0]["initial_state"] == [0.0, 0.2]
    assert summary["max_error"] < 1e-8


def test_dalembert_with_k_zero_still_needs_x1_nonzero_at_t0(tmp_path, capsys):
    # d'Alembert's pair divides its v column by x1 whatever the keys, so at
    # x1(t0) = 0 the reduction stops where the quadrature rule with k = 0 runs
    with open(os.path.join(SCENARIO_DIR, "reduce_oscillator.json")) as fh:
        scn = {**json.load(fh), "initial_states": [[0.0, 1.0]], "keys": [0.2, 0.0]}
    assert cli.main(["run", write_scenario(tmp_path, scn),
                     "--out", str(tmp_path)]) == 1
    assert "runtime error" in capsys.readouterr().err
    summary = json.loads((tmp_path / "oscillator_reduction_summary.json").read_text())
    assert summary["pass"] is False and summary["last_good_time"] is None


def test_run_takes_two_options():
    # a run's threshold comes from its scenario alone: no option sets it
    args = cli.build_parser().parse_args(["run", "scn.json"])
    assert set(vars(args)) == {"verb", "func", "scenario", "out", "seed"}


def test_a_pipeline_reads_its_scenario_alone(tmp_path):
    # every pipeline takes the scenario only; --seed reaches it as the
    # scenario's seed, and the loaded scenario is a copy
    for name in cli.PIPELINES:
        run = getattr(cli, "pipeline_" + name.replace("-", "_"))
        assert list(inspect.signature(run).parameters) == ["scn"]
    with open(os.path.join(SCENARIO_DIR, "verify_algebra_ermakov.json")) as fh:
        scn = json.load(fh)
    _, summary, files = cli.pipeline_verify_algebra({**scn, "seed": 3})
    assert run_scenario("verify_algebra_ermakov.json", tmp_path, ["--seed", "3"]) == 0
    stem = scn["output"]["csv"][:-len(".csv")]
    written = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert written["seed"] == 3
    assert written["worst_residual"] == summary["worst_residual"]
    with open(tmp_path / f"{stem}.csv", newline="") as fh:
        rows = [(row["pair"], float(row["max_residual"])) for row in csv.DictReader(fh)]
    assert rows == [(pair, res) for pair, res in files[0][2]]


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


def test_step_budget_exits_1_with_the_last_good_time(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 50)
    path = write_scenario(tmp_path, {
        "pipeline": "integrate",
        "system": {"name": "oscillator_1d",
                   "frequency": {"name": "constant", "omega_squared": 1.0}},
        "initial_states": [[1.0, 0.0]],
        "t_span": [0.0, 200.0],
        "output": {"csv": "long.csv"},
    })
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 1
    assert "after 50 steps" in capsys.readouterr().err
    summary = json.loads((tmp_path / "long_summary.json").read_text())
    assert summary["pass"] is False
    assert 0.0 < summary["last_good_time"] < 200.0


def test_shipped_runs_and_verify_import_no_scipy(shipped_outputs):
    proc, _ = shipped_outputs
    assert proc.returncode == 0, proc.stderr
    count, modules = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert int(count) == len(os.listdir(SCENARIO_DIR)) >= 14
    assert modules == "[]"


def test_outputs_match_the_manifest(shipped_outputs):
    # every file the shipped scenarios and verify --seed 0 write, byte for
    # byte; the hashes hold only under the versions that produced them
    proc, out = shipped_outputs
    assert proc.returncode == 0, proc.stderr
    with open(MANIFEST["MANIFEST"]) as fh:
        manifest = json.load(fh)
    here = MANIFEST["versions"]()
    if {key: manifest[key] for key in here} != here:
        pytest.skip(f"manifest written under Python {manifest['python']}, numpy "
                    f"{manifest['numpy']}; this is Python {here['python']}, "
                    f"numpy {here['numpy']}")
    moved = MANIFEST["moves"](manifest["files"], MANIFEST["digests"](out))
    assert not moved, (f"outputs that differ from tests/output_manifest.json "
                       f"(run tests/update_manifest.py if the move is meant): {moved}")


def test_the_manifest_compare_reports_the_largest_numeric_move():
    old = "time,x\n0.0,1.0\n0.5,-2.0\n1.0,0.0\n"
    new = "time,x\n0.0,1.0\n0.5,-2.5\n1.0,1e-16\n"
    assert MANIFEST["numeric_move"](old, new) == (0.5, float("inf"))  # from 0
    assert MANIFEST["numeric_move"](old, old.replace("-2.0", "-1.5")) == (0.5, 0.25)
    assert MANIFEST["numeric_move"](old, old) == (0.0, 0.0)
    assert MANIFEST["numeric_move"](old, old + "1.5,nan\n") is None
    assert MANIFEST["numeric_move"](old, old.replace("x", "v")) is None


def test_the_manifest_outputs_are_every_seed_and_verify(tmp_path, monkeypatch):
    # --outputs runs the scenarios at each seed into a directory of its own
    # and verify --seed 0 into another, and leaves the manifest as it is
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["update_manifest.py", "--outputs", str(tmp_path)])
    monkeypatch.setattr(sys, "path", sys.path[:])  # main puts src on it
    with open(MANIFEST["MANIFEST"]) as fh:
        manifest = fh.read()
    MANIFEST["main"]()
    scenarios = sorted(glob.glob(os.path.join(MANIFEST["SCENARIO_DIR"], "*.json")))
    assert calls == [["run", path, "--out", str(tmp_path / f"seed{seed}"),
                      "--seed", str(seed)] for seed in (0, 1, 7) for path in scenarios] + [
        ["verify", "--seed", "0", "--out", str(tmp_path / "verify")]]
    with open(MANIFEST["MANIFEST"]) as fh:
        assert fh.read() == manifest


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


INTEGRATE = {"pipeline": "integrate", "system": {"name": "oscillator_1d"},
             "initial_states": [[1.0, 0.0]], "t_span": [0.0, 1.0]}
NAN_FREQUENCY = {"name": "oscillator_1d",
                 "frequency": {"name": "constant", "omega_squared": math.nan}}
BAD_FIELDS = {
    "nan_state": ({**INTEGRATE, "initial_states": [[math.nan, 0.0]]},
                  "initial_states"),
    "string_state": ({**INTEGRATE, "initial_states": [["1", 0.0]]},
                     "initial_states"),
    "too_many_states": ({**INTEGRATE,
                         "initial_states": [[1.0, 0.0]] * (cli.MAX_STATES + 1)},
                        "initial_states"),
    "nan_abs_tol": ({**INTEGRATE, "tolerances": {"abs": math.nan}},
                    "tolerances.abs"),
    "infinite_span": ({**INTEGRATE, "t_span": [0.0, math.inf]}, "t_span"),
    "string_span": ({**INTEGRATE, "t_span": ["0", 1.0]}, "t_span"),
    "string_samples": ({**INTEGRATE, "samples": "201"}, "samples"),
    "fractional_samples": ({**INTEGRATE, "samples": 2.9}, "samples"),
    "too_many_samples": ({**INTEGRATE, "samples": cli.MAX_SAMPLES + 1}, "samples"),
    "nan_seed": ({**INTEGRATE, "seed": math.nan}, "seed"),
    "negative_seed": ({"pipeline": "verify-algebra", "system": {"name": "ermakov"},
                       "seed": -1}, "seed"),
    "negative_seed_minimal_m": ({"pipeline": "minimal-m",
                                 "system": {"name": "oscillator_1d"}, "seed": -1},
                                "seed"),
    "nan_frequency": ({**INTEGRATE, "system": NAN_FREQUENCY}, "system.frequency"),
    "string_k": ({**INTEGRATE, "system": {"name": "milne_pinney", "k": "1"}},
                 "system.k"),
    "string_keys": ({**INTEGRATE, "pipeline": "superpose", "rule": "quadrature",
                     "keys": ["0.4", 0.7]}, "keys"),
    "zero_probes": ({"pipeline": "verify-algebra", "system": {"name": "ermakov"},
                     "probes": 0}, "probes"),
    "too_many_probes": ({"pipeline": "verify-algebra", "system": {"name": "ermakov"},
                         "probes": cli.MAX_PROBES + 1}, "probes"),
    "zero_half_plane": ({"pipeline": "verify-algebra",
                         "system": {"name": "milne_pinney", "half_plane": 0}},
                        "system.half_plane"),
    "zero_half_plane_minimal_m": ({"pipeline": "minimal-m",
                                   "system": {"name": "ermakov", "half_plane": 0}},
                                  "system.half_plane"),
    "fractional_max_copies": ({"pipeline": "minimal-m",
                               "system": {"name": "oscillator_1d"},
                               "max_copies": 2.5}, "max_copies"),
    "zero_max_copies": ({"pipeline": "minimal-m", "system": {"name": "oscillator_1d"},
                         "max_copies": 0}, "max_copies"),
    "too_many_max_copies": ({"pipeline": "minimal-m",
                             "system": {"name": "oscillator_1d"},
                             "max_copies": cli.MAX_COPIES + 1}, "max_copies"),
    "string_expected_m": ({"pipeline": "minimal-m",
                           "system": {"name": "oscillator_1d"},
                           "expected_m": "2"}, "expected_m"),
    "number_as_system": ({**INTEGRATE, "system": 3}, "system"),
    "number_as_frequency": ({**INTEGRATE, "system": {"name": "oscillator_1d",
                                                     "frequency": 2.0}},
                            "system.frequency"),
    "number_as_tolerances": ({**INTEGRATE, "tolerances": 1e-6}, "tolerances"),
    # below the solver's floor: the solve would warn and run at the floor
    "rel_tol_below_the_floor": ({**DRIFT, "tolerances": {"rel": 1e-16}},
                                "tolerances.rel"),
    "list_as_system_name": ({**INTEGRATE, "system": {"name": ["oscillator_1d"]}},
                            "system.name"),
    "list_as_frequency_name": ({**INTEGRATE, "system": {
        "name": "oscillator_1d", "frequency": {"name": ["constant"]}}},
        "system.frequency"),
    "list_as_shapes": ({**INTEGRATE, "system": {"name": "generalized_ermakov",
                                                "shapes": ["quadratic"]}},
                       "system.shapes"),
    "no_invariant_of_the_system": ({**INTEGRATE, "pipeline": "drift"}, "invariant"),
    "list_as_invariant": ({**INTEGRATE, "pipeline": "drift",
                           "system": {"name": "ermakov"},
                           "invariant": ["lewis_ermakov"]}, "invariant"),
    "number_as_output_csv": ({**INTEGRATE, "output": {"csv": 3}}, "output.csv"),
    "directory_as_output_csv": ({**INTEGRATE, "output": {"csv": "sub/"}},
                                "output.csv"),
    "string_as_output": ({**INTEGRATE, "output": "x.csv"}, "output"),
    "string_as_dalembert_keys": ({**INTEGRATE, "pipeline": "reduce",
                                  "method": "dalembert", "keys": "x"}, "keys"),
    # reduce and group-solve build from the frequency and k, and still check
    # the scenario's own system name
    "unknown_system_reduce": ({**INTEGRATE, "pipeline": "reduce",
                               "method": "pinney-osc", "system": "bogus",
                               "initial_states": [[1.0, 0.0], [1.0, 0.0]]},
                              "system.name"),
    "list_as_system_name_reduce": ({**INTEGRATE, "pipeline": "reduce",
                                    "method": "dalembert", "keys": [0.0, 1.0],
                                    "system": {"name": ["x"]}}, "system.name"),
    "unknown_system_name_group_solve": ({**INTEGRATE, "pipeline": "group-solve",
                                         "system": {"name": "bogus"}},
                                        "system.name"),
    "list_as_system_name_group_solve": ({**INTEGRATE, "pipeline": "group-solve",
                                         "system": {"name": ["x"]}},
                                        "system.name"),
    # a system or tolerances key that the pipeline never reads
    "k_and_shapes_of_ermakov": ({**INTEGRATE, "system": {
        "name": "ermakov", "k": "abc", "shapes": 7, "frequency": "two_plus_sin"}},
        "system.k"),
    "shapes_of_milne_pinney": ({**INTEGRATE, "system": {"name": "milne_pinney",
                                                        "shapes": "quadratic"}},
                               "system.shapes"),
    "unknown_system_key": ({**INTEGRATE, "system": {"name": "oscillator_1d",
                                                    "omega": 1.0}}, "system.omega"),
    "half_plane_of_integrate": ({**INTEGRATE, "system": {"name": "oscillator_1d",
                                                         "half_plane": 1}},
                                "system.half_plane"),
    "half_plane_of_drift": ({**DRIFT, "system": {**DRIFT["system"], "half_plane": 1}},
                            "system.half_plane"),
    "shapes_of_reduce": ({**INTEGRATE, "pipeline": "reduce", "method": "pinney-osc",
                          "system": {"shapes": "quadratic"},
                          "initial_states": [[1.0, 0.0], [1.0, 0.0]]},
                         "system.shapes"),
    "k_of_group_solve": ({**INTEGRATE, "pipeline": "group-solve",
                          "system": {"frequency": "two_plus_sin", "k": 1.0}},
                         "system.k"),
    "threshold_of_integrate": ({**INTEGRATE, "tolerances": {"threshold": 1e-3}},
                               "tolerances.threshold"),
    "unknown_tolerance": ({**DRIFT, "tolerances": {"abs": 1e-10, "atol": 1e-10}},
                          "tolerances.atol"),
    "rel_of_verify_algebra": ({"pipeline": "verify-algebra", "system": "ermakov",
                               "tolerances": {"threshold": 1e-9, "rel": 1e-10}},
                              "tolerances.rel"),
    "abs_of_verify_algebra": ({"pipeline": "verify-algebra", "system": "ermakov",
                               "tolerances": {"abs": 1e-10}}, "tolerances.abs"),
    "threshold_of_minimal_m": ({"pipeline": "minimal-m", "system": "oscillator_1d",
                                "tolerances": {"threshold": 1e-3}},
                               "tolerances.threshold"),
    # a closed form of a fixed number of states takes no more: the extra
    # state would never be read
    "fourth_state_linear": ({**INTEGRATE, "pipeline": "superpose", "rule": "linear",
                             "initial_states": [[1.0, 0.0], [0.0, 1.0], [0.7, -0.4],
                                                [0.2, 0.1]]}, "initial_states"),
    "second_state_quadrature": ({**INTEGRATE, "pipeline": "superpose",
                                 "rule": "quadrature", "keys": [0.2, 1.0],
                                 "initial_states": [[1.0, 0.0], [0.0, 1.0]]},
                                "initial_states"),
    "second_state_dalembert": ({**INTEGRATE, "pipeline": "reduce",
                                "method": "dalembert", "keys": [0.4, 0.7],
                                "initial_states": [[1.0, 0.3], [0.8, 0.5]]},
                               "initial_states"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_bad_field_is_usage_error(case, tmp_path, capsys, monkeypatch):
    # every bad field exits 2 before any work: no solve has started
    solves = []
    dop853 = integrate_module._dop853
    monkeypatch.setattr(integrate_module, "_dop853",
                        lambda *args: solves.append(args) or dop853(*args))
    body, field = BAD_FIELDS[case]
    assert cli.main(["run", write_scenario(tmp_path, body),
                     "--out", str(tmp_path)]) == 2
    assert f"usage error in field '{field}'" in capsys.readouterr().err
    assert solves == []


def _fields(node, path=()):
    """The path of every field under ``node``: object members and list
    items, at every depth."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _leaves(node):
    """Every value under ``node`` that is neither an object nor a list."""
    if not isinstance(node, (dict, list)):
        yield node
        return
    for child in node.values() if isinstance(node, dict) else node:
        yield from _leaves(child)


# The strings by which a summary writes a non-finite value.
NON_FINITE = ("NaN", "Infinity", "-Infinity")


def _shipped():
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json"))):
        with open(path) as fh:
            yield os.path.basename(path), json.load(fh)


def _unshipped():
    """Bases for the systems that no shipped scenario uses: integrate and
    drift of generalized_ermakov with each shape pair, and of pinney_triple
    at k = 1 and k = 0.  Each runs and passes as it stands.  (They live here:
    perfbench's shipped workload reads every file under scenarios/.)"""
    ermakov = [[1.0, 0.2, 1.3, -0.1], [0.8, -0.3, 1.1, 0.25]]
    triple = [[1.0, 0.5, -0.3, 0.2, 0.1, 0.4], [-0.9, 0.3, 0.6, -0.1, 0.2, -0.2]]
    # x is an oscillator under zero_one shapes, so its lanes reach x = 0 by t = 0.88
    systems = {f"generalized_{shapes}": ({"name": "generalized_ermakov",
                                          "shapes": shapes}, ermakov, "generalized",
                                         [0.0, 5.0 if shapes == "quadratic" else 0.6])
               for shapes in ("quadratic", "zero_one")}
    systems.update({f"pinney_triple_k{k}": ({"name": "pinney_triple", "k": float(k)},
                                            triple, "wronskian", [0.0, 5.0])
                    for k in (1, 0)})
    for name, (system, states, invariant, t_span) in systems.items():
        system = {**system, "frequency": "two_plus_sin"}
        yield f"integrate_{name}.json", {
            "pipeline": "integrate", "system": system, "initial_states": states[:1],
            "t_span": t_span, "samples": 51, "seed": 0, "output": {"csv": "orbit.csv"}}
        yield f"drift_{name}.json", {
            "pipeline": "drift", "system": system, "invariant": invariant,
            "initial_states": states, "t_span": t_span,
            "tolerances": {"abs": 1e-10, "rel": 1e-10, "threshold": 1e-6}, "seed": 0,
            "output": {"csv": "drift.csv"}}


# One field of a base scenario deleted or set to an odd value, or one of its
# names set to a name that nothing registers: (file name, ((field, value),)).
SHIPPED = dict(_shipped())
BASES = {**SHIPPED, **dict(_unshipped())}
DELETE = object()
ODD_VALUES = [DELETE, math.nan, math.inf, -math.inf, -0.0, 1e308, 1e-300, 2**62,
              -1, 0, "x", [], None]
NAME_FIELDS = [("pipeline",), ("system", "name"), ("system", "frequency"),
               ("system", "shapes"), ("rule",), ("method",), ("invariant",)]
MUTATIONS = [(name, ((field, value),)) for name, scn in BASES.items()
             for field, values in [*((f, ODD_VALUES) for f in _fields(scn)),
                                   *((f, ["no_such_name"]) for f in NAME_FIELDS)]
             for value in values]
# The extreme magnitudes of x0 and y0 that once hung a solve (a NaN f(t0)
# from inf / inf, or from 0 / 0 once x^3 underflows), set together in the
# first state of each base of a system that takes them; each one is run.
EXTREME_PAIRS = [(name, ((("initial_states", 0, 0), x0),
                         (("initial_states", 0, 2 if "generalized" in name else 1), y0)))
                 for name in BASES if name not in SHIPPED
                 for x0, y0 in ((1e103, 1e300), (1e-110, 1.0))]
MUTATIONS += EXTREME_PAIRS


@pytest.mark.parametrize("name", sorted(set(BASES) - set(SHIPPED)))
def test_each_held_base_runs_and_passes(name, tmp_path):
    assert cli.main(["run", write_scenario(tmp_path, BASES[name], name),
                     "--out", str(tmp_path)]) == 0


class _Reads(dict):
    """A scenario that adds to ``reads`` the path of each key read of it,
    and of its objects ``system`` and ``tolerances``."""

    def __init__(self, body, reads, prefix=""):
        super().__init__({key: _Reads(value, reads, f"{key}.")
                          if not prefix and key in ("system", "tolerances")
                          and isinstance(value, dict) else value
                          for key, value in body.items()})
        self._reads, self._prefix = reads, prefix

    def __contains__(self, key):
        self._reads.add(self._prefix + key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self._reads.add(self._prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._reads.add(self._prefix + key)
        return super().get(key, default)


def _listed(pipeline, system_names):
    """The fields that ``liesys list`` names for ``pipeline``: its notes
    dropped, field.{a, b} spelled out, and "system" as the name, frequency
    and parameters of each system of ``system_names``."""
    line = re.sub(r"\([^)]*\)", "", cli.PIPELINES[pipeline])
    line = re.sub(r"([\w.]+)\.\{([^}]*)\}", lambda m: ", ".join(
        f"{m[1]}.{key.strip()}" for key in m[2].split(",")), line)
    fields = {field.strip(" []") for field in line.split(",")}
    if "system" in fields:
        factories = [systems.SYSTEM_FACTORIES[name] for name in system_names]
        fields |= {"system.name", "system.frequency"} | {
            f"system.{param}" for factory in factories
            for param in list(inspect.signature(factory).parameters)[1:]}
    return fields - {"system"}


@pytest.mark.parametrize("pipeline", cli.PIPELINES)
def test_the_catalog_names_every_field_a_pipeline_reads_and_accepts(pipeline,
                                                                     monkeypatch):
    # each base of the pipeline runs on a scenario that records its reads,
    # and the pipeline passes _only_reads the keys of system and tolerances
    # that it accepts: on each base the accepted keys are the keys read, and
    # over all of them the reads are the fields of the catalog's line
    scenarios = [scn for scn in BASES.values() if scn["pipeline"] == pipeline]
    if pipeline == "reduce":  # the one method no base runs, before x1 vanishes
        scenarios.append({**SHIPPED["reduce_pinney_self.json"], "method": "pinney-osc",
                          "t_span": [0.0, 1.0]})
    accepted, only_reads = set(), cli._only_reads
    monkeypatch.setattr(cli, "_only_reads", lambda cfg, read, field: (
        accepted.update(f"{field}.{key}" for key in read), only_reads(cfg, read, field)))
    every_read = set()
    for scn in scenarios:
        reads = set()
        accepted.clear()
        with np.errstate(all="ignore"):
            getattr(cli, "pipeline_" + pipeline.replace("-", "_"))(
                _Reads({"tolerances": {}, **scn}, reads))
        reads -= {"system", "tolerances"}
        assert {read for read in reads
                if read.startswith(("system.", "tolerances."))} == accepted
        every_read |= reads
    names = {scn["system"]["name"] for scn in scenarios if "name" in scn["system"]}
    assert _listed(pipeline, names) == every_read


def _run_each(mutations):
    """hypothesis's ``example`` of each of ``mutations``."""
    def decorate(test):
        for mutation in mutations:
            test = example(mutation)(test)
        return test
    return decorate


@_run_each(EXTREME_PAIRS)
@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(MUTATIONS))
def test_a_mutated_scenario_ends_in_a_documented_way(tmp_path, capsys, monkeypatch,
                                                     mutation):
    # it runs, exits 2 naming a field before any solve, or exits 1 with a
    # failed summary that carries the last good time when a solve or closed
    # form broke off
    name, changes = mutation
    scn = copy.deepcopy(BASES[name])
    for field, value in changes:
        parent = functools.reduce(operator.getitem, field[:-1], scn)
        if value is DELETE:
            del parent[field[-1]]
        else:
            parent[field[-1]] = value
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    capsys.readouterr()
    solves = []
    dop853 = integrate_module._dop853
    with monkeypatch.context() as patch:
        patch.setattr(integrate_module, "_dop853",
                      lambda *args: solves.append(args) or dop853(*args))
        status = cli.main(["run", write_scenario(out, scn, name), "--out", str(out)])
    assert status in (0, 1, 2)
    summaries = [json.loads(path.read_text(), parse_constant=_reject)
                 for path in out.glob("*_summary.json")]
    if status == 2:
        assert "usage error in field '" in capsys.readouterr().err
        assert solves == []
    elif status == 1:
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["pass"] is False
        assert "error" not in summary or "last_good_time" in summary
    else:  # a run that passes reports only finite numbers
        assert len(summaries) == 1
        assert [value for value in _leaves(summaries[0]) if value in NON_FINITE
                or isinstance(value, float) and not math.isfinite(value)] == []


# Finite scenarios whose derivative at t0 is NaN: inf / inf once x^3 and
# (y / x)^2 overflow, or 0 / 0 once x^3 underflows.  No exit of the solver's
# step loop held for NaN, and each ran until it was killed.
NAN_AT_T0 = {
    "quadratic_overflow": {
        "pipeline": "integrate", "t_span": [0.0, 10.0],
        "system": {"name": "generalized_ermakov", "shapes": "quadratic"},
        "initial_states": [[1e103, 0.0, 1e300, 0.0]]},
    "quadratic_overflow_drift": {
        "pipeline": "drift", "invariant": "generalized", "t_span": [0.0, 10.0],
        "system": {"name": "generalized_ermakov", "shapes": "quadratic"},
        "initial_states": [[1e103, 0.0, 1e300, 0.0]]},
    "zero_one_underflow": {
        "pipeline": "integrate", "t_span": [0.0, 10.0],
        "system": {"name": "generalized_ermakov", "shapes": "zero_one"},
        "initial_states": [[1e-110, 0.0, 1.0, 0.0]]},
}


def test_a_nan_derivative_at_t0_exits_1_at_t0_at_once(tmp_path):
    # in a subprocess under a timeout, so that a hang fails the test; each
    # run is timed inside it, past the interpreter's start
    code = textwrap.dedent("""
        import sys, time
        from liesys import cli
        out, *paths = sys.argv[1:]
        for path in paths:
            start = time.perf_counter()
            status = cli.main(["run", path, "--out", out])
            print(status, time.perf_counter() - start)
    """)
    paths = [write_scenario(tmp_path, scn, f"{name}.json") for name, scn in NAN_AT_T0.items()]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(os.path.join(SCENARIO_DIR, os.pardir, "src"))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), *paths],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.split("\n")[:-1]
    assert len(lines) == len(NAN_AT_T0)
    for name, line in zip(NAN_AT_T0, lines):
        status, seconds = line.split()
        assert status == "1" and float(seconds) < 1.0, (name, line)
        summary = json.loads((tmp_path / f"{name}_summary.json").read_text())
        assert summary["pass"] is False and summary["last_good_time"] == 0.0, name
        assert "not finite" in summary["error"]


def test_no_liesys_path_reads_a_trajectory_outside_its_span(tmp_path, monkeypatch,
                                                           capsys):
    # a solve's trajectory raises there; a closed form's would not, and a
    # caught error would hide the read, so every read is watched
    reads, outside = [0], []
    dense = integrate_module.Trajectory.dense

    def spy(self, t):
        reads[0] += 1
        flat = np.asarray(t, dtype=float).reshape(-1)
        if not ((flat >= self.times[0]) & (flat <= self.times[-1])).all():
            outside.append((self.times[0], self.times[-1], t))
        return dense(self, t)
    monkeypatch.setattr(integrate_module.Trajectory, "dense", spy)
    for name in sorted(os.listdir(SCENARIO_DIR)):
        assert run_scenario(name, tmp_path, ["--seed", "0"]) == 0, name
    for criterion in acceptance.ALL_CRITERIA:
        assert criterion(seed=0).passed
    assert reads[0] > 100
    assert outside == []


@pytest.mark.parametrize("argv", [
    ["run", os.path.join(SCENARIO_DIR, "verify_algebra_ermakov.json")],
    ["run", os.path.join(SCENARIO_DIR, "minimal_m_oscillator.json")],
    ["verify"],
], ids=["run_verify_algebra", "run_minimal_m", "verify"])
def test_negative_seed_option_is_usage_error(argv, tmp_path, capsys):
    assert cli.main([*argv, "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "usage error in field 'seed'" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_verify_prints_each_criterion_wall_time(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [acceptance.criterion_2, acceptance.criterion_9])
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1].startswith("overall: PASS")
    for line, index in zip(lines, (2, 9)):
        assert line.startswith(f"criterion  {index} [PASS]")
        assert re.search(r" \[\d+\.\d\d s\]$", line)
    # the time is on stdout only
    summary = (tmp_path / "verify_summary.json").read_text()
    assert " s]" not in summary


# Scenario files that cannot be read as a JSON object: each is written to
# the path by its function.
UNREADABLE = {
    "missing_path": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "invalid_json": lambda path: path.write_bytes(b'{"pipeline": '),
    "json_list": lambda path: path.write_bytes(b'[{"pipeline": "integrate"}]'),
    "not_utf8": lambda path: path.write_bytes(b'{"pipeline": "\xff"}'),
    "deep_array": lambda path: path.write_bytes(b"[" * 100_000 + b"]" * 100_000),
    "seed_beyond_the_digit_limit": lambda path: path.write_bytes(
        b'{"pipeline": "integrate", "seed": ' + b"1" * 5000 + b"}"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_an_unreadable_scenario_is_usage_error(case, tmp_path, capsys):
    path, out = tmp_path / "scn.json", tmp_path / "out"
    UNREADABLE[case](path)
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error in field 'scenario'") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_scenario_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    assert cli.main(["run", write_scenario(tmp_path, [INTEGRATE]),
                     "--out", str(tmp_path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_tracer_bindings_exist(tmp_path):
    # perfbench/tracer.py wraps liesys functions at the module attributes
    # their callers look up; install() raises if one of them is gone.  A
    # Pinney reduction runs through the traced reduction and Pinney rule.
    tracer = runpy.run_path(TRACER)["Tracer"]()
    try:
        tracer.install()
        assert run_scenario("minimal_m_oscillator.json", tmp_path) == 0
        assert run_scenario("reduce_pinney_self.json", tmp_path) == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["cli.pipeline"][0] == 2
    assert tracer.stats["cli.build"][0] >= 1
    assert tracer.stats["group.reduce"][0] >= 1
    assert tracer.stats["superposition.pinney_rule"][0] >= 1
    # the reduction reads x1 and its tau clock once per evaluation of its
    # pair, and the CSV's tau column reads the clock's values at those times
    assert tracer.counters["integrate.dense_points"] <= 2516
    assert not hasattr(cli.pipeline_minimal_m, "__wrapped__")
