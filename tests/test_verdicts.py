"""One fold behind every verdict: ``worst`` keeps a NaN wherever it sits, a
NaN put into any verdict's errors fails the run or criterion, and an error
equal to a verdict's bound fails it while the float just below passes.  The
bounds of the domain (the solver's floor and budget, the tau clock's edges,
the exponential's branches and the rank and Jacobi tests) hold at their
edges too."""

import importlib
import itertools
import json
import math
import os
import runpy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liesys import acceptance, cli, group, systems, vectorfield
from liesys.errors import DomainError, IntegrationError, QuadratureError
from liesys.integrate import Trajectory, compare, constant_frequency, worst

integrate_module = importlib.import_module("liesys.integrate")

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

ERRORS = st.floats(min_value=0.0, allow_nan=False)  # |error|s, infinities too


@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1))
def test_worst_is_max_bit_for_bit_on_finite_errors(errors):
    assert worst(errors).hex() == max(errors).hex()
    assert worst(np.array(errors)).hex() == max(errors).hex()


@given(st.lists(ERRORS), st.data())
def test_a_nan_anywhere_makes_worst_nan(errors, data):
    at = data.draw(st.integers(0, len(errors)))
    assert math.isnan(worst(errors[:at] + [math.nan] + errors[at:]))


def test_no_errors_are_worst_zero():
    for none in ([], (), np.empty(0), np.empty((0, 3))):
        assert worst(none).hex() == (0.0).hex()


# --- a NaN in each verdict's errors ------------------------------------------

POSITIONS = ("first", "middle", "last")


def _index(n, pos):
    """The first, middle or last of n indices."""
    return (0, n // 2, n - 1)[pos]


def _with_nan(value, pos):
    """A copy of ``value`` with a NaN in its first, middle or last row; a
    scalar reads NaN."""
    value = np.array(value, dtype=float)
    if value.ndim == 0:
        return math.nan
    value[_index(len(value), pos)] = np.nan
    return value


class _NanRows:
    """``traj`` read with a NaN in the first, middle or last row of its
    states and of each dense read."""

    def __init__(self, traj, pos):
        self._traj, self._pos = traj, pos
        self.states = _with_nan(traj.states, pos)

    def dense(self, t):
        return _with_nan(self._traj.dense(t), self._pos)

    def position(self, t):
        return self.dense(t)[..., 0]


def _on_call(monkeypatch, owner, name, call, poison):
    """owner.name, with the value of its call number ``call`` (from 0)
    passed through ``poison``."""
    original = getattr(owner, name)
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        value = original(*args, **kwargs)
        return poison(value) if next(calls) == call else value

    monkeypatch.setattr(owner, name, wrapper)


def _scenario(name, targets=()):
    """A shipped scenario with ``targets`` appended to its initial states."""
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        scn = json.load(fh)
    if targets:
        scn["initial_states"] += targets
    return scn


# Two more targets, so that the NaN sits in the first, middle or last of three.
TARGETS = [[0.9, -0.3], [1.4, 0.2]]


def _superpose(monkeypatch, pos):
    # target number pos of three reconstructs NaN at one sample
    _on_call(monkeypatch, cli, "pinney_rule_from_solutions", pos,
             lambda rec: _NanRows(rec, pos))
    ok, summary, _ = cli.pipeline_superpose(
        _scenario("superpose_pinney.json", TARGETS))
    assert math.isnan(summary["max_error"])
    return ok


def _reduce(monkeypatch, pos):
    _on_call(monkeypatch, group, "reduce_pinney_from_pinney", pos,
             lambda red: _NanRows(red, pos))
    ok, summary, _ = cli.pipeline_reduce(
        _scenario("reduce_pinney_self.json", TARGETS))
    assert math.isnan(summary["max_rel_error"])
    return ok


def _group_solve_action(monkeypatch, pos):
    # the oracle of target number pos of three reads NaN at one sample
    _on_call(monkeypatch, systems.SystemDef, "integrate_lanes", 0,
             lambda lanes: [_NanRows(lane, pos) if i == pos else lane
                            for i, lane in enumerate(lanes)])
    ok, summary, _ = cli.pipeline_group_solve(
        _scenario("group_solve_constant.json", TARGETS))
    assert math.isnan(summary["max_action_error"])
    return ok


def _group_solve_det(monkeypatch, pos):
    # the solved matrix at one solver node, in the node rows of the |det - 1|
    # fold; the samples read the curve as solved, so the action errors stay
    # finite
    _on_call(monkeypatch, group, "solve_group_equation", 0, lambda curve: (
        SimpleNamespace(states=_with_nan(curve.states, pos), dense=curve.dense)))
    ok, summary, _ = cli.pipeline_group_solve(
        _scenario("group_solve_constant.json"))
    assert math.isnan(summary["max_det_drift"])
    assert summary["max_action_error"] < 1e-6
    return ok


def _verify_algebra(monkeypatch, pos):
    # the brackets of pair number pos of three, at one probe
    _on_call(monkeypatch, vectorfield, "_bracket", pos,
             lambda rows: _with_nan(rows, pos))
    ok, summary, files = cli.pipeline_verify_algebra(
        _scenario("verify_algebra_triple.json"))
    residuals = [res for _, res in files[0][2]]
    assert [math.isnan(res) for res in residuals] == [i == pos for i in range(3)]
    assert math.isnan(summary["worst_residual"])
    return ok


def _criterion_4(monkeypatch, pos):
    # the analytic case's reconstruction
    _on_call(monkeypatch, acceptance, "pinney_rule_from_solutions", 0,
             lambda rec: _NanRows(rec, pos))
    return acceptance.criterion_4(0).passed


def _criterion_5(monkeypatch, pos):
    # the quadrature rule on cos t
    _on_call(monkeypatch, acceptance, "quadrature_rule", 0,
             lambda x: _with_nan(x, pos))
    return acceptance.criterion_5(0).passed


def _criterion_7(monkeypatch, pos):
    # d'Alembert's analytic case
    _on_call(monkeypatch, group, "reduce_oscillator", 0,
             lambda red: _NanRows(red, pos))
    return acceptance.criterion_7(0).passed


def _criterion_8_identity(monkeypatch, pos):
    # the identity's image in v, where x stays exact
    _on_call(monkeypatch, group, "pinney_action", 0,
             lambda res: res._replace(v=_with_nan(res.v, pos)))
    return acceptance.criterion_8(0).passed


def _criterion_8_fields(monkeypatch, pos):
    # one of the 120 fundamental fields by finite differences
    _on_call(monkeypatch, group, "generator_by_finite_difference", _index(120, pos),
             lambda fd: _with_nan(fd, pos))
    return acceptance.criterion_8(0).passed


def _criterion_9_invariant(monkeypatch, pos):
    # the generalized invariant at one of the 100 probes
    _on_call(monkeypatch, acceptance, "generalized_invariant", _index(100, pos),
             lambda value: math.nan)
    return acceptance.criterion_9(0).passed


def _criterion_9_rhs(monkeypatch, pos):
    # the generalized system's rhs at one of the 100 probes, each of which
    # calls it before the Ermakov rhs
    _on_call(monkeypatch, systems.SystemDef, "rhs", 2 * _index(100, pos),
             lambda f: _with_nan(f, pos))
    return acceptance.criterion_9(0).passed


NAN_CASES = {
    "superpose": _superpose,
    "reduce": _reduce,
    "group_solve_action": _group_solve_action,
    "group_solve_det": _group_solve_det,
    "verify_algebra": _verify_algebra,
    "criterion_4": _criterion_4,
    "criterion_5": _criterion_5,
    "criterion_7": _criterion_7,
    "criterion_8_identity": _criterion_8_identity,
    "criterion_8_fields": _criterion_8_fields,
    "criterion_9_invariant": _criterion_9_invariant,
    "criterion_9_rhs": _criterion_9_rhs,
}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("case", NAN_CASES)
def test_a_nan_error_fails_the_verdict(case, position, monkeypatch):
    # under the state cli.main runs in, where numpy warns nothing of a NaN
    with np.errstate(all="ignore"):
        assert not NAN_CASES[case](monkeypatch, POSITIONS.index(position))


# --- each verdict at its bound -----------------------------------------------
# Each case runs a verdict with the error it folds set to ``value`` through the
# same hooks, and gives the verdict and its bound: an error equal to the bound
# fails, and the float just below it passes, which pins both ``<`` and the
# bound's value.

def _threshold(name):
    return _scenario(name)["tolerances"]["threshold"]


def _oracle_error(name, pipeline):
    # the closed form's worst error against its oracle, as _oracle_runs folds it
    def case(monkeypatch, value):
        _on_call(monkeypatch, cli, "_oracle_runs", 0, lambda runs: (value, *runs[1:]))
        return pipeline(_scenario(name))[0]
    return case, _threshold(name)


def _group_solve_det_at(monkeypatch, value):
    # every |det - 1| of the node and sample rows
    _on_call(monkeypatch, cli, "compare", 0, lambda err: np.full_like(err, value))
    ok, summary, _ = cli.pipeline_group_solve(_scenario("group_solve_constant.json"))
    assert summary["max_det_drift"] == value
    return ok


def _first_drift(monkeypatch, value):
    # the first run's drift_rel; the other runs' stay far below the bound
    def poison(series):
        series.drift_rel = value
        return series
    _on_call(monkeypatch, cli, "drift", 0, poison)


def _drift_at(monkeypatch, value):
    _first_drift(monkeypatch, value)
    return cli.pipeline_drift(_scenario("drift_lewis_ermakov.json"))[0]


def _criterion_3_drift_at(monkeypatch, value):
    # criterion 3's oscillator_2d part, its cheapest
    _first_drift(monkeypatch, value)
    return acceptance.criterion_3_part(0, 1)[1]


def _verify_algebra_at(monkeypatch, value):
    # the worst residual over the three pairs, folded after the pairs' own
    _on_call(monkeypatch, vectorfield, "worst", 3, lambda _: value)
    ok, summary, _ = cli.pipeline_verify_algebra(_scenario("verify_algebra_triple.json"))
    assert summary["worst_residual"] == value
    return ok


def _criterion_worst(criterion, call):
    # call number ``call`` of the criterion's own fold
    def case(monkeypatch, value):
        _on_call(monkeypatch, acceptance, "worst", call, lambda _: value)
        return criterion(0).passed
    return case


def _criterion_oracle(criterion, call):
    # call number ``call`` of _oracle_runs, a closed form against its oracle
    def case(monkeypatch, value):
        _on_call(monkeypatch, cli, "_oracle_runs", call, lambda runs: (value, *runs[1:]))
        return criterion(0).passed
    return case


def _criterion_6_det_at(monkeypatch, value):
    # every |det - 1| of the first profile's group-solve
    _on_call(monkeypatch, cli, "compare", 0, lambda err: np.full_like(err, value))
    return acceptance.criterion_6(0).passed


def _criterion_1_at(monkeypatch, value):
    # the worst residual of the first system, oscillator_1d, over its three pairs
    _on_call(monkeypatch, vectorfield, "worst", 3, lambda _: value)
    return acceptance.criterion_1(0).passed


BOUND_CASES = {
    "superpose": _oracle_error("superpose_pinney.json", cli.pipeline_superpose),
    "reduce": _oracle_error("reduce_pinney_self.json", cli.pipeline_reduce),
    "group_solve_action": _oracle_error("group_solve_constant.json",
                                        cli.pipeline_group_solve),
    "group_solve_det": (_group_solve_det_at, 1e-9),
    "drift": (_drift_at, _threshold("drift_lewis_ermakov.json")),
    "verify_algebra": (_verify_algebra_at, _threshold("verify_algebra_triple.json")),
    # criteria 1, 3, 4, 6 and 7's reductions run on their pipelines' defaults,
    # which these cases pin
    "criterion_1_residual": (_criterion_1_at, 1e-9),
    "criterion_3_drift": (_criterion_3_drift_at, 1e-6),
    "criterion_4_max_error": (_criterion_oracle(acceptance.criterion_4, 0), 1e-5),
    "criterion_5_max_error": (_criterion_oracle(acceptance.criterion_5, 0), 1e-8),
    "criterion_6_action": (_criterion_oracle(acceptance.criterion_6, 0), 1e-6),
    "criterion_6_det": (_criterion_6_det_at, 1e-9),
    "criterion_7_dalembert_analytic": (_criterion_worst(acceptance.criterion_7, 0), 2e-14),
    "criterion_7_dalembert_vs_oracle": (_criterion_oracle(acceptance.criterion_7, 0), 1e-6),
    "criterion_7_pinney_self_vs_oracle": (_criterion_oracle(acceptance.criterion_7, 1),
                                          1e-5),
    "criterion_7_pinney_self_analytic": (_criterion_worst(acceptance.criterion_7, 1), 1e-14),
    "criterion_7_pinney_osc_analytic": (_criterion_worst(acceptance.criterion_7, 2), 3e-14),
    "criterion_8_identity": (_criterion_worst(acceptance.criterion_8, 0), 1e-12),
    "criterion_8_fields": (_criterion_worst(acceptance.criterion_8, 1), 1e-5),
    "criterion_9_invariant": (_criterion_worst(acceptance.criterion_9, 0), 1e-10),
    "criterion_9_rhs": (_criterion_worst(acceptance.criterion_9, 1), 1e-14),
}


@pytest.mark.parametrize("case", BOUND_CASES)
def test_an_error_at_the_bound_fails_and_one_below_passes(case, monkeypatch):
    verdict, bound = BOUND_CASES[case]
    with monkeypatch.context() as patch:
        assert not verdict(patch, bound)
    with monkeypatch.context() as patch:
        assert verdict(patch, np.nextafter(bound, 0))


def test_criterion_8_needs_more_than_900_valid_sign_checks(monkeypatch):
    for count, passed in ((900, False), (901, True)):
        monkeypatch.setattr(acceptance, "SIGN_CHECKS", count)
        assert acceptance.criterion_8(0).passed is passed


@pytest.mark.parametrize("marked, passed", [(99, True), (100, False)])
def test_criterion_8_counts_the_sign_checks_the_action_keeps(marked, passed,
                                                             monkeypatch):
    # the sign checks' action (its second call) marks ``marked`` of the 1000
    # draws out of its domain; the criterion checks the signs of the others
    action, calls = group.pinney_action, itertools.count()

    def marking(g, p, k):
        if next(calls) == 1:
            bad = np.zeros(len(p[0]), dtype=bool)
            bad[::10][:marked] = True
            raise DomainError("marked", bad)
        return action(g, p, k)

    monkeypatch.setattr(group, "pinney_action", marking)
    result = acceptance.criterion_8(0)
    assert result.passed is passed
    rows = dict(result.csv_rows)
    assert rows["valid_sign_samples"] == 1000 - marked and rows["signs_preserved"]


def test_a_relative_error_is_over_the_larger_of_1_and_the_reference():
    # |want| = 0.5: over 1; |want| = 2: over |want|; a row's error is its
    # largest, over its largest |want|
    for got, want, err in (([0.75], [0.5], 0.25), ([-0.25], [-0.5], 0.25),
                           ([3.0], [2.0], 0.5), ([-1.0], [-2.0], 0.5)):
        assert compare(np.array(got), np.array(want), "rel").tolist() == [err]
    rows = compare(np.array([[0.75, 0.5], [3.0, 1.0]]),
                   np.array([[0.5, 0.5], [2.0, -1.0]]), "rel")
    assert rows.tolist() == [0.25, 1.0]


def test_every_planted_defect_finds_its_text_once():
    # tests/plant_defects.py plants each DEFECTS entry by replacing its text;
    # a refactor that moves or repeats the text shows here, not only in the
    # script's run of tier-1 per entry
    script = os.path.join(os.path.dirname(__file__), "plant_defects.py")
    defects = runpy.run_path(script)["DEFECTS"]
    for name, (path, text, defect) in defects.items():
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "src", "liesys",
                               path)) as fh:
            assert fh.read().count(text) == 1, (name, path)
        assert defect != text, name


# --- each domain bound at its edge -------------------------------------------
# Each case gives a property and two adjacent floats at its bound, the value
# stated: the property holds at the first and not at the second, which pins
# the bound's value and its comparison.

def _parabolic(d):
    # exp(M) of a traceless M with det M = -c3^2 / 4 - c1 c2 = d is exactly
    # I + M on the parabolic branch, and cos / sin on the elliptic one
    v = group.Sl2Vector(-d, 1.0, 0.0)
    return np.array_equal(group.sl2_exp(v, 1.0).array, np.eye(2) + v.matrix)


def _constant_field(vector):
    vector = np.array(vector)
    return vectorfield.VectorField(
        2, lambda p: np.zeros_like(p) + vector.reshape((2,) + (1,) * (p.ndim - 1)),
        lambda p: np.zeros(p.shape[1:] + (2, 2)))


def _counts_both_rows(s):
    # the rows (1, 0) and (0, s), whose singular values are 1 and s
    fields = [_constant_field([1.0, 0.0]), _constant_field([0.0, s])]
    return vectorfield.prolonged_rank(fields, 1, np.zeros(2)) == 2


def _jacobi_holds(y):
    # [e1, e2] = e3 and [e2, e3] = y e2, whose Jacobi residual is y
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2], c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0, y, -y
    try:
        vectorfield.StructureConstants(3, c)
    except ValueError:
        return False
    return True


def _solves_at(rel_tol):
    osc = systems.oscillator_1d(constant_frequency(1.0))
    try:
        osc.integrate([1.0, 0.0], (0.0, 1.0), 1e-10, rel_tol)
    except ValueError:
        return False
    return True


def _falls_to(x_edge, times):
    """x1 = 1 before the last of ``times`` and ``x_edge`` from it on."""
    return Trajectory.from_function(lambda t: np.column_stack(
        [np.where(t < times[-1], 1.0, x_edge), np.zeros_like(t)]), times)


def _outside_the_clock(x1, t):
    try:
        x1.tau_clock()(t)
    except QuadratureError as exc:
        return "vanishes inside the quadrature window" in str(exc)
    return False


DOMAIN_BOUNDS = {
    # integrate.MIN_REL_TOL, the solver's floor
    "min_rel_tol": (_solves_at, 100 * np.finfo(float).eps,
                    np.nextafter(100 * np.finfo(float).eps, 0)),
    # integrate.VANISHING_POSITION: a clock on x1, which reaches x at t = 1,
    # covers t = 1 unless |x| is below it
    "vanishing_position": (lambda x: _outside_the_clock(_falls_to(x, [0.0, 1.0]), 1.0),
                           np.nextafter(1e-9, 0), 1e-9),
    # integrate.WINDOW_MARGIN: x1 vanishes at t = 2, and the clock's window
    # ends 1e-12 before it
    "window_margin": (lambda t: _outside_the_clock(_falls_to(0.0, [0.0, 1.0, 2.0]), t),
                      2.0 - 1e-12, np.nextafter(2.0 - 1e-12, 0)),
    # group._PARABOLIC_DET
    "parabolic_det": (_parabolic, np.nextafter(1e-12, 0), 1e-12),
    # vectorfield.RANK_TOL, relative to the largest singular value
    "rank_tol": (_counts_both_rows, np.nextafter(1e-8, 1), 1e-8),
    # vectorfield.JACOBI_TOL
    "jacobi_tol": (_jacobi_holds, 1e-14, np.nextafter(1e-14, 1)),
}


@pytest.mark.parametrize("case", DOMAIN_BOUNDS)
def test_a_domain_bound_holds_at_its_edge(case):
    holds, inside, outside = DOMAIN_BOUNDS[case]
    assert holds(inside)
    assert not holds(outside)


def test_a_solve_stops_after_10000_steps():
    # integrate.MAX_STEPS accepted steps, about 570 periods of an oscillator
    def rhs(t, y, lanes=0):
        return [y[1], -y[0]] if lanes else np.array([y[1], -y[0]])
    with pytest.raises(IntegrationError, match="after 10000 steps"):
        integrate_module.integrate(rhs, [1.0, 0.0], (0.0, 1e6), float_form=True)


def test_a_quadrature_on_a_jump_gives_up_after_11_passes():
    # the first pass and integrate._GK_MAX_DEPTH = 10 bisections, each pass
    # one call of the integrand: a jump inside a panel keeps |K15 - G7| large
    calls = []

    def evaluate(t):
        calls.append(len(t))
        return np.column_stack([np.where(t < 0.3 * math.pi, 1.0, 2.0), np.zeros_like(t)])
    x1 = Trajectory.from_function(evaluate, np.linspace(0.0, 1.0, 5))
    calls.clear()
    with pytest.raises(QuadratureError, match="after repeated bisection"):
        x1.tau_clock()
    assert len(calls) == 11


def test_each_rank_level_votes_over_11_probes():
    # vectorfield.PROBES_PER_LEVEL probes at each copy count, up to m = 2
    rng, draws = np.random.default_rng(0), []

    def draw(copies, count):
        draws.append((copies, count))
        return rng.uniform(0.5, 2.0, (2 * copies, count))
    generators = systems.oscillator_1d(constant_frequency(1.0)).generators
    assert vectorfield.minimal_m(generators, 4, draw) == [2, 3]
    assert draws == [(1, 11), (2, 11)]
