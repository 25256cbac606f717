"""One fold behind every verdict: ``worst`` keeps a NaN wherever it sits, and
a NaN put into any verdict's errors fails the run or criterion."""

import itertools
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liesys import acceptance, cli, group, systems, vectorfield
from liesys.integrate import worst

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
