"""Acceptance gate: the nine built-in criteria plus runner determinism.

Each test prints its one-line verdict (run pytest with -s or look at the
captured output of failures).
"""

import filecmp
import importlib
import multiprocessing
import os
import pickle

import pytest

from liesys import acceptance, cli, errors

# the module, not the function the package re-exports under the same name
integrate_module = importlib.import_module("liesys.integrate")


def _run(fn):
    result = fn(seed=0)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_algebra_closure():
    _run(acceptance.criterion_1)


def test_criterion_02_minimal_m():
    _run(acceptance.criterion_2)


def test_criterion_03_invariant_drift():
    _run(acceptance.criterion_3)


def test_criterion_03_reads_its_solves_only_at_their_nodes(monkeypatch):
    # an off-node read would build the dense output: 3 more rhs calls a step
    def build(self):
        raise AssertionError("criterion 3 built a dense output")
    monkeypatch.setattr(integrate_module._DenseOutput, "_build", build)
    rows, passed = acceptance.criterion_3_part(0, 1)
    assert passed and rows


def test_criterion_04_pinney_superposition():
    _run(acceptance.criterion_4)


def test_criterion_05_linear_and_quadrature_rules():
    _run(acceptance.criterion_5)


def test_criterion_06_group_equation():
    _run(acceptance.criterion_6)


def test_criterion_07_reductions():
    _run(acceptance.criterion_7)


def test_criterion_08_action_sanity():
    _run(acceptance.criterion_8)


def test_criterion_09_cross_consistency():
    _run(acceptance.criterion_9)


def test_criterion_10_cli_verify_deterministic(tmp_path, capsys):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert cli.main(["verify", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert not mismatch and not errors
    assert any(n.startswith("criterion_") for n in names)
    print("criterion 10 [PASS] verify exits 0 and reruns are byte-identical")


@pytest.mark.parametrize("seed", [0, 3])
def test_run_all_matches_the_criteria_run_in_process(seed):
    # run_all's workers, its longest-first order and criterion 3's parts
    # against each criterion called here, criterion 3 as one function
    pooled = [result for result, _ in acceptance.run_all(seed)]
    assert [r.index for r in pooled] == list(range(1, 10))
    assert pooled == [fn(seed) for fn in acceptance.ALL_CRITERIA]


def _integration_failure(seed=0):
    raise errors.IntegrationError("step size underflow", last_time=1.25)


def test_a_failing_criterion_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [acceptance.criterion_2, _integration_failure,
                         acceptance.criterion_9])
    with pytest.raises(errors.IntegrationError, match="underflow") as info:
        list(acceptance.run_all(0))
    assert info.value.last_time == 1.25
    assert multiprocessing.active_children() == []


# The field each error class carries, with a value for it.
ERROR_FIELDS = {
    errors.DomainError: ("value", -0.5),
    errors.IntegrationError: ("last_time", 2.5),
    errors.QuadratureError: ("abscissa", 0.75),
    errors.UndeterminedRankError: ("ranks", {1: 1, 2: 3}),
    errors.ScenarioError: ("field", "samples"),
}


@pytest.mark.parametrize("cls", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.LiesysError)
], ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # a worker's exception reaches run_all's caller pickled
    field, value = ERROR_FIELDS.get(cls, (None, None))
    err = cls("boom", value) if field else cls("boom")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == "boom"
    if field:
        assert getattr(back, field) == value
