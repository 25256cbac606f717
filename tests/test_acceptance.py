"""Acceptance gate: the nine built-in criteria plus runner determinism.

Each test prints its one-line verdict (run pytest with -s or look at the
captured output of failures).
"""

import filecmp
import importlib
import multiprocessing
import os
import pickle
import runpy
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from liesys import acceptance, cli, errors

# the module, not the function the package re-exports under the same name
integrate_module = importlib.import_module("liesys.integrate")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def at_seed_0(criteria_at_seed_0):
    """Each criterion's result at seed 0, computed in process once for the
    criterion tests, the pooled run that they check and the work budget."""
    return criteria_at_seed_0[0]


def _run(results, index):
    result = results[index - 1]
    assert result.index == index
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_algebra_closure(at_seed_0):
    _run(at_seed_0, 1)


def test_criterion_02_minimal_m(at_seed_0):
    _run(at_seed_0, 2)


def test_criterion_03_invariant_drift(at_seed_0):
    _run(at_seed_0, 3)


def test_criterion_03_reads_its_solves_only_at_their_nodes(monkeypatch):
    # an off-node read would build the dense output: 3 more rhs calls a step
    def build(self):
        raise AssertionError("criterion 3 built a dense output")
    monkeypatch.setattr(integrate_module._DenseOutput, "_build", build)
    rows, passed, _ = acceptance.criterion_3_part(0, 1)
    assert passed and rows


def test_criterion_04_pinney_superposition(at_seed_0):
    _run(at_seed_0, 4)


def test_criterion_05_linear_and_quadrature_rules(at_seed_0):
    _run(at_seed_0, 5)


def test_criterion_06_group_equation(at_seed_0):
    _run(at_seed_0, 6)


def test_criterion_07_reductions(at_seed_0):
    _run(at_seed_0, 7)


def test_criterion_07_takes_the_reduce_pipelines_verdict(at_seed_0, monkeypatch):
    # the verdict of each reduce run is the pipeline's, as in criteria 1-6;
    # the rows stay those of the passing run
    reduce = cli.pipeline_reduce
    monkeypatch.setattr(cli, "pipeline_reduce",
                        lambda *args: (False, *reduce(*args)[1:]))
    result = acceptance.criterion_7(seed=0)
    assert not result.passed
    assert result.csv_rows == at_seed_0[6].csv_rows


def test_criterion_08_action_sanity(at_seed_0):
    _run(at_seed_0, 8)


def test_criteria_07_and_08_make_their_counted_work():
    # criterion 7's reductions read x1 and tau once per evaluation of their
    # pair; criterion 8 builds its 1000 group elements as three stacks
    tracer = runpy.run_path(TRACER)["Tracer"]()
    try:
        tracer.install()
        acceptance.criterion_7(0)
        points = tracer.counters["integrate.dense_points"]
        acceptance.criterion_8(0)
    finally:
        tracer.uninstall()
    assert points <= 16500
    assert tracer.stats["group.sl2_exp"][0] <= 250


def test_criterion_09_cross_consistency(at_seed_0):
    _run(at_seed_0, 9)


def test_criterion_10_cli_verify_deterministic(shipped_outputs, tmp_path, capsys):
    # this process's verify against the verify --seed 0 that the
    # shipped_outputs subprocess ran: two runs in two processes
    proc, first = shipped_outputs
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(tmp_path))
    assert len(names) == 10 and "verify_summary.json" in names
    match, mismatch, errors = filecmp.cmpfiles(first, tmp_path, names, shallow=False)
    assert not mismatch and not errors
    print("criterion 10 [PASS] verify exits 0 and reruns are byte-identical")


@pytest.mark.parametrize("seed", [0, 3])
def test_run_all_matches_the_criteria_run_in_process(seed, request):
    # run_all's workers, its order of units and criterion 3's parts against
    # each criterion called here, criterion 3 as one function
    pooled = [result for result, _ in acceptance.run_all(seed)]
    assert [r.index for r in pooled] == list(range(1, 10))
    in_process = (request.getfixturevalue("at_seed_0") if seed == 0
                  else [fn(seed) for fn in acceptance.ALL_CRITERIA])
    assert pooled == in_process


@pytest.mark.parametrize("cpus", [1, 3])
def test_run_all_does_not_depend_on_the_number_of_workers(cpus, at_seed_0,
                                                          monkeypatch):
    # one worker runs every unit in the order run_all hands them out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert [result for result, _ in acceptance.run_all(0)] == at_seed_0


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 123])
def test_random_point_draws_the_stream_of_generator_choice(seed):
    # criterion 8 draws its sign as an index into (-1, 1): the numbers that
    # Generator.choice([-1.0, 1.0]) draws, without its per-call overhead
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        expected = (ref.uniform(0.2, 2.0) * ref.choice([-1.0, 1.0]),
                    ref.uniform(-2.0, 2.0))
        assert acceptance._random_point(rng) == expected


def _integration_failure(seed=0):
    raise errors.IntegrationError("step size underflow", last_time=1.25)


def test_a_failing_criterion_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [acceptance.criterion_2, _integration_failure,
                         acceptance.criterion_9])
    sigterm = signal.getsignal(signal.SIGTERM)
    with pytest.raises(errors.IntegrationError, match="underflow") as info:
        list(acceptance.run_all(0))
    assert info.value.last_time == 1.25
    assert multiprocessing.active_children() == []
    assert signal.getsignal(signal.SIGTERM) is sigterm  # restored


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(child) for child in fh.read().split()]
    except FileNotFoundError:
        return None


def test_sigterm_ends_verify_and_its_workers(tmp_path):
    if _children(os.getpid()) is None:
        pytest.skip("this kernel does not list a task's children in /proc")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(SRC_DIR)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    with subprocess.Popen([sys.executable, "-m", "liesys.cli", "verify",
                           "--out", str(tmp_path)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        workers = []
        try:
            deadline = time.monotonic() + 30.0
            while not workers and proc.poll() is None and time.monotonic() < deadline:
                workers = _children(proc.pid) or []
                time.sleep(0.01)
            assert workers, "verify started no worker"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 128 + signal.SIGTERM
            deadline, alive = time.monotonic() + 5.0, workers
            while alive and time.monotonic() < deadline:
                time.sleep(0.05)
                alive = [w for w in workers if os.path.exists(f"/proc/{w}")]
            assert not alive, f"workers {alive} outlived verify"
            assert b"Traceback" not in proc.stderr.read()
        finally:
            proc.kill()
            for pid in workers:  # a failed run's orphans are not left running
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


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
