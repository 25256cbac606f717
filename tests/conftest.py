import contextlib
import importlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="session")
def shipped_outputs(tmp_path_factory):
    """One subprocess that runs every shipped scenario and verify --seed 0
    into one directory, with scipy's import made to fail: its completed
    process and that directory."""
    # numpy is the only numerical import of liesys, on every path: the
    # shipped scenarios, verify and a singularity abort (root finding).
    # verify's criteria run in forked workers, whose sys.modules the last
    # line cannot see: the finder makes a scipy import fail there too.
    # `liesys run` never loads verify's worker pool, nor the criteria.
    code = textwrap.dedent("""
        import glob, json, os, sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} imported on the run path")

        sys.meta_path.insert(0, NoScipy())
        from liesys import cli
        out, scenario_dir = sys.argv[1:]
        paths = sorted(glob.glob(os.path.join(scenario_dir, "*.json")))
        for path in paths:
            assert cli.main(["run", path, "--out", out]) == 0, path
        pool = [m for m in sys.modules
                if m.split(".")[0] in ("multiprocessing", "concurrent")]
        assert not pool, pool
        assert "liesys.acceptance" not in sys.modules
        assert cli.main(["verify", "--seed", "0", "--out", out]) == 0
        abort_dir = os.path.join(out, "abort")
        os.mkdir(abort_dir)
        aborting = os.path.join(abort_dir, "aborting.json")
        with open(aborting, "w") as fh:
            json.dump({"pipeline": "integrate", "t_span": [0.0, 5.0],
                       "system": {"name": "milne_pinney", "k": -1.0},
                       "initial_states": [[0.5, -1.0]]}, fh)
        assert cli.main(["run", aborting, "--out", abort_dir]) == 1
        with open(os.path.join(abort_dir, "aborting_summary.json")) as fh:
            assert 0.0 < json.load(fh)["last_good_time"] < 5.0
        print(len(paths), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    out = tmp_path_factory.mktemp("shipped")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(SRC_DIR)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, "-c", code, str(out), SCENARIO_DIR],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc, out


# The counts that tests/work_budget.json holds for each run
WORK = ("solves", "accepted_steps", "attempts", "step_rhs_calls", "dense_rhs_calls",
        "dense_points", "bytes_written")


@contextlib.contextmanager
def counted_work():
    """Counts of the work done inside the block, by WORK name: the solves
    (``integrate._dop853`` calls), their accepted steps and attempts (as
    (nfev - 2) / 12), the rhs calls of their step loops and of their dense
    output builds, the times read off dense outputs, and the bytes that
    ``cli._atomic_write`` writes.  Every call goes through to the function
    it counts."""
    from liesys import cli
    integrate = importlib.import_module("liesys.integrate")
    counts = dict.fromkeys(WORK, 0)
    dop853, build = integrate._dop853, integrate._DenseOutput._build
    dense, write = integrate._DenseOutput.__call__, cli._atomic_write

    def counted(fn, key):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    def solve(fun, block, y0, t0, t1, rtol, atol, lanes, guard, floats):
        counts["solves"] += 1
        ts, ys, K, nfev = dop853(counted(fun, "step_rhs_calls"), block, y0, t0, t1,
                                 rtol, atol, lanes, guard,
                                 floats and counted(floats, "step_rhs_calls"))
        counts["accepted_steps"] += len(K)
        counts["attempts"] += (nfev - 2) // 12
        return ts, ys, K, nfev

    def build_dense(self):
        self._block = counted(self._block, "dense_rhs_calls")
        build(self)

    def read_dense(self, t, lane=0):
        counts["dense_points"] += np.size(t)
        return dense(self, t, lane)

    def write_text(path, text):
        counts["bytes_written"] += len(text.encode())
        write(path, text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrate, "_dop853", solve)
        patch.setattr(integrate._DenseOutput, "_build", build_dense)
        patch.setattr(integrate._DenseOutput, "__call__", read_dense)
        patch.setattr(cli, "_atomic_write", write_text)
        yield counts


@pytest.fixture(scope="session")
def criteria_at_seed_0():
    """Each criterion's result at seed 0, computed in process once, and the
    work each made (counted_work), by name criterion_<index>."""
    from liesys import acceptance
    results, work = [], {}
    for fn in acceptance.ALL_CRITERIA:
        with counted_work() as counts:
            results.append(fn(seed=0))
        work[f"criterion_{results[-1].index}"] = counts
    return results, work
