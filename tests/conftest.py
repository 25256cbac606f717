import os
import subprocess
import sys
import textwrap

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
