#!/usr/bin/env python3
"""Layer timings of liesys, in process, best of N, with counts beside them.

    python3 bench/layers.py [--quick] [--parent DIR] [--out FILE]

liesys is imported from the ``src/`` of the checkout that holds this script.
Each timing is the best of REPEAT runs of one layer:

- ``rhs``: one ``SystemDef.rhs`` call per system on a 1-lane and on a 5-lane
  state, in the solver's float form (a list of Python floats and the lane
  count) and on arrays;
  ``calls`` is the number of calls each run times, and the time is per call;
- ``solve``: one adaptive solve per system over [0, 20] under
  ``two_plus_sin``, of 1 and of 5 lanes, through ``SystemDef.integrate_lanes``;
  ``steps`` and ``nfev`` are the solve's accepted steps and rhs evaluations
  (attempts = (nfev - 2) / 12);
- ``crossover``: the time of a solve over [0, 5] stepped on floats over the
  same solve stepped on blocks, for 1 to 8 lanes: below 1 the float form
  pays.  ``FLOAT_LANES`` is set from it.

``--parent DIR`` times the checkout DIR as well, in a child process, in
ROUNDS alternating rounds, and pairs each row with the parent's best time (a row the
parent lacks reads null).
``--out FILE`` writes the report as JSON: the machine, the Python, numpy and
scipy versions, each checkout's commit, and the rows.  ``--quick`` runs a
reduced pass (one run, few calls, two cheap systems, spans of 1) that
checks the harness rather than the numbers.  The report is not a gate: tier-1 holds the work,
and perfbench the wall time.
"""

import argparse
import contextlib
import importlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SYSTEMS = ("oscillator_1d", "oscillator_2d", "milne_pinney", "ermakov",
           "generalized_ermakov", "pinney_triple")
RHS_LANES = (1, 5)
SOLVE_LANES = (1, 5)
SOLVE_SPAN = (0.0, 20.0)
CROSSOVER_SYSTEMS = ("ermakov", "pinney_triple", "oscillator_1d")
CROSSOVER_LANES = (1, 2, 4, 5, 6, 8)
CROSSOVER_SPAN = (0.0, 5.0)
REPEAT = 5  # runs of each layer, of which the best is kept
ROUNDS = 3  # alternating rounds of parent and change with --parent


def _liesys(src):
    """liesys.cli and liesys.integrate, imported from ``src``."""
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("liesys.cli"), importlib.import_module("liesys.integrate")


def _best(fn, repeat):
    """The least wall time of ``repeat`` calls of fn, and its last result."""
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _states(sysd, np, lanes, seed):
    """``lanes`` seeded states, each coordinate in (0.5, 2): no lane of any
    system meets its singularity over [0, 20] under two_plus_sin."""
    rng = np.random.default_rng(seed)
    return sysd.sample_domain(rng, lanes, low=0.5, high=2.0).tolist()


def measure(src=os.path.join(ROOT, "src"), quick=False):
    """The rows of one checkout: see the module docstring."""
    cli, integrate = _liesys(src)
    import numpy as np

    systems = SYSTEMS[::2] if quick else SYSTEMS
    calls, repeat = (20, 1) if quick else (2000, REPEAT)
    solve_span, crossover_span = ((0.0, 1.0),) * 2 if quick else (SOLVE_SPAN, CROSSOVER_SPAN)
    build = {name: cli.build_system({"name": name, "frequency": "two_plus_sin"})
             for name in systems}
    rows = []
    for name, sysd in build.items():
        for lanes in RHS_LANES:
            stacked = np.array(_states(sysd, np, lanes, 0)).T
            block = stacked[:, 0] if lanes == 1 else stacked
            points = {"array": (block,), "float": (block.reshape(-1).tolist(), lanes)}
            for form, p in points.items():
                rhs = sysd.rhs

                def loop(p=p, rhs=rhs):
                    for _ in range(calls):
                        rhs(0.7, *p)
                best, _ = _best(loop, repeat)
                rows.append({"layer": "rhs", "system": name, "lanes": lanes,
                             "form": form, "calls": calls, "us": 1e6 * best / calls})
        for lanes in SOLVE_LANES:
            states = _states(sysd, np, lanes, 1)
            best, solved = _best(lambda: sysd.integrate_lanes(states, solve_span), repeat)
            rows.append({"layer": "solve", "system": name, "lanes": lanes,
                         "steps": len(solved[0].times) - 1, "nfev": solved[0].nfev,
                         "ms": 1e3 * best})
    for name in CROSSOVER_SYSTEMS[-1:] if quick else CROSSOVER_SYSTEMS:
        sysd = cli.build_system({"name": name, "frequency": "two_plus_sin"})
        for lanes in CROSSOVER_LANES[:2] if quick else CROSSOVER_LANES:
            states = _states(sysd, np, lanes, 2)
            times = {}
            for form in ("float", "array"):
                def solve(form=form):
                    return integrate.integrate_lanes(
                        sysd.rhs, states, crossover_span,
                        singular_coords=sysd.singular_coords,
                        float_form=form == "float")
                with _float_lanes(integrate, len(states)):
                    times[form], solved = _best(solve, repeat)
            rows.append({"layer": "crossover", "system": name, "lanes": lanes,
                         "steps": len(solved[0].times) - 1,
                         "float_ms": 1e3 * times["float"],
                         "array_ms": 1e3 * times["array"],
                         "ratio": times["float"] / times["array"]})
    return rows


@contextlib.contextmanager
def _float_lanes(integrate, lanes):
    """FLOAT_LANES raised to ``lanes`` for a forced float-form solve."""
    bound = integrate.FLOAT_LANES
    integrate.FLOAT_LANES = max(bound, lanes)
    try:
        yield
    finally:
        integrate.FLOAT_LANES = bound


def _commit(checkout):
    """``git describe --always --dirty`` of the checkout, or None."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                              cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _key(row):
    return tuple(row.get(k) for k in ("layer", "system", "lanes", "form"))


TIMED = ("us", "ms", "float_ms", "array_ms")


def _paired(change_runs, parent_runs):
    """One row per layer of the change: the best of its runs, beside the best
    of the parent's runs under "parent_" names (None where the parent has no
    such row).  A crossover ratio is that of the best times."""
    best = {}
    for runs, prefix in ((change_runs, ""), (parent_runs, "parent_")):
        for rows in runs:
            for row in rows:
                if prefix and _key(row) not in best:
                    continue
                merged = best.setdefault(_key(row), {})
                for name, value in row.items():
                    if name in TIMED:
                        name = prefix + name
                        merged[name] = min(value, merged.get(name, value))
                    else:  # the change's counts, which the parent's must equal
                        merged.setdefault(name, value)
    rows = list(best.values())
    for row in rows:
        if "ratio" in row:
            row["ratio"] = row["float_ms"] / row["array_ms"]
        if parent_runs:
            for name in TIMED:
                if name in row:
                    row.setdefault("parent_" + name, None)
    return rows


def report(rows, parent_commit=None, repeat=REPEAT):
    return {
        "harness": "bench/layers.py",
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": _commit(ROOT),
        "parent_commit": parent_commit,
        "repeat": repeat,
        "rows": rows,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--parent", default=None, help="a parent checkout to pair with")
    parser.add_argument("--src", default=None, help=argparse.SUPPRESS)  # the child's
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    quick = ["--quick"] if args.quick else []
    if args.src is not None:  # a child timing the parent: rows on stdout
        print(json.dumps(measure(args.src, args.quick)))
        return 0
    change_runs, parent_runs = [], []
    for _ in range(ROUNDS if args.parent else 1):
        if args.parent:
            child = subprocess.run(
                [sys.executable, __file__, "--src", os.path.join(args.parent, "src"),
                 *quick], capture_output=True, text=True, check=True)
            parent_runs.append(json.loads(child.stdout.splitlines()[-1]))
        change_runs.append(measure(quick=args.quick))
    result = report(_paired(change_runs, parent_runs),
                    _commit(args.parent) if args.parent else None,
                    1 if args.quick else REPEAT)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
