"""Work budgets: the counted work of each shipped scenario at seed 0 and of
each criterion, held to tests/work_budget.json.

A count is exact on any machine, where a wall time is not.  A count above
its budget fails; a count below passes and prints its new figure, so that a
change that removes work lowers the budget in the same diff.  Raising a
budget loosens a bound.
"""

import glob
import json
import os

from conftest import WORK, counted_work
from liesys import cli

HERE = os.path.dirname(__file__)
SCENARIO_DIR = os.path.join(HERE, os.pardir, "scenarios")
BUDGET = os.path.join(HERE, "work_budget.json")


def test_work_stays_within_its_budget(criteria_at_seed_0, tmp_path):
    work = {"criteria": criteria_at_seed_0[1], "scenarios": {}}
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json"))):
        with counted_work() as counts:
            assert cli.main(["run", path, "--seed", "0", "--out", str(tmp_path)]) == 0
        work["scenarios"][os.path.splitext(os.path.basename(path))[0]] = counts
    with open(BUDGET) as fh:
        budget = json.load(fh)
    over = []
    for group, runs in work.items():
        assert sorted(runs) == sorted(budget[group]), group
        for name, counts in runs.items():
            for key in WORK:
                got, bound = counts[key], budget[group][name][key]
                if got > bound:
                    over.append(f"{name} {key}: {got} > {bound}")
                elif got < bound:
                    print(f"{name} {key}: {got}, under its budget {bound}")
    assert not over, over
