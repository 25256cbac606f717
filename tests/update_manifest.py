"""Rewrite tests/output_manifest.json: the sha256 of every file that the
shipped scenarios and ``liesys verify --seed 0`` write, with the Python and
numpy versions that produced them.

    python3 tests/update_manifest.py [--compare OLD_DIR]
    python3 tests/update_manifest.py --outputs DIR

A change that moves an output reruns this script, which prints each file
whose digest it changed, added or dropped.  With --compare it also prints,
for each changed file, its largest absolute and relative numeric move
against the file of the same name in OLD_DIR, which holds the outputs of
the commit before the change: in a checkout of that commit,

    liesys run scenarios/NAME.json --out OLD_DIR   (for each scenario)
    liesys verify --seed 0 --out OLD_DIR

With --outputs it writes the outputs of the shipped scenarios at --seed 0,
1 and 7 into DIR/seed<N>, and those of ``liesys verify --seed 0`` into
DIR/verify, and leaves the manifest as it is.  A change meant to move no
output then shows none in ``diff -r`` of the DIRs of two checkouts.

tests/test_cli.py holds the outputs of every tier-1 run to the manifest.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# The seeds at which --outputs runs the shipped scenarios
OUTPUT_SEEDS = (0, 1, 7)
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "output_manifest.json")
SCENARIO_DIR = os.path.join(ROOT, "scenarios")


def versions():
    """The Python and numpy versions of this process."""
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def digests(directory):
    """sha256 of each file directly inside ``directory``, by file name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def moves(old, new):
    """(name, "changed" | "added" | "dropped") of each file whose digest
    differs between the file maps ``old`` and ``new``."""
    return [(name, "added" if name not in old else
             "dropped" if name not in new else "changed")
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


# A decimal number as the CSV and JSON writers print it, nan and inf too
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b)")


def numeric_move(old_text, new_text):
    """(largest absolute, largest relative) move between the numbers of two
    texts, compared in order; None if their numbers or the text between
    them differ in layout.  A move from 0 is relative inf."""
    old, new = _NUMBER.findall(old_text), _NUMBER.findall(new_text)
    if len(old) != len(new) or _NUMBER.split(old_text) != _NUMBER.split(new_text):
        return None
    most_abs = most_rel = 0.0
    for a, b in zip(map(float, old), map(float, new)):
        if a == b or (a != a and b != b):  # equal, or both nan
            continue
        move = abs(b - a)
        most_abs = max(most_abs, move)
        most_rel = max(most_rel, move / abs(a) if a else float("inf"))
    return most_abs, most_rel


def run_scenarios(out, seed=None):
    """Run every shipped scenario, at ``seed`` when given, into ``out``;
    exit at the first that does not pass."""
    from liesys import cli
    seed_args = [] if seed is None else ["--seed", str(seed)]
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json"))):
        if cli.main(["run", path, "--out", out, *seed_args]) != 0:
            sys.exit(f"{path} {' '.join(seed_args)} did not pass")


def run_verify(out):
    """Run ``liesys verify --seed 0`` into ``out``; exit if it does not pass."""
    from liesys import cli
    if cli.main(["verify", "--seed", "0", "--out", out]) != 0:
        sys.exit("verify --seed 0 did not pass")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="OLD_DIR",
                        help="print each changed file's largest numeric move")
    parser.add_argument("--outputs", metavar="DIR",
                        help="write the outputs at seeds 0, 1 and 7 into DIR, "
                             "and not the manifest")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.outputs:
        for seed in OUTPUT_SEEDS:
            run_scenarios(os.path.join(args.outputs, f"seed{seed}"), seed)
        run_verify(os.path.join(args.outputs, "verify"))
        return
    with tempfile.TemporaryDirectory() as out:
        run_scenarios(out)
        run_verify(out)
        manifest = {**versions(), "files": digests(out)}
        if args.compare:
            for name, move in moves(digests(args.compare), manifest["files"]):
                if move == "changed":
                    with open(os.path.join(args.compare, name)) as fh_old, \
                            open(os.path.join(out, name)) as fh_new:
                        most = numeric_move(fh_old.read(), fh_new.read())
                    print(f"moved: {name}: " + ("layout differs" if most is None else
                          f"largest move {most[0]:.3g} absolute, {most[1]:.3g} relative"))
    old = {}
    if os.path.exists(MANIFEST):
        with open(MANIFEST) as fh:
            old = json.load(fh)["files"]
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, move in moves(old, manifest["files"]):
        print(f"{move}: {name}")
    print(f"{MANIFEST}: {len(manifest['files'])} files")


if __name__ == "__main__":
    main()
