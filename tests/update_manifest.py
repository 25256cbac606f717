"""Rewrite tests/output_manifest.json: the sha256 of every file that the
shipped scenarios and ``liesys verify --seed 0`` write, with the Python and
numpy versions that produced them.

    python3 tests/update_manifest.py

A change that moves an output reruns this script, which prints each file
whose digest it changed, added or dropped.  tests/test_cli.py holds the
outputs of every tier-1 run to the manifest.
"""

import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
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


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from liesys import cli

    with tempfile.TemporaryDirectory() as out:
        for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json"))):
            if cli.main(["run", path, "--out", out]) != 0:
                sys.exit(f"{path} did not pass")
        if cli.main(["verify", "--seed", "0", "--out", out]) != 0:
            sys.exit("verify --seed 0 did not pass")
        manifest = {**versions(), "files": digests(out)}
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
