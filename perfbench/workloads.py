"""Inputs and job lists of the benchmark workloads.

A job is one ``liesys run`` or ``liesys verify`` invocation.  The seed is the
only input the benchmark varies: ``shipped_scenarios`` runs the shipped
scenario files with ``--seed <seed>``, and ``verify`` runs
``liesys verify --seed <seed>``, whose criteria draw their states from it.
``input_sha256`` covers every input byte liesys reads plus the seed, so two
runs with equal hashes saw the same inputs.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("shipped_scenarios", "verify")

# Shipped scenario files a reduced-size (self-test) pass runs.
SMALL_SHIPPED = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` lacks ``--out`` and ``--seed``."""

    label: str
    argv: tuple
    scenario: dict = None  # the parsed scenario of a ``run`` job


def generate(workload, seed, root, small=False):
    """Return the workload's (jobs, sha256).

    The hash covers the seed and every scenario byte, and none of the paths,
    so two checkouts with equal inputs agree.
    """
    digest = hashlib.sha256(f"{workload}:{seed}".encode())
    if workload == "verify":
        return [Job("verify", ("verify",))], digest.hexdigest()
    jobs = []
    paths = sorted((Path(root) / "scenarios").glob("*.json"))
    for path in paths[:SMALL_SHIPPED] if small else paths:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        jobs.append(Job(path.stem, ("run", str(path)), json.loads(data)))
    return jobs, digest.hexdigest()
