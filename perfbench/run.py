#!/usr/bin/env python3
"""Benchmark of liesys through its public entry point, ``liesys.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a liesys checkout; liesys is imported from that
checkout's ``src/``.  One process runs one job (one ``run`` or ``verify``
invocation) at a time, a closed loop with a single client.  The workload's
fixed job list is repeated in rounds until ``--seconds`` have passed, and at
least twice.  Every job writes to a fresh directory, and its CSV and summary
bytes must equal those of the same job in the first round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones together with the tracing overhead.  The last line of stdout is the
result, ``{"correct", "attempted", "failed", "metrics"}``.  The environment,
per-job output digests and span statistics are written to
``.perfbench_out/results/``.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LOAD_SAMPLES = 3  # fresh interpreters timed importing liesys and reading inputs
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Summary fields holding a run job's error against its oracle.
ORACLE_FIELDS = {"superpose": "max_error", "reduce": "max_rel_error",
                 "group-solve": "max_action_error"}
# Error columns of the verify CSVs of criteria 3-7.
VERIFY_ERROR_COLUMNS = ("drift_rel", "max_rel_error", "max_abs_error", "max_error")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_s_p50", "s"),
              ("ok_frac", "ratio"), ("err_digits", "digits"),
              ("peak_rss_mb", "MiB")]


class CheckFailed(Exception):
    """A job's output broke one of the benchmark's checks."""


@dataclass
class Outcome:
    """One executed job; ``reason`` is None when every check passed."""

    label: str
    latency: float
    reason: str = None
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Round:
    traced: bool
    seconds: float
    outcomes: list


# --- running and checking one job --------------------------------------------

def run_job(main, job, seed, scratch):
    out = Path(tempfile.mkdtemp(prefix="job-", dir=scratch))
    argv = [*job.argv, "--out", str(out), "--seed", str(seed)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc, raised = main(argv), None
        except (Exception, SystemExit) as exc:  # a job failure, never the benchmark's
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    outcome = Outcome(job.label, latency)
    if raised or rc != 0:
        outcome.reason = raised or f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    else:
        outcome.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(out.iterdir())}
        try:
            check = check_verify if job.scenario is None else check_run
            outcome.errors = check(job.scenario, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.reason = f"unreadable output: {type(exc).__name__}: {exc}"
        except CheckFailed as exc:
            outcome.reason = str(exc)
    shutil.rmtree(out)
    return outcome


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(scn, out):
    """Check a ``run`` job's files; return the oracle errors it reports."""
    files = sorted(p.name for p in out.iterdir())
    summaries = [name for name in files if name.endswith("_summary.json")]
    _require(len(summaries) == 1, f"expected one summary, found {summaries}")
    summary = json.loads((out / summaries[0]).read_text())
    pipeline = scn["pipeline"]
    _require(summary["pass"] is True, "summary has pass: false")
    _require(summary["pipeline"] == pipeline, "summary names another pipeline")
    _require(sorted(summary["csv_files"] + summaries) == files,
             f"files {files} differ from the summary's csv_files")
    if "samples" in scn:
        for name in summary["csv_files"]:
            _require(len(_csv_rows(out / name)) == scn["samples"],
                     f"{name} does not have {scn['samples']} rows")
    threshold = scn.get("tolerances", {}).get("threshold", summary.get("threshold"))
    if pipeline == "drift":
        runs = summary["runs"]
        _require(len(runs) == len(scn["initial_states"]), "one drift run per state")
        errors = [r["drift_rel"] for r in runs]
        _require(not any(r["partial"] for r in runs), "a drift series is partial")
    elif pipeline in ORACLE_FIELDS:
        errors = [summary[ORACLE_FIELDS[pipeline]]]
    else:
        if pipeline == "integrate":
            _require(len(summary["runs"]) == len(scn["initial_states"]),
                     "one integrate run per state")
        return []
    _require(all(e < threshold for e in errors),
             f"error {max(errors)} not below threshold {threshold}")
    return errors


def check_verify(_scn, out):
    """Check a ``verify`` job's files; return the errors of criteria 3-7."""
    summary = json.loads((out / "verify_summary.json").read_text())
    criteria = summary["criteria"]
    _require([c["index"] for c in criteria] == list(range(1, 10)),
             "verify did not report criteria 1-9")
    _require(all(c["pass"] for c in criteria) and summary["pass"] is True,
             "a criterion failed")
    errors = []
    for index in range(3, 8):
        for row in _csv_rows(out / f"criterion_{index}.csv"):
            errors.extend(float(row[col]) for col in VERIFY_ERROR_COLUMNS if col in row)
    _require(errors and all(math.isfinite(e) for e in errors),
             "criteria 3-7 report no finite error")
    return errors


# --- set-up ------------------------------------------------------------------

def import_liesys():
    sys.path.insert(0, str(SRC))
    import liesys.cli
    if Path(liesys.cli.__file__).resolve().parent != SRC / "liesys":
        raise SystemExit(f"perfbench: imported liesys from {liesys.cli.__file__}, "
                         f"not from {SRC}")
    return sys.modules["liesys"]


def load(args):
    """import liesys.cli and read the inputs: the fresh-interpreter part of set-up."""
    start = time.perf_counter()
    liesys = import_liesys()
    jobs, input_sha = workloads.generate(args.workload, args.seed, ROOT, args.small)
    return liesys, jobs, input_sha, time.perf_counter() - start


def load_in_child(args):
    """``load`` time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--load-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: load child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["load_s"]


# --- measuring ---------------------------------------------------------------

def measure(liesys, jobs, seed, seconds, scratch, tracer):
    """Repeat the job list; with a tracer, every second round is traced.

    A round starts only if, taking as long as the last one, it ends within
    ``seconds``; at least two rounds run.
    """
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < 2
           or time.perf_counter() - start + rounds[-1].seconds <= seconds):
        traced = tracer is not None and len(rounds) % 2 == 1
        main = liesys.cli.main
        if traced:
            tracer.install()
            main = tracer.wrap("bench.job", main)
        outcomes = []
        try:
            for job in jobs:
                if traced:
                    tracer.job = f"{len(rounds)}:{job.label}"
                outcomes.append(run_job(main, job, seed, scratch))
        finally:
            if traced:
                tracer.uninstall()
        if rounds:
            for outcome, first in zip(outcomes, rounds[0].outcomes):
                if outcome.reason is None and outcome.digests != first.digests:
                    outcome.reason = "output bytes differ from the first round's"
        rounds.append(Round(traced, sum(o.latency for o in outcomes), outcomes))
    return rounds


def end_to_end_metrics(setup_s, rounds, outcomes):
    errors = [e for o in outcomes for e in o.errors]
    failed = sum(o.reason is not None for o in outcomes)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.seconds for r in rounds),
        "job_s_p50": statistics.median(o.latency for r in rounds for o in r.outcomes),
        "ok_frac": 1.0 - failed / len(outcomes),
        "err_digits": -math.log10(max(max(errors, default=0.0), 1e-17)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# --- environment -------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((SRC / "liesys").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
            "seed": seed, "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


# --- entry point -------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size inputs, for the self-tests")
    parser.add_argument("--load-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "liesys" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no liesys sources under {SRC}")
    # Before numpy is first imported; the load children inherit both.
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ.pop("LIESYS_OUT", None)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        liesys, jobs, input_sha, load_s = load(args)
        if args.load_only:
            print(json.dumps({"load_s": load_s}))
            return 0
        warm_up = run_job(liesys.cli.main, jobs[0], args.seed, scratch)
        outcomes = [warm_up]
        load_samples = [load_s]
        if not args.trace:
            load_samples += [load_in_child(args) for _ in range(LOAD_SAMPLES - 1)]
        # set-up = a fresh interpreter's import and input reading + one warm-up job
        setup_s = statistics.median(load_samples) + warm_up.latency
        tracer = tracing.Tracer() if args.trace else None
        rounds = measure(liesys, jobs, args.seed, args.seconds, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcomes += [o for r in rounds for o in r.outcomes]
    failures = [o for o in outcomes if o.reason is not None]
    if args.trace:
        traced = [r.seconds for r in rounds if r.traced]
        untraced = [r.seconds for r in rounds if not r.traced]
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = tracing.layer_metrics(tracer, len(traced), overhead)
    else:
        metrics = end_to_end_metrics(setup_s, rounds, outcomes)
    if not any(o.errors for o in outcomes):
        print("perfbench: no job reported an error against an oracle", file=sys.stderr)
    correct = not failures and any(o.errors for o in outcomes)
    result = {"correct": correct, "attempted": len(outcomes),
              "failed": len(failures), "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "input_sha256": input_sha,
        "environment": environment(args.seed),
        "waiting": "not applicable: single-threaded, no queues",
        "jobs_per_round": len(jobs), "load_samples_s": load_samples,
        "warm_up_s": warm_up.latency,
        "setup_s": setup_s,
        "rounds": [{"traced": r.traced, "seconds": r.seconds,
                    "job_s": [o.latency for o in r.outcomes]} for r in rounds],
        "job_labels": [job.label for job in jobs],
        "digests": [o.digests for o in rounds[0].outcomes],
        "failures": [{"job": o.label, "reason": o.reason} for o in failures],
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["span_stats"] = {
            name: {"calls": calls, "incl_s": incl, "self_s": own,
                   "min_self_s": low if calls else None, "failures": failed}
            for name, (calls, incl, own, low, failed) in sorted(tracer.stats.items())}
        record["counters"] = dict(sorted(tracer.counters.items()))
        record["traced_digests"] = [o.digests for o in rounds[1].outcomes]
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for o in failures[:10]:
        print(f"perfbench: job {o.label} failed: {o.reason}", file=sys.stderr)
    print(f"# {args.workload}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"{len(outcomes)} jobs attempted, inputs {input_sha[:16]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
