"""Scenario runner.

Verbs:
    liesys run <scenario.json> [--out DIR] [--seed N]
    liesys list
    liesys verify [--out DIR] [--seed N]

Scenarios are JSON documents (schema in the README).  All CSV output uses a
header row, the time column first when there is one, and 17-significant-digit
formatting, so reruns with the same seed are byte-identical.  Files are
written atomically (temp file + rename).  Exit status is 0 iff every
threshold in the scenario passes.  The LIESYS_OUT environment variable
overrides the default output directory.
"""

import argparse
import functools
import inspect
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import group as G
from .errors import LiesysError, ScenarioError, SingularityError
from .integrate import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, FREQUENCY_PROFILES,
                        MIN_REL_TOL, Trajectory, compare, worst)
from .invariants import drift
from .invariants import generalized_invariant  # noqa: F401  bound for perfbench/tracer.py
from .superposition import (keys_from, linear_rule, pinney_rule_from_solutions,
                            quadrature_rule)
from .systems import SHAPE_FUNCTIONS, SYSTEM_FACTORIES
from .vectorfield import bracket  # noqa: F401  bound for perfbench/tracer.py
from .vectorfield import minimal_m, verify_algebra

SUPERPOSE_RULES = ("linear", "quadrature", "pinney")
REDUCE_METHODS = ("dalembert", "pinney-osc", "pinney-self")

# Pipeline name -> every scenario field it reads, as `liesys list` prints
# them: optional ones in [ ], keys of one object in { }, a note in ( ), and
# "system" for the entry's name, frequency and the named system's
# parameters.  Each name runs the function pipeline_<name with - as _> below.
PIPELINES = {
    "integrate": "system, initial_states, t_span [, samples, tolerances.{abs, rel}]",
    "drift": "system, initial_states, t_span [, invariant, "
             "tolerances.{abs, rel, threshold}]",
    "superpose": f"rule ({'|'.join(SUPERPOSE_RULES)}), system, initial_states "
                 "(pinney: y, z, targets...), t_span (forward unless linear) "
                 "[, keys, samples, tolerances.{abs, rel, threshold}]",
    "reduce": f"method ({'|'.join(REDUCE_METHODS)}), system.{{frequency, k}}, "
              "initial_states (x1, targets...), t_span (forward) [, system.name, "
              "keys, samples, tolerances.{abs, rel, threshold}]",
    "verify-algebra": "system, probes [, system.half_plane, seed, tolerances.threshold]",
    "minimal-m": "system, max_copies [, system.half_plane, seed, expected_m]",
    "group-solve": "system.frequency, initial_states (targets...), t_span "
                   "[, system.name, samples, tolerances.{abs, rel, threshold}]",
}

OUT_ENV_VAR = "LIESYS_OUT"

# The most work a scenario may ask for, far above the shipped values: sample
# times per CSV (201), probe points (100), copies in the rank search (4) and
# initial states (3; verify's criteria use 7).  A drift lane at MAX_STEPS
# holds about 4.2 MiB, so MAX_STATES lanes stay near 270 MiB.
MAX_SAMPLES = 10**6
MAX_PROBES = 10**5
MAX_COPIES = 16
MAX_STATES = 64

# group-solve's bound on |det g - 1| of the solved curve, at the samples and
# at the solver's nodes
GROUP_DET_BOUND = 1e-9


def _atomic_write(path, text):
    """Write through a temporary file and a rename; an OSError is a usage
    error of ``--out``."""
    tmp = None
    try:
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".liesys-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ScenarioError(str(exc), field="--out") from exc
        raise


def write_csv(path, header, rows):
    """Floats, Python or numpy, get 17 significant digits; every other cell is
    written by str.  Each row is formatted by one % template, built once for
    each sequence of cell types."""
    templates = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        # unpacked, not tuple(map(...)), whose tuple is allocated at a guessed
        # length and shrunk: that kept the peak RSS of many runs 0.5 MiB higher
        kinds = (*map(type, row),)
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%.17g" if issubclass(kind, (float, np.floating)) else "%s"
                for kind in kinds)
        lines.append(template % row)
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_summary(path, summary):
    """Strict JSON (RFC 8259): a non-finite float is written as the string
    "NaN", "Infinity" or "-Infinity", which float() reads back."""
    summary = json.loads(json.dumps(summary, default=_json_default), parse_constant=str)
    _atomic_write(path, json.dumps(summary, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


# --- scenario parsing --------------------------------------------------------

def _require(scn, field, types=None):
    if field not in scn:
        raise ScenarioError(f"missing required field '{field}'", field=field)
    v = scn[field]
    if types is not None and not isinstance(v, types):
        raise ScenarioError(f"field '{field}' has the wrong type", field=field)
    return v


def _number(value, field, integer=False):
    """``value`` as a finite float, or as an int when ``integer`` is set.

    Anything else (a string, a bool, NaN, an infinity, 2.5 for a count) is a
    ScenarioError naming ``field``.
    """
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "a whole number" if integer else "a finite number"
        raise ScenarioError(f"field '{field}' must be {kind}", field=field)
    return int(value) if integer else x


def _choice(value, options, field, what):
    """``value`` when it is one of the names ``options``; anything else (an
    unknown name, a list, a number) is a ScenarioError naming ``field``."""
    if not (isinstance(value, str) and value in options):
        raise ScenarioError(f"unknown {what} {json.dumps(value)} "
                            f"(available: {', '.join(sorted(options))})", field=field)
    return value


def _count(scn, field, default, low, high):
    """``scn[field]`` (``default`` when absent) as a whole number in
    [low, high], or a ScenarioError naming ``field``."""
    n = _number(scn.get(field, default), field, integer=True)
    if not low <= n <= high:
        raise ScenarioError(f"{field} must be between {low} and {high}",
                            field=field)
    return n


def _seed(value):
    """A random seed: a whole number >= 0, or a ScenarioError naming seed."""
    seed = _number(value, "seed", integer=True)
    if seed < 0:
        raise ScenarioError("field 'seed' must not be negative", field="seed")
    return seed


def build_frequency(cfg):
    if cfg is None:
        cfg = {"name": "constant"}
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    if not isinstance(cfg, dict):
        raise ScenarioError("frequency must be a profile name or an object",
                            field="system.frequency")
    name = _choice(cfg.get("name"), FREQUENCY_PROFILES, "system.frequency",
                   "frequency profile")
    kwargs = {k: _number(v, "system.frequency") for k, v in cfg.items()
              if k != "name"}
    try:
        return FREQUENCY_PROFILES[name](**kwargs)
    except TypeError as exc:
        raise ScenarioError(f"bad frequency parameters: {exc}",
                            field="system.frequency")


def build_system(cfg, name=None):
    """The system a scenario's ``system`` entry describes; ``name``, when
    given, replaces its name (a pipeline building the oscillator or the
    Milne-Pinney system of the same frequency and k); the entry's own name,
    where it has one, is checked all the same."""
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    if not isinstance(cfg, dict):
        raise ScenarioError("system must be a name or an object", field="system")
    if name is None or "name" in cfg:
        own = _choice(cfg.get("name"), SYSTEM_FACTORIES, "system.name", "system")
        name = name or own
    omega = build_frequency(cfg.get("frequency"))
    # the fields a factory reads are the parameters it takes
    takes = inspect.signature(SYSTEM_FACTORIES[name]).parameters
    kwargs = {}
    if "k" in takes:
        kwargs["k"] = _number(cfg.get("k", 1.0), "system.k")
    if "shapes" in takes:
        shape_name = _choice(cfg.get("shapes", "quadratic"), SHAPE_FUNCTIONS,
                             "system.shapes", "shape functions")
        kwargs["shapes"] = SHAPE_FUNCTIONS[shape_name]()
    return SYSTEM_FACTORIES[name](omega, **kwargs)


def _only_reads(cfg, read, field):
    """Exit 2 naming the first key of the object ``field`` (``cfg``) that the
    pipeline does not ``read``, rather than ignore it."""
    for key in cfg:
        if key not in read:
            raise ScenarioError(f"this pipeline does not read '{field}.{key}'",
                                field=f"{field}.{key}")


def _systems(scn, *names, extra=()):
    """The system the scenario's ``system`` entry names, or one of each
    factory in ``names``; a key of the entry other than its name, frequency,
    the parameters of each system built and ``extra`` exits 2."""
    cfg = _require(scn, "system")
    built = [build_system(cfg, name) for name in names or (None,)]
    if isinstance(cfg, dict):
        _only_reads(cfg, {"name", *extra}.union(*(s.params for s in built)), "system")
    return built


def _probed_system(scn):
    """The system of a pipeline that probes it, and ``sample(count)``, its
    probes in the half-plane ``system.half_plane`` (1 or -1, default 1),
    drawn from one stream of the scenario's ``seed``."""
    sysd, = _systems(scn, extra=("half_plane",))
    cfg = scn["system"]
    half_plane = _number(cfg.get("half_plane", 1) if isinstance(cfg, dict) else 1,
                         "system.half_plane", integer=True)
    if half_plane not in (1, -1):
        raise ScenarioError("half_plane must be 1 or -1", field="system.half_plane")
    rng = np.random.default_rng(_seed(scn.get("seed", 0)))
    return sysd, lambda count: sysd.sample_domain(rng, count, half_plane=half_plane)


def _initial_states(scn, dimension, count_min=1, count_max=MAX_STATES):
    """The scenario's ``count_min`` to ``count_max`` initial states, each of
    ``dimension`` finite numbers, or a ScenarioError naming initial_states."""
    states = _require(scn, "initial_states", list)
    if not count_min <= len(states) <= count_max:
        count = (count_min if count_min == count_max
                 else f"{count_min} to {count_max}")
        raise ScenarioError(f"pipeline needs {count} initial states",
                            field="initial_states")
    for i, s in enumerate(states):
        if not isinstance(s, list) or len(s) != dimension:
            raise ScenarioError(
                f"initial state #{i} must be a list of {dimension} numbers",
                field="initial_states")
    return [np.array([_number(c, "initial_states") for c in s]) for s in states]


def _t_span(scn, forward=False):
    """(t0, t1); ``forward`` asks t0 < t1 for closed forms anchored at t0."""
    span = [_number(t, "t_span") for t in _require(scn, "t_span", list)]
    if len(span) != 2 or span[0] == span[1]:
        raise ScenarioError("t_span must be two distinct numbers", field="t_span")
    if forward and span[0] > span[1]:
        raise ScenarioError("this pipeline's closed forms need t_span[0] < t_span[1]",
                            field="t_span")
    return span[0], span[1]


def _tolerances(scn, threshold=None, solves=True):
    """The integrator's abs and rel when the pipeline ``solves``, then the
    threshold of its verdict, default ``threshold``, if it has one; any
    other key of ``tolerances`` exits 2."""
    tols = scn.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ScenarioError("tolerances must be an object", field="tolerances")
    read = {"abs": DEFAULT_ABS_TOL, "rel": DEFAULT_REL_TOL} if solves else {}
    read.update({} if threshold is None else {"threshold": threshold})
    _only_reads(tols, read, "tolerances")
    values = {k: _number(tols.get(k, d), f"tolerances.{k}") for k, d in read.items()}
    if not all(value > 0 for value in values.values()):
        raise ScenarioError("tolerances must be positive", field="tolerances")
    if values.get("rel", MIN_REL_TOL) < MIN_REL_TOL:
        raise ScenarioError("tolerances.rel must be at least 100 machine epsilons "
                            f"({MIN_REL_TOL:.6g}), the solver's floor",
                            field="tolerances.rel")
    return list(values.values())


def _sample_times(scn, t0, t1):
    return np.linspace(t0, t1, _count(scn, "samples", 201, 2, MAX_SAMPLES))


def _keys(scn):
    keys = scn.get("keys")
    if not isinstance(keys, list) or len(keys) != 2:
        raise ScenarioError("keys must be [k_prime, k]", field="keys")
    return _number(keys[0], "keys"), _number(keys[1], "keys")


# --- pipelines ---------------------------------------------------------------
# Each takes the scenario alone and returns (ok, summary, files), where files
# is [(suffix, header, rows)].

def pipeline_integrate(scn):
    sysd, = _systems(scn)
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol = _tolerances(scn)
    states = _initial_states(scn, sysd.dimension)
    times = _sample_times(scn, t0, t1)
    files, runs = [], []
    for i, y0 in enumerate(states):
        traj = sysd.integrate(y0, (t0, t1), abs_tol, rel_tol)
        header = ["time"] + [f"y{j}" for j in range(sysd.dimension)]
        rows = [[t, *state] for t, state in zip(times, traj.dense(times))]
        files.append((f"run{i}", header, rows))
        runs.append({"initial_state": [float(c) for c in y0],
                     "final_state": [float(c) for c in traj.dense(t1)],
                     "accepted_steps": len(traj.times) - 1,
                     "nfev": traj.nfev})
    return True, {"system": sysd.name, "runs": runs}, files


def pipeline_drift(scn):
    sysd, = _systems(scn)
    reg = sysd.invariants
    if not reg:
        raise ScenarioError(f"system {sysd.name} has no registered invariant",
                            field="invariant")
    # an omitted invariant means every invariant of the system
    names = [scn["invariant"]] if "invariant" in scn else list(reg)
    for name in names:
        _choice(name, reg, "invariant", f"invariant of system {sysd.name}")
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, 1e-6)
    states = _initial_states(scn, sysd.dimension)
    files, runs = [], []
    # the rows in the order solved, from t0: a reversed span reads them backwards
    order = slice(None, None, 1 if t0 < t1 else -1)
    for y0, traj in zip(states, sysd.integrate_lanes(states, (t0, t1), abs_tol, rel_tol)):
        for name in names:
            series = drift(traj.times[order], traj.states[order], reg[name], name)
            files.append((f"run{len(files)}", ["time", "value", "running_drift"],
                          zip(series.times, series.values, series.running)))
            runs.append({"initial_state": [float(c) for c in y0], "invariant": name,
                         "drift_abs": series.drift_abs,
                         "drift_rel": series.drift_rel, "partial": series.partial,
                         "pass": series.drift_rel < threshold and not series.partial})
    summary = {"system": sysd.name, "threshold": threshold, "runs": runs}
    if "invariant" in scn:
        summary["invariant"] = names[0]
    return all(run["pass"] for run in runs), summary, files


def _oracle_runs(oracle, targets, got, times, span, tols, kind, key):
    """The closed-form rows ``got`` of each target (x, or the linear rule's
    (x, v)) against its oracle, a lane of one solve of the system ``oracle``
    from all ``targets`` over ``span`` at ``tols`` (abs, rel): the worst
    ``kind`` error, the runs (theirs under ``key``) and each target's x,
    reference x, |error| and ``kind`` error per sample."""
    runs, columns = [], []
    for y0, rows, ref in zip(targets, got, oracle.integrate_lanes(targets, span, *tols)):
        want = ref.dense(times)[:, :rows.shape[1]]
        err = compare(rows, want, kind)
        runs.append({"initial_state": [float(c) for c in y0], key: worst(err)})
        columns.append((rows[:, 0], want[:, 0], compare(rows, want, "abs"), err))
    return worst([run[key] for run in runs]), runs, columns


def pipeline_superpose(scn):
    rule = _choice(scn.get("rule"), SUPERPOSE_RULES, "rule", "rule")
    t0, t1 = _t_span(scn, forward=rule != "linear")
    sysd, = _systems(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, 1e-5)
    times = _sample_times(scn, t0, t1)
    needs = "milne_pinney" if rule == "pinney" else "oscillator_1d"
    if sysd.name != needs:
        raise ScenarioError(f"the {rule} rule needs system {needs}",
                            field="system.name")
    # the linear rule reads two basis solutions and a target, the quadrature
    # rule x1 alone; every Pinney state after y and z is a target
    states = _initial_states(scn, 2, *{"linear": (3, 3), "quadrature": (1, 1),
                                       "pinney": (3, MAX_STATES)}[rule])

    if rule == "linear":
        # Two solo solves, never lanes of the oracle's: on shared steps the
        # Runge-Kutta map of a linear system is linear in y0, so the rule would
        # hold anyway.
        s1, s2 = [sysd.integrate(y0, (t0, t1), abs_tol, rel_tol) for y0 in states[:2]]
        k1, k2 = keys_from(*states[2], *states[0], *states[1])
        targets = states[2:3]
        got = [np.column_stack(linear_rule(*s1.dense(times).T, *s2.dense(times).T,
                                           k1, k2))]
        kind, extra = "abs", {"keys": [k1, k2]}

    elif rule == "quadrature":
        k_prime, k = _keys(scn)
        x0, v0 = states[0]
        if k != 0.0 and x0 == 0.0:
            raise SingularityError("the quadrature rule with k != 0 needs x1(t0) != 0")
        # x2 = k' x1 + k x1 tau, where tau(t0) = 0 and tau'(t0) = 1 / x1(t0)^2
        targets = [[k_prime * x0, k_prime * v0 + (k / x0 if k != 0.0 else 0.0)]]
        x1 = sysd.integrate(states[0], (t0, t1), abs_tol, rel_tol)
        got = [quadrature_rule(x1, k_prime, k, times)[:, None]]
        kind, extra = "abs", {"keys": [k_prime, k]}

    else:  # pinney: every state after y and z is a target
        osc = build_system(scn["system"], "oscillator_1d")
        y, z = [osc.integrate(s, (t0, t1), abs_tol, rel_tol) for s in states[:2]]
        pair = Trajectory.from_function(lambda t: np.hstack([y.dense(t), z.dense(t)]),
                                        y.times)
        k, targets = sysd.params["k"], states[2:]
        got = [pinney_rule_from_solutions(pair, x0, v0, k).dense(times)[:, :1]
               for x0, v0 in targets]
        kind, extra = "rel", {"k": k}

    max_err, runs, columns = _oracle_runs(sysd, targets, got, times, (t0, t1),
                                          (abs_tol, rel_tol), kind, "max_error")
    ok = max_err < threshold
    summary = {"rule": rule, "max_error": max_err, "threshold": threshold,
               "runs": runs, **extra}
    header = ["time", "reconstructed_x", "reference_x", "abs_error"]
    return ok, summary, [(f"target{i}", header, zip(times, x, rx, err))
                         for i, (x, rx, err, _) in enumerate(columns)]


def pipeline_reduce(scn):
    method = _choice(scn.get("method"), REDUCE_METHODS, "method", "method")
    t0, t1 = _t_span(scn, forward=True)
    abs_tol, rel_tol, threshold = _tolerances(scn, 1e-5)
    times = _sample_times(scn, t0, t1)
    states = _initial_states(scn, 2, *((1, 1) if method == "dalembert"
                                       else (2, MAX_STATES)))
    osc, mp = _systems(scn, "oscillator_1d", "milne_pinney")
    k = mp.params["k"]
    if method == "pinney-self" and k <= 0.0:
        raise ScenarioError("the pinney-self reduction needs k > 0", field="system.k")

    if method == "dalembert":
        keys = _keys(scn)
        x1 = osc.integrate(states[0], (t0, t1), abs_tol, rel_tol)
        reds = [G.reduce_oscillator(x1, *keys)]
        targets, oracle = [reds[0].states[0]], osc
    else:  # every state after the particular solution x1 is a target
        x1 = (osc if method == "pinney-osc" else mp).integrate(
            states[0], (t0, t1), abs_tol, rel_tol)
        targets, oracle = states[1:], mp
        reduce = (G.reduce_pinney_from_oscillator if method == "pinney-osc"
                  else G.reduce_pinney_from_pinney)
        reds = [reduce(x1, x0, v0, k) for x0, v0 in targets]

    max_err, runs, columns = _oracle_runs(
        oracle, targets, [red.dense(times)[:, :1] for red in reds], times, (t0, t1),
        (abs_tol, rel_tol), "rel", "max_rel_error")
    tau = x1.tau_clock()(times)  # the clock the reduction itself ran on
    ok = max_err < threshold
    summary = {"method": method, "max_rel_error": max_err,
               "threshold": threshold, "runs": runs}
    header = ["time", "tau", "reduced_x", "reference_x", "abs_error"]
    return ok, summary, [(f"target{i}", header, zip(times, tau, x, rx, err))
                         for i, (x, rx, err, _) in enumerate(columns)]


def pipeline_verify_algebra(scn):
    sysd, sample = _probed_system(scn)
    threshold, = _tolerances(scn, 1e-9, solves=False)
    n_probes = _count(scn, "probes", 100, 1, MAX_PROBES)
    probes = sample(n_probes)
    report = verify_algebra(sysd.generators, sysd.constants, probes, threshold)
    names = [X.name for X in sysd.generators]
    rows = [[f"{names[a]}-{names[b]}", res]
            for (a, b), res in report.pair_residuals.items()]
    summary = {"system": sysd.name, "probes": n_probes,
               "worst_residual": report.worst_residual, "threshold": threshold}
    return report.ok, summary, [("residuals", ["pair", "max_residual"], rows)]


def pipeline_minimal_m(scn):
    sysd, sample = _probed_system(scn)
    _tolerances(scn, solves=False)  # reads none, so any tolerance exits 2
    max_copies = _count(scn, "max_copies", 4, 1, MAX_COPIES)
    expected = scn.get("expected_m")
    if expected is not None:
        expected = _number(expected, "expected_m", integer=True)
    ranks = minimal_m(sysd.generators, max_copies, lambda copies, count: sample(
        copies * count).reshape(count, -1).T)
    m = len(ranks)
    ok = expected is None or m == expected
    summary = {"system": sysd.name, "m": m}
    if expected is not None:
        summary["expected_m"] = expected
    return ok, summary, [("ranks", ["copies", "rank"], enumerate(ranks, 1))]


def pipeline_group_solve(scn):
    osc, = _systems(scn, "oscillator_1d")
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, 1e-6)
    times = _sample_times(scn, t0, t1)
    states = _initial_states(scn, osc.dimension)
    # The group curve of the oscillator: a(t) = -sum_a b_a(t) e_a.
    b1, b2, b3 = osc.coefficients
    curve = G.solve_group_equation(lambda t: G.Sl2Vector(-b1(t), -b2(t), -b3(t)),
                                   (t0, t1), abs_tol, rel_tol)
    raw = curve.dense(times).reshape(-1, 2, 2)  # one read, scaled to determinant 1
    det = np.linalg.det(raw)
    g = raw / np.sqrt(det)[..., None, None]
    # |det - 1| at the samples and at the solver's nodes
    max_det = worst(compare(np.concatenate(
        [det, np.linalg.det(curve.states.reshape(-1, 2, 2))]), 1.0, "abs"))
    max_err, runs, columns = _oracle_runs(osc, states, [g @ p0 for p0 in states], times,
                                          (t0, t1), (abs_tol, rel_tol), "rel",
                                          "max_action_error")
    header = ["time", "g11", "g12", "g21", "g22", "det_minus_1", "action_error"]
    files = [(f"target{i}", header, zip(times, *g.reshape(-1, 4).T, det - 1.0, err))
             for i, (*_, err) in enumerate(columns)]
    ok = max_err < threshold and max_det < GROUP_DET_BOUND
    summary = {"frequency": osc.params["frequency"], "max_action_error": max_err,
               "max_det_drift": max_det, "threshold": threshold, "runs": runs}
    return ok, summary, files


# --- verbs -------------------------------------------------------------------

def _resolve_out(args_out):
    return args_out or os.environ.get(OUT_ENV_VAR) or "."


def cmd_run(args):
    try:
        with open(args.scenario, encoding="utf-8") as fh:  # RFC 8259
            scn = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON, UTF-8, digit limit
        raise ScenarioError(f"cannot read scenario: {exc}", field="scenario") from exc
    if not isinstance(scn, dict):
        raise ScenarioError("scenario must be a JSON object", field="scenario")

    out_dir = _resolve_out(args.out)
    try:
        # --seed replaces the scenario's seed in a copy, so that a pipeline
        # reads its scenario and nothing else.
        scn = {**scn, "seed": _seed(args.seed if args.seed is not None
                                    else scn.get("seed", 0))}
        pipeline = _choice(_require(scn, "pipeline"), PIPELINES, "pipeline", "pipeline")
        stem = _stem(scn, args)
        # Looked up by name on every run, so that a rebinding of a module
        # attribute pipeline_* (perfbench/tracer.py wraps them) takes effect.
        run = globals()["pipeline_" + pipeline.replace("-", "_")]
        ok, summary, files = run(scn)
    except ScenarioError:
        raise  # main reports it
    except LiesysError as exc:
        summary = {"pipeline": pipeline, "pass": False,
                   "error": str(exc), "last_good_time": exc.last_time}
        write_summary(os.path.join(out_dir, stem + "_summary.json"), summary)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    summary = {"pipeline": pipeline, "seed": scn["seed"], "pass": bool(ok), **summary}
    written = []
    for suffix, header, rows in files:
        name = f"{stem}_{suffix}.csv" if len(files) > 1 else f"{stem}.csv"
        path = os.path.join(out_dir, name)
        write_csv(path, header, rows)
        written.append(name)
    summary["csv_files"] = written
    write_summary(os.path.join(out_dir, f"{stem}_summary.json"), summary)
    status = "PASS" if ok else "FAIL"
    print(f"{pipeline}: {status} (summary: {stem}_summary.json)")
    return 0 if ok else 1


def _stem(scn, args):
    out = scn.get("output", {})
    if not isinstance(out, dict):
        raise ScenarioError("output must be an object", field="output")
    name = out.get("csv")
    if name is not None and not (isinstance(name, str) and os.path.basename(name)):
        raise ScenarioError("output.csv must be a file name", field="output.csv")
    return os.path.splitext(os.path.basename(name or args.scenario))[0]


def cmd_list(_args):
    print("systems:")
    for name in sorted(SYSTEM_FACTORIES):
        params = list(inspect.signature(SYSTEM_FACTORIES[name]).parameters)[1:]
        print(f"  {name:<20} parameters: {', '.join(params) or 'none'}")
    print("frequency profiles:")
    for name, factory in FREQUENCY_PROFILES.items():
        params = inspect.signature(factory).parameters.values()
        print(f"  {name:<13} parameters: "
              f"{', '.join(f'{p.name}={p.default}' for p in params) or 'none'}")
    print("shape functions (generalized_ermakov):")
    for name, shapes in SHAPE_FUNCTIONS.items():
        print(f"  {name:<13} {shapes().description}")
    print("pipelines:")
    for name, fields in PIPELINES.items():
        print(f"  {name:<14} {fields}")
    return 0


def cmd_verify(args):
    out_dir = _resolve_out(args.out)
    seed = _seed(args.seed if args.seed is not None else 0)
    from .acceptance import run_all  # imported here: acceptance imports cli

    criteria = []
    for r, seconds in run_all(seed):
        # the wall time goes to stdout only, so the files stay byte-identical
        print(f"{r.line()} [{seconds:.2f} s]")
        name = f"criterion_{r.index}.csv"
        write_csv(os.path.join(out_dir, name), r.csv_header, r.csv_rows)
        criteria.append({"index": r.index, "name": r.name, "pass": r.passed,
                         "detail": r.detail, "csv": name})
    passed = sum(c["pass"] for c in criteria)
    ok = passed == len(criteria)
    write_summary(os.path.join(out_dir, "verify_summary.json"),
                  {"seed": seed, "criteria": criteria, "pass": ok})
    print(f"overall: {'PASS' if ok else 'FAIL'} ({passed}/{len(criteria)} criteria)")
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves no
    state in it, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="liesys",
        description="Scenario runner for sl(2,R) Lie systems: oscillators, "
                    "Milne-Pinney and Ermakov systems, superposition rules "
                    "and reductions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute a JSON scenario file")
    run_p.add_argument("scenario", help="path to the scenario file")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list", help="print the catalog")
    list_p.set_defaults(func=cmd_list)

    verify_p = sub.add_parser("verify", help="run the built-in acceptance suite")
    verify_p.set_defaults(func=cmd_verify)

    for p in (run_p, verify_p):
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_ENV_VAR} or .)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the random seed (default: scenario seed "
                            "or 0)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # A value that leaves the float range ends a run in one of its
        # documented ways, an exit 1 or a failed check, so numpy's warnings
        # of it are not printed; verify's workers inherit the state at fork.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ScenarioError as exc:  # a bad field, or a failed write under --out
        print(f"usage error in field '{exc.field}': {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
