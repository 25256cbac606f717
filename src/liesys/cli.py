"""Scenario runner.

Verbs:
    liesys run <scenario.json> [--out DIR] [--seed N] [--tol-override X]
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
import json
import os
import sys
import tempfile

import numpy as np

from . import group as G
from .acceptance import relative_errors, run_all
from .errors import IntegrationError, LiesysError, ScenarioError
from .integrate import FREQUENCY_PROFILES, Trajectory
from .invariants import (angular_momentum, drift, ermakov_pair_invariants,
                         generalized_invariant, lewis_ermakov)
from .superposition import (keys_from, linear_rule, pinney_rule_from_solutions,
                            quadrature_rule)
from .systems import SHAPE_FUNCTIONS, SYSTEM_FACTORIES
from .vectorfield import bracket, minimal_m, prolonged_rank

PIPELINES = ("integrate", "drift", "superpose", "reduce", "verify-algebra",
             "minimal-m", "group-solve")

REDUCE_METHODS = ("dalembert", "pinney-osc", "pinney-self")

OUT_ENV_VAR = "LIESYS_OUT"


def _fmt(x):
    return f"{float(x):.17g}"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".liesys-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_summary(path, summary):
    _atomic_write(path, json.dumps(summary, indent=2, sort_keys=True,
                                   default=_json_default) + "\n")


# --- scenario parsing --------------------------------------------------------

def _require(scn, field, types=None):
    if field not in scn:
        raise ScenarioError(f"missing required field '{field}'", field=field)
    v = scn[field]
    if types is not None and not isinstance(v, types):
        raise ScenarioError(f"field '{field}' has the wrong type", field=field)
    return v


def build_frequency(cfg):
    if cfg is None:
        cfg = {"name": "constant"}
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    name = cfg.get("name")
    if name not in FREQUENCY_PROFILES:
        raise ScenarioError(
            f"unknown frequency profile '{name}' "
            f"(available: {', '.join(sorted(FREQUENCY_PROFILES))})",
            field="system.frequency")
    kwargs = {k: v for k, v in cfg.items() if k != "name"}
    try:
        return FREQUENCY_PROFILES[name](**kwargs)
    except TypeError as exc:
        raise ScenarioError(f"bad frequency parameters: {exc}",
                            field="system.frequency")


def build_system(cfg):
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    name = cfg.get("name")
    if name not in SYSTEM_FACTORIES:
        raise ScenarioError(
            f"unknown system '{name}' "
            f"(available: {', '.join(sorted(SYSTEM_FACTORIES))})",
            field="system.name")
    omega = build_frequency(cfg.get("frequency"))
    kwargs = {}
    if name in ("milne_pinney", "pinney_triple"):
        kwargs["k"] = float(cfg.get("k", 1.0))
    if name == "generalized_ermakov":
        shape_name = cfg.get("shapes", "quadratic")
        if shape_name not in SHAPE_FUNCTIONS:
            raise ScenarioError(
                f"unknown shape functions '{shape_name}' "
                f"(available: {', '.join(sorted(SHAPE_FUNCTIONS))})",
                field="system.shapes")
        kwargs["shapes"] = SHAPE_FUNCTIONS[shape_name]()
    if "half_plane" in cfg and name != "oscillator_1d" and name != "oscillator_2d":
        kwargs["half_plane"] = int(cfg["half_plane"])
    return SYSTEM_FACTORIES[name](omega, **kwargs)


def _initial_states(scn, sysd, count_min=1):
    states = _require(scn, "initial_states", list)
    if len(states) < count_min:
        raise ScenarioError(
            f"pipeline needs at least {count_min} initial state(s)",
            field="initial_states")
    out = []
    for i, s in enumerate(states):
        s = np.asarray(s, dtype=float)
        if sysd is not None and s.shape != (sysd.dimension,):
            raise ScenarioError(
                f"initial state #{i} has dimension {s.size}, "
                f"system '{sysd.name}' needs {sysd.dimension}",
                field="initial_states")
        out.append(s)
    return out


def _t_span(scn):
    span = _require(scn, "t_span", list)
    if len(span) != 2 or float(span[0]) == float(span[1]):
        raise ScenarioError("t_span must be two distinct numbers", field="t_span")
    return float(span[0]), float(span[1])


def _tolerances(scn, tol_override=None, default_threshold=1e-6):
    tols = scn.get("tolerances", {})
    abs_tol = float(tols.get("abs", 1e-10))
    rel_tol = float(tols.get("rel", 1e-10))
    threshold = float(tols.get("threshold", default_threshold))
    if tol_override is not None:
        threshold = float(tol_override)
    if abs_tol <= 0 or rel_tol <= 0 or threshold <= 0:
        raise ScenarioError("tolerances must be positive", field="tolerances")
    return abs_tol, rel_tol, threshold


def _sample_times(scn, t0, t1, default=201):
    n = int(scn.get("samples", default))
    if n < 2:
        raise ScenarioError("samples must be >= 2", field="samples")
    return np.linspace(t0, t1, n)


# --- invariant registry for the drift pipeline -------------------------------

def _invariant_registry(sysd):
    """Invariant evaluators applicable to a given system."""
    reg = {}
    if sysd.name == "oscillator_2d":
        reg["angular_momentum"] = lambda s: angular_momentum(s[0], s[1], s[2], s[3])
    if sysd.name == "ermakov":
        reg["lewis_ermakov"] = lambda s: lewis_ermakov(s[0], s[2], s[1], s[3])
    if sysd.name == "pinney_triple":
        k = sysd.params["k"]
        reg["pair_i1"] = lambda s: ermakov_pair_invariants(s, k)[0]
        reg["pair_i2"] = lambda s: ermakov_pair_invariants(s, k)[1]
        reg["wronskian"] = lambda s: ermakov_pair_invariants(s, k)[2]
    if sysd.name == "generalized_ermakov":
        shapes = SHAPE_FUNCTIONS[
            "quadratic" if "u^2" in sysd.params["shapes"] else "zero_one"]()
        reg["generalized"] = lambda s: generalized_invariant(
            s[0], s[2], s[1], s[3], shapes)
    return reg


# --- pipelines ---------------------------------------------------------------
# Each returns (ok, summary, files) where files is [(suffix, header, rows)].

def pipeline_integrate(scn, tol_override):
    sysd = build_system(_require(scn, "system"))
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, _ = _tolerances(scn, tol_override)
    states = _initial_states(scn, sysd)
    times = _sample_times(scn, t0, t1)
    files, runs = [], []
    for i, y0 in enumerate(states):
        traj = sysd.integrate(y0, (t0, t1), abs_tol, rel_tol)
        header = ["time"] + [f"y{j}" for j in range(sysd.dimension)]
        rows = [[_fmt(t)] + [_fmt(c) for c in state]
                for t, state in zip(times, traj.dense(times))]
        files.append((f"run{i}", header, rows))
        runs.append({"initial_state": [float(c) for c in y0],
                     "final_state": [float(c) for c in traj.final_state],
                     "accepted_steps": len(traj.times) - 1,
                     "nfev": traj.nfev})
    return True, {"system": sysd.name, "runs": runs}, files


def pipeline_drift(scn, tol_override):
    sysd = build_system(_require(scn, "system"))
    reg = _invariant_registry(sysd)
    name = scn.get("invariant")
    if name not in reg:
        raise ScenarioError(
            f"invariant '{name}' not available for system '{sysd.name}' "
            f"(available: {', '.join(sorted(reg))})", field="invariant")
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, tol_override)
    states = _initial_states(scn, sysd)
    files, runs, ok = [], [], True
    for i, y0 in enumerate(states):
        traj = sysd.integrate(y0, (t0, t1), abs_tol, rel_tol)
        series = drift(traj, reg[name], name)
        rows = [[_fmt(t), _fmt(v), _fmt(d)] for t, v, d in
                zip(series.times, series.values,
                    np.maximum.accumulate(np.abs(series.values - series.values[0])))]
        files.append((f"run{i}", ["time", "value", "running_drift"], rows))
        passed = series.drift_rel < threshold and not series.partial
        ok = ok and passed
        runs.append({"initial_state": [float(c) for c in y0],
                     "drift_abs": series.drift_abs,
                     "drift_rel": series.drift_rel,
                     "partial": series.partial, "pass": passed})
    return ok, {"system": sysd.name, "invariant": name,
                "threshold": threshold, "runs": runs}, files


def pipeline_superpose(scn, tol_override):
    rule = scn.get("rule")
    if rule not in ("linear", "quadrature", "pinney"):
        raise ScenarioError("rule must be linear, quadrature or pinney",
                            field="rule")
    sysd = build_system(_require(scn, "system"))
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, tol_override, 1e-5)
    times = _sample_times(scn, t0, t1)

    if rule == "linear":
        if sysd.name != "oscillator_1d":
            raise ScenarioError("the linear rule needs system oscillator_1d",
                                field="system.name")
        s1, s2, target = [sysd.integrate(y0, (t0, t1), abs_tol, rel_tol)
                          for y0 in _initial_states(scn, sysd, 3)[:3]]
        k1, k2 = keys_from(*target.initial_state, *s1.initial_state,
                           *s2.initial_state)
        x, v = linear_rule(*s1.dense(times).T, *s2.dense(times).T, k1, k2)
        rx, rv = target.dense(times).T
        err = np.maximum(np.abs(x - rx), np.abs(v - rv))
        max_err = float(np.max(err))
        header = ["time", "reconstructed_x", "reference_x", "abs_error"]
        extra = {"keys": [k1, k2]}

    elif rule == "quadrature":
        if sysd.name != "oscillator_1d":
            raise ScenarioError("the quadrature rule needs system oscillator_1d",
                                field="system.name")
        keys = scn.get("keys")
        if not isinstance(keys, list) or len(keys) != 2:
            raise ScenarioError("keys must be [k_prime, k]", field="keys")
        k_prime, k = float(keys[0]), float(keys[1])
        x1 = sysd.integrate(_initial_states(scn, sysd)[0], (t0, t1),
                            abs_tol, rel_tol)
        y0 = [k_prime * x1.initial_state[0],
              k_prime * x1.initial_state[1] + k / x1.initial_state[0]]
        ref = sysd.integrate(y0, (t0, t1), abs_tol, rel_tol)
        x = quadrature_rule(x1, k_prime, k, times)
        rx = ref.position(times)
        err = np.abs(x - rx)
        max_err = float(np.max(err))
        header = ["time", "reconstructed_x", "reference_x", "abs_error"]
        extra = {"keys": [k_prime, k]}

    else:  # pinney
        if sysd.name != "milne_pinney":
            raise ScenarioError("the pinney rule needs system milne_pinney",
                                field="system.name")
        states = _initial_states(scn, None, 3)
        for i, s in enumerate(states):
            if s.shape != (2,):
                raise ScenarioError(f"initial state #{i} must be (x, v)",
                                    field="initial_states")
        osc = build_system({"name": "oscillator_1d",
                            "frequency": _require(scn, "system").get("frequency")})
        y = osc.integrate(states[0], (t0, t1), abs_tol, rel_tol)
        z = osc.integrate(states[1], (t0, t1), abs_tol, rel_tol)
        x0, v0 = states[2]
        k = sysd.params["k"]
        rec = pinney_rule_from_solutions(y, z, x0, v0, k)
        ref = sysd.integrate([x0, v0], (t0, t1), abs_tol, rel_tol)
        x, rx = rec.position(times), ref.position(times)
        err = np.abs(x - rx)
        max_err = float(np.max(relative_errors(x, rx)))
        header = ["time", "reconstructed_x", "reference_x", "abs_error"]
        extra = {"k": k}

    rows = [[_fmt(c) for c in row] for row in zip(times, x, rx, err)]
    ok = max_err < threshold
    summary = {"rule": rule, "max_error": max_err,
               "threshold": threshold, "pass": ok, **extra}
    return ok, summary, [("errors", header, rows)]


def pipeline_reduce(scn, tol_override):
    method = scn.get("method")
    if method not in REDUCE_METHODS:
        raise ScenarioError(
            f"method must be one of {', '.join(REDUCE_METHODS)}",
            field="method")
    syscfg = _require(scn, "system")
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, tol_override, 1e-5)
    times = _sample_times(scn, t0, t1)
    states = _initial_states(scn, None, 1 if method == "dalembert" else 2)
    for i, s in enumerate(states):
        if s.shape != (2,):
            raise ScenarioError(f"initial state #{i} must be (x, v)",
                                field="initial_states")

    freq = syscfg.get("frequency") if isinstance(syscfg, dict) else None
    osc = build_system({"name": "oscillator_1d", "frequency": freq})
    mp = build_system({"name": "milne_pinney", "frequency": freq,
                       "k": syscfg.get("k", 1.0) if isinstance(syscfg, dict) else 1.0})
    k = mp.params["k"]

    if method == "dalembert":
        keys = scn.get("keys")
        if not isinstance(keys, list) or len(keys) != 2:
            raise ScenarioError("keys must be [k_prime, k]", field="keys")
        x1 = osc.integrate(states[0], (t0, t1), abs_tol, rel_tol)
        red = G.reduce_oscillator(x1, float(keys[0]), float(keys[1]))
        ref = osc.integrate(red.initial_state, (t0, t1), abs_tol, rel_tol)
    elif method == "pinney-osc":
        x1 = osc.integrate(states[0], (t0, t1), abs_tol, rel_tol)
        red = G.reduce_pinney_from_oscillator(x1, states[1][0], states[1][1], k)
        ref = mp.integrate(states[1], (t0, t1), abs_tol, rel_tol)
    else:
        x1 = mp.integrate(states[0], (t0, t1), abs_tol, rel_tol)
        red = G.reduce_pinney_from_pinney(x1, states[1][0], states[1][1], k)
        ref = mp.integrate(states[1], (t0, t1), abs_tol, rel_tol)

    tau = x1.tau_clock()(times)  # the clock the reduction itself ran on
    x, rx = red.position(times), ref.position(times)
    err = np.abs(x - rx)
    max_err = float(np.max(relative_errors(x, rx)))
    det_drift = np.abs(np.linalg.det(G.particular_solution_matrices(x1, times)) - 1.0)
    rows = [[_fmt(c) for c in row]
            for row in zip(times, tau, x, rx, err, det_drift)]
    ok = max_err < threshold
    summary = {"method": method, "max_rel_error": max_err,
               "threshold": threshold, "pass": ok}
    return ok, summary, [("errors", ["time", "tau", "reduced_x", "reference_x",
                                     "abs_error", "det_drift"], rows)]


def pipeline_verify_algebra(scn, tol_override, seed):
    sysd = build_system(_require(scn, "system"))
    _, _, threshold = _tolerances(scn, tol_override, 1e-9)
    n_probes = int(scn.get("probes", 100))
    rng = np.random.default_rng(seed)
    probes = sysd.sample_domain(rng, n_probes)
    c = sysd.constants.c
    gens = sysd.generators
    r = len(gens)
    rows, worst = [], 0.0
    for a in range(r):
        for b in range(a + 1, r):
            res = 0.0
            for p in probes:
                got = bracket(gens[a], gens[b], p)
                want = sum(c[a, b, g] * gens[g](p) for g in range(r))
                res = max(res, float(np.max(np.abs(got - want))))
            rows.append([f"{gens[a].name}-{gens[b].name}", _fmt(res)])
            worst = max(worst, res)
    ok = worst < threshold
    summary = {"system": sysd.name, "probes": n_probes,
               "worst_residual": worst, "threshold": threshold, "pass": ok}
    return ok, summary, [("residuals", ["pair", "max_residual"], rows)]


def pipeline_minimal_m(scn, tol_override, seed):
    sysd = build_system(_require(scn, "system"))
    max_copies = int(scn.get("max_copies", 4))
    rng = np.random.default_rng(seed)
    m = minimal_m(sysd.generators, max_copies, rng=rng)
    probe_rng = np.random.default_rng(seed)
    rows = []
    for copies in range(1, m + 1):
        probe = np.concatenate(sysd.sample_domain(probe_rng, copies))
        rows.append([str(copies), str(prolonged_rank(sysd.generators, copies, probe))])
    expected = scn.get("expected_m")
    ok = True if expected is None else (m == int(expected))
    summary = {"system": sysd.name, "m": m, "pass": ok}
    if expected is not None:
        summary["expected_m"] = int(expected)
    return ok, summary, [("ranks", ["copies", "rank"], rows)]


def pipeline_group_solve(scn, tol_override):
    syscfg = _require(scn, "system")
    omega = build_frequency(syscfg.get("frequency") if isinstance(syscfg, dict)
                            else None)
    osc = build_system({"name": "oscillator_1d",
                        "frequency": syscfg.get("frequency") if isinstance(syscfg, dict) else None})
    t0, t1 = _t_span(scn)
    abs_tol, rel_tol, threshold = _tolerances(scn, tol_override, 1e-6)
    times = _sample_times(scn, t0, t1)
    p0 = _initial_states(scn, osc)[0]
    sol = G.solve_group_equation(
        lambda t: G.Sl2Vector(omega(t), -1.0, 0.0), (t0, t1), abs_tol, rel_tol)
    ref = osc.integrate(p0, (t0, t1), abs_tol, rel_tol)
    g = sol.normalized(times)
    det_minus_1 = np.linalg.det(sol.raw(times)) - 1.0
    err = relative_errors(g @ p0, ref.dense(times))
    max_err = float(np.max(err))
    max_det = float(np.max(np.abs(det_minus_1)))
    rows = [[_fmt(c) for c in row] for row in
            zip(times, g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1],
                det_minus_1, err)]
    ok = max_err < threshold and max_det < 1e-9
    summary = {"frequency": omega.description, "max_action_error": max_err,
               "max_det_drift": max_det, "threshold": threshold, "pass": ok}
    return ok, summary, [("group", ["time", "g11", "g12", "g21", "g22",
                                    "det_minus_1", "action_error"], rows)]


# --- verbs -------------------------------------------------------------------

def _resolve_out(args_out):
    return args_out or os.environ.get(OUT_ENV_VAR) or "."


def cmd_run(args):
    try:
        with open(args.scenario) as fh:
            scn = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(scn.get("seed", 0))
    out_dir = _resolve_out(args.out)
    try:
        pipeline = _require(scn, "pipeline", str)
        if pipeline not in PIPELINES:
            raise ScenarioError(
                f"unknown pipeline '{pipeline}' "
                f"(available: {', '.join(PIPELINES)})", field="pipeline")
        if pipeline == "integrate":
            ok, summary, files = pipeline_integrate(scn, args.tol_override)
        elif pipeline == "drift":
            ok, summary, files = pipeline_drift(scn, args.tol_override)
        elif pipeline == "superpose":
            ok, summary, files = pipeline_superpose(scn, args.tol_override)
        elif pipeline == "reduce":
            ok, summary, files = pipeline_reduce(scn, args.tol_override)
        elif pipeline == "verify-algebra":
            ok, summary, files = pipeline_verify_algebra(scn, args.tol_override, seed)
        elif pipeline == "minimal-m":
            ok, summary, files = pipeline_minimal_m(scn, args.tol_override, seed)
        else:
            ok, summary, files = pipeline_group_solve(scn, args.tol_override)
    except ScenarioError as exc:
        print(f"usage error in field '{exc.field}': {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        summary = {"pipeline": scn.get("pipeline"), "pass": False,
                   "error": str(exc), "last_good_time": exc.last_time}
        write_summary(os.path.join(out_dir, _stem(scn, args) + "_summary.json"),
                      summary)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except LiesysError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    stem = _stem(scn, args)
    summary = {"pipeline": pipeline, "seed": seed, "pass": bool(ok), **summary}
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
    name = out.get("csv") if isinstance(out, dict) else None
    if name:
        return os.path.splitext(os.path.basename(name))[0]
    return os.path.splitext(os.path.basename(args.scenario))[0]


def cmd_list(_args):
    print("systems:")
    for name in sorted(SYSTEM_FACTORIES):
        print(f"  {name}")
    print("frequency profiles:")
    print("  constant      parameters: omega_squared (default 1.0)")
    print("  two_plus_sin  parameters: none")
    print("  step          parameters: t_switch, before, after")
    print("shape functions (generalized_ermakov):")
    print("  zero_one      f(u) = 0,   g(u) = 1")
    print("  quadratic     f(u) = u^2, g(u) = 1")
    print("pipelines:")
    print("  integrate      system, initial_states, t_span")
    print("  drift          system, invariant, initial_states, t_span, "
          "tolerances.threshold")
    print("  superpose      rule (linear|quadrature|pinney), system, "
          "initial_states, t_span [, keys]")
    print(f"  reduce         method ({'|'.join(REDUCE_METHODS)}), system, "
          "initial_states, t_span [, keys]")
    print("  verify-algebra system, probes, tolerances.threshold")
    print("  minimal-m      system, max_copies [, expected_m]")
    print("  group-solve    system.frequency, initial_states, t_span")
    return 0


def cmd_verify(args):
    out_dir = _resolve_out(args.out)
    seed = args.seed if args.seed is not None else 0
    results = run_all(seed)
    summary = {"seed": seed, "criteria": []}
    for r in results:
        print(r.line())
        name = f"criterion_{r.index}.csv"
        write_csv(os.path.join(out_dir, name), r.csv_header, r.csv_rows)
        summary["criteria"].append({"index": r.index, "name": r.name,
                                    "pass": r.passed, "detail": r.detail,
                                    "csv": name})
    ok = all(r.passed for r in results)
    summary["pass"] = ok
    write_summary(os.path.join(out_dir, "verify_summary.json"), summary)
    print(f"overall: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    return 0 if ok else 1


def build_parser():
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
    run_p.add_argument("--tol-override", type=float, default=None,
                       help="override the scenario pass/fail threshold")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
