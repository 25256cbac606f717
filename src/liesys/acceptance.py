"""Built-in acceptance suite: nine numbered checks, each with a pass/fail
verdict and a deterministic CSV record (seeded randomness throughout).

Both the ``verify`` CLI verb and the test suite run these.
"""

import os
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import cli
from . import group as G
from .errors import DomainError
from .integrate import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, Trajectory, compare,
                        constant_frequency, two_plus_sin, worst)
from .invariants import drift  # noqa: F401  bound for perfbench/tracer.py
from .invariants import generalized_invariant, lewis_ermakov
from .superposition import pinney_rule_from_solutions, quadrature_rule
from .systems import (ermakov, generalized_ermakov, milne_pinney,
                      oscillator_1d, zero_one_shapes)
from .vectorfield import minimal_m, verify_algebra  # noqa: F401  bound for perfbench/tracer.py


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    csv_header: list = field(default_factory=list)
    csv_rows: list = field(default_factory=list)

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{verdict}] {self.name}: {self.detail}"


def _bound(value):
    """A bound as a criterion's name prints it: 1e-9, where format's g
    gives 1e-09."""
    mantissa, _, exponent = f"{value:g}".partition("e")
    return f"{mantissa}e{int(exponent)}" if exponent else mantissa


def criterion_1(seed=0):
    """sl(2,R) closure of the four generator realizations (at the default
    constant frequency omega^2 = 1, k = 1 and quadratic shapes)."""
    rows, ok = [], True
    for name in ("oscillator_1d", "milne_pinney", "generalized_ermakov", "pinney_triple"):
        passed, summary, _ = cli.pipeline_verify_algebra({"system": name, "seed": seed})
        rows.append([name, summary["worst_residual"]])
        ok = ok and passed
    return CriterionResult(1, f"sl(2,R) closure residual < {_bound(summary['threshold'])}",
                           ok, f"worst residual {worst([row[1] for row in rows]):.3e}",
                           ["system", "worst_residual"], rows)


def criterion_2(seed=0):
    """Minimal number of solutions in the oscillator superposition rule."""
    ok, summary, _ = cli.pipeline_minimal_m({
        "system": "oscillator_1d", "expected_m": 2, "seed": seed})
    m = summary["m"]
    return CriterionResult(2, "minimal m for the 1-dim oscillator", ok,
                           f"m = {m} (expected {summary['expected_m']})",
                           ["m"], [[m]])


def _seeded_states(rng, count, ranges):
    """ranges: list of (low, high) per coordinate."""
    return [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(count)]


# Criterion 3's systems, each with the ranges of its five seeded states.  The
# states of all four come from one stream, drawn in this order.
_DRIFT_SYSTEMS = (
    ("ermakov", [(-1, 1), (-1, 1), (0.5, 2), (-1, 1)]),
    ("oscillator_2d", [(-1, 1)] * 4),
    ("pinney_triple", [(0.5, 2)] + [(-1, 1)] * 5),
    ("generalized_ermakov", [(0.5, 2), (-1, 1), (0.5, 2), (-1, 1)]),
)
_DRIFT_SPAN = (0.0, 20.0)  # the span of every drift run, which the name prints


def criterion_3_part(seed, part):
    """Criterion 3 on its system number ``part`` alone: (rows, passed, the
    drift bound applied)."""
    rng = np.random.default_rng(seed)
    states = [_seeded_states(rng, 5, ranges) for _, ranges in _DRIFT_SYSTEMS][part]
    ok, summary, _ = cli.pipeline_drift({
        "system": {"name": _DRIFT_SYSTEMS[part][0], "frequency": "two_plus_sin"},
        "initial_states": states, "t_span": list(_DRIFT_SPAN)})
    rows = [[run["invariant"], run["drift_rel"]] for run in summary["runs"]]
    return rows, ok, summary["threshold"]


def criterion_3_combine(parts):
    """Criterion 3's result from the (rows, passed, bound) of its parts, in
    order."""
    rows = [row for part_rows, _, _ in parts for row in part_rows]
    t0, t1 = _DRIFT_SPAN
    return CriterionResult(3, f"invariant drift_rel < {_bound(parts[0][2])} "
                              f"over [{t0:g},{t1:g}]",
                           all(ok for _, ok, _ in parts),
                           f"worst drift {worst([row[1] for row in rows]):.3e} "
                           f"across {len(rows)} runs",
                           ["invariant", "drift_rel"], rows)


def criterion_3(seed=0):
    """Invariant constancy along integrated trajectories."""
    return criterion_3_combine([criterion_3_part(seed, part)
                                for part in range(len(_DRIFT_SYSTEMS))])


# The unit oscillator's cos t and pair (sin t, cos t), rows (x, v) and
# (y, y', z, z') at an array of times: closed forms for Trajectory.from_function.
def _sin_cos_t(t):
    return np.column_stack([np.sin(t), np.cos(t), np.cos(t), -np.sin(t)])


def _cos_t(t):
    return np.column_stack([np.cos(t), -np.sin(t)])


def criterion_4(seed=0):
    """Pinney superposition vs direct integration, plus the analytic case."""
    rng = np.random.default_rng(seed)
    states = _seeded_states(rng, 5, [(0.5, 2), (-1, 1)])
    ok, summary, _ = cli.pipeline_superpose({
        "rule": "pinney", "t_span": [0.0, 10.0],
        "system": {"name": "milne_pinney", "frequency": "two_plus_sin"},
        "initial_states": [[1.0, 0.0], [0.0, 1.0], *states]})
    rows = [[x0, v0, run["max_error"]] for (x0, v0), run in zip(states, summary["runs"])]

    pair = Trajectory.from_function(_sin_cos_t, np.linspace(0.0, 10.0, 301))
    rec = pinney_rule_from_solutions(pair, 1.0, 0.0, 1.0)
    err_exact = worst(compare(rec.states[:, 0], 1.0, "abs"))
    rows.append(["analytic", "", err_exact])
    return CriterionResult(4, "Pinney superposition oracle equivalence",
                           ok and err_exact < 1e-14,  # about 100x its 1.1e-16
                           f"worst relative error {summary['max_error']:.3e}, "
                           f"analytic {err_exact:.3e}",
                           ["x0", "v0", "max_rel_error"], rows)


def criterion_5(seed=0):
    """Linear and quadrature superposition rules."""
    ok, linear, _ = cli.pipeline_superpose({
        "rule": "linear", "samples": 101, "tolerances": {"threshold": 1e-8},
        "system": {"name": "oscillator_1d", "frequency": "two_plus_sin"},
        "initial_states": [[1.0, 0.0], [0.0, 1.0], [0.7, -0.4]], "t_span": [0.0, 10.0]})
    err_lin = linear["max_error"]

    # sin t from cos t exactly: the bound is about 100x its rounding error, 2.2e-16
    x1 = Trajectory.from_function(_cos_t, np.linspace(0.0, 1.2, 121))
    sample = np.linspace(0.0, 1.2, 25)
    err_quad = worst(compare(quadrature_rule(x1, 0.0, 1.0, sample), np.sin(sample), "abs"))
    return CriterionResult(
        5, f"linear and quadrature superposition to {_bound(linear['threshold'])}",
        ok and err_quad < 2e-14,
        f"linear {err_lin:.3e}, quadrature {err_quad:.3e}",
        ["rule", "max_abs_error"],
        [["linear", err_lin], ["quadrature", err_quad]],
    )


def criterion_6(seed=0):
    """Lie equation on the group vs direct oscillator integration."""
    rng = np.random.default_rng(seed)
    rows, ok = [], True
    # the default profile, omega^2 = 1, then 2 + sin t
    for system in ({}, {"frequency": "two_plus_sin"}):
        states = _seeded_states(rng, 5, [(-1.5, 1.5)] * 2)
        passed, summary, _ = cli.pipeline_group_solve({
            "system": system, "initial_states": states,
            "t_span": [0.0, 10.0], "samples": 51})
        rows += [[summary["frequency"], x0, v0, run["max_action_error"],
                  summary["max_det_drift"]]
                 for (x0, v0), run in zip(states, summary["runs"])]
        ok = ok and passed
    return CriterionResult(
        6, f"group equation: action error < {_bound(summary['threshold'])}, "
           f"|det-1| < {_bound(cli.GROUP_DET_BOUND)}", ok,
        f"worst action error {worst([row[3] for row in rows]):.3e}, "
        f"det drift {worst([row[4] for row in rows]):.3e}",
        ["profile", "x0", "v0", "max_rel_error", "det_drift"], rows,
    )


def criterion_7(seed=0):
    """The three reduction procedures against direct integration."""
    rng = np.random.default_rng(seed)
    cos_t = Trajectory.from_function(_cos_t, np.linspace(0.0, 1.2, 121))
    sample = np.linspace(0.0, 1.2, 25)
    red = G.reduce_oscillator(cos_t, 0.0, 1.0)
    # (check, error, passed): the criterion's own cases against their bounds,
    # the pipeline's runs under its verdict
    err = worst(compare(red.position(sample), np.sin(sample), "abs"))
    checks = [("dalembert_analytic", err, err < 2e-14)]  # about 100x its 2.2e-16

    # d'Alembert against its oracle in (x, v), where the reduce pipeline
    # compares x alone
    osc = oscillator_1d(two_plus_sin())
    x1 = osc.integrate([1.0, 0.3], (0.0, 0.9))
    red = G.reduce_oscillator(x1, 0.4, 0.7)
    sample = np.linspace(0.0, 0.9, 25)
    err, _, _ = cli._oracle_runs(osc, [red.states[0]], [red.dense(sample)], sample,
                                 (0.0, 0.9), (DEFAULT_ABS_TOL, DEFAULT_REL_TOL), "rel",
                                 "max_rel_error")
    checks.append(("dalembert_vs_oracle", err, err < 1e-6))

    # Milne-Pinney from a particular Milne-Pinney solution, then from an
    # oscillator solution: x = 1 from x1 = 1 and from x1 = cos t exactly
    ones = Trajectory.from_function(
        lambda t: np.column_stack([np.ones_like(t), np.zeros_like(t)]),
        np.linspace(0.0, 5.0, 101))
    for method, reduce, analytic, x1, t1, samples, bound in (
            ("pinney-self", G.reduce_pinney_from_pinney, ones, [1.3, 0.2], 5.0, 101,
             1e-14),  # about 100x its rounding error, 1.1e-16
            ("pinney-osc", G.reduce_pinney_from_oscillator, cos_t, [1.0, 0.3], 1.2, 49,
             3e-14)):  # about 100x its 3.3e-16
        name = method.replace("-", "_")
        exact = reduce(analytic, 1.0, 0.0, 1.0).states[:, 0]
        err = worst(compare(exact, 1.0, "abs"))
        checks.append((f"{name}_analytic", err, err < bound))
        states = _seeded_states(rng, 3, [(0.5, 2), (-1, 1)])
        passed, summary, _ = cli.pipeline_reduce({
            "method": method, "system": {},
            "initial_states": [x1, *states], "t_span": [0.0, t1], "samples": samples})
        checks += [(f"{name}_vs_oracle", run["max_rel_error"], passed)
                   for run in summary["runs"]]

    return CriterionResult(7, "reductions match direct integration",
                           all(passed for _, _, passed in checks),
                           f"worst error {worst([err for _, err, _ in checks]):.3e}",
                           ["check", "max_error"],
                           [[check, err] for check, err, _ in checks])


def _random_point(rng):
    # the sign's index is the draw of Generator.choice([-1.0, 1.0]), without
    # its per-call overhead
    return rng.uniform(0.2, 2.0) * (-1.0, 1.0)[rng.integers(2)], rng.uniform(-2.0, 2.0)


SIGN_CHECKS = 1000  # criterion 8's sign-check draws
VALID_FLOOR = 900  # criterion 8 needs more valid sign checks than this


def criterion_8(seed=0):
    """Pinney action sanity: identity, sign preservation, fundamental fields."""
    rng = np.random.default_rng(seed)
    k = 1.0

    # the identity check's draws, then the sign check's, each drawn in the
    # stream order of one point (or exponents and point) at a time and acted
    # on in one call; an element is exp(s1 A1) exp(s2 A2) exp(s3 A3)
    x, v = np.array([_random_point(rng) for _ in range(50)]).T
    res = G.pinney_action(G.IDENTITY, (x, v), k)
    err_id = worst(compare(np.column_stack([res.x, res.v]), np.column_stack([x, v]),
                           "abs"))

    basis = [G.Sl2Vector(1, 0, 0), G.Sl2Vector(0, 1, 0), G.Sl2Vector(0, 0, 1)]
    *s, x, v = np.array([(*rng.uniform(-1.5, 1.5, size=3), *_random_point(rng))
                         for _ in range(SIGN_CHECKS)]).T
    g = (G.sl2_exp(basis[0], s[0]) @ G.sl2_exp(basis[1], s[1])
         @ G.sl2_exp(basis[2], s[2]))
    try:
        res = G.pinney_action(g, (x, v), k)
    except DomainError as exc:  # a sign check is valid where the image is defined
        keep = ~exc.value
        g, x, v = G.SL2Matrix(g.array[keep]), x[keep], v[keep]
        res = G.pinney_action(g, (x, v), k)
    signs_ok, valid = bool(np.all(np.sign(res.x) == np.sign(x))), len(x)

    mp = milne_pinney(constant_frequency(1.0), k)
    osc = oscillator_1d(constant_frequency(1.0))
    fd, exact = [], []  # each generator by finite differences, and exactly
    for _ in range(20):
        p = np.array([rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)])
        for v, Li, Xi in zip(basis, mp.generators, osc.generators):
            fd += [G.generator_by_finite_difference(G.linear_action, v, p),
                   G.generator_by_finite_difference(
                       lambda g, q: np.array(G.pinney_action(g, q, k)), v, p)]
            exact += [Xi(p), Li(p)]
    err_ff = worst(compare(fd, exact, "abs"))

    ok = err_id < 1e-12 and signs_ok and valid > VALID_FLOOR and err_ff < 1e-5
    return CriterionResult(
        8, "Pinney action sanity", ok,
        f"identity error {err_id:.2e}, {valid}/{SIGN_CHECKS} valid sign checks "
        f"({'all preserved' if signs_ok else 'VIOLATED'}), "
        f"fundamental-field error {err_ff:.2e}",
        ["check", "value"],
        [["identity_error", err_id],
         ["valid_sign_samples", valid],
         ["signs_preserved", signs_ok],
         ["fundamental_field_error", err_ff]],
    )


def criterion_9(seed=0):
    """Cross-consistency of the Ermakov family."""
    rng = np.random.default_rng(seed)
    w = constant_frequency(1.0)
    gen0 = generalized_ermakov(w, zero_one_shapes())
    erma = ermakov(w)
    inv, rhs = [], []  # (generalized, Ermakov) pairs at each probe
    for p in gen0.sample_domain(rng, 100):
        inv.append((generalized_invariant(p[0], p[2], p[1], p[3], zero_one_shapes()),
                    0.5 * lewis_ermakov(p[0], p[2], p[1], p[3]) - 0.5))
        t = rng.uniform(0.0, 5.0)
        rhs.append((gen0.rhs(t, p), erma.rhs(t, p)))
    err_inv, err_rhs = (worst(compare(*zip(*pairs), "abs")) for pairs in (inv, rhs))
    ok = err_inv < 1e-10 and err_rhs < 1e-14
    return CriterionResult(
        9, "cross-consistency (generalized vs Ermakov)", ok,
        f"invariant diff {err_inv:.3e}, rhs diff {err_rhs:.3e}",
        ["check", "max_diff"],
        [["generalized_vs_half_lewis", err_inv],
         ["rhs_generalized_vs_ermakov", err_rhs]],
    )


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9]


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def _run_unit(seed, index, part):
    """In a worker: ALL_CRITERIA[index], or criterion 3's ``part`` when
    ``part`` is not None, with its time in seconds."""
    start = time.perf_counter()
    result = ALL_CRITERIA[index](seed) if part is None else criterion_3_part(seed, part)
    return result, time.perf_counter() - start


def run_all(seed=0):
    """Each criterion's result with its time in seconds, in ALL_CRITERIA order.

    The criteria draw no shared state, so they run side by side in forked
    worker processes, one per usable CPU.  Criterion 3 runs as its four
    parts, handed out first as the longest units, and its time is the sum of
    theirs; every other criterion follows in index order.  A worker receives
    only indices into ALL_CRITERIA and inherits the list at the fork, so a
    patched or wrapped list runs as it stands.  An exception in a worker is
    raised here.  SIGTERM raises SystemExit while the pool is up, so the pool
    shuts its workers down before this process ends; the workers keep
    SIGTERM's default.
    """
    # Imported here: `liesys run` never gets this far and would pay for it.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # criterion 3's parts first, then the whole criteria in index order
    parts = range(len(_DRIFT_SYSTEMS))
    units = sorted(((i, part) for i, fn in enumerate(ALL_CRITERIA)
                    for part in (parts if _unwrapped(fn) is criterion_3 else [None])),
                   key=lambda unit: unit[1] is None)
    workers = min(len(os.sched_getaffinity(0)), len(units))
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=signal.signal,
                               initargs=(signal.SIGTERM, signal.SIG_DFL))
    try:
        pending = {unit: pool.submit(_run_unit, seed, *unit) for unit in units}
        for i in range(len(ALL_CRITERIA)):
            if (i, None) in pending:
                yield pending[i, None].result()
                continue
            done = [pending[i, part].result() for part in parts]
            yield (criterion_3_combine([result for result, _ in done]),
                   sum(seconds for _, seconds in done))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        signal.signal(signal.SIGTERM, previous)
