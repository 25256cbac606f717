"""Built-in acceptance suite: nine numbered checks, each with a pass/fail
verdict and a deterministic CSV record (seeded randomness throughout).

Both the ``verify`` CLI verb and the test suite run these.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import group as G
from .errors import DomainError
from .integrate import Trajectory, constant_frequency, two_plus_sin
from .invariants import (angular_momentum, drift, ermakov_pair_invariants,
                         generalized_invariant, lewis_ermakov)
from .superposition import (keys_from, linear_rule, pinney_rule_from_solutions,
                            quadrature_rule)
from .systems import (ermakov, generalized_ermakov, milne_pinney,
                      oscillator_1d, oscillator_2d, pinney_triple,
                      quadratic_shapes, zero_one_shapes)
from .vectorfield import minimal_m, verify_algebra


def _fmt(x):
    return f"{float(x):.17g}"


def relative_errors(got, want):
    """Per-sample error |got - want| / max(1, |want|) against a reference,
    in the max norm over each sample's components (the rows of 2-D input)."""
    got = np.reshape(got, (len(got), -1))
    want = np.reshape(want, (len(want), -1))
    return (np.max(np.abs(got - want), axis=1)
            / np.maximum(1.0, np.max(np.abs(want), axis=1)))


def _max_rel_error(got, want):
    return float(np.max(relative_errors(got, want)))


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


def _four_realizations():
    w = constant_frequency(1.0)
    return [
        oscillator_1d(w),
        milne_pinney(w, 1.0),
        generalized_ermakov(w, quadratic_shapes()),
        pinney_triple(w, 1.0),
    ]


def criterion_1(seed=0):
    """sl(2,R) closure of the four generator realizations."""
    rng = np.random.default_rng(seed)
    rows, worst, ok = [], 0.0, True
    for sysd in _four_realizations():
        probes = sysd.sample_domain(rng, 100)
        rep = verify_algebra(sysd.generators, sysd.constants, probes, 1e-9)
        rows.append([sysd.name, _fmt(rep.worst_residual)])
        worst = max(worst, rep.worst_residual)
        ok = ok and rep.ok
    return CriterionResult(1, "sl(2,R) closure residual < 1e-9", ok,
                           f"worst residual {worst:.3e}",
                           ["system", "worst_residual"], rows)


def criterion_2(seed=0):
    """Minimal number of solutions in the oscillator superposition rule."""
    rng = np.random.default_rng(seed)
    sysd = oscillator_1d(constant_frequency(1.0))
    m = minimal_m(sysd.generators, max_copies=4, rng=rng)
    return CriterionResult(2, "minimal m for the 1-dim oscillator", m == 2,
                           f"m = {m} (expected 2)",
                           ["m"], [[str(m)]])


def _seeded_states(rng, count, ranges):
    """ranges: list of (low, high) per coordinate."""
    out = []
    for _ in range(count):
        out.append([rng.uniform(lo, hi) for lo, hi in ranges])
    return out


def criterion_3(seed=0):
    """Invariant constancy along integrated trajectories."""
    w = two_plus_sin()
    rng = np.random.default_rng(seed)
    span = (0.0, 20.0)
    shapes = quadratic_shapes()
    rows, ok, worst = [], True, 0.0

    cases = []
    erma = ermakov(w)
    for ic in _seeded_states(rng, 5, [(-1, 1), (-1, 1), (0.5, 2), (-1, 1)]):
        cases.append(("lewis_ermakov", erma, ic,
                      lambda s: lewis_ermakov(s[0], s[2], s[1], s[3])))
    osc2 = oscillator_2d(w)
    for ic in _seeded_states(rng, 5, [(-1, 1)] * 4):
        cases.append(("angular_momentum", osc2, ic,
                      lambda s: angular_momentum(s[0], s[1], s[2], s[3])))
    trip = pinney_triple(w, 1.0)
    for ic in _seeded_states(rng, 5, [(0.5, 2)] + [(-1, 1)] * 5):
        for name, idx in [("pair_I1", 0), ("pair_I2", 1), ("wronskian", 2)]:
            cases.append((name, trip, ic,
                          lambda s, _i=idx: ermakov_pair_invariants(s, 1.0)[_i]))
    gen = generalized_ermakov(w, shapes)
    for ic in _seeded_states(rng, 5, [(0.5, 2), (-1, 1), (0.5, 2), (-1, 1)]):
        cases.append(("generalized", gen, ic,
                      lambda s: generalized_invariant(s[0], s[2], s[1], s[3], shapes)))

    traj_cache = {}
    for name, sysd, ic, fn in cases:
        key = (sysd.name, tuple(ic))
        if key not in traj_cache:
            traj_cache[key] = sysd.integrate(ic, span)
        series = drift(traj_cache[key], fn, name)
        rows.append([name, _fmt(series.drift_rel)])
        worst = max(worst, series.drift_rel)
        ok = ok and series.drift_rel < 1e-6 and not series.partial
    return CriterionResult(3, "invariant drift_rel < 1e-6 over [0,20]", ok,
                           f"worst drift {worst:.3e} across {len(cases)} runs",
                           ["invariant", "drift_rel"], rows)


def criterion_4(seed=0):
    """Pinney superposition vs direct integration, plus the analytic case."""
    w = two_plus_sin()
    rng = np.random.default_rng(seed)
    osc = oscillator_1d(w)
    mp = milne_pinney(w, 1.0)
    y = osc.integrate([1.0, 0.0], (0.0, 10.0))
    z = osc.integrate([0.0, 1.0], (0.0, 10.0))
    sample = np.linspace(0.0, 10.0, 201)
    rows, ok, worst = [], True, 0.0
    for x0, v0 in _seeded_states(rng, 5, [(0.5, 2), (-1, 1)]):
        rec = pinney_rule_from_solutions(y, z, x0, v0, 1.0)
        ref = mp.integrate([x0, v0], (0.0, 10.0))
        err = _max_rel_error(rec.position(sample), ref.position(sample))
        rows.append([_fmt(x0), _fmt(v0), _fmt(err)])
        worst = max(worst, err)
        ok = ok and err < 1e-5

    grid = np.linspace(0.0, 10.0, 301)
    ya = Trajectory.from_function(lambda t: np.array([math.sin(t), math.cos(t)]),
                                  grid, lambda t: np.array([math.cos(t), -math.sin(t)]))
    za = Trajectory.from_function(lambda t: np.array([math.cos(t), -math.sin(t)]),
                                  grid, lambda t: np.array([-math.sin(t), -math.cos(t)]))
    rec = pinney_rule_from_solutions(ya, za, 1.0, 0.0, 1.0)
    err_exact = float(np.max(np.abs(rec.states[:, 0] - 1.0)))
    rows.append(["analytic", "", _fmt(err_exact)])
    ok = ok and err_exact < 1e-8
    return CriterionResult(4, "Pinney superposition oracle equivalence", ok,
                           f"worst relative error {worst:.3e}, analytic {err_exact:.3e}",
                           ["x0", "v0", "max_rel_error"], rows)


def criterion_5(seed=0):
    """Linear and quadrature superposition rules."""
    w = two_plus_sin()
    osc = oscillator_1d(w)
    s1 = osc.integrate([1.0, 0.0], (0.0, 10.0))
    s2 = osc.integrate([0.0, 1.0], (0.0, 10.0))
    s3 = osc.integrate([0.7, -0.4], (0.0, 10.0))
    k1, k2 = keys_from(*s3.states[0], *s1.states[0], *s2.states[0])
    sample = np.linspace(0.0, 10.0, 101)
    x, v = linear_rule(*s1.dense(sample).T, *s2.dense(sample).T, k1, k2)
    ref = s3.dense(sample)
    err_lin = float(max(np.max(np.abs(x - ref[:, 0])), np.max(np.abs(v - ref[:, 1]))))

    grid = np.linspace(0.0, 1.2, 121)
    x1 = Trajectory.from_function(lambda t: np.array([math.cos(t), -math.sin(t)]),
                                  grid, lambda t: np.array([-math.sin(t), -math.cos(t)]))
    sample = np.linspace(0.0, 1.2, 25)
    err_quad = float(np.max(np.abs(quadrature_rule(x1, 0.0, 1.0, sample)
                                   - np.sin(sample))))
    ok = err_lin < 1e-8 and err_quad < 1e-8
    return CriterionResult(
        5, "linear and quadrature superposition to 1e-8", ok,
        f"linear {err_lin:.3e}, quadrature {err_quad:.3e}",
        ["rule", "max_abs_error"],
        [["linear", _fmt(err_lin)], ["quadrature", _fmt(err_quad)]],
    )


def criterion_6(seed=0):
    """Lie equation on the group vs direct oscillator integration."""
    rng = np.random.default_rng(seed)
    rows, ok = [], True
    worst_err, worst_det = 0.0, 0.0
    for w in (constant_frequency(1.0), two_plus_sin()):
        sol = G.solve_group_equation(lambda t: G.Sl2Vector(w(t), -1.0, 0.0), (0.0, 10.0))
        osc = oscillator_1d(w)
        sample = np.linspace(0.0, 10.0, 51)
        g = sol.normalized(sample)
        det_drift = max(float(np.max(np.abs(np.linalg.det(g) - 1.0))),
                        sol.max_det_drift)
        for p0 in _seeded_states(rng, 5, [(-1.5, 1.5)] * 2):
            ref = osc.integrate(p0, (0.0, 10.0))
            err = _max_rel_error(g @ p0, ref.dense(sample))
            rows.append([w.description, _fmt(p0[0]), _fmt(p0[1]),
                         _fmt(err), _fmt(det_drift)])
            worst_err = max(worst_err, err)
        worst_det = max(worst_det, det_drift)
        ok = ok and det_drift < 1e-9
    ok = ok and worst_err < 1e-6
    return CriterionResult(
        6, "group equation: action error < 1e-6, |det-1| < 1e-9", ok,
        f"worst action error {worst_err:.3e}, det drift {worst_det:.3e}",
        ["profile", "x0", "v0", "max_rel_error", "det_drift"], rows,
    )


def criterion_7(seed=0):
    """The three reduction procedures against direct integration."""
    rng = np.random.default_rng(seed)
    rows, ok = [], True

    grid = np.linspace(0.0, 1.2, 121)
    cos_traj = Trajectory.from_function(
        lambda t: np.array([math.cos(t), -math.sin(t)]),
        grid, lambda t: np.array([-math.sin(t), -math.cos(t)]))
    sample = np.linspace(0.0, 1.2, 25)
    red = G.reduce_oscillator(cos_traj, 0.0, 1.0)
    err = float(np.max(np.abs(red.position(sample) - np.sin(sample))))
    rows.append(["dalembert_analytic", _fmt(err)])
    ok = ok and err < 1e-8

    w = two_plus_sin()
    osc = oscillator_1d(w)
    x1 = osc.integrate([1.0, 0.3], (0.0, 0.9))
    k_prime, k = 0.4, 0.7
    red = G.reduce_oscillator(x1, k_prime, k)
    ref = osc.integrate(red.states[0], (0.0, 0.9))
    sample = np.linspace(0.0, 0.9, 25)
    err = _max_rel_error(red.dense(sample), ref.dense(sample))
    rows.append(["dalembert_vs_oracle", _fmt(err)])
    ok = ok and err < 1e-6

    # Milne-Pinney from a particular Milne-Pinney solution
    mp = milne_pinney(constant_frequency(1.0), 1.0)
    ones = Trajectory.from_function(lambda t: np.array([1.0, 0.0]),
                                    np.linspace(0.0, 5.0, 101),
                                    lambda t: np.array([0.0, 0.0]))
    err = float(np.max(np.abs(
        G.reduce_pinney_from_pinney(ones, 1.0, 0.0, 1.0).states[:, 0] - 1.0)))
    rows.append(["pinney_self_analytic", _fmt(err)])
    ok = ok and err < 1e-8

    x1p = mp.integrate([1.3, 0.2], (0.0, 5.0))
    for x0, v0 in _seeded_states(rng, 3, [(0.5, 2), (-1, 1)]):
        red = G.reduce_pinney_from_pinney(x1p, x0, v0, 1.0)
        ref = mp.integrate([x0, v0], (0.0, 5.0))
        sample = np.linspace(0.0, 5.0, 101)
        err = _max_rel_error(red.position(sample), ref.position(sample))
        rows.append(["pinney_self_vs_oracle", _fmt(err)])
        ok = ok and err < 1e-5

    # Milne-Pinney from an oscillator solution (x1 = cos t analytic case)
    err = float(np.max(np.abs(
        G.reduce_pinney_from_oscillator(cos_traj, 1.0, 0.0, 1.0).states[:, 0] - 1.0)))
    rows.append(["pinney_osc_analytic", _fmt(err)])
    ok = ok and err < 1e-8

    osc_c = oscillator_1d(constant_frequency(1.0))
    x1o = osc_c.integrate([1.0, 0.3], (0.0, 1.2))
    for x0, v0 in _seeded_states(rng, 3, [(0.5, 2), (-1, 1)]):
        red = G.reduce_pinney_from_oscillator(x1o, x0, v0, 1.0)
        ref = mp.integrate([x0, v0], (0.0, 1.2))
        sample = np.linspace(0.0, 1.2, 49)
        err = _max_rel_error(red.position(sample), ref.position(sample))
        rows.append(["pinney_osc_vs_oracle", _fmt(err)])
        ok = ok and err < 1e-5

    worst = max(float(r[1]) for r in rows)
    return CriterionResult(7, "reductions match direct integration", ok,
                           f"worst error {worst:.3e}",
                           ["check", "max_error"], rows)


def _random_sl2(rng):
    g = G.sl2_exp(G.Sl2Vector(1.0, 0.0, 0.0), rng.uniform(-1.5, 1.5))
    g = g @ G.sl2_exp(G.Sl2Vector(0.0, 1.0, 0.0), rng.uniform(-1.5, 1.5))
    g = g @ G.sl2_exp(G.Sl2Vector(0.0, 0.0, 1.0), rng.uniform(-1.5, 1.5))
    return g


def criterion_8(seed=0):
    """Pinney action sanity: identity, sign preservation, fundamental fields."""
    rng = np.random.default_rng(seed)
    k = 1.0

    err_id = 0.0
    for _ in range(50):
        x = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        v = rng.uniform(-2.0, 2.0)
        res = G.pinney_action(G.IDENTITY, (x, v), k)
        err_id = max(err_id, abs(res.x - x), abs(res.v_abs - abs(v)))

    signs_ok, valid = True, 0
    for _ in range(1000):
        g = _random_sl2(rng)
        x = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        v = rng.uniform(-2.0, 2.0)
        try:
            res = G.pinney_action(g, (x, v), k)
        except DomainError:
            continue
        valid += 1
        signs_ok = signs_ok and (math.copysign(1.0, res.x) == math.copysign(1.0, x))

    mp = milne_pinney(constant_frequency(1.0), k)
    osc = oscillator_1d(constant_frequency(1.0))
    basis = [G.Sl2Vector(1, 0, 0), G.Sl2Vector(0, 1, 0), G.Sl2Vector(0, 0, 1)]
    err_ff = 0.0
    for _ in range(20):
        p = np.array([rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)])
        for v, Li, Xi in zip(basis, mp.generators, osc.generators):
            fd_lin = G.generator_by_finite_difference(G.linear_action, v, p)
            err_ff = max(err_ff, float(np.max(np.abs(fd_lin - Xi(p)))))
            fd_pin = G.generator_by_finite_difference(
                lambda g, q: np.array([G.pinney_action(g, q, k).x,
                                       G.pinney_action(g, q, k).v_abs]), v, p)
            err_ff = max(err_ff, float(np.max(np.abs(fd_pin - Li(p)))))

    ok = err_id < 1e-12 and signs_ok and valid > 900 and err_ff < 1e-5
    return CriterionResult(
        8, "Pinney action sanity", ok,
        f"identity error {err_id:.2e}, {valid}/1000 valid sign checks "
        f"({'all preserved' if signs_ok else 'VIOLATED'}), "
        f"fundamental-field error {err_ff:.2e}",
        ["check", "value"],
        [["identity_error", _fmt(err_id)],
         ["valid_sign_samples", str(valid)],
         ["signs_preserved", str(signs_ok)],
         ["fundamental_field_error", _fmt(err_ff)]],
    )


def criterion_9(seed=0):
    """Cross-consistency of the Ermakov family."""
    rng = np.random.default_rng(seed)
    w = constant_frequency(1.0)
    gen0 = generalized_ermakov(w, zero_one_shapes())
    erma = ermakov(w)
    err_inv, err_rhs = 0.0, 0.0
    for p in gen0.sample_domain(rng, 100):
        gi = generalized_invariant(p[0], p[2], p[1], p[3], zero_one_shapes())
        le = lewis_ermakov(p[0], p[2], p[1], p[3])
        err_inv = max(err_inv, abs(gi - (0.5 * le - 0.5)))
        t = rng.uniform(0.0, 5.0)
        err_rhs = max(err_rhs, float(np.max(np.abs(gen0.rhs(t, p) - erma.rhs(t, p)))))
    ok = err_inv < 1e-10 and err_rhs < 1e-14
    return CriterionResult(
        9, "cross-consistency (generalized vs Ermakov)", ok,
        f"invariant diff {err_inv:.3e}, rhs diff {err_rhs:.3e}",
        ["check", "max_diff"],
        [["generalized_vs_half_lewis", _fmt(err_inv)],
         ["rhs_generalized_vs_ermakov", _fmt(err_rhs)]],
    )


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9]


def run_all(seed=0):
    return [fn(seed) for fn in ALL_CRITERIA]
