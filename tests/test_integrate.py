import importlib
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

from liesys import (DimensionMismatchError, IntegrationError, QuadratureError,
                    SingularityError, Trajectory, constant_frequency, drift,
                    ermakov, generalized_ermakov, integrate, integrate_lanes,
                    milne_pinney, oscillator_1d, oscillator_2d,
                    pinney_triple, pinney_rule_from_solutions,
                    quadrature, quadrature_rule, reduce_oscillator,
                    reduce_pinney_from_pinney, step_frequency, tau_grid,
                    tau_reparametrization, two_plus_sin)
from liesys import _dop853
from liesys.group import Sl2Vector, solve_group_equation
from liesys.integrate import (EPS, FLOAT_LANES, FREQUENCY_PROFILES, SINGULARITY_RADIUS,
                               _brentq, lane_error_norm)
from liesys.systems import SHAPE_FUNCTIONS, SystemDef
from test_systems import linear_g_shapes

# the module, not the function the package re-exports under the same name
integrate_module = importlib.import_module("liesys.integrate")
group_module = importlib.import_module("liesys.group")

TOL = 1e-10


def osc_rhs(omega2):
    return lambda t, y: np.array([y[1], -omega2 * y[0]])


# --- integrate ---------------------------------------------------------------

def test_oscillator_quarter_period():
    traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, math.pi / 2), TOL, TOL)
    assert_allclose(traj.states[-1], [0.0, -1.0], atol=10 * TOL)


def test_pinney_equilibrium_is_constant():
    sysd = milne_pinney(constant_frequency(1.0), 1.0)
    traj = sysd.integrate([1.0, 0.0], (0.0, 10.0))
    assert np.max(np.abs(traj.states - np.array([1.0, 0.0]))) < 1e-8


def test_time_reversal():
    y0 = np.array([0.7, -0.3])
    fwd = integrate(osc_rhs(2.0), y0, (0.0, 5.0), TOL, TOL)
    back = integrate(osc_rhs(2.0), fwd.states[-1], (5.0, 0.0), TOL, TOL)
    # reverse-time trajectories are stored with increasing times
    assert_allclose(back.states[0], y0, atol=100 * TOL)


def test_dense_output_accuracy():
    traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 10.0), TOL, TOL)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 10.0, size=50):
        fresh = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, t), TOL, TOL)
        assert_allclose(traj.dense(t), fresh.states[-1], atol=10 * TOL)


def test_convergence_with_tolerance():
    # final-state error against cos t should fall as tolerances tighten
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 10.0), tol, tol)
        exact = np.array([math.cos(10.0), -math.sin(10.0)])
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-8


def test_singularity_abort_reports_last_time():
    # x' = -1 from x = 1 hits the guarded zero at t = 1
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y: np.array([-1.0]), [1.0], (0.0, 2.0), TOL, TOL,
                  singular_coords=(0,))
    assert exc.value.last_time == pytest.approx(1.0, abs=1e-3)


def test_nondegenerate_span_required():
    with pytest.raises(ValueError):
        integrate(osc_rhs(1.0), [1.0, 0.0], (1.0, 1.0), TOL, TOL)


# --- lanes -------------------------------------------------------------------

def test_one_lane_is_scipys_dop853():
    sysd = milne_pinney(two_plus_sin(), 1.0)
    sol, nodes_only = (solve_ivp(sysd.rhs, (0.0, 5.0), [1.3, 0.2], method="DOP853",
                                 rtol=TOL, atol=TOL, dense_output=dense)
                       for dense in (True, False))
    t = np.linspace(0.05, 4.95, 37)
    for coords in ((), (0,)):  # the singularity events do not move a step
        (traj,) = integrate_lanes(sysd.rhs, [[1.3, 0.2]], (0.0, 5.0), TOL, TOL,
                                  singular_coords=coords)
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.states, sol.y.T)
        assert traj.nfev == nodes_only.nfev  # no dense output built yet
        assert np.array_equal(traj.dense(t), sol.sol(t).T)
        assert traj.nfev == sol.nfev


def test_lane_norm_is_the_max_of_each_lanes_dop853_norm():
    rng = np.random.default_rng(3)
    d, n = 4, 5
    solver = DOP853(lambda t, y: -y, 0.0, rng.uniform(0.5, 2.0, d * n), 1.0,
                    rtol=TOL, atol=TOL)
    for trial in range(40):
        K = rng.normal(size=solver.K.shape) * 10.0 ** rng.uniform(-12.0, 0.0)
        if trial % 4 == 0:
            K[:, trial % n::n] = 0.0  # a lane with a zero error estimate
        scale = TOL * rng.uniform(1.0, 3.0, d * n)
        h = rng.uniform(1e-3, 1.0)
        # scipy's own norm on each lane's slice of K and scale
        want = max(DOP853._estimate_error_norm(solver, K[:, j::n], h, scale[j::n])
                   for j in range(n))
        assert lane_error_norm(K, h, scale, n) == pytest.approx(want, rel=1e-13)
    assert lane_error_norm(np.zeros_like(solver.K), 0.1, scale, n) == 0.0


class ReferenceLaneDOP853(DOP853):
    """scipy's DOP853 with the max-over-lanes norm, written against scipy's
    own solver class: the reference the numpy driver must reproduce."""

    _E53 = np.vstack([DOP853.E5, DOP853.E3])

    def __init__(self, fun, t0, y0, t_bound, lanes, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.lanes = lanes

    def _estimate_error_norm(self, K, h, scale):
        err = np.dot(self._E53, K) / scale
        err *= err
        sq = err.reshape(2, -1, self.lanes).sum(axis=1)
        denom = sq[0] + 0.01 * sq[1]
        denom[denom == 0.0] = 1.0
        dimension = len(scale) // self.lanes
        return abs(h) * float((sq[0] / np.sqrt(denom * dimension)).max())


def reference_lanes(rhs, states, t_span, singular_coords=(),
                    radius=integrate_module.SINGULARITY_RADIUS, dense_output=True):
    """The lane solve by scipy's solve_ivp: ReferenceLaneDOP853 (plain DOP853
    for one lane) with one terminal event pair per guarded entry.  Returns
    the solve, or raises IntegrationError as integrate_lanes must."""
    states = np.asarray(states, dtype=float)
    n, d = states.shape
    if n == 1:
        fun, y0, options = rhs, states[0], {"method": "DOP853"}
    else:
        def fun(t, y):
            return rhs(t, y.reshape(d, n)).reshape(-1)
        y0, options = states.T.reshape(-1), {"method": ReferenceLaneDOP853, "lanes": n}
    events = []
    for i in singular_coords:
        for j in range(n):
            for sign in (-1.0, 1.0):
                def event(t, y, _k=i * n + j, _sign=sign):
                    return y[_k] + _sign * radius
                event.terminal = True
                events.append(event)
    sol = solve_ivp(fun, t_span, y0, dense_output=dense_output, rtol=TOL, atol=TOL,
                    events=events or None, **options)
    if sol.status == 1:
        hit = next(k for k, te in enumerate(sol.t_events) if len(te))
        where = f" in lane {hit // 2 % n}" if n > 1 else ""
        raise IntegrationError(
            f"integration aborted near a singularity{where} at t = {sol.t[-1]:.6g}",
            last_time=float(sol.t[-1]))
    return sol


def assert_lanes_equal_reference(rhs, states, t_span, probe_times):
    sol = reference_lanes(rhs, states, t_span)
    lanes = integrate_lanes(rhs, states, t_span, TOL, TOL)
    n = len(states)
    # no dense output is built before the first off-node evaluation
    nodes_only = reference_lanes(rhs, states, t_span, dense_output=False)
    assert [lane.nfev for lane in lanes] == [nodes_only.nfev] * n
    times, stacked = sol.t, sol.y
    if t_span[1] < t_span[0]:
        times, stacked = times[::-1], stacked[:, ::-1]
    dense = sol.sol(probe_times)
    # outside the span the solve's own dense output extrapolates as scipy's
    # does, and the trajectory refuses to read it
    inside = (probe_times >= min(t_span)) & (probe_times <= max(t_span))
    for j, lane in enumerate(lanes):
        assert np.array_equal(lane.times, times)
        assert np.array_equal(lane.states, stacked[j::n].T)
        assert np.array_equal(lane.dense(probe_times[inside]), dense[j::n, inside].T)
        assert np.array_equal(lane._solve(probe_times[~inside], j), dense[j::n, ~inside].T)
        if not inside.all():
            with pytest.raises(ValueError, match="outside the span"):
                lane.dense(probe_times)
        assert lane.nfev == sol.nfev


def test_five_ermakov_lanes_are_scipys_lane_solve():
    sysd = ermakov(two_plus_sin())
    rng = np.random.default_rng(11)
    states = [[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2),
               rng.uniform(-1, 1)] for _ in range(5)]
    probes = np.concatenate([rng.uniform(0.0, 20.0, 500), [-0.5, 20.5]])
    assert_lanes_equal_reference(sysd.rhs, states, (0.0, 20.0), probes)


@pytest.mark.parametrize("n", [1, 5])
def test_nfev_counts_the_rhs_calls_and_dense_output_waits_for_off_node_use(n):
    sysd = ermakov(two_plus_sin())
    rng = np.random.default_rng(13)
    states = [[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2),
               rng.uniform(-1, 1)] for _ in range(n)]
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return sysd.rhs(t, y)
    lanes = integrate_lanes(rhs, states, (0.0, 10.0), TOL, TOL)
    solved = calls[0]
    assert [lane.nfev for lane in lanes] == [solved] * n
    # reads at the solver nodes, such as drift along a solver trajectory,
    # build no dense output
    for lane in lanes:
        for name, invariant in sysd.invariants.items():
            drift(lane.times, lane.states, invariant, name)
        lane.dense(lane.times[::3])
    assert calls[0] == solved
    assert [lane.nfev for lane in lanes] == [solved] * n
    # the first off-node read builds it for every lane, and only once: one
    # call per extra stage and chunk of steps, where nfev counts one
    # evaluation per step
    steps = len(lanes[0].times) - 1
    lanes[-1].dense([0.5, 9.5])
    lanes[0].dense([1.5])
    chunks = -(-steps // integrate_module.DENSE_CHUNK)
    assert calls[0] == solved + 3 * chunks
    assert [lane.nfev for lane in lanes] == [solved + 3 * steps] * n


def test_reverse_time_pinney_lanes_are_scipys_lane_solve():
    sysd = milne_pinney(two_plus_sin(), 1.0)
    states = [[1.3, 0.2], [0.7, -0.5], [1.9, 0.4]]
    probes = np.random.default_rng(12).uniform(0.0, 5.0, 300)
    assert_lanes_equal_reference(sysd.rhs, states, (5.0, 0.0), probes)


def test_singular_abort_matches_scipys_events():
    def falling(t, y):
        return -np.ones_like(y) * (1.0 + 0.3 * np.sin(3.0 * t))
    for states, coords, span in (([[1.0]], (0,), (0.0, 2.0)),
                                 ([[1.0, 0.4]], (0, 1), (0.0, 2.0)),
                                 ([[3.0], [1.0], [2.5]], (0,), (0.0, 4.0)),
                                 ([[3.0, 3.0], [3.0, 1.5], [2.5, 2.8]], (0, 1),
                                  (0.0, 4.0)),
                                 ([[-1.0, 2.0], [-2.0, 0.5]], (0, 1), (0.0, -4.0))):
        with pytest.raises(IntegrationError) as want:
            reference_lanes(falling, states, span, coords)
        with pytest.raises(IntegrationError) as got:
            integrate_lanes(falling, states, span, TOL, TOL, singular_coords=coords)
        assert got.value.last_time == want.value.last_time
        assert str(got.value) == str(want.value)


def test_brentq_is_scipys():
    # the abort path's root finder, on seeded polynomial brackets taken
    # in both orientations
    rng = np.random.default_rng(5)
    compared = 0
    for _ in range(600):
        p = np.polynomial.Polynomial(rng.normal(size=rng.integers(2, 7)))
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        if p(a) * p(b) >= 0:
            continue
        for lo, hi in ((a, b), (b, a)):
            want = brentq(p, lo, hi, xtol=4 * EPS, rtol=4 * EPS)
            assert _brentq(p, lo, hi) == want, (p, lo, hi)
            compared += 1
    assert compared > 300


def test_coefficients_are_scipys():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(_dop853, name),
                              getattr(dop853_coefficients, name)), name
    assert np.array_equal(_dop853.A_EXTRA, DOP853.A_EXTRA)
    assert np.array_equal(_dop853.C_EXTRA, DOP853.C_EXTRA)


# --- the float form of a field's owner ---------------------------------------

def _rhs_point_types(monkeypatch):
    """The class of the point of every SystemDef.rhs call from here on (a
    hundred thousand calls fail the test: a solve that never stops)."""
    seen = []
    rhs = SystemDef.rhs

    def spy(self, t, p, lanes=0):
        seen.append(p.__class__)
        assert len(seen) < 100_000, "the solve does not stop"
        return rhs(self, t, p, lanes)
    monkeypatch.setattr(SystemDef, "rhs", spy)
    return seen


def test_a_systems_solve_on_floats_is_its_solve_on_blocks(monkeypatch):
    # SystemDef's solves declare the float form; a generic rhs (the same
    # method, undeclared) steps on blocks.  Steps, states, nfev and dense
    # output are the same bits, or the same abort: the float form evaluates
    # a call that meets x = 0 again on the block, so the abort's time and
    # message (its lane) are the block's.  Up to FLOAT_LANES lanes each step
    # stage is a list
    def solve(call):
        try:
            return call()
        except IntegrationError as exc:  # a lane fell into a singularity
            return exc.last_time, str(exc)

    rng = np.random.default_rng(21)
    seen = _rhs_point_types(monkeypatch)
    falling = milne_pinney(two_plus_sin(), -1.0)  # an attracting 1/x^3: x falls to 0
    for lanes in (1, FLOAT_LANES, FLOAT_LANES + 1):
        cases = [(sysd, sysd.sample_domain(rng, lanes).tolist(),
                  (0.0, 2.0) if i % 2 else (2.0, 0.0))
                 for i, sysd in enumerate(_block_systems())]
        cases.append((falling, [[1.0 + 0.2 * j, 0.3] for j in range(1, lanes)]
                      + [[0.5, -1.0]], (0.0, 5.0)))
        for sysd, states, span in cases:
            seen.clear()
            got = solve(lambda: sysd.integrate_lanes(states, span))
            assert (list in seen) == (lanes <= FLOAT_LANES), sysd.name
            want = solve(lambda: integrate_lanes(sysd.rhs, states, span,
                                                 singular_coords=sysd.singular_coords))
            if isinstance(want, tuple):
                assert got == want
                continue
            probes = rng.uniform(0.0, 2.0, 20)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g.times, w.times)
                assert np.array_equal(g.states, w.states)
                assert g.nfev == w.nfev
                assert np.array_equal(g.dense(probes), w.dense(probes))
        assert isinstance(got, tuple)  # the falling lane's abort


def test_a_lane_aborts_where_x_first_reaches_the_singularity_radius(monkeypatch):
    # once on floats (one lane), once above the float bound (blocks): the
    # falling lane, the last, is at |x| = SINGULARITY_RADIUS at the abort,
    # read off the same lanes solved without the guard up to that time
    sysd = milne_pinney(two_plus_sin(), -1.0)
    seen = _rhs_point_types(monkeypatch)
    for lanes in (1, FLOAT_LANES + 1):
        states = [[1.0 + 0.2 * j, 0.3] for j in range(1, lanes)] + [[0.5, -1.0]]
        seen.clear()
        with pytest.raises(IntegrationError) as abort:
            sysd.integrate_lanes(states, (0.0, 5.0))
        assert (list in seen) == (lanes == 1)
        if lanes > 1:
            assert f"in lane {lanes - 1} at" in str(abort.value)
        t = abort.value.last_time
        falling = integrate_lanes(sysd.rhs, states, (0.0, t))[-1]
        x = falling.dense(t)[0]
        assert abs(abs(x) / SINGULARITY_RADIUS - 1.0) < 1e-3
        assert np.all(np.abs(falling.states[:-1, 0]) > SINGULARITY_RADIUS)


# --- the ends of a solve -------------------------------------------------------

@pytest.mark.parametrize("name, value", [
    ("abs_tol", math.nan), ("abs_tol", math.inf), ("rel_tol", math.nan),
    ("rel_tol", math.inf), ("t_span", (0.0, math.nan)), ("t_span", (math.nan, 1.0)),
    ("t_span", (0.0, math.inf)), ("t_span", (-math.inf, 0.0))])
def test_a_non_finite_tolerance_or_span_raises(name, value, monkeypatch):
    sysd = oscillator_1d(constant_frequency(1.0))
    _rhs_point_types(monkeypatch)  # a solve that never stops fails
    args = {"abs_tol": TOL, "rel_tol": TOL, "t_span": (0.0, 1.0), name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rel_tol = inf warns no numpy warning
        for solve in (lambda: integrate_lanes(sysd.rhs, [[1.0, 0.0]], args["t_span"],
                                              args["abs_tol"], args["rel_tol"]),
                      lambda: sysd.integrate([1.0, 0.0], args["t_span"],
                                             args["abs_tol"], args["rel_tol"])):
            with pytest.raises(ValueError, match=name):
                solve()


@pytest.mark.parametrize("sysd", [
    milne_pinney(constant_frequency(math.nan), 1.0), milne_pinney(two_plus_sin(), math.nan),
    ermakov(constant_frequency(math.inf)),
    generalized_ermakov(two_plus_sin(), SHAPE_FUNCTIONS["zero_one"]())],
    ids=["nan_frequency", "nan_k", "inf_frequency", "underflowing_x_cubed"])
def test_a_non_finite_derivative_at_t0_ends_the_solve_there(sysd, monkeypatch):
    # NaN from the parameters, inf - inf, or 0 / 0 once x^3 underflows
    state = [1e-110, 0.0, 1.0, 0.0] if sysd.dimension == 4 else [1.0, 0.0]
    seen = _rhs_point_types(monkeypatch)
    for lanes in (1, FLOAT_LANES + 1):
        seen.clear()
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationError, match="not finite") as exc:
                sysd.integrate_lanes([state] * lanes, (2.0, 7.0))
        assert exc.value.last_time == 2.0


def test_a_nan_step_size_ends_the_solve(monkeypatch):
    # a NaN step size takes the step loop's exit; the calls are counted, so
    # that a hang fails the test
    monkeypatch.setattr(integrate_module, "_initial_step", lambda *args: math.nan)
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        assert calls[0] < 10_000, "the solve does not stop"
        return np.array([y[1], -y[0]])
    with pytest.raises(IntegrationError, match="less than spacing") as exc:
        integrate(rhs, [1.0, 0.0], (0.0, 1.0), TOL, TOL)
    assert exc.value.last_time == 0.0


def test_a_solves_dense_output_refuses_times_outside_its_span():
    # over [0, 1], the last step extrapolated to t = 5 reads (-3.99, 6.60),
    # where the state is (cos 5, -sin 5) = (0.28, 0.96)
    osc = oscillator_1d(constant_frequency(1.0))
    for span in ((0.0, 1.0), (1.0, 0.0)):
        traj = osc.integrate([1.0, 0.0], span)
        for t in (5.0, -1e-9, 1.0 + 1e-9, [0.5, math.nan], [[0.2], [1.5]]):
            with pytest.raises(ValueError, match=r"outside the span \[0, 1\]"):
                traj.dense(t)
        assert np.array_equal(traj.dense([0.0, 1.0]), traj.states[[0, -1]])
        s = 0.5 - span[0]
        assert np.allclose(traj.dense(0.5), [math.cos(s), -math.sin(s)])


def test_step_budget_stops_a_long_solve(monkeypatch):
    full = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 200.0), TOL, TOL)
    assert len(full.times) > 51
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 50)
    with pytest.raises(IntegrationError, match="after 50 steps") as exc:
        integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 200.0), TOL, TOL)
    # the last good time is that of the unbounded solve's 50th step
    assert exc.value.last_time == full.times[50]


def test_each_lane_meets_its_own_tolerance():
    sysd = ermakov(two_plus_sin())
    rng = np.random.default_rng(4)
    states = [[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2),
               rng.uniform(-1, 1)] for _ in range(5)]
    t = np.linspace(0.0, 10.0, 201)
    lanes = sysd.integrate_lanes(states, (0.0, 10.0))
    for state, lane in zip(states, lanes):
        want = sysd.integrate(state, (0.0, 10.0), 1e-13, 1e-13).dense(t)
        solo = sysd.integrate(state, (0.0, 10.0)).dense(t)
        err = np.max(np.abs(lane.dense(t) - want) / np.maximum(1.0, np.abs(want)))
        err_solo = np.max(np.abs(solo - want) / np.maximum(1.0, np.abs(want)))
        assert err < 20 * TOL
        assert err <= 1.5 * err_solo
        assert np.array_equal(lane.states[0], state)


def test_reverse_time_lanes():
    sysd = milne_pinney(two_plus_sin(), 1.0)
    states = [[1.3, 0.2], [0.7, -0.5], [1.9, 0.4]]
    lanes = sysd.integrate_lanes(states, (5.0, 0.0))
    t = np.linspace(0.0, 5.0, 51)
    for state, lane in zip(states, lanes):
        assert np.all(np.diff(lane.times) > 0)
        assert np.array_equal(lane.states[-1], state)
        solo = sysd.integrate(state, (5.0, 0.0)).dense(t)
        assert np.max(np.abs(lane.dense(t) - solo)) < 20 * TOL * np.max(np.abs(solo))


def test_a_singular_lane_aborts_the_solve():
    # y' = -1: the first guarded component to reach zero is lane 1's, at t = 1
    # (one guarded coordinate) or at t = 1.5 (its second of two)
    for states, coords, t_hit in (([[3.0], [1.0], [2.5]], (0,), 1.0),
                                  ([[3.0, 3.0], [3.0, 1.5], [2.5, 2.8]], (0, 1), 1.5)):
        with pytest.raises(IntegrationError) as exc:
            integrate_lanes(lambda t, y: -np.ones_like(y), states, (0.0, 4.0),
                            TOL, TOL, singular_coords=coords)
        assert exc.value.last_time == pytest.approx(t_hit, abs=1e-5)
        assert "lane 1" in str(exc.value)


def test_lanes_reject_ragged_states():
    with pytest.raises(ValueError):
        integrate_lanes(lambda t, y: y, [[1.0, 0.0], [1.0]], (0.0, 1.0))
    with pytest.raises(ValueError):
        integrate_lanes(lambda t, y: y, [], (0.0, 1.0))


def test_a_rel_tol_below_the_floor_raises():
    # a solve runs at the tolerance asked for or not at all
    sysd = oscillator_1d(constant_frequency(1.0))
    floor = integrate_module.MIN_REL_TOL
    for rel_tol in (1e-16, floor * (1 - EPS)):
        with pytest.raises(ValueError, match="rel_tol"):
            integrate_lanes(sysd.rhs, [[1.0, 0.0]], (0.0, 1.0), TOL, rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            sysd.integrate([1.0, 0.0], (0.0, 1.0), TOL, rel_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_lanes(sysd.rhs, [[1.0, 0.0], [0.0, 1.0]], (0.0, 1.0), TOL, floor)
        sysd.integrate([1.0, 0.0], (0.0, 1.0), TOL, floor)


def _block_systems(w=two_plus_sin()):
    """Every registered field: each factory, the k = 0 (force-free) fields
    of the Pinney systems, and every pair of shape functions."""
    shapes = [factory() for factory in SHAPE_FUNCTIONS.values()] + [linear_g_shapes()]
    return [oscillator_1d(w), oscillator_2d(w), milne_pinney(w, 1.3),
            milne_pinney(w, 0.0), ermakov(w), pinney_triple(w, 0.7),
            pinney_triple(w, 0.0)] + [
            generalized_ermakov(w, shape) for shape in shapes]


def _profiles():
    return [factory() for factory in FREQUENCY_PROFILES.values()]


def test_rhs_on_a_block_matches_its_columns():
    # the dense output evaluates the steps' extra stages as one block with a
    # time per column: each column must be the point's value, bit for bit
    rng = np.random.default_rng(5)
    for profile in _profiles():
        for sysd in _block_systems(profile):
            block = np.array(sysd.sample_domain(rng, 9)).T
            t = rng.uniform(0.0, 10.0, size=9)
            got = sysd.rhs(t, block)
            want = np.column_stack([sysd.rhs(float(tj), column)
                                    for tj, column in zip(t, block.T)])
            assert got.shape == block.shape
            assert np.array_equal(got, want), (sysd.name, profile.description)
            # one time for all columns, as a lane step passes it
            assert np.array_equal(sysd.rhs(t[3], block),
                                  sysd.rhs(np.full(9, t[3]), block))


def test_complex_fields_on_a_block_match_their_columns():
    # X2's Jacobian reads the field off complex blocks; a column's value does
    # not depend on the other columns.  (A numpy complex scalar product may
    # round otherwise than the array loop, so the reference is a one-column
    # block, not a point.)
    rng = np.random.default_rng(6)
    for sysd in _block_systems():
        block = (np.array(sysd.sample_domain(rng, 9)).T
                 + 1e-20j * rng.normal(size=(sysd.dimension, 9)))
        w = rng.uniform(-3.0, 3.0, size=9)
        got = np.array(sysd.rows(w, block))
        for j in range(9):
            alone = np.array(sysd.rows(w[j:j + 1], block[:, j:j + 1]))
            assert np.array_equal(got[:, j], alone[:, 0])


def test_frequency_profiles_take_arrays_of_times():
    t = np.concatenate([np.linspace(0.0, 10.0, 41), [5.0]])  # step's switch too
    for profile in _profiles():
        got = profile(t)
        assert got.shape == t.shape
        for tj, value in zip(t, got):
            scalar = profile(float(tj))
            assert type(scalar) is float and scalar == value, profile.description


def test_the_group_rhs_on_a_block_matches_its_columns(monkeypatch):
    class Captured(Exception):
        pass

    def capture(rhs, *args):
        raise Captured(rhs)
    monkeypatch.setattr(group_module, "integrate", capture)
    rng = np.random.default_rng(7)
    for profile in _profiles():
        osc = oscillator_1d(profile)
        for a in (lambda t: Sl2Vector(*(-b(t) for b in osc.coefficients)),
                  lambda t: Sl2Vector(0.6, -0.8, 0.3)):
            with pytest.raises(Captured) as exc:
                solve_group_equation(a, (0.0, 10.0))
            rhs = exc.value.args[0]
            block = rng.normal(size=(4, 11))
            t = rng.uniform(0.0, 10.0, size=11)
            want = np.column_stack([rhs(float(tj), column)
                                    for tj, column in zip(t, block.T)])
            assert np.array_equal(rhs(t, block), want), profile.description


def test_the_group_rhs_at_a_point_is_the_matrix_of_its_vector_times_y(monkeypatch):
    # a stage builds a(t)'s matrix from float coordinates; its bits, signed
    # zeros included, are those of Sl2Vector.matrix @ y
    class Captured(Exception):
        pass

    def capture(rhs, *args):
        raise Captured(rhs)
    monkeypatch.setattr(group_module, "integrate", capture)
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0]
    coords = [(c1, c2, c3) for c1 in special for c2 in special for c3 in special]
    coords += [tuple(rng.normal(size=3)) for _ in range(200)]
    for c in coords:
        v = Sl2Vector(*c)
        m = group_module._sl2_matrix(*c)
        assert np.array_equal(m, v.matrix), c
        assert np.array_equal(np.signbit(m), np.signbit(v.matrix)), c
        with pytest.raises(Captured) as exc:
            solve_group_equation(lambda t: v, (0.0, 1.0))
        rhs = exc.value.args[0]
        for y in (rng.normal(size=4), np.array([0.0, -0.0, 1.0, -1.0]),
                  np.array([-0.0, -0.0, -0.0, -0.0]), np.eye(2).ravel()):
            got, want = rhs(0.5, y), (v.matrix @ y.reshape(2, 2)).ravel()
            assert np.array_equal(got, want), (c, y)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (c, y)


def per_step_coefficients(fun, K, t_old, y_old, y, h):
    """DOP853's dense-output coefficients of one step as scipy builds them,
    one point call of fun per extra stage: the reference of the block pass."""
    K_ext = np.empty((_dop853.N_STAGES_EXTENDED, len(y)))
    K_ext[:_dop853.N_STAGES + 1] = K
    for s, (a, c) in enumerate(zip(_dop853.A_EXTRA, _dop853.C_EXTRA),
                               start=_dop853.N_STAGES + 1):
        dy = np.dot(K_ext[:s].T, a[:s]) * h
        K_ext[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((_dop853.INTERPOLATOR_POWER, len(y)))
    f_old = K_ext[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (K[-1] + f_old)
    F[3:] = h * np.dot(_dop853.D, K_ext)
    return F


@pytest.mark.parametrize("n, t_span, chunk", [
    (1, (0.0, 10.0), None), (5, (0.0, 10.0), None), (1, (10.0, 0.0), None),
    (5, (10.0, 0.0), None), (1, (0.0, 10.0), 16), (5, (10.0, 0.0), 16),
    (3, (0.0, 30.0), None)])
def test_the_block_built_dense_output_is_the_per_step_one(n, t_span, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(integrate_module, "DENSE_CHUNK", chunk)
    sysd = ermakov(step_frequency())
    rng = np.random.default_rng(14)
    states = [[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2),
               rng.uniform(-1, 1)] for _ in range(n)]
    lanes = sysd.integrate_lanes(states, t_span)
    solve = lanes[0]._solve
    steps = len(solve.h)
    if chunk is not None or t_span[1] == 30.0:  # more than one chunk
        assert steps > integrate_module.DENSE_CHUNK
    stages = [K.copy() for K in solve._K]
    lanes[0].dense([0.5 * (lanes[0].times[0] + lanes[0].times[1])])

    def fun(t, y):
        return sysd.rhs(t, y if n == 1 else y.reshape(-1, n)).reshape(-1)
    for i in range(steps):
        want = per_step_coefficients(fun, stages[i], solve.t_old[i], solve.y_old[i],
                                     solve._y[i], solve.h[i])
        assert np.array_equal(solve.F[i], want), i


def test_rhs_on_a_block_checks_dimension_and_each_lane():
    for sysd in _block_systems():
        d = sysd.dimension
        for shape in ((d + 1, 3), (d, 3, 1), (3, d)):
            with pytest.raises(DimensionMismatchError):
                sysd.rhs(0.0, np.ones(shape))
        for i in sysd.singular_coords:
            block = np.ones((d, 4))
            block[i, 2] = 0.0
            with pytest.raises(SingularityError, match="lane 2"):
                sysd.rhs(0.0, block)


# --- Trajectory --------------------------------------------------------------

def cos_t(t):
    """x1 = cos t of the unit oscillator, (x, v) at each of an array of times."""
    return np.column_stack([np.cos(t), -np.sin(t)])


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory.from_function(cos_t, [0.0, 0.0, 1.0])


def test_dense_exact_at_sample_times():
    traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 3.0), TOL, TOL)
    for i in (0, len(traj.times) // 2, -1):
        assert_allclose(traj.dense(traj.times[i]), traj.states[i], rtol=0)


def test_from_function_dense_is_the_closed_form():
    # off the grid, and outside it, dense output is the closed form itself
    grid = np.linspace(0.0, 2.0, 41)
    traj = Trajectory.from_function(cos_t, grid)
    assert np.array_equal(traj.states, cos_t(grid))
    off = np.random.default_rng(3).uniform(-0.5, 2.5, 500)
    assert np.array_equal(traj.dense(off), cos_t(off))
    assert np.array_equal(traj.dense(1.234), cos_t(np.array([1.234]))[0])


# --- quadrature --------------------------------------------------------------

def test_quadrature_sec_squared():
    val = quadrature(lambda z: 1.0 / math.cos(z) ** 2, (0.0, 1.0))
    assert_allclose(val, math.tan(1.0), atol=1e-10)


def test_quadrature_linear():
    assert_allclose(quadrature(lambda z: z, (0.0, 1.0)), 0.5, atol=1e-12)


def test_quadrature_over_trajectory_interpolant():
    # tau(t) = integral dz / x1(z)^2 with x1 = cos z has antiderivative tan
    x1 = Trajectory.from_function(cos_t, np.linspace(0.0, 1.3, 80))
    val = quadrature(lambda z: 1.0 / float(x1.position(z)) ** 2, (0.0, 1.2))
    assert_allclose(val, math.tan(1.2), atol=1e-8)


def test_quadrature_nonfinite_integrand():
    with pytest.raises(QuadratureError):
        quadrature(lambda z: 1.0 / z, (-1.0, 1.0))


# --- frequency profiles ------------------------------------------------------

def test_frequency_profiles():
    assert constant_frequency(4.0)(123.0) == 4.0
    assert two_plus_sin()(0.0) == pytest.approx(2.0)
    prof = step_frequency(t_switch=5.0, before=1.0, after=4.0)
    assert prof(4.9) == 1.0 and prof(5.1) == 4.0


# --- array dense output ------------------------------------------------------

def _dense_trajectories():
    """Solver output and three closed-form trajectories."""
    solved = milne_pinney(two_plus_sin(), 1.0).integrate([1.3, 0.2], (0.0, 5.0))
    cosine = Trajectory.from_function(cos_t, np.linspace(0.0, 1.2, 41))
    reduced = reduce_pinney_from_pinney(solved, 0.8, 0.5, 1.0)
    osc = oscillator_1d(two_plus_sin())
    y, z = (osc.integrate(s, (0.0, 5.0)) for s in ([1.0, 0.0], [0.0, 1.0]))
    pair = Trajectory.from_function(lambda t: np.hstack([y.dense(t), z.dense(t)]),
                                    y.times)
    superposed = pinney_rule_from_solutions(pair, 0.7, 0.4, 1.0)
    return solved, cosine, reduced, superposed


def test_dense_array_equals_scalar_loop():
    for traj in _dense_trajectories():
        nodes = traj.times
        assert np.array_equal(traj.dense(nodes),
                              np.array([traj.dense(t) for t in nodes]))
        off = np.random.default_rng(0).uniform(traj.times[0], traj.times[-1], size=200)
        got = traj.dense(off)
        want = np.array([traj.dense(t) for t in off])
        ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
        assert np.all(np.abs(got - want) <= 4 * ulp)


def test_dense_rejects_a_scalar_style_interpolant():
    # maps one time to one state, so an array of n times gives (dimension, n)
    def scalar_style(t):
        return np.array([np.cos(t), -np.sin(t)])
    grid = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(grid, scalar_style(grid).T, interpolant=scalar_style)
    for off in ([0.05], [0.05, 0.15], [0.05, 0.15, 0.25]):
        with pytest.raises(ValueError, match="shape"):
            traj.dense(np.array(off))


def test_dense_keeps_the_shape_of_t():
    solved = _dense_trajectories()[0]
    t = np.linspace(0.1, 4.9, 6).reshape(2, 3)
    assert solved.dense(0.7).shape == (2,)
    assert solved.dense(t).shape == (2, 3, 2)
    assert solved.position(t).shape == (2, 3)


# --- tau clock ---------------------------------------------------------------

def quad_tau_reference(x1, ts):
    """tau at each of ts by scipy's quad: one call per node interval, summed,
    plus one partial interval for an off-node t."""
    from scipy.integrate import quad

    def f(z):
        return 1.0 / float(x1.position(z)) ** 2

    def integral(a, b):
        return quad(f, a, b, epsabs=1e-14, epsrel=1e-14, limit=500)[0]

    times = x1.times
    nodes = np.cumsum([0.0] + [integral(a, b) for a, b in zip(times[:-1], times[1:])])
    out = []
    for t in ts:
        j = np.searchsorted(times, t, side="right") - 1
        out.append(nodes[j] + (integral(times[j], t) if t > times[j] else 0.0))
    return np.array(out)


def exact_cosine(t_end=1.2, n=121):
    """x1 = cos t whose dense output is the closed form itself."""
    return Trajectory.from_function(cos_t, np.linspace(0.0, t_end, n))


TAU_CLOCK_TOL = 1e-12


def test_tau_clock_on_cosine_matches_quad_and_tan():
    x1 = exact_cosine()
    clock = x1.tau_clock()
    off = np.random.default_rng(1).uniform(0.0, 1.2, size=15)
    ts = np.concatenate([x1.times[::10], off])
    taus = clock(ts)
    scale = TAU_CLOCK_TOL * np.maximum(1.0, taus)
    assert np.all(np.abs(taus - quad_tau_reference(x1, ts)) <= scale)
    assert np.all(np.abs(taus - np.tan(ts)) <= scale)
    assert np.array_equal(taus, [clock(t) for t in ts])


def test_tau_clock_on_integrated_pinney_matches_quad():
    x1 = milne_pinney(two_plus_sin(), 1.0).integrate([1.3, 0.2], (0.0, 5.0))
    clock = x1.tau_clock()
    off = np.random.default_rng(2).uniform(0.0, 5.0, size=15)
    ts = np.concatenate([x1.times[::4], off])
    taus = clock(ts)
    assert np.all(np.abs(taus - quad_tau_reference(x1, ts))
                  <= TAU_CLOCK_TOL * np.maximum(1.0, taus))
    assert x1.tau_clock() is clock  # built once, shared


def test_tau_clock_raises_when_x1_vanishes():
    x1 = exact_cosine(3.0, 100)  # cos vanishes at pi/2
    # before the zero, tau and the rules on it are defined
    assert abs(tau_reparametrization(x1, 1.0) - math.tan(1.0)) < 1e-6
    assert abs(quadrature_rule(x1, 0.0, 1.0, 1.0) - math.sin(1.0)) < 1e-6
    assert abs(x1.tau_clock()(np.array([0.0, 0.5, 1.0]))[-1] - math.tan(1.0)) < 1e-6
    # a window [t0, t] that reaches the zero raises, also for arrays of t
    for call in (lambda: tau_reparametrization(x1, 3.0),
                 lambda: quadrature_rule(x1, 0.0, 1.0, 3.0),
                 lambda: x1.tau_clock()(np.array([1.0, 2.0])),
                 lambda: tau_grid(x1),
                 lambda: reduce_oscillator(x1, 0.0, 1.0)):
        with pytest.raises(QuadratureError):
            call()
    assert quadrature_rule(x1, 0.5, 0.0, 3.0) == pytest.approx(0.5 * math.cos(3.0),
                                                              abs=1e-6)


def test_tau_clock_raises_on_nonfinite_integrand():
    # node values pass the sign check, but the dense output is NaN between them
    def evaluate(t):
        return np.full((len(t), 2), np.nan)
    grid = np.linspace(0.0, 1.0, 11)
    x1 = Trajectory(grid, np.column_stack([1.0 + grid, np.ones_like(grid)]),
                    interpolant=evaluate)
    with pytest.raises(QuadratureError) as exc:
        x1.tau_clock()
    assert 0.0 <= exc.value.abscissa <= 1.0


def test_tau_clock_bisects_wide_panels():
    # two panels over [0, 1.4]: 1/cos^2 is too steep for one GK 7/15 panel
    x1 = exact_cosine(1.4, 3)
    ts = np.array([0.7, 1.0, 1.4])
    assert np.all(np.abs(x1.tau_clock()(ts) - np.tan(ts))
                  <= TAU_CLOCK_TOL * np.tan(ts))


def test_tau_clock_gives_up_on_a_jump():
    # a jump inside a panel keeps |K15 - G7| large under every bisection
    def evaluate(t):
        return np.column_stack([np.where(t < 0.3 * math.pi, 1.0, 2.0),
                                np.zeros_like(t)])
    x1 = Trajectory.from_function(evaluate, np.linspace(0.0, 1.0, 5))
    with pytest.raises(QuadratureError):
        x1.tau_clock()
