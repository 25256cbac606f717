import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liesys import (IntegrationError, QuadratureError, Trajectory,
                    constant_frequency, integrate, milne_pinney, oscillator_1d,
                    pinney_rule_from_solutions, quadrature, quadrature_rule,
                    reduce_oscillator, reduce_pinney_from_pinney,
                    step_frequency, tau_grid, tau_reparametrization,
                    two_plus_sin)

TOL = 1e-10


def osc_rhs(omega2):
    return lambda t, y: np.array([y[1], -omega2 * y[0]])


# --- integrate ---------------------------------------------------------------

def test_oscillator_quarter_period():
    traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, math.pi / 2), TOL, TOL)
    assert_allclose(traj.final_state, [0.0, -1.0], atol=10 * TOL)


def test_pinney_equilibrium_is_constant():
    sysd = milne_pinney(constant_frequency(1.0), 1.0)
    traj = sysd.integrate([1.0, 0.0], (0.0, 10.0))
    assert np.max(np.abs(traj.states - np.array([1.0, 0.0]))) < 1e-8


def test_time_reversal():
    y0 = np.array([0.7, -0.3])
    fwd = integrate(osc_rhs(2.0), y0, (0.0, 5.0), TOL, TOL)
    back = integrate(osc_rhs(2.0), fwd.final_state, (5.0, 0.0), TOL, TOL)
    # reverse-time trajectories are stored with increasing times
    assert_allclose(back.initial_state, y0, atol=100 * TOL)


def test_dense_output_accuracy():
    traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 10.0), TOL, TOL)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 10.0, size=50):
        fresh = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, t), TOL, TOL)
        assert_allclose(traj.dense(t), fresh.final_state, atol=10 * TOL)


def test_convergence_with_tolerance():
    # final-state error against cos t should fall as tolerances tighten
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 10.0), tol, tol)
        exact = np.array([math.cos(10.0), -math.sin(10.0)])
        errs.append(np.max(np.abs(traj.final_state - exact)))
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


# --- Trajectory --------------------------------------------------------------

def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0, 1.0], np.zeros((3, 1)))


def test_dense_exact_at_sample_times():
    traj = integrate(osc_rhs(1.0), [1.0, 0.0], (0.0, 3.0), TOL, TOL)
    for i in (0, len(traj.times) // 2, -1):
        assert_allclose(traj.dense(traj.times[i]), traj.states[i], rtol=0)


def test_from_function_with_derivative():
    times = np.linspace(0.0, 2.0, 41)
    traj = Trajectory.from_function(
        lambda t: np.array([math.sin(t), math.cos(t)]), times,
        lambda t: np.array([math.cos(t), -math.sin(t)]))
    assert_allclose(traj.position(1.234), math.sin(1.234), atol=1e-8)
    assert_allclose(traj.velocity(1.234), math.cos(1.234), atol=1e-8)


# --- quadrature --------------------------------------------------------------

def test_quadrature_sec_squared():
    val = quadrature(lambda z: 1.0 / math.cos(z) ** 2, (0.0, 1.0))
    assert_allclose(val, math.tan(1.0), atol=1e-10)


def test_quadrature_linear():
    assert_allclose(quadrature(lambda z: z, (0.0, 1.0)), 0.5, atol=1e-12)


def test_quadrature_over_trajectory_interpolant():
    # tau(t) = integral dz / x1(z)^2 with x1 = cos z has antiderivative tan
    times = np.linspace(0.0, 1.3, 80)
    x1 = Trajectory.from_function(
        lambda t: np.array([math.cos(t), -math.sin(t)]), times,
        lambda t: np.array([-math.sin(t), -math.cos(t)]))
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
    """Solver output, a Hermite spline and two closed-form trajectories."""
    solved = milne_pinney(two_plus_sin(), 1.0).integrate([1.3, 0.2], (0.0, 5.0))
    spline = Trajectory.from_function(
        lambda t: np.array([math.cos(t), -math.sin(t)]), np.linspace(0.0, 1.2, 41),
        lambda t: np.array([-math.sin(t), -math.cos(t)]))
    reduced = reduce_pinney_from_pinney(solved, 0.8, 0.5, 1.0)
    osc = oscillator_1d(two_plus_sin())
    superposed = pinney_rule_from_solutions(osc.integrate([1.0, 0.0], (0.0, 5.0)),
                                            osc.integrate([0.0, 1.0], (0.0, 5.0)),
                                            0.7, 0.4, 1.0)
    return solved, spline, reduced, superposed


def test_dense_array_equals_scalar_loop():
    for traj in _dense_trajectories():
        nodes = traj.times
        assert np.array_equal(traj.dense(nodes),
                              np.array([traj.dense(t) for t in nodes]))
        off = np.random.default_rng(0).uniform(traj.t0, traj.t1, size=200)
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
    def evaluate(t):
        return np.column_stack([np.cos(t), -np.sin(t)])
    grid = np.linspace(0.0, t_end, n)
    return Trajectory(grid, evaluate(grid), interpolant=evaluate)


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
    grid = np.linspace(0.0, 3.0, 100)  # cos vanishes at pi/2
    x1 = Trajectory(grid, np.column_stack([np.cos(grid), -np.sin(grid)]))
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
    grid = np.linspace(0.0, 1.0, 5)
    x1 = Trajectory(grid, evaluate(grid), interpolant=evaluate)
    with pytest.raises(QuadratureError):
        x1.tau_clock()
