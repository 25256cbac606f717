import numpy as np
import pytest
from numpy.testing import assert_allclose

from liesys import (SingularityError, Trajectory, angular_momentum,
                    constant_frequency, drift, ermakov,
                    ermakov_pair_invariants, generalized_ermakov,
                    generalized_invariant, lewis_ermakov,
                    milne_pinney, oscillator_1d, oscillator_2d, pinney_triple,
                    quadratic_shapes, two_plus_sin, zero_one_shapes)
from liesys.cli import build_system
from liesys.systems import SHAPE_FUNCTIONS, SYSTEM_FACTORIES
from test_systems import linear_g_shapes


# --- pointwise formulas ------------------------------------------------------

def test_angular_momentum_values():
    assert angular_momentum(1.0, 0.0, 0.0, 1.0) == 1.0
    assert angular_momentum(0.7, -0.3, 0.7, -0.3) == 0.0


def test_lewis_ermakov_values():
    assert lewis_ermakov(0.0, 1.0, 1.0, 0.0) == 1.0
    assert lewis_ermakov(1.0, 1.0, 0.0, 0.0) == 1.0


def test_lewis_ermakov_singular_at_y_zero():
    with pytest.raises(SingularityError):
        lewis_ermakov(1.0, 0.0, 0.0, 0.0)


def test_pair_invariants_at_t_zero():
    # x = 1, y = sin t, z = cos t at t = 0, layout (x, y, z, vx, vy, vz)
    i1, i2, w = ermakov_pair_invariants((1.0, 0.0, 1.0, 0.0, 1.0, 0.0), 1.0)
    assert i1 == pytest.approx(0.5)
    assert i2 == pytest.approx(0.5)
    assert w == pytest.approx(-1.0)


def test_pair_invariants_k_zero_degeneration():
    state = (1.3, 0.4, -0.8, 0.2, 0.9, -0.5)
    i1, _, _ = ermakov_pair_invariants(state, 0.0)
    x, y, _, vx, vy, _ = state
    assert i1 == pytest.approx(0.5 * (y * vx - x * vy) ** 2)


def test_pair_invariants_singular_at_x_zero():
    with pytest.raises(SingularityError):
        ermakov_pair_invariants((0.0, 1.0, 1.0, 0.0, 0.0, 0.0), 1.0)


def test_pair_invariants_with_k_zero_are_regular_at_x_zero():
    y, z, vx, vy, vz = 1.0, 0.5, 1.0, 0.0, 0.3
    assert ermakov_pair_invariants((0.0, y, z, vx, vy, vz), 0.0) == (
        0.5 * (y * vx) ** 2, 0.5 * (z * vx) ** 2, y * vz - z * vy)
    # away from x = 0 the k = 0 values are those of the general expression
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y, z, vx, vy, vz = rng.uniform(-2.0, 2.0, 6)
        want = (0.5 * ((y * vx - x * vy) ** 2 + 0.0 * (y / x) ** 2),
                0.5 * ((x * vz - z * vx) ** 2 + 0.0 * (z / x) ** 2), y * vz - z * vy)
        assert ermakov_pair_invariants((x, y, z, vx, vy, vz), 0.0) == want


def test_generalized_invariant_at_reference():
    # u = x/y = 1 and zero angular part: empty integral
    val = generalized_invariant(1.0, 1.0, 0.0, 0.0, quadratic_shapes())
    assert val == pytest.approx(0.0, abs=1e-14)


def test_generalized_reduces_to_lewis():
    rng = np.random.default_rng(0)
    shapes = zero_one_shapes()
    for _ in range(20):
        x, y = rng.uniform(0.3, 2.0, size=2)
        vx, vy = rng.uniform(-1.5, 1.5, size=2)
        gi = generalized_invariant(x, y, vx, vy, shapes)
        assert gi == pytest.approx(0.5 * lewis_ermakov(x, y, vx, vy) - 0.5,
                                   abs=1e-10)


@pytest.mark.parametrize("shapes", [zero_one_shapes(), quadratic_shapes(),
                                    linear_g_shapes()],
                         ids=["zero_one", "quadratic", "linear_g"])
def test_closed_form_q_matches_the_quadrature(shapes):
    # Q(u) = integral_1^u (-z^-3 f(1/z) + z g(1/z)) dz, by scipy's quad
    from scipy.integrate import quad

    def integrand(z):
        return -shapes.f(1.0 / z) / z**3 + z * shapes.g(1.0 / z)

    for u in np.linspace(0.2, 5.0, 97):
        closed = shapes.Q(u)
        by_quadrature = quad(integrand, 1.0, u, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(closed - by_quadrature) <= 1e-12 * max(1.0, abs(by_quadrature))
        # at x vy - y vx = 0 the invariant is Q(x/y) alone
        assert generalized_invariant(u, 1.0, 0.0, 0.0, shapes) == closed


# --- constancy along flows ---------------------------------------------------

def test_lewis_constant_on_analytic_pair():
    # oscillator x = sin t paired with the Pinney equilibrium y = 1, state
    # (x, vx, y, vy) of the Ermakov system
    traj = ermakov(constant_frequency(1.0)).integrate([0.0, 1.0, 1.0, 0.0],
                                                      (0.0, 10.0))
    series = drift(traj.times, traj.states,
                   lambda s: lewis_ermakov(s[0], s[2], s[1], s[3]), "psi")
    assert_allclose(series.values, 1.0, atol=1e-8)
    assert series.drift_rel < 1e-8


def test_angular_momentum_drift():
    sysd = oscillator_2d(two_plus_sin())
    traj = sysd.integrate([1.0, 0.0, 0.0, 1.0], (0.0, 10.0))
    series = drift(traj.times, traj.states,
                   lambda s: angular_momentum(s[0], s[1], s[2], s[3]), "xi")
    assert series.drift_rel < 1e-8


def test_pair_invariants_drift():
    sysd = pinney_triple(two_plus_sin(), 1.0)
    traj = sysd.integrate([0.7, 1.0, 0.0, 0.4, 0.0, 1.0], (0.0, 20.0))
    for idx in range(3):
        series = drift(traj.times, traj.states,
                       lambda s, i=idx: ermakov_pair_invariants(s, 1.0)[i], f"inv{idx}")
        assert series.drift_rel < 1e-6


def test_generalized_invariant_drift():
    shapes = quadratic_shapes()
    sysd = generalized_ermakov(two_plus_sin(), shapes)
    traj = sysd.integrate([1.1, 0.2, 0.9, -0.1], (0.0, 20.0))
    series = drift(traj.times, traj.states,
                   lambda s: generalized_invariant(s[0], s[2], s[1], s[3], shapes), "gen")
    assert series.drift_rel < 1e-6


def test_drift_constant_function():
    traj = oscillator_1d(two_plus_sin()).integrate([1.0, 0.0], (0.0, 5.0))
    series = drift(traj.times, traj.states, lambda s: 3.25, "const")
    assert series.drift_abs == 0.0


def test_drift_partial_on_singularity():
    # y = 1 - t hits zero exactly at the t = 1 sample: the series truncates
    times = np.linspace(0.0, 2.0, 81)
    traj = Trajectory.from_function(
        lambda t: np.column_stack([np.sin(t), np.cos(t), 1.0 - t, np.full_like(t, -1.0)]),
        times)
    series = drift(traj.times, traj.states,
                   lambda s: lewis_ermakov(s[0], s[2], s[1], s[3]), "psi")
    assert series.partial
    assert series.times[-1] < 2.0


def test_directional_derivative_vanishes():
    """The defining property: each invariant is annihilated by every
    generator of its system (checked as a finite-difference directional
    derivative of the invariant along the field).  The cases are every
    invariant of every system, generalized Ermakov under every shape."""
    h = 1e-5
    rng = np.random.default_rng(7)
    configs = [{"name": name} for name in SYSTEM_FACTORIES
               if name != "generalized_ermakov"]
    configs += [{"name": "generalized_ermakov", "shapes": shapes}
                for shapes in SHAPE_FUNCTIONS]
    systems = [(cfg, build_system(cfg)) for cfg in configs]
    cases = [(cfg, sysd, name, inv) for cfg, sysd in systems
             for name, inv in sysd.invariants.items()]
    assert sorted(name for _, _, name, _ in cases) == [
        "angular_momentum", "generalized", "generalized", "lewis_ermakov",
        "pair_i1", "pair_i2", "wronskian"]
    for cfg, sysd, name, inv in cases:
        for p in sysd.sample_domain(rng, 20, low=-1.5, high=1.5, guard=0.3):
            for X in sysd.generators:
                v = X(p)
                # fourth-order stencil keeps the truncation error well below
                # the tolerance even near the domain guard
                deriv = (-inv(p + 2 * h * v) + 8 * inv(p + h * v)
                         - 8 * inv(p - h * v) + inv(p - 2 * h * v)) / (12 * h)
                assert abs(deriv) < 1e-6, (cfg, name, X.name, p)


# --- registry ----------------------------------------------------------------

def test_each_system_carries_its_invariants():
    w = constant_frequency(1.0)
    names = {
        sysd.name: list(sysd.invariants)
        for sysd in (oscillator_1d(w), oscillator_2d(w), milne_pinney(w, 1.0),
                     ermakov(w), pinney_triple(w, 1.0),
                     generalized_ermakov(w, quadratic_shapes()))
    }
    # the names the README lists for the drift pipeline
    assert names == {
        "oscillator_1d": [], "milne_pinney": [],
        "oscillator_2d": ["angular_momentum"], "ermakov": ["lewis_ermakov"],
        "pinney_triple": ["pair_i1", "pair_i2", "wronskian"],
        "generalized_ermakov": ["generalized"],
    }
    state = np.array([1.3, 0.2, 0.7, -0.4, 0.5, 0.9])
    i1, i2, wr = ermakov_pair_invariants(state, 2.5)
    triple = pinney_triple(w, 2.5).invariants
    assert [fn(state) for fn in triple.values()] == [i1, i2, wr]


def test_the_generalized_invariant_uses_the_systems_own_shapes():
    x, vx, y, vy = p = np.array([1.3, 0.2, 0.7, -0.4])
    for shapes, other in ((zero_one_shapes(), quadratic_shapes()),
                          (quadratic_shapes(), zero_one_shapes())):
        fn = generalized_ermakov(constant_frequency(1.0), shapes).invariants
        value = fn["generalized"](p)
        assert value == generalized_invariant(x, y, vx, vy, shapes)
        assert value != generalized_invariant(x, y, vx, vy, other)
