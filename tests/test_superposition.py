import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from liesys import (DependentSolutionsError, DomainError, SingularityError,
                    Trajectory, constant_frequency, ermakov_pair_invariants,
                    keys_from, linear_rule, milne_pinney, oscillator_1d,
                    pinney_rule, pinney_rule_from_solutions, quadrature_rule,
                    two_plus_sin)
from liesys.integrate import compare, worst


def oscillator_pair(y0, vy0, z0, vz0, t_end=10.0, n=301):
    """The omega = 1 oscillator solutions through (y0, vy0) and (z0, vz0) at
    t = 0, as one closed-form pair of rows (y, y', z, z') on n samples of
    [0, t_end]."""
    def rows(t):
        c, s = np.cos(t), np.sin(t)
        return np.column_stack([y0 * c + vy0 * s, vy0 * c - y0 * s,
                                z0 * c + vz0 * s, vz0 * c - z0 * s])

    return Trajectory.from_function(rows, np.linspace(0.0, t_end, n))


def solved_pair(y, z):
    """The pair of rows (y, y', z, z') of two solves, on y's grid."""
    return Trajectory.from_function(lambda t: np.hstack([y.dense(t), z.dense(t)]),
                                    y.times)


def analytic_pair(t_end=10.0, n=301):
    """y = sin t, z = cos t as an oscillator pair (omega^2 = 1)."""
    return oscillator_pair(0.0, 1.0, 1.0, 0.0, t_end, n)


def cosine(t_end, n):
    """cos t alone, with rows (x, v) on n samples of [0, t_end]."""
    return Trajectory.from_function(lambda t: np.column_stack([np.cos(t), -np.sin(t)]),
                                    np.linspace(0.0, t_end, n))


# --- linear rule -------------------------------------------------------------

def test_linear_rule_at_t_zero():
    # fundamental pair cos/sin at t = 0; keys (0, 1) pick out sin t
    x, v = linear_rule(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    assert (x, v) == (0.0, 1.0)


def test_linear_rule_recovers_first_solution():
    x1, v1, x2, v2 = 0.8, -0.2, 0.3, 0.9
    k = x1 * v2 - x2 * v1
    assert_allclose(linear_rule(x1, v1, x2, v2, k, 0.0), (x1, v1), atol=1e-14)


def test_linear_rule_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x1, v1, x2, v2, k1, k2 = rng.uniform(-2, 2, size=6)
        if abs(x1 * v2 - x2 * v1) < 0.1:
            continue
        x, v = linear_rule(x1, v1, x2, v2, k1, k2)
        got = keys_from(x, v, x1, v1, x2, v2)
        assert_allclose(got, (k1, k2), atol=1e-12)


def test_linear_rule_dependent_solutions():
    with pytest.raises(DependentSolutionsError):
        linear_rule(1.0, 2.0, 2.0, 4.0, 0.3, 0.4)


def test_keys_from_fundamental_pair():
    x1, v1, x2, v2 = 1.2, 0.1, -0.4, 0.8
    k = x1 * v2 - x2 * v1
    assert_allclose(keys_from(x1, v1, x1, v1, x2, v2), (k, 0.0), atol=1e-15)
    assert_allclose(keys_from(x2, v2, x1, v1, x2, v2), (0.0, k), atol=1e-15)


def test_keys_from_and_linear_rule_reach_rounding_on_cos_and_sin():
    # on the exact pair (cos t, sin t), x = 0.7 cos t - 0.4 sin t has keys
    # (0.7, -0.4), and the rule rebuilds (x, v) from them: both to 2.2e-16
    t = np.linspace(0.0, 10.0, 101)
    x1, v1 = [math.cos(s) for s in t], [-math.sin(s) for s in t]
    x2, v2 = [math.sin(s) for s in t], [math.cos(s) for s in t]
    x = [0.7 * math.cos(s) - 0.4 * math.sin(s) for s in t]
    v = [-0.7 * math.sin(s) - 0.4 * math.cos(s) for s in t]
    pair = np.array([x1, v1, x2, v2])
    keys = keys_from(np.array(x), np.array(v), *pair)
    assert worst(compare(np.column_stack(keys), [0.7, -0.4], "abs")) < 2e-14
    rebuilt = linear_rule(*pair, 0.7, -0.4)
    assert worst(compare(np.column_stack(rebuilt), np.column_stack([x, v]),
                         "abs")) < 2e-14


def test_keys_constant_along_solutions():
    osc = oscillator_1d(two_plus_sin())
    s1 = osc.integrate([1.0, 0.0], (0.0, 10.0))
    s2 = osc.integrate([0.0, 1.0], (0.0, 10.0))
    s3 = osc.integrate([0.7, -0.4], (0.0, 10.0))
    ks = np.array([keys_from(*s3.dense(t), *s1.dense(t), *s2.dense(t))
                   for t in np.linspace(0, 10, 101)])
    assert np.max(np.abs(ks - ks[0])) < 1e-8


# --- quadrature rule ---------------------------------------------------------

def test_quadrature_rule_cos_to_sin():
    # x1 = cos t and its tau clock give sin t to rounding, 2.2e-16 at these
    # samples read at once or one at a time
    z = cosine(1.3, 140)  # nonvanishing on [0, 1.2]
    t = np.linspace(0.0, 1.2, 25)
    want = [math.sin(s) for s in t]
    assert worst(compare(quadrature_rule(z, 0.0, 1.0, t), want, "abs")) < 2e-14
    assert worst(compare([quadrature_rule(z, 0.0, 1.0, s) for s in t], want,
                         "abs")) < 2e-14


def test_quadrature_rule_k_zero_scaling():
    z = cosine(1.0, 100)
    assert quadrature_rule(z, 0.7, 0.0, 0.9) == pytest.approx(
        0.7 * math.cos(0.9), abs=1e-10)


def test_quadrature_rule_output_satisfies_ode():
    osc = oscillator_1d(two_plus_sin())
    x1 = osc.integrate([1.0, 0.3], (0.0, 0.9))
    ts = np.linspace(0.05, 0.85, 9)
    h = 1e-3
    for t in ts:
        xm = quadrature_rule(x1, 0.4, 0.7, t - h)
        x0 = quadrature_rule(x1, 0.4, 0.7, t)
        xp = quadrature_rule(x1, 0.4, 0.7, t + h)
        second = (xp - 2 * x0 + xm) / h ** 2
        assert abs(second + (2.0 + math.sin(t)) * x0) < 1e-5


# --- Pinney rule -------------------------------------------------------------

def test_pinney_rule_equilibrium():
    # y = sin t, z = cos t, I1 = I2 = 1/2, W = -1, k = 1: root r = 0 and
    # (x, v) = (1, 0) at every time
    for t in np.linspace(0.0, 6.0, 25):
        x, v = pinney_rule((math.sin(t), math.cos(t)), (math.cos(t), -math.sin(t)),
                           0.5, 0.5, -1.0, 0.0)
        assert x == pytest.approx(1.0, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)


def test_pinney_rule_is_defined_where_i2_vanishes():
    # k = 0 and x proportional to z: I2 = 0 and the root r = 0, so
    # x = sqrt(2 I1) |z| / |W|.  With y = t and z = 1 + t (omega = 0, W = -1)
    # and I1 = 1: x = sqrt(2) (1 + t) and v = sqrt(2); at t = 0 the map
    # divided 0 by 0 before y and z were swapped
    t = np.linspace(0.0, 2.0, 9)
    x, v = pinney_rule((t, np.ones_like(t)), (1.0 + t, np.ones_like(t)), 1.0, 0.0, -1.0, 0.0)
    assert_allclose(x, math.sqrt(2.0) * (1.0 + t), rtol=1e-15, atol=0.0)
    assert_allclose(v, math.sqrt(2.0), rtol=1e-15, atol=0.0)


def test_pinney_rule_wronskian_zero():
    with pytest.raises(DependentSolutionsError):
        pinney_rule((1.0, 0.0), (1.0, 0.0), 0.5, 0.5, 0.0, 0.0)


def test_pinney_rule_permutation_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y, z = rng.uniform(-2, 2, size=(2, 2))
        i1, i2 = rng.uniform(0.2, 2.0, size=2)
        w = rng.uniform(0.3, 2.0)
        k = 1.0
        if 4 * i1 * i2 - k * w * w < 0:
            continue
        root = rng.choice([1.0, -1.0]) * math.sqrt(4 * i1 * i2 - k * w * w)
        a = pinney_rule(y, z, i1, i2, w, root)
        b = pinney_rule(z, y, i2, i1, -w, root)
        assert_allclose(a, b, rtol=0.0, atol=1e-12)


def test_pinney_rule_k_zero_linear_degeneration():
    # I1 = a^2/2, I2 = b^2/2, W = ab with a, b > 0, and the root r = ab of
    # 4 I1 I2 - 0 W^2, collapses to the linear rule |b y + a z| / W, with
    # the velocity of its sign
    a, b = 0.8, 1.3
    for y, z in [((0.5, 0.2), (1.1, -0.7)), ((1.0, 0.4), (-0.4, 0.3)),
                 ((-0.3, -1.2), (0.9, 0.5))]:
        x, v = pinney_rule(y, z, 0.5 * a * a, 0.5 * b * b, a * b, a * b)
        lin = (np.multiply(b, y) + np.multiply(a, z)) / (a * b)
        assert_allclose((x, v), math.copysign(1.0, lin[0]) * lin, rtol=0.0, atol=1e-12)


# --- trajectory-level rule ---------------------------------------------------

def test_pinney_from_solutions_equilibrium():
    traj = pinney_rule_from_solutions(analytic_pair(), 1.0, 0.0, 1.0)
    assert np.max(np.abs(traj.states[:, 0] - 1.0)) < 1e-8
    # dense output between samples keeps the closed form
    assert traj.position(2.468) == pytest.approx(1.0, abs=1e-8)


def test_pinney_from_solutions_rejects_a_target_at_x_zero():
    with pytest.raises(SingularityError):
        pinney_rule_from_solutions(analytic_pair(), 0.0, 1.0, 1.0)


def test_pinney_from_solutions_matches_integration():
    w = two_plus_sin()
    osc = oscillator_1d(w)
    mp = milne_pinney(w, 1.0)
    y = osc.integrate([1.0, 0.0], (0.0, 10.0))
    z = osc.integrate([0.0, 1.0], (0.0, 10.0))
    for x0, v0 in [(1.0, 0.0), (0.7, 0.4), (1.8, -0.6)]:
        rec = pinney_rule_from_solutions(solved_pair(y, z), x0, v0, 1.0)
        ref = mp.integrate([x0, v0], (0.0, 10.0))
        errs = [abs(float(rec.position(t)) - float(ref.position(t)))
                / max(1.0, abs(float(ref.position(t))))
                for t in np.linspace(0, 10, 101)]
        assert max(errs) < 1e-5


def test_pinney_from_solutions_small_k_matches_linear_rule():
    # for k -> 0 the nonlinear rule degenerates to |linear combination|
    osc = oscillator_1d(constant_frequency(1.0))
    y = osc.integrate([1.0, 0.0], (0.0, 0.5))
    z = osc.integrate([0.0, 1.0], (0.0, 0.5))
    x0, v0 = 1.0, 0.5
    rec = pinney_rule_from_solutions(solved_pair(y, z), x0, v0, 1e-12)
    for t in np.linspace(0.0, 0.5, 11):
        lin = x0 * math.cos(t) + v0 * math.sin(t)
        assert float(rec.position(t)) == pytest.approx(lin, abs=1e-5)


@pytest.mark.parametrize("x0, v0, k", [(0.7, -0.4, 1.0), (1.8, 0.9, 0.5), (-1.3, 0.2, 2.0)])
def test_pinney_rule_from_solutions_reaches_rounding_on_the_exact_pair(x0, v0, k):
    # on the pair (cos t, -sin t, sin t, cos t) the target is
    # x^2 = A cos^2 t + B sin^2 t + 2 C sin t cos t with the rule's S0,
    # A = x0^2, B = v0^2 + k / x0^2, C = x0 v0, and x v = (B - A) sin t cos t
    # + C (cos^2 t - sin^2 t): x to 4.4e-16 and v to 1.6e-15, at the nodes and
    # off them.  At about 100x these, a relative defect of 1e-12 in an entry
    # of S0 shows
    pair = oscillator_pair(1.0, 0.0, 0.0, 1.0)
    a, b, c = x0 * x0, v0 * v0 + k / (x0 * x0), x0 * v0
    sol = pinney_rule_from_solutions(pair, x0, v0, k)
    for t in (pair.times, np.random.default_rng(4).uniform(0.0, 10.0, size=40)):
        want = []
        for s in t:
            cs, sn = math.cos(s), math.sin(s)
            x = math.copysign(math.sqrt(a * cs * cs + b * sn * sn + 2.0 * c * sn * cs), x0)
            want.append([x, ((b - a) * sn * cs + c * (cs * cs - sn * sn)) / x])
        got, want = sol.dense(t), np.array(want)
        assert worst(compare(got[:, 0], want[:, 0], "abs")) < 5e-14
        assert worst(compare(got[:, 1], want[:, 1], "abs")) < 2e-13


def test_pinney_invariants_from_initial_data_are_constant():
    # the (I1, I2, W) computed at t0 stay the invariants of the combined flow
    w = two_plus_sin()
    osc = oscillator_1d(w)
    mp = milne_pinney(w, 1.0)
    y = osc.integrate([1.0, 0.0], (0.0, 10.0))
    z = osc.integrate([0.0, 1.0], (0.0, 10.0))
    x = mp.integrate([0.7, 0.4], (0.0, 10.0))
    ref = ermakov_pair_invariants((0.7, 1.0, 0.0, 0.4, 0.0, 1.0), 1.0)
    for t in np.linspace(0, 10, 21):
        state = (float(x.position(t)), float(y.position(t)),
                 float(z.position(t)), float(x.dense(t)[..., 1]),
                 float(y.dense(t)[..., 1]), float(z.dense(t)[..., 1]))
        assert_allclose(ermakov_pair_invariants(state, 1.0), ref, atol=1e-7)


# --- property tests ----------------------------------------------------------

_REAL = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(y=_REAL, z=_REAL, i1=_REAL, i2=_REAL,
       w=_REAL.filter(lambda w: w != 0.0),  # W = 0: DependentSolutionsError
       root=_REAL, half_plane=st.sampled_from([1, -1]), array=st.booleans())
@example(y=1.0, z=1.0, i1=1.0, i2=1.0, w=5e-324, root=0.0, half_plane=1,
         array=False)  # sqrt(2) / W overflows
def test_pinney_rule_is_finite_or_a_domain_error(y, z, i1, i2, w, root, half_plane,
                                                 array):
    # the states (position, velocity) of the two solutions reuse the draws
    states = (y, z), (z, -y)
    if array:
        states = ((np.array([y, 0.5 * y, z]), np.array([z, -z, y])),
                  (np.array([z, -z, y]), np.array([-y, y, z])))
    try:
        x, v = pinney_rule(*states, i1, i2, w, root, half_plane)
    except DomainError:
        return
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(v))
    assert np.all(half_plane * x > 0.0)


_INITIAL = st.floats(-2.0, 2.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=st.tuples(_INITIAL, _INITIAL, _INITIAL, _INITIAL).filter(
           lambda p: abs(p[0] * p[3] - p[2] * p[1]) >= 0.25),
       x0=st.floats(0.25, 3.0), sign=st.sampled_from([1, -1]), v0=_INITIAL,
       k=st.floats(0.0, 4.0), at_rest=st.booleans())
@example(pair=(1.0, 0.0, 0.0, 1.0), x0=0.7, sign=1, v0=0.0, k=1.0, at_rest=True)
def test_pinney_rule_from_solutions_rebuilds_the_initial_state(pair, x0, sign, v0, k,
                                                              at_rest):
    # at_rest: the pair (1, 0), (0, 1) and v0 = 0, where the root r = 0.
    # |x0| and |W| stay off 0, where the rule itself loses all digits.
    if at_rest:
        pair, v0 = (1.0, 0.0, 0.0, 1.0), 0.0
    x0 *= sign
    y0, vy0, z0, vz0 = pair
    x, v = pinney_rule_from_solutions(oscillator_pair(*pair, t_end=1.0, n=3),
                                      x0, v0, k).states[0]
    # x0 comes back to the rounding of the radicand I2 y^2 + I1 z^2 + r y z,
    # whose value x0^2 W^2 / 2 is up to cond (>= 1) times smaller than its terms
    i1, i2, w = ermakov_pair_invariants((x0, y0, z0, v0, vy0, vz0), k)
    cond = (math.sqrt(i2) * abs(y0) + math.sqrt(i1) * abs(z0))**2 / (0.5 * (x0 * w)**2)
    assert abs(x - x0) <= 1e-15 * cond * abs(x0)
    assert abs(v - v0) <= 1e-10 * max(1.0, abs(v0), math.sqrt(k) / abs(x0))
