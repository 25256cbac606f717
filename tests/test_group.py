import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from liesys import (DomainError, QuadratureError, Trajectory,
                    constant_frequency, integrate, milne_pinney,
                    oscillator_1d, two_plus_sin)
from liesys.group import (_PARABOLIC_DET, _pair_rows, _pinney_xy, _tau_pair, A1, A2,
                          A3, IDENTITY, SL2Matrix, Sl2Vector, generator_by_finite_difference,
                          linear_action, pinney_action, reduce_oscillator,
                          reduce_pinney_from_oscillator,
                          reduce_pinney_from_pinney, sl2_exp,
                          solve_group_equation, tau_grid, tau_reparametrization)
from liesys.integrate import compare, worst


def cos_trajectory(t_end=1.2, n=121):
    return Trajectory.from_function(
        lambda t: np.column_stack([np.cos(t), -np.sin(t)]), np.linspace(0.0, t_end, n))


def ones_trajectory(t_end=5.0, n=101):
    return Trajectory.from_function(
        lambda t: np.column_stack([np.ones_like(t), np.zeros_like(t)]),
        np.linspace(0.0, t_end, n))


# --- algebra / group types ---------------------------------------------------

def test_basis_matrices():
    assert_allclose(A1, [[0, 0], [-1, 0]])
    assert_allclose(A2, [[0, -1], [0, 0]])
    assert_allclose(A3, [[-0.5, 0], [0, 0.5]])


def test_sl2vector_matrix_traceless_and_round_trip():
    v = Sl2Vector(0.3, -1.2, 0.7)
    m = v.matrix
    assert np.trace(m) == 0.0
    # the coordinates read back off the matrix
    assert_allclose((-m[1, 0], -m[0, 1], m[1, 1] - m[0, 0]), (v.c1, v.c2, v.c3),
                    atol=1e-14)


def test_sl2matrix_rejects_bad_determinant():
    with pytest.raises(ValueError):
        SL2Matrix(np.array([[2.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("array", [
    [[math.nan, 0.0], [0.0, 1.0]],
    [[1.0, math.inf], [0.0, 1.0]],  # 1 - inf * 0 is NaN
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [math.nan, 1.0]], [[2.0, 0.0], [0.0, 1.0]]],
], ids=["nan", "inf", "stack"])
def test_sl2matrix_rejects_a_nan_determinant_and_names_the_first_bad_one(array):
    with pytest.raises(ValueError, match="determinant nan too far from 1"):
        SL2Matrix(array)


def test_sl2matrix_checks_each_determinant_as_the_closed_form():
    # accepted or rejected, and the first rejected determinant, as a loop
    # over the elements with a00 a11 - a01 a10 finds them
    rng, checked = np.random.default_rng(9), []
    for _ in range(50):
        stack = rng.normal(size=(7, 2, 2))
        stack[:, 1, 1] = (1.0 + stack[:, 0, 1] * stack[:, 1, 0]) / stack[:, 0, 0]
        stack[rng.integers(7), 0, 1] *= 1.0 + rng.choice([1e-7, 1e-3])
        bad = [d for d in (a00 * a11 - a01 * a10 for a00, a01, a10, a11
                           in stack.reshape(-1, 4).tolist()) if not abs(d - 1.0) <= 1e-6]
        if bad:
            with pytest.raises(ValueError) as exc:
                SL2Matrix(stack)
            assert str(exc.value) == f"determinant {bad[0]:.9g} too far from 1"
        else:
            assert np.array_equal(SL2Matrix(stack).array, stack)
        checked.append(bool(bad))
    assert 0 < sum(checked) < len(checked)  # both outcomes are seen


# --- exponential -------------------------------------------------------------

def test_exp_elliptic_rotation():
    # k a1 - a2 with k = 1 generates the rotation one-parameter group
    v = Sl2Vector(1.0, -1.0, 0.0)
    for tau in (0.3, 1.0, 2.5):
        g = sl2_exp(v, tau)
        assert_allclose(g.array, [[math.cos(tau), math.sin(tau)],
                                  [-math.sin(tau), math.cos(tau)]], atol=1e-12)


def test_exp_parabolic_unipotent():
    g = sl2_exp(Sl2Vector(0.0, -1.0, 0.0), 1.7)
    assert_allclose(g.array, [[1.0, 1.7], [0.0, 1.0]], atol=1e-15)


def test_exp_at_zero_is_identity():
    assert_allclose(sl2_exp(Sl2Vector(0.6, 0.2, -0.4), 0.0).array, np.eye(2))


def test_exp_of_an_array_is_the_stack_of_exponentials():
    s = np.array([[-1.3, 0.0], [0.4, 1.5]])
    # elliptic, hyperbolic and parabolic; the stack takes numpy's cos and sin
    for v in (Sl2Vector(1.0, -1.0, 0.3), Sl2Vector(1.0, 1.0, 0.0),
              Sl2Vector(0.0, 1.0, 0.0)):
        stack = sl2_exp(v, s).array
        assert stack.shape == (2, 2, 2, 2)
        one_by_one = [[sl2_exp(v, si).array for si in row] for row in s]
        assert_allclose(stack, one_by_one, rtol=0.0, atol=1e-15)


def test_exp_matches_ode_solve():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = Sl2Vector(*rng.uniform(-1.0, 1.0, size=3))
        s = rng.uniform(-2.0, 2.0)
        m = v.matrix

        def rhs(t, y):
            return (m @ y.reshape(2, 2)).ravel()

        traj = integrate(rhs, np.eye(2).ravel(), (0.0, s) if s > 0 else (0.0, s),
                         1e-12, 1e-12)
        ode = traj.dense(s).reshape(2, 2)
        assert_allclose(sl2_exp(v, s).array, ode, atol=1e-9)


def test_exp_continuous_across_parabolic_threshold():
    # tiny positive and negative determinants agree with the parabolic branch
    base = Sl2Vector(0.0, -1.0, 0.0)
    for eps in (1e-7, -1e-7):
        v = Sl2Vector(eps, -1.0, 0.0)  # det = eps
        assert_allclose(sl2_exp(v, 1.3).array, sl2_exp(base, 1.3).array,
                        atol=1e-6)


# Property tests: derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def _finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(c2=_finite(0.5, 2.0), c3=_finite(-2.0, 2.0), s=_finite(-3.0, 3.0),
       sign=st.sampled_from([-1.0, 1.0]), flip=st.booleans(),
       side=_finite(1e-3, 0.5))
def test_exp_is_continuous_across_the_parabolic_threshold(c2, c3, s, sign, flip, side):
    # det(c1 A1 + c2 A2 + c3 A3) = -c3^2/4 - c1 c2, so c1 sets the determinant:
    # one element just inside the parabolic branch, one just outside it
    c2 = -c2 if flip else c2

    def element(det):
        return Sl2Vector(-(det + 0.25 * c3 * c3) / c2, c2, c3)

    inside = sl2_exp(element(sign * (1.0 - side) * _PARABOLIC_DET), s).array
    outside = sl2_exp(element(sign * (1.0 + side) * _PARABOLIC_DET), s).array
    size = 1.0 + abs(s) * np.abs(element(0.0).matrix).max()
    assert_allclose(inside, outside, rtol=0, atol=1e-10 * size ** 2)


def _group_element(a):
    return (sl2_exp(Sl2Vector(1.0, 0.0, 0.0), a[0])
            @ sl2_exp(Sl2Vector(0.0, 1.0, 0.0), a[1])
            @ sl2_exp(Sl2Vector(0.0, 0.0, 1.0), a[2]))


_ANGLES = st.tuples(_finite(-1.5, 1.5), _finite(-1.5, 1.5), _finite(-1.5, 1.5))


def _inverse(g):
    # the adjugate, which is the inverse at determinant 1
    (a, b), (c, d) = g.array
    return SL2Matrix([[d, -b], [-c, a]])


@PROPERTY
@given(a=_ANGLES, b=_ANGLES)
def test_sl2matrix_inverse_and_product_round_trip(a, b):
    g, h = _group_element(a), _group_element(b)
    size = (1.0 + np.abs(g.array).max()) * (1.0 + np.abs(h.array).max())
    tol = dict(rtol=0, atol=1e-13 * size ** 2)
    assert_allclose((g @ _inverse(g)).array, np.eye(2), **tol)
    assert_allclose((_inverse(g) @ g).array, np.eye(2), **tol)
    assert_allclose(((g @ h) @ _inverse(h)).array, g.array, **tol)
    assert_allclose(_inverse(g @ h).array, (_inverse(h) @ _inverse(g)).array, **tol)
    assert abs(np.linalg.det((g @ h).array) - 1.0) < 1e-13 * size ** 2


_NONZERO = _finite(-1e3, 1e3).filter(lambda x: x != 0.0)  # x = 0: SingularityError


@PROPERTY
@given(a=_ANGLES, x=_NONZERO, v=_finite(-1e3, 1e3), k=_finite(-4.0, 4.0))
@example(a=(0.0, 0.0, 0.0), x=2.34e-251, v=0.0, k=0.0)  # x**2 underflows: 0 / 0
def test_pinney_action_is_finite_or_a_domain_error(a, x, v, k):
    # both half-planes (the sign of x), both signs of k and x near 0
    try:
        res = pinney_action(_group_element(a), (x, v), k)
    except DomainError:
        return
    assert all(math.isfinite(value) for value in res)
    assert math.copysign(1.0, res.x) == math.copysign(1.0, x)


# --- the Pinney map -----------------------------------------------------------

def _pinney_s(x, v, k):
    return np.array([[x * x, x * v], [x * v, v * v + k / (x * x)]])


def _reference_pinney_action(g, x, v, k):
    """The closed form of the action before it went through the Pinney map:
    (x, |v|) of the image and bounds on their errors, or DomainError
    outside the formula's domain."""
    alpha, beta = g.array[0]
    gamma, delta = g.array[1]
    inner = (beta * v + alpha * x) * (delta * v + gamma * x) + k * delta * beta / x**2
    den = (delta * v + gamma * x) ** 2 + k * (delta / x) ** 2
    if den <= 0.0:
        raise DomainError("vanishing denominator", den)
    x_rad = (k + inner * inner) / den
    if x_rad < 0.0:
        raise DomainError("negative radicand for x", x_rad)
    x_bar = math.copysign(math.sqrt(x_rad), x)
    v_rad = (delta * v + gamma * x) ** 2 + k * delta**2 / x**2 - k / x_bar**2
    scale = (delta * v + gamma * x) ** 2 + k * delta**2 / x**2 + k / x_bar**2
    if v_rad < 0.0:
        if v_rad > -1e-12 * max(1.0, scale):
            v_rad = 0.0
        else:
            raise DomainError("negative radicand for v", v_rad)
    # its own error, on the dozen roundings of each formula: x's relative one
    # from the cancelling sums in ``inner`` (the map's x^2 alpha + x v beta
    # cancels alike), and v's absolute one from v_rad, a difference of terms
    # of size scale with a clamp at -1e-12 scale, that also takes x's error
    terms = ((abs(beta * v) + abs(alpha * x)) * (abs(delta * v) + abs(gamma * x))
             + abs(k * delta * beta) / x**2)
    x_rel = 1e-14 * (1.0 + terms * abs(inner) / (k + inner * inner))
    v_err = math.sqrt(2e-12 * max(1.0, scale) + 4.0 * k / x_rad * x_rel)
    return x_bar, math.sqrt(v_rad), x_rel, v_err


_MAP_X = st.tuples(_finite(1e-2, 1e2), st.sampled_from([1.0, -1.0])).map(
    lambda pair: pair[0] * pair[1])
_MAP_V = _finite(-1e2, 1e2).filter(lambda v: v == 0.0 or abs(v) > 1e-100)  # x v normal
_MAP_K = _finite(0.0, 4.0).filter(lambda k: k > 0.0)


def _pinney_tolerance(g, x, v, k, image_s):
    # the rounding of g S g^T, eps |g|^2 |S|, times the condition 1 + |v / x|
    # of v = Y / x in the image, where |v| <= sqrt(S11) by det S = k
    size = np.abs(g.array).max() ** 2 * np.abs(_pinney_s(x, v, k)).max()
    return 1e-14 * size * (1.0 + math.sqrt(image_s[1, 1] / image_s[0, 0]))


@PROPERTY
@given(a=_ANGLES, x=_MAP_X, v=_MAP_V, k=_MAP_K)
def test_the_pinney_action_is_g_s_g_transpose(a, x, v, k):
    # the image is finite, in x's half-plane, and S(image) = g S(x, v) g^T;
    # its entry (1, 1) holds only if X (v^2 + k / X) - (x v)^2 = k
    g = _group_element(a)
    res = pinney_action(g, (x, v), k)
    assert math.isfinite(res.x) and math.isfinite(res.v)
    assert math.copysign(1.0, res.x) == math.copysign(1.0, x)
    want = g.array @ _pinney_s(x, v, k) @ g.array.T
    assert_allclose(_pinney_s(res.x, res.v, k), want, rtol=0.0,
                    atol=_pinney_tolerance(g, x, v, k, want))


@PROPERTY
@given(a=_ANGLES, b=_ANGLES, x=_MAP_X, v=_MAP_V, k=_MAP_K)
def test_the_pinney_action_composes(a, b, x, v, k):
    g, h = _group_element(a), _group_element(b)
    once = pinney_action(g @ h, (x, v), k)
    twice = pinney_action(g, pinney_action(h, (x, v), k), k)
    want = (g @ h).array @ _pinney_s(x, v, k) @ (g @ h).array.T
    tol = 1e-14 * (np.abs(g.array).max() * np.abs(h.array).max()) ** 2 * np.abs(
        _pinney_s(x, v, k)).max() * (1.0 + math.sqrt(want[1, 1] / want[0, 0]))
    # an error dX in X moves x by dX / (2 |x|), and v = Y / x alike
    assert abs(twice.x - once.x) <= tol / abs(once.x)
    assert abs(twice.v - once.v) <= tol / abs(once.x)


@PROPERTY
@given(x=_MAP_X, v=_MAP_V, k=_MAP_K)
def test_the_pinney_action_of_the_identity_is_the_point(x, v, k):
    # x to 1 ulp; v = Y / x takes the roundings of x v, of X Y, of Y / X and
    # of the last quotient: 6 ulps
    res = pinney_action(IDENTITY, (x, v), k)
    assert abs(res.x - x) <= np.spacing(abs(x))
    assert abs(res.v - v) <= 6.0 * np.spacing(abs(v))


@PROPERTY
@given(a=_ANGLES, x=_MAP_X, v=_MAP_V, k=_MAP_K)
def test_the_pinney_action_agrees_with_its_former_closed_form(a, x, v, k):
    g = _group_element(a)
    try:
        x_bar, v_abs, x_rel, v_err = _reference_pinney_action(g, x, v, k)
    except DomainError:
        return  # outside the former formula's domain
    res = pinney_action(g, (x, v), k)
    assert abs(res.x - x_bar) <= x_rel * abs(x_bar)
    assert abs(abs(res.v) - v_abs) <= v_err


def test_the_pinney_map_is_certified_by_sympy():
    # the map's own X and Y arithmetic, run on symbols: X and Y are the
    # entries (0, 0) and (0, 1) of Phi S0 Phi^T, and under the oscillator's
    # Phi' = [[0, 1], [-omega^2, 0]] Phi, x = sqrt(X) and v = Y / x solve
    # Milne-Pinney with det S = det S0 det(Phi)^2
    sympy = pytest.importorskip("sympy")
    s00, s01, det, p, q, dp, dq, w2 = sympy.symbols("s00 s01 det p q dp dq omega2",
                                                    real=True)
    big_x, big_y = _pinney_xy(s00, s01, det, p, q, dp, dq)
    s = (sympy.Matrix([[p, q], [dp, dq]])
         * sympy.Matrix([[s00, s01], [s01, (det + s01**2) / s00]])
         * sympy.Matrix([[p, dp], [q, dq]]))
    assert sympy.cancel(big_x - s[0, 0]) == 0
    assert sympy.cancel(big_y - s[0, 1]) == 0

    def d_dt(f):
        return f.diff(p) * dp + f.diff(q) * dq - w2 * (f.diff(dp) * p + f.diff(dq) * q)

    x = sympy.sqrt(big_x)
    v = big_y / x
    det_s = det * (p * dq - q * dp) ** 2
    assert sympy.cancel(d_dt(x) - v) == 0
    assert sympy.cancel((d_dt(v) + w2 * x - det_s / x**3) * x**3) == 0


def test_the_pairs_of_the_pinney_reductions_are_certified_by_sympy():
    # the pair's own rows (_pair_rows), run on symbols: with
    # x1'' = -omega^2 x1 + k / x1^3 and tau' = 1 / x1^2, Milne's pair
    # (kappa = k) solves the oscillator with Wronskian 1, and so does
    # d'Alembert's (kappa = 0) from an oscillator x1 (k = 0)
    sympy = pytest.importorskip("sympy")
    x, v, tau, w2, k = sympy.symbols("x v tau omega2 k", positive=True)

    def d_dt(f, k):
        return f.diff(x) * v + f.diff(v) * (-w2 * x + k / x**3) + f.diff(tau) / x**2

    for kappa in (0, k):
        y, dy, z, dz = _pair_rows(x, v, tau, kappa, sympy)
        for u, du in ((y, dy), (z, dz)):
            assert sympy.simplify(d_dt(u, kappa) - du) == 0
            assert sympy.simplify(d_dt(du, kappa) + w2 * u) == 0
        assert sympy.simplify(y * dz - z * dy - 1) == 0


def test_the_pinney_action_takes_a_stack_of_elements():
    gs = [sl2_exp(Sl2Vector(0.3, -1.0, 0.2), s) for s in (0.0, 0.5, 1.0)]
    xs, vs = np.array([0.5, -1.0, 2.0]), np.array([0.1, 0.0, -0.3])
    res = pinney_action(SL2Matrix(np.array([g.array for g in gs])), (xs, vs), 1.0)
    one_by_one = [pinney_action(g, (x, v), 1.0) for g, x, v in zip(gs, xs, vs)]
    assert_allclose(np.column_stack(res), one_by_one, rtol=0.0, atol=0.0)


def test_a_pinney_action_with_k_below_zero_leaves_through_x_squared():
    # k < 0: X = (x p + v q)^2 + k q^2 / x^2 reaches 0 along the rotation
    g = sl2_exp(Sl2Vector(1.0, -1.0, 0.0), 1.0)  # p = cos 1, q = sin 1
    with pytest.raises(DomainError, match="nonpositive radicand"):
        pinney_action(g, (1.0, -1.0 / math.tan(1.0)), -0.5)


# --- group equation ----------------------------------------------------------

def normalized(sol, t):
    """The solved curve at t scaled to determinant 1, as group-solve scales it."""
    m = sol.dense(t).reshape(np.shape(t) + (2, 2))
    return m / np.sqrt(np.linalg.det(m))[..., None, None]


def test_group_solve_autonomous_equals_exp():
    v = Sl2Vector(0.6, -0.8, 0.3)
    sol = solve_group_equation(lambda t: v, (0.0, 2.0))
    for t in (0.5, 1.0, 2.0):
        assert_allclose(normalized(sol, t), sl2_exp(v, t).array, atol=1e-9)


def test_group_solve_reproduces_oscillator():
    for w in (constant_frequency(1.0), two_plus_sin()):
        sol = solve_group_equation(
            lambda t, w=w: Sl2Vector(w(t), -1.0, 0.0), (0.0, 10.0))
        osc = oscillator_1d(w)
        p0 = np.array([1.0, 0.0])
        ref = osc.integrate(p0, (0.0, 10.0))
        for t in np.linspace(0.0, 10.0, 26):
            assert_allclose(normalized(sol, t) @ p0, ref.dense(t), atol=1e-6)
        assert np.max(np.abs(np.linalg.det(sol.states.reshape(-1, 2, 2)) - 1.0)) < 1e-9


# --- actions -----------------------------------------------------------------

def test_linear_action_rotation():
    g = SL2Matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert_allclose(linear_action(g, (1.0, 0.0)), [0.0, 1.0])


def test_linear_action_reaches_rounding_on_the_rotation():
    # the propagator of x'' = -x, [[cos t, sin t], [-sin t, cos t]], moves
    # (x0, v0) to (x0 cos t + v0 sin t, v0 cos t - x0 sin t): to 4.4e-16 on a
    # stack and one element at a time, so a relative defect of 1e-12 shows
    t = np.linspace(0.0, 10.0, 301)
    g = SL2Matrix([[[math.cos(s), math.sin(s)], [-math.sin(s), math.cos(s)]] for s in t])
    for x0, v0 in [(0.7, -0.4), (1.8, 0.9), (-1.3, 0.2)]:
        want = [[x0 * math.cos(s) + v0 * math.sin(s), v0 * math.cos(s) - x0 * math.sin(s)]
                for s in t]
        assert worst(compare(linear_action(g, (x0, v0)), want, "abs")) < 5e-14
        assert worst(compare([linear_action(SL2Matrix(m), (x0, v0)) for m in g.array],
                             want, "abs")) < 5e-14


def test_pinney_action_identity():
    res = pinney_action(IDENTITY, (2.0, -3.0), 1.0)
    assert res.x == pytest.approx(2.0, abs=1e-12)
    assert res.v == pytest.approx(-3.0, abs=1e-12)


def test_pinney_action_preserves_sign():
    rng = np.random.default_rng(2)
    for _ in range(200):
        g = sl2_exp(Sl2Vector(*rng.uniform(-1, 1, size=3)),
                    rng.uniform(-1.5, 1.5))
        x = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        v = rng.uniform(-2.0, 2.0)
        try:
            res = pinney_action(g, (x, v), 1.0)
        except DomainError:
            continue
        assert math.copysign(1.0, res.x) == math.copysign(1.0, x)


def test_fundamental_fields_match_generators():
    osc = oscillator_1d(constant_frequency(1.0))
    mp = milne_pinney(constant_frequency(1.0), 1.0)
    basis = [Sl2Vector(1, 0, 0), Sl2Vector(0, 1, 0), Sl2Vector(0, 0, 1)]
    rng = np.random.default_rng(3)

    def apply_pinney(g, q):
        r = pinney_action(g, q, 1.0)
        return np.array([r.x, r.v])

    for _ in range(20):
        p = rng.uniform(0.3, 2.0, size=2)  # x > 0, v > 0 chart
        for v, Xi, Li in zip(basis, osc.generators, mp.generators):
            fd = generator_by_finite_difference(linear_action, v, p)
            assert np.max(np.abs(fd - Xi(p))) < 1e-5
            fd = generator_by_finite_difference(apply_pinney, v, p)
            assert np.max(np.abs(fd - Li(p))) < 1e-5


# --- tau ---------------------------------------------------------------------

def test_tau_of_unit_solution():
    x1 = ones_trajectory()
    for t in (0.5, 2.0, 5.0):
        assert tau_reparametrization(x1, t) == pytest.approx(t, abs=1e-10)


def test_tau_of_cosine():
    x1 = cos_trajectory(1.3, 140)
    assert tau_reparametrization(x1, 1.2) == pytest.approx(math.tan(1.2),
                                                           abs=1e-8)


def test_the_tau_clock_and_the_tau_pairs_reach_rounding_on_exact_inputs():
    # x1 = cos t: tau = tan t, and d'Alembert's pair (x1, x1 tau) is
    # (cos t, -sin t, sin t, cos t), both to 8.9e-16 at the nodes and off
    # them; x1 = 1 and k = 2: Milne's pair is the rotation of frequency
    # sqrt 2, exactly.  At about 100x these, a relative defect of 1e-12 in
    # tau's node sums or in a row of the pair shows
    x1, ones = cos_trajectory(), ones_trajectory(1.2, 121)
    r = math.sqrt(2.0)
    for t in (x1.times, np.random.default_rng(3).uniform(0.0, 1.2, size=25)):
        assert worst(compare(x1.tau_clock()(t), [math.tan(s) for s in t], "abs")) < 1e-13
        rows = [[math.cos(s), -math.sin(s), math.sin(s), math.cos(s)] for s in t]
        assert worst(compare(_tau_pair(x1, 0.0).dense(t), rows, "abs")) < 1e-13
        rows = [[math.cos(r * s), -r * math.sin(r * s), math.sin(r * s) / r,
                 math.cos(r * s)] for s in t]
        assert worst(compare(_tau_pair(ones, 2.0).dense(t), rows, "abs")) < 2e-14


def test_tau_strictly_increasing():
    x1 = cos_trajectory()
    taus = tau_grid(x1)
    assert np.all(np.diff(taus) > 0)


def test_tau_rejects_vanishing_solution():
    x1 = cos_trajectory(3.0, 100)
    with pytest.raises(QuadratureError):
        tau_reparametrization(x1, 3.0)  # cos vanishes at pi/2


# --- reductions --------------------------------------------------------------

def test_reduce_oscillator_cos_to_sin():
    # d'Alembert's pair on x1 = cos t gives (sin t, cos t) to rounding, 7.2e-16
    # in (x, v) at these samples read at once or one at a time, so a relative
    # defect of 1e-12 in the combination shows
    red = reduce_oscillator(cos_trajectory(), 0.0, 1.0)
    t = np.linspace(0.0, 1.2, 25)
    want = [[math.sin(s), math.cos(s)] for s in t]
    assert worst(compare(red.dense(t), want, "abs")) < 1e-13
    assert worst(compare([red.dense(s) for s in t], want, "abs")) < 1e-13


def test_reduce_oscillator_k_zero():
    red = reduce_oscillator(cos_trajectory(), 0.7, 0.0)
    for t in (0.2, 0.8):
        assert float(red.position(t)) == pytest.approx(0.7 * math.cos(t),
                                                       abs=1e-10)


def test_reduce_oscillator_vs_integration():
    osc = oscillator_1d(two_plus_sin())
    x1 = osc.integrate([1.0, 0.3], (0.0, 0.9))
    red = reduce_oscillator(x1, 0.4, 0.7)
    ref = osc.integrate(red.states[0], (0.0, 0.9))
    for t in np.linspace(0.0, 0.9, 19):
        assert_allclose(red.dense(t), ref.dense(t), atol=1e-6)


def test_the_pinney_reductions_start_at_the_equilibrium():
    # x1 = 1 and (x0, v0) = (1, 0): both pairs start at (1, 0), (0, 1)
    for reduce in (reduce_pinney_from_oscillator, reduce_pinney_from_pinney):
        red = reduce(ones_trajectory(), 1.0, 0.0, 1.0)
        assert_allclose(red.states[0], (1.0, 0.0), rtol=0.0, atol=1e-12)


def test_reduce_pinney_from_pinney_equilibrium():
    red = reduce_pinney_from_pinney(ones_trajectory(), 1.0, 0.0, 1.0)
    assert np.max(np.abs(red.states[:, 0] - 1.0)) < 1e-8


def test_reduce_pinney_from_pinney_vs_integration():
    mp = milne_pinney(constant_frequency(1.0), 1.0)
    x1 = mp.integrate([1.3, 0.2], (0.0, 5.0))
    for x0, v0 in [(1.0, 0.0), (0.8, 0.5)]:
        red = reduce_pinney_from_pinney(x1, x0, v0, 1.0)
        ref = mp.integrate([x0, v0], (0.0, 5.0))
        errs = [abs(float(red.position(t)) - float(ref.position(t)))
                / max(1.0, abs(float(ref.position(t))))
                for t in np.linspace(0, 5, 101)]
        assert max(errs) < 1e-5


@pytest.mark.parametrize("reduce, x1_state, t1", [
    (reduce_pinney_from_pinney, [1.3, 0.2], 5.0),
    (reduce_pinney_from_oscillator, [1.0, 0.3], 1.2)], ids=["pinney", "oscillator"])
def test_the_pinney_reductions_match_their_oracle_in_x_and_v(reduce, x1_state, t1):
    # the reduce pipeline compares x alone; here v is held to the oracle too
    tol = 1e-12
    osc = oscillator_1d(constant_frequency(1.0))
    mp = milne_pinney(constant_frequency(1.0), 1.0)
    x1 = (mp if reduce is reduce_pinney_from_pinney else osc).integrate(
        x1_state, (0.0, t1), tol, tol)
    t = np.linspace(0.0, t1, 41)
    for x0, v0 in [(0.8, 0.5), (-1.5, 0.4)]:
        ref = mp.integrate([x0, v0], (0.0, t1), tol, tol)
        assert_allclose(reduce(x1, x0, v0, 1.0).dense(t), ref.dense(t),
                        rtol=1e-9, atol=1e-9)


def pinney_of_unit_frequency(t, x0, v0, k):
    """Rows (x, v) of the Milne-Pinney solution of omega^2 = 1 from (x0, v0)
    at t0 = 0: x^2 = A cos^2 t + B sin^2 t + 2 C sin t cos t with A = x0^2,
    B = v0^2 + k / x0^2 and C = x0 v0, and v = (x^2)' / 2x."""
    a, b, c = x0 * x0, v0 * v0 + k / x0 ** 2, x0 * v0
    rows = []
    for s in t:
        cos, sin = math.cos(s), math.sin(s)
        x = math.copysign(math.sqrt(a * cos * cos + b * sin * sin + 2 * c * sin * cos), x0)
        rows.append((x, ((b - a) * sin * cos + c * (cos * cos - sin * sin)) / x))
    return np.array(rows)


# (x1, x0, v0, k, bound on x, bound on v), each bound about 100x the
# rounding error the case measures on x1's nodes and 40 times between them.
# x1 = cos t for the oscillator reduction: at most 6.7e-16 in x and 1.3e-15
# in v.  x1 = k^(1/4), constant, for the Pinney one, where tau = t / sqrt(k):
# 2.2e-16 and 4.4e-16 for k = 1, 5.1e-15 and 9.8e-15 for k = 2, 2.8e-15 and
# 9.6e-15 for k = 0.5.
PINNEY_REDUCTIONS_OFF_THE_EQUILIBRIUM = [
    ("oscillator", 0.7, -0.4, 1.0, 5e-14, 1e-13),
    ("oscillator", 1.8, 0.9, 0.5, 5e-14, 1e-13),
    ("oscillator", -1.3, 0.2, 2.0, 5e-14, 1e-13),
    ("pinney", 0.7, -0.4, 1.0, 2e-14, 5e-14),
    ("pinney", 1.8, 0.9, 2.0, 5e-13, 1e-12),
    ("pinney", -1.3, 0.2, 0.5, 3e-13, 1e-12),
]


@pytest.mark.parametrize("x1_kind, x0, v0, k, bound_x, bound_v",
                         PINNEY_REDUCTIONS_OFF_THE_EQUILIBRIUM)
def test_the_pinney_reductions_reach_rounding_off_the_equilibrium(
        x1_kind, x0, v0, k, bound_x, bound_v):
    if x1_kind == "oscillator":
        x1, reduce = cos_trajectory(), reduce_pinney_from_oscillator
    else:
        x1 = Trajectory.from_function(
            lambda t: np.column_stack([np.full_like(t, k ** 0.25), np.zeros_like(t)]),
            np.linspace(0.0, 5.0, 101))
        reduce = reduce_pinney_from_pinney
    red = reduce(x1, x0, v0, k)
    off_nodes = np.random.default_rng(3).uniform(0.0, x1.times[-1], size=40)
    for t in (x1.times, off_nodes):
        got, want = red.dense(t), pinney_of_unit_frequency(t, x0, v0, k)
        assert worst(compare(got[:, 0], want[:, 0], "abs")) < bound_x
        assert worst(compare(got[:, 1], want[:, 1], "abs")) < bound_v


def test_reduce_pinney_from_pinney_ode_residual():
    mp = milne_pinney(constant_frequency(1.0), 1.0)
    x1 = mp.integrate([1.3, 0.2], (0.0, 5.0))
    red = reduce_pinney_from_pinney(x1, 0.8, 0.5, 1.0)
    h = 1e-3
    for t in np.linspace(0.5, 4.5, 9):
        xm, x0, xp = (float(red.position(t + d)) for d in (-h, 0.0, h))
        second = (xp - 2 * x0 + xm) / h ** 2
        assert abs(second + x0 - 1.0 / x0 ** 3) < 1e-4


def test_reduce_pinney_from_pinney_needs_positive_k():
    with pytest.raises(DomainError):
        reduce_pinney_from_pinney(ones_trajectory(), 1.0, 0.0, -1.0)


def test_reduce_pinney_from_oscillator_equilibrium():
    # x1 = cos t with (x0, v0) = (1, 0): d'Alembert's pair is (cos t, sin t)
    # and x = sqrt(cos^2 t + sin^2 t) = 1
    red = reduce_pinney_from_oscillator(cos_trajectory(), 1.0, 0.0, 1.0)
    assert np.max(np.abs(red.states[:, 0] - 1.0)) < 1e-8


def test_reduce_pinney_from_oscillator_initial_point():
    # at tau = 0 the closed form collapses to (x0, v0)
    osc = oscillator_1d(constant_frequency(1.0))
    x1 = osc.integrate([1.0, 0.3], (0.0, 1.2))
    red = reduce_pinney_from_oscillator(x1, 0.9, -0.2, 1.0)
    assert_allclose(red.states[0], (0.9, -0.2), rtol=0.0, atol=1e-12)


def test_reduce_pinney_from_oscillator_vs_integration():
    osc = oscillator_1d(constant_frequency(1.0))
    mp = milne_pinney(constant_frequency(1.0), 1.0)
    x1 = osc.integrate([1.0, 0.3], (0.0, 1.2))
    for x0, v0 in [(0.9, -0.2), (1.5, 0.4)]:
        red = reduce_pinney_from_oscillator(x1, x0, v0, 1.0)
        ref = mp.integrate([x0, v0], (0.0, 1.2))
        errs = [abs(float(red.position(t)) - float(ref.position(t)))
                / max(1.0, abs(float(ref.position(t))))
                for t in np.linspace(0, 1.2, 49)]
        assert max(errs) < 1e-5
