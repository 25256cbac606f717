import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from liesys import (DimensionMismatchError, LiesysError, ShapeFunctions, SingularityError,
                    constant_frequency, diagonal_prolongation, ermakov,
                    generalized_ermakov, milne_pinney, minimal_m, oscillator_1d,
                    oscillator_2d, pinney_triple, prolonged_rank,
                    quadratic_shapes, step_frequency,
                    sl2_constants, two_plus_sin, verify_algebra, zero_one_shapes)
from liesys.integrate import FLOAT_LANES
from liesys.systems import _COMPLEX_STEP, SHAPE_FUNCTIONS, SYSTEM_FACTORIES, SystemDef
from liesys.vectorfield import PROBES_PER_LEVEL, RANK_TOL

W1 = constant_frequency(1.0)


def linear_g_shapes():
    """f(u) = u^2, g(u) = 1 + u: a pair, for the tests only, whose g' is not
    0, so the g' terms of X2's Jacobian count in the algebra."""
    return ShapeFunctions(
        lambda u: u * u, lambda u: 1.0 + u, "f(u) = u^2, g(u) = 1 + u",
        Q=lambda u: 0.25 * (u**-4 - 1.0) + 0.5 * (u * u - 1.0) + (u - 1.0))


def all_systems(omega=W1):
    return [
        oscillator_1d(omega),
        oscillator_2d(omega),
        milne_pinney(omega, 1.0),
        ermakov(omega),
        generalized_ermakov(omega, quadratic_shapes()),
        pinney_triple(omega, 1.0),
    ]


# --- frozen pointwise values -------------------------------------------------

def test_oscillator_rhs_value():
    sysd = oscillator_1d(W1)
    assert_allclose(sysd.rhs(0.0, [1.0, 0.0]), [0.0, -1.0], atol=1e-15)


def test_oscillator_generators_at_one_one():
    X1, X2, X3 = oscillator_1d(W1).generators
    p = np.array([1.0, 1.0])
    assert_allclose(X1(p), [0.0, 1.0])
    assert_allclose(X2(p), [1.0, 0.0])
    assert_allclose(X3(p), [0.5, -0.5])


def test_oscillator_2d_rhs_value():
    sysd = oscillator_2d(W1)
    assert_allclose(sysd.rhs(0.0, [1.0, 0.0, 0.0, 1.0]), [0.0, -1.0, 1.0, 0.0],
                    atol=1e-15)


def test_oscillator_2d_generators_are_prolongations():
    sys2 = oscillator_2d(W1)
    base = oscillator_1d(W1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(-2, 2, size=4)
        for X2d, X1d in zip(sys2.generators, base.generators):
            assert_allclose(X2d(p), diagonal_prolongation(X1d, 2)(p),
                            atol=1e-14)


def test_pinney_equilibrium_rhs():
    sysd = milne_pinney(W1, 1.0)
    assert_allclose(sysd.rhs(0.0, [1.0, 0.0]), [0.0, 0.0], atol=1e-15)


def test_pinney_k_zero_degenerates_to_oscillator():
    mp0 = milne_pinney(two_plus_sin(), 0.0)
    osc = oscillator_1d(two_plus_sin())
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.uniform(-2, 2, size=2)
        t = rng.uniform(0, 5)
        assert_allclose(mp0.rhs(t, p), osc.rhs(t, p), atol=1e-15)
    # with no force, x = 0 is regular: a solve through it is the oscillator's
    a, b = (s.integrate([0.0, 1.0], (0.0, 3.0)) for s in (mp0, osc))
    assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)


def test_ermakov_rhs_value():
    sysd = ermakov(W1)
    # y-block acceleration: -1 + 1/1^3 = 0
    assert_allclose(sysd.rhs(0.0, [0.0, 1.0, 1.0, 0.0]), [1.0, 0.0, 0.0, 0.0],
                    atol=1e-15)


def test_generalized_ermakov_fixed_point():
    sysd = generalized_ermakov(W1, quadratic_shapes())
    assert_allclose(sysd.rhs(0.0, [1.0, 0.0, 1.0, 0.0]), np.zeros(4),
                    atol=1e-15)


def test_pinney_triple_rhs_value():
    sysd = pinney_triple(W1, 1.0)
    got = sysd.rhs(0.0, [1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    assert_allclose(got, [0.0, 0.0, 1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_pinney_triple_generator_rank_three():
    sysd = pinney_triple(W1, 1.0)
    rng = np.random.default_rng(2)
    for p in sysd.sample_domain(rng, 5):
        assert prolonged_rank(sysd.generators, 1, p) == 3


# --- algebra closure and rhs assembly ----------------------------------------

def test_every_factory_closes_the_algebra():
    rng = np.random.default_rng(0)
    for sysd in all_systems() + [generalized_ermakov(W1, linear_g_shapes())]:
        probes = sysd.sample_domain(rng, 100)
        report = verify_algebra(sysd.generators, sysd.constants, probes, 1e-9)
        assert report.ok, f"{sysd.name}: {report}"


def test_every_factory_is_certified_by_sympy():
    # each factory's own closures, run on symbols with a symbolic k and
    # undefined shapes f and g (whose Q is the integral itself): X2 is
    # rows(0, p), X1 the w-derivative of rows(w, p) (the rhs assembly test
    # holds rows(w, p) = w X1 + X2) and X3 the generator's function, read
    # past VectorField's float coercion.  Every bracket equals its
    # sl2_constants() combination, and X1, X2 and X3 annihilate every
    # registered invariant, exactly.
    sympy = pytest.importorskip("sympy")
    k, w, z = sympy.symbols("k w z")
    f, g = sympy.Function("f"), sympy.Function("g")
    undefined = ShapeFunctions(f, g, "f, g", Q=lambda u: sympy.Integral(
        -z**-3 * f(1 / z) + z * g(1 / z), (z, 1, u)))
    systems = [oscillator_1d(W1), oscillator_2d(W1), milne_pinney(W1, k), ermakov(W1),
               generalized_ermakov(W1, undefined), pinney_triple(W1, k)]
    systems += [generalized_ermakov(W1, shapes()) for shapes in SHAPE_FUNCTIONS.values()]
    assert {sysd.name for sysd in systems} == set(SYSTEM_FACTORIES)
    c = sl2_constants().c
    for sysd in systems:
        p = np.array(sympy.symbols(f"p0:{sysd.dimension}"), dtype=object)
        zero = sympy.zeros(len(p), 1)
        field = sympy.Matrix(list(sysd.rows(w, p)))
        xs = [field.diff(w), field.subs(w, 0),
              sympy.Matrix(list(sysd.generators[2]._func(p)))]
        jacobians = [x.jacobian(p) for x in xs]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            residual = (jacobians[b] * xs[a] - jacobians[a] * xs[b]
                        - sum((c[a, b, i] * xs[i] for i in range(3)), zero))
            assert residual.applyfunc(sympy.expand) == zero, (sysd.name, a, b)
        for name, invariant in sysd.invariants.items():
            gradient = sympy.Matrix([invariant(p)]).jacobian(p)
            for x in xs:
                assert sympy.expand((gradient * x)[0]) == 0, (sysd.name, name)


def assembled_rhs(sysd, t, p):
    """sum_a b_a(t) X_a(p) summed from the generators: the reference that
    every factory's field at w = b_1(t) must reproduce bit for bit."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(sysd.dimension)
    for b, X in zip(sysd.coefficients, sysd.generators):
        ba = float(b(t))
        if ba != 0.0:
            out += ba * X(p)
    return out


def test_rhs_assembly_identity():
    rng = np.random.default_rng(3)
    for profile in (constant_frequency(1.0), two_plus_sin(), step_frequency()):
        systems = all_systems(profile) + [generalized_ermakov(profile, zero_one_shapes())]
        for sysd in systems:
            for p in sysd.sample_domain(rng, 200):
                t = rng.uniform(0, 10)
                assert np.array_equal(sysd.rhs(t, p), assembled_rhs(sysd, t, p)), \
                    (sysd.name, profile.description, t, p)


def test_rhs_rejects_a_point_of_the_wrong_dimension():
    for sysd in all_systems():
        with pytest.raises(DimensionMismatchError):
            sysd.rhs(0.0, np.ones(sysd.dimension + 1))
    # a list that is no solve's float form is a point too
    with pytest.raises(DimensionMismatchError):
        oscillator_1d(W1).rhs(0.0, [1.0, 0.0, 2.0])


def test_a_callers_list_or_tuple_is_a_point():
    # only the solver's declared lane count selects the float form: any
    # other point, ints included, gives the array's float values
    for sysd in all_systems() + [milne_pinney(W1, 0.0), pinney_triple(W1, 0.0)]:
        point = [1 + i for i in range(sysd.dimension)]
        want = sysd.rhs(0.0, np.array(point, dtype=float))
        for p in (point, [float(x) for x in point], tuple(point)):
            got = sysd.rhs(0.0, p)
            assert got.__class__ is np.ndarray and got.dtype == float
            assert got.tobytes() == want.tobytes(), (sysd.name, p)
    osc = oscillator_1d(W1)
    want = osc.rhs(0.0, np.array([1.0, 0.0]))
    for p in ([1, 0], [1.0, 0.0], (1, 0)):
        assert osc.rhs(0.0, p).tobytes() == want.tobytes()


def test_the_field_guards_like_the_generators():
    for sysd in all_systems():
        for i in sysd.singular_coords:
            p = np.ones(sysd.dimension)
            p[i] = 0.0
            with pytest.raises(SingularityError):
                assembled_rhs(sysd, 0.5, p)
            with pytest.raises(SingularityError):
                sysd.rhs(0.5, p)


def test_ermakov_matches_generalized_zero_one():
    erma = ermakov(two_plus_sin())
    gen = generalized_ermakov(two_plus_sin(), zero_one_shapes())
    rng = np.random.default_rng(4)
    for p in gen.sample_domain(rng, 20):
        t = rng.uniform(0, 10)
        assert np.max(np.abs(erma.rhs(t, p) - gen.rhs(t, p))) < 1e-14


# --- domain handling ---------------------------------------------------------

def test_singularity_errors_at_zero():
    with pytest.raises(SingularityError):
        milne_pinney(W1, 1.0).rhs(0.0, [0.0, 1.0])
    with pytest.raises(SingularityError):
        ermakov(W1).rhs(0.0, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(SingularityError):
        generalized_ermakov(W1, quadratic_shapes()).rhs(0.0, [0.0, 0.0, 1.0, 0.0])


# --- the block paths against their per-probe loops ---------------------------
# verify_algebra, prolonged_rank, minimal_m and sample_domain read all their
# probes at once; the loops below take one probe at a time, as they did before,
# and the block paths must give the same bits.

ALGEBRA_CASES = {
    "oscillator_1d": oscillator_1d(W1),
    "oscillator_2d": oscillator_2d(W1),
    "ermakov": ermakov(W1),
    **{f"milne_pinney-k{k}": milne_pinney(W1, float(k)) for k in (0, 1)},
    **{f"pinney_triple-k{k}": pinney_triple(W1, float(k)) for k in (0, 1)},
    **{f"generalized_ermakov-{name}": generalized_ermakov(W1, shapes())
       for name, shapes in SHAPE_FUNCTIONS.items()},
}


def per_probe_residuals(sysd, probes):
    """verify_algebra's pair residuals, one probe at a time, with X2's
    Jacobian read off the complex block of that probe alone."""
    X, c = sysd.generators, sysd.constants.c
    steps = 1j * _COMPLEX_STEP * np.eye(sysd.dimension)
    out = {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0}
    for p in probes:
        vals = [Xg(p) for Xg in X]
        jacs = [X[0].jacobian(p),
                np.array(sysd.rows(0.0, p[:, None] + steps)).imag / _COMPLEX_STEP,
                X[2].jacobian(p)]
        for a, b in out:
            expected = sum(c[a, b, g] * vals[g] for g in range(3))
            res = float(np.linalg.norm(jacs[b] @ vals[a] - jacs[a] @ vals[b] - expected))
            out[a, b] = max(out[a, b], res)
    return out


def per_probe_rank(fields, copies, probe):
    """prolonged_rank at one probe: each field on each copy, one SVD."""
    n = fields[0].dimension
    rows = [np.concatenate([X(b) for b in probe.reshape(copies, n)]) for X in fields]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return 0 if sv[0] == 0.0 else int(np.sum(sv > RANK_TOL * sv[0]))


def per_probe_sample(sysd, rng, count, low=-2.0, high=2.0, guard=0.1, half_plane=1):
    """sample_domain drawing one probe at a time until count are kept."""
    probes = []
    while len(probes) < count:
        p = rng.uniform(low, high, size=sysd.dimension)
        if np.any(np.abs(p) < guard):
            continue
        for i in sysd.singular_coords:
            p[i] = half_plane * abs(p[i])
        probes.append(p)
    return probes


@pytest.mark.parametrize("case", ALGEBRA_CASES)
def test_verify_algebra_gives_the_per_probe_residuals_bit_for_bit(case):
    sysd = ALGEBRA_CASES[case]
    for seed in range(3):
        probes = sysd.sample_domain(np.random.default_rng(seed), 200)
        report = verify_algebra(sysd.generators, sysd.constants, probes, 1e-9)
        assert report.pair_residuals == per_probe_residuals(sysd, probes), seed


@pytest.mark.parametrize("case", ALGEBRA_CASES)
def test_the_ranks_of_a_block_are_the_per_probe_ranks(case):
    sysd = ALGEBRA_CASES[case]
    fields, n = sysd.generators, sysd.dimension
    rng = np.random.default_rng(4)
    for copies in (1, 2, 3):
        block = rng.uniform(-2, 2, size=(n * copies, 40))
        block[:, :5] = np.tile(block[:n, :5], (copies, 1))  # copies of one point
        want = [per_probe_rank(fields, copies, column) for column in block.T]
        assert prolonged_rank(fields, copies, block).tolist() == want
        assert [prolonged_rank(fields, copies, column) for column in block.T] == want
    for seed in range(5):
        # the minimal-m pipeline's draw, and minimal_m one probe at a time
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ranks = minimal_m(fields, 4, lambda copies, count: sysd.sample_domain(
            rng, copies * count).reshape(count, -1).T)
        want = []
        for copies in range(1, 5):
            votes = [per_probe_rank(fields, copies,
                                    np.concatenate(per_probe_sample(sysd, ref_rng, copies)))
                     for _ in range(PROBES_PER_LEVEL)]
            want.append(int(np.bincount(votes).argmax()))
            if want[-1] == 3:
                break
        assert ranks == want, seed
        assert rng.uniform() == ref_rng.uniform()


@pytest.mark.parametrize("case", ALGEBRA_CASES)
def test_sample_domain_draws_the_per_probe_stream(case):
    # a guard of 1 rejects half of each coordinate's draws, so most batches
    # keep only some of their probes
    sysd = ALGEBRA_CASES[case]
    for seed, half_plane, guard in ((0, 1, 0.1), (1, -1, 1.0), (2, 1, 1.0)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        probes = sysd.sample_domain(rng, 60, guard=guard, half_plane=half_plane)
        want = per_probe_sample(sysd, ref_rng, 60, guard=guard, half_plane=half_plane)
        assert probes.shape == (60, sysd.dimension)
        assert np.array_equal(probes, want)
        assert np.array_equal(np.signbit(probes), np.signbit(want))
        assert rng.uniform() == ref_rng.uniform()


def test_half_plane_sampling():
    rng = np.random.default_rng(5)
    sysd = milne_pinney(W1, 1.0)
    for p in sysd.sample_domain(rng, 10, half_plane=-1):
        assert p[0] < 0
    for p in sysd.sample_domain(rng, 10):
        assert p[0] > 0


# Each system with one force k / x^3 (k = 1 in ermakov's y), its positions
# and its velocities.
PINNEY_FORCE_CASES = {
    "milne_pinney": (milne_pinney(W1, 1.7), (0,), (1,)),
    "pinney_triple": (pinney_triple(W1, 1.7), (0, 1, 2), (3, 4, 5)),
    "ermakov": (ermakov(W1), (0, 2), (1, 3)),
}


@pytest.mark.parametrize("case", PINNEY_FORCE_CASES)
def test_x2_jacobian_is_the_closed_force_derivative_to_rounding(case):
    # dF/dx = -3k / x^4, and X2's other partials are exactly 0 and 1
    sysd, positions, velocities = PINNEY_FORCE_CASES[case]
    i = sysd.singular_coords[0]
    k = sysd.params.get("k", 1.0)
    rng = np.random.default_rng(8)
    for p in sysd.sample_domain(rng, 50):
        want = np.zeros((sysd.dimension, sysd.dimension))
        want[positions, velocities] = 1.0
        want[velocities[positions.index(i)], i] = -3.0 * k / p[i]**4
        assert_allclose(sysd.generators[1].jacobian(p), want, rtol=2e-15, atol=0,
                        err_msg=f"{sysd.name} at {p}")


# Every factory's system, generalized_ermakov with each registered shape pair
# and with the test pair whose g' is not 0.
JACOBIAN_CASES = {
    **{sysd.name: sysd for sysd in all_systems() if "shapes" not in sysd.params},
    **{f"generalized_ermakov-{name}": generalized_ermakov(W1, shapes())
       for name, shapes in {**SHAPE_FUNCTIONS, "linear_g": linear_g_shapes}.items()},
}


@pytest.mark.parametrize("case", JACOBIAN_CASES)
def test_generator_jacobians_match_central_differences(case):
    # every bracket of the algebra checks reads these Jacobians
    assert {s.name for s in JACOBIAN_CASES.values()} == set(SYSTEM_FACTORIES)
    sysd = JACOBIAN_CASES[case]
    rng = np.random.default_rng(6)
    h = 1e-6
    for p in sysd.sample_domain(rng, 20):
        for X in sysd.generators:
            central = np.column_stack([(X(p + e) - X(p - e)) / (2.0 * h)
                                       for e in h * np.eye(sysd.dimension)])
            assert_allclose(X.jacobian(p), central, rtol=1e-6, atol=1e-6,
                            err_msg=f"{case} {X.name} at {p}")


# --- the solver's float form against the block -------------------------------
# A solve of at most FLOAT_LANES lanes hands SystemDef.rhs its stages as a list
# of Python floats, stacked component-major, with the lane count; the list it
# returns must hold the block's values bit for bit, NaNs and signs included, or
# it must raise as the block does.

FLOAT_FORM_CASES = {
    "oscillator_1d": oscillator_1d(two_plus_sin()),
    "oscillator_2d": oscillator_2d(two_plus_sin()),
    "ermakov": ermakov(two_plus_sin()),
    **{f"milne_pinney-k{k}": milne_pinney(two_plus_sin(), float(k)) for k in (0, 1)},
    **{f"pinney_triple-k{k}": pinney_triple(two_plus_sin(), float(k)) for k in (0, 1)},
    **{f"generalized_ermakov-{name}": generalized_ermakov(two_plus_sin(), shapes())
       for name, shapes in SHAPE_FUNCTIONS.items()},
}
# finite values, and the edges where floats and numpy part: overflow to inf,
# x^3 underflowing to 0 (1e-110), 0 itself, inf and NaN
STATE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-110, 1e300, -1e300, 1e-300, -1e-300,
                     math.inf, -math.inf, math.nan]))


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # the block's own error, to be raised alike
        return None, (type(exc), str(exc))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(FLOAT_FORM_CASES)), st.integers(1, FLOAT_LANES),
       st.floats(0.0, 10.0), st.data())
def test_the_float_form_is_the_block_bit_for_bit(case, lanes, t, data):
    assert {s.name for s in FLOAT_FORM_CASES.values()} == set(SYSTEM_FACTORIES)
    sysd = FLOAT_FORM_CASES[case]
    d = sysd.dimension
    stacked = data.draw(st.lists(STATE_VALUES, min_size=d * lanes, max_size=d * lanes))
    block = np.array(stacked) if lanes == 1 else np.reshape(stacked, (d, lanes))
    with np.errstate(all="ignore"):
        want, want_error = _outcome(lambda: sysd.rhs(t, block))
        got, got_error = _outcome(lambda: sysd.rhs(t, list(stacked), lanes))
    assert got_error == want_error
    if want_error is None:
        assert got.__class__ is list and all(x.__class__ is float for x in got)
        got, want = np.array(got), want.reshape(-1)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# --- every factory's solve ends in a documented way --------------------------
# Under MAX_STEPS = 20 a solve makes at most 2 + 12 * 20 * (attempts per step)
# rhs calls, and from a step of at most 1 down to the float spacing at t = 1
# a step takes at most 23 attempts: so RHS_CAP calls mean a solve that never
# stops.

SHORT_MAX_STEPS = 20
RHS_CAP = 10_000
FINITE_STATE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-110, 1e300, -1e300, 1e-300, -1e-300]))


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(SYSTEM_FACTORIES)), st.sampled_from(sorted(SHAPE_FUNCTIONS)),
       STATE_VALUES, STATE_VALUES, st.integers(1, FLOAT_LANES + 1),
       st.sampled_from([(1.0, 2.0), (2.0, 1.0)]), st.data())
def test_every_factorys_solve_ends_in_a_documented_way(monkeypatch, name, shapes,
                                                      omega_squared, k, lanes, t_span,
                                                      data):
    # on floats (up to FLOAT_LANES lanes) and on blocks: finite rows, or
    # ValueError (a non-finite state), or a LiesysError with the last good
    # time; a hang fails on the call count
    factory = SYSTEM_FACTORIES[name]
    takes = inspect.signature(factory).parameters
    params = {"k": k} if "k" in takes else {}
    if "shapes" in takes:
        params["shapes"] = SHAPE_FUNCTIONS[shapes]()
    sysd = factory(constant_frequency(omega_squared), **params)
    # finite states, one entry of which is set to inf, -inf or NaN in about
    # half of the draws
    states = data.draw(st.lists(st.lists(FINITE_STATE_VALUES, min_size=sysd.dimension,
                                         max_size=sysd.dimension),
                                min_size=lanes, max_size=lanes))
    non_finite = data.draw(st.one_of(st.none(),
                                     st.sampled_from([math.inf, -math.inf, math.nan])))
    if non_finite is not None:
        states[data.draw(st.integers(0, lanes - 1))][
            data.draw(st.integers(0, sysd.dimension - 1))] = non_finite
    calls, rhs = [0], SystemDef.rhs

    def counted(self, t, p, lanes=0):
        calls[0] += 1
        assert calls[0] <= RHS_CAP, "the solve does not stop"
        return rhs(self, t, p, lanes)
    with monkeypatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(importlib.import_module("liesys.integrate"), "MAX_STEPS",
                      SHORT_MAX_STEPS)
        patch.setattr(SystemDef, "rhs", counted)
        try:
            solved = sysd.integrate_lanes(states, t_span)
        except (ValueError, LiesysError):
            return
    for lane in solved:
        assert np.isfinite(lane.states).all(), (name, states)
