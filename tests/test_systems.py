import numpy as np
import pytest
from numpy.testing import assert_allclose

from liesys import (DimensionMismatchError, SingularityError,
                    constant_frequency, diagonal_prolongation, ermakov,
                    generalized_ermakov, milne_pinney, oscillator_1d,
                    oscillator_2d, pinney_triple, prolonged_rank,
                    quadratic_shapes, sl2_constants, step_frequency,
                    two_plus_sin, verify_algebra, zero_one_shapes)

W1 = constant_frequency(1.0)


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
    for sysd in all_systems():
        probes = sysd.sample_domain(rng, 100)
        report = verify_algebra(sysd.generators, sysd.constants, probes, 1e-9)
        assert report.ok, f"{sysd.name}: {report}"


def assembled_rhs(sysd, t, p):
    """sum_a b_a(t) X_a(p) summed from the generators: the reference every
    fused field must reproduce bit for bit."""
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


def test_fused_field_guards_like_the_generators():
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


def test_half_plane_sampling():
    rng = np.random.default_rng(5)
    neg = milne_pinney(W1, 1.0, half_plane=-1)
    for p in neg.sample_domain(rng, 10):
        assert p[0] < 0
    pos = milne_pinney(W1, 1.0)
    for p in pos.sample_domain(rng, 10):
        assert p[0] > 0


def test_shape_function_derivative_fallback():
    from liesys import ShapeFunctions
    shapes = ShapeFunctions(lambda u: u ** 3, lambda u: np.cos(u))
    assert shapes.f_prime(1.2) == pytest.approx(3 * 1.2 ** 2, abs=1e-7)
    assert shapes.g_prime(0.7) == pytest.approx(-np.sin(0.7), abs=1e-7)
