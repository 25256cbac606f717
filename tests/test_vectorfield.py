import numpy as np
import pytest
from numpy.testing import assert_allclose

from liesys import vectorfield
from liesys import (DimensionMismatchError, UndeterminedRankError, VectorField,
                    StructureConstants, bracket, constant_frequency,
                    diagonal_prolongation, ermakov, milne_pinney, minimal_m,
                    oscillator_1d, prolonged_rank, sl2_constants,
                    verify_algebra)


def osc_fields():
    return oscillator_1d(constant_frequency(1.0)).generators


def pinney_fields(k=1.0):
    return milne_pinney(constant_frequency(1.0), k).generators


# --- bracket -----------------------------------------------------------------

def test_bracket_of_field_with_itself_vanishes():
    X1, X2, X3 = osc_fields()
    rng = np.random.default_rng(3)
    for X in (X1, X2, X3):
        p = rng.uniform(-2, 2, size=2)
        assert_allclose(bracket(X, X, p), 0.0, atol=1e-14)


def test_oscillator_bracket_value():
    # [x dv, v dx] at (1, 2) is x dx - v dv, i.e. (1, -2), twice the third
    # generator there.
    X1, X2, X3 = osc_fields()
    got = bracket(X1, X2, [1.0, 2.0])
    assert_allclose(got, [1.0, -2.0], atol=1e-12)
    assert_allclose(got, 2.0 * X3(np.array([1.0, 2.0])), atol=1e-12)


def test_pinney_bracket_value():
    L1, L2, L3 = pinney_fields()
    got = bracket(L1, L2, [2.0, 0.0])
    assert_allclose(got, [2.0, 0.0], atol=1e-12)
    assert_allclose(got, 2.0 * L3(np.array([2.0, 0.0])), atol=1e-12)


def test_bracket_antisymmetry():
    fields = osc_fields()
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(-2, 2, size=2)
        for X in fields:
            for Y in fields:
                assert_allclose(bracket(X, Y, p), -bracket(Y, X, p),
                                atol=1e-12)


def test_bracket_dimension_mismatch():
    X = VectorField(2, lambda p: p, lambda p: np.eye(2))
    Y = VectorField(3, lambda p: p, lambda p: np.eye(3))
    with pytest.raises(DimensionMismatchError):
        bracket(X, Y, [1.0, 2.0])


def test_jacobi_residual_small():
    c = sl2_constants().c
    for fields in (osc_fields(), pinney_fields()):
        rng = np.random.default_rng(11)

        def nested(a, b, d, q):
            # [[X_a, X_b], X_d] at q, the inner bracket taken as its closure
            # sum_g c_ab^g X_g with that combination's exact Jacobian
            inner = VectorField(
                2, lambda s: sum(c[a, b, g] * fields[g](s) for g in range(3)),
                lambda s: sum(c[a, b, g] * fields[g].jacobian(s) for g in range(3)))
            assert_allclose(inner(q), bracket(fields[a], fields[b], q), atol=1e-12)
            return bracket(inner, fields[d], q)
        for _ in range(10):
            p = rng.uniform(0.2, 2.0, size=2)
            total = nested(0, 1, 2, p) + nested(1, 2, 0, p) + nested(2, 0, 1, p)
            assert np.max(np.abs(total)) < 1e-8


# --- structure constants -----------------------------------------------------

def test_sl2_constants_table():
    C = sl2_constants()
    assert C.r == 3
    assert C.c[0, 1, 2] == 2.0
    assert C.c[0, 2, 0] == -1.0
    assert C.c[1, 2, 1] == 1.0


def test_structure_constants_reject_nonantisymmetric():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the mirrored negative entry
    with pytest.raises(ValueError):
        StructureConstants(2, c)


# --- verify_algebra ----------------------------------------------------------

def probes_for(dim, rng, count=100):
    probes = []
    while len(probes) < count:
        p = rng.uniform(-2, 2, size=dim)
        if np.all(np.abs(p) >= 0.1):
            probes.append(p)
    return probes


def test_verify_algebra_oscillator():
    rng = np.random.default_rng(0)
    report = verify_algebra(osc_fields(), sl2_constants(),
                            probes_for(2, rng), 1e-9)
    assert report.ok
    assert report.worst_residual < 1e-9
    assert list(report.pair_residuals) == [(0, 1), (0, 2), (1, 2)]
    assert max(report.pair_residuals.values()) == report.worst_residual


def test_verify_algebra_wrong_constant_fails():
    # [E1,E2] = E3 instead of 2 E3 still satisfies Jacobi, but it is the
    # wrong algebra for these fields.
    c = sl2_constants().c.copy()
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    wrong = StructureConstants(3, c)
    rng = np.random.default_rng(1)
    report = verify_algebra(osc_fields(), wrong, probes_for(2, rng, 20), 1e-9)
    assert not report.ok
    assert max(report.pair_residuals, key=report.pair_residuals.get) == (0, 1)
    assert max(report.pair_residuals.values()) == report.worst_residual
    assert report.pair_residuals[0, 1] > 1e-3
    assert report.pair_residuals[0, 2] < 1e-9 and report.pair_residuals[1, 2] < 1e-9


def test_verify_algebra_calls_each_generator_once_whatever_the_probe_count(monkeypatch):
    sysd = ermakov(constant_frequency(1.0))
    X = sysd.generators
    calls = []
    call, jacobian = VectorField.__call__, VectorField.jacobian
    monkeypatch.setattr(VectorField, "__call__",
                        lambda self, p: calls.append(("func", self.name)) or call(self, p))
    monkeypatch.setattr(VectorField, "jacobian",
                        lambda self, p: calls.append(("jac", self.name)) or jacobian(self, p))
    for count in (1, 10, 100):
        probes = sysd.sample_domain(np.random.default_rng(0), count)
        # the residuals of the brackets taken one pair and one probe at a time
        want = {(a, b): max(float(np.linalg.norm(
            bracket(X[a], X[b], p) - sum(sysd.constants.c[a, b, g] * X[g](p)
                                         for g in range(3)))) for p in probes)
            for a, b in ((0, 1), (0, 2), (1, 2))}
        calls.clear()
        report = verify_algebra(X, sysd.constants, probes, 1e-9)
        assert sorted(calls) == sorted((kind, Xg.name) for Xg in X
                                       for kind in ("func", "jac"))
        assert report.pair_residuals == want


def test_the_stacked_products_give_each_probe_its_own_bits():
    # verify_algebra's brackets and norms against the per-probe products
    rng = np.random.default_rng(2)
    for n in (2, 4, 6):
        x, y = rng.normal(size=(2, 500, n))
        dx, dy = rng.normal(size=(2, 500, n, n))
        got = vectorfield._bracket(x, dx, y, dy)
        want = np.array([b @ u - a @ v for u, a, v, b in zip(x, dx, y, dy)])
        assert np.array_equal(got, want)
        assert np.array_equal(np.sqrt(vectorfield._dots(got)),
                              [np.linalg.norm(row) for row in want])


def test_a_field_answers_a_block_in_its_shapes():
    def jac(p):  # a point's matrix, or a block's stack of them
        J = np.array([[p[1], p[0]], [np.cos(p[0]), np.zeros_like(p[0])]])
        return J if p.ndim == 1 else J.transpose(2, 0, 1)

    f = VectorField(2, lambda p: np.array([p[0] * p[1], np.sin(p[0])]), jac)
    block = np.random.default_rng(1).uniform(-2, 2, size=(2, 5))
    assert f(block).shape == (2, 5) and f.jacobian(block).shape == (5, 2, 2)
    for k, column in enumerate(block.T):
        assert np.array_equal(f(block)[:, k], f(column))
        assert np.array_equal(f.jacobian(block)[k], f.jacobian(column))
    # a func that ignores the block is named, not broadcast
    with pytest.raises(DimensionMismatchError):
        VectorField(2, lambda p: np.array([1.0, 0.0]), lambda p: np.zeros((2, 2)))(block)


# --- diagonal prolongation ---------------------------------------------------

def test_prolongation_single_copy_is_identity():
    X1 = osc_fields()[0]
    Xp = diagonal_prolongation(X1, 1)
    p = np.array([1.3, -0.4])
    assert_allclose(Xp(p), X1(p), atol=1e-15)


def test_prolongation_acts_blockwise():
    # x dv prolonged to two copies, block layout (x1, v1, x2, v2)
    X1 = osc_fields()[0]
    Xp = diagonal_prolongation(X1, 2)
    assert Xp.dimension == 4
    assert_allclose(Xp(np.array([1.0, 3.0, 0.0, 0.0])), [0.0, 1.0, 0.0, 0.0])
    assert_allclose(Xp(np.array([1.0, 0.0, 3.0, 0.5])), [0.0, 1.0, 0.0, 3.0])


def test_prolongation_on_repeated_point():
    rng = np.random.default_rng(2)
    p = rng.uniform(-2, 2, size=2)
    for X in osc_fields():
        Xp = diagonal_prolongation(X, 3)
        assert_allclose(Xp(np.tile(p, 3)), np.tile(X(p), 3), atol=1e-14)


def test_prolongation_commutes_with_bracket():
    X1, X2, X3 = osc_fields()
    rng = np.random.default_rng(9)
    # [X1, X2] = 2 X3, so 2 X3's Jacobian is the bracket's
    pb = diagonal_prolongation(VectorField(2, lambda p: bracket(X1, X2, p),
                                           lambda p: 2.0 * X3.jacobian(p)), 2)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=4)
        lhs = bracket(diagonal_prolongation(X1, 2),
                      diagonal_prolongation(X2, 2), q)
        assert_allclose(lhs, pb(q), atol=1e-10)


# --- rank test / minimal m ---------------------------------------------------

def test_minimal_m_oscillator_is_two():
    rng = np.random.default_rng(0)
    assert minimal_m(osc_fields(), 4,
                     lambda c, count: rng.uniform(-2, 2, size=(count, 2 * c)).T) == [2, 3]


def test_minimal_m_single_field_is_one():
    f = VectorField(1, lambda p: np.array([1.0 + p[0] ** 2]),
                    lambda p: (2.0 * p).reshape(p.shape[1:] + (1, 1)))
    rng = np.random.default_rng(0)
    assert minimal_m([f], 3, lambda c, count: rng.uniform(-2, 2, size=(count, c)).T) == [1]


def test_pinney_rank_deficient_on_one_copy():
    rng = np.random.default_rng(4)
    fields = pinney_fields()
    for _ in range(5):
        p = rng.uniform(0.3, 2.0, size=2)
        assert prolonged_rank(fields, 1, p) == 2


def test_rank_monotone_in_copies():
    fields = pinney_fields()
    rng = np.random.default_rng(6)
    for _ in range(5):
        p2 = rng.uniform(0.3, 2.0, size=4)
        r1 = prolonged_rank(fields, 1, p2[:2])
        r2 = prolonged_rank(fields, 2, p2)
        assert r2 >= r1


def test_minimal_m_undetermined_raises():
    # two copies of the same field can never span a 2-dim algebra rank
    f = VectorField(1, lambda p: np.ones_like(p),
                    lambda p: np.zeros(p.shape[1:] + (1, 1)))
    with pytest.raises(UndeterminedRankError) as exc:
        minimal_m([f, f], 2, lambda c, count: np.ones((c, count)))
    assert exc.value.ranks == {1: 1, 2: 1}  # the ranks found along the way
