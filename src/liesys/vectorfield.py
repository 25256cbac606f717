"""Autonomous vector fields on R^n: Lie brackets, prolongations, rank tests."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, UndeterminedRankError

# Central-difference step for the Jacobian fallback.
_FD_BASE = float(np.cbrt(np.finfo(float).eps))


class VectorField:
    """An autonomous vector field on R^n.

    ``func`` maps a point (array of shape (n,)) to a tangent vector of the
    same shape.  ``jac`` maps a point to the n x n matrix of partials
    d func_i / d x_j; when omitted a central-difference fallback is used.
    """

    def __init__(self, dimension, func, jac=None, name=""):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self._func = func
        self._jac = jac
        self.name = name

    def _point(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"point of shape {p.shape} on a field of dimension {self.dimension}"
            )
        return p

    def __call__(self, p):
        return np.asarray(self._func(self._point(p)), dtype=float)

    def jacobian(self, p):
        p = self._point(p)
        if self._jac is not None:
            return np.asarray(self._jac(p), dtype=float)
        return self._fd_jacobian(p)

    def _fd_jacobian(self, p):
        n = self.dimension
        h = _FD_BASE * max(1.0, float(np.linalg.norm(p)))
        J = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J[:, j] = (self(p + e) - self(p - e)) / (2.0 * h)
        return J

    def __repr__(self):
        tag = self.name or "field"
        return f"VectorField({tag}, dim={self.dimension})"


@dataclass(frozen=True)
class StructureConstants:
    """Table c[alpha, beta, gamma] of structure constants, indices 0-based."""

    r: int
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.r, self.r, self.r):
            raise ValueError(f"expected shape {(self.r,) * 3}, got {c.shape}")
        object.__setattr__(self, "c", c)
        if not np.array_equal(c, -np.swapaxes(c, 0, 1)):
            raise ValueError("structure constants are not antisymmetric")
        # Jacobi identity: sum over cyclic permutations of the lower indices.
        jac = (
            np.einsum("abe,ecd->abcd", c, c)
            + np.einsum("bce,ead->abcd", c, c)
            + np.einsum("cae,ebd->abcd", c, c)
        )
        if np.max(np.abs(jac)) > 1e-14:
            raise ValueError("structure constants violate the Jacobi identity")


def sl2_constants():
    """Structure constants of sl(2,R) in the convention shared by every
    realization here: [E1,E2] = 2 E3, [E1,E3] = -E1, [E2,E3] = E2."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 2.0, -2.0
    c[0, 2, 0], c[2, 0, 0] = -1.0, 1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    return StructureConstants(3, c)


def bracket(X, Y, p):
    """Lie bracket [X, Y] evaluated at p: (DY . X - DX . Y)(p)."""
    if X.dimension != Y.dimension:
        raise DimensionMismatchError(
            f"bracket of fields with dimensions {X.dimension} and {Y.dimension}"
        )
    p = np.asarray(p, dtype=float)
    return _bracket(X(p), X.jacobian(p), Y(p), Y.jacobian(p))


def _bracket(x, dx, y, dy):
    """[X, Y] at a point from the values x, y and Jacobians dx, dy there."""
    return dy @ x - dx @ y


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of a closure check against a table of structure constants.

    Residuals are 2-norms; ``pair_residuals`` maps each generator pair
    (a, b), a < b, to its worst residual over the probes, and the worst of
    them is ``worst_residual``.
    """

    ok: bool  # worst_residual < verify_algebra's tol
    worst_residual: float
    pair_residuals: dict


def verify_algebra(fields, constants, probes, tol):
    """Check [X_a, X_b](p) = sum_g c_{ab}^g X_g(p) at every probe point."""
    if not probes:
        raise ValueError("probes must be nonempty")
    r = len(fields)
    if constants.r != r:
        raise DimensionMismatchError(
            f"{r} fields against constants of dimension {constants.r}"
        )
    dims = {X.dimension for X in fields}
    if len(dims) != 1:
        raise DimensionMismatchError("fields do not share a dimension")

    pair_residuals = {(a, b): 0.0 for a in range(r) for b in range(a + 1, r)}
    for p in probes:
        p = np.asarray(p, dtype=float)
        vals = [X(p) for X in fields]
        jacs = [X.jacobian(p) for X in fields]
        for a, b in pair_residuals:
            expected = sum(constants.c[a, b, g] * vals[g] for g in range(r))
            res = float(np.linalg.norm(
                _bracket(vals[a], jacs[a], vals[b], jacs[b]) - expected))
            pair_residuals[a, b] = max(pair_residuals[a, b], res)
    worst = max(pair_residuals.values(), default=0.0)
    return AlgebraReport(ok=worst < tol, worst_residual=worst,
                         pair_residuals=pair_residuals)


def diagonal_prolongation(X, copies):
    """The field on R^(n * copies) acting as X on each n-block."""
    if copies < 1:
        raise ValueError("copies must be a positive integer")
    if copies == 1:
        return X
    n = X.dimension

    def func(p):
        blocks = p.reshape(copies, n)
        return np.concatenate([X(b) for b in blocks])

    def jac(p):
        blocks = p.reshape(copies, n)
        J = np.zeros((copies * n, copies * n))
        for i, b in enumerate(blocks):
            J[i * n:(i + 1) * n, i * n:(i + 1) * n] = X.jacobian(b)
        return J

    return VectorField(n * copies, func, jac, name=f"{X.name}^({copies})" if X.name else "")


RANK_TOL = 1e-8  # singular values above RANK_TOL times the largest count
PROBES_PER_LEVEL = 11  # random probes whose majority rank decides each level


def prolonged_rank(fields, copies, probe):
    """Rank of the diagonally prolonged fields stacked as rows at one probe."""
    prolonged = [diagonal_prolongation(X, copies) for X in fields]
    sv = np.linalg.svd(np.array([Xp(probe) for Xp in prolonged]), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def minimal_m(fields, max_copies, draw):
    """The majority rank of the prolonged fields at 1, 2, ... copies, up to
    the first count m at which it is full: a list of m ranks.

    ``draw(copies)`` returns one probe of the prolonged space; each level's
    rank is the majority over PROBES_PER_LEVEL probes, which guards against
    accidentally non-generic points.
    """
    r = len(fields)
    ranks = []
    for copies in range(1, max_copies + 1):
        votes = [prolonged_rank(fields, copies, draw(copies))
                 for _ in range(PROBES_PER_LEVEL)]
        ranks.append(int(np.bincount(votes).argmax()))
        if ranks[-1] == r:
            return ranks
    raise UndeterminedRankError(
        f"no copy count up to {max_copies} reaches rank {r}",
        ranks=dict(enumerate(ranks, 1)))
