"""Autonomous vector fields on R^n: Lie brackets, prolongations, rank tests."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, UndeterminedRankError
from .integrate import worst


class VectorField:
    """An autonomous vector field on R^n.

    ``func`` maps a point, an array of shape (n,), to its tangent vector of
    the same shape, and an (n, m) block of m points, one per column, to the
    (n, m) block of their vectors.  ``jac`` maps a point to the n x n matrix
    of exact partials d func_i / d x_j, and a block to the (m, n, n) stack
    of the matrices of its points: brackets read it.
    """

    def __init__(self, dimension, func, jac, name=""):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self._func = func
        self._jac = jac
        self.name = name

    def _points(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or len(p) != self.dimension:
            raise DimensionMismatchError(
                f"points of shape {p.shape} on a field of dimension {self.dimension}"
            )
        return p

    def _checked(self, out, shape):
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise DimensionMismatchError(
                f"{self!r} returned shape {out.shape} where {shape} is due")
        return out

    def __call__(self, p):
        p = self._points(p)
        return self._checked(self._func(p), p.shape)

    def jacobian(self, p):
        p = self._points(p)
        return self._checked(self._jac(p), p.shape[1:] + (self.dimension,) * 2)

    def __repr__(self):
        tag = self.name or "field"
        return f"VectorField({tag}, dim={self.dimension})"


def _dots(rows):
    """Each row's dot product with itself: per row the ddot that
    np.linalg.norm squares, so its square root is that norm bit for bit."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _at_rows(X, block):
    """X's values at the columns of ``block`` as (m, n) rows, and its
    Jacobians there: one call of each."""
    return np.ascontiguousarray(X(block).T), X.jacobian(block)


# The largest |residual| of the Jacobi identity that a table of structure
# constants may have
JACOBI_TOL = 1e-14


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
        if np.max(np.abs(jac)) > JACOBI_TOL:
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
    """Lie bracket [X, Y] evaluated at p: (DY . X - DX . Y)(p), at a (n,)
    point or at each column of an (n, m) block."""
    if X.dimension != Y.dimension:
        raise DimensionMismatchError(
            f"bracket of fields with dimensions {X.dimension} and {Y.dimension}"
        )
    p = X._points(p)
    block = p.reshape(len(p), -1)
    out = _bracket(*_at_rows(X, block), *_at_rows(Y, block)).T
    return out if p.ndim == 2 else out[:, 0]


def _bracket(x, dx, y, dy):
    """[X, Y] at m points from the values x, y ((m, n) rows) and the
    Jacobians dx, dy ((m, n, n) stacks) there, as (m, n) rows: stacked
    matrix-vector products, each row with the bits of dy @ x - dx @ y."""
    return np.matmul(dy, x[:, :, None])[:, :, 0] - np.matmul(dx, y[:, :, None])[:, :, 0]


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
    """Check [X_a, X_b](p) = sum_g c_{ab}^g X_g(p) at every probe point.

    ``probes`` holds one point per row, an (m, n) array or a sequence of
    points.  Each generator is evaluated, and differentiated, at all of them
    in one call; each pair's brackets are one stacked product.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.size == 0:
        raise ValueError("probes must be nonempty")
    r = len(fields)
    if constants.r != r:
        raise DimensionMismatchError(
            f"{r} fields against constants of dimension {constants.r}"
        )
    dims = {X.dimension for X in fields}
    if len(dims) != 1:
        raise DimensionMismatchError("fields do not share a dimension")
    if probes.ndim != 2:
        raise DimensionMismatchError(f"probes of shape {probes.shape}, not one per row")

    block = np.ascontiguousarray(probes.T)
    vals, jacs = zip(*(_at_rows(X, block) for X in fields))
    pair_residuals = {}
    for a in range(r):
        for b in range(a + 1, r):
            expected = sum(constants.c[a, b, g] * vals[g] for g in range(r))
            res = np.sqrt(_dots(_bracket(vals[a], jacs[a], vals[b], jacs[b]) - expected))
            pair_residuals[a, b] = worst(res)
    worst_residual = worst(list(pair_residuals.values()))
    return AlgebraReport(ok=worst_residual < tol, worst_residual=worst_residual,
                         pair_residuals=pair_residuals)


def diagonal_prolongation(X, copies):
    """The field on R^(n * copies) acting as X on each n-block; on an
    (n * copies, m) block, X runs once on the (n, copies * m) block of all
    the copies of all the points."""
    if copies < 1:
        raise ValueError("copies must be a positive integer")
    if copies == 1:
        return X
    n = X.dimension

    def spread(p):  # copy c of point k in column c * m + k
        return p.reshape(copies, n, -1).transpose(1, 0, 2).reshape(n, -1)

    def func(p):
        return X(spread(p)).reshape(n, copies, -1).transpose(1, 0, 2).reshape(p.shape)

    def jac(p):
        blocks = X.jacobian(spread(p)).reshape(copies, -1, n, n)
        J = np.zeros((blocks.shape[1], copies * n, copies * n))
        for c in range(copies):
            J[:, c * n:(c + 1) * n, c * n:(c + 1) * n] = blocks[c]
        return J if p.ndim == 2 else J[0]

    return VectorField(n * copies, func, jac, name=f"{X.name}^({copies})" if X.name else "")


RANK_TOL = 1e-8  # singular values above RANK_TOL times the largest count
PROBES_PER_LEVEL = 11  # random probes whose majority rank decides each level


def prolonged_rank(fields, copies, probe):
    """Rank of the diagonally prolonged fields stacked as rows at one probe;
    at each column of an (n * copies, m) block of probes, the array of their
    m ranks, from one call per field and one batched SVD."""
    probe = np.asarray(probe, dtype=float)
    rows = np.stack([diagonal_prolongation(X, copies)(probe) for X in fields])
    if probe.ndim == 2:
        rows = rows.transpose(2, 0, 1)  # one (fields, n * copies) matrix per probe
    sv = np.linalg.svd(rows, compute_uv=False)
    # a zero largest singular value counts none, as no value exceeds it
    ranks = np.sum(sv > RANK_TOL * sv[..., :1], axis=-1)
    return ranks if probe.ndim == 2 else int(ranks)


def minimal_m(fields, max_copies, draw):
    """The majority rank of the prolonged fields at 1, 2, ... copies, up to
    the first count m at which it is full: a list of m ranks.

    ``draw(copies, count)`` returns ``count`` probes of the prolonged space
    as the columns of one block; each level's rank is the majority over
    PROBES_PER_LEVEL probes, which guards against accidentally non-generic
    points.
    """
    r = len(fields)
    ranks = []
    for copies in range(1, max_copies + 1):
        votes = prolonged_rank(fields, copies, draw(copies, PROBES_PER_LEVEL))
        ranks.append(int(np.bincount(votes).argmax()))
        if ranks[-1] == r:
            return ranks
    raise UndeterminedRankError(
        f"no copy count up to {max_copies} reaches rank {r}",
        ranks=dict(enumerate(ranks, 1)))
