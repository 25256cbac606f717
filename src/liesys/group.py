"""SL(2,R) machinery: algebra/group types, exponential, the Lie equation on
the group, the linear and Pinney actions, tau-reparametrization and the
reduction-by-particular-solution procedures.  All three reductions read one
oscillator pair of Wronskian 1 that x1 and tau give (_tau_pair): d'Alembert's
combines it, the Pinney ones hand it to Pinney's rule."""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError
from .integrate import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, Trajectory, integrate
from .integrate import quadrature  # noqa: F401  bound for perfbench/tracer.py

# Basis of the traceless 2x2 real matrices used throughout.
A1 = np.array([[0.0, 0.0], [-1.0, 0.0]])
A2 = np.array([[0.0, -1.0], [0.0, 0.0]])
A3 = 0.5 * np.array([[-1.0, 0.0], [0.0, 1.0]])

# Below this |det| the exponential routes to the parabolic branch; the Taylor
# expansions of the elliptic/hyperbolic branches agree across the threshold.
_PARABOLIC_DET = 1e-12


class Sl2Vector(NamedTuple):
    """An algebra element by its coordinates in the basis (A1, A2, A3)."""

    c1: float
    c2: float
    c3: float

    @property
    def matrix(self):
        return self.c1 * A1 + self.c2 * A2 + self.c3 * A3


class SL2Matrix:
    """A group element, or a stack of them in an array of shape (..., 2, 2);
    each determinant must be 1 within 1e-6 on construction, which a NaN
    determinant is not."""

    def __init__(self, array):
        a = np.asarray(array, dtype=float)
        if a.shape[-2:] != (2, 2):
            raise ValueError("expected a 2x2 matrix or a stack of them")
        e = a.reshape(-1, 4).T
        with np.errstate(all="ignore"):  # inf * 0 is a NaN determinant, rejected below
            d = e[0] * e[3] - e[1] * e[2]  # closed form: this value feeds only the check
        bad = ~(np.abs(d - 1.0) <= 1e-6)
        if bad.any():
            raise ValueError(f"determinant {d[bad.argmax()]:.9g} too far from 1")
        self.array = a

    def __matmul__(self, other):
        return SL2Matrix(self.array @ other.array)

    def __repr__(self):
        return f"SL2Matrix({self.array.tolist()})"


_EYE = np.eye(2)
_EYE.flags.writeable = False
IDENTITY = SL2Matrix(_EYE)


def sl2_exp(v: Sl2Vector, s) -> SL2Matrix:
    """Exact exponential of s * v via the trace/determinant classification;
    for an array of s, the stack of exponentials, one per entry.

    For traceless M with d = det M: M^2 = -d I, so the exponential is
    elliptic (d > 0), hyperbolic (d < 0) or parabolic (d ~ 0), and
    d = -c3^2 / 4 - c1 c2 in closed form.
    """
    m = v.matrix
    d = -0.25 * v.c3 * v.c3 - v.c1 * v.c2
    lib = np if np.ndim(s) else math  # a scalar s keeps math's bits
    s = np.asarray(s, dtype=float)[..., None, None] if lib is np else s
    if abs(d) < _PARABOLIC_DET:
        return SL2Matrix(_EYE + s * m)
    if d > 0.0:
        w = math.sqrt(d)
        return SL2Matrix(lib.cos(w * s) * _EYE + (lib.sin(w * s) / w) * m)
    w = math.sqrt(-d)
    return SL2Matrix(lib.cosh(w * s) * _EYE + (lib.sinh(w * s) / w) * m)


def _sl2_matrix(c1, c2, c3):
    """Sl2Vector(c1, c2, c3).matrix from float coordinates: each entry is
    summed as c1 * A1 + c2 * A2 + c3 * A3 sums it, so its bits, signed zeros
    included, are the same.  One flat array, reshaped, is cheaper than a
    nested one."""
    return np.array((c1 * 0.0 + c2 * 0.0 + c3 * -0.5, c1 * 0.0 + c2 * -1.0 + c3 * 0.0,
                     c1 * -1.0 + c2 * 0.0 + c3 * 0.0, c1 * 0.0 + c2 * 0.0 + c3 * 0.5)
                    ).reshape(2, 2)


def solve_group_equation(a, t_span, abs_tol=DEFAULT_ABS_TOL,
                         rel_tol=DEFAULT_REL_TOL) -> Trajectory:
    """Integrate g' g^-1 = a(t) as the matrix equation g' = a(t) g from I:
    the Trajectory of g, one flattened 2x2 matrix per row.

    ``a`` maps a time to an Sl2Vector.  The dense output also calls it on an
    array of times, one per column of a block of flattened matrices; the
    coordinates of its result are then floats or arrays of that shape."""

    def rhs(t, y):
        v = a(t)
        if y.ndim == 1:
            return np.dot(_sl2_matrix(*v), y.reshape(2, 2)).ravel()
        # one matrix a(t) per column, and one stacked product for the block
        m = (np.multiply.outer(v.c1, A1) + np.multiply.outer(v.c2, A2)
             + np.multiply.outer(v.c3, A3))
        return np.matmul(m, y.T.reshape(-1, 2, 2)).reshape(-1, 4).T

    return integrate(rhs, np.eye(2).ravel(), t_span, abs_tol, rel_tol)


def linear_action(g: SL2Matrix, p):
    """Matrix-vector product on the (x, v) phase plane."""
    return g.array @ np.asarray(p, dtype=float)


class PinneyActionResult(NamedTuple):
    """The image (x, v), with x in the half-plane of the point acted on."""

    x: float
    v: float


def _pinney_xy(s00, s01, det, p, q, dp, dq):
    """X and Y, the entries (0, 0) and (0, 1) of Phi S0 Phi^T, for the
    symmetric S0 with first row (s00, s01) and determinant det and the
    propagator Phi with rows (p, q) and (dp, dq).  Written as sums of
    squares over s00, nothing cancels: X > 0 wherever S0 is positive
    definite."""
    a = s00 * p + s01 * q
    return ((a * a + det * q * q) / s00,
            (a * (s00 * dp + s01 * dq) + det * q * dq) / s00)


def _pinney_map(s00, s01, det, p, q, dp, dq, sign):
    """The Pinney state (x, v) = (sign sqrt(X), Y / x) of S = Phi S0 Phi^T,
    on scalars or arrays (see _pinney_xy).

    S = [[x^2, x v], [x v, v^2 + k / x^2]] moves as S -> Phi S Phi^T under
    the oscillator's propagator Phi, and det S = k det(Phi)^2 (E. Pinney,
    Proc. AMS 1, 681, 1950).  Raises DomainError where X <= 0 or a value
    leaves the floating-point range; its ``value`` marks those entries.
    """
    with np.errstate(all="ignore"):
        xx, yy = _pinney_xy(np.float64(s00), s01, det, p, q, dp, dq)
        x = sign * np.sqrt(xx)
        v = yy / x
        bad = ~(np.isfinite(x) & np.isfinite(v))  # X <= 0 gives nan or inf
    if bad.any():
        worst = np.min(xx)
        raise DomainError("the Pinney map leaves its domain: " + (
            f"nonpositive radicand X = {worst:.6g}" if worst <= 0.0
            else "a value out of floating-point range"), bad)
    return x, v


def pinney_action(g: SL2Matrix, p, k: float) -> PinneyActionResult:
    """The SL(2,R) action on the Pinney phase plane (x != 0): g moves
    S = [[x^2, x v], [x v, v^2 + k / x^2]] to g S g^T, and x stays in its
    half-plane.  ``g`` may hold a stack of elements and p = (x, v) arrays,
    one image per entry.

    Raises DomainError where the image leaves the domain: X <= 0, which
    needs k <= 0, or a value out of floating-point range, which is how a
    point very near x = 0 shows.
    """
    x, v = p[0], p[1]
    if np.any(np.equal(x, 0.0)):
        raise SingularityError("Pinney action undefined at x = 0")
    phi = g.array
    return PinneyActionResult(*_pinney_map(
        x * x, x * v, k, phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 0],
        phi[..., 1, 1], np.copysign(1.0, x)))


def generator_by_finite_difference(apply_fn, v: Sl2Vector, p):
    """Fundamental vector field of an action at p, by central differences.

    Uses the left-action convention X_v(p) = d/ds Phi(exp(-s v), p) at s = 0,
    which is the one under which the built-in systems' generators and the
    group curve a(t) are mutually consistent.
    """
    step = 1e-5
    plus = np.asarray(apply_fn(sl2_exp(v, -step), p), dtype=float)
    minus = np.asarray(apply_fn(sl2_exp(v, step), p), dtype=float)
    return (plus - minus) / (2.0 * step)


def tau_reparametrization(x1: Trajectory, t):
    """tau(t) = integral_{t0}^{t} dz / x1(z)^2, read off x1's tau clock."""
    return x1.tau_clock()(t)


def tau_grid(x1: Trajectory):
    """Cumulative tau at every sample time of the trajectory."""
    return x1.tau_clock()(x1.times)


def _pair_rows(pos, vel, tau, kappa, lib=np):
    """Rows (y, y', z, z') of (x1 c(tau), x1 s(tau)) from x1's (pos, vel) and
    tau, for the basis c, s of f'' = -kappa f from (1, 0) and (0, 1): x1 f has
    derivative x1' f + f_tau / x1, as tau' = 1 / x1^2.  ``lib`` gives cos, sin
    and sqrt, so sympy runs it too."""
    if kappa == 0:
        c, dc, s, ds = 1.0, 0.0, tau, 1.0
    else:
        rk = lib.sqrt(kappa)
        c, sn = lib.cos(rk * tau), lib.sin(rk * tau)
        dc, s, ds = -rk * sn, sn / rk, c
    return pos * c, vel * c + dc / pos, pos * s, vel * s + ds / pos


def _tau_pair(x1: Trajectory, kappa) -> Trajectory:
    """Oscillator pair of _pair_rows on x1's grid, of Wronskian 1: d'Alembert's
    (x1, x1 tau) for kappa = 0, Milne's (W. E. Milne, Phys. Rev. 35, 863, 1930) for
    kappa = k and a Milne-Pinney x1 of that k.  Reads x1 and tau once per evaluation."""
    clock = x1.tau_clock()

    def evaluate(t):
        rows = x1.dense(t)
        return np.column_stack(_pair_rows(rows[:, 0], rows[:, 1], clock(t), kappa))

    return Trajectory.from_function(evaluate, x1.times)


def reduce_oscillator(x1: Trajectory, k_prime, k) -> Trajectory:
    """General oscillator solution from one nonvanishing solution by the
    order-reduction quadrature: x = k' x1 + k x1 tau, the (k', k)
    combination of d'Alembert's pair."""
    pair = _tau_pair(x1, 0.0)

    def combine(rows):
        return k_prime * rows[:, :2] + k * rows[:, 2:]

    return Trajectory(x1.times, combine(pair.states), lambda t: combine(pair.dense(t)))


def reduce_pinney_from_oscillator(x1: Trajectory, x0, v0, k) -> Trajectory:
    """Milne-Pinney solution from a nonvanishing oscillator solution x1:
    Pinney's rule on d'Alembert's pair (x1, x1 tau), of Wronskian 1."""
    from .superposition import pinney_rule_from_solutions  # it imports group
    return pinney_rule_from_solutions(_tau_pair(x1, 0.0), x0, v0, k)


def reduce_pinney_from_pinney(x1: Trajectory, x0, v0, k) -> Trajectory:
    """Milne-Pinney solution from a Milne-Pinney solution x1 of the same
    k > 0: Pinney's rule on Milne's pair, of Wronskian 1."""
    from .superposition import pinney_rule_from_solutions  # it imports group
    if k <= 0.0:
        raise DomainError("this reduction needs k > 0", k)
    return pinney_rule_from_solutions(_tau_pair(x1, k), x0, v0, k)
