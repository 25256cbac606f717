"""SL(2,R) machinery: algebra/group types, exponential, the Lie equation on
the group, the linear and Pinney actions, tau-reparametrization and the
reduction-by-particular-solution procedures."""

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Sl2Vector:
    """An algebra element by its coordinates in the basis (A1, A2, A3)."""

    c1: float
    c2: float
    c3: float

    @property
    def matrix(self):
        return self.c1 * A1 + self.c2 * A2 + self.c3 * A3


class SL2Matrix:
    """A group element; the determinant must be 1 within 1e-6 on construction
    (``GroupSolution.normalized`` rescales a solved curve to determinant 1)."""

    def __init__(self, array):
        a = np.asarray(array, dtype=float)
        if a.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        (a00, a01), (a10, a11) = a.tolist()
        d = a00 * a11 - a01 * a10  # closed form: this value feeds only the check
        if abs(d - 1.0) > 1e-6:
            raise ValueError(f"determinant {d:.9g} too far from 1")
        self.array = a

    def __matmul__(self, other):
        return SL2Matrix(self.array @ other.array)

    def __repr__(self):
        return f"SL2Matrix({self.array.tolist()})"


_EYE = np.eye(2)
_EYE.flags.writeable = False
IDENTITY = SL2Matrix(_EYE)


def sl2_exp(v: Sl2Vector, s: float) -> SL2Matrix:
    """Exact exponential of s * v via the trace/determinant classification.

    For traceless M with d = det M: M^2 = -d I, so the exponential is
    elliptic (d > 0), hyperbolic (d < 0) or parabolic (d ~ 0), and
    d = -c3^2 / 4 - c1 c2 in closed form.
    """
    m = v.matrix
    d = -0.25 * v.c3 * v.c3 - v.c1 * v.c2
    if abs(d) < _PARABOLIC_DET:
        return SL2Matrix(_EYE + s * m)
    if d > 0.0:
        w = math.sqrt(d)
        return SL2Matrix(math.cos(w * s) * _EYE + (math.sin(w * s) / w) * m)
    w = math.sqrt(-d)
    return SL2Matrix(math.cosh(w * s) * _EYE + (math.sinh(w * s) / w) * m)


class GroupSolution:
    """Solution of the right-invariant equation g' = a(t) g, g(0) = I.

    ``normalized`` renormalizes the determinant; ``raw`` exposes the solver
    output and ``max_det_drift`` its worst determinant deviation.
    """

    def __init__(self, trajectory: Trajectory):
        self._traj = trajectory
        self.times = trajectory.times

    def raw(self, t):
        """Solver output at t: one 2x2 matrix, or a stack for an array of t."""
        return self._traj.dense(t).reshape(np.shape(t) + (2, 2))

    def normalized(self, t):
        """raw(t) scaled to determinant 1, on scalars or arrays of t."""
        m = self.raw(t)
        return m / np.sqrt(np.linalg.det(m))[..., None, None]

    @property
    def max_det_drift(self):
        return float(np.max(np.abs(np.linalg.det(self.raw(self.times)) - 1.0)))


def solve_group_equation(a, t_span, abs_tol=DEFAULT_ABS_TOL,
                         rel_tol=DEFAULT_REL_TOL) -> GroupSolution:
    """Integrate g' g^-1 = a(t) as the matrix equation g' = a(t) g from I.

    ``a`` maps a time to an Sl2Vector.  The dense output also calls it on an
    array of times, one per column of a block of flattened matrices; the
    coordinates of its result are then floats or arrays of that shape."""

    def rhs(t, y):
        v = a(t)
        if y.ndim == 1:
            return (v.matrix @ y.reshape(2, 2)).ravel()
        # one matrix a(t) per column, and one stacked product for the block
        m = (np.multiply.outer(v.c1, A1) + np.multiply.outer(v.c2, A2)
             + np.multiply.outer(v.c3, A3))
        return np.matmul(m, y.T.reshape(-1, 2, 2)).reshape(-1, 4).T

    traj = integrate(rhs, np.eye(2).ravel(), t_span, abs_tol, rel_tol)
    return GroupSolution(traj)


def linear_action(g: SL2Matrix, p):
    """Matrix-vector product on the (x, v) phase plane."""
    return g.array @ np.asarray(p, dtype=float)


class PinneyActionResult(NamedTuple):
    """x is signed (carrying sign(x)); v_abs is the nonnegative root."""

    x: float
    v_abs: float


def pinney_action(g: SL2Matrix, p, k: float) -> PinneyActionResult:
    """The SL(2,R) action on the Pinney phase plane (k > 0, x != 0).

    Raises DomainError where the closed form leaves its domain: a vanishing
    denominator, a negative radicand, or terms out of floating-point range,
    which is how an image on x = 0 or a point very near x = 0 shows.
    """
    x, v = float(p[0]), float(p[1])
    if x == 0.0:
        raise SingularityError("Pinney action undefined at x = 0")
    try:
        with np.errstate(all="ignore"):
            res = _pinney_action(g, x, v, k)
    except ArithmeticError:  # a Python float power or quotient out of range
        res = None
    if res is None or not all(math.isfinite(value) for value in res):
        raise DomainError(f"the Pinney action leaves the floating-point range "
                          f"at x = {x:.6g}", x)
    return res


def _pinney_action(g, x, v, k):
    alpha, beta = g.array[0]
    gamma, delta = g.array[1]

    inner = (beta * v + alpha * x) * (delta * v + gamma * x) + k * delta * beta / x**2
    den = (delta * v + gamma * x) ** 2 + k * (delta / x) ** 2
    if den <= 0.0:
        raise DomainError(f"vanishing denominator {den:.6g} in the Pinney action", den)
    x_rad = (k + inner * inner) / den
    if x_rad < 0.0:
        raise DomainError(f"negative radicand {x_rad:.6g} for x", x_rad)
    x_bar = math.copysign(math.sqrt(x_rad), x)

    v_rad = (delta * v + gamma * x) ** 2 + k * delta**2 / x**2 - k / x_bar**2
    scale = (delta * v + gamma * x) ** 2 + k * delta**2 / x**2 + k / x_bar**2
    if v_rad < 0.0:
        if v_rad > -1e-12 * max(1.0, scale):
            v_rad = 0.0  # cancellation roundoff, not a genuine domain exit
        else:
            raise DomainError(f"negative radicand {v_rad:.6g} for v", v_rad)
    return PinneyActionResult(x_bar, math.sqrt(v_rad))


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


def _on_tau_clock(x1: Trajectory, formula) -> Trajectory:
    """The closed form whose rows (x, x') at an array of times t are
    ``formula(t, x1, x1', tau)`` there, on x1's grid and x1's tau clock."""
    clock = x1.tau_clock()

    def evaluate(t):
        rows = x1.dense(t)
        return formula(t, rows[:, 0], rows[:, 1], clock(t))

    return Trajectory.from_function(evaluate, x1.times)


def reduce_oscillator(x1: Trajectory, k_prime, k) -> Trajectory:
    """General oscillator solution from one nonvanishing solution by the
    order-reduction quadrature: x = k' x1 + k x1 tau."""
    return _on_tau_clock(x1, lambda t, pos, vel, tau: np.column_stack([
        k_prime * pos + k * pos * tau,
        k_prime * vel + k * (vel * tau + 1.0 / pos),
    ]))


def _reduction_constants(x1: Trajectory, x0, v0):
    """(A, B) of the reduced solutions: A = x0 / x1(t0), the initial value
    of x / x1, and B = v0 x1(t0) - x0 x1'(t0), its initial tau-derivative."""
    x10, v10 = x1.states[0, 0], x1.states[0, 1]
    if x10 == 0.0:
        raise SingularityError("particular solution vanishes at the initial time")
    if x0 == 0.0:
        raise SingularityError("the Milne-Pinney target is singular at x0 = 0")
    return x0 / x10, v0 * x10 - x0 * v10


def _pinney_reduction(x1: Trajectory, a, s_of_tau) -> Trajectory:
    """x(t) = x1(t) sqrt(s(tau)) / a, where ``s_of_tau`` maps tau to s and
    ds/dtau; x' follows by the chain rule with dtau/dt = 1/x1^2.  Where
    s <= 0 it raises DomainError, whose ``last_time`` is the last sample of
    x1 before the earliest such time (None if there is none), as the tau
    clock reports where x1 vanishes."""

    def formula(t, pos, vel, tau):
        s, ds_dtau = s_of_tau(tau)
        bad = s <= 0.0
        if bad.any():
            earlier = x1.times[x1.times < np.min(t[bad])]
            raise DomainError("nonpositive radicand in the reduced solution",
                              float(np.min(s)),
                              last_time=float(earlier[-1]) if earlier.size else None)
        root = np.sqrt(s)
        v = vel * root / a + ds_dtau / (2.0 * root * a * pos)
        return np.column_stack([pos * root / a, v])

    return _on_tau_clock(x1, formula)


def reduce_pinney_from_oscillator(x1: Trajectory, x0, v0, k) -> Trajectory:
    """Milne-Pinney solution from a nonvanishing oscillator solution x1:

        x(t) = (x1(t) / A) sqrt(A^4 + 2 A^3 B tau + (A^2 B^2 + k) tau^2)
    """
    a, b = _reduction_constants(x1, x0, v0)

    def s_of_tau(tau):
        return (a**4 + 2.0 * a**3 * b * tau + (a * a * b * b + k) * tau * tau,
                2.0 * a**3 * b + 2.0 * (a * a * b * b + k) * tau)

    return _pinney_reduction(x1, a, s_of_tau)


def reduce_pinney_from_pinney(x1: Trajectory, x0, v0, k) -> Trajectory:
    """Milne-Pinney solution from a particular Milne-Pinney solution x1.

    In the reduced time tau the ratio z = x/x1 obeys the autonomous equation
    z'' = -k z + k / z^3, whose energy invariant fixes the closed form

        x(t)^2 = x1(t)^2 [B^2 + k/A^2 + k A^2 + (k A^2 - B^2 - k/A^2)
                 cos(2 sqrt(k) tau) + 2 A B sqrt(k) sin(2 sqrt(k) tau)] / (2k).

    (Both trigonometric coefficients follow from z(0) = A, z'(0) = B and the
    invariant B^2 + k A^2 + k/A^2; the constant and cosine terms share the
    k A^2 normalization.)
    """
    if k <= 0.0:
        raise DomainError("this reduction needs k > 0", k)
    a, b = _reduction_constants(x1, x0, v0)
    rk = math.sqrt(k)
    alpha = (b * b + k / a**2 + k * a * a) / (2.0 * k)
    beta = (k * a * a - b * b - k / a**2) / (2.0 * k)
    gamma = a * b / rk

    def s_of_tau(tau):
        cos, sin = np.cos(2.0 * rk * tau), np.sin(2.0 * rk * tau)
        return alpha + beta * cos + gamma * sin, 2.0 * rk * (gamma * cos - beta * sin)

    return _pinney_reduction(x1, math.copysign(1.0, a), s_of_tau)
