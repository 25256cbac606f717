"""SL(2,R) machinery: algebra/group types, exponential, adjoint, the Lie
equation on the group, the linear and Pinney actions, tau-reparametrization
and the reduction-by-particular-solution procedures."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError
from .integrate import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, TAU_TOL, Trajectory,
                        integrate)
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

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=float)
        if abs(m[0, 0] + m[1, 1]) > 1e-9:
            raise ValueError("matrix is not traceless")
        return cls(c1=-m[1, 0], c2=-m[0, 1], c3=m[1, 1] - m[0, 0])

    def __add__(self, other):
        return Sl2Vector(self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def __rmul__(self, scalar):
        return Sl2Vector(scalar * self.c1, scalar * self.c2, scalar * self.c3)


class SL2Matrix:
    """A group element; the determinant must be 1 within 1e-6 on construction
    (tight 1e-9 conformance is re-established by ``renormalized``)."""

    def __init__(self, array):
        a = np.asarray(array, dtype=float)
        if a.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        d = float(np.linalg.det(a))
        if abs(d - 1.0) > 1e-6:
            raise ValueError(f"determinant {d:.9g} too far from 1")
        self.array = a

    @property
    def det(self):
        return float(np.linalg.det(self.array))

    def renormalized(self):
        return SL2Matrix(self.array / math.sqrt(self.det))

    def inverse(self):
        a = self.array
        return SL2Matrix(np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]))

    def __matmul__(self, other):
        return SL2Matrix(self.array @ other.array)

    def __repr__(self):
        return f"SL2Matrix({self.array.tolist()})"


IDENTITY = SL2Matrix(np.eye(2))


def sl2_exp(v: Sl2Vector, s: float) -> SL2Matrix:
    """Exact exponential of s * v via the trace/determinant classification.

    For traceless M with d = det M: M^2 = -d I, so the exponential is
    elliptic (d > 0), hyperbolic (d < 0) or parabolic (d ~ 0).
    """
    m = v.matrix
    d = float(np.linalg.det(m))
    if abs(d) < _PARABOLIC_DET:
        return SL2Matrix(np.eye(2) + s * m)
    if d > 0.0:
        w = math.sqrt(d)
        return SL2Matrix(math.cos(w * s) * np.eye(2) + (math.sin(w * s) / w) * m)
    w = math.sqrt(-d)
    return SL2Matrix(math.cosh(w * s) * np.eye(2) + (math.sinh(w * s) / w) * m)


def adjoint(g: SL2Matrix, v: Sl2Vector) -> Sl2Vector:
    """Coordinates of g v g^-1; conjugation preserves tracelessness."""
    return Sl2Vector.from_matrix(g.array @ v.matrix @ g.inverse().array)


class GroupSolution:
    """Solution of the right-invariant equation g' = a(t) g, g(0) = I.

    Evaluation renormalizes the determinant; ``raw`` exposes the solver
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

    def __call__(self, t) -> SL2Matrix:
        return SL2Matrix(self.normalized(float(t)))

    @property
    def max_det_drift(self):
        return float(np.max(np.abs(np.linalg.det(self.raw(self.times)) - 1.0)))


def solve_group_equation(a, t_span, abs_tol=DEFAULT_ABS_TOL,
                         rel_tol=DEFAULT_REL_TOL) -> GroupSolution:
    """Integrate g' g^-1 = a(t) as the matrix equation g' = a(t) g from I."""

    def rhs(t, y):
        return (a(t).matrix @ y.reshape(2, 2)).ravel()

    traj = integrate(rhs, np.eye(2).ravel(), t_span, abs_tol, rel_tol)
    return GroupSolution(traj)


def linear_action(g: SL2Matrix, p):
    """Matrix-vector product on the (x, v) phase plane."""
    return g.array @ np.asarray(p, dtype=float)


class PinneyActionResult(NamedTuple):
    """x is signed (carrying sign(x)); v_abs is the nonnegative root; the raw
    radicand of v is kept for diagnostics."""

    x: float
    v_abs: float
    v_radicand: float


def pinney_action(g: SL2Matrix, p, k: float) -> PinneyActionResult:
    """The SL(2,R) action on the Pinney phase plane (k > 0, x != 0)."""
    x, v = float(p[0]), float(p[1])
    if x == 0.0:
        raise SingularityError("Pinney action undefined at x = 0")
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
    return PinneyActionResult(x_bar, math.sqrt(v_rad), v_rad)


def generator_by_finite_difference(apply_fn, v: Sl2Vector, p, step=1e-5):
    """Fundamental vector field of an action at p, by central differences.

    Uses the left-action convention X_v(p) = d/ds Phi(exp(-s v), p) at s = 0,
    which is the one under which the built-in systems' generators and the
    group curve a(t) are mutually consistent.
    """
    plus = np.asarray(apply_fn(sl2_exp(v, -step), p), dtype=float)
    minus = np.asarray(apply_fn(sl2_exp(v, step), p), dtype=float)
    return (plus - minus) / (2.0 * step)


def tau_reparametrization(x1: Trajectory, t, quad_tol=TAU_TOL):
    """tau(t) = integral_{t0}^{t} dz / x1(z)^2, read off x1's tau clock."""
    return x1.tau_clock(quad_tol)(t)


def tau_grid(x1: Trajectory, quad_tol=TAU_TOL):
    """Cumulative tau at every sample time of the trajectory."""
    return x1.tau_clock(quad_tol)(x1.times)


def _closed_form_trajectory(x1: Trajectory, evaluate):
    """Trajectory sampled on x1's grid whose dense output re-evaluates the
    closed form (interpolation would waste its accuracy).  ``evaluate`` maps
    an array of times to rows of states."""
    return Trajectory(x1.times, evaluate(x1.times), interpolant=evaluate)


def particular_solution_matrices(x1: Trajectory, t):
    """g1(t) = [[x1, 0], [x1', 1/x1]] for an array of times, shape (n, 2, 2)."""
    x, v = x1.dense(np.atleast_1d(t))[:, :2].T
    if np.any(x == 0.0):
        raise SingularityError("particular solution vanishes at this time")
    zero = np.zeros_like(x)
    return np.stack([np.stack([x, zero], -1), np.stack([v, 1.0 / x], -1)], -2)


def particular_solution_curve(x1: Trajectory):
    """The curve g1(t) = [[x1, 0], [x1', 1/x1]] mapping (1, 0) onto x1."""

    def g1(t):
        return SL2Matrix(particular_solution_matrices(x1, t)[0])

    return g1


def _position_and_velocity(x1: Trajectory, t):
    rows = x1.dense(t)
    return rows[:, 0], rows[:, 1]


def reduce_oscillator(x1: Trajectory, k_prime, k, quad_tol=TAU_TOL) -> Trajectory:
    """General oscillator solution from one nonvanishing solution by the
    order-reduction quadrature: x = k' x1 + k x1 tau."""
    clock = x1.tau_clock(quad_tol)

    def evaluate(t):
        pos, vel = _position_and_velocity(x1, t)
        tau = clock(t)
        return np.column_stack([
            k_prime * pos + k * pos * tau,
            k_prime * vel + k * (vel * tau + 1.0 / pos),
        ])

    return _closed_form_trajectory(x1, evaluate)


@dataclass(frozen=True)
class ReductionParameters:
    """Initial-data constants (A, B) of the closed-form reduced solutions."""

    A: float
    B: float

    def __post_init__(self):
        if self.A == 0.0:
            raise DomainError("reduction parameter A must be nonzero")


def reduction_parameters(x1: Trajectory, x0, v0, k) -> ReductionParameters:
    """(A, B) from the Pinney action of [[1/x1(0), 0], [-x1'(0), x1(0)]] on
    (x0, v0).

    The action formula only yields |B|; its sign is restored from the flow,
    where B equals the initial tau-derivative of x/x1, namely
    v0 x1(0) - x0 x1'(0).
    """
    x10, v10 = x1.states[0, 0], x1.states[0, 1]
    if x10 == 0.0:
        raise SingularityError("particular solution vanishes at the initial time")
    g0_inv = SL2Matrix(np.array([[1.0 / x10, 0.0], [-v10, x10]]))
    res = pinney_action(g0_inv, (x0, v0), k)
    b_signed = v0 * x10 - x0 * v10
    b = math.copysign(res.v_abs, b_signed) if b_signed != 0.0 else 0.0
    return ReductionParameters(A=res.x, B=b)


def _check_radicand(s):
    if np.any(s <= 0.0):
        worst = float(np.min(s))
        raise DomainError("nonpositive radicand in the reduced solution", worst)


def reduce_pinney_from_oscillator(x1: Trajectory, x0, v0, k,
                                  quad_tol=TAU_TOL) -> Trajectory:
    """Milne-Pinney solution from a nonvanishing oscillator solution x1:

        x(t) = (x1(t) / A) sqrt(A^4 + 2 A^3 B tau + (A^2 B^2 + k) tau^2)
    """
    params = reduction_parameters(x1, x0, v0, k)
    a, b = params.A, params.B
    clock = x1.tau_clock(quad_tol)

    def evaluate(t):
        pos, vel = _position_and_velocity(x1, t)
        tau = clock(t)
        s = a**4 + 2.0 * a**3 * b * tau + (a * a * b * b + k) * tau * tau
        _check_radicand(s)
        root = np.sqrt(s)
        ds_dtau = 2.0 * a**3 * b + 2.0 * (a * a * b * b + k) * tau
        # chain rule with dtau/dt = 1/x1^2
        v = vel * root / a + ds_dtau / (2.0 * root * a * pos)
        return np.column_stack([pos * root / a, v])

    return _closed_form_trajectory(x1, evaluate)


def reduce_pinney_from_pinney(x1: Trajectory, x0, v0, k,
                              quad_tol=TAU_TOL) -> Trajectory:
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
    params = reduction_parameters(x1, x0, v0, k)
    a, b = params.A, params.B
    clock = x1.tau_clock(quad_tol)
    rk = math.sqrt(k)
    alpha = (b * b + k / a**2 + k * a * a) / (2.0 * k)
    beta = (k * a * a - b * b - k / a**2) / (2.0 * k)
    gamma = a * b / rk

    def evaluate(t):
        pos, vel = _position_and_velocity(x1, t)
        tau = clock(t)
        s = alpha + beta * np.cos(2.0 * rk * tau) + gamma * np.sin(2.0 * rk * tau)
        _check_radicand(s)
        root = np.sqrt(s)
        ds_dtau = 2.0 * rk * (gamma * np.cos(2.0 * rk * tau)
                              - beta * np.sin(2.0 * rk * tau))
        v = vel * root + ds_dtau / (2.0 * root * pos)
        return np.column_stack([pos * root, v])

    return _closed_form_trajectory(x1, evaluate)
