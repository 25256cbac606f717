"""Superposition rules: linear, quadrature-based and Pinney's nonlinear rule."""

import math

import numpy as np

from .errors import DependentSolutionsError, DomainError
from .integrate import Trajectory
from .integrate import quadrature  # noqa: F401  bound for perfbench/tracer.py
from .invariants import ermakov_pair_invariants


def keys_from(x, v, x1, v1, x2, v2):
    """Constants (k1, k2) labelling a solution against a fundamental pair."""
    return x * v2 - x2 * v, x1 * v - v1 * x


def linear_rule(x1, v1, x2, v2, k1, k2):
    """Reconstruct (x, v) from two independent oscillator solutions.

    Solves {x v2 - x2 v = k1, x1 v - v1 x = k2}; the Wronskian
    k = x1 v2 - x2 v1 must be nonzero.  Works on scalars and on arrays.
    """
    k = x1 * v2 - x2 * v1
    if np.any(k == 0.0):
        raise DependentSolutionsError("the two solutions have zero Wronskian")
    return (k1 * x1 + k2 * x2) / k, (k1 * v1 + k2 * v2) / k


def quadrature_rule(x1: Trajectory, k_prime, k, t):
    """Second oscillator solution from a nonvanishing one by quadrature:

        x2(t) = k' x1(t) + k x1(t) * integral_{t0}^{t} dz / x1(z)^2

    ``t`` may be a scalar or an array; the integral is read off x1's tau clock.
    """
    pos = x1.position(t)
    if k == 0.0:
        return k_prime * pos
    return k_prime * pos + k * pos * x1.tau_clock()(t)


def _discriminant_root(i1, i2, w, k):
    """sqrt(4 I1 I2 - k W^2).  On invariants of initial data the discriminant
    is a square, (A C - B D)^2 by Lagrange's identity, so a negative value
    within 1e-12 (4 |I1 I2| + |k| W^2) of 0 is cancellation roundoff and
    reads 0; a lower one raises DomainError."""
    disc = 4.0 * i1 * i2 - k * w * w
    if disc < 0.0:
        if disc > -1e-12 * (4.0 * abs(i1 * i2) + abs(k) * w * w):
            return 0.0
        raise DomainError(f"negative discriminant 4 I1 I2 - k W^2 = {disc:.6g}", disc)
    return math.sqrt(disc)


def pinney_rule(y, z, i1, i2, w, k, branch=1, half_plane=1):
    """Pinney's nonlinear superposition:

        x = (sqrt(2) / W) * sqrt(I2 y^2 + I1 z^2 +- sqrt(4 I1 I2 - k W^2) y z)

    The prefactor can be negative, so the rule returns x's magnitude mapped
    into the construction-time half-plane.  ``y`` and ``z`` may be scalars or
    arrays, and x has their shape.  A negative discriminant beyond roundoff
    or a negative radicand, or a value out of floating-point range (a
    Wronskian near 0), raises DomainError.
    """
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    radicand = i2 * y * y + i1 * z * z + branch * _discriminant_root(i1, i2, w, k) * y * z
    if np.any(radicand < 0.0):
        worst = float(np.min(radicand))
        raise DomainError(f"negative radicand {worst:.6g} in the Pinney rule", worst)
    raw = math.sqrt(2.0) / w * np.sqrt(radicand)
    if not np.all(np.isfinite(raw)):
        raise DomainError("the Pinney rule leaves the floating-point range", w)
    return half_plane * abs(raw)


def pinney_rule_from_solutions(y_traj: Trajectory, z_traj: Trajectory, x0, v0, k):
    """Map two oscillator solutions to the Milne-Pinney solution through
    (x0, v0), using the invariants computed from the initial data.

    The +- branch of the rule is the one that best reproduces both x0 and
    the slope d(x^2)/dt = 2 x0 v0 at the initial time, and it is kept for
    the window; the slope resolves the degenerate case y0 z0 = 0, where
    both branches give the same x.  x stays in the half-plane of x0.
    Returns a trajectory on y_traj's sample grid with states (x, v).
    """
    half_plane = 1 if x0 >= 0 else -1
    t0 = y_traj.t0
    y0, vy0 = np.asarray(y_traj.dense(t0), dtype=float)[:2]
    z0, vz0 = np.asarray(z_traj.dense(t0), dtype=float)[:2]
    i1, i2, w = ermakov_pair_invariants((x0, y0, z0, v0, vy0, vz0), k)
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    disc_root = _discriminant_root(i1, i2, w, k)

    def x_and_dx2(y, vy, z, vz, branch):
        x = pinney_rule(y, z, i1, i2, w, k, branch=branch, half_plane=half_plane)
        # the exact derivative of x^2 = (2/W^2)(I2 y^2 + I1 z^2 +- r y z)
        dx2 = (2.0 / (w * w)) * (
            2.0 * i2 * y * vy + 2.0 * i1 * z * vz
            + branch * disc_root * (vy * z + y * vz)
        )
        return x, dx2

    def score(branch):
        x, dx2 = x_and_dx2(y0, vy0, z0, vz0, branch)
        return abs(x - x0) + abs(dx2 - 2.0 * x0 * v0)

    branch = min((1, -1), key=score)

    def evaluate(t):
        y, vy = y_traj.dense(t)[:, :2].T
        z, vz = z_traj.dense(t)[:, :2].T
        x, dx2 = x_and_dx2(y, vy, z, vz, branch)
        return np.column_stack([x, dx2 / (2.0 * x)])

    return Trajectory.from_function(evaluate, y_traj.times)
