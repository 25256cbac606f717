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


def pinney_rule(y, z, i1, i2, w, root, half_plane=1):
    """Pinney's nonlinear superposition:

        x = (sqrt(2) / W) * sqrt(I2 y^2 + I1 z^2 + r y z),

    where the root r is the signed square root of 4 I1 I2 - k W^2, the
    rule's +-.  The prefactor can be negative, so the rule returns x's
    magnitude mapped into the construction-time half-plane.  ``y`` and ``z``
    may be scalars or arrays, and x has their shape.  A negative radicand,
    or a value out of floating-point range (a Wronskian near 0), raises
    DomainError.
    """
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    radicand = i2 * y * y + i1 * z * z + root * y * z
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

    The rule's root is r = P Q - k y z / x^2 at the initial time, with
    P = y vx - x vy and Q = x vz - z vx: by Lagrange's identity
    r^2 = 4 I1 I2 - k W^2, and with this sign x^2 W^2 / 2 = I2 y^2 + I1 z^2
    + r y z holds at every time.  x stays in the half-plane of x0.
    Returns a trajectory on y_traj's sample grid with states (x, v).
    """
    half_plane = 1 if x0 >= 0 else -1
    t0 = y_traj.t0
    y0, vy0 = np.asarray(y_traj.dense(t0), dtype=float)[:2]
    z0, vz0 = np.asarray(z_traj.dense(t0), dtype=float)[:2]
    i1, i2, w = ermakov_pair_invariants((x0, y0, z0, v0, vy0, vz0), k)
    root = (y0 * v0 - x0 * vy0) * (x0 * vz0 - z0 * v0) - k * y0 * z0 / x0**2

    def evaluate(t):
        y, vy = y_traj.dense(t)[:, :2].T
        z, vz = z_traj.dense(t)[:, :2].T
        x = pinney_rule(y, z, i1, i2, w, root, half_plane)
        # the exact derivative of x^2 = (2/W^2)(I2 y^2 + I1 z^2 + r y z)
        dx2 = (2.0 / (w * w)) * (
            2.0 * i2 * y * vy + 2.0 * i1 * z * vz + root * (vy * z + y * vz))
        return np.column_stack([x, dx2 / (2.0 * x)])

    return Trajectory.from_function(evaluate, y_traj.times)
