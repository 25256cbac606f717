"""Superposition rules: linear, quadrature-based and Pinney's nonlinear rule."""

import math
from typing import NamedTuple

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


class PinneyValue(NamedTuple):
    """Half-plane-mapped magnitude plus the raw signed evaluation."""

    x: float
    raw: float


def pinney_rule(y, z, i1, i2, w, k, branch=1, half_plane=1):
    """Pinney's nonlinear superposition:

        x = (sqrt(2) / W) * sqrt(I2 y^2 + I1 z^2 +- sqrt(4 I1 I2 - k W^2) y z)

    The prefactor can be negative, so the returned ``x`` is the magnitude
    mapped into the construction-time half-plane; ``raw`` keeps the signed
    value.  ``y`` and ``z`` may be scalars or arrays.  A negative
    discriminant or radicand, or a value out of floating-point range (a
    Wronskian near 0), raises DomainError.
    """
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    disc = 4.0 * i1 * i2 - k * w * w
    if disc < 0.0:
        raise DomainError(f"negative discriminant 4 I1 I2 - k W^2 = {disc:.6g}", disc)
    radicand = i2 * y * y + i1 * z * z + branch * math.sqrt(disc) * y * z
    if np.any(radicand < 0.0):
        worst = float(np.min(radicand))
        raise DomainError(f"negative radicand {worst:.6g} in the Pinney rule", worst)
    raw = math.sqrt(2.0) / w * np.sqrt(radicand)
    if not np.all(np.isfinite(raw)):
        raise DomainError("the Pinney rule leaves the floating-point range", w)
    return PinneyValue(half_plane * abs(raw), raw)


def _select_branch(y0, vy0, z0, vz0, i1, i2, w, k, x0, v0, half_plane):
    """Pick the +- branch at the initial time and keep it for the window.

    The branch is scored by how well it reproduces both x0 and the slope
    d(x^2)/dt at t0; the slope resolves the degenerate case y0 z0 = 0 where
    both branches give the same value.
    """
    disc = 4.0 * i1 * i2 - k * w * w
    if disc < 0.0:
        raise DomainError(f"negative discriminant {disc:.6g}", disc)
    root = math.sqrt(disc)
    target_slope = 2.0 * x0 * v0
    best, best_score = 1, None
    for s in (1, -1):
        val = pinney_rule(y0, z0, i1, i2, w, k, branch=s, half_plane=half_plane).x
        slope = (2.0 / (w * w)) * (
            2.0 * i2 * y0 * vy0 + 2.0 * i1 * z0 * vz0
            + s * root * (vy0 * z0 + y0 * vz0)
        )
        score = abs(val - x0) + abs(slope - target_slope)
        if best_score is None or score < best_score:
            best, best_score = s, score
    return best


def pinney_rule_from_solutions(y_traj: Trajectory, z_traj: Trajectory,
                               x0, v0, k, half_plane=None):
    """Map two oscillator solutions to the Milne-Pinney solution through
    (x0, v0), using the invariants computed from the initial data.

    Returns a trajectory on y_traj's sample grid with states (x, v).
    """
    if half_plane is None:
        half_plane = 1 if x0 >= 0 else -1
    t0 = y_traj.t0
    y0, vy0 = np.asarray(y_traj.dense(t0), dtype=float)[:2]
    z0, vz0 = np.asarray(z_traj.dense(t0), dtype=float)[:2]
    i1, i2, w = ermakov_pair_invariants((x0, y0, z0, v0, vy0, vz0), k)
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    branch = _select_branch(y0, vy0, z0, vz0, i1, i2, w, k, x0, v0, half_plane)

    disc_root = math.sqrt(max(0.0, 4.0 * i1 * i2 - k * w * w))

    def evaluate(t):
        y, vy = y_traj.dense(t)[:, :2].T
        z, vz = z_traj.dense(t)[:, :2].T
        x = pinney_rule(y, z, i1, i2, w, k, branch=branch, half_plane=half_plane).x
        # v from the exact derivative of x^2 = (2/W^2)(I2 y^2 + I1 z^2 +- r y z)
        dx2 = (2.0 / (w * w)) * (
            2.0 * i2 * y * vy + 2.0 * i1 * z * vz
            + branch * disc_root * (vy * z + y * vz)
        )
        return np.column_stack([x, dx2 / (2.0 * x)])

    return Trajectory.from_function(evaluate, y_traj.times)
