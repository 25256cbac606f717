"""Superposition rules: linear, quadrature-based and Pinney's nonlinear rule."""

import numpy as np

from .errors import DependentSolutionsError, DomainError, SingularityError
from .group import _pinney_map
from .integrate import Trajectory
from .integrate import quadrature  # noqa: F401  bound for perfbench/tracer.py


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
    """Pinney's nonlinear superposition: the Milne-Pinney state (x, v) from
    the states y = (y, y') and z = (z, z') of two oscillator solutions,

        x = (sqrt(2) / W) * sqrt(I2 y^2 + I1 z^2 + r y z),

    where the root r is the signed square root of 4 I1 I2 - k W^2, the
    rule's +-.  It is the Pinney map of S = [[2 I2, r], [r, 2 I1]] / W^2,
    of determinant k / W^2, under Phi = [[y, z], [y', z']]; x lies in
    ``half_plane``.  The entries of y and z may be scalars or arrays.  Where
    x^2 <= 0, or a value is out of floating-point range (a Wronskian near
    0), it raises DomainError.  Where I2 = 0 (k = 0 and x proportional to
    z) the map takes y and z swapped, with I1 and I2, so that its s00 is
    2 I1 / W^2 > 0.
    """
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    if i2 == 0.0:
        y, z, i1, i2 = z, y, i2, i1
    (p, dp), (q, dq) = y, z
    with np.errstate(all="ignore"):  # a W near 0 overflows here; the map raises
        w2 = np.float64(w) * w
        s0 = 2.0 * i2 / w2, root / w2, (4.0 * i1 * i2 - root * root) / w2 / w2
    return _pinney_map(*s0, p, q, dp, dq, half_plane)


def pinney_rule_from_solutions(pair: Trajectory, x0, v0, k):
    """The Milne-Pinney solution through (x0, v0), states (x, v) on the grid
    of ``pair``: rows (y, y', z, z') of two oscillator solutions, read once
    per evaluation.

    The rule runs on the pair normalized at t0, the columns of the
    propagator Phi(t) Phi(t0)^-1 of Phi = [[y, z], [y', z']].  Against that
    pair the target has W = 1, I1 = (v0^2 + k / x0^2) / 2, I2 = x0^2 / 2
    and the root r = x0 v0, so S = [[x0^2, x0 v0], [x0 v0, v0^2 + k / x0^2]]
    and no branch is chosen.  x stays in the half-plane of x0.  A
    DomainError of the map at the array t gets as ``last_time`` the last of
    the pair's times before the earliest t it marks (None if there is none).
    """
    y0, vy0, z0, vz0 = pair.states[0]
    w = y0 * vz0 - z0 * vy0
    if w == 0.0:
        raise DependentSolutionsError("Wronskian W = 0: dependent oscillator solutions")
    if x0 == 0.0:
        raise SingularityError("the Milne-Pinney target is singular at x0 = 0")
    with np.errstate(all="ignore"):  # an x0 near 0 or inf overflows; the map raises
        x0 = np.float64(x0)
        invariants = 0.5 * (v0 * v0 + k / x0**2), 0.5 * x0 * x0, 1.0, x0 * v0

    def evaluate(t):
        ys, zs = pair.dense(t).T.reshape(2, 2, -1)  # rows (y, y') and (z, z')
        try:
            return np.column_stack(pinney_rule((vz0 * ys - vy0 * zs) / w,
                                               (y0 * zs - z0 * ys) / w, *invariants,
                                               1 if x0 >= 0 else -1))
        except DomainError as exc:
            earlier = pair.times[pair.times < np.min(t[exc.value])]
            exc.last_time = float(earlier[-1]) if earlier.size else None
            raise

    return Trajectory.from_function(evaluate, pair.times)
