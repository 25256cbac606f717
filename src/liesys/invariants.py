"""Closed-form first integrals and drift measurement along trajectories."""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError
from .integrate import compare, worst
from .integrate import quadrature  # noqa: F401  bound for perfbench/tracer.py


@dataclass
class InvariantSeries:
    """An invariant sampled along a trajectory, with drift statistics."""

    times: np.ndarray
    values: np.ndarray
    partial: bool = False  # set when a singularity truncated the series
    running: np.ndarray = field(init=False)  # running max of |v - v0|
    drift_abs: float = field(init=False)  # the last entry of running
    drift_rel: float = field(init=False)  # drift_abs / max(1, |v0|)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have matching lengths")
        v0 = self.values[0]
        self.running = np.maximum.accumulate(np.abs(self.values - v0))
        self.drift_abs = float(self.running[-1])
        self.drift_rel = worst(compare(self.values, v0, "rel"))


def angular_momentum(x1, v1, x2, v2):
    """x1 v2 - x2 v1, constant along any pair of oscillator solutions."""
    return x1 * v2 - x2 * v1


def lewis_ermakov(x, y, vx, vy):
    """(x/y)^2 + (x vy - y vx)^2 for an oscillator x paired with a Pinney y."""
    if y == 0.0:
        raise SingularityError("Lewis-Ermakov invariant undefined at y = 0")
    return (x / y) ** 2 + (x * vy - y * vx) ** 2


def ermakov_pair_invariants(state, k):
    """(I1, I2, W) of the six-dimensional (x, y, z, vx, vy, vz) system.

    I1 pairs the Pinney variable x with y, I2 pairs it with z, and W is the
    Wronskian of the two oscillator copies.  For k = 0 the k (y/x)^2 terms
    vanish, and x = 0 is a point like any other.
    """
    x, y, z, vx, vy, vz = state
    if k == 0.0:
        return 0.5 * (y * vx - x * vy) ** 2, 0.5 * (x * vz - z * vx) ** 2, y * vz - z * vy
    if x == 0.0:
        raise SingularityError("pair invariants undefined at x = 0")
    i1 = 0.5 * ((y * vx - x * vy) ** 2 + k * (y / x) ** 2)
    i2 = 0.5 * ((x * vz - z * vx) ** 2 + k * (z / x) ** 2)
    w = y * vz - z * vy
    return i1, i2, w


def generalized_invariant(x, y, vx, vy, shapes):
    """First integral of the generalized Ermakov system.

    Returns (1/2) (x vy - y vx)^2 + Q(x/y) where Q integrates
    -z^-3 f(1/z) + z g(1/z) from the fixed reference point 1.  The
    integration variable is x/y: the characteristic system pairs d(x/y)
    with this integrand, and the f = 0, g = 1 case then reproduces the
    Lewis-Ermakov invariant (up to the affine normalization fixed by the
    reference point).  Q is the closed form ``shapes.Q`` of the system's
    ShapeFunctions.
    """
    if x == 0.0 or y == 0.0:
        raise SingularityError("generalized invariant undefined at x = 0 or y = 0")
    xi = x * vy - y * vx
    return 0.5 * xi * xi + shapes.Q(x / y)


def drift(times, states, invariant, label="invariant"):
    """Evaluate ``invariant`` on each of the ``states`` at ``times``, taken
    in the order solved, so that the drift runs from the first of them, up
    to the first at which it is singular."""
    values = []
    for state in states:
        try:
            values.append(invariant(state))
        except SingularityError:
            break
    if not values:
        raise SingularityError(f"{label} singular already at the first sample")
    return InvariantSeries(times[: len(values)], np.array(values),
                           partial=len(values) < len(times))
