"""Closed-form first integrals and drift measurement along trajectories."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .integrate import Trajectory, quadrature
from .systems import ShapeFunctions


@dataclass
class InvariantSeries:
    """An invariant sampled along a trajectory, with drift statistics."""

    label: str
    times: np.ndarray
    values: np.ndarray
    drift_abs: float = 0.0
    drift_rel: float = 0.0
    partial: bool = False  # set when a singularity truncated the series

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have matching lengths")
        v0 = self.values[0]
        self.drift_abs = float(np.max(np.abs(self.values - v0)))
        self.drift_rel = self.drift_abs / max(1.0, abs(float(v0)))

    def write_csv(self, stream):
        """Columns: time, value, running drift |value - value0|."""
        writer = csv.writer(stream)
        writer.writerow(["time", "value", "running_drift"])
        v0 = self.values[0]
        run = 0.0
        for t, v in zip(self.times, self.values):
            run = max(run, abs(v - v0))
            writer.writerow([f"{t:.17g}", f"{v:.17g}", f"{run:.17g}"])


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
    Wronskian of the two oscillator copies.
    """
    x, y, z, vx, vy, vz = np.asarray(state, dtype=float)
    if x == 0.0:
        raise SingularityError("pair invariants undefined at x = 0")
    i1 = 0.5 * ((y * vx - x * vy) ** 2 + k * (y / x) ** 2)
    i2 = 0.5 * ((x * vz - z * vx) ** 2 + k * (z / x) ** 2)
    w = y * vz - z * vy
    return i1, i2, w


def generalized_invariant(x, y, vx, vy, shapes: ShapeFunctions, quad_tol=1e-12):
    """First integral of the generalized Ermakov system.

    Returns (1/2) (x vy - y vx)^2 + Q(x/y) where Q integrates
    -z^-3 f(1/z) + z g(1/z) from the fixed reference point 1.  The
    integration variable is x/y: the characteristic system pairs d(x/y)
    with this integrand, and the f = 0, g = 1 case then reproduces the
    Lewis-Ermakov invariant (up to the affine normalization fixed by the
    reference point).
    """
    if x == 0.0 or y == 0.0:
        raise SingularityError("generalized invariant undefined at x = 0 or y = 0")
    xi = x * vy - y * vx
    u = x / y

    def integrand(z):
        return -shapes.f(1.0 / z) / z**3 + z * shapes.g(1.0 / z)

    q = quadrature(integrand, (1.0, u), tol=quad_tol)
    return 0.5 * xi * xi + q


def drift(trajectories, invariant, label="invariant"):
    """Evaluate ``invariant`` along one or more trajectories.

    ``invariant`` receives the concatenated state vector.  With several
    trajectories the sample grid of the first is used and the others are
    evaluated through their dense output.
    """
    if isinstance(trajectories, Trajectory):
        trajectories = (trajectories,)
    times = trajectories[0].times
    states = np.concatenate([tr.dense(times) for tr in trajectories], axis=1)
    values = []
    partial = False
    for state in states:
        try:
            values.append(invariant(state))
        except SingularityError:
            partial = True
            break
    if not values:
        raise SingularityError(f"{label} singular already at the first sample")
    return InvariantSeries(label, times[: len(values)], np.array(values), partial=partial)
