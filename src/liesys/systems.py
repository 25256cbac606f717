"""Factories for the concrete sl(2,R) Lie systems studied here.

Each system is x_i'' = -omega^2(t) x_i + F_i(x): a factory gives its state
layout, its field w X1 + X2 and first integrals, and ``_second_order``
builds the rest, X2's Jacobian included.  State layouts:

    oscillator_1d        (x, v)
    oscillator_2d        (x1, v1, x2, v2)
    milne_pinney         (x, v)
    ermakov              (x, vx, y, vy)       x: oscillator, y: Pinney (k = 1)
    generalized_ermakov  (x, vx, y, vy)
    pinney_triple        (x, y, z, vx, vy, vz) x: Pinney, y, z: oscillators
"""

import dataclasses
from typing import Callable, Tuple

import numpy as np

from .errors import DimensionMismatchError, SingularityError
from .integrate import (FrequencyProfile, DEFAULT_ABS_TOL, DEFAULT_REL_TOL,
                        integrate, integrate_lanes)
from .invariants import (angular_momentum, ermakov_pair_invariants,
                         generalized_invariant, lewis_ermakov)
from .vectorfield import StructureConstants, VectorField, sl2_constants

# h of X2's complex-step Jacobian: far below F's rounding, so F(p + i h e_j)
# keeps F(p) in its real part and h dF/dx_j in its imaginary part
_COMPLEX_STEP = 1e-20


@dataclasses.dataclass(frozen=True)
class ShapeFunctions:
    """The two coupling shapes of the generalized Ermakov system, with the
    closed forms built on them.

    ``f`` and ``g`` must be analytic and take Python floats and real or
    complex arrays of u: solves of a few lanes call them on floats, larger
    ones and the dense output on real arrays (``SystemDef.rhs``), and X2's
    Jacobian on complex ones.  ``Q`` is the antiderivative
    integral_1^u (-z^-3 f(1/z) + z g(1/z)) dz of the generalized invariant.
    """

    f: Callable[[float], float]
    g: Callable[[float], float]
    description: str
    Q: Callable[[float], float]


def zero_one_shapes():
    """f = 0, g = 1: the plain Ermakov coupling."""
    return ShapeFunctions(lambda u: 0.0, lambda u: 1.0, "f(u) = 0, g(u) = 1",
                          Q=lambda u: 0.5 * (u * u - 1.0))


def quadratic_shapes():
    """f(u) = u^2, g = 1: the standard nontrivial test coupling."""
    return ShapeFunctions(lambda u: u * u, lambda u: 1.0, "f(u) = u^2, g(u) = 1",
                          Q=lambda u: 0.25 * (u**-4 - 1.0) + 0.5 * (u * u - 1.0))


SHAPE_FUNCTIONS = {
    "zero_one": zero_one_shapes,
    "quadratic": quadratic_shapes,
}


@dataclasses.dataclass(frozen=True)
class SystemDef:
    """A Lie system: generators X_a, coefficients b_a(t), structure constants.

    ``rows(w, p)`` is w X1(p) + X2(p), the one closed form of the system's
    vector fields, as a tuple of its components.  It takes Python floats, a
    (dimension,) point or a (dimension, n) block of n points, one per
    column, real or complex (X2's Jacobian is read off a complex block, so
    F must be analytic); on a block, w is a float or one value per column.
    X2 is ``rows(0.0, p)``, and the rhs sum_a b_a(t) X_a(p) is
    ``rows(b_1(t), p)`` (b_2 = 1, b_3 = 0), with the same guards and order
    of summation as the generator sum, so the two agree bit for bit (the
    tests hold them equal).  A column of a real block gets the bits of the
    same point alone, and of the same point as floats, so fields write x^3
    as x * x * x: numpy's x**3 may round a scalar otherwise than an array.
    The generators remain the source of truth for the algebra and rank
    checks.  ``singular_coords`` are state indices whose vanishing is a
    genuine singularity.  ``invariants`` maps the name of each first
    integral of the system to a function of its state vector.
    """

    name: str
    dimension: int
    generators: Tuple[VectorField, ...]
    coefficients: Tuple[Callable[[float], float], ...]
    constants: StructureConstants
    rows: Callable[[float, np.ndarray], tuple]
    singular_coords: Tuple[int, ...] = ()
    invariants: dict = dataclasses.field(default_factory=dict)
    params: dict = dataclasses.field(default_factory=dict)

    def rhs(self, t, p, lanes=0):
        """sum_a b_a(t) X_a(p), evaluated as ``np.array(rows(b_1(t), p))``,
        at a (dimension,) point or on each column of a (dimension, n) block
        (a list, a tuple or an array), at one time t or at an array of n
        times, one per column.

        ``lanes`` > 0 declares p a solve's float form of that many lanes: a
        list of dimension * lanes Python floats, entry i * lanes + j
        component i of lane j.  It gives a list in the same layout, ``rows``
        run on each lane's floats.  A call whose floats raise
        ArithmeticError (0.0 / 0.0 where numpy gives NaN) or SingularityError
        is evaluated again on the block, so it gives the block's bits, or
        its error naming the lane."""
        w = self.coefficients[0](t)
        if lanes:
            rows = self.rows
            try:
                if lanes == 1:
                    return list(rows(w, p))
                cols = [rows(w, p[j::lanes]) for j in range(lanes)]
                return [x for component in zip(*cols) for x in component]
            except (ArithmeticError, SingularityError):
                block = np.array(p, dtype=float).reshape(
                    (self.dimension, lanes) if lanes > 1 else -1)
                return np.array(rows(w, block)).reshape(-1).tolist()
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dimension,) and (p.ndim != 2 or len(p) != self.dimension):
            raise DimensionMismatchError(
                f"point of shape {p.shape} on a system of dimension {self.dimension}"
            )
        return np.array(self.rows(w, p))

    def integrate(self, y0, t_span, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL):
        return integrate(self.rhs, y0, t_span, abs_tol, rel_tol,
                         singular_coords=self.singular_coords, float_form=True)

    def integrate_lanes(self, states, t_span, abs_tol=DEFAULT_ABS_TOL,
                        rel_tol=DEFAULT_REL_TOL):
        """One trajectory per state, from one solve of the states as lanes
        (the diagonal prolongation of this system to len(states) copies)."""
        return integrate_lanes(self.rhs, states, t_span, abs_tol, rel_tol,
                               singular_coords=self.singular_coords, float_form=True)

    def sample_domain(self, rng, count=1, low=-2.0, high=2.0, guard=0.1,
                      half_plane=1):
        """``count`` seeded random probes in the guarded domain of this
        system, one per row of a (count, dimension) array, each of
        ``singular_coords`` in the half-plane of the sign ``half_plane``.

        Each batch of the probes still needed is one draw of the generator,
        and a probe with a coordinate inside ``guard`` is dropped, so the
        probes, and the generator's state after them, are those of drawing
        one probe at a time until ``count`` are kept.
        """
        probes = np.empty((0, self.dimension))
        while len(probes) < count:
            batch = rng.uniform(low, high, size=(count - len(probes), self.dimension))
            probes = np.concatenate([probes, batch[~np.any(np.abs(batch) < guard, axis=1)]])
        sc = list(self.singular_coords)
        probes[:, sc] = half_plane * np.abs(probes[:, sc])
        return probes


def _guard(x, what):
    """x, unless it is zero: a coordinate, or one row of a (dimension, n)
    block, whose zero is a singularity of the field."""
    if x.__class__ is np.ndarray:
        if np.count_nonzero(x) < x.size:
            lane = int(np.flatnonzero(x == 0.0)[0])
            raise SingularityError(
                f"{what} evaluated at its singularity x = 0 in lane {lane}")
    elif x == 0.0:
        raise SingularityError(f"{what} evaluated at its singularity x = 0")
    return x


def _second_order(name, omega, letter, positions, velocities, rows,
                  singular_coords=(), invariants=None, **params):
    """The SystemDef of x_i'' = -omega^2(t) x_i + F_i(x), whose positions x_i
    and velocities v_i sit at the state indices ``positions`` and
    ``velocities``.  Its generators, named ``letter`` 1 to 3, are

        X1 = sum_i x_i d/dv_i,    X2 = sum_i (v_i d/dx_i + F_i(x) d/dv_i),
        X3 = 1/2 sum_i (x_i d/dx_i - v_i d/dv_i),

    with b = (-omega^2(t), 1, 0).  ``rows`` is the factory's w X1 + X2
    (SystemDef.rows), and ``params`` go to SystemDef.params beside the
    frequency's description.  X2's Jacobian is the complex step
    Im rows(0, p + i h e_j) / h in each direction e_j, one block call for a
    point or a block of them: exact to rounding, as no difference cancels
    (Squire & Trapp, SIAM Rev. 40, 1998).  Every generator and Jacobian takes
    a (n,) point or an (n, m) block (see VectorField).
    """
    pos, vel = np.array(positions), np.array(velocities)
    n = 2 * len(pos)
    half = np.empty(n)  # X3's diagonal
    half[pos], half[vel] = 0.5, -0.5
    # X1's and X3's Jacobians, read-only and shared by every call
    j1, j3 = np.zeros((n, n)), np.diag(half)
    j1[vel, pos] = 1.0
    j1.flags.writeable = j3.flags.writeable = False
    steps = 1j * _COMPLEX_STEP * np.eye(n)

    def x1(p):
        out = np.zeros_like(p)
        out[vel] = p[pos]
        return out

    def x2_jac(p):
        # column k * n + j of the complex block is point k + i h e_j
        cols = p.reshape(n, -1)
        z = (cols[:, :, None] + steps[:, None, :]).reshape(n, -1)
        J = np.array(rows(0.0, z)).imag / _COMPLEX_STEP
        J = J.reshape(n, -1, n).transpose(1, 0, 2)
        return J if p.ndim == 2 else J[0]

    def constant(j):  # a Jacobian that is j at every point
        return lambda p: j if p.ndim == 1 else np.broadcast_to(j, (p.shape[1], n, n))

    generators = (VectorField(n, x1, constant(j1), name=f"{letter}1"),
                  VectorField(n, lambda p: np.array(rows(0.0, p)), x2_jac, name=f"{letter}2"),
                  VectorField(n, lambda p: (p.T * half).T, constant(j3),
                              name=f"{letter}3"))
    return SystemDef(
        name=name, dimension=n, generators=generators,
        coefficients=(lambda t: -omega(t), lambda t: 1.0, lambda t: 0.0),
        constants=sl2_constants(), rows=rows,
        singular_coords=tuple(singular_coords), invariants=invariants or {},
        params={**params, "frequency": omega.description},
    )


def oscillator_1d(omega: FrequencyProfile) -> SystemDef:
    """1-dim harmonic oscillator with time-dependent frequency, state (x, v)."""

    def rows(w, p):
        return p[1], w * p[0]

    return _second_order("oscillator_1d", omega, "X", (0,), (1,), rows)


def oscillator_2d(omega: FrequencyProfile) -> SystemDef:
    """Isotropic 2-dim oscillator, state (x1, v1, x2, v2): the diagonal
    prolongation of the 1-dim one, with the angular momentum as invariant."""

    def rows(w, p):
        return p[1], w * p[0], p[3], w * p[2]

    return _second_order(
        "oscillator_2d", omega, "X", (0, 2), (1, 3), rows,
        invariants={"angular_momentum": lambda s: angular_momentum(*s[:4])})


def milne_pinney(omega: FrequencyProfile, k: float) -> SystemDef:
    """Isotonic oscillator x'' = -omega^2(t) x + k / x^3, state (x, v)."""
    def rows(w, p):
        x = _guard(p[0], "Milne-Pinney field")
        return p[1], w * x + k / (x * x * x)

    def free_rows(w, p):  # k = 0: no force, so x = 0 is regular
        return p[1], w * p[0]

    return _second_order("milne_pinney", omega, "L", (0,), (1,),
                         rows if k != 0.0 else free_rows,
                         (0,) if k != 0.0 else (), k=k)


def generalized_ermakov(omega: FrequencyProfile, shapes: ShapeFunctions) -> SystemDef:
    """Coupled pair x'' = f(y/x)/x^3 - omega^2 x, y'' = g(y/x)/y^3 - omega^2 y.

    State (x, vx, y, vy); the domain excludes x = 0 and y = 0.
    """
    f, g = shapes.f, shapes.g
    what = "generalized Ermakov field"

    def rows(w, p):
        x, y = _guard(p[0], what), _guard(p[2], what)
        u = y / x
        return p[1], w * x + f(u) / (x * x * x), p[3], w * y + g(u) / (y * y * y)

    return _second_order(
        "generalized_ermakov", omega, "N", (0, 2), (1, 3), rows, (0, 2), shapes=shapes,
        invariants={"generalized": lambda s: generalized_invariant(
            s[0], s[2], s[1], s[3], shapes)})


def ermakov(omega: FrequencyProfile) -> SystemDef:
    """Oscillator in x coupled to a k = 1 Pinney block in y, state (x, vx, y, vy)."""

    def rows(w, p):
        y = _guard(p[2], "Ermakov field")
        return p[1], w * p[0], p[3], w * y + 1.0 / (y * y * y)

    return _second_order(
        "ermakov", omega, "X", (0, 2), (1, 3), rows, (2,),
        invariants={"lewis_ermakov": lambda s: lewis_ermakov(s[0], s[2], s[1], s[3])})


def pinney_triple(omega: FrequencyProfile, k: float) -> SystemDef:
    """Pinney block in x alongside two oscillator copies y, z.

    State (x, y, z, vx, vy, vz); six-dimensional with three joint integrals.
    """
    def rows(w, p):
        x = _guard(p[0], "Pinney-triple field")
        return p[3], p[4], p[5], w * x + k / (x * x * x), w * p[1], w * p[2]

    def free_rows(w, p):  # k = 0: no force, so x = 0 is regular
        return p[3], p[4], p[5], w * p[0], w * p[1], w * p[2]

    return _second_order(
        "pinney_triple", omega, "N", (0, 1, 2), (3, 4, 5),
        rows if k != 0.0 else free_rows, (0,) if k != 0.0 else (), k=k,
        invariants={name: lambda s, i=i: ermakov_pair_invariants(s, k)[i]
                    for i, name in enumerate(("pair_i1", "pair_i2", "wronskian"))})


SYSTEM_FACTORIES = {
    "oscillator_1d": oscillator_1d,
    "oscillator_2d": oscillator_2d,
    "milne_pinney": milne_pinney,
    "ermakov": ermakov,
    "generalized_ermakov": generalized_ermakov,
    "pinney_triple": pinney_triple,
}
