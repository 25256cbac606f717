"""Factories for the concrete sl(2,R) Lie systems studied here.

Each factory packages a phase space, the generator realization, the
time-dependent coefficients and the structure constants into a SystemDef.
State layouts:

    oscillator_1d        (x, v)
    oscillator_2d        (x1, v1, x2, v2)
    milne_pinney         (x, v)
    ermakov              (x, vx, y, vy)       x: oscillator, y: Pinney (k = 1)
    generalized_ermakov  (x, vx, y, vy)
    pinney_triple        (x, y, z, vx, vy, vz) x: Pinney, y, z: oscillators
"""

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import DimensionMismatchError, SingularityError
from .integrate import (FrequencyProfile, DEFAULT_ABS_TOL, DEFAULT_REL_TOL,
                        integrate)
from .vectorfield import StructureConstants, VectorField, diagonal_prolongation, sl2_constants


_SHAPE_FD_STEP = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class ShapeFunctions:
    """The two coupling shapes of the generalized Ermakov system.

    ``df`` and ``dg`` are the derivatives; they feed the analytic Jacobian of
    the coupled generator, so supply them when available (a central-difference
    fallback covers user-provided shapes).
    """

    f: Callable[[float], float]
    g: Callable[[float], float]
    df: Callable[[float], float] = None
    dg: Callable[[float], float] = None
    description: str = "custom"

    def f_prime(self, u):
        if self.df is not None:
            return self.df(u)
        h = _SHAPE_FD_STEP * max(1.0, abs(u))
        return (self.f(u + h) - self.f(u - h)) / (2.0 * h)

    def g_prime(self, u):
        if self.dg is not None:
            return self.dg(u)
        h = _SHAPE_FD_STEP * max(1.0, abs(u))
        return (self.g(u + h) - self.g(u - h)) / (2.0 * h)


def zero_one_shapes():
    """f = 0, g = 1: the plain Ermakov coupling."""
    return ShapeFunctions(lambda u: 0.0, lambda u: 1.0,
                          lambda u: 0.0, lambda u: 0.0, "f(u) = 0, g(u) = 1")


def quadratic_shapes():
    """f(u) = u^2, g = 1: the standard nontrivial test coupling."""
    return ShapeFunctions(lambda u: u * u, lambda u: 1.0,
                          lambda u: 2.0 * u, lambda u: 0.0, "f(u) = u^2, g(u) = 1")


SHAPE_FUNCTIONS = {
    "zero_one": zero_one_shapes,
    "quadratic": quadratic_shapes,
}


@dataclass(frozen=True)
class SystemDef:
    """A Lie system: generators X_a, coefficients b_a(t), structure constants.

    ``fused`` is the closed form of sum_a b_a(t) X_a(p): the same
    expressions, singularity guards and order of summation as the generator
    sum, so the two agree bit for bit (the tests hold them equal).  The
    generators remain the source of truth for the algebra and rank checks.
    ``singular_coords`` are state indices whose vanishing is a genuine
    singularity; ``positive_coords`` are those confined to the chosen
    half-plane (x > 0 by default, x < 0 with half_plane = -1).
    """

    name: str
    dimension: int
    generators: Tuple[VectorField, ...]
    coefficients: Tuple[Callable[[float], float], ...]
    constants: StructureConstants
    fused: Callable[[float, np.ndarray], np.ndarray]
    singular_coords: Tuple[int, ...] = ()
    positive_coords: Tuple[int, ...] = ()
    half_plane: int = 1
    params: dict = field(default_factory=dict)

    def rhs(self, t, p):
        """sum_a b_a(t) X_a(p), evaluated through the ``fused`` closed form."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"point of shape {p.shape} on a system of dimension {self.dimension}"
            )
        return self.fused(t, p)

    def integrate(self, y0, t_span, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL):
        return integrate(self.rhs, y0, t_span, abs_tol, rel_tol,
                         singular_coords=self.singular_coords)

    def sample_domain(self, rng, count=1, low=-2.0, high=2.0, guard=0.1):
        """Seeded random probes in the guarded domain of this system."""
        probes = []
        while len(probes) < count:
            p = rng.uniform(low, high, size=self.dimension)
            if np.any(np.abs(p) < guard):
                continue
            for i in self.positive_coords:
                p[i] = self.half_plane * abs(p[i])
            probes.append(p)
        return probes


def _guard(x, what):
    if x == 0.0:
        raise SingularityError(f"{what} evaluated at its singularity x = 0")
    return x


def _coefficients(omega):
    """b = (-omega^2(t), 1, 0).  Every factory's fused field expands
    b_1 X_1 + b_2 X_2 in that order; b_3 = 0 drops X_3."""
    return (lambda t: -omega(t), lambda t: 1.0, lambda t: 0.0)


def oscillator_1d(omega: FrequencyProfile) -> SystemDef:
    """1-dim harmonic oscillator with time-dependent frequency, state (x, v)."""
    X1 = VectorField(
        2, lambda p: np.array([0.0, p[0]]),
        lambda p: np.array([[0.0, 0.0], [1.0, 0.0]]), name="X1",
    )
    X2 = VectorField(
        2, lambda p: np.array([p[1], 0.0]),
        lambda p: np.array([[0.0, 1.0], [0.0, 0.0]]), name="X2",
    )
    X3 = VectorField(
        2, lambda p: np.array([0.5 * p[0], -0.5 * p[1]]),
        lambda p: np.array([[0.5, 0.0], [0.0, -0.5]]), name="X3",
    )

    def fused(t, p):
        return np.array([p[1], -omega(t) * p[0]])

    return SystemDef(
        name="oscillator_1d", dimension=2, generators=(X1, X2, X3),
        coefficients=_coefficients(omega), constants=sl2_constants(),
        fused=fused, params={"frequency": omega.description},
    )


def oscillator_2d(omega: FrequencyProfile) -> SystemDef:
    """Isotropic 2-dim oscillator, state (x1, v1, x2, v2); generators are the
    diagonal prolongations of the 1-dim ones."""
    base = oscillator_1d(omega)
    gens = tuple(diagonal_prolongation(X, 2) for X in base.generators)

    def fused(t, p):
        w = -omega(t)
        return np.array([p[1], w * p[0], p[3], w * p[2]])

    return SystemDef(
        name="oscillator_2d", dimension=4, generators=gens,
        coefficients=_coefficients(omega), constants=sl2_constants(),
        fused=fused, params={"frequency": omega.description},
    )


def milne_pinney(omega: FrequencyProfile, k: float, half_plane: int = 1) -> SystemDef:
    """Isotonic oscillator x'' = -omega^2(t) x + k / x^3, state (x, v)."""
    k = float(k)
    L1 = VectorField(
        2, lambda p: np.array([0.0, p[0]]),
        lambda p: np.array([[0.0, 0.0], [1.0, 0.0]]), name="L1",
    )

    def l2(p):
        x = _guard(p[0], "Milne-Pinney field")
        return np.array([p[1], k / x**3])

    def l2_jac(p):
        x = _guard(p[0], "Milne-Pinney field")
        return np.array([[0.0, 1.0], [-3.0 * k / x**4, 0.0]])

    L2 = VectorField(2, l2, l2_jac, name="L2")
    L3 = VectorField(
        2, lambda p: np.array([0.5 * p[0], -0.5 * p[1]]),
        lambda p: np.array([[0.5, 0.0], [0.0, -0.5]]), name="L3",
    )

    def fused(t, p):
        x = _guard(p[0], "Milne-Pinney field")
        return np.array([p[1], -omega(t) * x + k / x**3])

    singular = (0,) if k != 0.0 else ()
    return SystemDef(
        name="milne_pinney", dimension=2, generators=(L1, L2, L3),
        coefficients=_coefficients(omega), constants=sl2_constants(),
        fused=fused, singular_coords=singular, positive_coords=singular,
        half_plane=int(half_plane),
        params={"k": k, "frequency": omega.description},
    )


def generalized_ermakov(omega: FrequencyProfile, shapes: ShapeFunctions,
                        half_plane: int = 1) -> SystemDef:
    """Coupled pair x'' = f(y/x)/x^3 - omega^2 x, y'' = g(y/x)/y^3 - omega^2 y.

    State (x, vx, y, vy); the domain excludes x = 0 and y = 0.
    """
    f, g = shapes.f, shapes.g

    N1 = VectorField(
        4, lambda p: np.array([0.0, p[0], 0.0, p[2]]),
        lambda p: np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]), name="N1",
    )

    def n2(p):
        x = _guard(p[0], "generalized Ermakov field")
        y = _guard(p[2], "generalized Ermakov field")
        u = y / x
        return np.array([p[1], f(u) / x**3, p[3], g(u) / y**3])

    def n2_jac(p):
        x = _guard(p[0], "generalized Ermakov field")
        y = _guard(p[2], "generalized Ermakov field")
        u = y / x
        fp, gp = shapes.f_prime(u), shapes.g_prime(u)
        J = np.zeros((4, 4))
        J[0, 1] = 1.0
        J[2, 3] = 1.0
        J[1, 0] = -y * fp / x**5 - 3.0 * f(u) / x**4
        J[1, 2] = fp / x**4
        J[3, 0] = -gp / (x**2 * y**2)
        J[3, 2] = gp / (x * y**3) - 3.0 * g(u) / y**4
        return J

    N2 = VectorField(4, n2, n2_jac, name="N2")
    N3 = VectorField(
        4, lambda p: 0.5 * np.array([p[0], -p[1], p[2], -p[3]]),
        lambda p: 0.5 * np.diag([1.0, -1.0, 1.0, -1.0]), name="N3",
    )

    def fused(t, p):
        x = _guard(p[0], "generalized Ermakov field")
        y = _guard(p[2], "generalized Ermakov field")
        u = y / x
        w = -omega(t)
        return np.array([p[1], w * x + f(u) / x**3, p[3], w * y + g(u) / y**3])

    return SystemDef(
        name="generalized_ermakov", dimension=4, generators=(N1, N2, N3),
        coefficients=_coefficients(omega), constants=sl2_constants(),
        fused=fused, singular_coords=(0, 2), positive_coords=(0, 2),
        half_plane=int(half_plane),
        params={"shapes": shapes.description, "frequency": omega.description},
    )


def ermakov(omega: FrequencyProfile, half_plane: int = 1) -> SystemDef:
    """Oscillator in x coupled to a k = 1 Pinney block in y, state (x, vx, y, vy)."""
    X1 = VectorField(
        4, lambda p: np.array([0.0, p[0], 0.0, p[2]]),
        lambda p: np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]), name="X1",
    )

    def x2(p):
        y = _guard(p[2], "Ermakov field")
        return np.array([p[1], 0.0, p[3], 1.0 / y**3])

    def x2_jac(p):
        y = _guard(p[2], "Ermakov field")
        J = np.zeros((4, 4))
        J[0, 1] = 1.0
        J[2, 3] = 1.0
        J[3, 2] = -3.0 / y**4
        return J

    X2 = VectorField(4, x2, x2_jac, name="X2")
    X3 = VectorField(
        4, lambda p: 0.5 * np.array([p[0], -p[1], p[2], -p[3]]),
        lambda p: 0.5 * np.diag([1.0, -1.0, 1.0, -1.0]), name="X3",
    )

    def fused(t, p):
        y = _guard(p[2], "Ermakov field")
        w = -omega(t)
        return np.array([p[1], w * p[0], p[3], w * y + 1.0 / y**3])

    return SystemDef(
        name="ermakov", dimension=4, generators=(X1, X2, X3),
        coefficients=_coefficients(omega), constants=sl2_constants(),
        fused=fused, singular_coords=(2,), positive_coords=(2,),
        half_plane=int(half_plane),
        params={"frequency": omega.description},
    )


def pinney_triple(omega: FrequencyProfile, k: float, half_plane: int = 1) -> SystemDef:
    """Pinney block in x alongside two oscillator copies y, z.

    State (x, y, z, vx, vy, vz); six-dimensional with three joint integrals.
    """
    k = float(k)

    N1 = VectorField(
        6, lambda p: np.array([0.0, 0.0, 0.0, p[0], p[1], p[2]]),
        lambda p: np.block([
            [np.zeros((3, 3)), np.zeros((3, 3))],
            [np.eye(3), np.zeros((3, 3))],
        ]), name="N1",
    )

    def n2(p):
        x = _guard(p[0], "Pinney-triple field")
        return np.array([p[3], p[4], p[5], k / x**3, 0.0, 0.0])

    def n2_jac(p):
        x = _guard(p[0], "Pinney-triple field")
        J = np.zeros((6, 6))
        J[0, 3] = J[1, 4] = J[2, 5] = 1.0
        J[3, 0] = -3.0 * k / x**4
        return J

    N2 = VectorField(6, n2, n2_jac, name="N2")
    N3 = VectorField(
        6, lambda p: 0.5 * np.array([p[0], p[1], p[2], -p[3], -p[4], -p[5]]),
        lambda p: 0.5 * np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), name="N3",
    )

    def fused(t, p):
        x = _guard(p[0], "Pinney-triple field")
        w = -omega(t)
        return np.array([p[3], p[4], p[5], w * x + k / x**3, w * p[1], w * p[2]])

    singular = (0,) if k != 0.0 else ()
    return SystemDef(
        name="pinney_triple", dimension=6, generators=(N1, N2, N3),
        coefficients=_coefficients(omega), constants=sl2_constants(),
        fused=fused, singular_coords=singular, positive_coords=singular,
        half_plane=int(half_plane),
        params={"k": k, "frequency": omega.description},
    )


SYSTEM_FACTORIES = {
    "oscillator_1d": oscillator_1d,
    "oscillator_2d": oscillator_2d,
    "milne_pinney": milne_pinney,
    "ermakov": ermakov,
    "generalized_ermakov": generalized_ermakov,
    "pinney_triple": pinney_triple,
}
