"""Error-controlled integration of non-autonomous systems, plus quadrature.

Every closed-form claim in the other modules is cross-validated against the
trajectories produced here, so the default tolerances are deliberately tight.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from .errors import IntegrationError, QuadratureError

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10

# Pinney-type systems have a genuine singularity at x = 0; integration aborts
# (rather than clamps) once a guarded coordinate comes this close to it.
SINGULARITY_RADIUS = 1e-6

# Default error bound of every tau quadrature, per panel.
TAU_TOL = 1e-12


@dataclass(frozen=True)
class FrequencyProfile:
    """A time-dependent squared frequency omega^2(t) with a display label."""

    omega_squared: Callable[[float], float]
    description: str = "custom"

    def __call__(self, t):
        return float(self.omega_squared(t))


class Trajectory:
    """A sampled solution curve with dense-output interpolation.

    ``states`` has one row per sample time.  Dense evaluation snaps to the
    stored states at sample times and otherwise uses the attached interpolant
    (the solver's own dense output, or a cubic Hermite spline built from
    supplied derivatives).  An ``interpolant`` maps a 1-D array of times to
    an array of shape (len(times), dimension).
    """

    def __init__(self, times, states, derivatives=None, interpolant=None, nfev=None):
        times = np.asarray(times, dtype=float)
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if times.ndim != 1 or len(times) != len(states):
            raise ValueError("times and states must have matching lengths")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.states = states
        self.nfev = nfev  # right-hand-side evaluations of the producing solve
        self._tau_clocks = {}
        if interpolant is not None:
            self._interp = interpolant
        elif derivatives is not None:
            derivatives = np.atleast_2d(np.asarray(derivatives, float))
            self._interp = CubicHermiteSpline(times, states, derivatives, axis=0)
        elif len(times) >= 4:
            self._interp = CubicSpline(times, states, axis=0)
        else:
            self._interp = None

    @property
    def dimension(self):
        return self.states.shape[1]

    @property
    def t0(self):
        return float(self.times[0])

    @property
    def t1(self):
        return float(self.times[-1])

    def dense(self, t):
        """State at time t (a scalar, or rows for an array); exact at sample
        times.  All off-sample times go to the interpolant in one call."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.reshape(-1)
        j = np.minimum(np.searchsorted(self.times, flat), len(self.times) - 1)
        on_node = self.times[j] == flat
        if on_node.all():
            out = self.states[j]
        elif self._interp is None:
            raise ValueError("trajectory has no interpolant and t is off-sample")
        else:
            off = ~on_node
            t_off = flat[off]
            # one spare time when the count equals the dimension, so that an
            # interpolant answering (dimension, n) cannot pass as (n, dimension)
            spare = len(t_off) == self.dimension
            rows = np.asarray(
                self._interp(np.append(t_off, t_off[0]) if spare else t_off),
                dtype=float)
            n = len(t_off) + spare
            if rows.shape != (n, self.dimension):
                raise ValueError(
                    f"the interpolant returned shape {rows.shape} for {n} times; "
                    f"it must map n times to shape (n, {self.dimension})")
            out = np.empty((len(flat), self.dimension))
            out[on_node] = self.states[j[on_node]]
            out[off] = rows[:len(t_off)]
        return out.reshape(t_arr.shape + (self.dimension,))

    def __call__(self, t):
        return self.dense(t)

    def component(self, i, t):
        return self.dense(t)[..., i]

    def position(self, t):
        return self.component(0, t)

    def velocity(self, t):
        return self.component(1, t)

    @property
    def initial_state(self):
        return self.states[0].copy()

    @property
    def final_state(self):
        return self.states[-1].copy()

    def tau_clock(self, tol=TAU_TOL):
        """The clock tau(t) = integral_{t0}^{t} dz / x(z)^2 of the position
        component, built on first use and shared by every later caller."""
        clock = self._tau_clocks.get(tol)
        if clock is None:
            clock = self._tau_clocks[tol] = TauClock(self, tol)
        return clock

    @classmethod
    def from_function(cls, f, times, derivative=None):
        """Sample a closed-form state map t -> R^n onto a grid."""
        times = np.asarray(times, dtype=float)
        states = np.array([np.atleast_1d(f(t)) for t in times], dtype=float)
        derivs = None
        if derivative is not None:
            derivs = np.array([np.atleast_1d(derivative(t)) for t in times], dtype=float)
        return cls(times, states, derivatives=derivs)


# Gauss-Kronrod 7/15 rule on [-1, 1] (the QUADPACK qk15 constants): abscissae
# +-_GK_X and 0, Kronrod weights _GK_WK, and Gauss weights _GK_WG on the Gauss
# abscissae (every other Kronrod one) and zero on the rest.
_GK_HALF = np.array([0.991455371120812639206854697526329,
                     0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926,
                     0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013,
                     0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245])
_GK_X = np.concatenate([-_GK_HALF, [0.0], _GK_HALF[::-1]])
_WK_HALF = [0.022935322010529224963732008058970,
            0.063092092629978553290700663189204,
            0.104790010322250183839876322541518,
            0.140653259715525918745189590510238,
            0.169004726639267902826583426598550,
            0.190350578064785409913256402421014,
            0.204432940075298892414161999234649]
_GK_WK = np.array(_WK_HALF + [0.209482141084727828012999174891714] + _WK_HALF[::-1])
_WG_HALF = [0.0, 0.129484966168869693270611432679082,
            0.0, 0.279705391489276667901467771423780,
            0.0, 0.381830050505118944950369775488975, 0.0]
_GK_WG = np.array(_WG_HALF + [0.417959183673469387755102040816327] + _WG_HALF[::-1])

# Bisections of one panel, and failed panels at once, before the clock gives
# up on its error bound (QUADPACK's quad stops at 500 subintervals).
_TAU_MAX_DEPTH = 10
_TAU_MAX_FAILED = 1 << 14


def _first_vanishing_node(x1):
    """Index of the first sample by which the position has come within 1e-9
    of zero or changed sign since t0; len(times) if that never happens."""
    xs = x1.states[:, 0]
    vanished = ((np.minimum.accumulate(np.abs(xs)) < 1e-9)
                | (np.minimum.accumulate(xs) * np.maximum.accumulate(xs) < 0.0))
    return int(np.argmax(vanished)) if vanished[-1] else len(xs)


def _panel_integrals(x1, a, b, tol):
    """integral_a^b dz / x1(z)^2 for arrays of panels, each by GK 7/15.

    Every panel of a pass is sampled in one dense call.  A panel whose
    |K15 - G7| exceeds max(tol, tol |K15|) is bisected and retried.
    """
    total = np.zeros(len(a))
    owner = np.arange(len(a))
    for depth in range(_TAU_MAX_DEPTH + 1):
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        z = centre[:, None] + half[:, None] * _GK_X
        x = x1.position(z)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = 1.0 / x ** 2
        bad = ~np.isfinite(f)
        if bad.any():
            at = float(z[bad][0])
            raise QuadratureError(
                f"non-finite integrand sample at t = {at:.12g}", abscissa=at
            )
        # row sums, not a matrix product, so a panel's value does not depend
        # on how many panels share the call
        kronrod = half * (f * _GK_WK).sum(axis=1)
        gauss = half * (f * _GK_WG).sum(axis=1)
        fail = np.abs(kronrod - gauss) > np.maximum(tol, tol * np.abs(kronrod))
        np.add.at(total, owner[~fail], kronrod[~fail])
        if not fail.any():
            return total
        a, b, owner = a[fail], b[fail], owner[fail]
        if depth == _TAU_MAX_DEPTH or len(a) > _TAU_MAX_FAILED:
            break
        mid = 0.5 * (a + b)
        a, b, owner = (np.concatenate([a, mid]), np.concatenate([mid, b]),
                       np.concatenate([owner, owner]))
    raise QuadratureError(
        f"tau quadrature error above {tol:.1e} after repeated bisection "
        f"near t = {float(a[0]):.12g}", abscissa=float(a[0])
    )


class TauClock:
    """tau(t) = integral_{t0}^{t} dz / x1(z)^2 of one particular solution x1.

    Node values are the running sum of one GK 7/15 panel per node interval
    (solver steps or spline knots, so the integrand is smooth inside each);
    an off-node t adds one partial panel from the node below it.  The clock
    covers the samples before the first one at which x1 vanishes; asking for
    tau at or beyond that sample raises QuadratureError.
    """

    def __init__(self, x1, tol=TAU_TOL):
        self._x1, self._tol = x1, tol
        times = x1.times
        m = _first_vanishing_node(x1)
        if m == 0:
            self._limit = -np.inf  # every window [t0, t] holds the sample t0
        elif m < len(times):
            self._limit = times[m] - 1e-12
        else:
            self._limit = np.inf
        times = times[:max(m, 1)]
        # tau at every sample the clock covers
        self.nodes = np.concatenate(
            [[0.0], np.cumsum(_panel_integrals(x1, times[:-1], times[1:], tol))])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.reshape(-1)
        if np.any(flat >= self._limit):
            raise QuadratureError(
                "the position component vanishes inside the quadrature window"
            )
        times = self._x1.times
        j = np.minimum(np.searchsorted(times, flat), len(times) - 1)
        on_node = times[j] == flat
        out = np.empty(len(flat))
        out[on_node] = self.nodes[j[on_node]]
        off = ~on_node
        if off.any():
            lo = np.maximum(j[off], 1) - 1
            out[off] = self.nodes[lo] + _panel_integrals(
                self._x1, times[lo], flat[off], self._tol)
        return out.reshape(t_arr.shape)[()]  # a scalar t gives a scalar


class LaneDOP853(DOP853):
    """DOP853 over ``lanes`` states stacked component-major: entry
    i * lanes + j of the stacked vector is component i of lane j.

    The step-size control sees the maximum over lanes of scipy's own DOP853
    error norm on each lane's slice (Hairer-Norsett-Wanner, Solving ODEs I,
    II.5), so every accepted step passes each lane's own error test at the
    unchanged tolerances.  Scipy's RMS norm over the whole stack would let
    one lane's error exceed them by up to sqrt(lanes).
    """

    _E53 = np.vstack([DOP853.E5, DOP853.E3])

    def __init__(self, fun, t0, y0, t_bound, lanes, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.lanes = lanes

    def _estimate_error_norm(self, K, h, scale):
        # rows: the 5th- and 3rd-order error estimates over the stack
        err = np.dot(self._E53, K) / scale
        err *= err
        # per lane: the squared 2-norms |err5|^2 and |err3|^2
        sq = err.reshape(2, -1, self.lanes).sum(axis=1)
        denom = sq[0] + 0.01 * sq[1]
        denom[denom == 0.0] = 1.0  # both estimates zero: norm 0, as in DOP853
        dimension = len(scale) // self.lanes
        return abs(h) * float((sq[0] / np.sqrt(denom * dimension)).max())


def integrate_lanes(rhs, states, t_span, abs_tol=DEFAULT_ABS_TOL,
                    rel_tol=DEFAULT_REL_TOL, singular_coords=(),
                    singular_radius=SINGULARITY_RADIUS):
    """One adaptive DOP853 solve of y' = rhs(t, y) from every state at once;
    returns one Trajectory per state, all on the shared step grid.

    With n states of dimension d, ``rhs`` receives (d, n) blocks, one column
    per lane, and must return a block of the same shape; the error control
    is ``LaneDOP853``'s per-lane norm.  A single state is solved by scipy's
    own DOP853 on the (d,) point.  ``singular_coords`` lists state indices
    whose approach within ``singular_radius`` of zero, in any lane, aborts
    the solve (Pinney-type 1/x^3 terms).  Raises IntegrationError carrying
    the last good time on abort (the message names the lane) or failure.
    """
    lanes = np.asarray(states, dtype=float)
    if lanes.ndim != 2 or len(lanes) == 0:
        raise ValueError("states must be a nonempty list of equal-length vectors")
    n, d = lanes.shape
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ValueError("t_span must be nondegenerate")

    if n == 1:
        fun, y0, options = rhs, lanes[0], {"method": "DOP853"}
    else:
        def fun(t, y):
            return rhs(t, y.reshape(d, n)).reshape(-1)
        y0, options = lanes.T.reshape(-1), {"method": LaneDOP853, "lanes": n}

    # Signed event pair per guarded coordinate and lane: |y| - radius would
    # be positive on both sides of a fast zero crossing and the root finder
    # could step straight over it.
    events = []  # in the order (coordinate, lane, above/below)
    for i in singular_coords:
        for j in range(n):
            def hit_above(t, y, _k=i * n + j):
                return y[_k] - singular_radius
            def hit_below(t, y, _k=i * n + j):
                return y[_k] + singular_radius
            hit_above.terminal = True
            hit_below.terminal = True
            events.extend([hit_above, hit_below])

    sol = solve_ivp(
        fun, (t0, t1), y0, dense_output=True, rtol=rel_tol, atol=abs_tol,
        events=events or None, **options,
    )
    if sol.status == 1:
        where = ""
        if n > 1:
            hit = next(k for k, te in enumerate(sol.t_events) if len(te))
            where = f" in lane {hit // 2 % n}"
        raise IntegrationError(
            f"integration aborted near a singularity{where} at t = {sol.t[-1]:.6g}",
            last_time=float(sol.t[-1]),
        )
    if not sol.success:
        last = float(sol.t[-1]) if len(sol.t) else t0
        raise IntegrationError(
            f"integration failed: {sol.message} (last good time {last:.6g})",
            last_time=last,
        )

    times, stacked = sol.t, sol.y
    if t1 < t0:  # keep Trajectory times increasing for reverse-time solves
        times, stacked = times[::-1], stacked[:, ::-1]

    return [Trajectory(times, stacked[j::n].T,
                       interpolant=lambda t, j=j: sol.sol(t)[j::n].T,
                       nfev=int(sol.nfev))
            for j in range(n)]


def integrate(rhs, y0, t_span, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL,
              singular_coords=(), singular_radius=SINGULARITY_RADIUS):
    """Adaptive embedded Runge-Kutta (DOP853) solve of y' = rhs(t, y) from
    one state: ``integrate_lanes`` with a single lane."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    return integrate_lanes(rhs, [y0], t_span, abs_tol, rel_tol,
                           singular_coords, singular_radius)[0]


def quadrature(f, t_span, tol=1e-12):
    """Error-controlled integral of f over t_span (estimated error <= tol)."""
    a, b = float(t_span[0]), float(t_span[1])

    def checked(t):
        try:
            v = float(f(t))
        except ArithmeticError:
            raise QuadratureError(
                f"integrand not evaluable at t = {t:.12g}", abscissa=t
            ) from None
        if not np.isfinite(v):
            raise QuadratureError(
                f"non-finite integrand sample at t = {t:.12g}", abscissa=t
            )
        return v

    if a == b:
        return 0.0
    value, err = quad(checked, a, b, epsabs=tol, epsrel=tol, limit=500)
    if err > max(tol, tol * abs(value)) * 10.0:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.1e}"
        )
    return value


# --- frequency-profile library ------------------------------------------------

def constant_frequency(omega_squared=1.0):
    w2 = float(omega_squared)
    return FrequencyProfile(lambda t: w2, f"constant omega^2 = {w2:g}")


def two_plus_sin():
    """The smooth rough-test profile omega^2(t) = 2 + sin t."""
    return FrequencyProfile(lambda t: 2.0 + np.sin(t), "omega^2(t) = 2 + sin t")


def step_frequency(t_switch=5.0, before=1.0, after=4.0):
    b, a, ts = float(before), float(after), float(t_switch)
    return FrequencyProfile(
        lambda t: b if t < ts else a,
        f"step omega^2: {b:g} -> {a:g} at t = {ts:g}",
    )


FREQUENCY_PROFILES = {
    "constant": constant_frequency,
    "two_plus_sin": two_plus_sin,
    "step": step_frequency,
}
