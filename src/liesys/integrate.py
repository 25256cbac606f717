"""Error-controlled integration of non-autonomous systems, plus quadrature.

Every closed-form claim in the other modules is cross-validated against the
trajectories produced here, so the default tolerances are deliberately tight.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _dop853 as rk
from .errors import IntegrationError, QuadratureError

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10

# Pinney-type systems have a genuine singularity at x = 0; integration aborts
# (rather than clamps) once a guarded coordinate comes this close to it.
SINGULARITY_RADIUS = 1e-6

# Error bound of every panel of a tau clock.
TAU_TOL = 1e-12

# A tau clock stops at the first sample at which |x1| < VANISHING_POSITION
# (or x1 has changed sign), and its window ends WINDOW_MARGIN before it.
VANISHING_POSITION = 1e-9
WINDOW_MARGIN = 1e-12


@dataclass(frozen=True)
class FrequencyProfile:
    """A time-dependent squared frequency omega^2(t) with a display label.

    ``omega_squared`` takes a time or an array of times.  The profile gives
    a float at a scalar time and an array of the shape of t at an array,
    one value per time, as a block of lanes at per-column times needs."""

    omega_squared: Callable[[float], float]
    description: str = "custom"

    def __call__(self, t):
        if t.__class__ is np.ndarray:
            return np.broadcast_to(np.asarray(self.omega_squared(t), dtype=float),
                                   t.shape)
        return float(self.omega_squared(t))


class Trajectory:
    """A sampled solution curve with dense-output interpolation.

    ``states`` has one row per sample time, in increasing time whichever
    way the solve ran: a reversed span's initial state is the last row.
    Dense evaluation snaps to the stored states at sample times and
    otherwise calls the ``interpolant``: the solver's own dense output, or a
    closed form (``from_function``).  An interpolant maps a 1-D array of
    times to an array of shape (len(times), dimension).  A solve's dense
    output would extrapolate outside the solve's span, so a solve's
    trajectory raises ValueError there; a closed form is read anywhere.
    """

    def __init__(self, times, states, interpolant, solve=None):
        times = np.asarray(times, dtype=float)
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if times.ndim != 1 or len(times) != len(states):
            raise ValueError("times and states must have matching lengths")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.states = states
        self._solve = solve  # the producing solve's _DenseOutput, shared by its lanes
        self._interp = interpolant
        self._tau_clock = None

    @property
    def nfev(self):
        """Right-hand-side evaluations of the producing solve so far (None
        without one): 2 + 12 per step attempt, plus 3 per accepted step once
        the dense output is built by the first off-sample evaluation (a
        block of steps counts one evaluation per step)."""
        return None if self._solve is None else self._solve.nfev

    @property
    def dimension(self):
        return self.states.shape[1]

    def dense(self, t):
        """State at time t (a scalar, or rows for an array); exact at sample
        times.  All off-sample times go to the interpolant in one call.  On a
        solve's trajectory, a time outside the span (NaN included) raises
        ValueError."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.reshape(-1)
        if self._solve is not None:
            lo, hi = self.times[0], self.times[-1]
            inside = (flat >= lo) & (flat <= hi)
            if not inside.all():
                raise ValueError(f"time {flat[~inside][0]:.6g} is outside the span "
                                 f"[{lo:.6g}, {hi:.6g}] of the solve")
        j = np.minimum(np.searchsorted(self.times, flat), len(self.times) - 1)
        on_node = self.times[j] == flat
        if on_node.all():
            out = self.states[j]
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

    def position(self, t):
        return self.dense(t)[..., 0]

    def tau_clock(self):
        """The clock tau(t) = integral_{t0}^{t} dz / x(z)^2 of the position
        component, built on first use and shared by every later caller."""
        if self._tau_clock is None:
            self._tau_clock = TauClock(self)
        return self._tau_clock

    @classmethod
    def from_function(cls, f, times):
        """A closed form sampled on a grid, with the closed form itself as
        interpolant: ``f`` maps a 1-D array of times to rows of states."""
        times = np.asarray(times, dtype=float)
        return cls(times, f(times), interpolant=f)


def compare(got, want, kind):
    """Per-sample error of ``got`` against the reference ``want`` (broadcast
    to it) in the max norm over each sample's components, the rows of 2-D
    input: |got - want| for ``kind`` "abs", over max(1, |want|) for "rel"."""
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(want, got.shape)
    err = np.max(np.abs(got - want).reshape(len(got), -1), axis=1)
    if kind == "rel":
        err = err / np.maximum(1.0, np.max(np.abs(want).reshape(len(got), -1), axis=1))
    return err


def worst(errors):
    """The largest of ``errors`` as a float, 0.0 for none: NaN when any is
    NaN (IEEE 754 maximum), so a verdict ``worst(errors) < bound`` fails it."""
    return float(np.max(np.asarray(errors, dtype=float), initial=0.0))


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

# Bisections of one panel, and failed panels at once, before a quadrature
# gives up on its error bound (QUADPACK's quad stops at 500 subintervals).
_GK_MAX_DEPTH = 10
_GK_MAX_FAILED = 1 << 14


def _first_vanishing_node(x1):
    """Index of the first sample by which the position has come within
    VANISHING_POSITION of zero or changed sign since t0; len(times) if that
    never happens."""
    xs = x1.states[:, 0]
    vanished = ((np.minimum.accumulate(np.abs(xs)) < VANISHING_POSITION)
                | (np.minimum.accumulate(xs) * np.maximum.accumulate(xs) < 0.0))
    return int(np.argmax(vanished)) if vanished[-1] else len(xs)


def _panel_integrals(f, a, b, tol):
    """integral_a^b f(z) dz for arrays of panels, each by GK 7/15; ``f``
    maps an array of abscissae to the integrand at each.

    Every panel of a pass is sampled in one call of f.  A panel whose
    |K15 - G7| exceeds max(tol, tol |K15|) is bisected and retried.
    """
    total = np.zeros(len(a))
    owner = np.arange(len(a))
    for depth in range(_GK_MAX_DEPTH + 1):
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        z = centre[:, None] + half[:, None] * _GK_X
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fz = f(z)
        bad = ~np.isfinite(fz)
        if bad.any():
            at = float(z[bad][0])
            raise QuadratureError(
                f"non-finite integrand sample at t = {at:.12g}", abscissa=at
            )
        # row sums, not a matrix product, so a panel's value does not depend
        # on how many panels share the call
        kronrod = half * (fz * _GK_WK).sum(axis=1)
        gauss = half * (fz * _GK_WG).sum(axis=1)
        fail = np.abs(kronrod - gauss) > np.maximum(tol, tol * np.abs(kronrod))
        np.add.at(total, owner[~fail], kronrod[~fail])
        if not fail.any():
            return total
        a, b, owner = a[fail], b[fail], owner[fail]
        if depth == _GK_MAX_DEPTH or len(a) > _GK_MAX_FAILED:
            break
        mid = 0.5 * (a + b)
        a, b, owner = (np.concatenate([a, mid]), np.concatenate([mid, b]),
                       np.concatenate([owner, owner]))
    raise QuadratureError(
        f"quadrature error above {tol:.1e} after repeated bisection "
        f"near t = {float(a[0]):.12g}", abscissa=float(a[0])
    )


class TauClock:
    """tau(t) = integral_{t0}^{t} dz / x1(z)^2 of one particular solution x1.

    Node values are the running sum of one GK 7/15 panel per node interval
    (solver steps, or the sample grid of a closed form), each to TAU_TOL; an
    off-node t adds one partial panel from the node below it.  The clock
    covers the samples before the first one at which x1 vanishes; asking for
    tau at or beyond that sample raises QuadratureError, whose ``last_time``
    is the last sample covered (None when x1 vanishes at t0).
    """

    def __init__(self, x1):
        self._x1 = x1
        self._f = lambda z: 1.0 / x1.position(z) ** 2
        times = x1.times
        m = _first_vanishing_node(x1)
        self._last_time = float(times[m - 1]) if m > 0 else None
        if m == 0:
            self._limit = -np.inf  # every window [t0, t] holds the sample t0
        elif m < len(times):
            self._limit = times[m] - WINDOW_MARGIN
        else:
            self._limit = np.inf
        times = times[:max(m, 1)]
        self._last = None  # (off-node times, tau there) of the last call
        # tau at every sample the clock covers
        self.nodes = np.concatenate(
            [[0.0], np.cumsum(_panel_integrals(self._f, times[:-1], times[1:], TAU_TOL))])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.reshape(-1)
        if np.any(flat >= self._limit):
            raise QuadratureError(
                "the position component vanishes inside the quadrature window",
                last_time=self._last_time)
        times = self._x1.times
        j = np.minimum(np.searchsorted(times, flat), len(times) - 1)
        on_node = times[j] == flat
        out = np.empty(len(flat))
        out[on_node] = self.nodes[j[on_node]]
        off = ~on_node
        if off.any():
            out[off] = self._between_nodes(flat[off], np.maximum(j[off], 1) - 1)
        return out.reshape(t_arr.shape)[()]  # a scalar t gives a scalar

    def _between_nodes(self, t, lo):
        """tau at the off-node times t, from the node lo below each and one
        partial panel.  The clock keeps its last such times and values, so
        callers that ask for the same times integrate them once: a reduction
        and the tau column of its CSV, or several reductions on one x1."""
        if self._last is None or not np.array_equal(self._last[0], t):
            self._last = t, self.nodes[lo] + _panel_integrals(
                self._f, self._x1.times[lo], t, TAU_TOL)
        return self._last[1]


# --- the DOP853 lane driver --------------------------------------------------
#
# Dormand-Prince 8(5,3) with the step-size control of Hairer, Norsett and
# Wanner's DOP853 (Solving ODEs I, II.4-II.5), written operation for operation
# as scipy 1.17's solve_ivp(..., method="DOP853") does it, so a one-lane solve
# reproduces scipy's times, states, dense output and nfev bit for bit.

SAFETY = 0.9  # multiplies the step size the error norm asks for
MIN_FACTOR = 0.2  # a rejected attempt shrinks the step by at most this factor
MAX_FACTOR = 10  # an accepted step lets the next one grow by at most this
_ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimator + 1)
EPS = np.finfo(float).eps
# The smallest rel_tol a solve runs at, scipy's DOP853 floor
MIN_REL_TOL = 100 * EPS
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Lanes up to which a solve whose rhs takes the float form (integrate_lanes'
# float_form) hands it each stage as Python floats: up to here numpy's fixed
# cost per call on a few entries outweighs its per-entry speed (the crossover
# table is in CHANGES.md).
FLOAT_LANES = 5

# Accepted steps one solve may take before it stops with IntegrationError;
# the longest solve of the shipped scenarios and of verify takes 732.
MAX_STEPS = 10_000

# Accepted steps whose dense output one block pass builds: each extra stage
# is one rhs call on all of them, and the transient stage arrays hold this
# many steps however long the solve.
DENSE_CHUNK = 256

# stages 1-11 of a step: the row of A over the stages before it, and its node
_STAGES = [(rk.A[s, :s], float(rk.C[s])) for s in range(1, rk.N_STAGES)]
_EXTRA_STAGES = [(a[:s], c) for s, (a, c) in
                 enumerate(zip(rk.A_EXTRA, rk.C_EXTRA), start=rk.N_STAGES + 1)]
_E53 = np.vstack([rk.E5, rk.E3])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t1, direction, rtol, atol):
    """Size of the first step (Hairer-Norsett-Wanner II.4)."""
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval_length))


def lane_error_norm(K, h, scale, lanes):
    """DOP853's step-error norm of each lane, maximised over the lanes.

    ``K`` holds a step's 13 stages over ``lanes`` states stacked
    component-major (entry i * lanes + j is component i of lane j) and
    ``scale`` the tolerance atol + rtol |y| of each entry.  A lane's norm is
    |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) d) on its own slice, so every
    accepted step passes each lane's own error test at the unchanged
    tolerances; the RMS norm over the whole stack would let one lane's error
    exceed them by up to sqrt(lanes).
    """
    if lanes == 1:  # DOP853's own expression; sqrt(e . e) is np.linalg.norm's
        err5 = np.dot(K.T, rk.E5) / scale
        err3 = np.dot(K.T, rk.E3) / scale
        err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))
    # rows: the 5th- and 3rd-order error estimates over the stack
    err = np.dot(_E53, K) / scale
    err *= err
    # per lane: the squared 2-norms |e5|^2 and |e3|^2
    sq = err.reshape(2, -1, lanes).sum(axis=1)
    denom = sq[0] + 0.01 * sq[1]
    denom[denom == 0.0] = 1.0  # both estimates zero: norm 0, as in DOP853
    dimension = len(scale) // lanes
    return abs(h) * float((sq[0] / np.sqrt(denom * dimension)).max())


def _stage_plan(K):
    """The views of the stage array K that every step of a solve reads: for
    stages 1-11, the stages before it as columns, its row of A and its
    node; then stages 0-11 as columns, for the weights B."""
    return [(K[:s].T, a, c) for s, (a, c) in enumerate(_STAGES, start=1)], K[:-1].T


def _rk_step(fun, t, y, f, h, K, plan, floats):
    """One step of size h from (t, y), where f = fun(t, y): the 8th-order
    state at t + h and its derivative.  The 13 stages are left in K, whose
    ``_stage_plan`` is ``plan``.  With ``floats`` lanes (0: none) fun takes
    the stacked states as lists of Python floats and that lane count, and
    gives a list: a stage state is still y + (A row . K) h, its products
    BLAS's and each entry's two roundings numpy's."""
    stages, before_b = plan
    K[0] = f
    if floats:
        yl = y.tolist()
        for s, (before, a, c) in enumerate(stages, start=1):
            K[s] = fun(t + c * h, [yi + di * h for yi, di in
                                   zip(yl, np.dot(before, a).tolist())], floats)
    else:
        for s, (before, a, c) in enumerate(stages, start=1):
            K[s] = fun(t + c * h, y + np.dot(before, a) * h)
    y_new = y + h * np.dot(before_b, rk.B)
    f_new = fun(t + h, y_new.tolist(), floats) if floats else fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _dense_coefficients(block, K, t_old, y_old, y, h, lanes):
    """The 7 coefficient rows of the interpolant of each of a run of
    accepted steps, shape (steps, 7, N), from their start times, start and
    end states and sizes.  ``K`` holds each step's stages, shape (steps, 16,
    N) with the first 13 filled.  Each extra stage below them is one call
    of ``block`` on a (d, steps * lanes) block whose column step * lanes + j
    is lane j at that step's node time.  The stacked products round as
    np.dot does on each step's slice."""
    steps, _, size = K.shape
    d = size // lanes
    h_col = h[:, None]
    for s, (a, c) in enumerate(_EXTRA_STAGES, start=rk.N_STAGES + 1):
        dy = np.matmul(K[:, :s].transpose(0, 2, 1), a) * h_col
        points = (y_old + dy).reshape(steps, d, lanes).transpose(1, 0, 2)
        f = block(np.repeat(t_old + c * h, lanes), points.reshape(d, -1))
        K[:, s] = f.reshape(d, steps, lanes).transpose(1, 0, 2).reshape(steps, size)
    F = np.empty((steps, rk.INTERPOLATOR_POWER, size))
    f_old = K[:, 0]
    delta_y = y - y_old
    F[:, 0] = delta_y
    F[:, 1] = h_col * f_old - delta_y
    F[:, 2] = 2 * delta_y - h_col * (K[:, rk.N_STAGES] + f_old)
    F[:, 3:] = h[:, None, None] * np.matmul(rk.D, K)
    return F


def _horner(x, F, y_old):
    """The step interpolants at step fractions x, one point per row: F holds
    each point's (7, N) coefficient rows and y_old its step's start state."""
    x = x[:, None]
    y = np.zeros((len(x), F.shape[2]))
    for i in range(rk.INTERPOLATOR_POWER):
        y += F[:, -1 - i]
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


class _DenseOutput:
    """The interpolants of all accepted steps of one solve of ``lanes``
    lanes, evaluated for every requested time in one batched pass.  A time
    on a step boundary takes the earlier step, and times outside the span
    take the end steps (Trajectory.dense asks for none).

    ``K`` lists each step's 13 stages, one array a step.  The first
    evaluation builds every step's coefficients from them, DENSE_CHUNK
    steps to a call of ``block``, and drops them; ``nfev``, the solve's fun
    calls, then grows by the 3 extra stages of each step."""

    def __init__(self, block, lanes, ts, ys, K, nfev):
        self.t_old, self.h, self.y_old = ts[:-1], ts[1:] - ts[:-1], ys[:-1]
        self._block, self._lanes, self._y, self._K = block, lanes, ys[1:], K
        self.F = None
        self.nfev = nfev
        # times as an ascending key in either direction; negation is exact
        self._sign = np.copysign(1.0, ts[-1] - ts[0])
        self._key = ts * self._sign

    def _build(self):
        steps, size = self._y.shape
        F = np.empty((steps, rk.INTERPOLATOR_POWER, size))
        for lo in range(0, steps, DENSE_CHUNK):
            part = slice(lo, lo + DENSE_CHUNK)
            stages = self._K[part]
            K = np.empty((len(stages), rk.N_STAGES_EXTENDED, size))
            K[:, :rk.N_STAGES + 1] = stages
            F[part] = _dense_coefficients(self._block, K, self.t_old[part],
                                          self.y_old[part], self._y[part], self.h[part],
                                          self._lanes)
        self.nfev += len(_EXTRA_STAGES) * steps
        self.F, self._block, self._K = F, None, None

    def __call__(self, t, lane=0):
        """States of lane ``lane`` at the times t, one per row."""
        if self.F is None:
            self._build()
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self._key, t * self._sign) - 1, 0, len(self.h) - 1)
        cols = slice(lane, None, self._lanes)
        x = (t - self.t_old[seg]) / self.h[seg]
        return _horner(x, self.F[seg, :, cols], self.y_old[seg, cols])


def _brentq(f, xa, xb):
    """A root of f between xa and xb, where f changes sign, by Brent's method
    (Algorithms for Minimization without Derivatives, ch. 4) as scipy's
    brentq runs it with xtol = rtol = 4 EPS, step for step.  After 100 steps
    it returns the current iterate, where scipy raises."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best iterate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (4 * EPS + 4 * EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def _singularity_abort(active, guard, t_old, t, dense, lanes):
    """IntegrationError at the earliest root, inside the step from t_old to
    t, of the guard events that changed sign (event e is the stacked
    state's entry guard[e // 2] minus (e even) or plus (e odd) the radius),
    read off ``dense``, the step's _DenseOutput."""

    def event(s, e):
        component, lane = divmod(int(guard[e // 2]), lanes)
        return dense(np.array([s]), lane)[0, component] + _GUARD_OFFSETS[e % 2]

    roots = np.asarray([_brentq(lambda s: event(s, e), t_old, t)
                        for e in active])
    first = (np.argsort(roots) if t > t_old else np.argsort(-roots))[0]
    root = roots[first]
    where = f" in lane {active[first] // 2 % lanes}" if lanes > 1 else ""
    return IntegrationError(
        f"integration aborted near a singularity{where} at t = {root:.6g}",
        last_time=float(root),
    )


_GUARD_OFFSETS = np.array([-SINGULARITY_RADIUS, SINGULARITY_RADIUS])


def _guard_values(y, guard):
    """The guard events at the stacked state y, whose entries ``guard`` are
    kept outside (-SINGULARITY_RADIUS, SINGULARITY_RADIUS)."""
    # one signed pair per entry: |y| - radius would be positive on both
    # sides of a fast zero crossing and the crossing would go unseen
    return (y[guard][:, None] + _GUARD_OFFSETS).ravel()


def _dop853(fun, block, y0, t0, t1, rtol, atol, lanes, guard, floats):
    """Adaptive DOP853 from (t0, y0) to t1: the accepted times, the states
    (one row per time), the list of each accepted step's 13 stages, and the
    number of fun calls.  ``floats``, unless None, is fun on the stacked
    state as a list of Python floats and the lane count, giving a list: the
    steps' stages call it (see _rk_step).  Raises IntegrationError with the
    last good time when the derivative at t0 is not finite (t0 is then the
    last good time), when the step size underflows or is NaN, when an entry of the
    state that ``guard`` indexes (None: no entry) comes within
    SINGULARITY_RADIUS of zero (``block`` then builds the dense output of
    that step, see _DenseOutput), or after MAX_STEPS steps short of t1.
    Times, step sizes and error norms are Python floats."""
    direction = 1.0 if t1 > t0 else -1.0
    f = np.asarray(fun(t0, y0), dtype=float)
    if not np.isfinite(f).all():
        raise IntegrationError(
            f"integration failed: the derivative at t0 is not finite "
            f"(last good time {t0:.6g})", last_time=t0)
    h_abs = _initial_step(fun, t0, y0, f, t1, direction, rtol, atol)
    nfev = 2
    K = np.empty((rk.N_STAGES + 1, len(y0)))  # one step's 13 stages
    plan = _stage_plan(K)
    t, y = t0, y0
    ts, ys, Ks = [t], [y], []
    g = _guard_values(y, guard) if guard is not None else None
    step, float_lanes = (fun, 0) if floats is None else (floats, lanes)
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        abs_y = np.abs(y)
        while True:
            if not (h_abs >= min_step):  # a NaN step size stops here too
                raise IntegrationError(
                    f"integration failed: {_TOO_SMALL_STEP} (last good time {t:.6g})",
                    last_time=t,
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = _rk_step(step, t, y, f, h, K, plan, float_lanes)
            nfev += rk.N_STAGES
            scale = atol + np.maximum(abs_y, np.abs(y_new)) * rtol
            error_norm = lane_error_norm(K, h, scale, lanes)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        h_abs *= factor

        if guard is not None:
            g_new = _guard_values(y_new, guard)
            active = np.nonzero(((g <= 0) & (g_new >= 0)) | ((g >= 0) & (g_new <= 0)))[0]
            if active.size:
                dense = _DenseOutput(block, lanes, np.array([t, t_new]),
                                     np.array([y, y_new]), [K], nfev)
                raise _singularity_abort(active, guard, t, t_new, dense, lanes)
            g = g_new
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        Ks.append(K.copy())
        if direction * (t - t1) >= 0:
            return np.array(ts), np.array(ys), Ks, nfev
        if len(Ks) >= MAX_STEPS:
            raise IntegrationError(
                f"integration stopped after {len(Ks)} steps (last good time {t:.6g})",
                last_time=t,
            )


def integrate_lanes(rhs, states, t_span, abs_tol=DEFAULT_ABS_TOL,
                    rel_tol=DEFAULT_REL_TOL, singular_coords=(), float_form=False):
    """One adaptive DOP853 solve of y' = rhs(t, y) from every state at once;
    returns one Trajectory per state, all on the shared step grid.

    With n states of dimension d, the steps call ``rhs`` on (d, n) blocks,
    one column per lane, at one time t, and it must return a block of the
    same shape; a single state is solved on the (d,) point.  The dense
    output, built on first use off the step grid, calls ``rhs`` on (d, m)
    blocks of several steps' lanes with an array of m times, one per
    column, for a single state too; each column of the result must be
    that column's derivative at its own time, bit for bit as on that
    column alone.  The error control is ``lane_error_norm``.
    ``float_form`` declares that ``rhs`` also takes (t, floats, n): the
    stacked state as a list of d * n Python floats, entry i * n + j
    component i of lane j, and the lane count n; it gives a list in the
    same layout, bit for bit the block's values (as ``SystemDef.rhs``
    does).  A solve of at most FLOAT_LANES lanes then hands it each stage
    that way.  ``singular_coords`` lists state indices whose
    approach within SINGULARITY_RADIUS of zero, in any lane, aborts the
    solve (Pinney-type 1/x^3 terms).  Raises IntegrationError carrying the
    last good time on abort (the message names the lane), on failure (a
    non-finite derivative at t0 among them), or past MAX_STEPS steps.
    Raises ValueError for a non-finite tolerance or t_span entry, and for a
    rel_tol below MIN_REL_TOL, the solver's floor.
    """
    lanes = np.asarray(states, dtype=float)
    if lanes.ndim != 2 or lanes.size == 0:
        raise ValueError("states must be a nonempty list of equal-length vectors")
    if not np.isfinite(lanes).all():
        raise ValueError("all components of the initial states must be finite")
    # each check fails on NaN
    if not (0.0 <= abs_tol < math.inf):
        raise ValueError("abs_tol must be finite and not negative")
    if not (MIN_REL_TOL <= rel_tol < math.inf):
        raise ValueError("rel_tol must be finite and at least 100 machine epsilons "
                         f"({MIN_REL_TOL:.6g}), the solver's floor")
    n, d = lanes.shape
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (-math.inf < t0 < math.inf and -math.inf < t1 < math.inf):
        raise ValueError("t_span must be finite")
    if t0 == t1:
        raise ValueError("t_span must be nondegenerate")

    if n == 1:  # stage values go straight into the float stage array
        y0, fun = lanes[0], rhs
    else:
        y0 = lanes.T.reshape(-1)

        def fun(t, y):
            return np.asarray(rhs(t, y.reshape(d, n)), dtype=float).reshape(-1)

    def block(t, z):
        return np.asarray(rhs(t, z), dtype=float).reshape(z.shape)

    guard = None
    if len(singular_coords):
        guard = np.array([i * n + j for i in singular_coords for j in range(n)])
    floats = rhs if float_form and n <= FLOAT_LANES else None
    times, stacked, K, nfev = _dop853(fun, block, y0, t0, t1, rel_tol, abs_tol, n, guard,
                                      floats)
    dense = _DenseOutput(block, n, times, stacked, K, nfev)
    if t1 < t0:  # keep Trajectory times increasing for reverse-time solves
        times, stacked = times[::-1], stacked[::-1]
    return [Trajectory(times, stacked[:, j::n],
                       interpolant=lambda t, j=j: dense(t, j), solve=dense)
            for j in range(n)]


def integrate(rhs, y0, t_span, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL,
              singular_coords=(), float_form=False):
    """Adaptive embedded Runge-Kutta (DOP853) solve of y' = rhs(t, y) from
    one state: ``integrate_lanes`` with a single lane."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    return integrate_lanes(rhs, [y0], t_span, abs_tol, rel_tol, singular_coords,
                           float_form)[0]


def quadrature(f, t_span, tol=1e-12):
    """integral of the scalar function f over t_span by the tau clock's
    adaptive GK 7/15 rule (QUADPACK's qk15), from one panel: a panel whose
    |K15 - G7| exceeds max(tol, tol |K15|) is bisected, at most 10 times
    over.  QuadratureError past that, or where f is not finite or cannot be
    evaluated."""
    a, b = float(t_span[0]), float(t_span[1])
    if a == b:
        return 0.0

    def samples(z):
        values = []
        for t in z.ravel().tolist():
            try:
                values.append(f(t))
            except ArithmeticError:
                raise QuadratureError(
                    f"integrand not evaluable at t = {t:.12g}", abscissa=t) from None
        return np.reshape(values, z.shape)

    return float(_panel_integrals(samples, np.array([a]), np.array([b]), tol)[0])


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
        lambda t: np.where(t < ts, b, a),
        f"step omega^2: {b:g} -> {a:g} at t = {ts:g}",
    )


FREQUENCY_PROFILES = {
    "constant": constant_frequency,
    "two_plus_sin": two_plus_sin,
    "step": step_frequency,
}
