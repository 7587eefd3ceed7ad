"""Adaptive Dormand-Prince 5(4) integration over s in [0, 1], numpy only.

The pair is the one of Dormand & Prince (1980), with the quartic dense
output of Shampine (1986).  The stepper repeats, float operation for float
operation and in the same order, what `scipy.integrate.solve_ivp` with
`method="RK45"` does in scipy 1.17.1 (`scipy/integrate/_ivp/rk.py`,
`common.py`, `base.py`, `ivp.py`): the tableau, `select_initial_step`, the
step-size controller, the stage sums of `rk_step`, the RMS error norm and
the `RkDenseOutput` interpolation at the requested samples.  Trajectories
and evaluation counts are bitwise scipy's, under `solve_ivp`'s scalar-type
contract; the test suite and `tools/rk45_parity.py` check that against scipy.

The entry point keeps scipy's name, `solve_ivp`, and its result keeps
`y`, `nfev`, `success` and `message`, so that code written against the
scipy call (and tools that look the function up by name) reads it alike.

The contract for the right-hand side `fun(s, y)`: it returns a real array
or a list of length `len(y0)`.  Its values are copied into the stepper's
stage rows and no reference to them is kept, so `fun` may refill and
return the same buffer on every call.  The count is scipy's,
`nfev` = 2 + 6 per step attempt: the start derivative, the one probe of
the starting-step choice, and six stages per attempt, the derivative at
the start of a step being the last stage of the step before (FSAL).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# Butcher tableau of the Dormand-Prince pair: nodes C, stage weights A,
# fifth-order weights B, error weights E (fifth minus fourth order, with
# the FSAL stage last) and the dense-output matrix P.
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# (node, weights) of stages 1..5, each weight row cut to the stages before it
STAGES = tuple((float(C[s]), A[s, :s]) for s in range(1, 6))

SAFETY = 0.9                  # multiplies the asymptotically optimal factor
MIN_FACTOR = 0.2              # largest decrease of the step in one rejection
MAX_FACTOR = 10               # largest increase of the step in one acceptance
ERROR_EXPONENT = -1 / (4 + 1)  # -1 / (error estimator order + 1)
# The step loop holds t, h and the step bounds as Python floats where scipy
# has numpy float64 scalars.  Both are IEEE doubles, and +, -, *, / and
# ** (C's pow) round alike on either, so every value is bitwise the same.
# scipy's direction, np.sign(t_bound - t0), is 1.0 on [0, 1]: its products
# are exact and are left out.

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
NOT_FINITE = "The start state or its derivative is not finite."
REACHED_END = "The solver successfully reached the end of the integration interval."


@dataclass
class Solution:
    y: np.ndarray          # shape (len(y0), len(t_eval)): the state at t_eval
    nfev: int              # right-hand side evaluations
    success: bool
    message: str


def _rms(x: np.ndarray) -> float:
    # np.linalg.norm of a real 1-D array is sqrt(x.dot(x))
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, y0, f0, rtol, atol, max_step):
    """Hairer-Norsett-Wanner starting step (scipy's `select_initial_step`)."""
    interval_length = 1.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = np.asarray(fun(0.0 + h0, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))
    return min(100 * h0, h1, interval_length, max_step)


def solve_ivp(fun, y0, t_eval, rtol: float, atol: float, max_step: float) -> Solution:
    """Integrate y' = fun(s, y) from s = 0 to s = 1 and sample at `t_eval`.

    `y0` is a real 1-D state, and `t_eval` an increasing array in [0, 1].
    The result equals that of scipy 1.17.1's
    `solve_ivp(fun, (0.0, 1.0), y0, method="RK45", t_eval=t_eval,
    rtol=rtol, atol=atol, max_step=max_step)` bit for bit, in `y` and in
    `nfev`, for any `rtol` of at least 100 machine epsilons (scipy raises
    a smaller one to that value; this stepper takes it as given).  When the
    step falls below ten spacings of the floating-point numbers at s (as
    when `fun` turns NaN part way) `success` is False and `message` is
    scipy's.  A start state or start derivative that is not finite fails
    at once with `NOT_FINITE`, where scipy's step loop would never end.

    `fun` gets s as a Python float where scipy passes a numpy float64, so
    the two agree when `fun`'s floats do not hang on that type: s times a
    Python complex is a numpy complex128 under scipy, which divides with
    other rounding, so `schlesinger.reduced_flow_compare` takes float(s).
    """
    t_eval = np.asarray(t_eval)
    if (t_eval.ndim != 1 or np.any(t_eval < 0.0) or np.any(t_eval > 1.0)
            or np.any(np.diff(t_eval) <= 0)):
        raise ValueError("t_eval must be an increasing 1-D array in [0, 1]")
    atol = np.asarray(atol)
    y = np.asarray(y0, dtype=float)
    # K[0] holds the derivative at the step's start (FSAL: the last step's
    # K[6]); row assignment converts what fun returns as np.asarray would
    K = np.empty((7, y.size))
    t = 0.0
    K[0] = fun(t, y)
    nfev = 2
    h_abs = _initial_step(fun, y, K[0], rtol, atol, max_step)
    if math.isnan(h_abs):
        # scipy would loop for ever: a NaN step is never below min_step
        return Solution(np.empty((y.size, 0)), nfev, False, NOT_FINITE)
    # K[:s].T for each stage, cut once: the same views, so the same dot calls
    KT = K.T
    stages = [(s, c, KT[:, :s], a) for s, (c, a) in enumerate(STAGES, start=1)]
    KT_b = KT[:, :6]
    root_n = y.size ** 0.5
    abs_y = np.abs(y)
    t_eval_list = t_eval.tolist()
    ys = []
    t_eval_i = 0
    message = REACHED_END
    success = True
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                success, message = False, TOO_SMALL_STEP
                break
            t_new = t + h_abs
            if t_new > 1.0:
                t_new = 1.0
            h = t_new - t
            h_abs = abs(h)
            # one Dormand-Prince step; K[6] is the derivative at the new point.
            # Each stage is scipy's y + np.dot(K[:s].T, a) * h, its products
            # and sums taken in place in the same order
            nfev += 6
            for s, c, k_cols, a in stages:
                dy = np.dot(k_cols, a)
                dy *= h
                dy += y
                K[s] = fun(t + c * h, dy)
            y_new = np.dot(KT_b, B)
            y_new *= h
            y_new += y
            K[6] = fun(t + h, y_new)
            abs_y_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol
            scale += atol
            err = np.dot(KT, E)
            err *= h
            err /= scale
            error_norm = math.sqrt(err.dot(err)) / root_n
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        if not success:
            break
        t_old, y_old = t, y
        t, y, abs_y = t_new, y_new, abs_y_new
        t_eval_i_new = bisect.bisect_right(t_eval_list, t)
        if t_eval_i_new > t_eval_i:
            # the quartic interpolant on [t_old, t] (scipy's RkDenseOutput);
            # the rows of p are x, x^2, x^3, x^4 multiplied up in cumprod's order
            Q = KT.dot(P)
            h_dense = t - t_old
            x = (t_eval[t_eval_i:t_eval_i_new] - t_old) / h_dense
            p = np.empty((4, x.size))
            p[0] = x
            for row in range(1, 4):
                np.multiply(p[row - 1], x, out=p[row])
            y_step = np.dot(Q, p)
            y_step *= h_dense
            y_step += y_old[:, None]
            ys.append(y_step)
            t_eval_i = t_eval_i_new
        K[0] = K[6]
        if t >= 1.0:
            break
    y_out = np.hstack(ys) if ys else np.empty((y.size, 0))
    return Solution(y_out, nfev, success, message)
