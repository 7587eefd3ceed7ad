"""Floating-point verification of the rank-three isomonodromy reduction.

Residue quadruples (B1, B2, B3, B4) are sampled with prescribed eigenvalue
data, the flow

    dB1/dt = [B3, B1] / t,    dB2/dt = [B3, B2] / (t - 1)

is integrated along a path (B4 held constant, B3 = -B4 - B1 - B2), and the
reduced two-variable flow in x = Tr(B1 B3), y = Tr(B2 B3), with
f = Tr(B1 [B2, B3]) carried along, is compared against it.  With B4
diagonal, each off-diagonal entry of z (z-1) (z-t) B(z) is linear in z;
the motion of its root is checked against the sixth Painleve equation,
with its derivatives read off the same flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from .params import LambdaMu, cubic_coeffs, theta_map, pvi_abcd
from .rk45 import solve_ivp


class DegenerateSampleError(RuntimeError):
    pass


class PathError(ValueError):
    pass


@dataclass
class ResidueConfig:
    b1: np.ndarray
    b2: np.ndarray
    b4: np.ndarray
    lm: LambdaMu


def _b4_eig_error(b4: np.ndarray, lm: LambdaMu) -> float:
    """Distance of the spectrum of B4 from (-mu1, -mu2, -mu3), both sorted."""
    eig = np.sort_complex(np.linalg.eigvals(b4))
    target = np.sort_complex(np.array([-float(m) for m in lm.mus], dtype=complex))
    return float(np.abs(eig - target).max())


def sample_residues(lm: LambdaMu, seed: int) -> ResidueConfig:
    """Random residue quadruple with the prescribed eigenvalue data.

    Builds the matrix M with diagonal (l1, l2, l3) whose characteristic
    polynomial is forced to prod (z - mu_i) by the cubic constants: the
    off-diagonal slots (1,3), (3,1), (2,3), (3,2) are drawn at random,
    w = c - x - y fixes the product b12 b21, and b12 solves the quadratic
    A b12^2 - (a x + b y + k) b12 + w B = 0.  Then B_i = e_i (x) (row i of M)
    and B4 = -M; B3 is not stored, as it is -B4 - B1 - B2 wherever needed.
    Refuses with DegenerateSampleError after 50 draws.
    """
    if not lm.sums_exact():
        raise ValueError("lambda/mu sums must agree exactly; use with_exact_sums()")
    a_c, b_c, k_c, c_c = (float(v) for v in cubic_coeffs(lm))
    rng = np.random.default_rng(seed)
    for _ in range(50):
        b13, b31, b23, b32 = rng.uniform(0.5, 1.5, size=4)
        x = b13 * b31
        y = b23 * b32
        w = c_c - x - y
        pi = a_c * x + b_c * y + k_c
        quad_a = b23 * b31
        quad_c = w * b13 * b32
        disc = pi * pi - 4 * quad_a * quad_c
        if abs(quad_a) < 1e-9:
            continue
        b12 = (pi + np.sqrt(complex(disc))) / (2 * quad_a)
        if abs(b12) < 1e-9:
            continue
        b21 = w / b12
        m = np.array([
            [float(lm.lambdas[0]), b12, b13],
            [b21, float(lm.lambdas[1]), b23],
            [b31, b32, float(lm.lambdas[2])],
        ], dtype=complex)
        b4 = -m
        if _b4_eig_error(b4, lm) < 1e-8:
            b1, b2 = (np.where(np.arange(3)[:, None] == i, m, 0) for i in range(2))
            return ResidueConfig(b1, b2, b4, lm)
    raise DegenerateSampleError("no valid sample after 50 draws")


# Largest condition number accepted for the eigenvector matrix of B4: past
# 1/sqrt(machine eps) the conjugated residues lose half their digits.
_MAX_GAUGE_COND = 1.0 / np.sqrt(np.finfo(float).eps)
# The least tol: 100 machine epsilons, below which rk45 no longer matches scipy.
MIN_TOL = 100 * float(np.finfo(float).eps)
# The bounds of `flow_ok` and `eta_ok`; the benchmark's perfbench/workloads.py
# keeps a frozen copy, which the tests compare with these.
DRIFT_BOUND, FLOW_BOUND, F_CONSISTENCY_BOUND, ETA_BOUND = 1e-8, 1e-6, 1e-8, 1e-3


def diagonalize_gauge(config: ResidueConfig) -> ResidueConfig:
    """Conjugate the quadruple so B4 = diag(-mu1, -mu2, -mu3).

    Raises DegenerateSampleError when the eigenvectors of B4 do not form a
    basis (condition number above 1/sqrt(machine eps)).  That happens for a
    repeated mu whose eigenspace is one-dimensional, as for G(3,3,3) with
    mu = (1/3, 1/3, 5/6): B4 is then not diagonalisable, and conjugating by
    the near-singular eigenvector matrix would give residues with entries
    near 1e8 and a flow no integrator finishes.
    """
    vals, vecs = np.linalg.eig(config.b4)
    target = [-float(m) for m in config.lm.mus]
    cols = []
    used = set()
    for t in target:
        j = min((j for j in range(3) if j not in used),
                key=lambda j: abs(vals[j] - t))
        used.add(j)
        cols.append(vecs[:, j])
    p = np.column_stack(cols)
    cond = np.linalg.cond(p)
    if cond > _MAX_GAUGE_COND:
        mus = ", ".join(map(str, config.lm.mus))
        raise DegenerateSampleError(
            f"B4 has no eigenbasis: mu = ({mus}) repeats a value whose "
            f"eigenspace is not full (eigenvector condition number "
            f"{cond:.2e} > {_MAX_GAUGE_COND:.2e})")
    pinv = np.linalg.inv(p)
    return ResidueConfig(pinv @ config.b1 @ p, pinv @ config.b2 @ p,
                         pinv @ config.b4 @ p, config.lm)


@dataclass
class Trajectory:
    ts: np.ndarray
    b1s: np.ndarray              # shape (n, 3, 3)
    b2s: np.ndarray
    b4: np.ndarray
    lm: LambdaMu

    def b3s(self) -> np.ndarray:
        return -self.b4[None, :, :] - self.b1s - self.b2s

    def xs(self) -> np.ndarray:
        return np.einsum("nij,nji->n", self.b1s, self.b3s())

    def ys(self) -> np.ndarray:
        return np.einsum("nij,nji->n", self.b2s, self.b3s())

    def ws(self) -> np.ndarray:
        return np.einsum("nij,nji->n", self.b1s, self.b2s)

    def fs(self) -> np.ndarray:
        b3 = self.b3s()
        comm = np.einsum("nij,njk->nik", self.b2s, b3) - np.einsum(
            "nij,njk->nik", b3, self.b2s)
        return np.einsum("nij,nji->n", self.b1s, comm)

    def eigenvalue_drift(self) -> float:
        """Max drift of the sorted eigenvalue triples of B1, B2, B3 from t0."""
        drift = 0.0
        for bs in (self.b1s, self.b2s, self.b3s()):
            eigs = np.sort(np.linalg.eigvals(bs), axis=-1)
            drift = max(drift, float(np.abs(eigs - eigs[0]).max()))
        return drift


def integrate_schlesinger(config: ResidueConfig, t_path: Sequence[complex],
                          tol: float = 1e-10, samples_per_segment: int = 200
                          ) -> Trajectory:
    """Integrate the residue flow along a piecewise-linear path.

    B4 stays constant; B3 is recovered from the zero-sum constraint.  The
    state is the stacked pair (B1, B2) split into 18 real and 18 imaginary
    parts; both commutators [B3, B1] / t and [B3, B2] / (t - 1) are taken as
    one stacked product.  Each segment is advanced with the adaptive
    Dormand-Prince 5(4) pair of `reflpvi.rk45` at local tolerance `tol`
    and sampled at `samples_per_segment` points.  That stepper's spec is
    scipy 1.17.1's `solve_ivp(method="RK45")`, which it reproduces bit for
    bit; it keeps the name `solve_ivp` and the `nfev` count, and stays a
    module attribute here, so that tools wrapping `schlesinger.solve_ivp`
    by name (the benchmark tracer counts `nfev` that way) still see it.
    `reduced_flow_compare` calls it by the same name, so such a count also
    takes in the reduced flow's evaluations.
    Raises PathError when the path has fewer than two points, a point not
    finite or a leg of zero length, comes within 0.001 of t = 0 or t = 1,
    or when a segment fails, and ValueError when `samples_per_segment` is
    below 1 or `tol` is not a finite value of at least `MIN_TOL`.
    """
    if samples_per_segment < 1:
        raise ValueError(f"samples_per_segment must be at least 1, not {samples_per_segment}")
    if not MIN_TOL <= tol < np.inf:
        raise ValueError(f"tol must be finite and at least {MIN_TOL}, not {tol}")
    pts = [complex(t) for t in t_path]
    if len(pts) < 2:
        raise PathError(f"a path needs at least two points, not {len(pts)}")
    for n, t in enumerate(pts):
        if not np.isfinite(t):
            raise PathError(f"path point {n}, {t}, is not finite")
    legs = [(a, b - a) for a, b in zip(pts, pts[1:])]
    if any(dt == 0 for _, dt in legs):
        raise PathError("a path leg has zero length")
    s_eval = np.linspace(0.0, 1.0, samples_per_segment + 1)
    ts = np.concatenate([a + s_eval[min(seg, 1):] * dt for seg, (a, dt) in enumerate(legs)])
    if np.min(np.abs(ts)) < 1e-3 or np.min(np.abs(ts - 1.0)) < 1e-3:
        raise PathError("path passes within 0.001 of a pole position")

    b4 = config.b4.copy()
    neg_b4 = -b4

    z0 = np.concatenate([config.b1.ravel(), config.b2.ravel()])
    state = np.concatenate([z0.real, z0.imag])
    bb_out = [np.stack([config.b1, config.b2])[None]]
    # the right-hand side's scratch: (B1, B2) and the divisors (t, t - 1)
    bb = np.empty((2, 3, 3), dtype=complex)
    bb_re, bb_im = bb.real.reshape(18), bb.imag.reshape(18)
    poles = np.empty((2, 1, 1), dtype=complex)
    for seg, (a, dt) in enumerate(legs):
        def rhs(s, y):
            bb_re[:] = y[:18]
            bb_im[:] = y[18:]
            t = a + s * dt
            poles[0, 0, 0] = t
            poles[1, 0, 0] = t - 1.0
            b3 = neg_b4 - bb[0] - bb[1]
            d = b3 @ bb - bb @ b3
            d /= poles
            d *= dt
            d = d.reshape(18)
            return np.concatenate((d.real, d.imag))

        sol = solve_ivp(rhs, state, s_eval, rtol=tol, atol=tol * 1e-2,
                        max_step=0.05)
        if not sol.success:
            raise PathError(f"integration failed on segment {seg}: {sol.message}")
        ys = sol.y[:, 1:]
        bb_out.append((ys[:18] + 1j * ys[18:]).T.reshape(-1, 2, 3, 3))
        state = sol.y[:, -1]

    samples = np.concatenate(bb_out)
    # contiguous copies: einsum's summation order depends on the strides
    return Trajectory(ts, samples[:, 0].copy(), samples[:, 1].copy(), b4, config.lm)


@dataclass
class ReducedFlowReport:
    max_deviation: float
    conservation_drift: float    # drift of w + x + y along the matrix flow
    f_consistency: float         # max |f_k^2 - f_squared(x_k, y_k)|


def reduced_flow_compare(traj: Trajectory) -> ReducedFlowReport:
    """Integrate the reduced flow and compare it with the matrix-flow
    coordinates.

    The flow dx/dt = f/(t-1), dy/dt = -f/t carries f along with
    df/dt = (F_x/(t-1) - F_y/t)/2, the derivative of f^2 = F(x, y) with the
    constants of `cubic_coeffs`, so that no square root or branch choice is
    needed where f crosses zero.  It starts from the matrix flow's first
    (x, y, f), runs with `solve_ivp` along the line from the first sample
    to the last, and `max_deviation` is the largest distance of its x and y
    from the matrix flow's at the samples.  Raises PathError when the
    samples do not run forward along one straight line, as on a path that
    turns back.
    """
    a_c, b_c, k_c, c_c = (float(v) for v in cubic_coeffs(traj.lm))
    xs_m, ys_m, fs_m = traj.xs(), traj.ys(), traj.fs()
    t0, dt = complex(traj.ts[0]), complex(traj.ts[-1] - traj.ts[0])
    if dt == 0:
        raise PathError("the reduced flow needs a path whose last point differs from its first")
    s_eval = (traj.ts - t0) / dt
    if np.abs(s_eval.imag).max() > 1e-9 or np.any(np.diff(s_eval.real) <= 0):
        raise PathError("the reduced flow needs samples along one straight line")

    # the state is (x, y, f) split into real and imaginary parts, and the
    # right-hand side runs on Python complex numbers, which cost less per
    # operation than numpy scalars
    def rhs(s, u):
        x, y, f = (u[:3] + 1j * u[3:]).tolist()
        t = t0 + s * dt
        lin = a_c * x + b_c * y + k_c
        fx = 2 * a_c * lin + 4 * y * (2 * x + y - c_c)
        fy = 2 * b_c * lin + 4 * x * (x + 2 * y - c_c)
        dx, dy, df = f / (t - 1.0) * dt, -f / t * dt, (fx / (t - 1.0) - fy / t) / 2 * dt
        return [dx.real, dy.real, df.real, dx.imag, dy.imag, df.imag]

    u0 = np.array([xs_m[0], ys_m[0], fs_m[0]])
    # the last position can round past 1.0, which solve_ivp refuses
    sol = solve_ivp(rhs, np.concatenate((u0.real, u0.imag)),
                    np.clip(s_eval.real, 0.0, 1.0), rtol=1e-10, atol=1e-12,
                    max_step=np.inf)
    if not sol.success:
        raise PathError(f"reduced flow integration failed: {sol.message}")
    xs_r, ys_r = sol.y[0] + 1j * sol.y[3], sol.y[1] + 1j * sol.y[4]
    max_dev = max(np.abs(xs_r - xs_m).max(), np.abs(ys_r - ys_m).max())
    wxy = traj.ws() + xs_m + ys_m
    conservation = float(np.abs(wxy - wxy[0]).max())
    lin = a_c * xs_m + b_c * ys_m + k_c
    f_squared = lin * lin + 4 * xs_m * ys_m * (xs_m + ys_m - c_c)
    f_cons = float(np.abs(fs_m ** 2 - f_squared).max())
    return ReducedFlowReport(float(max_dev), conservation, f_cons)


def flow_ok(drift: float, rep: ReducedFlowReport) -> bool:
    """The `verify schlesinger` verdict: the eigenvalue drift, the reduced
    flow's deviation and its f^2 consistency each below their bound."""
    return (drift < DRIFT_BOUND and rep.max_deviation < FLOW_BOUND
            and rep.f_consistency < F_CONSISTENCY_BOUND)


def trajectory_csv(traj: Trajectory, path: str) -> None:
    """Dump t, x, y, f and (in the diagonal gauge) each slot's eta for plotting."""
    import csv
    columns = {"t": traj.ts, "x": traj.xs(), "y": traj.ys(), "f": traj.fs()}
    try:
        etas = eta_derivatives(traj)
    except ValueError:
        etas = {}
    columns.update((f"eta_{i+1}{j+1}", eta) for (i, j), (eta, _, _) in etas.items())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(map(complex, vals) for vals in columns.values())))


@dataclass
class SlotResidual:
    slot: Tuple[int, int]
    residual: float
    best_perm: Optional[Tuple[int, int, int]]
    residuals_by_perm: Dict[Tuple[int, int, int], float]
    skipped: Optional[str] = None


def eta_derivatives(traj: Trajectory
                    ) -> Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each slot's root eta = N / L, with eta' and eta'' from the flow.

    In the gauge with B4 diagonal (else ValueError), entry (i, j) of
    z(z-1)(z-t) B(z) is -L_ij z + N_ij, with N = t B1 and
    L = (1 + t) B1 + t B2 + B3.  Slots i != j come in row-major order; one
    whose |L_ij| drops below 1e-8 is left out.  The quotient rule gives
    eta' = (N' - eta L') / L and eta'' = (N'' - 2 eta' L' - eta L'') / L.
    The Schlesinger equations give B1' = [B3, B1] / t,
    B2' = [B3, B2] / (t - 1) and B3' = -B1' - B2', so N' = B1 + [B3, B1]
    and N'' = B1' + [B3', B1] + [B3, B1'], and off the diagonal of the
    gauge, with d = diag(B4), L' = (d_i - d_j - 1) B3 and
    L'' = (1 + d_j - d_i) (B1' + B2').
    """
    if np.abs(traj.b4 - np.diag(np.diag(traj.b4))).max() > 1e-9:
        raise ValueError("eta extraction needs the gauge with B4 diagonal")
    b1, b2, b3 = traj.b1s, traj.b2s, traj.b3s()
    t = traj.ts[:, None, None]
    lin, const = (1 + t) * b1 + t * b2 + b3, t * b1
    b1p = (b3 @ b1 - b1 @ b3) / t
    b12p = b1p + (b3 @ b2 - b2 @ b3) / (t - 1.0)
    d = np.diag(traj.b4)
    gap = d[:, None] - d[None, :]
    lin_p, lin_pp = (gap - 1.0) * b3, (1.0 - gap) * b12p
    const_p = b1 + t * b1p
    const_pp = b1p + b1 @ b12p - b12p @ b1 + b3 @ b1p - b1p @ b3
    out = {}
    for i, j in permutations(range(3), 2):
        if np.abs(lin[:, i, j]).min() >= 1e-8:
            eta = const[:, i, j] / lin[:, i, j]
            etap = (const_p[:, i, j] - eta * lin_p[:, i, j]) / lin[:, i, j]
            etapp = (const_pp[:, i, j] - 2 * etap * lin_p[:, i, j]
                     - eta * lin_pp[:, i, j]) / lin[:, i, j]
            out[(i, j)] = (eta, etap, etapp)
    return out


def eta_pvi_residual(traj: Trajectory) -> Dict[Tuple[int, int], SlotResidual]:
    """PVI residual of each eta slot, per mu-permutation, at every sample.

    eta' and eta'' are those of `eta_derivatives`, so any sampled path
    serves, complex ones included.  For each slot the residual is reported
    for all six permutations of the mu's; the minimizing permutation is the
    one whose PVI parameters the slot obeys.  Slots whose root runs past
    modulus 50 or within 0.05 of {0, 1, t} are degenerate for this check
    and come back marked skipped.
    """
    abcds = {perm: tuple(float(v) for v in pvi_abcd(theta_map(traj.lm, perm)))
             for perm in permutations(range(3))}

    t = traj.ts
    out = {}
    for slot, (eta, etap, etapp) in eta_derivatives(traj).items():
        closeness = min(np.abs(eta).min(), np.abs(eta - 1).min(),
                        np.abs(eta - t).min())
        if np.abs(eta).max() > 50.0:
            out[slot] = SlotResidual(slot, float("inf"), None, {},
                                     skipped="root escapes to infinity")
            continue
        if closeness < 0.05:
            out[slot] = SlotResidual(slot, float("inf"), None, {},
                                     skipped="root approaches a singular point")
            continue
        # the PVI right-hand side
        #   (1/eta + 1/(eta-1) + 1/(eta-t)) eta'^2 / 2
        #     - (1/t + 1/(t-1) + 1/(eta-t)) eta'
        #     + eta (eta-1) (eta-t) / (t^2 (t-1)^2) * poly,
        #   poly = alpha + beta t / eta^2 + gamma (t-1) / (eta-1)^2
        #          + delta t (t-1) / (eta-t)^2,
        # with everything but poly computed once for the six permutations
        eta1, eta_t, t1 = eta - 1.0, eta - t, t - 1.0
        eta_terms = ((1.0 / eta + 1.0 / eta1 + 1.0 / eta_t) * etap ** 2 / 2
                     - (1.0 / t + 1.0 / t1 + 1.0 / eta_t) * etap)
        poly_weight = eta * eta1 * eta_t / (t ** 2 * t1 ** 2)
        eta_sq, eta1_sq, eta_t_sq = eta ** 2, eta1 ** 2, eta_t ** 2
        by_perm = {}
        for perm, (al, be, ga, de) in abcds.items():
            poly = (al + be * t / eta_sq + ga * t1 / eta1_sq
                    + de * t * t1 / eta_t_sq)
            by_perm[perm] = float(np.abs(etapp - (eta_terms + poly_weight * poly)).max())
        best = min(by_perm, key=by_perm.get)
        out[slot] = SlotResidual(slot, by_perm[best], best, by_perm)
    return out


def eta_ok(residuals: Dict[Tuple[int, int], SlotResidual]) -> bool:
    """The `verify eta-pvi` verdict: some slot is checked, and each checked
    slot fits exactly one mu-permutation below ETA_BOUND (so its best does)."""
    checked = [sr for sr in residuals.values() if not sr.skipped]
    return bool(checked) and all(
        sum(v < ETA_BOUND for v in sr.residuals_by_perm.values()) == 1 for sr in checked)
