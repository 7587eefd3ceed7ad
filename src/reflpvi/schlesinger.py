"""Floating-point verification of the rank-three isomonodromy reduction.

Residue quadruples (B1, B2, B3, B4) are sampled with prescribed eigenvalue
data, the flow

    dB1/dt = [B3, B1] / t,    dB2/dt = [B3, B2] / (t - 1)

is integrated along a path (B4 held constant, B3 = -B4 - B1 - B2), and the
reduced two-variable flow in x = Tr(B1 B3), y = Tr(B2 B3) is compared
against it.  With B4 diagonal, each off-diagonal entry of
z (z-1) (z-t) B(z) is linear in z; the motion of its root is checked
against the sixth Painleve equation by finite differences.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

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
    b3: np.ndarray
    b4: np.ndarray
    lm: LambdaMu
    seed: Optional[int] = None

    def invariant_errors(self) -> Dict[str, float]:
        """Distances from the defining constraints (all should be tiny)."""
        errs = {}
        errs["sum"] = float(np.abs(self.b1 + self.b2 + self.b3 + self.b4).max())
        for name, b, lam in (("b1", self.b1, self.lm.lambdas[0]),
                             ("b2", self.b2, self.lm.lambdas[1]),
                             ("b3", self.b3, self.lm.lambdas[2])):
            errs[f"trace_{name}"] = abs(np.trace(b) - float(lam))
            s = np.linalg.svd(b, compute_uv=False)
            errs[f"rank_{name}"] = float(s[1] / max(s[0], 1e-30))
        eig = np.sort_complex(np.linalg.eigvals(self.b4))
        target = np.sort_complex(np.array([-float(m) for m in self.lm.mus],
                                          dtype=complex))
        errs["b4_eigs"] = float(np.abs(eig - target).max())
        return errs


def _rank_one_rows(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = []
    for i in range(3):
        b = np.zeros((3, 3), dtype=complex)
        b[i, :] = m[i, :]
        rows.append(b)
    return tuple(rows)


def sample_residues(lm: LambdaMu, seed: int) -> ResidueConfig:
    """Random residue quadruple with the prescribed eigenvalue data.

    Builds the matrix M with diagonal (l1, l2, l3) whose characteristic
    polynomial is forced to prod (z - mu_i) by the cubic constants: the
    off-diagonal slots (1,3), (3,1), (2,3), (3,2) are drawn at random,
    w = c - x - y fixes the product b12 b21, and b12 solves the quadratic
    A b12^2 - (a x + b y + k) b12 + w B = 0.  Then B_i = e_i (x) (row i of M)
    and B4 = -M.  Refuses with DegenerateSampleError after 50 draws.
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
        b1, b2, b3 = _rank_one_rows(m)
        config = ResidueConfig(b1, b2, b3, -m, lm, seed)
        if config.invariant_errors()["b4_eigs"] < 1e-8:
            return config
    raise DegenerateSampleError("no valid sample after 50 draws")


# Largest condition number accepted for the eigenvector matrix of B4: past
# 1/sqrt(machine eps) the conjugated residues lose half their digits.
_MAX_GAUGE_COND = 1.0 / np.sqrt(np.finfo(float).eps)


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
    return ResidueConfig(
        pinv @ config.b1 @ p, pinv @ config.b2 @ p,
        pinv @ config.b3 @ p, pinv @ config.b4 @ p,
        config.lm, config.seed)


@dataclass
class Trajectory:
    ts: np.ndarray
    b1s: np.ndarray              # shape (n, 3, 3)
    b2s: np.ndarray
    b4: np.ndarray
    lm: LambdaMu
    config0: ResidueConfig

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

    def to_rows(self) -> List[dict]:
        xs, ys, fs = self.xs(), self.ys(), self.fs()
        try:
            etas = eta_samples(self)
        except ValueError:
            etas = {}  # eta slots need the diagonal gauge
        rows = []
        for k, t in enumerate(self.ts):
            row = {"t": complex(t), "x": complex(xs[k]), "y": complex(ys[k]),
                   "f": complex(fs[k])}
            for slot, vals in etas.items():
                row[f"eta_{slot[0]+1}{slot[1]+1}"] = complex(vals[k])
            rows.append(row)
        return rows


def _path_points(t_path: Sequence[complex], per_segment: int) -> np.ndarray:
    pts = []
    for seg in range(len(t_path) - 1):
        a, b = complex(t_path[seg]), complex(t_path[seg + 1])
        chunk = a + (b - a) * np.linspace(0.0, 1.0, per_segment + 1)
        pts.extend(chunk if seg == 0 else chunk[1:])
    return np.asarray(pts)


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
    Raises PathError when the path comes within 0.001 of t = 0 or t = 1,
    or when a segment fails.
    """
    t_eval_all = _path_points(t_path, samples_per_segment)
    if np.min(np.abs(t_eval_all)) < 1e-3 or np.min(np.abs(t_eval_all - 1.0)) < 1e-3:
        raise PathError("path passes within 0.001 of a pole position")

    b4 = config.b4.copy()

    z0 = np.concatenate([config.b1.ravel(), config.b2.ravel()])
    state = np.concatenate([z0.real, z0.imag])
    s_eval = np.linspace(0.0, 1.0, samples_per_segment + 1)
    ts_out = [t_eval_all[:1]]
    bb_out = [np.stack([config.b1, config.b2])[None]]
    for seg in range(len(t_path) - 1):
        a, b = complex(t_path[seg]), complex(t_path[seg + 1])
        dt = b - a

        def rhs(s, y):
            bb = (y[:18] + 1j * y[18:]).reshape(2, 3, 3)
            t = a + s * dt
            b3 = -b4 - bb[0] - bb[1]
            d = ((b3 @ bb - bb @ b3) / np.array([t, t - 1.0])[:, None, None]
                 * dt).ravel()
            return np.concatenate([d.real, d.imag])

        sol = solve_ivp(rhs, state, s_eval, rtol=tol, atol=tol * 1e-2,
                        max_step=0.05)
        if not sol.success:
            raise PathError(f"integration failed on segment {seg}: {sol.message}")
        ys = sol.y[:, 1:]
        ts_out.append(a + s_eval[1:] * dt)
        bb_out.append((ys[:18] + 1j * ys[18:]).T.reshape(-1, 2, 3, 3))
        state = sol.y[:, -1]

    bb = np.concatenate(bb_out)
    # contiguous copies: einsum's summation order depends on the strides
    return Trajectory(np.concatenate(ts_out), bb[:, 0].copy(), bb[:, 1].copy(),
                      b4, config.lm, config)


@dataclass
class ReducedFlowReport:
    max_deviation: float
    sign_flags: int              # samples where |f| came near the branch point
    conservation_drift: float    # drift of w + x + y along the matrix flow
    f_consistency: float         # max |f_k^2 - f_squared(x_k, y_k)|


def reduced_flow_compare(traj: Trajectory) -> ReducedFlowReport:
    """Integrate dx/dt = f/(t-1), dy/dt = -f/t with sign-continuous
    f = sqrt(f_squared), four RK4 steps per sample interval, and compare
    with the matrix-flow coordinates."""
    lm = traj.lm
    a_c, b_c, k_c, c_c = (float(v) for v in cubic_coeffs(lm))

    def f2(x, y):
        lin = a_c * x + b_c * y + k_c
        return lin * lin + 4 * x * y * (x + y - c_c)

    xs_m = traj.xs()
    ys_m = traj.ys()
    fs_m = traj.fs()
    flags = 0

    def f_value(x, y, ref):
        nonlocal flags
        root = cmath.sqrt(f2(x, y))
        if abs(root) < 1e-10:
            flags += 1
        return root if abs(root - ref) <= abs(-root - ref) else -root

    def deriv(t, x, y, ref):
        f = f_value(x, y, ref)
        return f / (t - 1.0), -f / t, f

    # the RK4 below is sequential, so it runs on Python complex numbers:
    # numpy scalar arithmetic costs several times more per operation
    ts = traj.ts.tolist()
    xs_l, ys_l = xs_m.tolist(), ys_m.tolist()
    x, y = xs_l[0], ys_l[0]
    f_prev = complex(fs_m[0])
    max_dev = 0.0
    for k in range(len(ts) - 1):
        t0c, t1c = ts[k], ts[k + 1]
        h = (t1c - t0c) / 4
        for s in range(4):
            t = t0c + s * h
            k1x, k1y, fref = deriv(t, x, y, f_prev)
            k2x, k2y, _ = deriv(t + h / 2, x + h / 2 * k1x, y + h / 2 * k1y, fref)
            k3x, k3y, _ = deriv(t + h / 2, x + h / 2 * k2x, y + h / 2 * k2y, fref)
            k4x, k4y, _ = deriv(t + h, x + h * k3x, y + h * k3y, fref)
            x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
            y = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
            f_prev = f_value(x, y, fref)
        max_dev = max(max_dev, abs(x - xs_l[k + 1]), abs(y - ys_l[k + 1]))

    wxy = traj.ws() + xs_m + ys_m
    conservation = float(np.abs(wxy - wxy[0]).max())
    f_cons = float(np.abs(fs_m ** 2 - f2(xs_m, ys_m)).max())
    return ReducedFlowReport(float(max_dev), flags, conservation, f_cons)


def eta_samples(traj: Trajectory) -> Dict[Tuple[int, int], np.ndarray]:
    """Roots of the linear off-diagonal entries of z(z-1)(z-t) B(z).

    Valid when B4 is diagonal (checked); slots whose linear coefficient
    drops below 1e-8 are omitted.
    """
    offdiag = np.abs(traj.b4 - np.diag(np.diag(traj.b4))).max()
    if offdiag > 1e-9:
        raise ValueError("eta extraction needs the gauge with B4 diagonal")
    b3 = traj.b3s()
    ts = traj.ts[:, None, None]
    # entry (i,j) of z(z-1)(z-t)B(z) is -lin_ij * z + t * (B1)_ij, so the
    # root is t (B1)_ij / lin_ij
    lin = (1 + ts) * traj.b1s + ts * traj.b2s + b3
    const = ts * traj.b1s
    out = {}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            denom = lin[:, i, j]
            if np.min(np.abs(denom)) < 1e-8:
                continue
            out[(i, j)] = const[:, i, j] / denom
    return out


def trajectory_csv(traj: Trajectory, path: str) -> None:
    """Dump t, x, y, f and the available eta slots for offline plotting."""
    import csv
    rows = traj.to_rows()
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _pvi_rhs(eta, etap, t, alpha, beta, gamma, delta):
    one_over = 1.0 / eta + 1.0 / (eta - 1.0) + 1.0 / (eta - t)
    tpart = 1.0 / t + 1.0 / (t - 1.0) + 1.0 / (eta - t)
    poly = (alpha + beta * t / eta ** 2 + gamma * (t - 1.0) / (eta - 1.0) ** 2
            + delta * t * (t - 1.0) / (eta - t) ** 2)
    return (one_over * etap ** 2 / 2 - tpart * etap
            + eta * (eta - 1.0) * (eta - t) / (t ** 2 * (t - 1.0) ** 2) * poly)


@dataclass
class SlotResidual:
    slot: Tuple[int, int]
    residual: float
    best_perm: Optional[Tuple[int, int, int]]
    residuals_by_perm: Dict[Tuple[int, int, int], float]
    skipped: Optional[str] = None


def eta_pvi_residual(traj: Trajectory) -> Dict[Tuple[int, int], SlotResidual]:
    """Finite-difference PVI residual of each eta slot, per mu-permutation.

    The trajectory must be sampled on a uniform real grid.  For each slot
    the residual is reported for all six permutations of the mu's; the
    minimizing permutation is the one whose PVI parameters the slot obeys.
    Slots whose root runs past modulus 50 or within 0.05 of {0, 1, t} are
    degenerate for this check and come back marked skipped.
    """
    ts = traj.ts
    if np.abs(ts.imag).max() > 1e-12:
        raise PathError("eta residuals need a real time grid")
    treal = ts.real
    h = treal[1] - treal[0]
    if np.abs(np.diff(treal) - h).max() > 1e-9 * max(abs(h), 1e-30):
        raise PathError("eta residuals need a uniform time grid")

    abcds = {}
    for perm in permutations(range(3)):
        th = theta_map(traj.lm, perm)
        abcds[perm] = tuple(float(v) for v in pvi_abcd(th))

    out = {}
    for slot, eta in eta_samples(traj).items():
        eta = eta.astype(complex)
        closeness = min(np.abs(eta).min(), np.abs(eta - 1).min(),
                        np.abs(eta - treal).min())
        if np.abs(eta).max() > 50.0:
            out[slot] = SlotResidual(slot, float("inf"), None, {},
                                     skipped="root escapes to infinity")
            continue
        if closeness < 0.05:
            out[slot] = SlotResidual(slot, float("inf"), None, {},
                                     skipped="root approaches a singular point")
            continue
        # fourth-order central differences on the uniform grid
        etap = (-eta[4:] + 8 * eta[3:-1] - 8 * eta[1:-3] + eta[:-4]) / (12 * h)
        etapp = (-eta[4:] + 16 * eta[3:-1] - 30 * eta[2:-2]
                 + 16 * eta[1:-3] - eta[:-4]) / (12 * h * h)
        mid = eta[2:-2]
        tmid = treal[2:-2]
        by_perm = {}
        for perm, (al, be, ga, de) in abcds.items():
            rhs = _pvi_rhs(mid, etap, tmid, al, be, ga, de)
            by_perm[perm] = float(np.abs(etapp - rhs).max())
        best = min(by_perm, key=by_perm.get)
        out[slot] = SlotResidual(slot, by_perm[best], best, by_perm)
    return out
