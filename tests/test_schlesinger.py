import time

import numpy as np
import pytest
from fractions import Fraction
from scipy.integrate import solve_ivp

from reflpvi.params import LambdaMu, cubic_coeffs
from reflpvi.schlesinger import (DegenerateSampleError, PathError,
                                 diagonalize_gauge, eta_pvi_residual,
                                 eta_samples, integrate_schlesinger,
                                 reduced_flow_compare, sample_residues)

F = Fraction

KLEIN = LambdaMu((F(1, 2),) * 3, (F(3, 14), F(5, 14), F(13, 14)))

# The exact-sum (lambda, mu) of each Table-1 row, from params.table1.
TABLE1_LM = {
    "G(3,3,3)": ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(5, 6))),
    "G(4,4,3)": ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 4), F(3, 8), F(7, 8))),
    "G(5,5,3)": ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 5), F(2, 5), F(9, 10))),
    "G(6,6,3)": ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 6), F(5, 12), F(11, 12))),
    "G(3,1,3)": ((F(1, 2), F(1, 2), F(2, 3)), (F(2, 9), F(5, 9), F(8, 9))),
    "G(4,1,3)": ((F(1, 2), F(1, 2), F(3, 4)), (F(1, 4), F(7, 12), F(11, 12))),
    "G(5,1,3)": ((F(1, 2), F(1, 2), F(4, 5)), (F(4, 15), F(3, 5), F(14, 15))),
    "G(6,1,3)": ((F(1, 2), F(1, 2), F(5, 6)), (F(5, 18), F(11, 18), F(17, 18))),
    "icosahedral": ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 10), F(1, 2), F(9, 10))),
    "G336": ((F(1, 2), F(1, 2), F(1, 2)), (F(3, 14), F(5, 14), F(13, 14))),
    "G648": ((F(2, 3), F(2, 3), F(2, 3)), (F(5, 12), F(2, 3), F(11, 12))),
    "G1296": ((F(1, 2), F(2, 3), F(2, 3)), (F(5, 18), F(11, 18), F(17, 18))),
    "G2160": ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 6), F(11, 30), F(29, 30))),
}


@pytest.fixture(scope="module")
def klein_traj():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    return integrate_schlesinger(config, [0.5, 0.8], tol=1e-11,
                                 samples_per_segment=300)


def test_sampler_invariants():
    config = sample_residues(KLEIN, seed=1)
    errs = config.invariant_errors()
    assert errs["sum"] < 1e-12
    assert errs["b4_eigs"] < 1e-8
    for name in ("b1", "b2", "b3"):
        assert errs[f"trace_{name}"] < 1e-10
        assert errs[f"rank_{name}"] < 1e-10
    assert abs(np.trace(config.b4) + float(sum(KLEIN.mus))) < 1e-12


def test_sampler_seed_reproducible():
    a = sample_residues(KLEIN, seed=7)
    b = sample_residues(KLEIN, seed=7)
    assert np.array_equal(a.b1, b.b1) and np.array_equal(a.b4, b.b4)


def test_sampler_requires_exact_sums():
    bad = LambdaMu((F(1, 2),) * 3, (F(1, 4), F(1, 4), F(1, 4)))
    with pytest.raises(ValueError):
        sample_residues(bad, seed=1)


def test_sampler_pq_wxy():
    for seed in (1, 2, 3):
        m = -sample_residues(KLEIN, seed=seed).b4
        w = m[0, 1] * m[1, 0]
        x = m[0, 2] * m[2, 0]
        y = m[1, 2] * m[2, 1]
        p = m[0, 1] * m[1, 2] * m[2, 0]
        q = m[0, 2] * m[2, 1] * m[1, 0]
        assert abs(p * q - w * x * y) < 1e-10


def test_gauge():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    off = config.b4 - np.diag(np.diag(config.b4))
    assert np.abs(off).max() < 1e-9
    assert np.allclose(np.diag(config.b4),
                       [-float(m) for m in KLEIN.mus], atol=1e-9)


def test_gauge_refuses_repeated_mu_without_eigenbasis():
    # G(3,3,3): mu = 1/3 is repeated and B4 has a one-dimensional eigenspace
    config = sample_residues(LambdaMu(*TABLE1_LM["G(3,3,3)"]), seed=5)
    start = time.process_time()
    with pytest.raises(DegenerateSampleError, match="eigenbasis.*1/3"):
        diagonalize_gauge(config)
    assert time.process_time() - start < 0.05


@pytest.mark.parametrize("group", sorted(set(TABLE1_LM) - {"G(3,3,3)"}))
def test_gauge_on_table1_rows(group):
    lm = LambdaMu(*TABLE1_LM[group])
    for seed in (1, 2, 3, 4):
        b4 = diagonalize_gauge(sample_residues(lm, seed=seed)).b4
        assert np.abs(b4 - np.diag(np.diag(b4))).max() < 1e-9


def _integrate_per_matrix(config, t_path, tol, samples_per_segment):
    """The Schlesinger flow one residue at a time, state packed as
    (real parts, imaginary parts) of (B1, B2)."""
    def pack(b1, b2):
        z = np.concatenate([b1.ravel(), b2.ravel()])
        return np.concatenate([z.real, z.imag])

    def unpack(state):
        z = state[:18] + 1j * state[18:]
        return z[:9].reshape(3, 3), z[9:].reshape(3, 3)

    ts, b1s, b2s = [t_path[0]], [config.b1], [config.b2]
    state = pack(config.b1, config.b2)
    s_eval = np.linspace(0.0, 1.0, samples_per_segment + 1)
    for a, b in zip(t_path, t_path[1:]):
        a, dt = complex(a), complex(b) - complex(a)

        def rhs(s, y):
            b1, b2 = unpack(y)
            t = a + s * dt
            b3 = -config.b4 - b1 - b2
            return pack((b3 @ b1 - b1 @ b3) / t * dt,
                        (b3 @ b2 - b2 @ b3) / (t - 1.0) * dt)

        sol = solve_ivp(rhs, (0.0, 1.0), state, method="RK45", rtol=tol,
                        atol=tol * 1e-2, t_eval=s_eval, max_step=0.05)
        for k in range(1, len(s_eval)):
            b1, b2 = unpack(sol.y[:, k])
            ts.append(a + s_eval[k] * dt)
            b1s.append(b1)
            b2s.append(b2)
        state = sol.y[:, -1]
    return np.array(ts, dtype=complex), np.array(b1s), np.array(b2s)


@pytest.mark.parametrize("t_path, samples", [([0.5, 0.8], 300),
                                             ([0.5, 0.5 + 0.2j, 0.7 + 0.2j], 40)])
def test_stacked_flow_matches_per_matrix_flow(t_path, samples):
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    traj = integrate_schlesinger(config, t_path, tol=1e-11,
                                 samples_per_segment=samples)
    ts, b1s, b2s = _integrate_per_matrix(config, t_path, 1e-11, samples)
    assert np.array_equal(traj.ts, ts)
    assert np.array_equal(traj.b1s, b1s)
    assert np.array_equal(traj.b2s, b2s)


def test_eigenvalue_drift_matches_per_sample_loop(klein_traj):
    drift = 0.0
    for bs in (klein_traj.b1s, klein_traj.b2s, klein_traj.b3s()):
        ref = np.sort_complex(np.linalg.eigvals(bs[0]))
        for b in bs:
            cur = np.sort_complex(np.linalg.eigvals(b))
            drift = max(drift, float(np.abs(cur - ref).max()))
    assert klein_traj.eigenvalue_drift() == drift


def test_f_consistency_matches_per_sample_loop(klein_traj):
    a, b, k, c = (float(v) for v in cubic_coeffs(KLEIN))
    worst = 0.0
    for x, y, f in zip(klein_traj.xs(), klein_traj.ys(), klein_traj.fs()):
        lin = a * x + b * y + k
        worst = max(worst, abs(f * f - (lin * lin + 4 * x * y * (x + y - c))))
    assert abs(reduced_flow_compare(klein_traj).f_consistency - worst) < 1e-15


def test_path_validation():
    config = sample_residues(KLEIN, seed=1)
    with pytest.raises(PathError):
        integrate_schlesinger(config, [0.5, 1.0 + 1e-9])


def test_b4_constant_and_isospectral(klein_traj):
    assert klein_traj.eigenvalue_drift() < 1e-8
    # Tr B4^2 and Tr B4^3 are constants of motion by construction
    b4 = klein_traj.b4
    assert np.isfinite(np.trace(b4 @ b4))


def test_trace_b4_powers_constant(klein_traj):
    # w + x + y tracks Tr(B4^2); both stay constant along the flow
    w = klein_traj.ws()
    x = klein_traj.xs()
    y = klein_traj.ys()
    total = w + x + y
    assert np.abs(total - total[0]).max() < 1e-10


def test_reduced_flow(klein_traj):
    rep = reduced_flow_compare(klein_traj)
    assert rep.max_deviation < 1e-6
    assert rep.f_consistency < 1e-8
    assert rep.conservation_drift < 1e-10


def test_convergence_with_tolerance():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    ref = integrate_schlesinger(config, [0.5, 0.8], tol=1e-12,
                                samples_per_segment=50)
    errors = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        traj = integrate_schlesinger(config, [0.5, 0.8], tol=tol,
                                     samples_per_segment=50)
        errors.append(np.abs(traj.b1s - ref.b1s).max())
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[0] / max(errors[3], 1e-16) > 10


def test_eta_samples_need_gauge():
    config = sample_residues(KLEIN, seed=1)
    traj = integrate_schlesinger(config, [0.5, 0.55], tol=1e-9,
                                 samples_per_segment=20)
    with pytest.raises(ValueError):
        eta_samples(traj)


def test_eta_pvi_residual():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    traj = integrate_schlesinger(config, [0.5, 0.6], tol=1e-12,
                                 samples_per_segment=100)
    res = eta_pvi_residual(traj)
    assert len(res) == 6
    checked = 0
    perms_seen = set()
    for slot, sr in res.items():
        if sr.skipped:
            continue
        checked += 1
        assert sr.residual < 1e-3
        small = [p for p, v in sr.residuals_by_perm.items() if v < 1e-3]
        assert small == [sr.best_perm]
        perms_seen.add(sr.best_perm)
    assert checked >= 4
    # distinct slots obey distinct permutations
    assert len(perms_seen) == checked


def test_complex_path_segment():
    config = sample_residues(KLEIN, seed=2)
    traj = integrate_schlesinger(config, [0.5, 0.5 + 0.2j, 0.7 + 0.2j],
                                 tol=1e-9, samples_per_segment=40)
    assert traj.eigenvalue_drift() < 1e-7
    assert len(traj.ts) == 81


def test_trajectory_rows(klein_traj):
    rows = klein_traj.to_rows()
    assert len(rows) == len(klein_traj.ts)
    assert {"t", "x", "y", "f"} <= set(rows[0])
