import json
import signal
import sys
import time
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from scipy.integrate import RK45, solve_ivp

from reflpvi import rk45, schlesinger
from reflpvi.groups import GroupSpec, build_group
from reflpvi.params import LambdaMu, cubic_coeffs, lambda_mu_of_triple, pvi_abcd, theta_map
from reflpvi.schlesinger import (DegenerateSampleError, PathError,
                                 diagonalize_gauge, eta_derivatives,
                                 eta_pvi_residual, integrate_schlesinger,
                                 reduced_flow_compare, sample_residues)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the benchmark's frozen copy of the verify verdicts
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

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

_FROZEN_LM = PERFBENCH / "reference" / "lambda_mu.json"


def test_table1_lambda_mu_copies_match_the_exact_layer():
    """TABLE1_LM and the benchmark's frozen copy are the (lambda, mu) of each
    row's standard triple."""
    frozen = {row["group"]: (tuple(map(F, row["lambda"])), tuple(map(F, row["mu"])))
              for row in json.loads(_FROZEN_LM.read_text())}
    assert set(frozen) == set(TABLE1_LM) and len(TABLE1_LM) == 13
    for group, copy in TABLE1_LM.items():
        lm = lambda_mu_of_triple(build_group(GroupSpec.parse(group)).generators)
        assert copy == frozen[group] == (lm.lambdas, lm.mus), group


@pytest.fixture(scope="module")
def klein_traj():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    return integrate_schlesinger(config, [0.5, 0.8], tol=1e-11,
                                 samples_per_segment=300)


def _invariant_errors(config):
    """Distances of a ResidueConfig from its defining constraints (all
    should be tiny).  B3 is -B4 - B1 - B2, so the residues sum to zero by
    construction."""
    errs = {}
    b3 = -config.b4 - config.b1 - config.b2
    for name, b, lam in (("b1", config.b1, config.lm.lambdas[0]),
                         ("b2", config.b2, config.lm.lambdas[1]),
                         ("b3", b3, config.lm.lambdas[2])):
        errs[f"trace_{name}"] = abs(np.trace(b) - float(lam))
        s = np.linalg.svd(b, compute_uv=False)
        errs[f"rank_{name}"] = float(s[1] / max(s[0], 1e-30))
    errs["b4_eigs"] = schlesinger._b4_eig_error(config.b4, config.lm)
    return errs


def test_sampler_invariants():
    config = sample_residues(KLEIN, seed=1)
    errs = _invariant_errors(config)
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
    (real parts, imaginary parts) of (B1, B2), and scipy's evaluation
    count summed over the segments."""
    def pack(b1, b2):
        z = np.concatenate([b1.ravel(), b2.ravel()])
        return np.concatenate([z.real, z.imag])

    def unpack(state):
        z = state[:18] + 1j * state[18:]
        return z[:9].reshape(3, 3), z[9:].reshape(3, 3)

    ts, b1s, b2s = [t_path[0]], [config.b1], [config.b2]
    nfev = 0
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
        nfev += sol.nfev
        for k in range(1, len(s_eval)):
            b1, b2 = unpack(sol.y[:, k])
            ts.append(a + s_eval[k] * dt)
            b1s.append(b1)
            b2s.append(b2)
        state = sol.y[:, -1]
    return np.array(ts, dtype=complex), np.array(b1s), np.array(b2s), nfev


# The runs of `verify schlesinger` and `verify eta-pvi`, each with its
# recipe (path, tol, samples per segment) written out as the spec.
VERIFY_RUNS = {"flow": (schlesinger.flow_trajectory, [0.5, 0.8], 1e-10, 300),
               "eta": (schlesinger.eta_trajectory, [0.5, 0.6], 1e-12, 100)}


@pytest.mark.parametrize("lm, run, t_path, tol, samples", [
    pytest.param(KLEIN, None, [0.5, 0.8], 1e-11, 300, id="t_path0-300"),
    pytest.param(KLEIN, None, [0.5, 0.5 + 0.2j, 0.7 + 0.2j], 1e-11, 40, id="t_path1-40"),
] + [
    pytest.param(LambdaMu(*TABLE1_LM[group]), *VERIFY_RUNS[kind], id=f"{group}-{kind}")
    for group in TABLE1_LM if group != "G(3,3,3)" for kind in VERIFY_RUNS
])
def test_stacked_flow_matches_per_matrix_flow(lm, run, t_path, tol, samples, monkeypatch):
    """The stacked right-hand side integrated by reflpvi.rk45 against the
    per-matrix one integrated by scipy's RK45: bitwise equal samples, and
    the same evaluation count as read through `schlesinger.solve_ivp` (the
    benchmark's `schlesinger.nfev` counts it so).  A verify run is checked
    through its own function, against its recipe."""
    config = diagonalize_gauge(sample_residues(lm, seed=1))
    nfevs = []

    def counted(*args, **kw):
        sol = rk45.solve_ivp(*args, **kw)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(schlesinger, "solve_ivp", counted)
    traj = run(config) if run else integrate_schlesinger(
        config, t_path, tol=tol, samples_per_segment=samples)
    ts, b1s, b2s, nfev = _integrate_per_matrix(config, t_path, tol, samples)
    assert np.array_equal(traj.ts, ts)
    assert np.array_equal(traj.b1s, b1s)
    assert np.array_equal(traj.b2s, b2s)
    assert len(nfevs) == len(t_path) - 1
    assert sum(nfevs) == nfev


def test_flow_buffers_carry_no_state_between_calls():
    """The right-hand side's buffers are scratch: A, then B, then A again on
    a complex two-leg path gives A's trajectory bit for bit, and no array
    of one result shares memory with another."""
    config_a = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    config_b = diagonalize_gauge(sample_residues(LambdaMu(*TABLE1_LM["G2160"]), seed=2))
    path = [0.5, 0.5 + 0.2j, 0.7 + 0.2j]
    trajs = [integrate_schlesinger(config, path, tol=1e-10, samples_per_segment=40)
             for config in (config_a, config_b, config_a)]
    for name in ("ts", "b1s", "b2s", "b4"):
        assert np.array_equal(getattr(trajs[0], name), getattr(trajs[2], name))
    assert not np.array_equal(trajs[0].b1s, trajs[1].b1s)
    arrays = [getattr(traj, name) for traj in trajs for name in ("ts", "b1s", "b2s", "b4")]
    for i, first in enumerate(arrays):
        for second in arrays[i + 1:]:
            assert not np.shares_memory(first, second)


def test_failed_integration_matches_scipy():
    """A right-hand side that turns NaN past s = 0.3 makes both steppers
    shrink the step below the float spacing and give up alike."""
    def fun(s, y):
        return np.full_like(y, np.nan) if s > 0.3 else -y + np.cos(s)

    y0 = np.array([1.0, 0.5, -2.0])
    s_eval = np.linspace(0.0, 1.0, 11)
    ours = rk45.solve_ivp(fun, y0, s_eval, rtol=1e-10, atol=1e-12, max_step=0.05)
    ref = solve_ivp(fun, (0.0, 1.0), y0, method="RK45", t_eval=s_eval,
                    rtol=1e-10, atol=1e-12, max_step=0.05)
    assert not ref.success and not ours.success
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.y, ref.y)


def _stiff_rhs(s, y):
    return -50.0 * (y - np.cos(10.0 * s))


def _as_list(s, y):
    return _stiff_rhs(s, y).tolist()


_SHARED_OUT = np.empty(1)


def _into_shared_array(s, y):
    _SHARED_OUT[:] = _stiff_rhs(s, y)
    return _SHARED_OUT


@pytest.mark.parametrize("style", [_as_list, _into_shared_array],
                         ids=["list", "same-ndarray"])
def test_fun_contract_returned_values_are_copied(style):
    """rk45.solve_ivp takes a list from fun, or the same ndarray refilled
    on each call, and equals scipy's y and nfev on the rejected-steps IVP
    integrated with a fresh array per call: the stepper copies fun's
    values into its stage rows and keeps no reference to them, and counts
    2 evaluations plus 6 per step attempt."""
    s_eval = np.linspace(0.0, 1.0, 41)
    ours = rk45.solve_ivp(style, [0.0], s_eval, rtol=1e-6, atol=1e-8, max_step=np.inf)
    ref = solve_ivp(_stiff_rhs, (0.0, 1.0), [0.0], method="RK45", t_eval=s_eval,
                    rtol=1e-6, atol=1e-8)
    assert ours.success and ref.success
    assert ours.nfev == ref.nfev
    assert (ref.nfev - 2) % 6 == 0
    assert np.array_equal(ours.y, ref.y)


def test_rejected_steps_and_step_end_samples_match_scipy():
    """A scalar IVP whose steps get rejected, sampled on some of the step
    ends and between them: the same y and nfev as scipy's solve_ivp."""
    fun = _stiff_rhs

    # scipy's stepper, one step at a time: the step ends, and the rejections
    # (a step that takes more than one attempt uses more than six evaluations)
    stepper = RK45(fun, 0.0, np.array([0.0]), 1.0, rtol=1e-6, atol=1e-8)
    ends, rejected = [], 0
    while stepper.status == "running":
        nfev = stepper.nfev
        stepper.step()
        ends.append(stepper.t)
        rejected += (stepper.nfev - nfev) // 6 - 1
    assert rejected > 0
    s_eval = np.union1d(ends[::3], np.linspace(0.0, 1.0, 7))
    assert len(set(s_eval) & set(ends)) > 30
    ours = rk45.solve_ivp(fun, [0.0], s_eval, rtol=1e-6, atol=1e-8, max_step=np.inf)
    ref = solve_ivp(fun, (0.0, 1.0), [0.0], method="RK45", t_eval=s_eval,
                    rtol=1e-6, atol=1e-8)
    assert ours.success and ref.success
    assert ours.nfev == ref.nfev == stepper.nfev
    assert np.array_equal(ours.y, ref.y)


def test_not_finite_start_fails_at_once():
    # scipy's step loop never ends here: its first step is NaN, and a NaN
    # step is never below the minimum step
    def fun(s, y):
        return np.full_like(y, np.nan)

    sol = rk45.solve_ivp(fun, np.ones(3), [0.0, 1.0], rtol=1e-10, atol=1e-12,
                         max_step=0.05)
    assert not sol.success and sol.message == rk45.NOT_FINITE
    assert sol.nfev == 2 and sol.y.shape == (3, 0)


def test_failed_segment_is_a_path_error(monkeypatch):
    calls = []

    def nan_on_second_segment(fun, y0, t_eval, **kw):
        calls.append(None)
        if len(calls) == 2:
            return rk45.solve_ivp(lambda s, y: fun(s, y) * (np.nan if s > 0.3 else 1.0),
                                  y0, t_eval, **kw)
        return rk45.solve_ivp(fun, y0, t_eval, **kw)

    monkeypatch.setattr(schlesinger, "solve_ivp", nan_on_second_segment)
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    with pytest.raises(PathError, match="integration failed on segment 1: "
                                        + rk45.TOO_SMALL_STEP):
        integrate_schlesinger(config, [0.5, 0.6, 0.7], samples_per_segment=10)


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


@pytest.mark.parametrize("t_path, match", [
    ([], "at least two points, not 0"), ([0.5], "at least two points, not 1"),
    ([0.5, 0.5], "zero length"), ([0.5, 0.6, 0.6 + 0j, 0.7], "zero length")])
def test_degenerate_path_is_a_path_error(t_path, match):
    config = sample_residues(KLEIN, seed=1)
    with pytest.raises(PathError, match=match):
        integrate_schlesinger(config, t_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_path, point", [
    ([0.5, float("nan")], "1, (nan+0j)"), ([0.5, float("inf")], "1, (inf+0j)"),
    ([complex(0.5, float("nan")), 0.6], "0, (0.5+nanj)")])
def test_non_finite_path_point_is_a_path_error(t_path, point):
    config = sample_residues(KLEIN, seed=1)
    with pytest.raises(PathError) as exc:
        integrate_schlesinger(config, t_path, samples_per_segment=4)
    assert str(exc.value) == f"path point {point}, is not finite"


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 1e-100, 1e-300, 0.0, -1e-10,
                                 np.nextafter(schlesinger.MIN_TOL, 0)])
def test_tolerance_the_stepper_cannot_meet_is_refused(tol, monkeypatch):
    """Refused before any integration: at 1e-100 the stepper would not end."""
    def unreachable(*args, **kwargs):
        raise AssertionError("integrated before refusing")
    monkeypatch.setattr(schlesinger, "solve_ivp", unreachable)
    config = sample_residues(KLEIN, seed=1)
    with pytest.raises(ValueError, match="tol must be finite and at least 2.22"):
        integrate_schlesinger(config, [0.5, 0.6], tol=tol, samples_per_segment=4)


@pytest.mark.parametrize("samples", [0, -1])
def test_samples_per_segment_below_one_is_refused(samples):
    config = sample_residues(KLEIN, seed=1)
    with pytest.raises(ValueError, match=f"at least 1, not {samples}"):
        integrate_schlesinger(config, [0.5, 0.6], samples_per_segment=samples)


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


# Klein, a row with a = 0 and b != 0 in the cubic, and one with k = 0
PINNED_ROWS = {"G336": KLEIN, "G1296": LambdaMu(*TABLE1_LM["G1296"]),
               "G648": LambdaMu(*TABLE1_LM["G648"])}


NON_DEGENERATE_ROWS = [group for group in TABLE1_LM if group != "G(3,3,3)"]


@pytest.mark.parametrize("row", NON_DEGENERATE_ROWS)
def test_reduced_flow_follows_f_through_zero(row):
    """At residue seed 3 the real f of every row changes sign on [0.5, 0.8];
    a square root with a nearest-branch rule keeps +|f| past the zero."""
    config = diagonalize_gauge(sample_residues(LambdaMu(*TABLE1_LM[row]), seed=3))
    traj = schlesinger.flow_trajectory(config)
    fs = traj.fs()
    assert np.abs(fs.imag).max() < 1e-12
    assert fs.real.min() < 0 < fs.real.max()
    assert reduced_flow_compare(traj).max_deviation < 1e-6


def test_reduced_flow_integration_matches_scipy(monkeypatch):
    """The reduced flow's integration on the `verify schlesinger` run of
    Klein seed 1 equals scipy's in y and nfev, though scipy hands its
    right-hand side s as a numpy float64 and rk45 as a Python float."""
    traj = schlesinger.flow_trajectory(diagonalize_gauge(sample_residues(KLEIN, seed=1)))
    calls = []

    def record(fun, y0, t_eval, **kw):
        calls.append((fun, y0, t_eval, kw, rk45.solve_ivp(fun, y0, t_eval, **kw)))
        return calls[-1][-1]

    monkeypatch.setattr(schlesinger, "solve_ivp", record)
    reduced_flow_compare(traj)
    [(fun, y0, t_eval, kw, ours)] = calls
    ref = solve_ivp(fun, (0.0, 1.0), y0, method="RK45", t_eval=t_eval, **kw)
    assert ours.success and ref.success
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.y, ref.y)


def test_reduced_flow_sees_wrong_cubic_constants(klein_traj, monkeypatch):
    right = schlesinger.cubic_coeffs
    monkeypatch.setattr(schlesinger, "cubic_coeffs",
                        lambda lm: (*right(lm)[:3], right(lm)[3] + F(1, 1000)))
    assert reduced_flow_compare(klein_traj).max_deviation > 1e-6


def test_reduced_flow_refuses_a_bent_path():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    traj = integrate_schlesinger(config, [0.5, 0.5 + 0.2j, 0.7 + 0.2j],
                                 samples_per_segment=20)
    with pytest.raises(PathError, match="one straight line"):
        reduced_flow_compare(traj)


@pytest.mark.filterwarnings("error")
def test_reduced_flow_refuses_a_path_that_returns_to_its_start():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    traj = integrate_schlesinger(config, [0.5, 0.6, 0.5], samples_per_segment=20)
    with pytest.raises(PathError, match="last point differs from its first"):
        reduced_flow_compare(traj)


def _pvi_rhs(eta, etap, t, alpha, beta, gamma, delta):
    one_over = 1.0 / eta + 1.0 / (eta - 1.0) + 1.0 / (eta - t)
    tpart = 1.0 / t + 1.0 / (t - 1.0) + 1.0 / (eta - t)
    poly = (alpha + beta * t / eta ** 2 + gamma * (t - 1.0) / (eta - 1.0) ** 2
            + delta * t * (t - 1.0) / (eta - t) ** 2)
    return (one_over * etap ** 2 / 2 - tpart * etap
            + eta * (eta - 1.0) * (eta - t) / (t ** 2 * (t - 1.0) ** 2) * poly)


def _checked_eta(lm, residue_seed=1):
    """The eta-path trajectory of a row and the slots its residual checks."""
    config = diagonalize_gauge(sample_residues(lm, seed=residue_seed))
    traj = schlesinger.eta_trajectory(config)
    checked = [sr for sr in eta_pvi_residual(traj).values() if not sr.skipped]
    assert checked
    return traj, checked


@pytest.mark.parametrize("row", sorted(PINNED_ROWS))
def test_eta_residuals_match_per_permutation_rhs(row):
    """Each checked slot's residual for each permutation equals the one of
    the PVI right-hand side evaluated whole for that permutation."""
    lm = PINNED_ROWS[row]
    traj, checked = _checked_eta(lm)
    derivatives = eta_derivatives(traj)
    for sr in checked:
        eta, etap, etapp = derivatives[sr.slot]
        expected = {}
        for perm in permutations(range(3)):
            abcd = (float(v) for v in pvi_abcd(theta_map(lm, perm)))
            rhs = _pvi_rhs(eta, etap, traj.ts, *abcd)
            expected[perm] = float(np.abs(etapp - rhs).max())
        assert sr.residuals_by_perm == expected
        assert sr.residual == min(expected.values())


@pytest.mark.parametrize("row", sorted(PINNED_ROWS))
def test_eta_derivatives_match_finite_differences(row):
    """An independent check of the closed form: on the uniform eta grid,
    fourth-order central differences of eta agree with eta' and
    eta'' at the interior samples of every checked slot."""
    traj, checked = _checked_eta(PINNED_ROWS[row])
    h = traj.ts[1].real - traj.ts[0].real
    derivatives = eta_derivatives(traj)
    for sr in checked:
        eta, etap, etapp = derivatives[sr.slot]
        fd_p = (-eta[4:] + 8 * eta[3:-1] - 8 * eta[1:-3] + eta[:-4]) / (12 * h)
        fd_pp = (-eta[4:] + 16 * eta[3:-1] - 30 * eta[2:-2]
                 + 16 * eta[1:-3] - eta[:-4]) / (12 * h * h)
        assert np.abs(fd_p - etap[2:-2]).max() < 1e-5 * np.abs(etap).max()
        assert np.abs(fd_pp - etapp[2:-2]).max() < 1e-5 * np.abs(etapp).max()


@pytest.mark.parametrize("row", ["icosahedral", "G648"])
def test_tied_permutations_pass_together(row):
    """On these rows the six mu orders give only four distinct (alpha, beta,
    gamma, delta), so the permutations that tie with the best one fall below
    the bound with it, and "exactly one permutation below 1e-3" fails.  The
    ROADMAP's eta item keeps the tie rule open."""
    lm = LambdaMu(*TABLE1_LM[row])
    abcd = {perm: pvi_abcd(theta_map(lm, perm)) for perm in permutations(range(3))}
    assert len(set(abcd.values())) == 4
    _, checked = _checked_eta(lm)
    for sr in checked:
        small = {p for p, v in sr.residuals_by_perm.items() if v < 1e-3}
        assert small == {p for p in abcd if abcd[p] == abcd[sr.best_perm]}
    assert any(sum(v < 1e-3 for v in sr.residuals_by_perm.values()) > 1
               for sr in checked)
    assert not schlesinger.eta_ok({sr.slot: sr for sr in checked})


def test_trajectory_rows(klein_traj, tmp_path):
    path = tmp_path / "traj.csv"
    schlesinger.trajectory_csv(klein_traj, str(path))
    header, *rows = path.read_text().splitlines()
    assert len(rows) == len(klein_traj.ts)
    assert {"t", "x", "y", "f"} <= set(header.split(","))
    ts = [complex(row.split(",")[0]) for row in rows]
    assert np.array_equal(ts, klein_traj.ts)


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
        eta_derivatives(traj)


def test_eta_pvi_residual():
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    res = eta_pvi_residual(schlesinger.eta_trajectory(config))
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


def test_eta_pvi_residual_on_a_complex_path():
    """The derivatives come from the flow, so a complex path serves."""
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    traj = integrate_schlesinger(config, [0.5, 0.5 + 0.2j, 0.7 + 0.2j],
                                 tol=1e-10, samples_per_segment=40)
    res = eta_pvi_residual(traj)
    assert len(res) == 6 and not any(sr.skipped for sr in res.values())
    for sr in res.values():
        assert np.isfinite(list(sr.residuals_by_perm.values())).all()
        assert sr.residual < 1e-7
        assert [p for p, v in sr.residuals_by_perm.items() if v < 1e-3] == [sr.best_perm]


def test_complex_path_segment():
    config = sample_residues(KLEIN, seed=2)
    traj = integrate_schlesinger(config, [0.5, 0.5 + 0.2j, 0.7 + 0.2j],
                                 tol=1e-9, samples_per_segment=40)
    assert traj.eigenvalue_drift() < 1e-7
    assert len(traj.ts) == 81


def test_flow_ok_turns_false_just_above_each_bound():
    def ok(drift=0.0, deviation=0.0, consistency=0.0):
        return schlesinger.flow_ok(
            drift, schlesinger.ReducedFlowReport(deviation, 0.0, consistency))
    assert ok()
    for name, bound in (("drift", schlesinger.DRIFT_BOUND),
                        ("deviation", schlesinger.FLOW_BOUND),
                        ("consistency", schlesinger.F_CONSISTENCY_BOUND)):
        assert ok(**{name: np.nextafter(bound, 0.0)})
        assert not ok(**{name: bound})
        assert not ok(**{name: np.nextafter(bound, np.inf)})


def _slot(*values, skipped=None):
    """A SlotResidual with the given residual per mu-permutation."""
    by_perm = dict(zip(permutations(range(3)), values))
    best = min(by_perm, key=by_perm.get) if by_perm else None
    return schlesinger.SlotResidual((0, 1), by_perm[best] if by_perm else float("inf"),
                                    best, by_perm, skipped)


_ONE = (1e-9, 1.0, 2.0, 3.0, 4.0, 5.0)
ETA_CASES = {
    "one fit": ({(0, 1): _slot(*_ONE)}, True),
    "one fit and a skipped slot": ({(0, 1): _slot(*_ONE),
                                    (1, 0): _slot(skipped="root escapes to infinity")}, True),
    "no slot": ({}, False),
    "only skipped slots": ({(0, 1): _slot(skipped="root approaches a singular point")}, False),
    "tied slot": ({(0, 1): _slot(1e-9, 1e-9, 2.0, 3.0, 4.0, 5.0)}, False),
    "no fit": ({(0, 1): _slot(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)}, False),
    "fit at the bound": ({(0, 1): _slot(1e-3, 1.0, 2.0, 3.0, 4.0, 5.0)}, False),
    "one slot fails": ({(0, 1): _slot(*_ONE), (1, 0): _slot(*(1.0,) * 6)}, False),
    "not a number": ({(0, 1): _slot(*(float("nan"),) * 6)}, False),
}


@pytest.mark.parametrize("case", sorted(ETA_CASES))
def test_eta_ok_agrees_with_the_benchmarks_frozen_rule(case):
    residuals, expected = ETA_CASES[case]
    assert schlesinger.eta_ok(residuals) is expected
    assert workloads._eta_ok(residuals) is expected


def test_verdict_bounds_equal_the_benchmarks_frozen_copy():
    for name in ("DRIFT_BOUND", "FLOW_BOUND", "F_CONSISTENCY_BOUND", "ETA_BOUND"):
        assert getattr(schlesinger, name) == getattr(workloads, name), name


def test_benchmark_verdict_makes_the_verify_runs(monkeypatch):
    """The benchmark's frozen `isomonodromy_verdict` integrates the same
    paths, tolerances and sample counts as `flow_trajectory` and
    `eta_trajectory`, in the same order."""
    calls = []
    real = schlesinger.integrate_schlesinger

    def record(config, t_path, **kw):
        calls.append((list(t_path), kw))
        return real(config, t_path, **kw)

    monkeypatch.setattr(schlesinger, "integrate_schlesinger", record)
    config = diagonalize_gauge(sample_residues(KLEIN, seed=1))
    schlesinger.flow_trajectory(config)
    schlesinger.eta_trajectory(config)
    runs = calls[:]
    calls.clear()
    # the verdict's CPU-time timer raises SIGPROF, which ends the process
    # unless the benchmark's handler is set
    previous = signal.getsignal(signal.SIGPROF)
    workloads.arm_deadlines()
    try:
        assert workloads.isomonodromy_verdict(KLEIN, 1) == "ok"
    finally:
        signal.signal(signal.SIGPROF, previous)
    assert len(runs) == 2 and calls == runs
