"""Check that reflpvi's numpy-only RK45 stepper reproduces scipy's bit for bit.

    python3 tools/rk45_parity.py

Runs every (Table-1 row, residue seed) pair of the benchmark's
isomonodromy pool (the 13 rows of `perfbench/reference/lambda_mu.json`
times residue seeds 1..64) through both integrations the `verify`
commands make: 0.5 -> 0.8 at tol 1e-10 with 300 samples, and 0.5 -> 0.6
at tol 1e-12 with 100 samples.  Each segment is integrated by
`reflpvi.rk45.solve_ivp` and by scipy's `solve_ivp(method="RK45")` on the
same right-hand side and start state; the sampled states are compared
with `np.array_equal` and the evaluation counts with `==`.  Samples the
diagonal gauge refuses are counted and skipped.  Prints the counts and
exits 1 on any difference.  Needs scipy (the `test` extra).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp as scipy_solve_ivp

TREE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TREE / "src"), str(TREE / "perfbench")]

from reflpvi import rk45, schlesinger  # noqa: E402
import workloads  # noqa: E402

PATHS = (([0.5, 0.8], 1e-10, 300), ([0.5, 0.6], 1e-12, 100))


def main() -> int:
    counts = {"integrations": 0, "degenerate": 0,
              "y_differ": 0, "nfev_differ": 0, "success_differ": 0}

    def both(fun, y0, t_eval, rtol, atol, max_step):
        ours = rk45.solve_ivp(fun, y0, t_eval, rtol=rtol, atol=atol, max_step=max_step)
        ref = scipy_solve_ivp(fun, (0.0, 1.0), y0, method="RK45", t_eval=t_eval,
                              rtol=rtol, atol=atol, max_step=max_step)
        counts["integrations"] += 1   # each path is one segment
        counts["y_differ"] += not np.array_equal(ours.y, ref.y)
        counts["nfev_differ"] += ours.nfev != ref.nfev
        counts["success_differ"] += (ours.success, ours.message) != (ref.success, ref.message)
        return ours

    schlesinger.solve_ivp = both
    for group, lm in workloads.table_lambda_mu().items():
        for rs in workloads.ISO_POOL:
            try:
                config = schlesinger.diagonalize_gauge(schlesinger.sample_residues(lm, seed=rs))
            except schlesinger.DegenerateSampleError:
                counts["degenerate"] += 1
                continue
            for t_path, tol, samples in PATHS:
                schlesinger.integrate_schlesinger(config, t_path, tol=tol,
                                                  samples_per_segment=samples)
        print(f"{group}: done", file=sys.stderr, flush=True)
    for key, value in counts.items():
        print(f"{key}: {value}")
    differ = counts["y_differ"] + counts["nfev_differ"] + counts["success_differ"]
    print("parity: " + ("ok" if differ == 0 else f"FAILED ({differ} differences)"))
    return 0 if differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
