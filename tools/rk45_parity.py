"""Check that reflpvi's numpy-only RK45 stepper reproduces scipy's bit for bit.

    python3 tools/rk45_parity.py

Walks the benchmark's isomonodromy pool (the 13 rows of
`perfbench/reference/lambda_mu.json` times residue seeds 1..64) through
`tools/iso_snapshot.py`'s `pool_ops`, with `schlesinger.solve_ivp`
replaced by a function that integrates each call by
`reflpvi.rk45.solve_ivp` and by scipy's `solve_ivp(method="RK45")` on the
same right-hand side and start state.  Every integration an op makes is
compared: the two matrix flows and the reduced flow.  The sampled states
are compared with `np.array_equal`, the evaluation counts with `==` and
the outcomes by success and message.  Prints the counts and exits 1 on any
difference.  Needs scipy (the `test` extra).
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
from scipy.integrate import solve_ivp as scipy_solve_ivp

import iso_snapshot  # puts this tree's src/ and perfbench/ on sys.path
from reflpvi import rk45, schlesinger


def main() -> int:
    counts = {"integrations": 0, "y_differ": 0, "nfev_differ": 0, "success_differ": 0}

    def both(fun, y0, t_eval, rtol, atol, max_step):
        ours = rk45.solve_ivp(fun, y0, t_eval, rtol=rtol, atol=atol, max_step=max_step)
        ref = scipy_solve_ivp(fun, (0.0, 1.0), y0, method="RK45", t_eval=t_eval,
                              rtol=rtol, atol=atol, max_step=max_step)
        counts["integrations"] += 1
        counts["y_differ"] += not np.array_equal(ours.y, ref.y)
        counts["nfev_differ"] += ours.nfev != ref.nfev
        counts["success_differ"] += (ours.success, ours.message) != (ref.success, ref.message)
        return ours

    with mock.patch.object(schlesinger, "solve_ivp", both):
        for _ in iso_snapshot.pool_ops():
            pass
    for key, value in counts.items():
        print(f"{key}: {value}")
    differ = counts["y_differ"] + counts["nfev_differ"] + counts["success_differ"]
    print("parity: " + ("ok" if differ == 0 else f"FAILED ({differ} differences)"))
    return 0 if differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
