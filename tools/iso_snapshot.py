"""Write every float the isomonodromy checks produce, one line per op.

    python3 tools/iso_snapshot.py OUTFILE

The float-layer counterpart of `tools/cli_snapshot.py`.  Runs every
(Table-1 row, residue seed) pair of the benchmark's isomonodromy pool (the
13 rows of `perfbench/reference/lambda_mu.json` times residue seeds 1..64)
with the `reflpvi` package of the tree this script sits in, through the two
runs the `verify` commands make (`schlesinger.flow_trajectory` and
`schlesinger.eta_trajectory`), and writes one JSON line per op to OUTFILE:

- `flow_sha256`, `eta_sha256`: sha256 of each trajectory's `ts`, `b1s` and
  `b2s` bytes
- `report`: the repr of `reduced_flow_compare`'s `ReducedFlowReport`
- `drift`: the repr of `Trajectory.eigenvalue_drift()`
- `eta`: the repr of each slot's `SlotResidual` from `eta_pvi_residual`,
  residuals by permutation included
- `verdict`: the benchmark's verdict, made from the values above by the
  `verify` commands' rules `schlesinger.flow_ok` and `schlesinger.eta_ok`,
  but without the benchmark's CPU-time deadline

A sample the diagonal gauge refuses writes only its refusal.  Snapshots of
two trees, made on the same machine, compare with `diff OLD NEW`: no line
differs exactly when every float is bit for bit the same.  Prints each
row's process time and the verdict counts to stderr.  `pool_ops` walks the
pool; `tools/rk45_parity.py` walks it through the same generator.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TREE / "src"), str(TREE / "perfbench")]

from reflpvi import schlesinger  # noqa: E402
import workloads  # noqa: E402


def _sha256(traj) -> str:
    digest = hashlib.sha256()
    for array in (traj.ts, traj.b1s, traj.b2s):
        digest.update(array.tobytes())
    return digest.hexdigest()


def snapshot_op(lm, residue_seed: int) -> dict:
    """The float outputs and the verdict of one (row, residue seed) op."""
    try:
        config = schlesinger.diagonalize_gauge(
            schlesinger.sample_residues(lm, seed=residue_seed))
    except schlesinger.DegenerateSampleError as exc:
        return {"degenerate": str(exc), "verdict": "degenerate_sample"}
    out = {}
    try:
        traj = schlesinger.flow_trajectory(config)
        rep = schlesinger.reduced_flow_compare(traj)
        drift = traj.eigenvalue_drift()
        out.update(flow_sha256=_sha256(traj), report=repr(rep), drift=repr(drift))
        flow_ok = schlesinger.flow_ok(drift, rep)
        eta_traj = schlesinger.eta_trajectory(config)
        out["eta_sha256"] = _sha256(eta_traj)
        try:
            residuals = schlesinger.eta_pvi_residual(eta_traj)
        except schlesinger.PathError:
            raise
        except ValueError as exc:    # eta extraction refused the gauge
            out["eta"] = f"refused: {exc}"
            eta_ok = False
        else:
            out["eta"] = {f"{i + 1}{j + 1}": repr(sr) for (i, j), sr in residuals.items()}
            eta_ok = schlesinger.eta_ok(residuals)
    except schlesinger.PathError as exc:
        out.update(path_error=str(exc), verdict="path_error")
        return out
    out["verdict"] = "ok" if flow_ok and eta_ok else (
        "eta_check" if flow_ok else "flow_check")
    return out


def pool_ops():
    """Yield (row, residue seed, `snapshot_op`) for each op of the pool, in
    order, and print each row's end to stderr with the process time its
    ops took (the time the consumer spends between them not counted)."""
    for group, lm in workloads.table_lambda_mu().items():
        cpu = 0.0
        for rs in workloads.ISO_POOL:
            start = time.process_time()
            op = snapshot_op(lm, rs)
            cpu += time.process_time() - start
            yield group, rs, op
        print(f"{group}: done, {cpu:.3f} s process time", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/iso_snapshot.py OUTFILE", file=sys.stderr)
        return 2
    verdicts = Counter()
    with open(args[0], "w") as fh:
        for group, rs, op in pool_ops():
            verdicts[op["verdict"]] += 1
            fh.write(json.dumps({"group": group, "residue_seed": rs, **op},
                                sort_keys=True) + "\n")
    print("ops: %d, %s" % (sum(verdicts.values()), ", ".join(
        f"{v}: {n}" for v, n in sorted(verdicts.items()))), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
