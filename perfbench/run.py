"""reflpvi benchmark runner.

    python3 perfbench/run.py --workload catalogue|triples|isomonodromy \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner itself does not import
reflpvi: it starts perfbench/worker.py several times to time set-up (each
from process start through `import reflpvi` and workload generation), and
the last of those workers goes on to run the timed passes.  The runner
prints a human-readable report, writes the full record (environment, every
pass, and with --trace 1 the spans) under .bench_out/, and prints one JSON
line last: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  It exits non-zero, printing no result, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT_DIR = CHECKOUT / ".bench_out"

SETUPS = 5                 # set-ups timed per run; the last one runs the passes
# Set-up (process start, imports, reading files) is less bound by the
# interpreter loop than the host-speed probe: over 150 set-ups on the host
# the benchmark was made on, its time went as the probe's time to the power
# 0.69, so it is rescaled by that power of the probe's ratio.
SETUP_PROBE_POWER = 0.7
RUN_LIMIT_S = 170.0        # whole run, set-ups included
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

TABLE1_SPECS = ("G3-3-3", "G4-4-3", "G5-5-3", "G6-6-3", "G3-1-3", "G4-1-3",
                "G5-1-3", "G6-1-3", "icosahedral", "G336", "G648", "G1296", "G2160")
LAYERS = ("cyclotomic", "linalg3", "groups", "fingerprints", "braid", "params",
          "schlesinger")
ISO_REASONS = ("degenerate_sample", "path_error", "timeout", "flow_check",
               "eta_check", "error")

# Per-layer metrics of the traced run: (name, unit).  `<x>.calls` counts
# calls of the wrapped function, `<x>.self_s` is its self time, `<x>.incl_s`
# its time including callees, and `<layer>.self_s` the sum of self times over
# the layer's wrapped functions.  All are per pass.
PER_LAYER = (
    [("cyclotomic.canonical.calls", "count"), ("cyclotomic.canonical.self_s", "s"),
     ("cyclotomic.mul.calls", "count"), ("cyclotomic.self_s", "s"),
     ("linalg3.mat3_mul.calls", "count"), ("linalg3.mat3_mul.self_s", "s"),
     ("linalg3.det.calls", "count"), ("linalg3.inverse.calls", "count"),
     ("linalg3.self_s", "s")]
    + [(f"groups.build_group.{spec}.{kind}", "s")
       for spec in TABLE1_SPECS for kind in ("self_s", "incl_s")]
    + [("groups.enumerate_elements.calls", "count"),
       ("groups.enumerate_elements.self_s", "s"),
       ("groups.closure_useful_ratio", "ratio"),
       ("groups.reflections_of.self_s", "s"),
       ("groups.product_index.calls", "count"), ("groups.product_index.self_s", "s"),
       ("groups.generated_order.self_s", "s"), ("groups.conjugacy_class.self_s", "s"),
       ("groups.self_s", "s"),
       ("fingerprints.classify_triples.self_s", "s"),
       ("fingerprints.fingerprint_by_indices.calls", "count"),
       ("fingerprints.fingerprint.calls", "count"), ("fingerprints.classes", "count"),
       ("fingerprints.self_s", "s"),
       ("braid.orbit.calls", "count"), ("braid.orbit.self_s", "s"),
       ("braid.orbit.states", "count"), ("braid.orbit_partition.self_s", "s"),
       ("braid.self_s", "s"),
       ("params.table1.self_s", "s"), ("params.lambda_mu_of_triple.self_s", "s"),
       ("params.canonical_theta.self_s", "s"), ("params.self_s", "s")]
    + [(f"schlesinger.{fn}.self_s", "s")
       for fn in ("sample_residues", "diagonalize_gauge", "integrate_schlesinger",
                  "reduced_flow_compare", "eigenvalue_drift", "eta_pvi_residual")]
    + [("schlesinger.nfev", "count")]
    + [(f"schlesinger.fail.{reason}", "count") for reason in ISO_REASONS]
    + [("schlesinger.self_s", "s"),
       ("fail_ratio", "ratio"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
       ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.outside_s", "s")]
)


class WorkerError(RuntimeError):
    pass


def _spawn(args, extra, deadline):
    """Start one worker and read its output.  Returns its set-up time (plain,
    the probes taken around it, and rescaled to the reference host speed)
    and the output that followed READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    env = {**os.environ, **CHILD_ENV}
    speed_before = probe.probe_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise WorkerError("worker ended before it was ready")
        try:
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the run's time limit") from None
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
        speeds = [float(ln.split()[1]) for ln in rest.splitlines()
                  if ln.startswith("PROBE ")]
        if len(speeds) != 1:
            raise WorkerError("worker printed no host-speed probe")
        factor = probe.scale(speed_before, speeds[0], "exact", SETUP_PROBE_POWER)
        return {"raw_s": setup_s, "probes_ms": [speed_before * 1000.0, speeds[0] * 1000.0],
                "ref_s": setup_s * factor}, rest
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def cpu_ref_s(untraced):
    """CPU time of one pass at the reference host speed: each op's rescaled
    CPU time, its median over the passes, summed over the ops of a pass."""
    by_op = {}
    for p in untraced:
        for r in p["ops"]:
            by_op.setdefault(r["op"], []).append(r["ref_ms"])
    return sum(statistics.median(v) for v in by_op.values()) / 1000.0


def end_to_end(untraced, setups, peak_rss_mb):
    return {"cpu_ref_s": cpu_ref_s(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb}


def op_latency_ms(untraced):
    """Median and 90th percentile of the untraced ops' CPU times."""
    op_ms = [r["cpu_ms"] for p in untraced for r in p["ops"]]
    p90 = statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1 else op_ms[0]
    return {"op_p50_ms": statistics.median(op_ms), "op_p90_ms": p90}


def per_layer(traced, untraced, fail_ratio):
    """Per-pass layer metrics, each the median over the traced passes."""
    rows = []
    for p in traced:
        self_s, calls, counts = p["self_s"], p["calls"], p["counts"]
        row = {}
        for name, value in self_s.items():
            row[f"{name}.self_s"] = value
        for name, value in calls.items():
            row[f"{name}.calls"] = value
        row.update(counts)
        for _, name, start, end, _ in p["spans"]:
            if name.startswith("groups.build_group."):
                row[f"{name}.incl_s"] = row.get(f"{name}.incl_s", 0.0) + end - start
        layer_total = 0.0
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.split(".")[0] == layer)
            layer_total += row[f"{layer}.self_s"]
        enumerated = counts.get("groups.enumerated", 0)
        row["groups.closure_useful_ratio"] = (counts.get("groups.kept", 0) / enumerated
                                              if enumerated else 0.0)
        for reason in ISO_REASONS:
            row[f"schlesinger.fail.{reason}"] = sum(
                1 for r in p["ops"] if r["verdict"] == reason)
        row["trace.wall_s"] = p["wall_s"]
        row["trace.outside_s"] = p["wall_s"] - layer_total
        rows.append(row)
    out = {}
    for name, _ in PER_LAYER:
        values = [row.get(name, 0) for row in rows]
        out[name] = statistics.median(values)
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["fail_ratio"] = fail_ratio
    out.update(op_latency_ms(untraced))
    return out


def report(args, env, record, metrics, units):
    print(f"# reflpvi benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("# inputs  " + json.dumps(record["inputs"]))
    untraced = record["untraced"]
    n_ops = sum(len(p["ops"]) for p in untraced)
    print(f"# samples  passes={len(untraced)} ops={n_ops} setups={len(record['setups'])}"
          + (f" traced_passes={len(record['traced'])}" if record["traced"] else ""))
    probes = [v for p in untraced for v in p["probes_ms"]]
    print(f"# host  probe_ms median={statistics.median(probes):.3f} "
          f"(reference {probe.REF_S[untraced[0]['probe']] * 1000:.3f})  "
          f"untraced pass wall_s median="
          f"{statistics.median(p['wall_s'] for p in untraced):.3f}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6f} {units[name]}")
    for name, value in op_latency_ms(untraced).items():
        if name not in metrics:
            print(f"# {name:<42} {value:>16.6f} ms")
    print(f"# fail_ratio {record['fail_ratio']:.6f} ratio "
          f"({record['not_ok']}/{record['attempted']} ops not ok)  by reason: "
          + json.dumps(record["reasons"]))
    for failure in record["failures"][:20]:
        print("# FAILED " + failure, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reflpvi benchmark runner")
    parser.add_argument("--workload", required=True,
                        choices=("catalogue", "triples", "isomonodromy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = {"nproc": os.cpu_count(),
           "loadavg_start": ",".join(f"{v:.2f}" for v in os.getloadavg())}
    setups = []
    try:
        for _ in range(SETUPS - 1):
            setups.append(_spawn(args, ["--setup-only"], deadline)[0])
        setup, out = _spawn(args, [], deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if len(lines) != 1:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    record = json.loads(lines[0][len("RESULT "):])
    env.update(record.pop("env"))
    record["setups"] = setups

    all_ops = [r for p in record["untraced"] + record["traced"] for r in p["ops"]]
    failures = [f"{r['op']}: {r['failure']}" for r in all_ops if r["failure"]]
    reasons = {}
    for r in all_ops:
        reason = r["verdict"] if r["verdict"] not in (None, "ok") else (
            "mismatch" if r["failure"] else None)
        if reason:
            reasons[reason] = reasons.get(reason, 0) + 1
    not_ok = sum(reasons.values())
    record.update({"attempted": len(all_ops), "failures": failures,
                   "reasons": reasons, "not_ok": not_ok,
                   "fail_ratio": not_ok / len(all_ops)})

    if args.trace:
        metrics = per_layer(record["traced"], record["untraced"], record["fail_ratio"])
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(record["untraced"], [s["ref_s"] for s in setups],
                             record["peak_rss_mb"])
        units = END_TO_END

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "metrics": metrics, **record}) + "\n")

    report(args, env, record, metrics, units)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
