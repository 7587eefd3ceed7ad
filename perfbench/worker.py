"""One benchmark process: set up a workload, then run timed passes of it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Started by run.py, which times set-up from process start to the READY line
this process prints just before its first timed library call, and rescales
it with the host-speed probe this process times right after.  With
--setup-only it stops there.  Otherwise it runs as many passes of the
workload as fit in S seconds (at least one); with --trace 1 it alternates
untraced and traced passes, so that the tracing overhead is measured in the
same process and under the same machine load.  The peak resident memory is
that of the whole process, so only an untraced run's counts as a metric.  It prints
its result as one line starting with RESULT.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, thread_time

import probe

CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"


def _import_library() -> None:
    """Import reflpvi from this checkout's sources, never from an install."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import reflpvi
    if not Path(reflpvi.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"reflpvi was imported from {reflpvi.__file__}, not from {SRC}")


def clear_library_caches() -> None:
    """Empty every functools cache in the reflpvi modules, as in a new process."""
    for name, mod in list(sys.modules.items()):
        if name == "reflpvi" or name.startswith("reflpvi."):
            for value in vars(mod).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()


def run_pass(workload, tracer=None) -> dict:
    """Run every op of one cold pass; time each op's library calls.

    Each op's `ms` is its wall time.  An untraced pass runs under a
    host-speed `probe.Sampler` of the workload's probe kind: each op's
    `cpu_ms` is its CPU time without the probes that fell inside it, and
    its `ref_ms` is that time rescaled to the reference host speed, except
    for an op stopped by its CPU-time deadline, whose time the deadline
    fixes whatever the host's speed.  `wall_s` leaves the probes out,
    `elapsed_s` does not.  A traced pass takes no probes, so that they do
    not land in the layers' self times."""
    clear_library_caches()
    gc.collect()
    ops = workload.pass_ops()
    records = []
    sampler = probe.Sampler(workload.probe) if tracer is None else None
    start = perf_counter()
    if sampler:
        sampler.start()
    for op in ops:
        t0, c0 = perf_counter(), thread_time()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("op"):
                    result = op.run()
            t1, c1 = perf_counter(), thread_time()
            failure = op.check(result)
        except Exception as exc:     # an op that raises is a failed op, not a failed run
            t1, c1 = perf_counter(), thread_time()
            result = {"verdict": "error"}
            failure = f"error: {type(exc).__name__}: {exc}"
        records.append({"op": op.label, "ms": (t1 - t0) * 1000.0, "cpu": (c0, c1),
                        "verdict": result.get("verdict"), "failure": failure})
    if sampler:
        sampler.stop()
    elapsed = perf_counter() - start
    for r in records:
        c0, c1 = r.pop("cpu")
        if sampler:
            raw, ref = sampler.rescale(c0, c1)
            if r["verdict"] == "timeout":
                ref = raw
            r["cpu_ms"], r["ref_ms"] = raw * 1000.0, ref * 1000.0
    probe_wall = sampler.wall_spent if sampler else 0.0
    return {"wall_s": elapsed - probe_wall, "elapsed_s": elapsed,
            "probe": workload.probe,
            "probes_ms": [v * 1000.0 for *_, v in sampler.samples] if sampler else [],
            "ops": records}


def traced_pass(workload) -> dict:
    """One pass with the tracer installed, and what the tracer recorded."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(extra_modules=[sys.modules["workloads"]])
    try:
        record = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    return {**record, "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts), "spans": tracer.spans}


def run_rounds(seconds: float, *kinds) -> list:
    """Rounds of one pass of each kind, as many as fit in `seconds`: after
    the first, another round starts only if one as long as the last would
    end in time.  The kinds run in turn, first one first in even rounds and
    last one first in odd rounds.  Returns one list of passes per kind."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start + sum(p["elapsed_s"] for p in rounds[-1]) <= seconds:
        order = kinds if len(rounds) % 2 == 0 else kinds[::-1]
        done = {kind: kind() for kind in order}
        rounds.append([done[kind] for kind in kinds])
    return [list(column) for column in zip(*rounds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    import numpy
    import scipy
    import workloads

    workload = workloads.generate(args.workload, args.seed)
    print("READY", flush=True)
    print(f"PROBE {probe.probe_s()!r}", flush=True)   # host speed at the end of set-up
    if args.setup_only:
        return 0

    def untraced_pass():
        return run_pass(workload)

    if args.trace:
        untraced, traced = run_rounds(args.seconds, untraced_pass,
                                      lambda: traced_pass(workload))
    else:
        [untraced], traced = run_rounds(args.seconds, untraced_pass), []

    out = {
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__},
        "inputs": workload.inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "untraced": untraced,
        "traced": traced,
    }
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
