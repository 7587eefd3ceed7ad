"""Paired benchmark runs of two source trees, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --pr 7 --pairs triples:901:10 --pairs catalogue:921:3 \
        --pairs isomonodromy:931:3 [--traced triples:941]

Each tree is a checkout of its own (a `git archive` or `git clone` of the
commit), so each side runs the benchmark and the library from its own
files.  A `--pairs WORKLOAD:FIRST_SEED:COUNT` entry runs
`perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0` once
in each tree for the COUNT seeds from FIRST_SEED on, one pair at a time,
the parent first on even pair indices and the change first on odd ones.
COUNT must be even, so that each side runs first equally often: the side
that runs second can be the slower one.
A `--traced WORKLOAD:SEED` entry runs one `--trace 1` run per side and
keeps its per-layer metrics.  S is `run_seconds` of the change tree's
BENCHMARK.json, and the end-to-end metrics summarised are the ones it
lists.  The output is rewritten after every run, so an interrupted
batch keeps the pairs it finished.  Runs are serial: the benchmark times
one thread, and two runs at once would slow each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
OUTCOME = ("correct", "attempted", "failed")


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def flatten(result: dict, names=None) -> dict:
    """Metric values by name (all of them, or `names`), then the outcome."""
    metrics = result["metrics"]
    out = {name: metrics[name]["value"] for name in (names or metrics)}
    out.update({key: result[key] for key in OUTCOME})
    return out


def quartiles(values) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs, metrics) -> dict:
    """Per metric: each side's quartiles, and the pairs the change won."""
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {**{side: quartiles(v) for side, v in sides.items()},
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def parse_spec(text: str, parts: int):
    fields = text.split(":")
    if len(fields) != parts:
        raise argparse.ArgumentTypeError(f"expected {parts} colon-separated fields: {text!r}")
    return (fields[0],) + tuple(int(f) for f in fields[1:])


def pairs_spec(text: str):
    spec = parse_spec(text, 3)
    if spec[2] % 2:
        raise argparse.ArgumentTypeError(
            f"COUNT must be even, so that each side runs first equally often: {text!r}")
    return spec


def _version(package: str):
    """The installed version of `package`, or None when it is missing (scipy
    is only a test extra)."""
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def git_head(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", required=True, help="suffix of the output BENCH_<pr>.json")
    parser.add_argument("--pairs", action="append", default=[],
                        type=pairs_spec, help="WORKLOAD:FIRST_SEED:COUNT, COUNT even")
    parser.add_argument("--traced", action="append", default=[],
                        type=lambda s: parse_spec(s, 2), help="WORKLOAD:SEED")
    parser.add_argument("--parent-commit", help="default: the parent tree's git HEAD")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in the change tree")
    args = parser.parse_args(argv)

    config = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    metrics = {m["name"]: m["better"] for m in config["end_to_end"]}
    out_path = args.out or args.change / f"BENCH_{args.pr}.json"
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {
        "what": ("Paired perfbench runs of the parent commit and this change, each side "
                 "run from its own copy of the source tree, alternating which side runs "
                 "first (parent first on even pair index). Command: python3 perfbench/run.py "
                 f"--workload W --seed N --seconds {seconds:g} --trace T. Traced rows are "
                 "per pass of one --trace 1 run per side. Written by tools/bench_pairs.py."),
        "parent_commit": args.parent_commit or git_head(trees["parent"]),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 **{pkg: _version(pkg) for pkg in ("numpy", "scipy")}},
        "workloads": {},
        "traced": {},
    }

    def save():
        out_path.write_text(json.dumps(record, indent=1) + "\n")

    for workload, first_seed, count in args.pairs:
        entry = record["workloads"].setdefault(workload, {"pairs": [], "summary": {}})
        for index, seed in enumerate(range(first_seed, first_seed + count)):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_bench(trees[side], workload, seed, seconds, trace=0)
                pair[side] = flatten(result, metrics)
            entry["pairs"].append(pair)
            entry["summary"] = summarise(entry["pairs"], metrics)
            save()
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]}" for side in SIDES), flush=True)

    for workload, seed in args.traced:
        record["traced"][f"{workload}-seed{seed}"] = {
            side: flatten(run_bench(trees[side], workload, seed, seconds, trace=1))
            for side in SIDES}
        save()
        print(f"traced {workload} seed {seed}: done", flush=True)
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
