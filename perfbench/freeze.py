"""Freeze the reference outputs the benchmark checks every run against.

Run from the repository root on the commit whose outputs are the
reference (the benchmark's parent commit):

    python3 perfbench/freeze.py

It rewrites the JSON files under perfbench/reference/.  It takes about two
minutes, most of it the isomonodromy verdicts of every residue seed in the
pool.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from reflpvi import groups, params  # noqa: E402

import workloads  # noqa: E402


def _write(name: str, data) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    specs = params.DEFAULT_TABLE_SPECS
    built = {s.label(): groups.build_group(s) for s in specs}
    _write("catalogue", {
        "groups": {label: g.to_dict() for label, g in built.items()},
        "table1": {r.spec.label(): r.to_dict() for r in params.table1(specs, groups=built)},
    })
    lm_rows = []
    for spec in specs:
        lm = params.lambda_mu_of_triple(built[spec.label()].generators).with_exact_sums()
        lm_rows.append({"group": spec.label(),
                        "lambda": [str(v) for v in lm.lambdas],
                        "mu": [str(v) for v in lm.mus]})
    _write("lambda_mu", lm_rows)

    triples = {name: workloads.orbit_summary(
        groups.build_group(groups.GroupSpec.exceptional(name)))
        for name in workloads.TRIPLES_GROUPS}
    klein = [workloads.klein_summary(i)
             for i in range(len(built[workloads.KLEIN].reflections))]
    if any(k != klein[0] for k in klein):
        raise SystemExit("the klein fixed-first pass depends on the fixed reflection")
    triples["klein"] = klein[0]
    _write("triples", triples)

    workloads.arm_deadlines()
    verdicts = {}
    for group, lm in workloads.table_lambda_mu().items():
        verdicts[group] = {str(rs): workloads.isomonodromy_verdict(lm, rs)
                           for rs in workloads.ISO_POOL}
        print(group, sorted(verdicts[group].values()).count("ok"), "passing",
              file=sys.stderr)
    _write("isomonodromy", {"deadline_cpu_s": workloads.ISO_DEADLINE_CPU_S,
                            "verdicts": verdicts})
    return 0


if __name__ == "__main__":
    sys.exit(main())
