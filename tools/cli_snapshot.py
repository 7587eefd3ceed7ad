"""Write the JSON output of the exact CLI commands, one file per command.

    python3 tools/cli_snapshot.py OUTDIR

Runs each command below with the `reflpvi` package of the tree this
script sits in (its `src/` goes first on PYTHONPATH), one at a time, and
writes the command's stdout to OUTDIR/<name>.json, its stderr to
OUTDIR/<name>.err and its exit status to OUTDIR/<name>.status.  The
`refuse-` commands write no output, so their .json is empty: the usage
errors exit 2, and `orbits --spec G648 --fix-first`, which the command
itself refuses since G648's reflections form two conjugacy classes, exits
1.  Every other command must write output.  All commands are recorded;
the script then exits 1 if any broke those rules, naming each other
command that wrote no output and each `refuse-` command that exited 0 or
wrote to stdout.
Snapshots of two trees, made on the same machine, compare with
`diff -r OLD NEW`: every file is the same exactly when the commands give
byte-identical output.  The numerical `verify` commands are included at
a fixed seed, so the comparison also covers their floating-point results
on one machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent

SPECS = ["G(2,1,3)", "G(2,2,3)", "G(3,3,3)", "G(4,4,3)", "G(5,5,3)", "G(6,6,3)",
         "G(3,1,3)", "G(4,1,3)", "G(5,1,3)", "G(6,1,3)",
         "icosahedral", "G336", "G648", "G1296", "G2160"]


def _name(spec: str) -> str:
    return spec.replace("(", "").replace(")", "").replace(",", "-")


COMMANDS = (
    [(f"groups-info-{_name(s)}", ["groups", "info", "--spec", s]) for s in SPECS]
    + [(f"params-theta-{_name(s)}", ["params", "theta", "--spec", s]) for s in SPECS]
    + [("groups-list", ["groups", "list"]),
       ("groups-info-g336-lowercase", ["groups", "info", "--spec", "g336"]),
       ("params-table", ["params", "table"]),
       ("triples-G336-fix-first", ["triples", "classify", "--spec", "G336", "--fix-first"]),
       ("triples-G648", ["triples", "classify", "--spec", "G648"]),
       ("triples-G1296", ["triples", "classify", "--spec", "G1296"]),
       ("triples-G2160-fix-first", ["triples", "classify", "--spec", "G2160", "--fix-first"]),
       # warns on stderr that its reflections form more than one class
       ("triples-G648-fix-first", ["triples", "classify", "--spec", "G648", "--fix-first"])]
    + [(f"triples-{_name(s)}", ["triples", "classify", "--spec", s])
       for s in ("G336", "icosahedral", "G(4,1,3)", "G2160")]
    + [("orbits-G648", ["orbits", "--spec", "G648"]),
       ("orbits-G336", ["orbits", "--spec", "G336"]),
       ("orbits-icosahedral", ["orbits", "--spec", "icosahedral"]),
       ("orbits-G336-fix-first", ["orbits", "--spec", "G336", "--fix-first"]),
       ("orbits-G3-1-3", ["orbits", "--spec", "G(3,1,3)"]),
       ("orbits-G2160", ["orbits", "--spec", "G2160"]),
       ("orbits-G1296", ["orbits", "--spec", "G1296"]),
       ("orbits-G4-1-3", ["orbits", "--spec", "G(4,1,3)"])]
    + [(f"orbits-{_name(s)}", ["orbits", "--spec", s])
       for s in ("G(2,1,3)", "G(2,2,3)", "G(3,3,3)", "G(4,4,3)", "G(5,5,3)", "G(6,6,3)",
                 "G(5,1,3)", "G(6,1,3)")]
    + [("reproduce-klein", ["reproduce", "klein"]),
       ("verify-lemma-params", ["verify", "lemma-params", "--count", "20"]),
       ("verify-cubic", ["verify", "cubic", "--count", "20"]),
       ("verify-schlesinger", ["verify", "schlesinger", "--seed", "1"]),
       # f changes sign along this flow
       ("verify-schlesinger-seed-3", ["verify", "schlesinger", "--seed", "3"]),
       ("verify-eta-pvi", ["verify", "eta-pvi", "--seed", "1"]),
       ("verify-eta-pvi-seed-3", ["verify", "eta-pvi", "--seed", "3"])]
    + [("refuse-verify-eta-pvi-tol", ["verify", "eta-pvi", "--tol", "1e-8"]),
       ("refuse-verify-schlesinger-tol-inf", ["verify", "schlesinger", "--tol", "inf"]),
       ("refuse-verify-cubic-count-0", ["verify", "cubic", "--count", "0"]),
       ("refuse-groups-list-spec", ["groups", "list", "--spec", "G336"]),
       ("refuse-groups-info-no-spec", ["groups", "info"]),
       ("refuse-verify-seed-before-check", ["verify", "--seed", "1", "schlesinger"]),
       ("refuse-groups-spec-before-action", ["groups", "--spec", "G336", "info"]),
       ("refuse-csv-groups-info", ["--format", "csv", "groups", "info", "--spec", "G336"]),
       ("refuse-orbits-G648-fix-first", ["orbits", "--spec", "G648", "--fix-first"])]
)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TREE / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REFLPVI_OUTPUT_DIR", None)
    silent, accepted = [], []
    for name, cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "reflpvi.cli", *cmd],
                              env=env, capture_output=True, text=True)
        (out / f"{name}.json").write_text(proc.stdout)
        (out / f"{name}.err").write_text(proc.stderr)
        (out / f"{name}.status").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
        if name.startswith("refuse-"):
            if proc.returncode == 0 or proc.stdout:
                accepted.append(name)
        elif not proc.stdout:
            silent.append(name)
    if silent:
        print(f"no output (see their .err files): {', '.join(silent)}", file=sys.stderr)
    if accepted:
        print(f"not refused (exit 0 or output on stdout): {', '.join(accepted)}",
              file=sys.stderr)
    return 1 if silent or accepted else 0


if __name__ == "__main__":
    sys.exit(main())
