"""Command-line interface.

Subcommands map one-to-one onto the library's reproducible experiments:

    groups list | groups info --spec SPEC
    triples classify --spec SPEC [--fix-first]
    orbits --spec SPEC [--fix-first]
    params table | params theta --spec SPEC
    verify lemma-params | cubic | schlesinger | eta-pvi
    reproduce klein

Exact commands are byte-reproducible; numerical commands are reproducible
for a fixed --seed.  Exit status: 0 success, 1 failed verification or
internal invariant, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction
from itertools import permutations

from .groups import GroupSpec, build_group
from .linalg3 import Mat3
from .fingerprints import classify_triples
from .braid import orbit, orbit_partition
from .params import (LambdaMu, lambda_mu_of_triple, canonical_theta, pvi_abcd,
                     random_lambda_mu, table1, theta_map, f_squared,
                     f_hitchin_squared, CubicForm, normalize_cubic)

SCHEMA = 1

KNOWN_SPECS = ["G(m,1,3)", "G(m,m,3)", "icosahedral", "G336", "G648", "G1296", "G2160"]


def _emit(payload: dict, args) -> None:
    payload = {"schema": SCHEMA, **payload}
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str)
    elif args.format == "csv":
        rows = payload.get("rows")
        if rows is None:
            raise SystemExit("csv output needs tabular data; use --format json")
        buf = io.StringIO()
        # rows may differ in keys (a skipped slot has no residual)
        fields = list(dict.fromkeys(k for row in rows for k in row))
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(_textual(payload))
    if args.output:
        path = args.output
        out_dir = os.environ.get("REFLPVI_OUTPUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _textual(payload, indent=0):
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_textual(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.extend(_textual(item, indent + 1))
                lines.append("")
            if lines[-1] == "":
                lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _group(args):
    return build_group(GroupSpec.parse(args.spec))


def cmd_groups(args) -> int:
    if args.action == "list":
        _emit({"groups": KNOWN_SPECS,
               "note": "imprimitive families take m >= 2 and p in {1, m}"}, args)
        return 0
    group = _group(args)
    _emit(group.to_dict(), args)
    return 0


def cmd_triples(args) -> int:
    group = _group(args)
    first = group.generators[0] if args.fix_first else None
    if first is not None and not group.reflections_single_class:
        print("warning: reflections form more than one conjugacy class; "
              "a fixed first component may miss classes", file=sys.stderr)
    classes = classify_triples(group, first_fixed=first)
    rows = [{"class": i,
             "multiplicity": c.multiplicity,
             "generated_order": c.generated_order,
             "fingerprint": json.dumps(c.fingerprint.to_dict())}
            for i, c in enumerate(classes)]
    _emit({"group": group.spec.label(), "classes": len(classes),
           "triples": sum(c.multiplicity for c in classes), "rows": rows}, args)
    return 0


def cmd_orbits(args) -> int:
    group = _group(args)
    first = group.generators[0] if args.fix_first else None
    classes = classify_triples(group, first_fixed=first)
    partition = orbit_partition(classes)
    orbit_details = []
    seen = set()
    for cls in classes:
        key = cls.fingerprint.key()
        if key in seen:
            continue
        rep = orbit(cls.fingerprint, generators="pure")
        for fp in rep.orbit:
            seen.add(fp.key())
        orbit_details.append({
            "size": rep.branches,
            "cycle_types": [list(ct) for ct in rep.cycle_types],
            "genus": rep.genus,
        })
    _emit({"group": group.spec.label(),
           "classes": len(classes),
           "partition": partition,
           "pure_braid_orbits": orbit_details}, args)
    return 0


def cmd_params(args) -> int:
    if args.action == "table":
        rows = [r.to_dict() for r in table1()]
        ok = all(r["matches"] for r in rows)
        _emit({"rows": rows, "all_match": ok}, args)
        return 0 if ok else 1
    group = _group(args)
    lm = lambda_mu_of_triple(group.generators)
    theta = canonical_theta(lm)
    abcd = pvi_abcd(theta)
    _emit({"group": group.spec.label(),
           "lambda_mu": lm.to_dict(),
           "theta": [str(v) for v in theta.as_tuple()],
           "alpha_beta_gamma_delta": [str(v) for v in abcd]}, args)
    return 0


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    if args.check == "lemma-params":
        for trial in range(args.count):
            lm = random_lambda_mu(rng)
            x = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
            y = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
            lhs = f_squared((x, y), lm)
            for perm in permutations(range(3)):
                th = theta_map(lm, perm)
                rhs = f_hitchin_squared((x - th.t1 * th.t3 / 2,
                                         y - th.t2 * th.t3 / 2), th)
                if lhs != rhs:
                    _emit({"check": "lemma-params", "ok": False,
                           "trial": trial, "perm": list(perm)}, args)
                    return 1
        _emit({"check": "lemma-params", "ok": True, "trials": args.count}, args)
        return 0
    if args.check == "cubic":
        from .verification import cubic_rank_one_exact, cubic_rank_one_float
        for trial in range(args.count):
            if not cubic_rank_one_exact(rng):
                _emit({"check": "cubic", "ok": False, "trial": trial,
                       "side": "exact"}, args)
                return 1
        float_err = cubic_rank_one_float(seed=args.seed, count=args.count)
        if float_err >= 1e-10:
            _emit({"check": "cubic", "ok": False, "side": "float",
                   "max_error": float_err}, args)
            return 1
        lm = random_lambda_mu(rng)
        cub = CubicForm.from_lambda_mu(lm)
        (_, _, _, _), (x0, y0) = normalize_cubic(cub)
        if cub.shifted(x0, y0).shifted(-x0, -y0) != cub:
            _emit({"check": "cubic", "ok": False,
                   "side": "normal-form round trip"}, args)
            return 1
        _emit({"check": "cubic", "ok": True, "trials": args.count,
               "float_max_error": float_err}, args)
        return 0

    # the floating-point layer (numpy) is imported only by these two checks
    from .schlesinger import (DegenerateSampleError, PathError, sample_residues,
                              diagonalize_gauge)
    lm = LambdaMu((Fraction(1, 2),) * 3,
                  (Fraction(3, 14), Fraction(5, 14), Fraction(13, 14)))
    try:
        config = diagonalize_gauge(sample_residues(lm, seed=args.seed))
        payload = (_verify_schlesinger(config, args) if args.check == "schlesinger"
                   else _verify_eta_pvi(config))
    except (DegenerateSampleError, PathError) as exc:
        payload = {"check": args.check, "ok": False, "error": str(exc)}
    _emit(payload, args)
    return 0 if payload["ok"] else 1


def _verify_schlesinger(config, args) -> dict:
    from .schlesinger import (integrate_schlesinger, reduced_flow_compare,
                              trajectory_csv)
    traj = integrate_schlesinger(config, [0.5, 0.8], tol=args.tol,
                                 samples_per_segment=300)
    if args.dump:
        trajectory_csv(traj, args.dump)
    rep = reduced_flow_compare(traj)
    drift = traj.eigenvalue_drift()
    ok = (drift < 1e-8 and rep.max_deviation < 1e-6
          and rep.f_consistency < 1e-8)
    return {"check": "schlesinger", "ok": ok,
            "eigenvalue_drift": drift,
            "reduced_flow_deviation": rep.max_deviation,
            "f_squared_consistency": rep.f_consistency,
            "conservation_drift": rep.conservation_drift,
            "sign_flags": rep.sign_flags}


def _verify_eta_pvi(config) -> dict:
    from .schlesinger import integrate_schlesinger, eta_pvi_residual
    traj = integrate_schlesinger(config, [0.5, 0.6], tol=1e-12,
                                 samples_per_segment=100)
    res = eta_pvi_residual(traj)
    rows = []
    ok = True
    checked = 0
    for slot, sr in sorted(res.items()):
        if sr.skipped:
            rows.append({"slot": f"{slot[0]+1}{slot[1]+1}",
                         "skipped": sr.skipped})
            continue
        checked += 1
        n_small = sum(1 for v in sr.residuals_by_perm.values() if v < 1e-3)
        ok = ok and sr.residual < 1e-3 and n_small == 1
        rows.append({"slot": f"{slot[0]+1}{slot[1]+1}",
                     "residual": sr.residual,
                     "perm": list(sr.best_perm)})
    ok = ok and checked >= 1
    return {"check": "eta-pvi", "ok": ok, "rows": rows}


def cmd_reproduce(args) -> int:
    from .fingerprints import fingerprint
    group = build_group(GroupSpec.exceptional("G336"))
    ident = Mat3.identity()
    minus_one = Fraction(-1)
    checks = {}
    checks["order_336"] = group.order == 336
    checks["reflections_21"] = len(group.reflections) == 21
    checks["reflections_order_2"] = all(r * r == ident for r in group.reflections)
    checks["reflections_t_minus_1"] = all(
        r.det() == minus_one for r in group.reflections)
    classes = classify_triples(group, first_fixed=group.generators[0])
    checks["classes_45"] = len(classes) == 45
    checks["triples_441"] = sum(c.multiplicity for c in classes) == 441
    partition = orbit_partition(classes)
    checks["partition"] = partition == [1, 1, 3, 3, 4, 4, 6, 7, 7, 9]
    std = orbit(fingerprint(list(group.generators)), generators="pure")
    checks["pure_orbit_7"] = std.branches == 7
    checks["cycle_types_322"] = all(ct == (3, 2, 2) for ct in std.cycle_types)
    checks["genus_0"] = std.genus == 0
    lm = lambda_mu_of_triple(group.generators)
    theta = canonical_theta(lm)
    checks["theta"] = theta.as_tuple() == (Fraction(2, 7),) * 3 + (Fraction(4, 7),)
    abcd = pvi_abcd(theta)
    checks["abcd"] = abcd == (Fraction(9, 98), Fraction(-2, 49),
                              Fraction(2, 49), Fraction(45, 98))
    ok = all(checks.values())
    _emit({"pipeline": "klein",
           "checks": {k: bool(v) for k, v in checks.items()},
           "partition": partition,
           "theta": [str(v) for v in theta.as_tuple()],
           "alpha_beta_gamma_delta": [str(v) for v in abcd],
           "ok": ok}, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflpvi",
        description="Complex reflection groups, braid orbits and PVI parameters")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--output", help="write output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groups", help="group catalogue")
    g.add_argument("action", choices=("list", "info"))
    g.add_argument("--spec", help="group spec, e.g. G336 or G(3,1,3)")
    g.set_defaults(func=cmd_groups)

    t = sub.add_parser("triples", help="classify reflection triples")
    t.add_argument("action", choices=("classify",))
    t.add_argument("--spec", required=True)
    t.add_argument("--fix-first", action="store_true")
    t.set_defaults(func=cmd_triples)

    o = sub.add_parser("orbits", help="braid orbit decomposition")
    o.add_argument("--spec", required=True)
    o.add_argument("--fix-first", action="store_true")
    o.set_defaults(func=cmd_orbits)

    p = sub.add_parser("params", help="PVI parameters")
    p.add_argument("action", choices=("table", "theta"))
    p.add_argument("--spec")
    p.set_defaults(func=cmd_params)

    v = sub.add_parser("verify", help="verification suites")
    v.add_argument("check", choices=("lemma-params", "cubic", "schlesinger", "eta-pvi"))
    # None marks "not given", so that a flag the check ignores is refused
    v.add_argument("--count", type=int,
                   help="trials (lemma-params, cubic; default 100)")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--tol", type=float,
                   help="integration tolerance (schlesinger; default 1e-10)")
    v.add_argument("--dump", help="write the trajectory samples to this CSV path "
                                  "(schlesinger)")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("reproduce", help="whole-pipeline reproductions")
    r.add_argument("target", choices=("klein",))
    r.set_defaults(func=cmd_reproduce)
    return parser


def _check_verify_flags(parser, args) -> None:
    """Refuse a flag the chosen check would ignore or a value out of range,
    then fill in defaults."""
    used = {"--count": ("lemma-params", "cubic"),
            "--tol": ("schlesinger",), "--dump": ("schlesinger",)}
    for flag, checks in used.items():
        if getattr(args, flag[2:]) is not None and args.check not in checks:
            parser.error(f"verify {args.check} does not take {flag}")
    if args.count is not None and args.count < 1:
        parser.error(f"verify {args.check} needs --count >= 1")
    if args.tol is not None and not args.tol > 0:
        parser.error(f"verify {args.check} needs --tol > 0")
    if args.seed < 0:
        parser.error(f"verify {args.check} needs --seed >= 0")
    if args.count is None:
        args.count = 100
    if args.tol is None:
        args.tol = 1e-10


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("groups", "params"):
        needs_spec = args.action in ("info", "theta")
        if needs_spec and not args.spec:
            parser.error(f"{args.command} {args.action} requires --spec")
        if not needs_spec and args.spec is not None:
            parser.error(f"{args.command} {args.action} does not take --spec")
    if args.command == "verify":
        _check_verify_flags(parser, args)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
