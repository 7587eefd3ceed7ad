"""Command-line interface.

Subcommands map one-to-one onto the library's reproducible experiments:

    groups list | groups info --spec SPEC
    triples classify --spec SPEC [--fix-first]
    orbits --spec SPEC [--fix-first]
    params table | params theta --spec SPEC
    verify lemma-params | cubic | schlesinger | eta-pvi
    reproduce klein

Each command has its own parser with its own flags, defaults and value
ranges, so argparse refuses a flag the command would ignore, with the
command's own usage line; flags follow the command they belong to, and one
given before a family's check or action name (`verify --seed 1
schlesinger`) is refused with a message that says it goes after.  Exact
commands are byte-reproducible; numerical commands are reproducible for a
fixed --seed.  Exit status: 0 success, 1 failed verification or internal
invariant, 2 usage errors.

The verify checks:

    lemma-params  f^2 of the (lambda, mu) cubic is the theta form, exactly
    cubic         the cubic constants hold on a rational matrix, every
                  residue sample built from them has -B4 with spectrum mu,
                  and f^2 is the shifted theta cubic of every mu order at
                  ten points that fix a cubic
    schlesinger   G336's Schlesinger flow (`schlesinger.flow_trajectory`)
                  keeps its eigenvalues and follows the reduced (x, y, f)
                  flow, integrated by the same RK45 stepper
    eta-pvi       the slot roots eta of `schlesinger.eta_trajectory` solve
                  PVI under exactly one order of the mu's, with eta' and
                  eta'' read off the Schlesinger equations
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import permutations

from .groups import EXCEPTIONAL_DATA, GroupSpec, build_group
from .linalg3 import Mat3
from .fingerprints import classify_triples
from .braid import orbit, orbit_partition
from .params import (LambdaMu, lambda_mu_of_triple, canonical_theta, pvi_abcd,
                     random_lambda_mu, table1, theta_map, f_squared,
                     f_hitchin_squared, cubic_coeffs_from_sums)

SCHEMA = 1

KNOWN_SPECS = ["G(m,1,3)", "G(m,m,3)", *EXCEPTIONAL_DATA]

# the values of a cubic in (x, y) at these ten points determine it
CUBIC_POINTS = [(i, j) for i in range(4) for j in range(4 - i)]


def _emit(payload: dict, args) -> None:
    payload = {"schema": SCHEMA, **payload}
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str)
    elif args.format == "csv":
        rows = payload.get("rows")
        if rows is None:
            # main admits csv for tabular commands only; a check that failed
            # before making its rows still fails
            raise SystemExit(f"error: {payload['error']}")
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
    if args.fix_first and not group.reflections_single_class:
        # braid moves then carry a triple out of the classes found with r1 fixed
        raise ValueError(f"{group.spec.label()}: --fix-first needs the reflections to "
                         "form one conjugacy class, and they form more than one")
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


def _theta_cubic_miss(lm: LambdaMu, points):
    """The first mu order whose theta cubic, at each point shifted by
    (theta1 theta3 / 2, theta2 theta3 / 2), differs from f^2 of the
    (lambda, mu) cubic at the point; None when every order agrees."""
    lhs = [f_squared(point, lm) for point in points]
    for perm in permutations(range(3)):
        th = theta_map(lm, perm)
        dx, dy = th.t1 * th.t3 / 2, th.t2 * th.t3 / 2
        if any(f_hitchin_squared((x - dx, y - dy), th) != value
               for (x, y), value in zip(points, lhs)):
            return perm
    return None


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    if args.check == "lemma-params":
        for trial in range(args.count):
            lm = random_lambda_mu(rng)
            x = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
            y = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
            perm = _theta_cubic_miss(lm, [(x, y)])
            if perm is not None:
                _emit({"check": "lemma-params", "ok": False,
                       "trial": trial, "perm": list(perm)}, args)
                return 1
        _emit({"check": "lemma-params", "ok": True, "trials": args.count}, args)
        return 0
    if args.check == "cubic":
        # exact side: the constants of a random rational matrix with diagonal
        # lambda, fed its Tr(M^2) and det M, give c = w + x + y and
        # p + q = a x + b y + k
        for trial in range(args.count):
            lam = random_lambda_mu(rng).lambdas
            b12, b21, b13, b31, b23, b32 = (
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 6)) for _ in range(6))
            m = Mat3.from_rationals([[lam[0], b12, b13], [b21, lam[1], b23],
                                     [b31, b32, lam[2]]])
            a, b, k, c = cubic_coeffs_from_sums(lam, (m * m).trace().is_rational(),
                                                m.det().is_rational())
            w, x, y = b12 * b21, b13 * b31, b23 * b32
            p, q = b12 * b23 * b31, b13 * b32 * b21
            if c != w + x + y or p + q != a * x + b * y + k:
                _emit({"check": "cubic", "ok": False, "trial": trial,
                       "side": "exact"}, args)
                return 1
        # float side: the residue sampler builds B4 from `cubic_coeffs`, and
        # -B4 must have the spectrum mu; clustered mu make that comparison
        # ill-conditioned, so they are drawn again
        from .schlesinger import DegenerateSampleError, _b4_eig_error, sample_residues
        float_err = 0.0
        trial = 0
        while trial < args.count:
            lm = random_lambda_mu(rng)
            mus = sorted(lm.mus)
            if min(mus[1] - mus[0], mus[2] - mus[1]) < Fraction(1, 10):
                continue
            try:
                config = sample_residues(lm, seed=rng.randrange(2 ** 32))
            except DegenerateSampleError as exc:
                _emit({"check": "cubic", "ok": False, "trial": trial,
                       "side": "float", "error": str(exc)}, args)
                return 1
            float_err = max(float_err, _b4_eig_error(config.b4, lm))
            trial += 1
        if float_err >= 1e-10:
            _emit({"check": "cubic", "ok": False, "side": "float",
                   "max_error": float_err}, args)
            return 1
        # theta side: f^2 of the (lambda, mu) cubic is the theta cubic of
        # every mu order, shifted, as polynomials
        perm = _theta_cubic_miss(random_lambda_mu(rng), CUBIC_POINTS)
        if perm is not None:
            _emit({"check": "cubic", "ok": False, "side": "theta cubic",
                   "perm": list(perm)}, args)
            return 1
        _emit({"check": "cubic", "ok": True, "trials": args.count,
               "float_max_error": float_err}, args)
        return 0

    # the floating-point layer (numpy) is imported only by these two checks
    from .schlesinger import (DegenerateSampleError, PathError, sample_residues,
                              diagonalize_gauge)
    lm = lambda_mu_of_triple(build_group(GroupSpec.exceptional("G336")).generators)
    try:
        config = diagonalize_gauge(sample_residues(lm, seed=args.seed))
        payload = (_verify_schlesinger(config, args) if args.check == "schlesinger"
                   else _verify_eta_pvi(config))
    except (DegenerateSampleError, PathError) as exc:
        payload = {"check": args.check, "ok": False, "error": str(exc)}
    _emit(payload, args)
    return 0 if payload["ok"] else 1


def _verify_schlesinger(config, args) -> dict:
    from .schlesinger import flow_ok, flow_trajectory, reduced_flow_compare, trajectory_csv
    traj = flow_trajectory(config, tol=args.tol)
    if args.dump:
        trajectory_csv(traj, args.dump)
    rep = reduced_flow_compare(traj)
    drift = traj.eigenvalue_drift()
    return {"check": "schlesinger", "ok": flow_ok(drift, rep),
            "eigenvalue_drift": drift,
            "reduced_flow_deviation": rep.max_deviation,
            "f_squared_consistency": rep.f_consistency,
            "conservation_drift": rep.conservation_drift}


def _verify_eta_pvi(config) -> dict:
    from .schlesinger import eta_ok, eta_pvi_residual, eta_trajectory
    res = eta_pvi_residual(eta_trajectory(config))
    rows = [{"slot": f"{i+1}{j+1}", "skipped": sr.skipped} if sr.skipped else
            {"slot": f"{i+1}{j+1}", "residual": sr.residual, "perm": list(sr.best_perm)}
            for (i, j), sr in sorted(res.items())]
    return {"check": "eta-pvi", "ok": eta_ok(res), "rows": rows}


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


def _bounded(kind, low):
    """An argparse type: a finite `kind` value >= low.  NaN and inf fail
    `low <= value < inf`, so they are refused; an int is always finite."""
    def parse(text):
        value = kind(text)
        if not low <= value < math.inf:
            finite = ", and finite" if kind is float else ""
            raise argparse.ArgumentTypeError(f"needs a value >= {low}{finite}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


class _Command(argparse.ArgumentParser):
    """A command's parser.  It refuses a flag it does not take itself, with
    its own usage line; argparse would hand the flag up to the top-level
    parser, whose usage does not say which flags the command takes.  A
    family parser (`groups`, `verify`, ...) names its sub-command in
    `family` and refuses a flag before that name, where argparse would take
    the flag's value for the name."""

    family = None

    def parse_known_args(self, args=None, namespace=None):
        if (self.family and args and args[0].startswith("-")
                and args[0] not in ("-h", "--help")):
            self.error(f"{args[0].split('=')[0]} goes after the {self.family} name")
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """One flag, as a parent parser for the commands that take it."""
    holder = argparse.ArgumentParser(add_help=False)
    holder.add_argument(*names, **kwargs)
    return holder


def _leaf(commands, name, func, *flags, tabular=False, help=None):
    """A command with its own flags; tabular commands are the ones --format csv
    can write, since only they give rows."""
    leaf = commands.add_parser(name, parents=flags, help=help)
    leaf.set_defaults(func=func, tabular=tabular)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflpvi",
        description="Complex reflection groups, braid orbits and PVI parameters")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--output", help="write output to this path")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    def family(name, dest, help):
        family_parser = commands.add_parser(name, help=help)
        family_parser.family = dest
        return family_parser.add_subparsers(dest=dest, required=True)

    spec = _flag("--spec", required=True, help="group spec, e.g. G336 or G(3,1,3)")
    fix_first = _flag("--fix-first", action="store_true",
                      help="fix the first reflection to the first generator")
    seed = _flag("--seed", type=_bounded(int, 0), default=1)
    count = _flag("--count", type=_bounded(int, 1), default=100, help="trials")

    groups = family("groups", "action", "group catalogue")
    _leaf(groups, "list", cmd_groups)
    _leaf(groups, "info", cmd_groups, spec)

    triples = family("triples", "action", "classify reflection triples")
    _leaf(triples, "classify", cmd_triples, spec, fix_first, tabular=True)

    _leaf(commands, "orbits", cmd_orbits, spec, fix_first, help="braid orbit decomposition")

    params = family("params", "action", "PVI parameters")
    _leaf(params, "table", cmd_params, tabular=True)
    _leaf(params, "theta", cmd_params, spec)

    verify = family("verify", "check", "verification suites")
    _leaf(verify, "lemma-params", cmd_verify, seed, count)
    _leaf(verify, "cubic", cmd_verify, seed, count)
    schlesinger = _leaf(verify, "schlesinger", cmd_verify, seed)
    # the least --tol is schlesinger.MIN_TOL, spelled without numpy
    schlesinger.add_argument("--tol", type=_bounded(float, 100 * sys.float_info.epsilon),
                             default=1e-10, help="integration tolerance")
    schlesinger.add_argument("--dump", help="write the trajectory samples to this CSV path")
    _leaf(verify, "eta-pvi", cmd_verify, seed, tabular=True)

    reproduce = family("reproduce", "target", "whole-pipeline reproductions")
    _leaf(reproduce, "klein", cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and not args.tabular:
        parser.error("--format csv needs tabular rows, which this command does not "
                     "give; use --format json")
    try:
        status = args.func(args)
        sys.stdout.flush()        # a closed stdout fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone, as in `reflpvi params table | head -1`:
        # not an error of the command.  Python's documented idiom: point stdout
        # at devnull, so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
