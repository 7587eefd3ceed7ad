"""The benchmark's workloads: inputs made from the run seed, the operations
that drive the public reflpvi calls behind the CLI commands, and the checks
of their outputs against references frozen from the parent commit.

``catalogue``     ``groups info`` for every Table-1 spec, then ``params table``
                  on the groups just built.  The seed shuffles the spec order.
``triples``       ``orbits`` (unrestricted) on G336, icosahedral and G648, and
                  the ``reproduce klein`` fixed-first pass on a fresh G336.
                  The seed picks the fixed reflection and the op order.
``isomonodromy``  ``verify schlesinger`` and ``verify eta-pvi`` on the
                  exact-sum (lambda, mu) of every Table-1 row, for residue
                  seeds drawn from the run seed.

Every pass builds its own groups (``Workload.pass_ops`` returns fresh
closures), so no ``ReflectionGroup`` or ``CycloNum`` outlives a pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

from reflpvi import braid, fingerprints, groups, params, schlesinger

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("catalogue", "triples", "isomonodromy")
TRIPLES_GROUPS = ("G336", "icosahedral", "G648")
KLEIN = "G336"

# Residue seeds are drawn from a fixed pool so that the parent commit's
# verdict for every (row, residue seed) pair can be frozen.
ISO_POOL = tuple(range(1, 65))
ISO_SEEDS_PER_ROW = 16
# CPU-time deadline of one isomonodromy op.  Normal ops take 30-90 ms; the
# G(3,3,3) samples that are not degenerate never finish inside solve_ivp.
# CPU time, not wall time, so that load from other processes cannot turn a
# normal op into a timeout.
ISO_DEADLINE_CPU_S = 0.3
# The bounds of the CLI's `verify schlesinger` and `verify eta-pvi`.
DRIFT_BOUND = 1e-8
FLOW_BOUND = 1e-6
F_CONSISTENCY_BOUND = 1e-8
ETA_BOUND = 1e-3


@dataclass
class Op:
    label: str
    run: Callable[[], dict]                  # the timed library calls
    check: Callable[[dict], Optional[str]]   # None when the outputs are right


@dataclass
class Workload:
    name: str
    seed: int
    pass_ops: Callable[[], List[Op]]         # fresh ops, and fresh state, per pass
    inputs: dict                             # what the seed chose, for the record
    probe: str = "exact"                     # the host-speed probe doing its kind of work


def load_reference(name: str):
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _equal_to(expected) -> Callable[[dict], Optional[str]]:
    def check(result: dict) -> Optional[str]:
        if result == expected:
            return None
        bad = sorted(k for k in set(expected) | set(result)
                     if expected.get(k) != result.get(k))
        return "mismatch in " + ", ".join(bad)
    return check


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def _catalogue(seed: int) -> Workload:
    ref = load_reference("catalogue")
    specs = list(params.DEFAULT_TABLE_SPECS)
    random.Random(seed).shuffle(specs)

    def pass_ops() -> List[Op]:
        built: Dict[str, groups.ReflectionGroup] = {}

        def info(spec):
            group = groups.build_group(spec)
            built[spec.label()] = group
            return group.to_dict()

        def table():
            rows = params.table1(specs, groups=built)
            built.clear()
            return {r.spec.label(): r.to_dict() for r in rows}

        ops = [Op(f"groups info {s.label()}", lambda s=s: info(s),
                  _equal_to(ref["groups"][s.label()])) for s in specs]
        ops.append(Op("params table", table, _equal_to(ref["table1"])))
        return ops

    return Workload("catalogue", seed, pass_ops,
                    {"spec_order": [s.label() for s in specs]})


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

def orbit_summary(group, first_fixed=None) -> dict:
    """What `orbits [--fix-first]` reports, plus the classes' exact data."""
    classes = fingerprints.classify_triples(group, first_fixed=first_fixed)
    partition = braid.orbit_partition(classes)
    pure = []
    seen = set()
    for cls in classes:
        if cls.fingerprint.key() in seen:
            continue
        rep = braid.orbit(cls.fingerprint if cls.fingerprint.all_t_minus_one()
                          else cls.representative, generators="pure")
        seen.update(fp.key() for fp in rep.orbit)
        pure.append({"size": rep.branches,
                     "cycle_types": [list(ct) for ct in rep.cycle_types],
                     "genus": rep.genus})
    keys = repr([c.fingerprint.key() for c in classes]).encode()
    return {"classes": len(classes),
            "triples": sum(c.multiplicity for c in classes),
            "multiplicities": [c.multiplicity for c in classes],
            "generated_orders": [c.generated_order for c in classes],
            "partition": partition,
            "pure_braid_orbits": pure,
            "fingerprint_sha256": hashlib.sha256(keys).hexdigest()}


def klein_summary(fixed: int) -> dict:
    """The `reproduce klein` pipeline with reflection number `fixed` as the
    fixed first component.  G336's reflections form one conjugacy class and
    fingerprints are conjugation invariant, so every field is the same for
    every choice of `fixed`."""
    group = groups.build_group(groups.GroupSpec.exceptional(KLEIN))
    out = orbit_summary(group, first_fixed=group.reflections[fixed])
    std = braid.orbit(fingerprints.fingerprint(list(group.generators)),
                      generators="pure")
    theta = params.canonical_theta(params.lambda_mu_of_triple(group.generators))
    out.update({
        "order": group.order,
        "reflections": len(group.reflections),
        "standard_pure_orbit": {"size": std.branches,
                                "cycle_types": [list(ct) for ct in std.cycle_types],
                                "genus": std.genus},
        "theta": [str(v) for v in theta.as_tuple()],
        "alpha_beta_gamma_delta": [str(v) for v in params.pvi_abcd(theta)],
    })
    return out


def _triples(seed: int) -> Workload:
    ref = load_reference("triples")
    rng = random.Random(seed)
    fixed = rng.randrange(ref["klein"]["reflections"])
    plan = list(TRIPLES_GROUPS) + ["klein"]
    rng.shuffle(plan)

    def group_op(name):
        return orbit_summary(groups.build_group(groups.GroupSpec.exceptional(name)))

    def pass_ops() -> List[Op]:
        return [Op("reproduce klein", lambda: klein_summary(fixed),
                   _equal_to(ref["klein"])) if name == "klein" else
                Op(f"orbits {name}", lambda n=name: group_op(n), _equal_to(ref[name]))
                for name in plan]

    return Workload("triples", seed, pass_ops,
                    {"op_order": plan, "klein_fixed_reflection": fixed})


# ---------------------------------------------------------------------------
# isomonodromy
# ---------------------------------------------------------------------------

class OpDeadline(Exception):
    """An isomonodromy op used up its CPU-time deadline."""


def _on_deadline(signum, frame):
    raise OpDeadline()


def arm_deadlines() -> None:
    """Let `isomonodromy_verdict`'s CPU-time timer interrupt an op."""
    signal.signal(signal.SIGPROF, _on_deadline)


def table_lambda_mu() -> Dict[str, params.LambdaMu]:
    """The frozen exact-sum (lambda, mu) of every Table-1 row."""
    return {row["group"]: params.LambdaMu(tuple(map(Fraction, row["lambda"])),
                                          tuple(map(Fraction, row["mu"])))
            for row in load_reference("lambda_mu")}


def _eta_ok(residuals) -> bool:
    """The `verify eta-pvi` rule: every checked slot fits exactly one
    permutation below the bound, and at least one slot is checked."""
    checked = [sr for sr in residuals.values() if not sr.skipped]
    return bool(checked) and all(
        sr.residual < ETA_BOUND
        and sum(1 for v in sr.residuals_by_perm.values() if v < ETA_BOUND) == 1
        for sr in checked)


def isomonodromy_verdict(lm: params.LambdaMu, residue_seed: int) -> str:
    """"ok", or the reason the op fails, for one (row, residue seed) pair:
    the `verify schlesinger` path followed by the `verify eta-pvi` path."""
    signal.setitimer(signal.ITIMER_PROF, ISO_DEADLINE_CPU_S)
    try:
        config = schlesinger.diagonalize_gauge(
            schlesinger.sample_residues(lm, seed=residue_seed))
        traj = schlesinger.integrate_schlesinger(config, [0.5, 0.8], tol=1e-10,
                                                 samples_per_segment=300)
        rep = schlesinger.reduced_flow_compare(traj)
        drift = traj.eigenvalue_drift()
        flow_ok = (drift < DRIFT_BOUND and rep.max_deviation < FLOW_BOUND
                   and rep.f_consistency < F_CONSISTENCY_BOUND)
        eta_traj = schlesinger.integrate_schlesinger(config, [0.5, 0.6], tol=1e-12,
                                                     samples_per_segment=100)
        try:
            eta_ok = _eta_ok(schlesinger.eta_pvi_residual(eta_traj))
        except schlesinger.PathError:
            raise
        except ValueError:           # eta extraction refused the gauge
            eta_ok = False
    except OpDeadline:
        return "timeout"
    except schlesinger.DegenerateSampleError:
        return "degenerate_sample"
    except schlesinger.PathError:
        return "path_error"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    if not flow_ok:
        return "flow_check"
    if not eta_ok:
        return "eta_check"
    return "ok"


def _isomonodromy(seed: int) -> Workload:
    rows = table_lambda_mu()
    passing = {(group, int(rs))
               for group, verdicts in load_reference("isomonodromy")["verdicts"].items()
               for rs, verdict in verdicts.items() if verdict == "ok"}
    residue_seeds = sorted(random.Random(seed).sample(ISO_POOL, ISO_SEEDS_PER_ROW))
    arm_deadlines()

    def check(group, rs):
        def verdict_check(result):
            if (group, rs) in passing and result["verdict"] != "ok":
                return f"passed at the parent commit, now {result['verdict']}"
            return None
        return verdict_check

    def run(lm, rs):
        return {"verdict": isomonodromy_verdict(lm, rs)}

    def pass_ops() -> List[Op]:
        return [Op(f"verify {group} residue seed {rs}",
                   lambda lm=lm, rs=rs: run(lm, rs), check(group, rs))
                for group, lm in rows.items() for rs in residue_seeds]

    return Workload("isomonodromy", seed, pass_ops, {"residue_seeds": residue_seeds},
                    probe="float")


def generate(name: str, seed: int) -> Workload:
    if name == "catalogue":
        return _catalogue(seed)
    if name == "triples":
        return _triples(seed)
    if name == "isomonodromy":
        return _isomonodromy(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
