"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from reflpvi import cli
from reflpvi.braid import braid_act, braid_act_quintuple, orbit, orbit_partition
from reflpvi.cyclotomic import CycloNum
from reflpvi.fingerprints import classify_triples, fingerprint, fingerprint_by_indices
from reflpvi.groups import GroupSpec, build_group
from reflpvi.params import (LambdaMu, canonical_theta, f_hitchin_squared,
                            f_squared, lambda_mu_of_triple, pvi_abcd,
                            random_lambda_mu, table1, theta_map)
from reflpvi.schlesinger import (DRIFT_BOUND, ETA_BOUND, FLOW_BOUND,
                                 F_CONSISTENCY_BOUND, diagonalize_gauge, eta_ok,
                                 eta_pvi_residual, eta_trajectory, flow_ok,
                                 flow_trajectory, reduced_flow_compare, sample_residues)


def braid_act_word(word, triple):
    """The triple acted on by each letter of `word` in turn."""
    for letter in word:
        triple = braid_act(letter, triple)
    return triple


F = Fraction

CATALOGUE_SPECS = (
    [GroupSpec.imprimitive(m, 1) for m in range(2, 7)]
    + [GroupSpec.imprimitive(m, m) for m in range(2, 7)]
    + [GroupSpec.exceptional(n) for n in ("G336", "G648", "G1296", "G2160")]
)


def report(number: int, ok: bool, description: str) -> None:
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def catalogue():
    start = time.time()
    groups = {spec.label(): build_group(spec) for spec in CATALOGUE_SPECS}
    return groups, time.time() - start


@pytest.fixture(scope="module")
def klein(catalogue):
    return catalogue[0]["G336"]


def test_criterion_1_group_catalogue(catalogue):
    groups, elapsed = catalogue
    ok = True
    for spec in CATALOGUE_SPECS:
        g = groups[spec.label()]
        d1, d2, d3 = g.degrees
        ok = ok and g.order == spec.expected_order()
        ok = ok and len(g.reflections) == (d1 - 1) + (d2 - 1) + (d3 - 1)
        ok = ok and d1 * d2 * d3 == g.order
    exceptional = {"G336": 336, "G648": 648, "G1296": 1296, "G2160": 2160}
    for name, order in exceptional.items():
        ok = ok and groups[name].order == order
    ok = ok and elapsed < 120
    report(1, ok, f"catalogue orders/degrees/reflections exact, built in {elapsed:.1f}s (< 2 min)")


def test_criterion_2_klein_pipeline(klein):
    start = time.time()
    ok = klein.order == 336
    ident = klein.elements[0]              # the closure puts the identity first
    minus_one = CycloNum.from_rational(-1)
    ok = ok and len(klein.reflections) == 21
    ok = ok and all(r * r == ident for r in klein.reflections)
    ok = ok and all(r.det() == minus_one for r in klein.reflections)

    classes = classify_triples(klein, first_fixed=klein.generators[0])
    ok = ok and len(classes) == 45
    ok = ok and sum(c.multiplicity for c in classes) == 441

    partition = orbit_partition(classes)
    ok = ok and partition == [1, 1, 3, 3, 4, 4, 6, 7, 7, 9]

    # the size-7 orbits are exactly the generating classes
    for cls in classes:
        rep = orbit(cls.fingerprint, "full")
        if rep.branches == 7:
            ok = ok and cls.generated_order == 336
        else:
            ok = ok and cls.generated_order < 336

    std = orbit(fingerprint(list(klein.generators)), "pure")
    ok = ok and std.branches == 7
    ok = ok and all(ct == (3, 2, 2) for ct in std.cycle_types)
    ok = ok and std.genus == 0
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    report(2, ok, f"Klein pipeline (21 refl, 45 classes, partition, 7-orbit, genus 0) in {elapsed:.1f}s (< 1 min)")


def test_criterion_3_parameter_table(catalogue, klein):
    groups, _ = catalogue
    rows = table1(groups={**groups,
                          "icosahedral": build_group(GroupSpec.exceptional("icosahedral"))})
    ok = all(r.matches for r in rows)
    klein_theta = canonical_theta(lambda_mu_of_triple(klein.generators))
    ok = ok and klein_theta.as_tuple() == (F(2, 7), F(2, 7), F(2, 7), F(4, 7))
    ok = ok and pvi_abcd(klein_theta) == (F(9, 98), F(-2, 49), F(2, 49), F(45, 98))
    report(3, ok, "all seven parameter-table rows reproduced exactly (families at m = 3..6)")


def test_criterion_4_lemma_params():
    start = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        lm = random_lambda_mu(rng)
        x = F(rng.randrange(-9, 9), rng.randrange(1, 8))
        y = F(rng.randrange(-9, 9), rng.randrange(1, 8))
        lhs = f_squared((x, y), lm)
        for perm in permutations(range(3)):
            th = theta_map(lm, perm)
            rhs = f_hitchin_squared((x - th.t1 * th.t3 / 2,
                                     y - th.t2 * th.t3 / 2), th)
            ok = ok and lhs == rhs
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    report(4, ok, f"squared-flow identity exact for 100 samples x 6 permutations in {elapsed:.1f}s (< 30 s)")


def test_criterion_5_cubic_algebra(capsys):
    code = cli.main(["verify", "cubic", "--seed", "5", "--count", "100"])
    payload = json.loads(capsys.readouterr().out)
    float_err = payload["float_max_error"]
    ok = code == 0 and payload["ok"] and float_err < 1e-10
    rng = random.Random(99)
    # f^2 of the (lambda, mu) cubic is the shifted theta cubic of every mu
    # order at the ten points P = (i, j), i + j <= 3, which fix a cubic
    points = [(F(i), F(j)) for i in range(4) for j in range(4 - i)]
    for _ in range(20):
        lm = random_lambda_mu(rng)
        for perm in permutations(range(3)):
            th = theta_map(lm, perm)
            ok = ok and all(f_squared((x, y), lm) == f_hitchin_squared(
                (x - th.t1 * th.t3 / 2, y - th.t2 * th.t3 / 2), th) for x, y in points)
    report(5, ok, f"cubic constants validated on 100 exact + 100 float samples (max fp error {float_err:.1e})")


def test_criterion_6_braid_consistency(catalogue, klein):
    g213 = build_group(GroupSpec.imprimitive(2, 1))
    ok = True
    # fingerprint o beta = beta-hat o fingerprint on every reflection triple;
    # G(3,1,3) mixes order-2 and order-3 reflections
    for group in (klein, g213, catalogue[0]["G(3,1,3)"]):
        refl = group.refl_idx
        inv = {j: group.inverse_index(j) for j in refl}
        # the images are reflection triples of the same group: one
        # fingerprint per index triple serves as source and as image
        fps = {(i, j, k): fingerprint_by_indices(group, (i, j, k))
               for i in refl for j in refl for k in refl}
        # the braid images of a fingerprint, once per distinct fingerprint
        b1, b2 = ({fp: braid_act_quintuple(letter, fp) for fp in set(fps.values())}
                  for letter in ("b1", "b2"))
        for i in refl:
            for j in refl:
                conj1 = group.product_index(group.product_index(inv[j], i), j)
                for k in refl:
                    fp = fps[i, j, k]
                    image1 = (j, conj1, k)
                    ok = ok and fps[image1] == b1[fp]
                    conj2 = group.product_index(group.product_index(inv[k], j), k)
                    image2 = (i, k, conj2)
                    ok = ok and fps[image2] == b2[fp]
                    if not ok:
                        report(6, False, f"commutation failed at {(i, j, k)}")
    # braid relation and product invariance on 1000 random triples
    rng = random.Random(11)
    pool = list(g213.elements)
    for _ in range(1000):
        triple = [rng.choice(pool) for _ in range(3)]
        lhs = braid_act_word(("b1", "b2", "b1"), triple)
        rhs = braid_act_word(("b2", "b1", "b2"), triple)
        ok = ok and all(a == b for a, b in zip(lhs, rhs))
        prod = triple[0] * triple[1] * triple[2]
        for letter in ("b1", "b2"):
            im = braid_act(letter, triple)
            ok = ok and im[0] * im[1] * im[2] == prod
    report(6, ok, "fingerprint/triple braid actions commute on all reflection triples "
                  "of G336, G(2,1,3) and G(3,1,3); braid relation and product "
                  "invariance on 1000 random triples")


def test_criterion_7_numerics():
    start = time.time()
    lm = LambdaMu((F(1, 2),) * 3, (F(3, 14), F(5, 14), F(13, 14)))
    config = diagonalize_gauge(sample_residues(lm, seed=1))
    traj = flow_trajectory(config)
    drift = traj.eigenvalue_drift()
    rep = reduced_flow_compare(traj)
    ok = flow_ok(drift, rep)

    res = eta_pvi_residual(eta_trajectory(config))
    ok = ok and eta_ok(res)
    checked = sum(1 for sr in res.values() if not sr.skipped)
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    report(7, ok, f"eigen drift {drift:.1e} < {DRIFT_BOUND:g}, reduced-flow dev "
                  f"{rep.max_deviation:.1e} < {FLOW_BOUND:g}, f^2 match "
                  f"{rep.f_consistency:.1e} < {F_CONSISTENCY_BOUND:g}, eta-PVI residual "
                  f"< {ETA_BOUND:g} on {checked} slots, in {elapsed:.1f}s (< 1 min)")
