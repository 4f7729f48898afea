"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines.
"""

import random
import time
from itertools import product

import pytest

from conftest import random_injection_in_clique, replayed
from test_omega import brute_orbit_partition_exists
from ultrahom.campaigns import (henson_trial, n2_trial, nkomega_instance,
                                nkomega_oracle, nkomega_trial, omega_trial)
from ultrahom.certs import NKOMEGA_CLAIM, brute_force_word_eval, claim_word, verify
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.henson import SeparatedIso, build_conjugator, one_point_extend
from ultrahom.nkomega import build_covering_word, piccard_partner
from ultrahom.omega_kn import SigmaPlacement, feasible_partition
from ultrahom.oracles import FrozenOracle, oracle_from_description
from ultrahom.partial_iso import IsoBuilder, chain_pairs, empty, from_pairs, power
from ultrahom.perms import IndexPerm, all_perms, generates_symmetric
from ultrahom.words import check_word_condition, evaluate, reduce_word


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def _random_henson_qp(rng):
    """Random cycle-free q and separated p on a fresh K_3-free session."""
    s = GraphSession(GraphKind.henson(3))

    def fresh(U=()):
        return s.alice_witness(U, set(s.realized()) - set(U))

    b = IsoBuilder(empty(s))
    for _ in range(rng.randint(0, 2)):
        U = [v for v in s.realized() if rng.random() < 0.2]
        if not s.kn_free_check(U, 2):
            U = U[:1]
        one_point_extend(b, fresh(U))
        if rng.random() < 0.5:
            one_point_extend(b, sorted(b.ran() - b.dom())[0])
    q = b.freeze()
    dom_side = []
    for _ in range(rng.randint(1, 2)):
        U = [v for v in dom_side if rng.random() < 0.5]
        if not s.kn_free_check(U, 2):
            U = U[:1]
        dom_side.append(fresh(U))
    ran_side = []
    for i, v in enumerate(dom_side):
        U = [ran_side[j] for j in range(i) if s.adjacent(v, dom_side[j])]
        ran_side.append(fresh(U))
    p = SeparatedIso(from_pairs(s, list(zip(dom_side, ran_side))))
    return s, q, p


def test_criterion_1_henson_conjugator():
    t0 = time.perf_counter()
    sessions = []
    hits = 0
    for i in range(100):
        rng = random.Random(f"acc1:{i}")
        s, q, p = _random_henson_qp(rng)
        h, m = build_conjugator(q, p)
        assert power(h, 2 * m).extends(p.iso) and h.extends(q)
        hits += 1
        sessions.append(s)
    elapsed = time.perf_counter() - t0
    test_criterion_1_henson_conjugator.sessions = sessions
    report(1, hits == 100 and elapsed < 10.0,
           f"{hits}/100 conjugators with h^2m extending p in {elapsed:.2f}s (< 10s)")


def test_criterion_2_henson_density_witness():
    certs = []
    hits = 0
    for i in range(100):
        cert = henson_trial(3, random.Random(f"acc2:{i}"))
        if verify(cert).ok:
            hits += 1
        certs.append(cert)
    test_criterion_2_henson_density_witness.certs = certs
    report(2, hits == 100, f"{hits}/100 density witnesses verifier-confirmed")


def test_criterion_3_henson_kn_freeness():
    sessions = getattr(test_criterion_1_henson_conjugator, "sessions", [])
    certs = getattr(test_criterion_2_henson_density_witness, "certs", [])
    assert sessions and certs, "criteria 1 and 2 must run first"
    checked = 0
    for s in sessions:
        assert s.kn_free_check(s.realized(), 3)
        checked += 1
    for cert in certs:
        session = replayed(cert)
        assert session.kn_free_check(session.realized(), 3)
        checked += 1
    report(3, True, f"K_3-freeness exhaustive over realized triples in {checked} sessions")


def test_criterion_4_partition_decision_vs_brute_force():
    sessions = {n: GraphSession(GraphKind.omega_kn(n)) for n in (1, 2, 3)}
    cases = 0
    agree = 0
    for n in (1, 2, 3):
        for counts in product(range(min(n, 6) + 1), repeat=4):
            if sum(counts) > 6:
                continue
            cases += 1
            placement = SigmaPlacement.from_counts(sessions[n], dict(enumerate(counts)))
            fast = feasible_partition(n, placement) is not None
            slow = brute_orbit_partition_exists(n, dict(enumerate(counts)))
            if fast == slow:
                agree += 1
    report(4, agree == cases and cases <= 500,
           f"partition decision agrees with exhaustive search on {agree}/{cases} cases")


def test_criterion_5_omega_density_witness():
    hits = 0
    chains_ok = 0
    for i in range(50):
        cert = omega_trial(2, 2, random.Random(f"acc5:{i}"))
        rep = verify(cert)
        if rep.ok:
            hits += 1
        session = GraphSession(cert.family)
        h = from_pairs(session, chain_pairs(cert.h))
        comps = h.components()
        if not any(c.complete for c in comps.components) \
                and len(comps.components) == len(cert.data["sigma"]):
            chains_ok += 1
    report(5, hits == 50 and chains_ok == 50,
           f"{hits}/50 verified, {chains_ok}/50 with exactly |sigma| chains")


def test_criterion_6_piccard_against_enumeration():
    exceptional = {IndexPerm.from_cycles(4, [(1, 2), (3, 4)]),
                   IndexPerm.from_cycles(4, [(1, 3), (2, 4)]),
                   IndexPerm.from_cycles(4, [(1, 4), (2, 3)])}
    discrepancies = 0
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for a in all_perms(n):
            if a.is_identity():
                continue
            checked += 1
            found = piccard_partner(a)
            brute = any(generates_symmetric(n, [a, b]) for b in all_perms(n))
            if (found is not None) != brute:
                discrepancies += 1
            if n == 4 and a in exceptional and found is not None:
                discrepancies += 1
            if found is not None and not generates_symmetric(n, [a, found]):
                discrepancies += 1
    report(6, discrepancies == 0,
           f"{checked} non-identity permutations, {discrepancies} discrepancies "
           "against full enumeration (n=4 exceptional involutions included)")


def test_criterion_7_word_condition_pipeline():
    hits = 0
    for i in range(50):
        rng = random.Random(f"acc7:{i}")
        n = 2 if i % 2 == 0 else 3
        f = nkomega_oracle(n, rng)
        ctx, q, _ = nkomega_instance(f, rng)
        s = f.session
        taken = set(q.support()) | ctx.sigma_set()
        gamma, delta = [], []
        for bucket, count in ((gamma, rng.randint(1, 2)), (delta, rng.randint(0, 2))):
            for _ in range(count):
                v = s.fresh_in_component(rng.randint(1, n), taken)
                taken.add(v)
                bucket.append(v)
        h, w, phi = build_covering_word(ctx, q, gamma, delta)
        rep = check_word_condition(h, gamma, gamma, q.dom(), delta, w, f)
        if rep.holds and not rep.failed_clauses:
            hits += 1
    report(7, hits == 50,
           f"{hits}/50 covering words pass all six clauses incl. the exponent scan")


def test_criterion_8_nkomega_density_witness():
    """The verifier walks the product at p's points; ``evaluate`` builds its whole pair set."""
    hits = 0
    pair_matches = 0
    for i in range(50):
        cert = nkomega_trial(3, random.Random(f"acc8:{i}"))
        rep = verify(cert)
        if rep.ok:
            hits += 1
        session = GraphSession(cert.family)
        h, p = (from_pairs(session, chain_pairs(lists)) for lists in (cert.h, cert.p))
        f = oracle_from_description(session, cert.oracle)
        if evaluate(claim_word(NKOMEGA_CLAIM, cert.data), h, f).extends(p):
            pair_matches += 1
    report(8, hits == 50 and pair_matches == 50,
           f"{hits}/50 verified, product pair set extends p in {pair_matches}/50")


def test_criterion_9_word_eval_equivalence():
    s = GraphSession(GraphKind.nk_omega(2))
    rng = random.Random("acc9")
    agree = 0
    for _ in range(10_000):
        raw = [(rng.choice("ab"), rng.choice([-2, -1, 1, 2]))
               for _ in range(rng.randint(0, 6))]
        w = reduce_word(raw)
        p = from_pairs(s, random_injection_in_clique(s, rng, rng.randint(0, 5)))
        f_pairs = random_injection_in_clique(s, rng, rng.randint(0, 5))
        fast = evaluate(w, p, FrozenOracle(s, f_pairs)).pairs()
        slow = brute_force_word_eval(str(w), p.pairs(), f_pairs)
        if list(fast) == slow:
            agree += 1
    report(9, agree == 10_000, f"evaluate == brute force on {agree}/10000 instances")


def test_criterion_10_campaign_determinism():
    reruns = []
    for fam, n, trials in (("henson", 3, 5), ("omega-kn", 2, 5),
                           ("nkomega", 3, 3), ("n2", 2, 5)):
        from ultrahom.campaigns import campaign

        one = campaign(fam, n, trials, seed=97)
        two = campaign(fam, n, trials, seed=97)
        reruns.append(all(a.to_json() == b.to_json()
                          for a, b in zip(one.certs, two.certs)))
    report(10, all(reruns),
           "byte-identical certificates on rerun for all four families")
