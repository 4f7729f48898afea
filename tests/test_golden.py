"""Certificate bytes pinned for a fixed campaign set.

Engines choose the lowest eligible vertex everywhere, so the certificates
of a seeded campaign never change unless a construction changes on
purpose; a speed-up that alters one byte fails here.
"""

import hashlib
import random

from conftest import random_band_oracle
from ultrahom.campaigns import nkomega_instance, run_trial
from ultrahom.certs import N2_CLAIM
from ultrahom.nkomega import classify_stabilizing, density_witness_nkomega, piccard_partner

# (family, n, trials), all with campaign seed 1
GOLDEN_SET = (("nkomega", 3, 6), ("nkomega", 4, 2), ("n2", 2, 10), ("omega-kn", 3, 10))
GOLDEN_SHA256 = "2ddf951d440529810a46456ddf2a644b0506f989ef66e0f88bbeb627df89b5da"
# the lazy-graph path: K_3-free and K_4-free sessions, lazy oracles, schema-4 transcripts
HENSON_GOLDEN_SET = (("henson", 3, 20), ("henson", 4, 5))
HENSON_GOLDEN_SHA256 = "9c7736db02a1482bf359bfb26b1c79d7397eca19f1bd817272b86e8b27d59c54"
# n K_omega (and n2) builds over oracles with a fixed tail, which no campaign draws: the
# fresh-window path past a fixed tail
FIXED_TAIL_SHA256 = "a5fec8c293ec053dc0244a7c44e850523ff46995e8d5d25a6d87ac350ca15899"


def _digest(golden_set) -> str:
    digest = hashlib.sha256()
    for family, n, trials in golden_set:
        for index in range(trials):
            digest.update(run_trial(family, n, 1, index).to_json().encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_seed_1_certificates_are_byte_identical():
    assert _digest(GOLDEN_SET) == GOLDEN_SHA256


def test_seed_1_henson_certificates_are_byte_identical():
    assert _digest(HENSON_GOLDEN_SET) == HENSON_GOLDEN_SHA256


def test_fixed_tail_nkomega_certificates_are_byte_identical():
    """Seeds 0-599, n = 2 + seed % 4: each band-free random oracle with a fixed tail, a
    generating partner and no finite stabilized set, on a random admissible instance."""
    digest = hashlib.sha256()
    claims = []
    for seed in range(600):
        rng = random.Random(seed)
        f = random_band_oracle(2 + seed % 4, rng, max_rows=0)
        if not f.fixed_tail or piccard_partner(f.index_perm()) is None \
                or classify_stabilizing(f).stabilizing:
            continue
        cert = density_witness_nkomega(*nkomega_instance(f, rng))
        claims.append(cert.claim)
        digest.update(cert.to_json().encode())
        digest.update(b"\n")
    assert (len(claims), claims.count(N2_CLAIM)) == (190, 40)
    assert digest.hexdigest() == FIXED_TAIL_SHA256
