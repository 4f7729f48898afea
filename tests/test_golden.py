"""Certificate bytes pinned for a fixed campaign set.

Engines choose the lowest eligible vertex everywhere, so the certificates
of a seeded campaign never change unless a construction changes on
purpose; a speed-up that alters one byte fails here.
"""

import hashlib

from ultrahom.campaigns import run_trial

# (family, n, trials), all with campaign seed 1
GOLDEN_SET = (("nkomega", 3, 6), ("nkomega", 4, 2), ("n2", 2, 10), ("omega-kn", 3, 10))
GOLDEN_SHA256 = "2ddf951d440529810a46456ddf2a644b0506f989ef66e0f88bbeb627df89b5da"
# the lazy-graph path: K_3-free and K_4-free sessions, lazy oracles, schema-4 transcripts
HENSON_GOLDEN_SET = (("henson", 3, 20), ("henson", 4, 5))
HENSON_GOLDEN_SHA256 = "9c7736db02a1482bf359bfb26b1c79d7397eca19f1bd817272b86e8b27d59c54"


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
