"""Certificate bytes pinned for a fixed campaign set.

Engines choose the lowest eligible vertex everywhere, so the certificates
of a seeded campaign never change unless a construction changes on
purpose; a speed-up that alters one byte fails here.
"""

import hashlib

from ultrahom.campaigns import run_trial

# (family, n, trials), all with campaign seed 1
GOLDEN_SET = (("nkomega", 3, 6), ("nkomega", 4, 2), ("n2", 2, 10), ("omega-kn", 3, 10))
GOLDEN_SHA256 = "e232d6ddd841434ef97fd7849b1745256c258e0ba1332d50347e2fbc7c642981"


def test_seed_1_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for family, n, trials in GOLDEN_SET:
        for index in range(trials):
            digest.update(run_trial(family, n, 1, index).to_json().encode())
            digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256
