"""Witness certificates and their engine-independent verifier.

A certificate is a self-contained record of one density-witness
construction: the graph family, the session transcript, the oracle
description, the inputs q and p, the built extension h, and the words
or exponents of the claimed product.  Verification replays the
transcript, rebuilds the oracle from its description, evaluates the
claimed product pointwise and confirms it extends the target.  This
module must never import the engine modules; it relies only on the
graph, partial-isomorphism, word and oracle layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import GraphError
from .graphs import HENSON, NK_OMEGA, OMEGA_KN, RANDOM, GraphKind, GraphSession
from .oracles import OracleBase, oracle_from_description
from .partial_iso import (PartialIso, cycle_free, orbit_rep_profile, validate)
from .words import FreeWord, chase, evaluate, parse_word

SCHEMA_VERSION = 1

HENSON_CLAIM = "henson_conjugation"      # h^m f h^{2l} f^-1 h^-m  extends target
OMEGA_CLAIM = "omega_conjugation"        # (h^m f) h (h^m f)^-1    extends target
NKOMEGA_CLAIM = "nkomega_words"          # w1(h) h^k w2(h)^-1      extends target
N2_CLAIM = "n2_word"                     # w(h)                    extends target

# graph families each claim form can be made over
CLAIM_FAMILIES = {
    HENSON_CLAIM: (RANDOM, HENSON),
    OMEGA_CLAIM: (OMEGA_KN,),
    NKOMEGA_CLAIM: (NK_OMEGA,),
    N2_CLAIM: (NK_OMEGA,),
}


@dataclass
class WitnessCertificate:
    family: GraphKind
    claim: str
    transcript: list
    oracle: dict
    q: list[tuple[int, int]]
    p: list[tuple[int, int]]
    h: list[tuple[int, int]]
    data: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "family": self.family.to_dict(),
            "claim": self.claim,
            "transcript": [[list(U), list(V), list(F), w] for U, V, F, w in self.transcript],
            "oracle": self.oracle,
            "q": [list(t) for t in self.q],
            "p": [list(t) for t in self.p],
            "h": [list(t) for t in self.h],
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "WitnessCertificate":
        """Parse one record; any record that is not a certificate raises GraphError.

        Field types are left to ``verify``, which checks the shape first.
        """
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphError(f"not JSON: {e}") from None
        if not isinstance(d, dict) or d.get("schema") != SCHEMA_VERSION:
            schema = d.get("schema") if isinstance(d, dict) else None
            raise GraphError(f"unsupported certificate schema {schema}")
        try:
            return WitnessCertificate(
                family=GraphKind.from_dict(d["family"]),
                claim=d["claim"],
                transcript=[(tuple(U), tuple(V), tuple(F), w)
                            for U, V, F, w in d["transcript"]],
                oracle=d["oracle"],
                q=[tuple(t) for t in d["q"]],
                p=[tuple(t) for t in d["p"]],
                h=[tuple(t) for t in d["h"]],
                data=d.get("data", {}),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise GraphError(f"malformed certificate: {type(e).__name__}: {e}") from None


@dataclass
class VerificationReport:
    ok: bool
    clauses: list[tuple[str, bool, str]]

    def failing(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.clauses if not c[1]]

    def __str__(self) -> str:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f" -- {note}" if note else "")
                 for name, ok, note in self.clauses]
        lines.append("VERIFIED" if self.ok else "REJECTED")
        return "\n".join(lines)


def _is_int(v) -> bool:
    return type(v) is int


def _ints(seq) -> bool:
    if not isinstance(seq, (list, tuple)):
        return False
    for v in seq:
        if type(v) is not int:
            return False
    return True


def _pairs(seq) -> bool:
    if not isinstance(seq, (list, tuple)):
        return False
    try:
        for x, y in seq:
            if type(x) is not int or type(y) is not int:
                return False
    except (TypeError, ValueError):  # an entry that is not a pair
        return False
    return True


def _entries(seq) -> bool:
    """Transcript entries (U, V, F, id): three lists of integer vertices and an integer id."""
    if not isinstance(seq, (list, tuple)):
        return False
    try:
        for U, V, F, w in seq:
            if type(w) is not int or not (_ints(U) and _ints(V) and _ints(F)):
                return False
    except (TypeError, ValueError):  # an entry that is not a 4-sequence
        return False
    return True


def _is_str(v) -> bool:
    return isinstance(v, str)


# per claim: data keys the verifier reads, each with its check
_DATA_KEYS = {
    HENSON_CLAIM: (("m", _is_int), ("l", _is_int)),
    OMEGA_CLAIM: (("m", _is_int),),
    NKOMEGA_CLAIM: (("k", _is_int), ("w1", _is_str), ("w2", _is_str)),
    N2_CLAIM: (("word", _is_str),),
}
# per claim: data keys holding words, parsed with the other inputs
_WORD_KEYS = {NKOMEGA_CLAIM: ("w1", "w2"), N2_CLAIM: ("word",)}
_OPTIONAL_DATA = {"sigma": _ints, "product_pairs": _pairs}
_ORACLE_KEYS = {
    "lazy_fresh": (("pairs", _pairs, True),),
    "frozen": (("pairs", _pairs, True),),
    "omega_shift": (("step", _is_int, True), ("pos_perm", _ints, False)),
    "nk_policy": (("sigma", _ints, True), ("band_rows", _is_int, False),
                  ("band_pairs", _pairs, False), ("fixed_tail", _ints, False)),
}


def shape_problem(cert: WitnessCertificate) -> str | None:
    """The first way the certificate departs from the schema's shape, or None.

    Checks types, pair arity, the claim against the family, and the data
    keys each claim needs, in one pass linear in the certificate's size,
    so that the clauses after it can read every field without raising.
    Words are only checked to be strings here; ``verify`` parses them
    with the other inputs.
    """
    if cert.schema != SCHEMA_VERSION:
        return f"unsupported schema {cert.schema!r}"
    fam = cert.family
    if not isinstance(fam, GraphKind) or not (fam.n is None or _is_int(fam.n)):
        return "family is not a graph kind"
    if not isinstance(cert.claim, str) or cert.claim not in CLAIM_FAMILIES:
        return f"unknown claim form {cert.claim!r}"
    if fam.tag not in CLAIM_FAMILIES[cert.claim]:
        return f"claim {cert.claim} cannot be made over family {fam.tag}"
    if not _entries(cert.transcript):
        return "transcript entries must be (U, V, F, id) with integer vertices"
    for name in ("q", "p", "h"):
        if not _pairs(getattr(cert, name)):
            return f"{name} must be a list of integer pairs"
    oracle = cert.oracle
    if not isinstance(oracle, dict) or not isinstance(oracle.get("kind"), str):
        return "oracle must be an object with a string kind"
    for key, ok, required in _ORACLE_KEYS.get(oracle["kind"], ()):
        if key in oracle:
            if not ok(oracle[key]):
                return f"oracle field {key} has the wrong type"
        elif required:
            return f"oracle {oracle['kind']} lacks {key}"
    data = cert.data
    if not isinstance(data, dict):
        return "data must be an object"
    for key, ok in _DATA_KEYS[cert.claim]:
        if key not in data:
            return f"claim {cert.claim} needs data {key}"
        if not ok(data[key]):
            return f"data {key} has the wrong type"
    for key, ok in _OPTIONAL_DATA.items():
        if key in data and not ok(data[key]):
            return f"data {key} has the wrong type"
    return None


def _product_chaser(cert: WitnessCertificate, h: PartialIso, f: OracleBase,
                    words: dict[str, FreeWord]):
    """Pointwise evaluator for the certificate's claimed product."""
    if cert.claim == HENSON_CLAIM:
        m, l = cert.data["m"], cert.data["l"]

        def run(x):
            v = h.chase(x, m)
            v = f.try_image(v) if v is not None else None
            v = h.chase(v, 2 * l) if v is not None else None
            v = f.try_preimage(v) if v is not None else None
            return h.chase(v, -m) if v is not None else None

        return run
    if cert.claim == OMEGA_CLAIM:
        m = cert.data["m"]

        def run(x):
            v = h.chase(x, m)
            v = f.try_image(v) if v is not None else None
            v = h.apply(v) if v is not None else None
            v = f.try_preimage(v) if v is not None else None
            return h.chase(v, -m) if v is not None else None

        return run
    if cert.claim == NKOMEGA_CLAIM:
        w1, w2 = words["w1"], words["w2"]
        k = cert.data["k"]
        w2_h = evaluate(w2, h, f)

        def run(x):
            v = chase(w1, x, h, f)
            v = h.chase(v, k) if v is not None else None
            return w2_h.unapply(v) if v is not None else None

        return run
    if cert.claim == N2_CLAIM:
        w = words["word"]

        def run(x):
            return chase(w, x, h, f)

        return run
    raise GraphError(f"unknown claim form {cert.claim!r}")


def verify(cert: WitnessCertificate) -> VerificationReport:
    """Replay, rebuild, re-evaluate; no engine state is consulted."""
    clauses: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, note: str = "") -> bool:
        clauses.append((name, ok, note))
        return ok

    problem = shape_problem(cert)
    if not record("certificate-shape", problem is None, problem or ""):
        return VerificationReport(False, clauses)

    try:
        session = (GraphSession.replay(cert.family, cert.transcript)
                   if cert.family.is_lazy else GraphSession(cert.family))
        record("transcript-replay", True)
    except GraphError as e:
        record("transcript-replay", False, str(e))
        return VerificationReport(False, clauses)

    try:
        q = validate(session, cert.q)
        p = validate(session, cert.p)
        h = validate(session, cert.h)
        f = oracle_from_description(session, cert.oracle)
        words = {key: parse_word(cert.data[key]) for key in _WORD_KEYS.get(cert.claim, ())}
        record("inputs-validate", True)
    except ValueError as e:  # GraphError, IsoError, or a word that does not parse
        record("inputs-validate", False, str(e))
        return VerificationReport(False, clauses)

    extends = h.extends(q)
    record("h-extends-q", extends, "" if extends else "h does not extend q")

    if cert.claim == HENSON_CLAIM:
        record("h-cycle-free", cycle_free(h))
        dom_p, ran_p = p.dom(), p.ran()
        cross = [(x, y) for x in dom_p for y in ran_p if session.adjacent(x, y)]
        record("target-separated", not (dom_p & ran_p) and not cross,
               "" if not (dom_p & ran_p) and not cross else "target class violated")
    elif cert.claim == OMEGA_CLAIM:
        sigma = cert.data.get("sigma", [])
        profile = orbit_rep_profile(h, sigma)
        comps = h.components()
        record("h-component-count",
               len(comps.incomplete_components()) == len(sigma)
               and not comps.complete_components(),
               f"{len(comps.incomplete_components())} chains for |sigma|={len(sigma)}")
        one_each = all(k == 1 for k in profile.values())
        record("h-orbit-reps", one_each, "" if one_each else str(profile))
        imap = p.index_map()
        whole = all(
            set(session.component_vertices(c)) <= p.dom() for c in imap
        ) and all(
            set(session.component_vertices(c)) <= p.ran() for c in imap.values()
        )
        record("target-whole-components", whole and not (p.dom() & p.ran()))
    elif cert.claim in (NKOMEGA_CLAIM, N2_CLAIM):
        imap = p.index_map()
        record("target-index-fixing",
               not (p.dom() & p.ran()) and all(i == j for i, j in imap.items()))

    run = _product_chaser(cert, h, f, words)
    bad = None
    for x, y in p.pairs():
        got = run(x)
        if got != y:
            bad = (x, y, got)
            break
    record("product-extends-target", bad is None,
           "" if bad is None else f"at {bad[0]}: expected {bad[1]}, got {bad[2]}")

    if cert.claim == NKOMEGA_CLAIM and "product_pairs" in cert.data:
        from .partial_iso import compose, invert, power

        full = compose(evaluate(words["w1"], h, f), power(h, cert.data["k"]),
                       invert(evaluate(words["w2"], h, f)))
        engine_pairs = [tuple(t) for t in cert.data["product_pairs"]]
        record("product-pair-sets-match", list(full.pairs()) == sorted(engine_pairs),
               "" if list(full.pairs()) == sorted(engine_pairs) else "pair sets differ")

    ok = all(c[1] for c in clauses)
    return VerificationReport(ok, clauses)


def brute_force_word_eval(word_text: str | FreeWord, p_pairs, f_pairs) -> list[tuple[int, int]]:
    """Naive reference evaluation of a word at finite maps p and f.

    Chases every vertex mentioned by either map through the word's
    letters; kept deliberately minimal as the oracle for the fast path.
    """
    w = parse_word(word_text) if isinstance(word_text, str) else word_text
    p_fwd = {x: y for x, y in p_pairs}
    p_bwd = {y: x for x, y in p_pairs}
    f_fwd = {x: y for x, y in f_pairs}
    f_bwd = {y: x for x, y in f_pairs}
    universe = sorted(set(p_fwd) | set(p_bwd) | set(f_fwd) | set(f_bwd))
    letters = w.letters()
    if not letters:
        return [(x, x) for x in sorted(set(p_fwd) | set(p_bwd))]
    out = []
    for x in universe:
        v = x
        for letter, sign in letters:
            table = (p_fwd if sign > 0 else p_bwd) if letter == "a" else \
                (f_fwd if sign > 0 else f_bwd)
            v = table.get(v)
            if v is None:
                break
        if v is not None:
            out.append((x, v))
    return out
