"""Witness certificates and their engine-independent verifier.

A certificate is a self-contained record of one density-witness
construction: the graph family, the session transcript, the oracle
description, the inputs q and p, the built extension h, and the words
or exponents of the claimed product.  Every engine hands its built h to
``certify``, which asks the checks every claim shares and writes the
record, so this module alone knows the encoding.  Verification replays
the transcript, rebuilds the oracle from its description, evaluates the
claimed product pointwise and confirms it extends the target.  This
module must never import the engine modules; it relies only on the
graph, partial-isomorphism, word and oracle layers.

Schemas 3 and 4 write every map (q, p, h and the oracle's finite map)
as the vertex lists of ``partial_iso.chain_lists``.  A schema-4
transcript lists only the vertices it keeps, each as the flat entry
``[gap, *U]``: gap is the vertex id less the last listed id less 1 (for
the first entry, the id itself).  Schema 3 wrote each entry as its bare
U, the witness ids being 0, 1, ... in order.  Schemas 1 and 2 wrote maps
as pairs and entries as (U, V, F, id) and (U, id).  ``verify`` lifts a
record once, after its shape check, into one form (``_lift``): vertex
lists, and a transcript of (id, U) with strictly rising ids.  So every
clause reads one form; the parsed record itself is kept as written and
round-trips byte for byte.

A lazy-family record carries only what ``verify`` reads: the oracle
pairs the product reads, and a transcript that keeps the edges among
the vertices of q, p, h and those pairs and lists no other vertex.  The
product reads f only there, and the induced subgraph on the kept
vertices is the session's, so every clause answers as it would on the
whole record.  Schema-3 records wrote every other vertex up to the last
kept one as an isolated ``[]`` placeholder; they, and records written
whole before that cut, verify unchanged.  A component-family record has
an empty transcript, alike in both forms, and is still written as
schema 3.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from typing import Iterator

from .errors import GraphError, internal_check
from .graphs import HENSON, NK_OMEGA, OMEGA_KN, RANDOM, GraphKind, GraphSession, entry_sets
from .oracles import OracleBase, oracle_from_description
from .partial_iso import chain_lists, chain_pairs, validate
from .words import FreeWord, Syllable, evaluate, parse_word, walk

SCHEMA_VERSION = 4  # lazy-family records; component-family records are written as schema 3
SCHEMAS = (1, 2, 3, 4)
# deepest nesting of a record, the record itself counting 1: record -> transcript ->
# entry -> U in schemas 1 and 2, record -> oracle -> pairs -> vertex list in all four.
# A schema-3 or -4 transcript nests 3 deep: record -> transcript -> U or [gap, *U]
MAX_DEPTH = 4
# a JSON string; its closing quote is optional, so no match backtracks and the scan
# of a line is linear
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?', re.S)
_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_BRACKET = bytes(c for c in range(256) if c not in b"[]{}")

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


def _depth_past_bound(text: str) -> int | None:
    """How deep a line nests its brackets outside strings, if deeper than MAX_DEPTH.

    Linear in the line: its strings are cut out, its brackets kept as one
    kind, and MAX_DEPTH passes each delete the innermost pairs.  Only a line
    with brackets left after that is walked bracket by bracket; it is too
    deep, or unbalanced, which ``json.loads`` then names.
    """
    line = _STRING.sub(b"", text.encode("utf-8", "surrogatepass"))
    brackets = line.translate(_BRACKETS, _NOT_BRACKET)
    left = brackets
    for _ in range(MAX_DEPTH):
        left = left.replace(b"[]", b"")
    if not left:
        return None
    depth = max(accumulate(1 if c == ord("[") else -1 for c in brackets))
    return depth if depth > MAX_DEPTH else None


def claim_word(claim: str, data: dict) -> list[Syllable]:
    """The claimed product as raw syllables (a = h, b = f), read from ``data``.

    The one definition of each claim form's product: engines check it
    and ``verify`` re-checks it.  Syllables with exponent 0 are dropped;
    the rest are not reduced, since a a^-1 is the identity on dom(h)
    only.  Word strings are parsed here, so a bad one raises ValueError.
    """
    if claim == HENSON_CLAIM:
        m, l = data["m"], data["l"]
        raw = [("a", m), ("b", 1), ("a", 2 * l), ("b", -1), ("a", -m)]
    elif claim == OMEGA_CLAIM:
        m = data["m"]
        raw = [("a", m), ("b", 1), ("a", 1), ("b", -1), ("a", -m)]
    elif claim == NKOMEGA_CLAIM:
        w2 = parse_word(data["w2"]).syllables
        raw = [*parse_word(data["w1"]).syllables, ("a", data["k"]),
               *((letter, -exp) for letter, exp in reversed(w2))]
    elif claim == N2_CLAIM:
        raw = parse_word(data["word"]).syllables
    else:
        raise GraphError(f"unknown claim form {claim!r}")
    return [syl for syl in raw if syl[1] != 0]


def product_miss(word: list[Syllable], pairs, h, f) -> tuple[int, int, int | None] | None:
    """The first target pair (x, y) the word's realization misses, as (x, y, got); else None."""
    for x, y in pairs:
        got = walk(word, x, h, f)
        if got != y:
            return x, y, got
    return None


@dataclass
class WitnessCertificate:
    """One record, field for field: maps and transcript in the encoding of ``schema``."""

    family: GraphKind
    claim: str
    transcript: list
    oracle: dict
    q: list
    p: list
    h: list
    data: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "family": self.family.to_dict(),
            "claim": self.claim,
            "transcript": self.transcript,
            "oracle": self.oracle,
            "q": self.q,
            "p": self.p,
            "h": self.h,
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "WitnessCertificate":
        """Parse one record; any line that is not a certificate raises GraphError.

        A line nested deeper than MAX_DEPTH is refused before the decoder
        reads it, and an integer past the interpreter's digit limit is
        refused as not JSON.  Field types are left to ``verify``, which
        checks the shape first.
        """
        depth = _depth_past_bound(text)
        if depth is not None:
            raise GraphError(f"nested {depth} deep; a certificate nests at most {MAX_DEPTH}")
        try:
            d = json.loads(text)
        except ValueError as e:  # a JSONDecodeError, or an integer past the digit limit
            raise GraphError(f"not JSON: {e}") from None
        if not isinstance(d, dict) or not _is_int(d.get("schema")) \
                or d["schema"] not in SCHEMAS:
            schema = d.get("schema") if isinstance(d, dict) else None
            raise GraphError(f"unsupported certificate schema {schema}")
        try:
            return WitnessCertificate(
                family=GraphKind.from_dict(d["family"]),
                claim=d["claim"],
                transcript=d["transcript"],
                oracle=d["oracle"],
                q=d["q"],
                p=d["p"],
                h=d["h"],
                data=d.get("data", {}),
                schema=d["schema"],
            )
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise GraphError(f"malformed certificate: {type(e).__name__}: {e}") from None


class _ReadLog(OracleBase):
    """f as a walk reads it: every answered query of f is kept as a pair of f."""

    def __init__(self, f):
        self._f = f
        self.fwd: dict[int, int] = {}
        self.bwd: dict[int, int] = {}

    def try_image(self, v: int) -> int | None:
        w = self._f.try_image(v)
        if w is not None:
            self.fwd[v] = w
            self.bwd[w] = v
        return w

    def try_preimage(self, v: int) -> int | None:
        u = self._f.try_preimage(v)
        if u is not None:
            self.fwd[u] = v
            self.bwd[v] = u
        return u


def certify(claim: str, f, q, p, h, data: dict) -> WitnessCertificate:
    """The record of an engine's built h, after the two checks every engine asks last.

    h must extend q, the engine's input, and the claim's product, read
    from ``data`` as ``verify`` reads it, must extend p at each of p's
    pairs.  The transcript and the oracle are read only after that: a
    lazy f's misses in the product check realize vertices.

    A component session's record is schema 3: its transcript is empty
    and its oracle is ``f.description()``.  A lazy session's record is
    schema 4, cut to what ``verify`` reads.  Its oracle is the f_read
    pairs the product check read from f.  The kept vertices are
    supp(h) ∪ supp(p) ∪ supp(f_read), which holds supp(q) since h
    extends q.  The transcript lists the kept vertices in id order, each
    as ``[gap, *(U ∩ kept)]``, and no other vertex.  h is written whole,
    so a chained step's q can be the last step's h.  The session keeps
    its full transcript.
    """
    internal_check(h.extends(q), "h-extends-q")
    s = h.session
    lazy = s.kind.is_lazy
    reads = _ReadLog(f) if lazy else f
    miss = product_miss(claim_word(claim, data), p.pairs(), h, reads)
    internal_check(miss is None, "product-extends-target", lambda: f"(x, y, got) = {miss}")
    p_lists, h_lists = p.chain_lists(), h.chain_lists()
    if lazy:
        f_lists = chain_lists(reads.fwd, reads.bwd)
        kept = set(chain.from_iterable(chain(h_lists, p_lists, f_lists)))
        transcript, last = [], -1
        for U, w in s.transcript():  # ids rise, and U is sorted
            if w in kept:
                transcript.append([w - last - 1, *filter(kept.__contains__, U)])
                last = w
        oracle, schema = {"kind": "lazy_fresh", "pairs": f_lists}, SCHEMA_VERSION
    else:
        transcript, oracle, schema = [], f.description(), 3
    return WitnessCertificate(
        family=s.kind,
        claim=claim,
        transcript=transcript,
        oracle=oracle,
        q=q.chain_lists(),
        p=p_lists,
        h=h_lists,
        data=data,
        schema=schema,
    )


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


def _entries(seq, items: int) -> bool:
    """Transcript entries of ``items`` items: lists of integer vertices, then an integer id."""
    if not isinstance(seq, (list, tuple)):
        return False
    for entry in seq:
        if not isinstance(entry, (list, tuple)) or len(entry) != items \
                or type(entry[-1]) is not int:
            return False
        for part in entry[:-1]:
            if not _ints(part):
                return False
    return True


def _int_lists(seq, shortest: int) -> bool:
    """A list of lists (or tuples) of exact ints, each of at least ``shortest`` items."""
    if type(seq) not in (list, tuple):
        return False
    for part in seq:
        if type(part) not in (list, tuple) or len(part) < shortest:
            return False
        for v in part:
            if type(v) is not int:
                return False
    return True


def _vertex_lists(seq) -> bool:
    return _int_lists(seq, 2)


def _is_str(v) -> bool:
    return isinstance(v, str)


# per claim: data keys the verifier reads, each with its check
_DATA_KEYS = {
    HENSON_CLAIM: (("m", _is_int), ("l", _is_int)),
    OMEGA_CLAIM: (("m", _is_int),),
    NKOMEGA_CLAIM: (("k", _is_int), ("w1", _is_str), ("w2", _is_str)),
    N2_CLAIM: (("word", _is_str),),
}
_OPTIONAL_DATA = {"sigma": _ints, "product_pairs": _pairs}
# per oracle kind: (key, check, required); a map's check is the schema's (_MAP_CHECKS)
_ORACLE_KEYS = {
    "lazy_fresh": (("pairs", None, True),),
    "frozen": (("pairs", None, True),),
    "omega_shift": (("step", _is_int, True), ("pos_perm", _ints, True)),
    "nk_policy": (("sigma", _ints, True), ("band_rows", _is_int, False),
                  ("band_pairs", None, False), ("fixed_tail", _ints, False)),
}
# per schema: the check of a map, and how the shape note names it
_MAP_CHECKS = {1: (_pairs, "integer pairs"), 2: (_pairs, "integer pairs"),
               3: (_vertex_lists, "lists of at least two integer vertices"),
               4: (_vertex_lists, "lists of at least two integer vertices")}
# per schema: the check of a transcript with its size argument (items per entry, or
# fewest items), and how the shape note names an entry
_TRANSCRIPT_CHECKS = {1: (_entries, 4, "(U, V, F, id)"), 2: (_entries, 2, "(U, id)"),
                      3: (_int_lists, 0, "U"), 4: (_int_lists, 1, "[gap, *U]")}


def oracle_problem(oracle, map_ok=_vertex_lists) -> str | None:
    """The first way an oracle description departs from its kind's shape, or None;
    ``map_ok`` checks its finite map.  A kind this module does not know is left to
    ``oracle_from_description``, which names it."""
    if not isinstance(oracle, dict) or not isinstance(oracle.get("kind"), str):
        return "oracle must be an object with a string kind"
    for key, ok, required in _ORACLE_KEYS.get(oracle["kind"], ()):
        if key in oracle:
            if not (ok or map_ok)(oracle[key]):
                return f"oracle field {key} has the wrong type"
        elif required:
            return f"oracle {oracle['kind']} lacks {key}"
    return None


def shape_problem(cert: WitnessCertificate) -> str | None:
    """The first way the certificate departs from the schema's shape, or None.

    Checks types, map and entry arity, the claim against the family, and
    the data keys each claim needs, in one pass linear in the
    certificate's size, so that the clauses after it can read every field
    without raising.
    Words are only checked to be strings here; ``verify`` parses them
    with the other inputs.
    """
    if not _is_int(cert.schema) or cert.schema not in SCHEMAS:
        return f"unsupported schema {cert.schema!r}"
    fam = cert.family
    if not isinstance(fam, GraphKind) or not (fam.n is None or _is_int(fam.n)):
        return "family is not a graph kind"
    if not isinstance(cert.claim, str) or cert.claim not in CLAIM_FAMILIES:
        return f"unknown claim form {cert.claim!r}"
    if fam.tag not in CLAIM_FAMILIES[cert.claim]:
        return f"claim {cert.claim} cannot be made over family {fam.tag}"
    transcript_ok, size, form = _TRANSCRIPT_CHECKS[cert.schema]
    if not transcript_ok(cert.transcript, size):
        return f"transcript entries of schema {cert.schema} must be {form} with integer vertices"
    map_ok, map_form = _MAP_CHECKS[cert.schema]
    for name in ("q", "p", "h"):
        if not map_ok(getattr(cert, name)):
            return f"{name} must be a list of {map_form}"
    problem = oracle_problem(cert.oracle, map_ok)
    if problem:
        return problem
    data = cert.data
    if not isinstance(data, dict):
        return "data must be an object"
    for key, ok in _DATA_KEYS[cert.claim]:
        if key not in data:
            return f"claim {cert.claim} needs data {key}"
        if not ok(data[key]):
            return f"data {key} has the wrong type"
    if cert.claim == NKOMEGA_CLAIM and data["k"] < 1:  # k is the order of an index permutation
        return f"data k must be at least 1, got {data['k']}"
    for key, ok in _OPTIONAL_DATA.items():
        if key in data and not ok(data[key]):
            return f"data {key} has the wrong type"
    return None


def _pair_lists(pairs) -> list[list[int]]:
    """An old record's pair map as ``chain_lists`` vertex lists; a repeated pair is one pair.
    Pairs that give a point two images or two preimages are written one pair per list,
    where ``chain_pairs`` names the point as a repeated vertex on ``inputs-validate``."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in pairs:
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return [[x, y] for x, y in pairs]
    return chain_lists(fwd, bwd)


def _gap_ids(entries) -> Iterator[tuple[int, list[int]]]:
    """(id, U) of each schema-4 entry [gap, *U]: its id is gap + 1 past the last id."""
    w = -1
    for gap, *U in entries:
        w += gap + 1
        yield w, U


def _lift(cert: WitnessCertificate) -> tuple[WitnessCertificate, Iterator, list | None]:
    """A well-shaped record with its maps in the form every clause reads, its transcript
    as one stream of (id, U), and the product pairs an old record carries.

    Maps are vertex lists, and ids rise strictly, as ``GraphSession.replay_sets``
    checks.  A schema-4 entry's id comes from its gap.  A schema-3 entry w makes vertex
    w, a placeholder ``[]`` too.  A schema-1 or -2 record's maps are pairs, re-encoded
    here; its entries are handed over by ``entry_sets``, which checks their stated ids
    and schema-1 fences as replay reaches them; product pairs are read only there.
    """
    if cert.schema == 4:
        return cert, _gap_ids(cert.transcript), None
    if cert.schema == 3:
        return cert, enumerate(cert.transcript), None
    oracle = dict(cert.oracle)
    for key, ok, _ in _ORACLE_KEYS.get(oracle["kind"], ()):
        if ok is None and key in oracle:  # the oracle's finite map
            oracle[key] = _pair_lists(oracle[key])
    lifted = replace(cert, oracle=oracle, q=_pair_lists(cert.q), p=_pair_lists(cert.p),
                     h=_pair_lists(cert.h))
    return lifted, entry_sets(cert.transcript), cert.data.get("product_pairs")


def verify(cert: WitnessCertificate) -> VerificationReport:
    """Replay, rebuild, re-evaluate; no engine state is consulted."""
    clauses: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, note: str = "") -> bool:
        clauses.append((name, ok, note))
        return ok

    problem = shape_problem(cert)
    if not record("certificate-shape", problem is None, problem or ""):
        return VerificationReport(False, clauses)

    cert, entries, product_pairs = _lift(cert)
    try:
        session = GraphSession.replay_sets(cert.family, entries) \
            if cert.family.is_lazy else GraphSession(cert.family)
        record("transcript-replay", True)
    except GraphError as e:
        record("transcript-replay", False, str(e))
        return VerificationReport(False, clauses)

    try:
        q = validate(session, chain_pairs(cert.q, "q"))
        p = validate(session, chain_pairs(cert.p, "p"))
        h = validate(session, chain_pairs(cert.h, "h"))
        f = oracle_from_description(session, cert.oracle)
        word = claim_word(cert.claim, cert.data)
        record("inputs-validate", True)
    except ValueError as e:  # GraphError, IsoError, or a word that does not parse
        record("inputs-validate", False, str(e))
        return VerificationReport(False, clauses)

    extends = h.extends(q)
    record("h-extends-q", extends, "" if extends else "h does not extend q")

    # cert.h lists h's components: chains, and cycles closed by their first vertex
    if cert.claim == HENSON_CLAIM:
        record("h-cycle-free", all(vs[0] != vs[-1] for vs in cert.h))
        dom_p, ran_p = p.dom(), p.ran()
        separated = not (dom_p & ran_p) and session.first_edge(dom_p, ran_p) is None
        record("target-separated", separated, "" if separated else "target class violated")
    elif cert.claim == OMEGA_CLAIM:
        sigma = cert.data.get("sigma", [])
        chains = sum(vs[0] != vs[-1] for vs in cert.h)
        record("h-component-count", chains == len(sigma) == len(cert.h),
               f"{chains} chains for |sigma|={len(sigma)}")
        reps = set(sigma)
        profile = {vs[0]: len(reps.intersection(vs)) for vs in cert.h}
        one_each = all(k == 1 for k in profile.values())
        record("h-orbit-reps", one_each, "" if one_each else str(profile))
        imap = p.index_map()
        dom_p, ran_p = p.dom(), p.ran()
        whole = all(
            set(session.component_vertices(c)) <= dom_p for c in imap
        ) and all(
            set(session.component_vertices(c)) <= ran_p for c in imap.values()
        )
        record("target-whole-components", whole and not (dom_p & ran_p))
    elif cert.claim in (NKOMEGA_CLAIM, N2_CLAIM):
        imap = p.index_map()
        record("target-index-fixing",
               not (p.dom() & p.ran()) and all(i == j for i, j in imap.items()))

    bad = product_miss(word, p.pairs(), h, f)
    record("product-extends-target", bad is None,
           "" if bad is None else f"at {bad[0]}: expected {bad[1]}, got {bad[2]}")

    # schemas 3 and 4 write no product pairs: the product is re-derived above
    if cert.claim == NKOMEGA_CLAIM and product_pairs is not None:
        same = list(evaluate(word, h, f).pairs()) == sorted(map(tuple, product_pairs))
        record("product-pair-sets-match", same, "" if same else "pair sets differ")

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
