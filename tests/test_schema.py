"""Certificate schema 3: maps as vertex lists, transcript entries as bare U.

Schemas 1 and 2 are still read.  ``data/certs_v1.jsonl`` holds schema-1
certificates and ``data/certs_v2.jsonl`` schema-2 ones, each written
before the schema after it: seed 1 ``henson`` n=3 trials 0-2,
``nkomega`` n=3 trial 0 and ``omega-kn`` n=3 trial 0, one per line in
that order; the schema-2 file adds ``n2`` n=2 trial 0, so that every
claim form is covered.

``data/certs_v3_full.jsonl`` holds schema-3 Henson records written
before lazy-family records were cut to what ``verify`` reads: the seed-1
``henson-wide`` instances 0-2, then seed 1 ``henson`` n=3 trials 0-1 and
n=4 trial 0.  Every vertex the engine made is in their transcripts, and
their oracles hold the lazy oracle's whole map.

``data/certs_v3_slim.jsonl`` holds schema-3 Henson records written after
that cut and before schema 4: seed 1 ``henson`` n=3 trials 0-9 and n=4
trials 0-9, then the seed-1 ``henson-wide`` instances 0-3.  Each writes
every vertex it does not keep, up to its last kept one, as a ``[]``
placeholder; schema 4 lists only the kept vertices.
"""

import json
import random
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from conftest import CountingDict, brute_components, gap_ids, replayed, schema_3_transcript
from perfbench.workloads import henson_wide_instance, stream
from ultrahom import certs, oracles, partial_iso
from ultrahom.campaigns import run_trial
from ultrahom.certs import HENSON_CLAIM, SCHEMA_VERSION, WitnessCertificate, certify, verify
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.henson import density_witness_henson
from ultrahom.partial_iso import PartialIso, chain_pairs

DATA = Path(__file__).parent / "data"
V1_PATH, V2_PATH = DATA / "certs_v1.jsonl", DATA / "certs_v2.jsonl"
V3_FULL_PATH = DATA / "certs_v3_full.jsonl"
V3_FULL_K4_LINE = 5  # seed 1 henson n=4 trial 0
V3_SLIM_PATH = DATA / "certs_v3_slim.jsonl"
V1_TRIALS = (("henson", 3, 0), ("henson", 3, 1), ("henson", 3, 2),
             ("nkomega", 3, 0), ("omega-kn", 3, 0))
V2_TRIALS = V1_TRIALS + (("n2", 2, 0),)
HENSON_CLAUSES = ["certificate-shape", "transcript-replay", "inputs-validate", "h-extends-q",
                  "h-cycle-free", "target-separated", "product-extends-target"]
INDEX_FIXING_CLAUSES = ["certificate-shape", "transcript-replay", "inputs-validate",
                        "h-extends-q", "target-index-fixing", "product-extends-target"]
V1_CLAUSES = (HENSON_CLAUSES, HENSON_CLAUSES, HENSON_CLAUSES,
              INDEX_FIXING_CLAUSES + ["product-pair-sets-match"],
              ["certificate-shape", "transcript-replay", "inputs-validate", "h-extends-q",
               "h-component-count", "h-orbit-reps", "target-whole-components",
               "product-extends-target"])
V2_CLAUSES = V1_CLAUSES + (INDEX_FIXING_CLAUSES,)
# families whose engines have changed their certificates since schema 2, and the
# clauses a re-encoded schema-2 record of theirs verifies with
MOVED_CLAUSES = {"henson": HENSON_CLAUSES, "nkomega": INDEX_FIXING_CLAUSES}


def _v1_lines() -> list[str]:
    return V1_PATH.read_text().splitlines()


def _v2_lines() -> list[str]:
    return V2_PATH.read_text().splitlines()


def _failing(doc: dict) -> list[tuple[str, str]]:
    """(name, note) of each failing clause of a certificate given as a JSON object."""
    report = verify(WitnessCertificate.from_json(json.dumps(doc)))
    assert not report.ok
    return [(name, note) for name, ok, note in report.clauses if not ok]


def _first_entry_with_u(doc: dict) -> int:
    return next(i for i, entry in enumerate(doc["transcript"]) if entry[0])


def _assert_old_records_verify(lines: list[str], schema: int, clause_lists) -> None:
    assert len(lines) == len(clause_lists)
    for line, clauses in zip(lines, clause_lists):
        cert = WitnessCertificate.from_json(line)
        assert cert.schema == schema
        report = verify(cert)
        assert report.ok, str(report)
        assert [name for name, _, _ in report.clauses] == clauses
        assert cert.to_json() == line  # an old record round-trips as it was written


def test_schema_1_certificates_still_verify_with_the_same_clauses():
    _assert_old_records_verify(_v1_lines(), 1, V1_CLAUSES)


def test_schema_2_certificates_still_verify_with_the_same_clauses():
    _assert_old_records_verify(_v2_lines(), 2, V2_CLAUSES)


def _reference_lists(pairs) -> list[list[int]]:
    """Schema-3 vertex lists by pointwise chasing: chains head first, cycles closed
    from their least vertex, sorted by first vertex."""
    return [list(c) + [c[0]] * cyclic for c, cyclic in brute_components([tuple(t) for t in pairs])]


def test_new_certificate_is_the_schema_2_one_reencoded():
    """Schema 3 re-encodes the maps and the transcript and drops n K_omega's product
    pairs and n = 2's exponents; no other byte moves.  Schema 2 was schema 1 with
    (U, id) entries.

    The Henson engine has since stopped padding its chains, and the n K_omega
    engine takes the smallest admissible a-run exponent, so their certificates
    changed on purpose: such a record re-encoded is a schema-3 certificate
    that round-trips and verifies with the same clauses, and today's trial
    keeps its q and p and grows a smaller h.  The form ``verify`` lifts each
    schema-2 record into is the re-encoding, field for field, with entry w's U
    read as (w, U).  Today's Henson records are schema 4 (see the slim tests).
    """
    assert SCHEMA_VERSION == 4
    for v1, v2 in zip(_v1_lines(), _v2_lines()):
        doc = json.loads(v1)
        doc["schema"] = 2
        doc["transcript"] = [[U, w] for U, _, _, w in doc["transcript"]]
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == v2
    for line, (family, n, index) in zip(_v2_lines(), V2_TRIALS):
        doc = json.loads(line)
        doc["schema"] = 3
        doc["transcript"] = [U for U, _ in doc["transcript"]]
        for name in ("q", "p", "h"):
            doc[name] = _reference_lists(doc[name])
        for key in ("pairs", "band_pairs"):
            if key in doc["oracle"]:
                doc["oracle"][key] = _reference_lists(doc["oracle"][key])
        lifted, entries, _ = certs._lift(WitnessCertificate.from_json(line))
        assert list(entries) == list(enumerate(doc["transcript"]))
        assert (lifted.q, lifted.p, lifted.h, lifted.oracle) == \
            (doc["q"], doc["p"], doc["h"], doc["oracle"])
        doc["data"].pop("product_pairs", None)
        doc["data"].pop("exponents", None)
        reencoded = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        new = run_trial(family, n, 1, index)
        if family not in MOVED_CLAUSES:
            assert new.to_json() == reencoded, (family, n, index)
            continue
        cert = WitnessCertificate.from_json(reencoded)
        assert cert.to_json() == reencoded
        report = verify(cert)
        assert report.ok, str(report)
        assert [name for name, _, _ in report.clauses] == MOVED_CLAUSES[family]
        assert (new.q, new.p) == (doc["q"], doc["p"]), index
        assert len(chain_pairs(new.h)) < len(chain_pairs(cert.h)), index


def test_schema_1_fence_faults_are_still_rejected_on_replay():
    base = json.loads(_v1_lines()[0])
    i = _first_entry_with_u(base)
    U, V, F, w = base["transcript"][i]
    faults = (
        ([U, V + [U[0]], F, w], "U and V overlap"),
        ([U, V + [w], F, w], f"unknown vertex {w}"),
        ([U, V, F + [w + 1], w], f"unknown vertex {w + 1}"),
    )
    for entry, want in faults:
        doc = json.loads(json.dumps(base))
        doc["transcript"][i] = entry
        (name, note), = _failing(doc)
        assert name == "transcript-replay" and want in note


def _v2_henson() -> dict:
    doc = json.loads(_v2_lines()[0])
    assert doc["schema"] == 2 and all(len(entry) == 2 for entry in doc["transcript"])
    return doc


def test_entry_arity_must_match_the_schema():
    doc = _v2_henson()
    U, w = doc["transcript"][0]
    doc["transcript"][0] = [U, [], [], w]
    (name, note), = _failing(doc)
    assert (name, note) == ("certificate-shape", "transcript entries of schema 2 must be"
                                                 " (U, id) with integer vertices")
    doc = _v2_henson()
    doc["schema"] = 1
    assert [name for name, _ in _failing(doc)] == ["certificate-shape"]
    for bad in ([], [[0]], [[0], "1"], [[0, "x"], 1], [0, 1], [[0], [], 2]):
        doc = _v2_henson()
        doc["transcript"][0] = bad
        try:
            cert = WitnessCertificate.from_json(json.dumps(doc))
        except ValueError:  # GraphError: not a certificate at all
            continue
        assert [name for name, ok, _ in verify(cert).clauses if not ok] == ["certificate-shape"]


def test_v2_replay_faults_are_rejected_on_replay():
    base = _v2_henson()
    i = _first_entry_with_u(base)
    (u, *_), w = base["transcript"][i]  # u ~ w, and both exist before entry i + 1
    j = i + 1
    later_w = base["transcript"][j][1]
    last_U, last_w = base["transcript"][-1]
    cases = (
        (i, [[u, w + 5], w], f"unknown vertex {w + 5}"),
        (i, [[-1, u], w], "unknown vertex -1"),
        (j, [sorted({u, w}), later_w], "forbidden clique in U"),  # an edge is a K_2
        (j, [[u, w, u], later_w], "forbidden clique in U"),  # a repeat hides no edge
        (0, [base["transcript"][0][0], 1], "transcript replay diverged: expected id 1, got 0"),
        (-1, [last_U, last_w + 1],  # an id skipped
         f"transcript replay diverged: expected id {last_w + 1}, got {last_w}"),
    )
    for index, entry, want in cases:
        doc = json.loads(json.dumps(base))
        doc["transcript"][index] = entry
        assert _failing(doc) == [("transcript-replay", want)]
    doc = json.loads(json.dumps(base))
    doc["transcript"][i] = [[u, u, *doc["transcript"][i][0]], w]  # a repeat is one vertex
    assert verify(WitnessCertificate.from_json(json.dumps(doc))).ok
    doc = json.loads(json.dumps(base))
    doc["transcript"][0], doc["transcript"][1] = doc["transcript"][1], doc["transcript"][0]
    assert [name for name, _ in _failing(doc)] == ["transcript-replay"]


def test_old_map_faults_are_rejected_on_the_inputs():
    """A pair map of schema 1 or 2 that gives a point two images, or two preimages,
    is rejected on inputs-validate; a repeated identical pair is one pair."""
    doc = _v2_henson()
    (x, y), = doc["q"]
    doc["q"].append([x, next(v for v in range(len(doc["transcript"])) if v != y)])
    assert [name for name, _ in _failing(doc)] == ["inputs-validate"]

    doc = json.loads(_v1_lines()[0])
    pairs = doc["oracle"]["pairs"]
    dom = {u for u, _ in pairs}
    pairs.append([next(v for v in range(len(doc["transcript"])) if v not in dom), pairs[0][1]])
    assert [name for name, _ in _failing(doc)] == ["inputs-validate"]

    doc = _v2_henson()
    doc["h"].insert(3, doc["h"][0])
    report = verify(WitnessCertificate.from_json(json.dumps(doc)))
    assert report.ok, str(report)
    assert [name for name, _, _ in report.clauses] == HENSON_CLAUSES


def test_product_pairs_are_read_only_on_old_records():
    """A schema-1 n K_omega record whose product pairs differ from the product fails
    product-pair-sets-match; a schema-3 record's product pairs are not read."""
    doc = json.loads(_v1_lines()[3])
    x, y = doc["data"]["product_pairs"][0]
    doc["data"]["product_pairs"][0] = [x, y + 1]
    assert _failing(doc) == [("product-pair-sets-match", "pair sets differ")]

    doc = json.loads(run_trial("nkomega", 3, 1, 0).to_json())
    doc["data"]["product_pairs"] = [[0, 1]]
    report = verify(WitnessCertificate.from_json(json.dumps(doc)))
    assert report.ok, str(report)
    assert [name for name, _, _ in report.clauses] == INDEX_FIXING_CLAUSES


def test_v2_triangle_in_u_is_rejected_on_replay_of_a_k4_free_certificate():
    """On K_4-free graphs U may hold edges but no triangle: the clique search beyond one edge.

    The full record keeps every vertex the engine made; a slim one has no triangle
    among its kept vertices to put into a U."""
    line = V3_FULL_PATH.read_text().splitlines()[V3_FULL_K4_LINE]
    cert = WitnessCertificate.from_json(line)
    assert cert.family == GraphKind.henson(4)
    doc = json.loads(line)
    adj = replayed(cert)._adj
    # the first entry with a triangle among the vertices before it (entry w makes
    # vertex w); edges never change
    w, tri = next((w, C) for w in range(len(doc["transcript"]))
                  for C in combinations(range(w), 3)
                  if all(b in adj[a] for a, b in combinations(C, 2)))
    doc["transcript"][w] = list(tri)
    assert _failing(doc) == [("transcript-replay", "forbidden clique in U")]
    doc["transcript"][w] = list(tri[:2])  # one edge is allowed: the entry replays
    GraphSession.replay_sets(GraphKind.henson(4), enumerate(doc["transcript"][:w + 1]))


def test_slim_schema_3_henson_certificates_still_verify():
    """A schema-3 record with [] placeholders verifies with the Henson clauses and
    round-trips; today's record of the same trial is schema 4, the same record with
    its placeholders left out."""
    lines = V3_SLIM_PATH.read_text().splitlines()
    _assert_old_records_verify(lines, 3, [HENSON_CLAUSES] * 24)
    today = [run_trial("henson", n, 1, index) for n in (3, 4) for index in range(10)]
    for i in range(4):
        f, q, p = henson_wide_instance(stream(1, "henson-wide", i))
        today.append(density_witness_henson(f, q, p))
    for line, cert in zip(lines, today):
        old, new = json.loads(line), json.loads(cert.to_json())
        assert (old.pop("schema"), new.pop("schema")) == (3, 4)
        assert schema_3_transcript(new.pop("transcript")) == old.pop("transcript")
        assert new == old


def _v3_full_instances():
    """(line, today's certificate of the same instance) for each full record."""
    lines = V3_FULL_PATH.read_text().splitlines()
    assert len(lines) == 6
    for i, line in enumerate(lines[:3]):
        f, q, p = henson_wide_instance(stream(1, "henson-wide", i))
        yield line, density_witness_henson(f, q, p)
    for line, (n, index) in zip(lines[3:], ((3, 0), (3, 1), (4, 0))):
        yield line, run_trial("henson", n, 1, index)


def test_full_schema_3_henson_certificates_still_verify():
    """A record that keeps every vertex and the lazy oracle's whole map still verifies,
    and today's slim record of the same instance carries the same q, p, h and data in
    fewer bytes: at most 0.55x on the henson-wide instances."""
    for i, (line, slim) in enumerate(_v3_full_instances()):
        cert = WitnessCertificate.from_json(line)
        report = verify(cert)
        assert report.ok, str(report)
        assert [name for name, _, _ in report.clauses] == HENSON_CLAUSES
        assert cert.to_json() == line
        assert (slim.q, slim.p, slim.h, slim.data) == (cert.q, cert.p, cert.h, cert.data)
        assert len(slim.transcript) <= len(cert.transcript)
        assert sum(map(len, slim.transcript)) < sum(map(len, cert.transcript))
        assert len(slim.oracle["pairs"]) < len(cert.oracle["pairs"])
        assert len(slim.to_json()) < (0.55 if i < 3 else 1) * len(line)


def _product_reads(f, p, h, m, l):
    """The (v, (v)f) pairs that h^m f h^{2l} f^-1 h^-m reads at the points of p,
    chased pair by pair through the full session's maps."""
    h_fwd = dict(h.pairs())
    f_fwd, f_bwd = dict(f.cache.pairs()), {y: x for x, y in f.cache.pairs()}
    reads = set()
    for x, y in p.pairs():
        for _ in range(m):
            x = h_fwd[x]
        reads.add((x, f_fwd[x]))
        x = f_fwd[x]
        for _ in range(2 * l):
            x = h_fwd[x]
        reads.add((f_bwd[x], x))
    return reads


def _slim_instances():
    """(full session, lazy oracle, p, h, slim certificate) for K_3- and K_4-free instances."""
    for seed, n, width in ((1, 3, 12), (2, 3, 12), (3, 4, 6)):
        f, q, p = henson_wide_instance(stream(seed, "henson-wide", 0), n=n, width=width)
        cert = density_witness_henson(f, q, p)
        h = partial_iso.validate(f.session, chain_pairs(cert.h))
        yield f.session, f, p.iso, h, cert


def test_slim_record_keeps_the_induced_subgraph_on_the_kept_vertices():
    """Brute force: the replayed slim session is the full session's induced subgraph on
    the kept vertices, its transcript lists exactly those, and its oracle holds exactly
    the pairs the product reads, two for each pair of p."""
    for full, f, p, h, cert in _slim_instances():
        assert verify(cert).ok
        reads = _product_reads(f, p, h, cert.data["m"], cert.data["l"])
        assert set(chain_pairs(cert.oracle["pairs"])) == reads
        assert len(reads) == 2 * len(p)
        kept = {v for name in ("q", "p", "h") for vs in getattr(cert, name) for v in vs}
        kept |= {v for pair in reads for v in pair}
        slim = replayed(cert)
        assert gap_ids(cert.transcript) == slim.realized() == sorted(kept)
        for u, w in combinations(sorted(kept), 2):
            assert slim.adjacent(u, w) == full.adjacent(u, w), (u, w)
        # vertices the session makes past the kept ones change nothing in the record
        full.alice_witness(())
        q = partial_iso.validate(full, chain_pairs(cert.q))
        assert certify(cert.claim, f, q, p, h, cert.data).to_json() == cert.to_json()


def test_slim_record_keeps_the_vertices_of_every_pair_the_product_reads():
    """With h empty, the product b b^-1 reads f outside supp(h) and supp(p): its miss
    realizes (x)f, and the record keeps that vertex and the pair.  The product
    holds; only the target class fails, since p fixes x."""
    s = GraphSession(GraphKind.henson(3))
    x = s.alice_witness(())
    none = partial_iso.empty(s)
    p = partial_iso.validate(s, [(x, x)])
    cert = certify(HENSON_CLAIM, oracles.LazyOracle(s), none, p, none, {"m": 0, "l": 0})
    assert cert.oracle == {"kind": "lazy_fresh", "pairs": [[x, x + 1]]}
    assert cert.transcript == [[x], [0]]  # vertices x and x + 1, no edge
    assert _failing(json.loads(cert.to_json())) == [("target-separated", "target class violated")]


def test_slim_record_without_an_oracle_pair_is_rejected_on_the_product():
    full, f, p, h, cert = next(_slim_instances())
    pairs = chain_pairs(cert.oracle["pairs"])
    for dropped in pairs:
        doc = json.loads(cert.to_json())
        doc["oracle"]["pairs"] = _reference_lists([pair for pair in pairs if pair != dropped])
        (name, _), = _failing(doc)
        assert name == "product-extends-target", dropped


def test_slim_transcript_cut_before_its_last_kept_vertex_is_rejected():
    for full, f, p, h, cert in _slim_instances():
        doc = json.loads(cert.to_json())
        last = gap_ids(doc["transcript"])[-1]
        doc["transcript"].pop()
        assert _failing(doc) == [("inputs-validate", f"unknown vertex {last}")]


def test_slim_record_without_an_edge_inside_dom_p_is_rejected_on_the_inputs():
    """An edge u ~ w with both ends in dom(p) is read by p's validation, since p maps it
    to an edge of ran(p); dropping u from the kept U of w breaks p."""
    for full, f, p, h, cert in _slim_instances():
        dom_p = p.dom()
        i, w, u = next((i, w, u) for i, w in enumerate(gap_ids(cert.transcript)) if w in dom_p
                       for u in cert.transcript[i][1:] if u in dom_p)
        doc = json.loads(cert.to_json())
        entry = doc["transcript"][i]
        del entry[entry.index(u, 1)]
        (name, _), = _failing(doc)
        assert name == "inputs-validate", (u, w)


def _henson_doc(n: int = 3) -> dict:
    doc = json.loads(run_trial("henson", n, 1, 0).to_json())
    assert doc["schema"] == 4
    return doc


def _timed_report(doc: dict):
    t0 = time.perf_counter()
    report = verify(WitnessCertificate.from_json(json.dumps(doc)))
    return report, time.perf_counter() - t0


def test_a_gap_of_10_18_costs_what_its_bytes_cost():
    """Every vertex moved 10^18 up is VERIFIED, and the last entry moved 10^18 past the
    others leaves a map vertex unlisted; neither makes a vertex for a skipped id, so each
    verify takes well under 50 ms."""
    big = 10 ** 18
    doc = _henson_doc()
    last = gap_ids(doc["transcript"])[-1]
    moved = json.loads(json.dumps(doc))
    moved["transcript"][0][0] += big
    for entry in moved["transcript"]:
        entry[1:] = [u + big for u in entry[1:]]
    for lists in (moved["q"], moved["p"], moved["h"], moved["oracle"]["pairs"]):
        for vs in lists:
            vs[:] = [v + big for v in vs]
    report, seconds = _timed_report(moved)
    assert report.ok, str(report)
    assert [name for name, _, _ in report.clauses] == HENSON_CLAUSES
    assert seconds < 0.05, seconds

    doc["transcript"][-1][0] += big
    report, seconds = _timed_report(doc)
    assert report.failing() == [("inputs-validate", False, f"unknown vertex {last}")]
    assert seconds < 0.05, seconds


SHAPE_NOTE_4 = "transcript entries of schema 4 must be [gap, *U] with integer vertices"


def _set_gap(i, gap):
    def mutate(doc):
        ids = gap_ids(doc["transcript"])
        doc["transcript"][i][0] = gap
        due = ids[i - 1] + 1 if i else 0  # the id the entry would have with gap 0
        note = f"transcript ids must rise: {due + gap} where {due} or more was due"
        return "transcript-replay", note
    return mutate


def _bad_gap(value):
    def mutate(doc):
        doc["transcript"][1][0] = value
        return "certificate-shape", SHAPE_NOTE_4
    return mutate


def _empty_entry(doc):
    doc["transcript"][1] = []
    return "certificate-shape", SHAPE_NOTE_4


# a schema-4 entry whose gap is negative, not an integer, or missing
GAP_FAULTS = {
    "negative-first-gap": _set_gap(0, -3),
    "gap-of-minus-one": _set_gap(1, -1),
    "gap-of-minus-two": _set_gap(2, -2),
    "float-gap": _bad_gap(1.0),
    "str-gap": _bad_gap("1"),
    "bool-gap": _bad_gap(True),
    "null-gap": _bad_gap(None),
    "empty-entry": _empty_entry,
}


@pytest.mark.parametrize("mutate", GAP_FAULTS.values(), ids=GAP_FAULTS.keys())
def test_bad_gaps_are_rejected_on_a_named_clause(mutate):
    doc = _henson_doc()
    want = mutate(doc)
    assert _failing(doc) == [want]


def test_a_map_or_oracle_vertex_no_entry_lists_is_rejected_on_the_inputs():
    """Each listed vertex left out, with the next gap grown so that no other id moves and
    the vertex dropped from every later U: the maps name it, and nothing else fails."""
    doc = _henson_doc()
    ids = gap_ids(doc["transcript"])
    named = {v for key in ("q", "p", "h") for vs in doc[key] for v in vs}
    named |= {v for vs in doc["oracle"]["pairs"] for v in vs}
    assert named == set(ids)  # every listed vertex is a map or oracle vertex
    for i, w in enumerate(ids):
        cut = json.loads(json.dumps(doc))
        gap = cut["transcript"].pop(i)[0]
        if i < len(ids) - 1:
            cut["transcript"][i][0] += gap + 1
        for entry in cut["transcript"][i:]:
            entry[1:] = [u for u in entry[1:] if u != w]
        assert gap_ids(cut["transcript"]) == ids[:i] + ids[i + 1:]
        assert _failing(cut) == [("inputs-validate", f"unknown vertex {w}")], w


def test_a_u_naming_an_unlisted_or_later_id_is_rejected_on_replay():
    doc = _henson_doc()
    ids = gap_ids(doc["transcript"])
    i = next(i for i in range(1, len(ids)) if ids[i] > ids[i - 1] + 1)  # a skip before i
    for target, named in ((i, ids[i] - 1), (i - 1, ids[i]), (i, ids[-1] + 1)):
        bad = json.loads(json.dumps(doc))
        bad["transcript"][target].append(named)  # skipped, listed later, or past the last
        assert _failing(bad) == [("transcript-replay", f"unknown vertex {named}")], named


def test_a_triangle_in_u_is_rejected_on_replay_at_n_4():
    """K_4-free: a U may hold an edge but no triangle.  Grow U of a later vertex c to
    hold an edge u ~ w, which replays, then U of a vertex after c to hold u, w and c."""
    doc = _henson_doc(4)
    ids = gap_ids(doc["transcript"])
    i = next(i for i, entry in enumerate(doc["transcript"]) if len(entry) > 1)
    u, w = doc["transcript"][i][1], ids[i]
    c = i + 1
    doc["transcript"][c] += [u, w]
    GraphSession.replay_sets(GraphKind.henson(4), zip(ids, (e[1:] for e in doc["transcript"])))
    doc["transcript"][c + 1] += [u, w, ids[c]]
    assert _failing(doc) == [("transcript-replay", "forbidden clique in U")]

def _wide_cert_bytes(width: int) -> int:
    f, q, p = henson_wide_instance(stream(1, "henson-wide", 0), width=width)
    return len(density_witness_henson(f, q, p).to_json())


def test_henson_certificate_bytes_grow_linearly_in_the_target():
    small, large = _wide_cert_bytes(8), _wide_cert_bytes(32)
    assert large < 5 * small, (small, large)


def test_verify_cost_does_not_grow_with_the_exponent(monkeypatch):
    doc = json.loads(run_trial("henson", 3, 1, 0).to_json())
    x = doc["p"][0][0]
    z = next(w for w in gap_ids(doc["transcript"]) if w != x)
    doc["q"], doc["h"] = [], [[x, z, x]]  # a 2-cycle
    real_validate = partial_iso.validate

    def counting_validate(session, pairs):
        iso = real_validate(session, pairs)
        return PartialIso(session, CountingDict(iso._fwd), CountingDict(iso._bwd))

    monkeypatch.setattr("ultrahom.certs.validate", counting_validate)
    reports = {}
    for m in (0, 1, 10 ** 18, 10 ** 18 + 1):
        doc["data"]["m"] = m
        CountingDict.lookups = 0
        reports[m] = verify(WitnessCertificate.from_json(json.dumps(doc))).clauses
        assert CountingDict.lookups < 100
    # h is one 2-cycle, so only the parity of m matters
    assert reports[10 ** 18] == reports[0] and reports[10 ** 18 + 1] == reports[1]
    assert ("h-cycle-free", False, "") in reports[0]


def test_verify_cost_of_a_b_power_does_not_grow_with_the_exponent(monkeypatch):
    """An n2 certificate whose word is b^k: the walk reads f^k off the oracle's closed
    form, so every map and oracle lookup together stay under the certificate's bytes."""
    doc = json.loads(run_trial("n2", 2, 1, 0).to_json())
    real_validate, real_oracle = partial_iso.validate, oracles.oracle_from_description

    def counting_validate(session, pairs):
        iso = real_validate(session, pairs)
        return PartialIso(session, CountingDict(iso._fwd), CountingDict(iso._bwd))

    def counting_oracle(session, desc):
        f = real_oracle(session, desc)
        for name, value in list(vars(f).items()):
            if type(value) is dict:
                setattr(f, name, CountingDict(value))
        return f

    monkeypatch.setattr("ultrahom.certs.validate", counting_validate)
    monkeypatch.setattr("ultrahom.certs.oracle_from_description", counting_oracle)
    for k in (10 ** 3, 10 ** 5, 10 ** 9):
        doc["data"]["word"] = f"b^{k}"
        text = json.dumps(doc)
        CountingDict.lookups = 0
        report = verify(WitnessCertificate.from_json(text))
        assert CountingDict.lookups < len(text)
        assert [name for name, ok, _ in report.clauses if not ok] == ["product-extends-target"]


def _set_p(doc, pairs):
    doc["p"] = pairs


def _set_fixed_tail(doc, tail):
    doc["oracle"]["fixed_tail"] = tail


def _set_data(doc, **changes):
    doc["data"].update(changes)


def _widen_omega(doc, keep_pos_perm):
    doc["family"]["n"] = 10 ** 6
    if not keep_pos_perm:
        del doc["oracle"]["pos_perm"]


# (trial, mutation, failing clause, note): each must be a report, never an exception
HOSTILE = (
    (("nkomega", 3), lambda d: _set_p(d, [[-3, -6]]), "inputs-validate", "unknown vertex -3"),
    (("n2", 2), lambda d: _set_p(d, [[-3, -6]]), "inputs-validate", "unknown vertex -3"),
    (("omega-kn", 3), lambda d: _set_p(d, [[-3, -6]]), "inputs-validate", "unknown vertex -3"),
    (("n2", 2), lambda d: _set_fixed_tail(d, [100]), "inputs-validate",
     "fixed tail component 100 out of range 1..2"),
    (("n2", 2), lambda d: _set_fixed_tail(d, [0]), "inputs-validate",
     "fixed tail component 0 out of range 1..2"),
    (("omega-kn", 3), lambda d: _widen_omega(d, keep_pos_perm=False), "certificate-shape",
     "oracle omega_shift lacks pos_perm"),
    (("omega-kn", 3), lambda d: _widen_omega(d, keep_pos_perm=True), "inputs-validate",
     "pos_perm must permute 0..999999"),
    (("nkomega", 3), lambda d: _set_data(d, k=0, w1="b", w2="b"), "certificate-shape",
     "data k must be at least 1, got 0"),
)


@pytest.mark.parametrize("trial, mutate, clause, note", HOSTILE,
                         ids=["nkomega-negative-id", "n2-negative-id", "omega-kn-negative-id",
                              "n2-fixed-tail-100", "n2-fixed-tail-0",
                              "omega-kn-wide-no-pos-perm", "omega-kn-wide-pos-perm",
                              "nkomega-k-0-all-b"])
def test_hostile_certificates_are_rejected_on_a_named_clause(trial, mutate, clause, note):
    doc = json.loads(run_trial(*trial, 1, 0).to_json())
    mutate(doc)
    assert _failing(doc) == [(clause, note)]


def _repeat(v, where="h"):
    return "inputs-validate", f"repeated-vertex: vertex {v} appears twice in {where}"


def _on_two_lists(d):
    v = d["h"][1][1]
    d["h"][0].append(v)
    return _repeat(v)


def _twice_on_one_list(d):
    first = d["h"][0]
    first.insert(1, first[-1])
    return _repeat(first[-1])


def _tail_heads_a_list(d):
    v = d["h"][1][0]
    d["h"][0].append(v)
    return _repeat(v)


def _badly_closed(d):
    first = d["h"][0]
    first.append(first[1])  # a repeat that is not the list's first vertex
    return _repeat(first[1])


def _one_vertex_list(d, name):
    d[name].append([d[name][0][0]])
    return "certificate-shape", f"{name} must be a list of lists of at least two integer vertices"


def _vertex_of_type(d, value):
    d["h"][0][1] = value
    return "certificate-shape", "h must be a list of lists of at least two integer vertices"


def _oracle_on_two_lists(d):
    lists = d["oracle"]["pairs"]
    lists[0].append(lists[1][0])
    return _repeat(lists[1][0], "the oracle")


def _oracle_vertex_of_type(d, value):
    d["oracle"]["pairs"][0][0] = value
    return "certificate-shape", "oracle field pairs has the wrong type"


def _unmade_vertex_in_u(d, ahead):
    i = next(i for i, entry in enumerate(d["transcript"]) if len(entry) > 1)
    w = gap_ids(d["transcript"])[i]
    d["transcript"][i].append(w + ahead)
    return "transcript-replay", f"unknown vertex {w + ahead}"


def _set_entry(d, entry):
    d["transcript"][-1] = entry
    return "certificate-shape", SHAPE_NOTE_4


def _omega_cycle(d):
    """A 2-cycle inside one far component: each chain still holds one representative."""
    a, b = 12000, 12001  # positions 0 and 1 of omega K_3 component 2000
    d["h"].append([a, b, a])
    profile = {vs[0]: len(set(d["data"]["sigma"]).intersection(vs)) for vs in d["h"]}
    return [("h-component-count", "6 chains for |sigma|=6"), ("h-orbit-reps", str(profile))]


# (trial, mutation returning the failing clause and note) on the vertex lists of schemas
# 3 (component families) and 4 (Henson)
HOSTILE_V3 = {
    "vertex-on-two-lists": (("omega-kn", 3), _on_two_lists),
    "nkomega-vertex-on-two-lists": (("nkomega", 3), _on_two_lists),
    "vertex-twice-on-one-list": (("omega-kn", 3), _twice_on_one_list),
    "tail-heads-a-list": (("henson", 3), _tail_heads_a_list),
    "badly-closed-cycle": (("nkomega", 3), _badly_closed),
    "one-vertex-list-in-h": (("omega-kn", 3), lambda d: _one_vertex_list(d, "h")),
    "one-vertex-list-in-p": (("n2", 2), lambda d: _one_vertex_list(d, "p")),
    "bool-vertex": (("omega-kn", 3), lambda d: _vertex_of_type(d, True)),
    "float-vertex": (("nkomega", 3), lambda d: _vertex_of_type(d, 1.0)),
    "str-vertex": (("henson", 3), lambda d: _vertex_of_type(d, "1")),
    "oracle-vertex-on-two-lists": (("henson", 3), _oracle_on_two_lists),
    "oracle-float-vertex": (("henson", 3), lambda d: _oracle_vertex_of_type(d, 2.0)),
    "u-names-its-own-vertex": (("henson", 3), lambda d: _unmade_vertex_in_u(d, 0)),
    "u-names-a-later-vertex": (("henson", 4), lambda d: _unmade_vertex_in_u(d, 3)),
    "omega-h-with-a-cycle": (("omega-kn", 3), _omega_cycle),
    "entry-not-a-list": (("henson", 3), lambda d: _set_entry(d, 5)),
    "entry-with-a-float": (("henson", 3), lambda d: _set_entry(d, [0, 1.0])),
}


@pytest.mark.parametrize("trial, mutate", HOSTILE_V3.values(), ids=HOSTILE_V3.keys())
def test_hostile_vertex_lists_are_rejected_on_a_named_clause(trial, mutate):
    doc = json.loads(run_trial(*trial, 1, 0).to_json())
    assert doc["schema"] == (4 if trial[0] == "henson" else 3)
    want = mutate(doc)
    assert _failing(doc) == (want if isinstance(want, list) else [want])


def test_verify_lookups_grow_linearly_in_chain_length(monkeypatch):
    """h of 3 chains of L + 1 vertices and q the same chains one vertex shorter, for L
    1x, 10x and 100x: h-extends-q looks up every pair of q, and lookups grow 10x per 10x."""
    doc = json.loads(run_trial("omega-kn", 3, 1, 0).to_json())
    session = GraphSession(GraphKind.omega_kn(3))
    real_validate = partial_iso.validate

    def counting_validate(session, pairs):
        iso = real_validate(session, pairs)
        return PartialIso(session, CountingDict(iso._fwd), CountingDict(iso._bwd))

    monkeypatch.setattr("ultrahom.certs.validate", counting_validate)
    counts = []
    for length in (20, 200, 2000):
        doc["h"] = [[session.vertex(1000 + i, j) for i in range(length + 1)] for j in range(3)]
        doc["q"] = [chain[:-1] for chain in doc["h"]]
        CountingDict.lookups = 0
        clauses = verify(WitnessCertificate.from_json(json.dumps(doc))).clauses
        assert ("h-extends-q", True, "") in clauses
        assert ("h-component-count", False, "3 chains for |sigma|=6") in clauses
        counts.append(CountingDict.lookups)
    assert counts[0] >= 3 * 19, counts
    for short, long in zip(counts, counts[1:]):
        assert long <= 11 * short, counts
    assert counts[-1] <= 4 * 3 * 2001, counts


# (trial, mutation): words an all-b evaluation or a letter-by-letter a^k walk broke
HOSTILE_WORDS = (
    (("nkomega", 3), lambda d: _set_data(d, w1="b")),
    (("nkomega", 3), lambda d: _set_data(d, w2="b")),
    (("nkomega", 3), lambda d: _set_data(d, w2="b^-2")),
    (("nkomega", 3), lambda d: _set_data(d, w1="a^1000000 " + d["data"]["w1"])),
    (("n2", 2), lambda d: _set_data(d, word="a^1000000")),
)


@pytest.mark.parametrize("trial, mutate", HOSTILE_WORDS,
                         ids=["nkomega-w1-b", "nkomega-w2-b", "nkomega-w2-b-2",
                              "nkomega-w1-a-million", "n2-word-a-million"])
def test_hostile_words_are_rejected_on_the_product_within_bounds(monkeypatch, trial, mutate):
    """A report, never an exception; h lookups at most one per certificate byte, little memory."""
    doc = json.loads(run_trial(*trial, 1, 0).to_json())
    mutate(doc)
    real_validate = partial_iso.validate

    def counting_validate(session, pairs):
        iso = real_validate(session, pairs)
        return PartialIso(session, CountingDict(iso._fwd), CountingDict(iso._bwd))

    monkeypatch.setattr("ultrahom.certs.validate", counting_validate)
    CountingDict.lookups = 0
    tracemalloc.start()
    try:
        failing = _failing(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = [name for name, _ in failing]
    assert names in (["product-extends-target"],
                     ["product-extends-target", "product-pair-sets-match"]), failing
    assert CountingDict.lookups <= len(json.dumps(doc))
    assert peak < 10 ** 6, peak


def test_whole_component_target_check_reads_dom_and_ran_once(monkeypatch):
    """target-whole-components builds dom(p) and ran(p) once, not once per component of p."""
    doc = json.loads(run_trial("omega-kn", 3, 1, 0).to_json())
    session = GraphSession(GraphKind.omega_kn(3))
    calls = {"dom": 0, "ran": 0}
    for name in calls:
        real = getattr(PartialIso, name)

        def counted(self, real=real, name=name):
            calls[name] += 1
            return real(self)

        monkeypatch.setattr(PartialIso, name, counted)
    seen = []
    for components in (10, 100, 1000):
        doc["p"] = [[session.vertex(1000 + i, j), session.vertex(5000 + i, j)]
                    for i in range(components) for j in range(3)]
        for name in calls:
            calls[name] = 0
        report = verify(WitnessCertificate.from_json(json.dumps(doc)))
        assert ("target-whole-components", True, "") in report.clauses
        seen.append(dict(calls))
    assert seen[0] == seen[1] == seen[2], seen
    assert seen[0]["dom"] <= 2 and seen[0]["ran"] <= 2, seen


class _Pair(tuple):
    """A tuple subclass, which the shape check accepts as a tuple."""


def _hostile(rng, value):
    """value, or with some chance one hostile stand-in for it."""
    if rng.random() < 0.85:
        return value
    return rng.choice(HOSTILE_VALUES + [_Pair(value) if isinstance(value, (list, tuple)) else 3,
                                        [value], (value,)])


def _hostile_entries(rng, items):
    def entry():
        parts = [_hostile(rng, [_hostile(rng, rng.randint(0, 50)) for _ in range(rng.randint(0, 4))])
                 for _ in range(items - 1)]
        return _hostile(rng, rng.choice([list, tuple])(parts + [_hostile(rng, rng.randint(0, 50))]))

    seq = [entry() for _ in range(rng.randint(0, 6))]
    return rng.choice([seq, seq, seq, tuple(seq), _Pair(seq), {0: seq}, "seq", None])


HOSTILE_VALUES = [True, 1.0, "1", None, {1: 2}, {1, 2}, [], [[1, 2]], (1,), (1, 2, 3),
                  _Pair((1, 2)), 2 ** 70, -1]


def _shape_rejected(cert) -> str:
    """The shape note of a record verify rejects on certificate-shape alone."""
    note = certs.shape_problem(cert)
    assert note is not None, cert.transcript
    report = verify(cert)
    assert [c for c in report.clauses if not c[1]] == [("certificate-shape", False, note)]
    return note


def test_hostile_transcript_shapes_are_rejected_on_the_shape():
    """Bools, floats, big and nested values, tuple subclasses, wrong arity, non-list
    entries in schema-1 and schema-2 transcripts: the shape check names each fault
    without raising, and verify rejects it on certificate-shape alone.  A hostile
    transcript the shape admits gets a report, never an exception."""
    docs = {1: [json.loads(line) for line in _v1_lines()[:3]],  # (U, V, F, id)
            2: [json.loads(line) for line in _v2_lines()[:3]]}  # (U, id)

    def cert_with(schema, transcript):
        cert = WitnessCertificate.from_json(json.dumps(docs[schema][0]))
        cert.transcript = transcript
        return cert

    # each stand-in in place of a whole entry, of its U, or of its id is a shape fault
    for schema, (U, *rest) in ((1, docs[1][0]["transcript"][5]), (2, docs[2][0]["transcript"][5])):
        scalars = (True, 1.0, "1", None, {1: 2}, {1, 2})
        for bad in scalars + ((1,), [[1, 2]], (1, 2, 3)):
            _shape_rejected(cert_with(schema, [bad]))
        for bad in scalars + ([[1, 2]], [True], [1.0], ["1"], [None], [2 ** 70, (1,)]):
            _shape_rejected(cert_with(schema, [[bad, *rest]]))
        for bad in scalars + ((1,), [[1, 2]]):
            _shape_rejected(cert_with(schema, [[U, *rest[:-1], bad]]))
        for seq in ({0: [[U, *rest]]}, "seq", None):
            _shape_rejected(cert_with(schema, seq))
    # entries of one schema read as the other's
    _shape_rejected(cert_with(1, docs[2][0]["transcript"]))
    _shape_rejected(cert_with(2, docs[1][0]["transcript"]))

    rng = random.Random(3)
    notes = set()
    for _ in range(400):
        schema = rng.choice((1, 2))
        cert = WitnessCertificate.from_json(json.dumps(rng.choice(docs[schema])))
        if rng.random() < 0.5:
            entries = list(cert.transcript)
            i = rng.randrange(len(entries))
            j = rng.randrange(len(entries[i]))
            entries[i] = _hostile(rng, (*entries[i][:j], _hostile(rng, entries[i][j]),
                                        *entries[i][j + 1:]))
            cert.transcript = rng.choice([entries, tuple(entries)])
        else:
            cert.transcript = _hostile_entries(rng, rng.choice((2, 4)))
        note = certs.shape_problem(cert)
        if note is None:
            assert verify(cert).clauses[0] == ("certificate-shape", True, "")
        else:
            assert _shape_rejected(cert) == note
        notes.add(note)
    assert None in notes and len(notes) >= 3, notes
