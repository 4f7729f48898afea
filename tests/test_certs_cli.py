import ast
import json
import random
import re
from pathlib import Path

import pytest

from conftest import replayed, transcript_entries
from ultrahom import certs
from ultrahom.campaigns import campaign, henson_trial, run_trial, write_certs, read_certs
from ultrahom.certs import (HENSON_CLAIM, N2_CLAIM, NKOMEGA_CLAIM, OMEGA_CLAIM,
                            WitnessCertificate, brute_force_word_eval, certify, claim_word,
                            verify)
from ultrahom.cli import main
from ultrahom.errors import InternalCheckError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.oracles import oracle_from_description
from ultrahom.partial_iso import chain_pairs, compose, power, validate
from ultrahom.perms import IndexPerm
from ultrahom.words import evaluate, parse_word

SRC = Path(__file__).resolve().parent.parent / "src" / "ultrahom"
DATA = Path(__file__).resolve().parent / "data"


def test_certificate_round_trip_byte_identical():
    cert = henson_trial(3, random.Random(0))
    text = cert.to_json()
    again = WitnessCertificate.from_json(text).to_json()
    assert text == again


def test_tampered_certificate_fails_with_divergence():
    cert = henson_trial(3, random.Random(1))
    assert verify(cert).ok
    h = [list(t) for t in cert.h]
    h[0][1] = h[1][1]  # break injectivity of h
    bad = WitnessCertificate.from_json(cert.to_json())
    bad.h = [tuple(t) for t in h]
    assert not verify(bad).ok


def test_tamper_target_value_reports_vertex():
    cert = henson_trial(3, random.Random(2))
    tampered = WitnessCertificate.from_json(cert.to_json())
    x, y = tampered.p[0]
    tampered.p = [(x, x)] + tampered.p[1:]  # claim a wrong image for x
    report = verify(tampered)
    assert not report.ok
    assert any(name == "product-extends-target" and not ok and f"at {x}" in note
               for name, ok, note in report.clauses)


def test_verifier_is_engine_independent():
    text = (SRC / "certs.py").read_text()
    for engine in ("henson", "omega_kn", "nkomega", "campaigns", "cli"):
        assert not re.search(rf"from\s+\.{engine}\s+import|import\s+\.{engine}", text), \
            f"certs.py must not import {engine}"


def test_verifier_imports_reach_no_engine():
    """certs.py and every package module it imports, transitively, import no engine."""
    engines = {"henson", "omega_kn", "nkomega", "campaigns", "cli"}
    seen, todo = set(), ["certs"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ultrahom"):
                names = [node.module.partition(".")[2]] if "." in node.module \
                    else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name.partition(".")[2] for a in node.names
                         if a.name.startswith("ultrahom.")]
            else:
                continue
            for name in names:
                assert name not in engines, f"{module}.py imports {name}"
                if (SRC / f"{name}.py").exists():
                    todo.append(name)
    assert {"certs", "words", "partial_iso", "oracles", "graphs"} <= seen


def test_claim_words_are_the_four_products_unreduced():
    assert claim_word(HENSON_CLAIM, {"m": 2, "l": 3}) == \
        [("a", 2), ("b", 1), ("a", 6), ("b", -1), ("a", -2)]
    assert claim_word(HENSON_CLAIM, {"m": 0, "l": 0}) == [("b", 1), ("b", -1)]
    assert claim_word(OMEGA_CLAIM, {"m": 1}) == \
        [("a", 1), ("b", 1), ("a", 1), ("b", -1), ("a", -1)]
    assert claim_word(NKOMEGA_CLAIM, {"k": 2, "w1": "b a^-1", "w2": "a b^3"}) == \
        [("b", 1), ("a", -1), ("a", 2), ("b", -3), ("a", -1)]
    assert claim_word(N2_CLAIM, {"word": "b a b^2"}) == [("b", 1), ("a", 1), ("b", 2)]
    with pytest.raises(ValueError):
        claim_word(N2_CLAIM, {"word": "a^x"})


def test_certify_asks_h_extends_q_then_the_product_for_every_claim(monkeypatch):
    """Every engine asks h-extends-q and then product-extends-target through
    certs.certify, and certify stops an h that misses a pair of q."""
    real = certs.internal_check
    for family, n, index in (("henson", 3, 2), ("omega-kn", 3, 0), ("nkomega", 3, 0),
                             ("n2", 2, 0)):
        asked = []

        def recording(cond, clause, detail=""):
            asked.append(clause)
            real(cond, clause, detail)

        monkeypatch.setattr(certs, "internal_check", recording)
        cert = run_trial(family, n, 5, index)
        assert asked == ["h-extends-q", "product-extends-target"], family
        monkeypatch.setattr(certs, "internal_check", real)

        session = replayed(cert)
        q, p, h = (validate(session, chain_pairs(lists)) for lists in (cert.q, cert.p, cert.h))
        f = oracle_from_description(session, cert.oracle)
        assert certify(cert.claim, f, q, p, h, cert.data).h == cert.h
        dropped = q.pairs()[0]
        short = validate(session, [pair for pair in h.pairs() if pair != dropped])
        with pytest.raises(InternalCheckError, match="h-extends-q"):
            certify(cert.claim, f, q, p, short, cert.data)


def _old_nkomega_product(cert):
    """w1(h) * h^k * w2(h)^-1 built from its three factors, and evaluate(claim_word)."""
    session = GraphSession(cert.family)
    h = validate(session, chain_pairs(cert.h))
    f = oracle_from_description(session, cert.oracle)
    w1, w2, k = parse_word(cert.data["w1"]), parse_word(cert.data["w2"]), cert.data["k"]
    old = compose(evaluate(w1, h, f), power(h, k), power(evaluate(w2, h, f), -1))
    return old, evaluate(claim_word(NKOMEGA_CLAIM, cert.data), h, f), session


def test_nkomega_claim_word_realizes_the_old_product_on_the_golden_set():
    """evaluate(claim_word) equals w1(h) * h^k * w2(h)^-1 built from its three factors."""
    for n, count in ((3, 6), (4, 2)):  # test_golden.GOLDEN_SET's nkomega trials
        for index in range(count):
            cert = run_trial("nkomega", n, 1, index)
            old, product, session = _old_nkomega_product(cert)
            assert product == old
            assert old.extends(validate(session, chain_pairs(cert.p)))
    # a schema-2 record carries the engine's product pairs
    line = (Path(__file__).parent / "data" / "certs_v2.jsonl").read_text().splitlines()[3]
    cert, _, product_pairs = certs._lift(WitnessCertificate.from_json(line))
    assert cert.claim == NKOMEGA_CLAIM
    old, product, _ = _old_nkomega_product(cert)
    assert product == old
    assert old.pairs() == tuple(sorted(map(tuple, product_pairs)))


def test_brute_force_word_eval_basics():
    p = [(0, 1), (1, 2)]
    f = [(5, 6)]
    assert brute_force_word_eval("a", p, f) == p
    assert brute_force_word_eval("b", p, f) == f
    assert brute_force_word_eval("a^2", p, f) == [(0, 2)]
    assert brute_force_word_eval("e", p, f) == [(0, 0), (1, 1), (2, 2)]
    assert brute_force_word_eval("a b", p, f) == []


def test_write_read_certs(tmp_path):
    certs = [henson_trial(3, random.Random(i)) for i in range(2)]
    path = tmp_path / "certs.jsonl"
    write_certs(path, certs)
    back = read_certs(path)
    assert [c.to_json() for c in back] == [c.to_json() for c in certs]


def test_campaign_class_empty_for_exceptional_perm():
    summary = campaign("nkomega", 4, 5, seed=0,
                       index_perm=IndexPerm.from_cycles(4, [(1, 2), (3, 4)]))
    assert summary.class_empty and summary.trials == 0
    assert "class empty" in str(summary)


def test_cli_piccard_and_sigma(capsys):
    assert main(["piccard", "--n", "4", "--perm", "(1 2)(3 4)"]) == 0
    assert capsys.readouterr().out.strip() == "none"
    assert main(["piccard", "--n", "3", "--perm", "(1 2 3)"]) == 0
    assert capsys.readouterr().out.strip() != "none"
    assert main(["sigma-feasible", "--n", "2", "--counts", "0:1,1:1"]) == 0
    assert "feasible" in capsys.readouterr().out
    assert main(["sigma-feasible", "--n", "2", "--counts", "0:1"]) == 0
    assert capsys.readouterr().out.strip() == "infeasible"


def test_cli_witness_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "w.jsonl"
    assert main(["witness", "nkomega", "--n", "3", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    # tamper the file
    data = json.loads(out.read_text())
    data["p"] = [[data["p"][0][0], data["p"][0][0]]] + data["p"][1:]
    out.write_text(json.dumps(data, sort_keys=True) + "\n")
    assert main(["verify", str(out)]) == 1


def test_cli_verify_rejects_hostile_lines_and_reads_on(tmp_path, capsys):
    """Each hostile line is REJECTED on certificate-shape and the valid record after
    it is still VERIFIED: lines nested past the bound (a record one level deeper than
    any certificate, bare ``[`` runs 1000 and 200000 deep, which overflow the JSON
    decoder's recursion), an integer past the interpreter's 4300-digit limit, and a
    line that is not UTF-8.  A record at the bound, and a 4300-digit integer, parse."""
    # a schema-1 Henson record: record -> transcript -> (U, V, F, id) -> U, at the bound
    valid = (DATA / "certs_v1.jsonl").read_text().splitlines()[0]
    assert certs.MAX_DEPTH == 4 and '"transcript":[[[],[],[],0],[[0],' in valid
    doc = json.loads(valid)
    doc["transcript"][1][0] = [doc["transcript"][1][0]]
    past = json.dumps(doc, sort_keys=True)
    hostile = [
        (past.encode(), "nested 5 deep"),
        (b"[" * 1000, "nested 1000 deep"),
        (b"[" * 200000, "nested 200000 deep"),
        (b'{"schema": ' + b"7" * 4300 + b"}", "unsupported certificate schema 777"),
        (b'{"schema": ' + b"7" * 4301 + b"}", "not JSON: Exceeds the limit (4300 digits)"),
        (b'{"schema": 3, "claim": "\xff"}', "can't decode byte 0xff"),
    ]
    path = tmp_path / "hostile.jsonl"
    for line, note in hostile:
        path.write_bytes(line + b"\n" + valid.encode() + b"\n")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "certificate 1 (unparsed): REJECTED"
        assert out[1].startswith("  FAIL certificate-shape: ") and note in out[1], out[1][:120]
        assert out[2:] == [f"certificate 2 ({HENSON_CLAIM}): VERIFIED"]


def _walked_depth(text: str) -> int:
    """Deepest bracket nesting outside strings, one character at a time."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            in_string, escaped = (True, False) if escaped else (ch != '"', ch == "\\")
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


def test_depth_scan_matches_a_character_walk():
    """``_depth_past_bound`` against a character walk, on random lines of brackets,
    quotes and other characters, balanced or not, half of them with escapes."""
    rng = random.Random(19)
    for i in range(3000):
        chars = '[[]]{}""a1,' + "\\" * (i % 2)
        line = "".join(rng.choice(chars) for _ in range(rng.randint(0, 40)))
        depth = _walked_depth(line)
        assert certs._depth_past_bound(line) == (depth if depth > certs.MAX_DEPTH else None), line


def test_cli_usage_errors(tmp_path, capsys):
    """Each malformed argument exits 2 with one error line, never a traceback: also
    JSON that parses but has the wrong structure."""
    lazy = {"family": {"tag": "henson_free", "n": 3},
            "oracle": {"kind": "lazy_fresh", "pairs": []}, "transcript": []}
    states = []
    for i, state in enumerate(({**lazy, "transcript": [5]},
                               {key: lazy[key] for key in ("oracle", "transcript")},
                               {**lazy, "family": {"tag": "henson_free"}},
                               {**lazy, "oracle": {"kind": "lazy_fresh"}},
                               {**lazy, "oracle": 5})):
        path = tmp_path / f"state{i}.json"
        path.write_text(json.dumps(state))
        states.append(["oracle", "query", "--state", str(path), "--vertex", "0"])
    for argv in (*states,["piccard", "--n", "9", "--perm", "(1 2)"],
                 ["piccard", "--n", "3", "--perm", "(1 9)"],
                 ["piccard", "--n", "3", "--perm", "(0 1)"],
                 ["piccard", "--n", "3", "--perm", "(1 x)"],
                 ["verify", "/nonexistent/file.jsonl"],
                 ["iso", "validate", "--family", "nkomega", "--n", "2",
                  "--pairs", "[[0, 2], [0, 4]]"],
                 ["iso", "validate", "--pairs", "[[0,1"],
                 ["iso", "validate", "--pairs", "[[0,1,2]]"],
                 ["iso", "validate", "--pairs", "[5]"],
                 ["iso", "validate", "--pairs", '{"0": 1}'],
                 ["classify-stab", "--policy", '{"kind":"nk_policy"'],
                 ["classify-stab", "--policy", '{"kind":"nk_policy"}'],
                 ["classify-stab", "--policy", '{"kind":"frozen","pairs":[]}'],
                 ["oracle", "query", "--vertex", "0"],
                 ["oracle", "query", "--state", "/dev/null", "--vertex", "0"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_cli_iso_commands(capsys):
    s = GraphSession(GraphKind.nk_omega(2))
    pair_json = json.dumps([[s.vertex(1, 0), s.vertex(1, 1)]])
    assert main(["iso", "validate", "--family", "nkomega", "--n", "2",
                 "--pairs", pair_json]) == 0
    assert "valid" in capsys.readouterr().out
    two = json.dumps([[s.vertex(1, 1), s.vertex(1, 2)]])
    assert main(["iso", "compose", "--family", "nkomega", "--n", "2",
                 "--pairs", pair_json, "--with-pairs", two]) == 0
    assert json.loads(capsys.readouterr().out) == [[s.vertex(1, 0), s.vertex(1, 2)]]
    assert main(["iso", "components", "--family", "nkomega", "--n", "2",
                 "--pairs", pair_json]) == 0
    assert "chain" in capsys.readouterr().out
    # a chain headed past its least vertex and a cycle: printed by least vertex, so the
    # chain (least 0) comes before the cycle (least 4), though its head 10 is larger
    v = s.vertex
    mixed = json.dumps([[v(1, 5), v(1, 0)], [v(1, 0), v(1, 3)],
                        [v(1, 4), v(1, 2)], [v(1, 2), v(1, 4)]])
    assert main(["iso", "components", "--family", "nkomega", "--n", "2",
                 "--pairs", mixed]) == 0
    assert capsys.readouterr().out.splitlines() == ["chain: 10 -> 0 -> 6", "cycle: 4 -> 8"]


def test_cli_oracle_new_and_query(tmp_path, capsys):
    state = tmp_path / "oracle.json"
    assert main(["oracle", "new", "--family", "henson", "--n", "3",
                 "--out", str(state)]) == 0
    assert main(["oracle", "query", "--state", str(state), "--vertex", "0"]) == 2
    # vertex 0 does not exist yet in an empty session -- create one first
    doc = json.loads(state.read_text())
    doc["transcript"] = [[[], [], [], 0]]
    state.write_text(json.dumps(doc))
    assert main(["oracle", "query", "--state", str(state), "--vertex", "0"]) == 0
    img = int(capsys.readouterr().out.strip())
    assert img != 0
    # the schema-1 entry was read; the state is written back with (U, id) entries
    assert all(len(entry) == 2 for entry in json.loads(state.read_text())["transcript"])
    # querying again gives the cached answer
    assert main(["oracle", "query", "--state", str(state), "--vertex", "0"]) == 0
    assert int(capsys.readouterr().out.strip()) == img


def test_cli_classify_stab(capsys):
    spine = '{"kind":"nk_policy","sigma":[2,1],"band_rows":0,"band_pairs":[],"fixed_tail":[]}'
    assert main(["classify-stab", "--policy", spine]) == 0
    assert "non-stabilizing" in capsys.readouterr().out
    fixed = '{"kind":"nk_policy","sigma":[1,2],"band_rows":0,"band_pairs":[],"fixed_tail":[1,2]}'
    assert main(["classify-stab", "--policy", fixed]) == 0
    assert capsys.readouterr().out.startswith("stabilizing: witness [0, 1] ")
    # a 65-row band that is one 130-vertex orbit: the band itself is the witness
    # (vertex 2t is (1, t) and 2t + 1 is (2, t))
    band = json.dumps({"kind": "nk_policy", "sigma": [2, 1], "band_rows": 65,
                       "band_pairs": [list(range(130)) + [0]], "fixed_tail": []})
    assert main(["classify-stab", "--policy", band]) == 0
    assert capsys.readouterr().out.startswith(f"stabilizing: witness {list(range(130))} ")
    with pytest.raises(SystemExit):  # the search cap is gone with the search
        main(["classify-stab", "--policy", band, "--bound", "64"])


def test_cli_campaign_class_empty(capsys):
    assert main(["campaign", "nkomega", "--n", "4", "--perm", "(1 2)(3 4)",
                 "--trials", "5"]) == 0
    assert "class empty" in capsys.readouterr().out


def test_cli_campaign(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["campaign", "n2", "--n", "2", "--trials", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    assert "2/2" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 2


def _omega_record(**changes):
    """An omega-kn certificate as a JSON object, with some fields replaced."""
    from ultrahom.campaigns import run_trial

    data = json.loads(run_trial("omega-kn", 3, 1, 0).to_json())
    for key, value in changes.items():
        data[key] = value
    return data


def _shape_note(data):
    report = verify(WitnessCertificate.from_json(json.dumps(data)))
    assert not report.ok
    (name, ok, note), = report.failing()
    assert name == "certificate-shape"
    return note


def test_shape_rejects_missing_data_key():
    data = _omega_record()
    assert verify(WitnessCertificate.from_json(json.dumps(data))).ok
    del data["data"]["m"]
    assert "needs data m" in _shape_note(data)


def test_shape_rejects_string_exponent():
    data = _omega_record()
    data["data"]["m"] = "2"
    assert "data m" in _shape_note(data)


def test_shape_rejects_one_element_pair():
    data = _omega_record()
    data["h"][0] = data["h"][0][:1]
    assert "h must be a list of lists of at least two integer vertices" in _shape_note(data)


def test_shape_rejects_unhashable_claim():
    assert "unknown claim form" in _shape_note(_omega_record(claim=["omega_conjugation"]))


def test_shape_rejects_claim_over_wrong_family():
    data = _omega_record(claim="nkomega_words")
    data["data"].update({"k": 1, "w1": "a", "w2": "a"})
    assert "cannot be made over family" in _shape_note(data)


def test_unparseable_word_is_rejected():
    from ultrahom.campaigns import run_trial

    cert = run_trial("n2", 2, 1, 0)
    for bad, clause in ((["a"], "certificate-shape"), ("a^x", "inputs-validate"),
                        ("a^0", "inputs-validate"), ("c", "inputs-validate")):
        cert.data["word"] = bad
        (name, ok, note), = verify(cert).failing()
        assert name == clause


def test_cli_verify_rejects_non_json_line(tmp_path, capsys):
    good = _omega_record()
    path = tmp_path / "mixed.jsonl"
    path.write_text(json.dumps(good) + "\nnot json at all\n" + json.dumps({"schema": 1}) + "\n")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("certificate 1") and out[0].endswith("VERIFIED")
    assert out[1] == "certificate 2 (unparsed): REJECTED"
    assert out[2].startswith("  FAIL certificate-shape: not JSON")
    assert out[3] == "certificate 3 (unparsed): REJECTED"
    assert out[4].startswith("  FAIL certificate-shape: malformed certificate")


def _nk_policy_record(band_rows):
    """The seed-1 n K_omega (n=3) trial 0 certificate with its oracle's band_rows replaced."""
    d = json.loads(run_trial("nkomega", 3, 1, 0).to_json())
    assert d["oracle"]["kind"] == "nk_policy"
    d["oracle"]["band_rows"] = band_rows
    return WitnessCertificate.from_json(json.dumps(d))


def test_negative_band_rows_is_rejected():
    report = verify(_nk_policy_record(-1))
    assert not report.ok
    assert [name for name, ok, _ in report.clauses if not ok] == ["inputs-validate"]
    assert "band_rows" in report.failing()[0][2]


def test_large_band_rows_is_rejected_before_the_band_is_built(monkeypatch):
    cert = _nk_policy_record(10 ** 12)  # the band would hold 3 * 10^12 vertices

    def no_band(self, component, position):  # fails the test at the first band vertex
        raise AssertionError(f"vertex ({component}, {position}) built before the band check")

    monkeypatch.setattr(GraphSession, "vertex", no_band)
    report = verify(cert)
    assert not report.ok
    assert report.failing() == [("inputs-validate", False,
                                 "band pairs must biject the band onto itself")]


def test_target_with_an_edge_across_is_not_separated():
    cert = henson_trial(3, random.Random(3))
    w, U = next((w, U) for w, U in transcript_entries(cert) if U)
    tampered = WitnessCertificate.from_json(cert.to_json())
    tampered.p = [(U[0], w)]  # an edge from the domain into the range
    report = verify(tampered)
    assert ("target-separated", False, "target class violated") in report.clauses
