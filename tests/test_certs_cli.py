import json
import random
import re
from pathlib import Path

import pytest

from ultrahom.campaigns import campaign, henson_trial, write_certs, read_certs
from ultrahom.certs import (WitnessCertificate, brute_force_word_eval, verify)
from ultrahom.cli import main
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.perms import IndexPerm

SRC = Path(__file__).resolve().parent.parent / "src" / "ultrahom"


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


def test_cli_usage_errors(capsys):
    assert main(["piccard", "--n", "9", "--perm", "(1 2)"]) == 2
    assert main(["verify", "/nonexistent/file.jsonl"]) == 2
    assert main(["iso", "validate", "--family", "nkomega", "--n", "2",
                 "--pairs", "[[0, 2], [0, 4]]"]) == 2


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
    # querying again gives the cached answer
    assert main(["oracle", "query", "--state", str(state), "--vertex", "0"]) == 0
    assert int(capsys.readouterr().out.strip()) == img


def test_cli_classify_stab(capsys):
    spine = '{"kind":"nk_policy","sigma":[2,1],"band_rows":0,"band_pairs":[],"fixed_tail":[]}'
    assert main(["classify-stab", "--policy", spine]) == 0
    assert "non-stabilizing" in capsys.readouterr().out
    fixed = '{"kind":"nk_policy","sigma":[1,2],"band_rows":0,"band_pairs":[],"fixed_tail":[1,2]}'
    assert main(["classify-stab", "--policy", fixed]) == 0
    assert "stabilizing: witness" in capsys.readouterr().out


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
    assert "h must be a list of integer pairs" in _shape_note(data)


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
