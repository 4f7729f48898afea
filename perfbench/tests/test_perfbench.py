"""Checks of the benchmark itself: generator, tracer, failure accounting, seeds, CLI."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run

assert run.load_package() is not None
from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402
from ultrahom import campaigns, certs, henson, partial_iso  # noqa: E402
from ultrahom.errors import HypothesisError  # noqa: E402


def small_workloads():
    """All four workloads with pools small enough for a unit test."""
    return [workloads.NKOmegaN3(pool_size=2), workloads.HensonWide(pool_size=1),
            workloads.SmallMaps(pool_size=6),
            workloads.VerifyMix(composition=(("henson-wide", 1), ("henson", 2),
                                             ("nkomega", 1), ("omega-kn", 3), ("n2", 3)))]


def phase_of(workload, seed: int) -> workloads.Phase:
    pool = workload.setup(seed)
    return workloads.timed_phase(workload, pool, None, count=len(pool.entries))


# -- the Henson wide-target generator ----------------------------------------------

def test_henson_wide_target_is_separated_and_kn_free():
    for index in range(3):
        f, q, p = workloads.henson_wide_instance(workloads.stream(7, "test", index))
        s = f.session
        dom, ran = p.iso.dom(), p.iso.ran()
        assert len(p.iso) == workloads.HENSON_WIDE_WIDTH
        assert not dom & ran
        assert not [(x, y) for x in dom for y in ran if s.adjacent(x, y)]
        assert not (q.dom() | q.ran()) & (dom | ran)
        assert s.kn_free_check(s.realized(), s.kind.n)
        assert s.kn_free_check(dom, s.kind.n) and s.kn_free_check(ran, s.kind.n)


def test_henson_wide_build_keeps_session_kn_free():
    f, q, p = workloads.henson_wide_instance(workloads.stream(3, "test", 0), width=4)
    cert = henson.density_witness_henson(f, q, p)
    s = f.session
    assert certs.verify(cert).ok
    assert s.kn_free_check(s.realized(), s.kind.n)


def test_henson_wide_same_seed_same_certificate_bytes():
    texts = []
    for _ in range(2):
        f, q, p = workloads.henson_wide_instance(workloads.stream(5, "test", 0), width=6)
        texts.append(henson.density_witness_henson(f, q, p).to_json())
    assert texts[0] == texts[1]


# -- the outside-in tracer --------------------------------------------------------------

def module_bindings():
    return {(name, key): value for name, m in sys.modules.items()
            if name.startswith("ultrahom") and m is not None
            for key, value in vars(m).items() if callable(value)}


def class_attrs():
    classes = [certs.WitnessCertificate, partial_iso.ComponentView]
    classes += [cls for m in (sys.modules["ultrahom.graphs"], sys.modules["ultrahom.oracles"],
                              sys.modules["ultrahom.words"])
                for cls in vars(m).values() if isinstance(cls, type)]
    return {(cls, k): v for cls in classes for k, v in vars(cls).items()}


def test_traced_and_untraced_runs_emit_identical_certificates():
    before_modules, before_classes = module_bindings(), class_attrs()
    for workload in small_workloads():
        plain = phase_of(workload, 11)
        t = tracing.Tracer()
        with t:
            traced = phase_of(workload, 11)
        assert traced.texts == plain.texts and None not in plain.texts
        assert not plain.failures and not traced.failures
        assert len(t.log_name) > 0
    after_modules, after_classes = module_bindings(), class_attrs()
    assert all(after_modules[k] is v for k, v in before_modules.items())
    assert all(after_classes[k] is v for k, v in before_classes.items())


def test_tracer_spans_nest_and_report_every_layer_metric():
    t = tracing.Tracer()
    workload = workloads.NKOmegaN3(pool_size=1)
    with t:
        phase = phase_of(workload, 2)
    assert not phase.failures
    values = t.metrics(1.0)
    assert list(values) == list(tracing.layer_metric_units())
    assert values["nkomega.density_witness_nkomega.calls"] == 1
    assert values["nkomega.extend_word_domain.calls"] > 0
    assert values["oracles.queries.calls"] > 0
    # self time never exceeds the span's own duration; parents start first
    for sid, parent in enumerate(t.log_parent):
        assert t.log_end[sid] >= t.log_start[sid]
        if parent >= 0:
            assert parent < sid and t.log_start[parent] <= t.log_start[sid]
            assert t.log_end[sid] <= t.log_end[parent]
    assert all(v >= 0 for k, v in values.items() if k.endswith(".self_s"))


def test_tracer_sees_engine_imports_and_restores_them():
    original = partial_iso.extend
    t = tracing.Tracer()
    with t:
        assert henson.extend is not original and partial_iso.extend is henson.extend
        assert sys.modules["ultrahom.oracles"].extend is henson.extend
    assert henson.extend is original and partial_iso.extend is original


# -- failure accounting ---------------------------------------------------------------

def tampered(line: str) -> str:
    """The certificate with h's first pair sent to the image of its second pair."""
    d = json.loads(line)
    d["h"][0][1] = d["h"][1][1]
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def test_rejected_certificate_counts_as_failed_unit():
    cert = campaigns.run_trial("omega-kn", 3, 1, 0)
    good = cert.to_json()
    bad = tampered(good)
    assert not certs.verify(certs.WitnessCertificate.from_json(bad)).ok
    pool = workloads.Pool([good, bad, good])
    phase = workloads.timed_phase(workloads.VerifyMix(), pool, None, count=3)
    assert phase.attempted == 3 and len(phase.failures) == 1
    assert "REJECTED" in phase.failures[0]


def test_engine_error_counts_as_failed_unit_not_dropped():
    workload = workloads.HensonWide(pool_size=1)
    good = workload.setup(1).entries[0]
    f, q, p = workloads.henson_wide_instance(workloads.stream(1, "test", 1), width=2)
    x = sorted(q.dom())[0]
    cyclic = partial_iso.from_pairs(f.session, [(x, x)])
    with pytest.raises(HypothesisError):
        henson.density_witness_henson(f, cyclic, p)
    pool = workloads.Pool([good, (f, cyclic, p)])
    phase = workloads.timed_phase(workload, pool, None, count=2)
    assert phase.attempted == 2 and len(phase.failures) == 1
    assert "HypothesisError" in phase.failures[0]
    _, lines = run.end_to_end([0.1], ([], []), phase)
    assert any(line.startswith("fail_share") and "1/2 units" in line for line in lines)


# -- seed plumbing ---------------------------------------------------------------------

def test_second_seed_changes_inputs_and_nothing_fails():
    for workload in small_workloads():
        texts = {}
        for seed in (1, 2):
            phase = phase_of(workload, seed)
            assert not phase.failures, (workload.name, seed, phase.failures)
            texts[seed] = phase.texts
        assert texts[1] != texts[2], workload.name


# -- statistics and the command line ----------------------------------------------

def test_tail_is_the_eleventh_largest_sample_up_to_p99():
    value, pct, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)
    assert run.tail([float(v) for v in range(1, 5001)]) == (4950.0, 99.0, 50)


def test_run_without_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (run.ROOT / "BENCHMARK.json").exists():
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-maps",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
