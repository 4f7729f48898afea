"""Every engine grows its maps on ``IsoBuilder``; none calls ``partial_iso.extend``.

``extend`` stays as the reference ``IsoBuilder.add`` is tested against.
With both of its bindings made to raise, seeded Henson and omega K_n
trials and one wide Henson instance of the benchmark still build and
verify.
"""

import importlib
from pathlib import Path

import pytest

from ultrahom import henson, partial_iso
from ultrahom.campaigns import run_trial
from ultrahom.certs import verify

ROOT = Path(__file__).resolve().parent.parent


def _refuse(*args):
    raise AssertionError("an engine called partial_iso.extend")


@pytest.fixture
def no_extend(monkeypatch):
    monkeypatch.setattr(partial_iso, "extend", _refuse)
    monkeypatch.setattr(henson, "extend", _refuse)


@pytest.mark.parametrize("family, n", [("henson", 3), ("henson", 4),
                                       ("omega-kn", 3), ("omega-kn", 4), ("omega-kn", 5)])
def test_seed_1_trials_build_without_extend(no_extend, family, n):
    for index in range(3):
        report = verify(run_trial(family, n, 1, index))
        assert report.ok, str(report)


def test_henson_wide_instance_builds_without_extend(no_extend, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    f, q, p = workloads.henson_wide_instance(workloads.stream(1, "henson-wide", 0))
    report = verify(henson.density_witness_henson(f, q, p))
    assert report.ok, str(report)
