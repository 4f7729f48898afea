"""One triggering input for each engine precondition and verifier shape note that
no other test reaches: each ``HypothesisError`` names its reason, and each malformed
certificate is ``REJECTED`` on ``certificate-shape`` with its note."""

import dataclasses

import pytest

from ultrahom.campaigns import run_trial
from ultrahom.certs import verify
from ultrahom.errors import HypothesisError
from ultrahom.graphs import GraphKind, GraphSession
from ultrahom.nkomega import (AFSigmaContext, IndexFixingIso, _class_extend, amalgamate,
                              build_base_word, build_covering_word, check_admissible,
                              density_witness_n2, density_witness_nkomega, extend_word_domain)
from ultrahom.omega_kn import WholeComponentIso, density_witness_omega
from ultrahom.oracles import NKOracle, OmegaShiftOracle
from ultrahom.partial_iso import FreshWindow, IsoBuilder, from_pairs
from ultrahom.perms import IndexPerm
from ultrahom.words import reduce_word

S3 = GraphSession(GraphKind.nk_omega(3))
v = S3.vertex
F3 = NKOracle(S3, IndexPerm.from_cycles(3, [(1, 2, 3)]))
# index permutation (1 2)(3): with f's (1 2 3) it generates S_3
Q3 = [(v(1, 0), v(2, 0)), (v(3, 0), v(3, 1)), (v(2, 1), v(1, 1))]
CYCLE = [(v(1, 5), v(2, 5)), (v(2, 5), v(1, 5))]    # a 2-cycle across components 1, 2
CHAINS = [(v(1, 2), v(2, 2)), (v(1, 3), v(2, 3))]   # two spare chains from 1 to 2


def _ctx(*sigma):
    return AFSigmaContext(F3, sigma or (v(1, 0), v(3, 0)))


def _builder(*extra):
    return IsoBuilder(from_pairs(S3, Q3 + list(extra)))


def _target():
    return IndexFixingIso(from_pairs(S3, [(v(1, 20), v(1, 21))]))


S2 = GraphSession(GraphKind.nk_omega(2))
u = S2.vertex
# index permutation (1 2); sigma is the head of the first chain
Q2 = [(u(1, 0), u(2, 0)), (u(2, 1), u(1, 1))]


def _ctx2(fixed=(1,), sigma=(u(1, 0),)):
    return AFSigmaContext(NKOracle(S2, IndexPerm.identity(2), fixed_tail=fixed), sigma)


def _case_sigma_in_support():
    check_admissible(_ctx(v(1, 0), v(3, 5)), from_pairs(S3, Q3))


def _case_sigma_at_most_one():
    check_admissible(_ctx(v(1, 0), v(2, 0), v(3, 0)), from_pairs(S3, Q3))


def _case_sigma_complete_one():
    check_admissible(_ctx(), from_pairs(S3, Q3 + CYCLE))


def _case_index_perm_total():
    _class_extend(_ctx(), IsoBuilder(from_pairs(S3, Q3[:1])), v(2, 7), v(3, 7))


def _case_x_ne_y():
    _class_extend(_ctx(), _builder(), v(1, 7), v(1, 7))


def _case_incomplete_components():
    amalgamate(_ctx(), _builder(*CYCLE), v(1, 5), v(1, 0))


def _case_x_ends_chain():
    amalgamate(_ctx(), _builder(*CHAINS), v(1, 2), v(1, 3))


def _case_y_heads_chain():
    amalgamate(_ctx(), _builder(*CHAINS), v(2, 2), v(2, 3))


def _case_ran_avoids_delta():
    build_base_word(_ctx(), _builder(), [v(1, 9)], [v(2, 0)], FreshWindow(F3))


def _case_fix_finite():
    ctx = _ctx2()
    build_base_word(ctx, IsoBuilder(from_pairs(S2, Q2)), [u(1, 9)], [], FreshWindow(ctx.f))


def _word_domain(w, x):
    """extend_word_domain on a map with identity index permutation, whose entry word
    condition holds for w, with target point x and nothing covered yet."""
    f = NKOracle(S2, IndexPerm.identity(2))
    b = IsoBuilder(from_pairs(S2, [(u(1, 0), u(1, 1)), (u(2, 0), u(2, 1))]))
    extend_word_domain(AFSigmaContext(f, ()), b, [x], (), (), (), w, x, FreshWindow(f))


def _case_word_shape():
    _word_domain(reduce_word([("a", -1)]), u(1, 5))


def _case_gamma_phi_in_dom():
    _word_domain(reduce_word([("a", 1)]), u(1, 5))


def _case_gamma_delta_disjoint():
    build_covering_word(_ctx(), from_pairs(S3, Q3), [v(1, 5)], [v(1, 5)])


def _case_sigma_in_dom_nkomega():
    # v(2, 0) ends the chain from v(1, 0): in the support, not the domain
    density_witness_nkomega(_ctx(v(2, 0), v(3, 0)), from_pairs(S3, Q3), _target())


def _case_sigma_in_dom_n2():
    target = IndexFixingIso(from_pairs(S2, [(u(1, 20), u(1, 21))]))
    density_witness_n2(_ctx2(sigma=(u(2, 0),)), from_pairs(S2, Q2), target)


def _case_non_stabilizing_n2():
    # both tails fixed: one fixed point per component is a finite stabilized set
    target = IndexFixingIso(from_pairs(S2, [(u(1, 20), u(1, 21))]))
    density_witness_n2(_ctx2(fixed=(1, 2)), from_pairs(S2, Q2), target)


def _case_class_membership():
    s = GraphSession(GraphKind.omega_kn(2))
    w = s.vertex
    # components 0 and 1 swapped: two cycles, one representative each, and an index cycle
    q = from_pairs(s, [(w(0, 0), w(1, 0)), (w(0, 1), w(1, 1)),
                       (w(1, 0), w(0, 0)), (w(1, 1), w(0, 1))])
    p = WholeComponentIso(from_pairs(s, [(w(5, 0), w(6, 0)), (w(5, 1), w(6, 1))]))
    density_witness_omega(OmegaShiftOracle(s, 1), q, p, [w(0, 0), w(0, 1)])


@pytest.mark.parametrize("reason, case", [
    ("sigma-in-support", _case_sigma_in_support),
    ("sigma-at-most-one", _case_sigma_at_most_one),
    ("sigma-complete-one", _case_sigma_complete_one),
    ("index-perm-total", _case_index_perm_total),
    ("x-ne-y", _case_x_ne_y),
    ("incomplete-components", _case_incomplete_components),
    ("x-ends-chain", _case_x_ends_chain),
    ("y-heads-chain", _case_y_heads_chain),
    ("ran-avoids-delta", _case_ran_avoids_delta),
    ("fix-finite", _case_fix_finite),
    ("word-shape", _case_word_shape),
    ("gamma-phi-in-dom", _case_gamma_phi_in_dom),
    ("gamma-delta-disjoint", _case_gamma_delta_disjoint),
    ("sigma-in-dom", _case_sigma_in_dom_nkomega),
    ("sigma-in-dom", _case_sigma_in_dom_n2),
    ("non-stabilizing", _case_non_stabilizing_n2),
    ("class-membership", _case_class_membership),
])
def test_every_engine_precondition_is_raised(reason, case):
    with pytest.raises(HypothesisError) as err:
        case()
    assert err.value.clause == reason


def _omega_cert(**changes):
    return dataclasses.replace(run_trial("omega-kn", 3, 1, 0), **changes)


def _with_data(**data):
    cert = run_trial("omega-kn", 3, 1, 0)
    return dataclasses.replace(cert, data={**cert.data, **data})


@pytest.mark.parametrize("cert, note", [
    (lambda: _omega_cert(schema=99), "unsupported schema 99"),
    (lambda: _omega_cert(family={"tag": "omega_kn", "n": 3}), "family is not a graph kind"),
    (lambda: _omega_cert(data=[]), "data must be an object"),
    (lambda: _with_data(sigma="0"), "data sigma has the wrong type"),
    # the false branches of the pair check: not a list, a non-integer, not a pair
    (lambda: _with_data(product_pairs="0"), "data product_pairs has the wrong type"),
    (lambda: _with_data(product_pairs=[[0, "1"]]), "data product_pairs has the wrong type"),
    (lambda: _with_data(product_pairs=[[0, 1, 2]]), "data product_pairs has the wrong type"),
    # the false branch of the vertex-list check on a whole field
    (lambda: _omega_cert(q=0), "q must be a list of lists of at least two integer vertices"),
])
def test_every_shape_note_rejects_on_certificate_shape(cert, note):
    assert verify(run_trial("omega-kn", 3, 1, 0)).ok
    report = verify(cert())
    assert not report.ok
    assert report.failing() == [("certificate-shape", False, note)]
