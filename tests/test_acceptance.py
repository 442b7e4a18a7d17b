"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with -s or in the
captured output summary); failures surface as ordinary assertions with
the failing check ids.
"""

import time

from hopfkit.coiso import galilei_subgroup, homogeneous_space
from hopfkit.hopf import builtin, verify_hopf
from hopfkit.induce import (
    intertwiner_report,
    ind_generic_report,
    jform_report,
    mirror_right_report,
    relations_report,
    unitarity_report,
)
from hopfkit.pairing import pairing_report
from hopfkit.quasiinv import (
    LAURENT,
    chi,
    coboundary_vanishing_report,
    cocycle_check,
    essential_invariance_decide,
    galilei_weight,
    nu_w_functional,
    quasi_invariance_check,
    recurrence_report,
    transform_weight,
)
SUB = galilei_subgroup()


def _ok(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def _failures(rep):
    return [c.id for c in rep.failures()]


def test_criterion_01_hopf_axiom_suite():
    t0 = time.time()
    for name in ("uq-g1", "fq-g1", "fq-j"):
        rep = verify_hopf(builtin(name), 4)
        assert rep.passed, (name, _failures(rep)[:5])
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"axiom suite took {elapsed:.1f}s"
    _ok("criterion 1: Hopf axioms at degree 4 for all built-ins",
        f"{elapsed:.1f}s")


def test_criterion_02_pairing_equivalence():
    rep = pairing_report(dual_bound=2, ell_bound=2, f_bound=2,
                         x_power_bound=3, law_degree=1)
    assert rep.passed, _failures(rep)[:5]
    closed = [c for c in rep.checks if c.id == "closed-vs-recursive"]
    assert closed and closed[0].status == "pass"
    _ok("criterion 2: recursive pairing = closed formula, zero mismatches")


def test_criterion_03_homogeneous_space():
    basis = homogeneous_space(SUB, 4, side="left")
    expected = {f"v^{k}" if k > 1 else ("v" if k else "1") for k in range(5)}
    assert {str(b) for b in basis} == expected
    fq = SUB.ambient
    pi1 = SUB.pi.apply(fq.pres.one())
    for b in basis:
        bstar = fq.apply_star(b)
        assert SUB.pi.apply(bstar) == pi1 * fq.epsilon.apply(bstar)
    _ok("criterion 3: homogeneous space = span{1..v^4}, pi(a*) = eps(a*) pi(1)")


def test_criterion_04_quasi_invariance():
    for form in ("def", "lemma"):
        rep = quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                     degree=2, window=5, form=form)
        assert rep.passed, (form, _failures(rep)[:5])
    rec = recurrence_report(8)
    assert rec.passed, _failures(rec)
    _ok("criterion 4: quasi-invariance (def and lemma forms) + coefficient recurrence")


def test_criterion_05_not_essentially_invariant():
    for window in range(1, 9):
        res = essential_invariance_decide(galilei_weight(), window)
        assert res.status == "refuted", window
        assert res.solution_dim == 0
        assert res.certificate
        # every forced-zero row pins a single coefficient
        assert all(row.count("a[") == 1 for row in res.certificate)
    _ok("criterion 5: coboundary refuted at every window <= 8, certificate attached")


def test_criterion_06_representation_relations():
    rep = relations_report(5)
    assert rep.passed, _failures(rep)[:5]
    _ok("criterion 6: defining relations hold as operator identities on |l| <= 5")


def test_criterion_07_unitarity():
    t0 = time.time()
    rep = unitarity_report(5)
    elapsed = time.time() - t0
    assert rep.passed, _failures(rep)[:5]
    assert elapsed <= 10.0, f"unitarity battery took {elapsed:.1f}s"
    _ok("criterion 7: Minkowski-form unitarity for K, K^-1, B, T, M",
        f"{elapsed:.1f}s")


def test_criterion_08_j_structure():
    rep = jform_report(5)
    assert rep.passed, _failures(rep)[:5]
    _ok("criterion 8: j^2 = id, <a,b> = (j(a), b), positive diagonal")


def test_criterion_09_equivalence_transport():
    xi = chi(1)
    phi1 = transform_weight(galilei_weight(), xi)
    h1 = nu_w_functional().conjugated_by(xi)
    for form in ("def", "lemma"):
        rep = quasi_invariance_check(h1, phi1, degree=2, window=4, form=form)
        assert rep.passed, (form, _failures(rep)[:5])
    rep = intertwiner_report(4)
    assert rep.passed, _failures(rep)[:5]
    _ok("criterion 9: transformed weight quasi-invariant; F rho_1 = rho_2 F on |l| <= 4")


def test_criterion_10_generic_induction():
    rep = ind_generic_report(SUB, 3)
    assert rep.passed, _failures(rep)[:5]
    mirror = mirror_right_report(SUB, 3)
    assert mirror.passed, _failures(mirror)[:5]
    _ok("criterion 10: ind(trivial) = homogeneous space; form membership; leg identities")


def test_criterion_11_cohomology():
    samples = [chi(1), chi(-2), chi(3),
               LAURENT.one() + chi(1)]
    rep = coboundary_vanishing_report(samples, degree=1)
    assert rep.passed, _failures(rep)[:5]
    gen_pairs = cocycle_check(galilei_weight(), 1)
    assert gen_pairs.passed, _failures(gen_pairs)[:5]
    deg3 = cocycle_check(galilei_weight(), 3)
    assert deg3.passed, _failures(deg3)[:5]
    _ok("criterion 11: d1 d0 = 0 on sampled xi; d1(weight) = 0 up to degree 3")
