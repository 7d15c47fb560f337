"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Every assertion is an exact comparison of canonical forms (polynomials,
rational functions, rationals, integers).  Each test prints one PASS/FAIL
line; run with `pytest -s tests/test_acceptance.py` to see them.
"""

import time
from fractions import Fraction

import networkx as nx
import pytest

from qbip import exactla, qmatrices, treecore, verify
from qbip.exactla import KIND_L, KIND_R, Matrix
from qbip.polyalg import ONE, Poly, RatFun, ZERO
from qbip.qmatrices import (
    bdq_det,
    bdq_recursive,
    build_E,
    build_qB,
    build_qL,
    inverse_E_formula,
    inverse_qB_formula,
    qtau,
)

# isomorphism-class counts of nonsingular trees, fixed beforehand by the
# independent oracles (Prufer sequences for 2p <= 8, the networkx generator
# plus brute-force matching search for 2p <= 12)
FROZEN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 49}


def report(criterion: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def all_trees(max_p):
    for p in range(1, max_p + 1):
        for mt in treecore.enumerate_nonsingular(p):
            yield mt


def test_criterion_1_exhaustive_identity_suite():
    """Every symbolic check on every nonsingular tree with 2p <= 12."""
    failures = []
    counts = {}
    for p in range(1, 7):
        trees = treecore.enumerate_nonsingular(p)
        counts[p] = len(trees)
        for mt in trees:
            rep = verify.run_suite(mt)
            if not rep.passed:
                failures.append((p, rep.tree_code.hex(), rep.first_failure()))
    ok = not failures and counts == FROZEN_COUNTS
    if failures:
        print("first failure:", failures[0])
    report("1 exhaustive-identity-suite (2p<=12)", ok)


def test_criterion_2_oracle_equivalence():
    """Formula inverses equal the Gauss-Jordan oracle entrywise, 2p <= 10."""
    mismatches = 0
    for mt in all_trees(5):
        if inverse_E_formula(mt) != exactla.inverse_gauss(build_E(mt)):
            mismatches += 1
        if inverse_qB_formula(mt) != exactla.inverse_gauss(build_qB(mt)):
            mismatches += 1
    report("2 oracle-equivalence (2p<=10)", mismatches == 0)


def test_criterion_3_attachment_lemmas():
    """Block updates at every (tree, vertex) with 2p <= 12, and the block
    decomposition at every applicable split vertex."""
    ok = True
    for mt in all_trees(6):
        td = qmatrices.TreeData(mt)  # both checks share its grown and split trees
        res = verify.check_attach_update(td)
        if not res.passed:
            ok = False
            print("attach update failed:", res.witness)
            break
        res = verify.check_block_decomposition(td)
        if not res.passed:
            ok = False
            print("block decomposition failed:", res.witness)
            break
    report("3 attachment-lemmas (2p<=12)", ok)


def test_criterion_4_q1_specialization():
    """q=1 Laplacian properties and the rank-one inverse, 2p <= 12."""
    ok = all(
        verify.check_q1_properties(mt).passed for mt in all_trees(6)
    )
    report("4 q1-specialization (2p<=12)", ok)


def test_criterion_5_full_matrix_background():
    """Both full-matrix determinant formulas on every tree with n <= 12."""
    ok, trees = True, 0
    for n in range(2, 13):
        for g in nx.nonisomorphic_trees(n):
            tree = treecore.Tree([tuple(sorted(e)) for e in g.edges()])
            trees += 1
            if not verify.check_full_dq_ed(tree).passed:
                ok = False
    assert trees == 986  # OEIS A000055, n = 2..12; 200 of them with n <= 10
    report("5 full-matrix-determinants (n<=12)", ok)


def test_criterion_6_conjecture_evidence():
    """Diagonalizable with nonnegative real spectrum at q=1, 2p <= 12."""
    counterexamples = []
    for mt in all_trees(6):
        lap = qmatrices.eval_matrix(build_qL(mt), Fraction(1))
        ints = Matrix(
            ((int(e) for e in row) for row in lap.entries), KIND_R, KIND_L
        )
        ev = exactla.conjecture_evidence(ints)
        if not (ev["diagonalizable"] and ev["all_eigen_nonneg"]):
            counterexamples.append((mt.to_json(), ev))
    if counterexamples:
        print("counterexample:", counterexamples[0])
    report("6 conjecture-evidence (2p<=12)", not counterexamples)


def test_criterion_7_golden_unit_values(p2, p4_attach, p6_attach):
    """Hand-computed values, hard-coded."""
    qL = build_qL(p4_attach)
    ok = qL.entries == (
        (ONE, Poly((-1,))),
        (Poly((0, 0, -1)), ONE),
    )
    ok = ok and bdq_det(p4_attach) == ONE
    ok = ok and bdq_det(p6_attach) == Poly((2, 1))
    ok = ok and bdq_recursive(p6_attach) == Poly((2, 1))
    tau_l, tau_r = qtau(p4_attach)
    ok = ok and tuple(tau_r) == (ZERO, ONE) and tuple(tau_l) == (ONE, ZERO)
    den = Poly((0, 1, 0, -1))  # q(1-q^2)
    scaled = qL.map(lambda e: RatFun(e, den))
    eye = Matrix.identity(2, KIND_L, KIND_L, one=RatFun(ONE), zero=RatFun(ZERO))
    ok = ok and exactla.mat_mul(build_E(p4_attach), scaled) == eye
    report("7 golden-unit-values", ok)


def test_criterion_8_scale_check():
    """p = 100, seeds 1..5, q in {2, 1/2, 3, -2, 5/3}, exact, under 60 s."""
    points = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2),
              Fraction(5, 3))
    start = time.time()
    reports = verify.run_random(p=100, trials=5, seed=1, q_points=points)
    elapsed = time.time() - start
    ok = all(r.passed for r in reports) and elapsed < 60.0
    print(f"scale check: {verify.summary_line(reports)} in {elapsed:.1f}s")
    report("8 scale-check (p=100, 5 seeds, 5 points, <60s)", ok)
