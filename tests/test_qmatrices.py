from fractions import Fraction
from itertools import chain

import pytest

from oracles import PathKind, classify_path, det_cofactor, path_diff, path_mu, path_tau
from qbip import exactla, treecore
from qbip.exactla import KIND_L, KIND_R, Matrix, Vector, det_bareiss, mat_mul
from qbip.polyalg import ONE, Poly, PoleAtPoint, RatFun, ZERO, Q
from qbip.qmatrices import (
    TreeData,
    bdq_det,
    bdq_recursive,
    build_E,
    build_full_eD,
    build_full_qD,
    build_qB,
    build_qL,
    eval_matrix,
    eval_vector,
    inverse_B_q1,
    inverse_E_formula,
    inverse_qB_formula,
    is_corona,
    laplacian,
    qsigned_degree_vector,
    qtau,
)

P = Poly


def entries(m):
    return tuple(tuple(row) for row in m.entries)


# -- distance-type builders ----------------------------------------------------


def test_qB_p2(p2):
    m = build_qB(p2)
    assert entries(m) == ((ONE,),)
    assert (m.row_kind, m.col_kind) == (KIND_L, KIND_R)


def test_qB_p4_path(p4_path):
    assert entries(build_qB(p4_path)) == (
        (ONE, P((1, 1, 1))),
        (ONE, ONE),
    )


def test_qB_at_one_is_plain_distance_matrix(p4_path):
    dist = treecore.distances(p4_path.tree)
    got = eval_matrix(build_qB(p4_path), 1)
    for i in range(2):
        for j in range(2):
            assert got[i, j] == dist[p4_path.l_vertex(i)][p4_path.r_vertex(j)]


def test_E_p2(p2):
    assert entries(build_E(p2)) == ((Q,),)


def test_E_p4_path(p4_path):
    q3 = P((0, 0, 0, 1))
    assert entries(build_E(p4_path)) == ((Q, q3), (Q, Q))


def test_E_at_one_is_all_ones():
    for p in (1, 2, 3):
        for mt in treecore.enumerate_nonsingular(p):
            got = eval_matrix(build_E(mt), 1)
            assert all(e == 1 for row in got.entries for e in row)


# -- the q-Laplacian -------------------------------------------------------------


def test_qL_p2(p2):
    assert entries(build_qL(p2)) == ((P((1, 0, -1)),),)


def test_qL_p4_attach_golden(p4_attach):
    m = build_qL(p4_attach)
    assert entries(m) == (
        (ONE, P((-1,))),
        (P((0, 0, -1)), ONE),
    )
    assert (m.row_kind, m.col_kind) == (KIND_R, KIND_L)


def test_qL_p4_path_is_pair_permutation_of_golden(p4_path):
    assert entries(build_qL(p4_path)) == (
        (ONE, P((0, 0, -1))),
        (P((-1,)), ONE),
    )


def test_qL_at_one_is_bipartite_laplacian(p4_attach):
    got = eval_matrix(build_qL(p4_attach), 1)
    assert entries(got) == ((1, -1), (-1, 1))


# -- full vertex-indexed matrices ---------------------------------------------------


SIGN = {PathKind.ODD_ALTERNATING: 1, PathKind.EVEN_ALTERNATING: -1,
        PathKind.NOT_ALTERNATING: 0}


def test_laplacian_data_matches_the_path_walk_oracle():
    # S and A_RL entry by entry from classify_path's walk along each r-l path,
    # and mu, tau and diff at every vertex from the oracle's walks; the rows
    # and tau_r read at two points are build_qL's and the oracle's values
    for p in range(1, 7):
        for mt in treecore.enumerate_nonsingular(p):
            lap, td = laplacian(mt.tree.adj, mt.pairs), TreeData(mt)
            assert lap.deg_r == [mt.tree.degree(r) for r in mt.r_vertices]
            assert lap.deg_l == [mt.tree.degree(l) for l in mt.l_vertices]
            for i, r in enumerate(mt.r_vertices):
                for j, l in enumerate(mt.l_vertices):
                    path = classify_path(mt, r, l)
                    assert lap.sign[i][j] == SIGN[path.kind]
                    assert (j in lap.adj[i]) == path.adjacent
            tau_l, tau_r = qtau(mt)
            for v in range(mt.tree.n):
                assert list(qsigned_degree_vector(mt, v)) == path_mu(mt, v)
                tau = tau_l if mt.side_of[v] == "L" else tau_r
                assert tau[mt.index_of[v]] == path_tau(mt, v)
                assert td.diff(v) == path_diff(mt, v)
            qL = build_qL(mt)
            for x in (2**12, 3**5):
                def value(coeffs):
                    return sum(c * x**k for k, c in enumerate(coeffs))
                assert lap.rows(value) == [[e.eval_at(x) for e in row] for row in qL.entries]
                assert lap.tau("R", value) == [path_tau(mt, r).eval_at(x) for r in mt.r_vertices]


def test_qD_p3():
    t = treecore.Tree([[0, 1], [1, 2]])
    m = build_full_qD(treecore.distances(t))
    assert entries(m) == (
        (ZERO, ONE, P((1, 1))),
        (ONE, ZERO, ONE),
        (P((1, 1)), ONE, ZERO),
    )
    assert det_bareiss(m) == P((2, 2))


def test_eD_p2():
    t = treecore.Tree([[0, 1]])
    m = build_full_eD(treecore.distances(t))
    assert entries(m) == ((ONE, Q), (Q, ONE))
    assert det_bareiss(m) == P((1, 0, -1))


def test_eD_diagonal_is_ones():
    t = treecore.Tree([[0, 1], [1, 2], [1, 3]])
    m = build_full_eD(treecore.distances(t))
    assert all(m[i, i] == ONE for i in range(4))


def test_full_builders_take_unmatched_trees():
    star = treecore.distances(treecore.Tree([[0, 1], [0, 2], [0, 3]]))
    assert det_bareiss(build_full_qD(star)) == det_cofactor(
        [list(r) for r in build_full_qD(star).entries]
    )


# -- signed degree vectors ------------------------------------------------------------


def test_mu_p2(p2):
    mu = qsigned_degree_vector(p2, p2.l_vertex(0))
    assert tuple(mu) == (ONE,)
    assert mu.kind == KIND_R


def test_mu_p4_attach_at_r2(p4_attach):
    mu = qsigned_degree_vector(p4_attach, p4_attach.r_vertex(1))
    assert tuple(mu) == (ZERO, ONE)
    assert mu.kind == KIND_L


def test_mu_at_one_is_signed_degrees():
    for p in (1, 2, 3, 4):
        for mt in treecore.enumerate_nonsingular(p):
            for v in range(mt.tree.n):
                mu = qsigned_degree_vector(mt, v)
                opposite = (
                    mt.r_vertices if mt.side_of[v] == "L" else mt.l_vertices
                )
                reach = treecore.alternating_reach(mt.tree.adj, mt.partner, v)
                for w, e in zip(opposite, mu):
                    d = mt.tree.degree(w)
                    want = (
                        0 if w not in reach else (d if reach[w] % 2 else -d)
                    )
                    assert e.eval_at(1) == want


# -- tau ---------------------------------------------------------------------------------


def test_tau_p2(p2):
    tau_l, tau_r = qtau(p2)
    assert tuple(tau_l) == (ONE,)
    assert tuple(tau_r) == (ONE,)


def test_tau_p4_attach_golden(p4_attach):
    tau_l, tau_r = qtau(p4_attach)
    assert tuple(tau_r) == (ZERO, ONE)
    assert tuple(tau_l) == (ONE, ZERO)


def test_tau_at_one_matches_plain_formula():
    for p in (1, 2, 3, 4):
        for mt in treecore.enumerate_nonsingular(p):
            tau_l, tau_r = qtau(mt)
            for v in range(mt.tree.n):
                d = mt.tree.degree(v)
                f = treecore.diff(mt.tree.adj, mt.partner, v)
                tau = tau_l if mt.side_of[v] == "L" else tau_r
                assert tau[mt.index_of[v]].eval_at(1) == 1 - d * (1 + f)


def test_tau_sums_agree():
    for p in (1, 2, 3, 4):
        for mt in treecore.enumerate_nonsingular(p):
            tau_l, tau_r = qtau(mt)
            assert tau_l.sum() == tau_r.sum()


# -- the distance index --------------------------------------------------------------------


def test_bdq_p2(p2):
    assert bdq_det(p2) == ONE
    assert bdq_recursive(p2) == ONE


def test_bdq_p4(p4_attach):
    assert det_bareiss(build_qB(p4_attach)) == P((0, -1, -1))
    assert bdq_det(p4_attach) == ONE
    assert bdq_recursive(p4_attach) == ONE


def test_bdq_p6(p6_attach):
    assert bdq_det(p6_attach) == P((2, 1))
    assert bdq_recursive(p6_attach) == P((2, 1))


def test_bdq_routes_agree_everywhere():
    for p in (1, 2, 3, 4):
        for mt in treecore.enumerate_nonsingular(p):
            assert bdq_det(mt) == bdq_recursive(mt)


def test_bdq_recursive_peels_a_copy():
    # the peel empties lists of its own copy: the tree's lists and partner
    # table are left as they were, so a second call peels the same tree
    for mt in (*treecore.enumerate_nonsingular(4), treecore.random_nonsingular(30, 5)):
        adj, partner = [list(row) for row in mt.tree.adj], list(mt.partner)
        first = bdq_recursive(mt)
        assert [list(row) for row in mt.tree.adj] == adj and list(mt.partner) == partner
        assert bdq_recursive(mt) == first


# -- closed-form inverses --------------------------------------------------------------------


def test_inverse_E_p2(p2):
    inv = inverse_E_formula(p2)
    assert entries(inv) == ((RatFun(ONE, Q),),)


def test_inverse_E_p4_product(p4_attach):
    E = build_E(p4_attach)
    inv = inverse_E_formula(p4_attach)
    eye = Matrix.identity(2, KIND_L, KIND_L, one=RatFun(ONE), zero=RatFun(ZERO))
    assert mat_mul(E, inv) == eye


def test_inverse_qB_p2(p2):
    inv = inverse_qB_formula(p2)
    assert entries(inv) == ((RatFun(ONE),),)


def test_inverse_qB_p4_golden(p4_attach):
    den = P((0, 1, 1))  # q(1+q)
    want = (
        (RatFun(P((-1,)), den), RatFun(ONE, den)),
        (RatFun(P((1, 1, 1)), den), RatFun(P((-1,)), den)),
    )
    assert entries(inverse_qB_formula(p4_attach)) == want


def test_inverse_qB_matches_oracle_small():
    for p in (1, 2, 3):
        for mt in treecore.enumerate_nonsingular(p):
            assert inverse_qB_formula(mt) == exactla.inverse_gauss(build_qB(mt))


def test_inverse_E_formula_constructs_one_ratfun_per_distinct_qL_entry(ratfun_inits):
    calls = ratfun_inits
    for mt in treecore.enumerate_nonsingular(5):
        qL = build_qL(mt)
        calls.clear()
        inverse_E_formula(mt)
        assert 0 < len(calls) <= len(set(chain.from_iterable(qL.entries)))


def test_inverse_qB_formula_constructs_one_ratfun_per_distinct_term_and_sum(ratfun_inits):
    # one per distinct qL entry, one per distinct tau_r tau_l^t product, one
    # per distinct (qL entry, product) cell for its sum
    calls = ratfun_inits
    for mt in treecore.enumerate_nonsingular(5):
        qL, (tau_l, tau_r) = build_qL(mt), qtau(mt)
        products = exactla.outer(tau_r, tau_l)
        cells = set(zip(chain.from_iterable(qL.entries), chain.from_iterable(products.entries)))
        calls.clear()
        inverse_qB_formula(mt)
        distinct_qL, distinct_products = {e for e, _ in cells}, {t for _, t in cells}
        assert 0 < len(calls) <= len(distinct_qL) + len(distinct_products) + len(cells)


def test_inverse_B_q1_p2(p2):
    assert entries(inverse_B_q1(p2)) == ((Fraction(1),),)


def test_inverse_B_q1_p4_golden(p4_attach):
    assert entries(inverse_B_q1(p4_attach)) == (
        (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 2)),
    )


def test_inverse_B_q1_is_specialized_symbolic_inverse():
    for p in (1, 2, 3, 4):
        for mt in treecore.enumerate_nonsingular(p):
            sym = inverse_qB_formula(mt)
            assert entries(eval_matrix(sym, 1)) == entries(inverse_B_q1(mt))


# -- evaluation ---------------------------------------------------------------------------------


def test_eval_qB_p4_path_at_one(p4_path):
    got = eval_matrix(build_qB(p4_path), 1)
    assert entries(got) == ((1, 3), (1, 1))


def test_eval_inverse_E_pole(p2, p4_attach):
    inv = inverse_E_formula(p4_attach)
    with pytest.raises(PoleAtPoint) as err:
        eval_matrix(inv, 1)
    assert "(0, 0)" in str(err.value)
    # p=1 is the degenerate case: the canonical entry is 1/q, so the
    # (1-q^2) factor cancels and q=1 is not a pole there
    assert entries(eval_matrix(inverse_E_formula(p2), 1)) == ((Fraction(1),),)


def test_eval_vector(p4_attach):
    _, tau_r = qtau(p4_attach)
    assert tuple(eval_vector(tau_r, Fraction(1, 2))) == (0, 1)


def test_eval_rejects_an_inexact_point(p4_attach):
    # a float would be read at its binary value, a string parsed; bool is no point
    _, tau_r = qtau(p4_attach)
    for x in (0.5, "1/2", True):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            eval_matrix(build_qB(p4_attach), x)
        with pytest.raises(TypeError, match="an int or a Fraction"):
            eval_vector(tau_r, x)


def test_qL_at_one_is_the_integer_rows_of_coefficient_sums():
    # every tree that `conjecture --upto 16` reads, at the int 1, at Fraction(1)
    # and as the tree's TreeData.qL1
    trees = list(treecore.enumerate_upto(16))
    assert len(trees) == 954
    for mt in trees:
        qL, want = build_qL(mt), laplacian(mt.tree.adj, mt.pairs).rows(sum)
        for got in (eval_matrix(qL, 1), eval_matrix(qL, Fraction(1)), TreeData(mt).qL1):
            assert all(type(e) is int for row in got.entries for e in row)
            assert [list(row) for row in got.entries] == want


def test_qL_cells_of_one_degree_pair_and_sign_share_one_entry():
    # off A_RL a cell is s d(r)_q d(l)_q, s its entry of S: one object per (s, d(r), d(l))
    repeated = 0
    for p in range(1, 7):
        for mt in treecore.enumerate_nonsingular(p):
            lap, qL = TreeData(mt).lap, build_qL(mt)
            first = {}
            for i, (signs, adj) in enumerate(zip(lap.sign, lap.adj)):
                for j, s in enumerate(signs):
                    if s and j not in adj:
                        key = (s, lap.deg_r[i], lap.deg_l[j])
                        repeated += key in first
                        e = first.setdefault(key, qL[i, j])
                        assert e is qL[i, j]
                        assert e == s * P((1, 0, key[1] - 1)) * P((1, 0, key[2] - 1))
    assert repeated  # shared cells were seen


def test_eval_evaluates_each_distinct_entry_once(monkeypatch):
    # equal entries built apart: a memo keyed by the entry, not by identity
    poly, ratfun = (lambda: P((1, 2)), lambda: RatFun(P((0, 1)), P((2, 1))))
    rows = [[poly(), ratfun(), poly()], [ratfun(), ZERO, poly()], [ZERO, poly(), ratfun()]]
    m = Matrix(rows, KIND_R, KIND_L)
    v = Vector(rows[0] + rows[1], KIND_L)
    want_m = [[e.eval_at(3) for e in row] for row in rows]
    want_v = [e.eval_at(3) for e in v]

    evaluated, open_calls = [], []  # the entries eval_matrix itself evaluated

    def counted(real):
        def eval_at(self, x):
            if not open_calls:  # not the num or den inside a RatFun's eval_at
                evaluated.append(self)
            open_calls.append(self)
            try:
                return real(self, x)
            finally:
                open_calls.pop()
        return eval_at

    monkeypatch.setattr(Poly, "eval_at", counted(Poly.eval_at))
    monkeypatch.setattr(RatFun, "eval_at", counted(RatFun.eval_at))
    assert [list(row) for row in eval_matrix(m, 3).entries] == want_m
    assert evaluated == [poly(), ratfun(), ZERO]
    evaluated.clear()
    assert list(eval_vector(v, 3)) == want_v
    assert evaluated == [poly(), ratfun(), ZERO]
    # 1 / (1 - q) has its pole at 1; its first cell in row-major order is named
    pole = lambda: RatFun(ONE, P((1, -1)))  # noqa: E731
    with pytest.raises(PoleAtPoint, match=r"^entry \(0, 2\): "):
        eval_matrix(Matrix([[poly(), ZERO, pole()], [pole(), poly(), pole()]], KIND_R, KIND_L), 1)


# -- corona detection ------------------------------------------------------------------------------


def test_corona_examples(p2, p4_attach, p6_attach):
    assert is_corona(p2)
    assert is_corona(p4_attach)  # P4 = P2 with a pendant on each vertex
    assert not is_corona(p6_attach)


def test_corona_matches_symmetry():
    for p in (1, 2, 3, 4):
        for mt in treecore.enumerate_nonsingular(p):
            lap = eval_matrix(build_qL(mt), 1)
            sym = lap.entries == lap.transpose().entries
            assert sym == is_corona(mt)
