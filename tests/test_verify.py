import concurrent.futures
import json
import random
from collections import Counter
from fractions import Fraction
from math import prod

import networkx as nx
import pytest
from oracles import permute_pairs, relabel_vertices, sub_matched_tree

from qbip import exactla, polyalg, qmatrices, treecore, verify
from qbip.exactla import KIND_L, KIND_R, Matrix
from qbip.polyalg import ONE, ONE_MINUS_Q2, ONE_PLUS_Q, Poly, Q, Q_ONE_PLUS_Q, ZERO
from qbip.verify import (
    CheckResult,
    evaluate_identities_at,
    run_enumerated,
    run_random,
    run_suite,
    summary_line,
)


SUITE = [
    "det_E", "det_qL", "bdq", "sum_mu", "row_col_sums", "B_tau", "lemma_111",
    "inverse_E", "inverse_qB", "attach_update", "block_decomposition",
    "q1_properties", "full_dq_ed",
]


def test_suite_passes_on_p4(p4_attach):
    report = run_suite(p4_attach)
    assert report.passed
    assert [r.name for r in report.results] == SUITE
    assert report.first_failure() is None


def test_oracle_runs_exactly_up_to_its_bound(monkeypatch):
    # both inverse checks consult the elimination oracle at p <= 5, never above
    assert verify.ORACLE_MAX_P == 5
    calls = _count_calls(monkeypatch, exactla, ("inverse_gauss",))
    for p, oracle_calls in ((5, 2), (6, 0)):
        calls.clear()
        assert run_suite(treecore.random_nonsingular(p, 1)).passed
        assert calls["inverse_gauss"] == oracle_calls, p


def test_oracle_mismatch_is_witnessed(monkeypatch, p4_attach):
    # E^-1 from the formula off in one entry: qL.E still holds, the oracle does not
    formula = qmatrices.inverse_E_formula
    monkeypatch.setattr(qmatrices, "inverse_E_formula", lambda td: _bump(
        formula(td), 1, 0, polyalg.RatFun(Q)))
    report = run_suite(p4_attach)
    bad = report.first_failure()
    assert [r.name for r in report.results if not r.passed] == ["inverse_E"]
    assert bad.witness["identity"] == "formula inverse equals elimination oracle"
    assert bad.witness["entry"] == [1, 0]
    got, want, residual = (polyalg.RatFun.from_json(bad.witness[k])
                           for k in ("got", "want", "residual"))
    assert got - want == residual == polyalg.RatFun(Q)


def test_suite_is_deterministic(p4_attach):
    a = run_suite(p4_attach).to_json()
    b = run_suite(p4_attach).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_json_shape(p2):
    data = run_suite(p2).to_json()
    assert set(data) == {"tree", "p", "checks"}
    assert data["p"] == 1
    assert all(set(c) >= {"name", "pass", "witness"} for c in data["checks"])
    bytes.fromhex(data["tree"])


def test_failures_carry_reproducible_witnesses():
    got = Matrix([[ONE, Poly((0, 1))], [ZERO, ONE]], KIND_R, KIND_L)
    want = Matrix([[ONE, ZERO], [ZERO, ONE]], KIND_R, KIND_L)
    res = verify._compare("demo", "demo identity", got, want)
    assert not res.passed
    i, j = res.witness["entry"]
    assert (i, j) == (0, 1)
    residual = Poly.from_json(res.witness["residual"])
    # replaying the comparison at the witness index reproduces the residual
    assert got[i, j] - want[i, j] == residual
    assert residual


def test_vector_witness():
    from qbip.exactla import Vector

    got = Vector((ONE, ZERO), KIND_R)
    want = Vector((ONE, ONE), KIND_R)
    res = verify._compare("demo", "demo identity", got, want)
    assert not res.passed and res.witness["entry"] == [1]


def test_summary_line_format(p2, p4_attach):
    reports = [run_suite(p2), run_suite(p4_attach)]
    line = summary_line(reports)
    assert line == f"TREES 2 CHECKS {2 * len(SUITE)} FAIL 0"


def test_run_enumerated_counts_and_order():
    for threads in (1, 2):
        reports = run_enumerated(8, threads=threads)
        assert len(reports) == 1 + 1 + 2 + 5
        assert all(r.passed for r in reports)
        keys = [(r.p, r.tree_code) for r in reports]
        assert keys == sorted(keys), threads


def test_run_enumerated_thread_determinism():
    sequential = [r.to_json() for r in run_enumerated(6, threads=1)]
    parallel = [r.to_json() for r in run_enumerated(6, threads=2)]
    assert sequential == parallel


@pytest.mark.parametrize("threads, cpus, workers", [
    (10**6, 8, 4),  # capped by the 4 trees with 2p <= 6
    (3, 8, 3),
    (10**6, 2, 2),  # capped by the CPU count
    (10**6, None, None),  # unknown CPU count: serial
    (1, 8, None),
])
def test_run_enumerated_caps_workers(monkeypatch, threads, cpus, workers):
    expected = [r.to_json() for r in run_enumerated(6)]
    made = []

    class SerialPool:  # records max_workers and maps in-process
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    assert [r.to_json() for r in run_enumerated(6, threads=threads)] == expected
    assert made == ([] if workers is None else [workers])


def _count_calls(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_run_suite_builds_each_quantity_once(monkeypatch):
    mt = treecore.random_nonsingular(6, 1)
    built = _count_calls(monkeypatch, qmatrices, (
        "build_qL", "laplacian", "build_qB", "build_E", "bdq_det", "qtau",
        "qsigned_degree_vector", "lr_distances",
    ))
    made = _count_calls(monkeypatch, treecore, (
        "attach_p2", "sub_lists", "detach_p2", "diff", "alternating_reach"))
    trees = _count_calls(monkeypatch, treecore.Tree, ("__init__",))
    matched = _count_calls(monkeypatch, treecore.MatchedTree, ("__init__",))
    assert run_suite(mt).passed
    # the grown and split trees and bd_q's peeled ones are neighbour lists,
    # not objects: the suite builds no tree, and peels p - 1 times
    assert made["attach_p2"] == 0
    assert made["detach_p2"] == mt.p - 1
    assert trees["__init__"] == matched["__init__"] == 0
    splits = verify.block_split_vertices(mt)
    # a split at l cuts it from each neighbour but its partner: deg(l) pieces
    grown, split = mt.tree.n, sum(mt.tree.degree(mt.l_vertex(k)) for k in splits)
    assert split > 0
    assert made["sub_lists"] == split
    assert built["bdq_det"] == built["build_qB"] == built["build_E"] == 1
    # the integer L x R distance block once, for qB, E, the proof point and q = 1
    assert built["lr_distances"] == 1
    # the tree's Poly qL once; every grown and split tree's qL data from its
    # own walks, once, with the grown tree's tau_r from the same walks
    assert built["build_qL"] == 1
    assert built["laplacian"] == 1 + grown + split
    assert built["qtau"] == 1
    # mu in Z[q] once per vertex of the tree, for sum_mu alone; the join
    # checks read every mu, the tree's and each split piece's, off a Laplacian
    assert built["qsigned_degree_vector"] == mt.tree.n
    # tau, mu and diff are read off the tree's Laplacian: diff walks only in
    # bd_q's recursion, once per tree it peels
    assert made["diff"] == made["detach_p2"]
    # one walk per R-vertex of the tree, of each grown tree and, as the split
    # pieces of one pair share out the p pairs, of each split's pieces
    assert made["alternating_reach"] == (
        mt.p + grown * (mt.p + 1) + len(splits) * mt.p + made["diff"])


def test_full_dq_ed_reads_one_distance_table(monkeypatch):
    walked = _count_calls(monkeypatch, treecore, ("distances",))
    assert run_suite(treecore.random_nonsingular(6, 1)).passed
    assert walked["distances"] == 1  # the suite's TreeData lends its table
    star = treecore.Tree([(0, 1), (0, 2), (0, 3)])  # no perfect matching
    assert verify.check_full_dq_ed(star).passed
    assert walked["distances"] == 2


# -- the full-matrix certificate ------------------------------------------------------

FULL_LABELS = ("det qD = (-1)^(n-1) (n-1) (1+q)^(n-2)", "det eD = (1-q^2)^(n-1)")
ODD_TREE = treecore.Tree([(0, 1), (0, 2), (2, 3), (2, 4)])  # n = 5, no perfect matching


def _watch_full_dq_ed(monkeypatch) -> Counter:
    """Count the det_bareiss calls made inside check_full_dq_ed, wherever it is called."""
    calls, inside = _count_calls(monkeypatch, exactla, ("det_bareiss",)), Counter()
    check = verify.check_full_dq_ed

    def watched(tree):
        before = calls["det_bareiss"]
        res = check(tree)
        inside["det_bareiss"] += calls["det_bareiss"] - before
        return res

    monkeypatch.setattr(verify, "check_full_dq_ed", watched)
    return inside


def _perturb_full(monkeypatch, builder, delta):
    """Add delta to entry (0, 1) of what build_full_qD or build_full_eD builds."""
    build = getattr(qmatrices, builder)
    monkeypatch.setattr(qmatrices, builder, lambda dist: _bump(build(dist), 0, 1, delta))


def _dense_witness(tree: treecore.Tree) -> dict:
    """The witness of the first failing dense determinant, qD's first."""
    dist, n = treecore.distances(tree), tree.n
    wants = ((-1) ** (n - 1) * (n - 1) * ONE_PLUS_Q ** (n - 2), ONE_MINUS_Q2 ** (n - 1))
    for label, m, want in zip(FULL_LABELS, (qmatrices.build_full_qD(dist),
                                            qmatrices.build_full_eD(dist)), wants):
        det = exactla.det_bareiss(m)
        if det != want:
            return {"identity": label, "got": det.to_json(), "want": want.to_json(),
                    "residual": (det - want).to_json()}
    raise AssertionError("both dense determinants hold")


def test_full_dq_ed_passes_by_its_certificate_alone(monkeypatch):
    inside = _watch_full_dq_ed(monkeypatch)
    assert run_suite(treecore.random_nonsingular(6, 1)).passed
    assert verify.check_full_dq_ed(ODD_TREE).passed
    trees = 0  # every tree with n <= 12, as acceptance criterion 5 lists them
    for n in range(2, 13):
        for g in nx.nonisomorphic_trees(n):
            tree = treecore.Tree([tuple(sorted(e)) for e in g.edges()])
            assert verify.check_full_dq_ed(tree).passed, tree.edges
            trees += 1
    assert trees == 986
    assert inside["det_bareiss"] == 0


@pytest.mark.parametrize("part", ["adjacency", "det_L"])
def test_full_dq_ed_falls_back_to_the_dense_determinants(monkeypatch, part):
    # the certificate reads a broken L_q and tau (vertex 0 loses a neighbour),
    # or a broken det L_q; qD and eD are right, so the dense route passes
    if part == "adjacency":
        certificate = verify._dq_ed_certificate
        monkeypatch.setattr(verify, "_dq_ed_certificate",
                            lambda adj, *rest: certificate((adj[0][1:], *adj[1:]), *rest))
    else:
        det_L = verify._det_vertex_laplacian
        monkeypatch.setattr(verify, "_det_vertex_laplacian", lambda adj: det_L(adj) + Q)
    inside = _watch_full_dq_ed(monkeypatch)
    assert verify.check_full_dq_ed(qmatrices.TreeData(treecore.random_nonsingular(5, 1))).passed
    assert verify.check_full_dq_ed(ODD_TREE).passed
    assert inside["det_bareiss"] == 4


def test_det_vertex_laplacian_is_one_minus_q2():
    # the leaf-to-root recursion for det L_q on every tree to 12 vertices, and
    # on two trees of 400 vertices
    for n in range(2, 13):
        for g in nx.nonisomorphic_trees(n):
            assert verify._det_vertex_laplacian([sorted(g[v]) for v in range(n)]) == ONE_MINUS_Q2
    for seed in (1, 2):
        adj = treecore.random_nonsingular(200, seed).tree.adj
        assert verify._det_vertex_laplacian(adj) == ONE_MINUS_Q2


def test_every_rooted_walk_is_one_bfs(monkeypatch):
    # validation, the matching, the det L_q recursion and the block split
    # each walk the tree once by treecore.bfs; standard_labeling walks it for
    # its matching and once for the sides
    bfs, calls = treecore.bfs, []
    monkeypatch.setattr(treecore, "bfs", lambda adj, root: calls.append(root) or bfs(adj, root))

    def walks(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (0, 8), (8, 9)]
    tree = treecore.Tree(edges)
    mt = treecore.standard_labeling(tree)
    (k1, *_) = verify.block_split_vertices(mt)
    assert walks(treecore.Tree, edges) == 1
    assert walks(treecore.perfect_matching, tree) == 1
    assert walks(treecore.standard_labeling, tree) == 2
    assert walks(verify._det_vertex_laplacian, tree.adj) == 1
    assert walks(verify.predicted_block_qL, mt, k1) == 1


@pytest.mark.parametrize("builder, dense_calls", [("build_full_qD", 1), ("build_full_eD", 2)])
def test_full_dq_ed_witness_of_a_perturbed_builder(monkeypatch, builder, dense_calls):
    # the dense route's witness, from the first determinant that fails
    tree = treecore.random_nonsingular(4, 1).tree
    _perturb_full(monkeypatch, builder, Q)
    want = _dense_witness(tree)
    assert want["identity"] == FULL_LABELS[dense_calls - 1]
    inside = _watch_full_dq_ed(monkeypatch)
    res = verify.check_full_dq_ed(tree)
    assert res.to_json() == {"name": "full_dq_ed", "pass": False, "witness": want}
    assert inside["det_bareiss"] == dense_calls


@pytest.mark.parametrize("wrong", [0, 1])
def test_full_dq_ed_certifies_only_the_claimed_determinants(monkeypatch, wrong):
    # det qD (wrong = 0) or det eD (1) claimed twice its value: the certificate
    # must reject the claim, and the dense route reports it
    claims = verify._dq_ed_claims(ODD_TREE.n)
    bad = tuple(2 * c if i == wrong else c for i, c in enumerate(claims))
    monkeypatch.setattr(verify, "_dq_ed_claims", lambda n: bad)
    det = exactla.det_bareiss(qmatrices.build_full_eD(treecore.distances(ODD_TREE)) if wrong
                              else qmatrices.build_full_qD(treecore.distances(ODD_TREE)))
    assert det == claims[wrong]
    assert verify.check_full_dq_ed(ODD_TREE).witness == {
        "identity": FULL_LABELS[wrong], "got": det.to_json(), "want": bad[wrong].to_json(),
        "residual": (det - bad[wrong]).to_json()}


@pytest.mark.parametrize("builder, delta", [
    ("build_full_eD", Poly((0, 0, 0, 2**70))),
    # zero at every q = 2^k, k <= 16: qD never meets a point, as (q-1) qD =
    # eD - J is decided in Z[q], so no point that the tree fixes can miss it
    ("build_full_qD", prod((Poly((-(2**k), 1)) for k in range(1, 17)), start=ONE)),
])
def test_full_dq_ed_point_is_read_from_the_entries(monkeypatch, builder, delta):
    tree = treecore.Tree([(0, 1), (1, 2), (2, 3)])
    _perturb_full(monkeypatch, builder, delta)
    want = _dense_witness(tree)
    certificate = verify._dq_ed_certificate
    monkeypatch.setattr(verify, "_dq_ed_certificate",
                        lambda *args: pytest.fail("certificate passed") if certificate(*args)
                        else False)
    assert verify.check_full_dq_ed(tree).witness == want


def test_evaluation_builds_no_symbolic_distance_matrix(monkeypatch):
    # the point engine reads qB and E off the distance table and bd_q off the
    # recursion; a Poly determinant at large p would dominate the run
    built = _count_calls(monkeypatch, qmatrices, ("build_qB", "build_E", "bdq_det"))
    mt = treecore.random_nonsingular(5, 1)
    assert all(r.passed for r in evaluate_identities_at(mt, Fraction(2), Fraction(5, 3)))
    assert not built


# -- evaluated identities -------------------------------------------------------------


def test_symbolic_pass_implies_evaluation_pass():
    # spot-check the evaluated route at every default point and one more; at
    # p = 1 the distance block is the one entry 1 (dmax = 1), and qL and I
    # have one nonzero in their one row
    points = (*verify.DEFAULT_Q_POINTS, Fraction(-3))
    for p in (1, 2, 3):
        for mt in treecore.enumerate_nonsingular(p):
            for x in points:
                results = evaluate_identities_at(mt, x)
                assert all(r.passed for r in results), (p, x, results)


def test_evaluation_rejects_excluded_points(p4_attach):
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            evaluate_identities_at(p4_attach, Fraction(bad))


@pytest.mark.parametrize("x", [0.5, "2", True])
def test_evaluation_rejects_an_inexact_point(p4_attach, x):
    # a float would be read at its binary value, a string parsed; True is no q = 1
    with pytest.raises(TypeError, match="an int or a Fraction"):
        evaluate_identities_at(p4_attach, Fraction(2), x)
    with pytest.raises(TypeError, match="an int or a Fraction"):
        run_random(p=4, trials=1, seed=1, q_points=(x,))


def test_evaluation_rejects_a_repeated_point(p4_attach):
    with pytest.raises(ValueError, match="more than once"):
        evaluate_identities_at(p4_attach, Fraction(2), Fraction(1, 2), Fraction(2))


def test_evaluation_skips_inverse_at_bdq_root(p6_attach):
    # bd_q(P6) = 2 + q vanishes at q = -2; the inverse check is skipped there
    assert qmatrices.bdq_det(p6_attach).eval_at(-2) == 0
    results = evaluate_identities_at(p6_attach, Fraction(-2))
    by_name = {r.name: r for r in results}
    inv = by_name["inverse_qB_product@-2"]
    assert inv.passed and inv.skipped
    others = [r for r in results if r.name != "inverse_qB_product@-2"]
    assert all(r.passed and not r.skipped for r in others)


def test_run_random_small():
    reports = run_random(p=10, trials=2, seed=3,
                         q_points=(Fraction(2), Fraction(5, 3)))
    assert len(reports) == 2
    assert all(r.passed for r in reports)
    assert len(reports[0].results) == 2 * 5


def test_run_random_rejects_excluded_point():
    with pytest.raises(ValueError):
        run_random(p=4, trials=1, seed=1, q_points=(Fraction(1),))


def test_run_random_deterministic():
    a = [r.to_json() for r in run_random(6, 2, seed=9)]
    b = [r.to_json() for r in run_random(6, 2, seed=9)]
    assert a == b


def test_sum_mu_witness_names_the_vertex(monkeypatch, p4_path):
    # mu entry 0 off by q at vertex 2 alone: the sum there is off by q
    mu = qmatrices.qsigned_degree_vector

    def perturbed(td, v):
        vec = mu(td, v)
        return exactla.Vector((vec[0] + Q, *vec.entries[1:]), vec.kind) if v == 2 else vec

    monkeypatch.setattr(qmatrices, "qsigned_degree_vector", perturbed)
    res = verify.check_sum_mu(p4_path)
    assert not res.passed
    assert res.witness["identity"] == "ones^t mu_v = (diff+1)q^2 - diff"
    assert res.witness["vertex"] == 2 and _residual(res) == Q
    want = Poly.from_json(res.witness["want"])
    diff = treecore.diff(p4_path.tree.adj, p4_path.partner, 2)
    assert want == Poly((-diff, 0, diff + 1))


# -- the tau update correction ----------------------------------------------------------


def test_attach_tau_r_update_needs_q2_on_existing_entry(p4_path):
    # the naive update without the q^2 factor mispredicts entry k; the
    # corrected form matches the direct computation (cross-checked by the
    # row-sum identity, which is verified independently in the suite)
    v = p4_path.r_vertex(1)
    grown = treecore.attach_p2(p4_path, v)
    _, tau_r = qmatrices.qtau(grown)
    assert tuple(tau_r) == (ONE, Poly((0, 0, -1)), ONE)
    predicted = verify.predicted_attach_tau_r(
        verify._read(qmatrices.TreeData(p4_path), Poly), v)
    assert tuple(predicted) == tuple(tau_r)
    naive = list(qmatrices.qtau(p4_path)[1])
    k = p4_path.index_of[v]
    scale = 1 + treecore.diff(p4_path.tree.adj, p4_path.partner, v)
    naive[k] = naive[k] - Poly((scale,))
    naive.append(Poly((scale,)))
    assert tuple(naive) != tuple(tau_r)


# -- the attachment checks' derived trees ----------------------------------------------


def _split_pieces(mt, k1) -> list:
    """The pair indices, ascending, of each component left when l_k1 is cut
    from its neighbours but its partner."""
    l, r = mt.pairs[k1]
    g = nx.Graph(mt.tree.edges)
    g.remove_edges_from((l, w) for w in mt.tree.adj[l] if w != r)
    return [sorted(mt.index_of[v] for v in c if mt.side_of[v] == "L")
            for c in nx.connected_components(g)]


def test_join_point_lists_are_the_derived_objects(monkeypatch):
    # every tree with 2p <= 12, as enumerated and with its vertex ids and pair
    # order shuffled: _join_point hands laplacian the lists of attach_p2 at
    # each vertex in turn, then those of the oracle's sub_matched_tree on each
    # split piece, and each gives the object's Laplacian
    rng = random.Random(21)
    laplacian, fed = qmatrices.laplacian, []
    monkeypatch.setattr(qmatrices, "laplacian", lambda adj, pairs: fed.append(
        (tuple(map(tuple, adj)), tuple(pairs))) or laplacian(adj, pairs))
    for listed in treecore.enumerate_upto(12):
        shuffled = permute_pairs(relabel_vertices(listed, rng.sample(range(listed.tree.n),
                                                                     listed.tree.n)),
                                 rng.sample(range(listed.p), listed.p))
        for mt in (listed, shuffled):
            td = qmatrices.TreeData(mt)
            td.lap  # the tree's own, not a derived one
            fed.clear()
            verify._join_point(td)
            grown = [treecore.attach_p2(mt, v) for v in range(mt.tree.n)]
            pieces = [sub_matched_tree(mt, at)[0]
                      for k1 in verify.block_split_vertices(mt) for at in _split_pieces(mt, k1)]
            n = len(grown)
            assert len(fed) == n + len(pieces)
            assert fed[:n] == [(t.tree.adj, t.pairs) for t in grown]
            pieces.sort(key=lambda t: (t.tree.adj, t.pairs))
            assert sorted(fed[n:]) == [(t.tree.adj, t.pairs) for t in pieces]
            for (adj, pairs), t in zip(fed[:n] + sorted(fed[n:]), grown + pieces):
                assert laplacian(adj, pairs) == qmatrices.TreeData(t).lap


def test_join_point_reads_the_tree_off_its_laplacian(monkeypatch):
    # the tree's qL, tau_r and mu come from its Laplacian table, as the grown
    # and split trees' do: no Z[q] matrix or vector of it is built
    built = _count_calls(monkeypatch, qmatrices, (
        "build_qL", "qtau", "qsigned_degree_vector", "laplacian"))
    mt = _two_branches()
    verify._join_point(qmatrices.TreeData(mt))
    assert built["build_qL"] == built["qtau"] == built["qsigned_degree_vector"] == 0
    assert built["laplacian"] == 1 + mt.tree.n + sum(
        mt.tree.degree(mt.l_vertex(k)) for k in verify.block_split_vertices(mt))


# -- the attachment checks' witnesses -------------------------------------------------


def _bump_laplacians(monkeypatch, delta, entry, when, sides=""):
    """Add delta to one entry of the Laplacian of each tree whose pair list
    `when` accepts, in every reading of it: to entry (i, j) of its qL rows,
    or, given sides ("L", "R" or "LR"), to entry (i,) of the mu of each
    vertex on those sides instead."""
    laplacian = qmatrices.laplacian

    class Bumped(qmatrices.Laplacian):
        __slots__ = ()

        def rows(self, value):
            rows = super().rows(value)
            if not sides:
                i, j = entry
                rows[i][j] = rows[i][j] + value(delta.coeffs)
            return rows

        def mu(self, k, side, value):
            mu = super().mu(k, side, value)
            if side in sides:
                (i,) = entry
                mu[i] = mu[i] + value(delta.coeffs)
            return mu

    monkeypatch.setattr(qmatrices, "laplacian", lambda adj, pairs: (
        Bumped(*laplacian(adj, pairs)) if when(pairs) else laplacian(adj, pairs)))


@pytest.mark.parametrize("side, vertex, got, want", [
    ("L", 0, ["1", "0", "1", "0", "1"], ["1", "0", "1", "1", "1"]),
    ("R", 1, ["1", "0", "1"], ["1", "0", "1", "1"]),
])
def test_attach_update_witness_on_each_side(monkeypatch, p4_path, side, vertex, got, want):
    # the tree's mu entry 0 perturbed by q at the vertices of one side only:
    # the first attachment there leaves the residual -q^3 at qL entry (0, 0)
    _bump_laplacians(monkeypatch, Q, (0,), lambda pairs: len(pairs) == p4_path.p, side)
    res = verify.check_attach_update(p4_path)
    assert res.to_json() == {"name": "attach_update", "pass": False, "witness": {
        "identity": f"qL block update at vertex {vertex}", "entry": [0, 0],
        "got": got, "want": want, "residual": ["0", "0", "0", "-1"], "vertex": vertex,
    }}


def _two_branches():
    # L-vertex 0 has partner 1 and the two branches at R-vertices 2 and 4;
    # pair (6, 7) hangs off 1, so home holds pairs 0 and 3
    return treecore.standard_labeling(treecore.Tree(
        [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (1, 6), (6, 7)]))


def test_block_decomposition_witness_at_a_split_with_two_branches(monkeypatch):
    mt = _two_branches()
    assert next(at for at in _split_pieces(mt, 0) if 0 in at) == [0, 3]  # home's pairs
    # perturbed on the p = 4 tree, not on its subtrees or the grown trees
    _bump_laplacians(monkeypatch, ONE, (2, 1), lambda pairs: len(pairs) == mt.p)
    res = verify.check_block_decomposition(mt)
    assert res.to_json() == {"name": "block_decomposition", "pass": False, "witness": {
        "identity": "qL block reassembly at pair 0", "entry": [2, 1],
        "got": ["1"], "want": [], "residual": ["1"], "split_pair": 0,
    }}


def test_attach_update_witness_of_a_bumped_grown_tree(monkeypatch, p4_path):
    # qL entry (0, 0) of every tree that attach_update grows (p + 1 pairs) off
    # by q: the first attachment, at vertex 0, reads it back; the split pieces
    # have fewer pairs, so block_decomposition still passes
    for mt in (p4_path, _two_branches()):
        with monkeypatch.context() as patch:
            _bump_laplacians(patch, Q, (0, 0), lambda pairs: len(pairs) == mt.p + 1)
            res = verify.check_attach_update(mt)
            assert res.witness["identity"] == "qL block update at vertex 0"
            assert res.witness["vertex"] == 0 and res.witness["entry"] == [0, 0]
            assert res.witness["residual"] == ["0", "1"] and _residual(res) == Q
            assert verify.check_block_decomposition(mt).passed


def _join_base(mt) -> int:
    """The point q = B at which the tree's attachment checks are decided."""
    return verify._join_point(qmatrices.TreeData(mt))[3]


def _vanishing_at(b: int) -> Poly:
    """(q - b)(q - 0)(q - 1)...(q - 39): zero at b, its coefficients past 2^150."""
    poly = Poly((-b, 1))
    for x in range(40):
        poly = poly * Poly((-x, 1))
    return poly


def _residual(res) -> Poly:
    got, want, residual = (Poly.from_json(res.witness[k]) for k in ("got", "want", "residual"))
    assert got - want == residual
    return residual


def test_block_bound_is_read_from_the_split_pieces(monkeypatch):
    # the pieces' qL entry (0, 0) off by a polynomial that vanishes at the
    # unperturbed point: the point grows past its coefficients, and the
    # witness reads the whole polynomial back; in mt that entry is (0, 0)
    mt = _two_branches()
    b0 = _join_base(mt)
    delta = _vanishing_at(b0)
    assert delta.eval_at(b0) == 0 and max(map(abs, delta.coeffs)) > 2**150
    _bump_laplacians(monkeypatch, delta, (0, 0), lambda pairs: len(pairs) < mt.p)
    res = verify.check_block_decomposition(mt)
    assert not res.passed and _join_base(mt) > b0
    assert res.witness["entry"] == [0, 0] and res.witness["split_pair"] == 0
    assert _residual(res) == -delta
    assert verify.check_attach_update(mt).passed  # the grown trees are not split


def test_attach_bound_is_read_from_the_prediction(monkeypatch, p4_path):
    # mu entry 0 of the tree off by a polynomial vanishing at the unperturbed
    # point: at vertex 0 the prediction's entry (0, 0) takes q^2 times it
    b0 = _join_base(p4_path)
    delta = _vanishing_at(b0)
    _bump_laplacians(monkeypatch, delta, (0,), lambda pairs: len(pairs) == p4_path.p, "LR")
    res = verify.check_attach_update(p4_path)
    assert not res.passed and _join_base(p4_path) > b0
    assert res.witness["entry"] == [0, 0] and res.witness["vertex"] == 0
    assert _residual(res) == -(Poly((0, 0, 1)) * delta)


def test_attachment_witnesses_read_back_a_large_q4_coefficient(monkeypatch):
    # qL entry (1, 0) of the tree off by c q^4, c past any fixed point: the
    # attach prediction at vertex 0 copies it, the block check reads it
    mt = _two_branches()
    delta = Poly((0, 0, 0, 0, 2**70 + 1))
    _bump_laplacians(monkeypatch, delta, (1, 0), lambda pairs: len(pairs) == mt.p)
    attach, block = verify.check_attach_update(mt), verify.check_block_decomposition(mt)
    assert attach.witness["vertex"] == 0 and block.witness["split_pair"] == 0
    assert attach.witness["entry"] == block.witness["entry"] == [1, 0]
    assert _residual(attach) == -delta and _residual(block) == delta


# -- mutation tests for the product-identity engine ---------------------------------

PRODUCT_CHECKS = {
    "B_tau": verify.check_B_tau,
    "row_col_sums": verify.check_row_col_sums,
    "lemma_111": verify.check_lemma_111,
    "inverse_E": verify.check_inverse_E,
    "inverse_qB": verify.check_inverse_qB,
}
# the identities that read each input
DEPENDS_ON = {
    "qL": {"row_col_sums", "lemma_111", "inverse_E", "inverse_qB"},
    "qB": {"B_tau", "lemma_111", "inverse_qB"},
    "E": {"inverse_E"},
    "bd": {"B_tau", "inverse_qB"},
}
WITNESS_KEYS = {"identity", "entry", "point", "got", "want", "residual"}
# two fractions and a negative integer: the point engine's scales b^deg and
# its packed digits then take both signs and denominators other than 1
MUTATION_POINTS = (Fraction(5, 3), Fraction(1, 2), Fraction(-3))


@pytest.fixture
def p5_random():
    return treecore.random_nonsingular(5, 1)


def _bump(m, i, j, delta):
    rows = [list(row) for row in m.entries]
    rows[i][j] = rows[i][j] + delta
    return Matrix(rows, m.row_kind, m.col_kind)


def _perturb(monkeypatch, target, delta, entry=(1, 0)):
    """Add delta to entry (i, j) of qL, to one entry of qB or E, or to bd_q.

    The change is made wherever verify reads the quantity.
    """
    if target == "qL":
        build_qL = qmatrices.build_qL
        monkeypatch.setattr(qmatrices, "build_qL",
                            lambda mt: _bump(build_qL(mt), *entry, delta))
    elif target == "bd":
        for name in ("bdq_det", "bdq_recursive"):
            monkeypatch.setattr(qmatrices, name,
                                lambda mt, f=getattr(qmatrices, name): f(mt) + delta)
    else:
        distance_factors = verify._distance_factors

        def perturbed(mt):
            qB, E = distance_factors(mt)
            if target == "qB":
                return verify._poly_factor(_bump(qmatrices.build_qB(mt), 0, 0, delta)), E
            return qB, verify._poly_factor(_bump(qmatrices.build_E(mt), 0, 0, delta))

        monkeypatch.setattr(verify, "_distance_factors", perturbed)


def _assert_witness(res):
    w = res.witness
    assert WITNESS_KEYS <= set(w)
    got, want = Fraction(w["got"]), Fraction(w["want"])
    assert got - want == Fraction(w["residual"]) != 0


def _assert_fails_exactly_the_dependent_identities(p5_random, target):
    symbolic = {name: check(p5_random) for name, check in PRODUCT_CHECKS.items()}
    assert {n for n, r in symbolic.items() if not r.passed} == DEPENDS_ON[target]
    for name in DEPENDS_ON[target]:
        _assert_witness(symbolic[name])
    for x in MUTATION_POINTS:
        point = {r.name.split("@")[0].replace("_product", ""): r
                 for r in evaluate_identities_at(p5_random, x)}
        assert {n for n, r in point.items() if not r.passed} == DEPENDS_ON[target], x
        for name in DEPENDS_ON[target]:
            _assert_witness(point[name])
            assert point[name].witness["point"] == str(x)


@pytest.mark.parametrize("target", sorted(DEPENDS_ON))
def test_perturbed_input_fails_exactly_the_dependent_identities(
    monkeypatch, p5_random, target
):
    assert all(check(p5_random).passed for check in PRODUCT_CHECKS.values())
    _perturb(monkeypatch, target, Q)
    _assert_fails_exactly_the_dependent_identities(p5_random, target)


@pytest.mark.parametrize("change", ["zero_entry_bumped", "nonzero_entry_zeroed"])
def test_qL_perturbation_off_its_nonzeros_fails_the_dependent_identities(
    monkeypatch, p5_random, change
):
    # the point products skip the zeros of qL, so a bump where qL is zero, and
    # an entry that drops to zero, must still reach every identity that reads qL
    qL = qmatrices.build_qL(p5_random)
    if change == "zero_entry_bumped":
        entry, delta = (1, 2), Q
        assert qL[entry] == ZERO
    else:
        entry, delta = (1, 0), -qL[1, 0]
        assert qL[entry] != ZERO
    _perturb(monkeypatch, "qL", delta, entry)
    bumped = qmatrices.build_qL(p5_random)[entry]
    assert bumped == qL[entry] + delta and (bumped == ZERO) == (qL[entry] != ZERO)
    _assert_fails_exactly_the_dependent_identities(p5_random, "qL")


# recorded before the vector sides read qL by its nonzeros: a bump of entry
# (1, 0) fails ones^t qL at column 0; the same bump with its negative at
# (2, 0) keeps column 0 and fails qL ones at row 1
@pytest.mark.parametrize("bumps, x, witness", [
    ([((1, 0), Q)], Fraction(5, 3),
     ("ones^t qL = (1-q^2) tau_l^t", [0], "935/81", "800/81", "5/3")),
    ([((1, 0), Q)], Fraction(-7, 2),
     ("ones^t qL = (1-q^2) tau_l^t", [0], "2177/8", "2205/8", "-7/2")),
    ([((1, 0), Q), ((2, 0), -Q)], Fraction(5, 3),
     ("qL ones = (1-q^2) tau_r", [1], "-1/9", "-16/9", "5/3")),
    ([((1, 0), Q), ((2, 0), -Q)], Fraction(-7, 2),
     ("qL ones = (1-q^2) tau_r", [1], "-59/4", "-45/4", "-7/2")),
])
def test_row_col_sums_witness_of_a_perturbed_qL(monkeypatch, p5_random, bumps, x, witness):
    for entry, delta in bumps:
        _perturb(monkeypatch, "qL", delta, entry)
    (res,) = [r for r in evaluate_identities_at(p5_random, x)
              if r.name == f"row_col_sums@{x}"]
    assert not res.passed
    keys = ("identity", "entry", "got", "want", "residual")
    assert tuple(res.witness[k] for k in keys) == witness


@pytest.mark.parametrize("entries, kind, left, error", [
    ((1, 2, 3), KIND_L, False, None),
    ((1, 2, 3), KIND_R, False, exactla.IndexKindMismatch),
    ((1, 2), KIND_L, False, exactla.DimensionMismatch),
    ((4, 5), KIND_R, True, None),
    ((4, 5), KIND_L, True, exactla.IndexKindMismatch),
    ((4, 5, 6), KIND_R, True, exactla.DimensionMismatch),
])
def test_sparse_vector_product_is_exactlas(entries, kind, left, error):
    # _mul reads a _Sparse by its nonzeros and hands a Matrix to exactla:
    # both give the same product, or raise the same error
    dense = Matrix([[1, 0, -2], [5, 3, 0]], KIND_R, KIND_L)
    sparse = verify._Sparse([{0: 1, 2: -2}, {0: 5, 1: 3}], 3, KIND_R, KIND_L)
    v = exactla.Vector(entries, kind)

    def product(m):
        return verify._mul(v, m) if left else verify._mul(m, v)

    if error is None:
        assert product(sparse) == product(dense)
    else:
        for m in (dense, sparse):
            with pytest.raises(error):
                product(m)


def test_point_witness_replays_with_fractions(monkeypatch, p5_random):
    # lemma_111 at each point recomputed entrywise from the evaluated matrices
    _perturb(monkeypatch, "qL", ONE)
    for x in MUTATION_POINTS:
        (res,) = [r for r in evaluate_identities_at(p5_random, x)
                  if r.name == f"lemma_111@{x}"]
        i, j = res.witness["entry"]
        qL = qmatrices.eval_matrix(qmatrices.build_qL(p5_random), x)
        qB = qmatrices.eval_matrix(qmatrices.build_qB(p5_random), x)
        tau_r = qmatrices.qtau(p5_random)[1][i].eval_at(x)
        got = -sum(qL[i, k] * qB[k, j] for k in range(p5_random.p)) + (1 + x) * tau_r
        want = x * (1 + x) if i == j else 0
        witnessed = Fraction(res.witness["got"]), Fraction(res.witness["want"])
        assert witnessed == (got, want) and got != want


def test_degree_bound_is_read_from_the_entries(monkeypatch, p5_random):
    # a perturbation vanishing at 0..K-1, K past the nominal degree of qL.E,
    # slips past any fixed point set 0..K-1; the bound from the entries grows
    # with it and catches it
    dist = treecore.distances(p5_random.tree)
    dmax = max(dist[l][r] for l in p5_random.l_vertices for r in p5_random.r_vertices)
    nominal = max(e.degree() for row in qmatrices.build_qL(p5_random).entries
                  for e in row) + dmax
    K = nominal + 3
    vanishing = ONE
    for x in range(K):
        vanishing = vanishing * Poly((-x, 1))
    assert all(vanishing.eval_at(x) == 0 for x in range(K))
    _perturb(monkeypatch, "qL", vanishing)
    res = verify.check_inverse_E(p5_random)
    assert not res.passed
    assert int(res.witness["point"]) >= K
    _assert_witness(res)


def _points_proved_at(monkeypatch) -> list:
    """The points verify._mismatch is called at, in order, from now on."""
    points = []
    mismatch = verify._mismatch

    def spy(equations, point):
        points.append(point.x)
        return mismatch(equations, point)

    monkeypatch.setattr(verify, "_mismatch", spy)
    return points


@pytest.mark.parametrize("name", sorted(PRODUCT_CHECKS))
def test_each_product_identity_is_decided_at_one_point(monkeypatch, p5_random, name):
    points = _points_proved_at(monkeypatch)
    assert PRODUCT_CHECKS[name](p5_random).passed
    (x,) = points
    assert x.denominator == 1 and x.numerator & (x.numerator - 1) == 0  # a power of 2


def test_coefficient_bound_is_read_from_the_entries(monkeypatch, p5_random):
    # q - B0 vanishes at the point B0 that proves the unperturbed qL.E; the
    # coefficient bound grows with the perturbation, and the point with it
    points = _points_proved_at(monkeypatch)
    assert verify.check_inverse_E(p5_random).passed
    (b0,) = points
    _perturb(monkeypatch, "qL", Poly((-int(b0), 1)))
    res = verify.check_inverse_E(p5_random)
    assert not res.passed
    assert points[1:] == [Fraction(res.witness["point"])] and points[1] > b0
    _assert_witness(res)


def _sides(mt, bd) -> dict:
    """(lhs, rhs) of each product equation in Z[q] with this bd_q, by label:
    two Matrices, or two Vectors for a vector equation."""
    qL, qB, E = (build(mt) for build in (
        qmatrices.build_qL, qmatrices.build_qB, qmatrices.build_E))
    tau_l, tau_r = qmatrices.qtau(mt)
    ones_L, ones_R = (exactla.Vector((ONE,) * mt.p, kind) for kind in (KIND_L, KIND_R))
    eye = Matrix.identity(mt.p, KIND_R, KIND_R)
    return {
        "qB tau_r = bd_q ones": (exactla.mat_vec(qB, tau_r), ones_L.scale(bd)),
        "tau_l^t qB = bd_q ones^t": (exactla.vec_mat(tau_l, qB), ones_R.scale(bd)),
        "ones^t qL = (1-q^2) tau_l^t": (exactla.vec_mat(ones_R, qL),
                                        tau_l.scale(ONE_MINUS_Q2)),
        "qL ones = (1-q^2) tau_r": (exactla.mat_vec(qL, ones_L), tau_r.scale(ONE_MINUS_Q2)),
        "-qL.qB + (1+q) tau_r ones^t = q(1+q) I": (
            exactla.outer(tau_r, ones_R).scale(ONE_PLUS_Q) - exactla.mat_mul(qL, qB),
            eye.scale(Q_ONE_PLUS_Q)),
        "qL.E = q(1-q^2) I": (exactla.mat_mul(qL, E), eye.scale(Q * ONE_MINUS_Q2)),
        "(-bd_q qL + (1+q) tau_r tau_l^t).qB = q(1+q) bd_q I": (
            exactla.mat_mul(exactla.outer(tau_r, tau_l).scale(ONE_PLUS_Q) - qL.scale(bd), qB),
            eye.scale(Q_ONE_PLUS_Q * bd)),
    }


def _residuals(mt) -> dict:
    """lhs - rhs of each product equation in Z[q], by label: a Matrix, or a
    list for a vector equation."""
    return {label: got - want if isinstance(got, Matrix) else [a - b for a, b in zip(got, want)]
            for label, (got, want) in _sides(mt, qmatrices.bdq_det(mt)).items()}


def _assert_replays(res, sides, x):
    """The witness's got and want are its entry of the Z[q] sides at q = x."""
    w = res.witness
    got, want = sides[w["identity"]]
    entry = w["entry"][0] if len(w["entry"]) == 1 else tuple(w["entry"])
    assert (Fraction(w["got"]), Fraction(w["want"])) == (
        got[entry].eval_at(x), want[entry].eval_at(x)) and w["got"] != w["want"]


def test_shared_distance_block_reaches_each_identity_that_reads_it(monkeypatch, p5_random):
    # every point reads qB and E through the one integer block TreeData.dist_lr:
    # one bumped block entry must fail exactly the identities that read qB or
    # E, at the proof point and at each mutation point, and each witness must
    # replay from the sides in Z[q] (built from the bumped block too)
    lr_distances = qmatrices.lr_distances

    def bumped(mt):
        block = [list(row) for row in lr_distances(mt)]
        block[1][0] += 2
        return block

    monkeypatch.setattr(qmatrices, "lr_distances", bumped)
    reads_block = DEPENDS_ON["qB"] | DEPENDS_ON["E"]
    td = qmatrices.TreeData(p5_random)
    assert td.dist_lr[1][0] == lr_distances(p5_random)[1][0] + 2
    proved = {name: check(td) for name, check in PRODUCT_CHECKS.items()}
    assert {n for n, r in proved.items() if not r.passed} == reads_block
    sides = _sides(p5_random, td.bd)
    for name in reads_block:
        _assert_replays(proved[name], sides, int(proved[name].witness["point"]))
    sides = _sides(p5_random, qmatrices.bdq_recursive(p5_random))
    for x in MUTATION_POINTS:
        point = {r.name.split("@")[0].replace("_product", ""): r
                 for r in evaluate_identities_at(p5_random, x)}
        assert {n for n, r in point.items() if not r.passed} == reads_block, x
        for name in reads_block:
            _assert_replays(point[name], sides, x)


def test_symbolic_witness_carries_the_residual_polynomial(monkeypatch, p5_random):
    # each identity's residual at its witness entry, recomputed in Z[q]: a qL
    # perturbation reaches the matrix identities and row_col_sums, a bd_q one
    # reaches B_tau
    assert sorted(DEPENDS_ON["qL"] | DEPENDS_ON["bd"]) == sorted(PRODUCT_CHECKS)
    for target in ("qL", "bd"):
        with monkeypatch.context() as patch:
            _perturb(patch, target, Q)
            residuals = _residuals(p5_random)
            for name in sorted(DEPENDS_ON[target]):
                w = PRODUCT_CHECKS[name](p5_random).witness
                entry = w["entry"]
                residual = residuals[w["identity"]][
                    entry[0] if len(entry) == 1 else tuple(entry)]
                assert Poly.from_json(w["residual_poly"]) == residual != ZERO, name
                assert residual.eval_at(int(w["point"])) == int(w["residual"]), name


def _calls_to_factors(monkeypatch) -> list:
    """The trees verify._factors builds factors for, in order, from now on."""
    built = []
    factors = verify._factors

    def spy(td):
        built.append(td)
        return factors(td)

    monkeypatch.setattr(verify, "_factors", spy)
    return built


def test_suite_proves_the_five_identities_at_one_point(monkeypatch, p5_random):
    # alone, the identities' points would be 64 (row_col_sums), 128 (B_tau),
    # 128 (lemma_111), 32 (inverse_E) and 1024 (inverse_qB); shared, the
    # point is the largest, and each factor is built for it once
    built = _calls_to_factors(monkeypatch)
    points = _points_proved_at(monkeypatch)
    assert run_suite(p5_random).passed
    assert len(built) == 1
    assert points == [Fraction(1024)] * len(PRODUCT_CHECKS)


def test_proof_point_is_never_shared_between_trees(monkeypatch, p5_random):
    # a TreeData built after a perturbation is proved afresh, and fails
    built = _calls_to_factors(monkeypatch)
    before = qmatrices.TreeData(p5_random)
    assert all(check(before).passed for check in PRODUCT_CHECKS.values())
    assert built == [before]
    _perturb(monkeypatch, "qL", Q)
    after = qmatrices.TreeData(p5_random)
    failed = {name for name, check in PRODUCT_CHECKS.items() if not check(after).passed}
    assert failed == DEPENDS_ON["qL"]
    assert built == [before, after]
    # the first tree's qL was built before the perturbation: it still passes
    assert all(check(before).passed for check in PRODUCT_CHECKS.values())
    assert built == [before, after, before]


@pytest.mark.parametrize("route, failed", [
    ("bdq_det", {"bdq"}),
    ("bdq_recursive", {"bdq", "B_tau", "inverse_qB", "q1_properties"}),
])
def test_both_engines_read_bd_from_the_peel(monkeypatch, p5_random, route, failed):
    # the proof point and the rational points build one factor set, bd_q from
    # TreeData.bd, the peel: a route off by q fails the same product
    # identities in both engines, and the determinant route only bdq
    off = getattr(qmatrices, route)
    monkeypatch.setattr(qmatrices, route, lambda mt: off(mt) + Q)
    assert {r.name for r in run_suite(p5_random).results if not r.passed} == failed
    products = failed & set(PRODUCT_CHECKS)
    proved = {name: check(p5_random) for name, check in PRODUCT_CHECKS.items()}
    assert {n for n, r in proved.items() if not r.passed} == products
    for name in products:
        _assert_witness(proved[name])
    for x in MUTATION_POINTS:
        point = {r.name.split("@")[0].replace("_product", ""): r
                 for r in evaluate_identities_at(p5_random, x)}
        assert {n for n, r in point.items() if not r.passed} == products, x
        for name in products:
            _assert_witness(point[name])


def test_product_identities_take_no_determinant(monkeypatch):
    # bd_q is the peel: the five product checks, the point engine and the
    # closed-form qB inverse take no Z[q] determinant, whose cost grows as p^6
    mt = treecore.random_nonsingular(30, 1)
    calls = _count_calls(monkeypatch, exactla, ("det_bareiss",))
    assert all(check(mt).passed for check in PRODUCT_CHECKS.values())
    assert all(r.passed for r in evaluate_identities_at(mt, Fraction(2)))
    qmatrices.inverse_qB_formula(mt)
    assert calls["det_bareiss"] == 0


def test_identically_zero_bd_is_reported(monkeypatch, p5_random):
    # no input gives a zero peel; patched in, the product identity fails at
    # its proof point and the witness's residual in Z[q] replays
    monkeypatch.setattr(qmatrices, "bdq_recursive", lambda mt: ZERO)
    res = verify.check_inverse_qB(p5_random)
    w = res.witness
    assert not res.passed and w["identity"] == verify.IDENTITIES["inverse_qB"][0][0]
    lhs, rhs = _sides(p5_random, ZERO)[w["identity"]]
    residual = lhs[tuple(w["entry"])] - rhs[tuple(w["entry"])]
    assert Poly.from_json(w["residual_poly"]) == residual != ZERO
    assert residual.eval_at(int(w["point"])) == int(w["residual"])


def test_q1_properties_witness_replays(monkeypatch, p6_attach):
    real = qmatrices.inverse_B_q1

    def perturbed(mt):
        m = real(mt)
        rows = [list(row) for row in m.entries]
        rows[1][0] += 1
        return Matrix(rows, m.row_kind, m.col_kind)

    monkeypatch.setattr(qmatrices, "inverse_B_q1", perturbed)
    res = verify.check_q1_properties(p6_attach)
    assert not res.passed
    w = res.witness
    assert w["identity"] == "B . inverse_B = I at q=1"
    i, j = w["entry"]
    product = qmatrices.eval_matrix(qmatrices.build_qB(p6_attach), 1) @ perturbed(p6_attach)
    want = Fraction(int(i == j))
    assert (Fraction(w["got"]), Fraction(w["want"])) == (product[i, j], want)
    assert Fraction(w["got"]) - Fraction(w["want"]) == Fraction(w["residual"]) != 0


def test_q1_properties_witness_with_a_new_denominator(monkeypatch, p6_attach):
    # an inverse_B_q1 entry off by 1/7 brings in a denominator no other entry
    # has: the witness is still the Fraction product's first wrong entry
    real = qmatrices.inverse_B_q1
    monkeypatch.setattr(qmatrices, "inverse_B_q1",
                        lambda mt: _bump(real(mt), 1, 0, Fraction(1, 7)))
    product = (qmatrices.eval_matrix(qmatrices.build_qB(p6_attach), 1)
               @ qmatrices.inverse_B_q1(p6_attach))
    p = p6_attach.p
    i, j = next((i, j) for i in range(p) for j in range(p) if product[i, j] != (i == j))
    res = verify.check_q1_properties(p6_attach)
    assert res.witness == {"identity": "B . inverse_B = I at q=1", "entry": [i, j],
                           "got": str(product[i, j]), "want": str(Fraction(i == j)),
                           "residual": str(product[i, j] - (i == j))}
    assert Fraction(res.witness["got"]).denominator % 7 == 0


# -- the packed rows of matrix sides --------------------------------------------------


def _constant(rows):
    """A factor with these integer entries at every point."""
    return verify._poly_factor(Matrix([[Poly((c,)) for c in row] for row in rows],
                                      KIND_R, KIND_R))


def test_packed_width_holds_entries_at_the_bound():
    # A.M = N with ||A|| max|M| = max|N| = C: entries of both sides reach +-C,
    # and 4C = 2^16 - 8 fits two-byte digits, the least width for it
    h = 2**13 - 1
    factors = {
        "A": _constant([[1, 1], [0, 1]]),
        "M": _constant([[h, -h], [h, -h]]),
        "N": _constant([[2 * h, -2 * h], [h, -h]]),
        "N00": _constant([[-2 * h, -2 * h], [h, -h]]),
        "N01": _constant([[2 * h, 2 * h], [h, -h]]),
    }
    equations = [(f"A.M = {n}", [("A", "M")], [(n,)]) for n in ("N", "N00", "N01")]
    point = verify._Point(factors, Fraction(1), equations)
    assert point.width == exactla.pack_width(2 * h) == 2
    assert exactla.pack_width(2**14) == 3
    assert verify._mismatch(equations[:1], point) is None
    witnesses = [verify._mismatch([eq], point) for eq in equations[1:]]
    assert [(w["entry"], w["got"], w["want"], w["residual"]) for w in witnesses] == [
        ([0, 0], str(2 * h), str(-2 * h), str(4 * h)),
        ([0, 1], str(-2 * h), str(2 * h), str(-4 * h)),
    ]


def test_bound_of_a_matrix_times_a_vector_takes_its_row_sums():
    # M.v with M all ones and v = (1, 1) has entries 2 = ||M|| max|v|, where
    # max|M| max|v| is 1: only a column vector's row sums are its entries
    factors = {"M": _constant([[1, 1], [1, 1]]),
               "v": verify._poly_factor(exactla.Vector((ONE, ONE), KIND_R))}
    point = verify._Point(factors, Fraction(1), [])
    assert point.bound(("M", "v"), 0) == 2
    assert point.bound(("v", "v"), 0) == 1


def test_point_engine_builds_no_matrix_per_point(monkeypatch):
    # at a point qL and I are kept as their nonzeros and qB and E as tables of
    # values by distance: the Matrices built are the tree's, whatever the points
    mt = treecore.random_nonsingular(30, 1)
    built = _count_calls(monkeypatch, exactla.Matrix, ("__init__",))
    counts = []
    for points in (verify.DEFAULT_Q_POINTS[:1], verify.DEFAULT_Q_POINTS):
        built.clear()
        assert all(r.passed for r in evaluate_identities_at(mt, *points))
        counts.append(built["__init__"])
    assert counts[0] == counts[1]


def test_point_engine_multiplies_no_dense_matrices(monkeypatch):
    # qL.qB and qL.E are taken on packed rows, never as exactla.mat_mul products
    mt = treecore.random_nonsingular(60, 1)
    calls = _count_calls(monkeypatch, exactla, ("mat_mul",))
    assert all(r.passed for r in evaluate_identities_at(mt, *verify.DEFAULT_Q_POINTS))
    assert calls["mat_mul"] == 0
