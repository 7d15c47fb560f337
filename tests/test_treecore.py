import hashlib
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    PathKind,
    all_perfect_matchings,
    classify_path,
    count_nonsingular_prufer,
    is_tree,
    min_rooting_code,
    peel,
    permute_pairs,
    relabel_vertices,
    sub_matched_tree,
    two_walk_code,
)
from qbip import treecore
from qbip.treecore import (
    MatchedTree,
    NotATree,
    NotNonsingular,
    Tree,
    attach_p2,
    canonical_code,
    detach_p2,
    diff,
    distances,
    enumerate_nonsingular,
    enumerate_upto,
    perfect_matching,
    random_nonsingular,
    standard_labeling,
)

# counts of isomorphism classes of nonsingular trees per p, fixed beforehand
# by the Prufer oracle (p <= 4) and the networkx generator (p <= 6)
NONSINGULAR_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 49}


# -- parsing -------------------------------------------------------------------


def test_parse_single_edge():
    t = Tree([[0, 1]])
    assert t.n == 2
    assert t.edges == ((0, 1),)


def test_parse_path():
    t = Tree([[0, 1], [1, 2], [2, 3]])
    assert t.n == 4
    assert t.degree(1) == 2


@pytest.mark.parametrize(
    "edges",
    [
        [[0, 1], [2, 3]],              # disconnected
        [[0, 1], [1, 2], [2, 0]],      # cycle
        [[0, 0]],                      # self-loop
        [[0, 1], [1, 0]],              # duplicate
        [[0, 2]],                      # id gap
        [],                            # empty
        [[0, 1], [1, 2], [2, 1]],      # a repeat among valid edges
        [[0, 1], [1, 1], [1, 2]],      # a self-loop in a longer list
        [[0, 1], [1, 3]],              # id n with n - 1 edges
        [[0, 1], [True, 2]],           # bool id
        [[0, 1, 2]],                   # three ids in one edge
        [[0, 1], 5],                   # an edge that is no pair
        [[0, 1], ["1", 2]],            # str and int ids in one edge
        [[0, 1], ["1", "2"]],          # str ids beside int ones
    ],
)
def test_parse_rejects_non_trees(edges):
    with pytest.raises(NotATree):
        Tree(edges)


@st.composite
def _near_miss_edges(draw):
    """Edges of a random tree on 2..8 vertices, often spoilt, then shuffled
    with some pairs flipped."""
    n = draw(st.integers(2, 8))
    perm = draw(st.permutations(range(n)))
    edges = [[perm[draw(st.integers(0, i - 1))], perm[i]] for i in range(1, n)]
    i = draw(st.integers(0, n - 2))
    ids = st.integers(-1, n + 1) | st.sampled_from([True, False, 1.5, "0", None])
    spoil = draw(st.sampled_from(["none", "pair", "drop", "extra", "repeat", "loop"]))
    if spoil == "pair":
        edges[i] = draw(st.lists(ids, max_size=3))
    elif spoil == "drop":
        del edges[i]
    elif spoil == "extra":
        edges.append(draw(st.lists(ids, min_size=2, max_size=2)))
    elif spoil == "repeat":
        edges.append(list(edges[i]))
    elif spoil == "loop":
        edges[i] = [edges[i][0]] * 2
    edges = draw(st.permutations(edges))
    return [e[::-1] if draw(st.booleans()) else e for e in edges]


@settings(max_examples=500, deadline=None)
@given(_near_miss_edges())
def test_tree_accepts_exactly_the_trees(edges):
    try:
        t = Tree(edges)
    except NotATree:
        assert not is_tree({"edges": edges}), edges
        return
    assert is_tree({"edges": edges}), edges
    pairs = {tuple(sorted(e)) for e in edges}
    for v, nbrs in enumerate(t.adj):
        assert list(nbrs) == sorted({w for e in pairs if v in e for w in e if w != v})
    normal = Tree(sorted(pairs))
    assert (t.n, t.edges, t.adj) == (normal.n, normal.edges, normal.adj)


# -- perfect matching ----------------------------------------------------------


def test_matching_p2_forced():
    assert perfect_matching(Tree([[0, 1]])) == ((0, 1),)


def test_matching_p4_unique_vs_bruteforce():
    t = Tree([[0, 1], [1, 2], [2, 3]])
    assert perfect_matching(t) == ((0, 1), (2, 3))
    assert all_perfect_matchings(t.n, t.edges) == [((0, 1), (2, 3))]


def test_matching_star_fails():
    with pytest.raises(NotNonsingular):
        perfect_matching(Tree([[0, 1], [0, 2], [0, 3]]))


def test_matching_agrees_with_bruteforce_up_to_ten_vertices():
    for n in range(2, 11):
        for g in nx.nonisomorphic_trees(n):
            edges = [tuple(sorted(e)) for e in g.edges()]
            t = Tree(edges)
            brute = all_perfect_matchings(n, edges)
            assert len(brute) <= 1  # trees have at most one perfect matching
            try:
                found = perfect_matching(t)
            except NotNonsingular:
                found = None
            assert (found is None) == (not brute)
            if brute:
                assert found == brute[0]


# -- standard labeling -----------------------------------------------------------


def test_labeling_p2():
    mt = standard_labeling(Tree([[0, 1]]))
    assert mt.pairs == ((0, 1),)
    assert mt.side_of[0] == "L"


def test_labeling_p4_path():
    mt = standard_labeling(Tree([[0, 1], [1, 2], [2, 3]]))
    assert mt.l_vertices == (0, 2)
    assert mt.r_vertices == (1, 3)


def test_labeling_p6_path():
    mt = standard_labeling(Tree([[i, i + 1] for i in range(5)]))
    assert mt.pairs == ((0, 1), (2, 3), (4, 5))


def test_matched_tree_rejects_bad_pairs():
    t = Tree([[0, 1], [1, 2], [2, 3]])
    with pytest.raises(NotNonsingular):
        MatchedTree(t, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(NotNonsingular):
        MatchedTree(t, [(0, 1), (3, 2)])  # sides don't 2-color (3 next to 2)


@pytest.mark.parametrize("pairs", [
    [(0, 2), (1, 3)],  # not an edge
    [(0, 1), (-1, 2)],  # -1 would index the last vertex's neighbours
    [(0, 1), (4, 3)],  # n is past the last vertex
])
def test_matched_tree_rejects_pairs_that_are_not_edges(pairs):
    with pytest.raises(NotNonsingular):
        MatchedTree(Tree([[0, 1], [1, 2], [2, 3]]), pairs)


# -- distances --------------------------------------------------------------------


def test_distances_p2(p2):
    assert distances(p2.tree)[0][1] == 1


def test_distances_p4(p4_path):
    d = distances(p4_path.tree)
    assert d[p4_path.l_vertex(0)][p4_path.r_vertex(1)] == 3
    assert d[p4_path.l_vertex(1)][p4_path.r_vertex(0)] == 1


def _nx_distances(tree: Tree) -> list:
    lengths = dict(nx.all_pairs_shortest_path_length(nx.Graph(tree.edges)))
    return [[lengths[u][v] for v in range(tree.n)] for u in range(tree.n)]


def _assert_distances_match_networkx(tree: Tree):
    rows = distances(tree)
    assert rows == _nx_distances(tree)
    # each row is a list of its own, though rows are built from their parents'
    assert len(set(map(id, rows))) == tree.n


def test_distances_match_networkx_at_every_root_up_to_ten_vertices():
    # distances walks from vertex 0: swapping 0 with each vertex r roots every
    # tree with n <= 10 at every vertex
    for n in range(2, 11):
        for g in nx.nonisomorphic_trees(n):
            for r in range(n):
                swap = {0: r, r: 0}
                _assert_distances_match_networkx(
                    Tree([(swap.get(u, u), swap.get(v, v)) for u, v in g.edges()]))


@pytest.mark.parametrize("edges", [
    [(i, i + 1) for i in range(799)],  # the deepest: every subtree a suffix
    [(0, i) for i in range(1, 300)],  # the shallowest: every subtree one leaf
    [(i, 299) for i in range(299)],  # a star rooted at a leaf
])
def test_distances_match_networkx_on_a_path_and_stars(edges):
    _assert_distances_match_networkx(Tree(edges))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_distances_match_networkx_on_random_trees(seed):
    _assert_distances_match_networkx(random_nonsingular(60, seed).tree)


def test_matching_pairs_at_distance_one():
    for p in range(1, 5):
        for mt in enumerate_nonsingular(p):
            d = distances(mt.tree)
            assert all(d[l][r] == 1 for l, r in mt.pairs)


# -- path classification -----------------------------------------------------------


def test_classify_adjacent_non_matching(p4_path):
    got = classify_path(p4_path, p4_path.r_vertex(0), p4_path.l_vertex(1))
    assert got.kind is PathKind.NOT_ALTERNATING
    assert got.adjacent and not got.matching_edge


def test_classify_even_alternating(p4_path):
    got = classify_path(p4_path, p4_path.l_vertex(0), p4_path.r_vertex(1))
    assert got.kind is PathKind.EVEN_ALTERNATING
    assert not got.adjacent


def test_classify_matching_edge_is_odd(p4_path):
    for l, r in p4_path.pairs:
        got = classify_path(p4_path, l, r)
        assert got.kind is PathKind.ODD_ALTERNATING
        assert got.adjacent and got.matching_edge


def test_classification_total_and_exclusive():
    # the walker and the bulk reachability map must agree everywhere, and a
    # length-1 path is odd alternating exactly for matching pairs
    for p in range(1, 5):
        for mt in enumerate_nonsingular(p):
            d = distances(mt.tree)
            for v in range(mt.tree.n):
                reach = treecore.alternating_reach(mt.tree.adj, mt.partner, v)
                for u in range(mt.tree.n):
                    if u == v or mt.side_of[u] == mt.side_of[v]:
                        continue
                    got = classify_path(mt, v, u)
                    if u in reach:
                        want = (
                            PathKind.ODD_ALTERNATING
                            if reach[u] % 2
                            else PathKind.EVEN_ALTERNATING
                        )
                        assert got.kind is want
                    else:
                        assert got.kind is PathKind.NOT_ALTERNATING
                    assert got.adjacent == (d[v][u] == 1)
                    assert got.matching_edge == (
                        got.adjacent and mt.index_of[u] == mt.index_of[v]
                    )
                    if got.adjacent and got.kind is PathKind.ODD_ALTERNATING:
                        assert got.matching_edge


# -- diff ---------------------------------------------------------------------------


def _diff(mt, v):
    return diff(mt.tree.adj, mt.partner, v)


def test_diff_p2(p2):
    assert _diff(p2, p2.l_vertex(0)) == -1
    assert _diff(p2, p2.r_vertex(0)) == -1


def test_diff_p4_attach(p4_attach):
    assert _diff(p4_attach, p4_attach.l_vertex(0)) == -1
    assert _diff(p4_attach, p4_attach.r_vertex(0)) == 0
    assert _diff(p4_attach, p4_attach.l_vertex(1)) == 0
    assert _diff(p4_attach, p4_attach.r_vertex(1)) == -1


def test_diff_p4_path_multiset(p4_path):
    values = sorted(_diff(p4_path, v) for v in range(4))
    assert values == [-1, -1, 0, 0]


def test_diff_of_leaf_counts_its_matching_edge():
    for p in range(1, 5):
        for mt in enumerate_nonsingular(p):
            for v in range(mt.tree.n):
                if mt.tree.degree(v) == 1:
                    reach = treecore.alternating_reach(mt.tree.adj, mt.partner, v)
                    assert reach[mt.partner[v]] == 1  # odd, so A- is nonempty


# -- attach / detach -----------------------------------------------------------------


def test_attach_at_l_side(p2):
    p4 = attach_p2(p2, p2.l_vertex(0))
    # new bridging vertex is r2 adjacent to l1, new leaf is l2
    assert p4.pairs == ((0, 1), (3, 2))
    assert (0, 2) in p4.tree.edges
    assert p4.tree.degree(3) == 1


def test_attach_at_r_side(p2):
    p4 = attach_p2(p2, p2.r_vertex(0))
    assert p4.pairs == ((0, 1), (2, 3))
    assert (1, 2) in p4.tree.edges


def test_attach_gives_p6(p4_attach):
    p6 = attach_p2(p4_attach, p4_attach.l_vertex(1))
    assert p6.p == 3
    assert sorted(p6.tree.degree(v) for v in range(6)) == [1, 1, 2, 2, 2, 2]


def test_attach_preserves_standard_labeling():
    rng = random.Random(5)
    mt = treecore.random_nonsingular(1, 0)
    for _ in range(6):
        mt = attach_p2(mt, rng.randrange(mt.tree.n))
        assert mt == standard_labeling(mt.tree)


def _detach(mt):
    """(lists, site): one detach_p2 call on a copy of mt's lists."""
    adj = [list(row) for row in mt.tree.adj]
    return adj, detach_p2(adj)


def _compacted(adj, pairs):
    """(lists, pairs, relabel): the non-empty lists and the pairs on them,
    their vertices compacted to 0.. in id order by relabel."""
    relabel = {old: new for new, old in enumerate(v for v, row in enumerate(adj) if row)}
    return (tuple(tuple(map(relabel.__getitem__, row)) for row in adj if row),
            tuple((relabel[l], relabel[r]) for l, r in pairs if adj[l]), relabel)


def _matched(adj, pairs):
    """The validated MatchedTree of neighbour lists and pairs."""
    return MatchedTree(Tree([(u, v) for u, row in enumerate(adj) for v in row if u < v]),
                       pairs)


def _emptied(adj, pairs):
    return [pair for pair in pairs if not adj[pair[0]] and not adj[pair[1]]]


def test_detach_p4(p4_attach):
    adj, site = _detach(p4_attach)
    assert sum(map(bool, adj)) == 2
    # smallest eligible leaf is vertex 1, i.e. pair 0
    assert _emptied(adj, p4_attach.pairs) == [p4_attach.pairs[0]]
    assert site in p4_attach.pairs[1]


def test_detach_p6(p6_attach):
    adj, site = _detach(p6_attach)
    assert len(_emptied(adj, p6_attach.pairs)) == 1
    assert len(adj[site]) in (1, 2)


def test_detach_then_attach_round_trip():
    # detach reports its site, so regrowing there recovers the tree shape
    trees = [mt for p in range(2, 6) for mt in enumerate_nonsingular(p)]
    for mt in trees + [random_nonsingular(40, 3)]:
        adj, site = _detach(mt)
        lists, pairs, relabel = _compacted(adj, mt.pairs)
        regrown = attach_p2(_matched(lists, pairs), relabel[site])
        assert canonical_code(regrown.tree) == canonical_code(mt.tree)


def test_detach_requires_p_at_least_two(p2):
    with pytest.raises(ValueError):
        _detach(p2)


def test_detach_changes_only_the_lists_it_names():
    # the emptied pair's two lists and the site's, from which u goes; the
    # other lists are left as they were, and stay the same objects
    for mt in [mt for mt in enumerate_upto(10) if mt.p > 1] + [random_nonsingular(30, 4)]:
        before = mt.tree.adj
        adj = [list(row) for row in before]
        rows = list(adj)
        site = detach_p2(adj)
        [(l, r)] = _emptied(adj, mt.pairs)
        u = r if len(before[l]) == 1 else l
        assert adj[l] == adj[r] == []
        assert adj[site] == [x for x in before[site] if x != u] != list(before[site])
        assert all(adj[v] == list(before[v]) and adj[v] is rows[v]
                   for v in range(mt.tree.n) if v not in (l, r, site))


def test_list_peel_steps_as_the_object_peel():
    # every tree with 2p <= 12, as enumerated and with its vertex ids and pair
    # order shuffled, and random trees at p = 60, peeled down to one pair: at
    # each step detach_p2's non-empty lists, compacted in id order, and the
    # pairs left are the validated smaller tree's, and its site and emptied
    # pair are the site and removed pair as the oracle peels it
    rng = random.Random(22)
    trees = [random_nonsingular(60, seed) for seed in (1, 2, 3)]
    for mt in enumerate_upto(12):
        trees += [mt, permute_pairs(relabel_vertices(mt, rng.sample(range(mt.tree.n), mt.tree.n)),
                                    rng.sample(range(mt.p), mt.p))]
    for mt in trees:
        adj, obj = [list(row) for row in mt.tree.adj], mt
        while obj.p > 1:
            pairs = [pair for pair in mt.pairs if adj[pair[0]]]
            site = detach_p2(adj)
            lists, kept, relabel = _compacted(adj, mt.pairs)
            obj, obj_site, obj_removed = peel(obj)
            assert (lists, kept, relabel[site], _emptied(adj, pairs)) == (
                obj.tree.adj, obj.pairs, obj_site, [pairs[obj_removed]])


# -- enumeration ----------------------------------------------------------------------


@pytest.mark.parametrize("p,count", sorted(NONSINGULAR_COUNTS.items()))
def test_enumeration_counts(p, count):
    trees = enumerate_nonsingular(p)
    assert len(trees) == count
    # coded afresh: canonical_code would read the code the enumeration stored
    codes = [treecore._code(t.tree.adj) for t in trees]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_nonsingular(0)
    with pytest.raises(ValueError):
        enumerate_nonsingular(9)


def test_enumeration_deterministic():
    a = [t.to_json() for t in enumerate_nonsingular(4)]
    b = [t.to_json() for t in enumerate_nonsingular(4)]
    assert a == b


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_enumeration_matches_prufer_oracle(n):
    assert len(enumerate_nonsingular(n // 2)) == count_nonsingular_prufer(n)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_enumeration_matches_networkx_oracle(n):
    count = 0
    for g in nx.nonisomorphic_trees(n):
        if all_perfect_matchings(n, [tuple(sorted(e)) for e in g.edges()]):
            count += 1
    assert len(enumerate_nonsingular(n // 2)) == count


# -- randomized generator ---------------------------------------------------------------


def test_random_p1_is_p2():
    mt = random_nonsingular(1, 12345)
    assert mt.pairs == ((0, 1),)


def test_random_deterministic():
    a = random_nonsingular(5, 7)
    b = random_nonsingular(5, 7)
    assert a == b


def test_random_large_is_valid():
    mt = random_nonsingular(100, 1)
    assert mt.p == 100
    assert mt == standard_labeling(mt.tree)  # invariants re-derived


# -- canonical codes ----------------------------------------------------------------------


def test_code_isomorphism_invariance():
    t1 = Tree([[0, 1], [1, 2], [2, 3]])
    t2 = Tree([[3, 1], [1, 0], [0, 2]])  # same shape, shuffled names
    assert canonical_code(t1) == canonical_code(t2)


def test_code_separates_the_six_vertex_classes():
    codes = {
        canonical_code(t.tree): t for t in enumerate_nonsingular(3)
    }
    assert len(codes) == 2


def test_code_stable_across_runs():
    t = Tree([[i, i + 1] for i in range(5)])
    assert canonical_code(t) == canonical_code(t)


def test_code_agrees_with_independent_canonical_form():
    # same partition into classes as the min-over-all-rootings oracle
    for n in (6, 8):
        by_pkg = {}
        by_oracle = {}
        for g in nx.nonisomorphic_trees(n):
            edges = [tuple(sorted(e)) for e in g.edges()]
            by_pkg.setdefault(canonical_code(Tree(edges)), []).append(edges)
            by_oracle.setdefault(min_rooting_code(n, edges), []).append(edges)
        assert len(by_pkg) == len(by_oracle)
        for group in by_pkg.values():
            assert len(group) == 1


def test_code_invariant_under_relabeling():
    rng = random.Random(9)
    for p in (2, 3, 4):
        for mt in enumerate_nonsingular(p):
            ids = list(range(mt.tree.n))
            rng.shuffle(ids)
            mapping = dict(enumerate(ids))
            shuffled = relabel_vertices(mt, mapping)
            assert canonical_code(shuffled.tree) == canonical_code(mt.tree)


# -- relabeling helpers ----------------------------------------------------------------------


def test_permute_pairs_keeps_structure(p4_attach):
    swapped = permute_pairs(p4_attach, [1, 0])
    assert swapped.pairs == (p4_attach.pairs[1], p4_attach.pairs[0])
    assert swapped.side_of == p4_attach.side_of


def test_sub_matched_tree(p6_attach):
    sub, mapping = sub_matched_tree(p6_attach, [1, 2])
    assert sub.p == 2
    assert set(mapping) == set(
        p6_attach.pairs[1] + p6_attach.pairs[2]
    )
    # sub_lists gives the same tree's lists and pairs without building it
    adj, pairs = treecore.sub_lists(p6_attach, [1, 2])
    assert (tuple(map(tuple, adj)), tuple(pairs)) == (sub.tree.adj, sub.pairs)


# -- JSON ---------------------------------------------------------------------------------------


def test_matched_tree_json_round_trip(p4_attach):
    data = json.loads(json.dumps(p4_attach.to_json()))
    assert MatchedTree.from_json(data) == p4_attach
    assert data["labels"]["L"] == [0, 3]
    assert data["labels"]["R"] == [1, 2]


def test_json_rejects_inconsistent_matching(p4_attach):
    data = p4_attach.to_json()
    data["matching"] = [[0, 2], [1, 3]]
    with pytest.raises(NotNonsingular):
        MatchedTree.from_json(data)


def test_tree_json_edges_sorted():
    t = Tree([[2, 1], [0, 1], [2, 3]])
    assert t.to_json() == {"edges": [[0, 1], [1, 2], [2, 3]]}


def test_enumerate_upto_is_every_level():
    assert list(enumerate_upto(6)) == [t for p in (1, 2, 3) for t in enumerate_nonsingular(p)]
    for bad in (0, 7, 18):
        with pytest.raises(ValueError):
            enumerate_upto(bad)


def test_enumerate_upto_builds_each_level_once(monkeypatch):
    # level k is grown once: each of its trees codes its 2k candidates, sum
    # over k = 1..7 of 2k * |level k| with levels 1, 1, 2, 5, 15, 49, 180 is
    # 3316; only the first candidate of each code is built, one per tree of
    # levels 2..8: 1 + 2 + 5 + 15 + 49 + 180 + 701 = 953
    coded, built = [], []
    grown_codes, attach = treecore._grown_codes, attach_p2

    def counted_codes(adj):
        for v, code in grown_codes(adj):
            coded.append(len(adj))
            yield v, code

    def counted_attach(mt, v):
        built.append(v)
        return attach(mt, v)

    monkeypatch.setattr(treecore, "_grown_codes", counted_codes)
    monkeypatch.setattr(treecore, "attach_p2", counted_attach)
    # whichever level is memoised, the walk from level 1 up rebuilds each once
    assert len(list(enumerate_upto(16))) == 954
    assert (len(coded), len(built)) == (3316, 953)


def test_candidate_codes_equal_the_two_walk_reference():
    # every candidate of every tree to p = 7, the P2 parent first (its new
    # vertex n is a centroid of P4), and of random parents to p = 60
    parents = [t for p in range(1, 8) for t in enumerate_nonsingular(p)]
    parents += [random_nonsingular(p, s) for p in (9, 20, 33, 60) for s in (1, 2, 3)]
    assert parents[0].p == 1 and len(parents) == 253 + 12
    bicentroid = 0
    for t in parents:
        want = {}
        for v, adj in treecore.grown_lists(t.tree.adj):
            want[v] = two_walk_code(adj)
            bicentroid += _cut_in_halves(adj)
        assert dict(treecore._grown_codes(t.tree.adj)) == want
    assert bicentroid > 1000
    for p in (1, 2, 7, 30, 60):
        for s in (1, 2, 3):
            tree = Tree(random_nonsingular(p, s).tree.edges)
            assert canonical_code(tree) == two_walk_code(tree.adj)


def _cut_in_halves(adj):
    # a tree has two centroids exactly when one edge cuts it into halves
    parent, order = {0: None}, [0]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    size = dict.fromkeys(order, 1)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    return any(2 * size[x] == len(adj) for x in order[1:])


def test_candidates_are_coded_on_their_neighbour_lists():
    # reference: build every candidate, keep the first tree of each code
    for p in range(1, 7):
        level = {}
        for t in enumerate_nonsingular(p):
            n = t.tree.n
            for v in range(n):
                adj = [list(a) for a in t.tree.adj] + [[v, n + 1], [n]]
                adj[v].append(n)
                grown = attach_p2(t, v)
                assert treecore._code(adj) == canonical_code(grown.tree)
                level.setdefault(canonical_code(grown.tree), grown)
        want = [t for _, t in sorted(level.items())]
        assert [t.to_json() for t in enumerate_nonsingular(p + 1)] == [t.to_json() for t in want]


@pytest.mark.parametrize("p", [7, 8])  # p <= 6: test_enumeration_counts
def test_enumeration_codes_strictly_increase(p):
    codes = [treecore._code(t.tree.adj) for t in enumerate_nonsingular(p)]
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_p8_codes_are_frozen():
    # sha256 of the 701 sorted codes joined by newlines, recorded from an
    # earlier implementation of the coding: a change that renames a class shows
    codes = sorted(treecore._code(t.tree.adj) for t in enumerate_nonsingular(8))
    assert len(codes) == 701
    assert hashlib.sha256(b"\n".join(codes)).hexdigest() == (
        "eb5740754bc21976ec5204c0d1808aeafa2e79959370873598294d8428775c75")


def test_stored_codes_equal_a_fresh_coding():
    # the code each enumerated tree carries is its own lists' code, and that
    # of the same tree read back from its JSON, which is coded on first read
    for t in enumerate_upto(16):
        assert t.p == 1 or t.tree.code is not None  # stored by the enumeration
        reread = MatchedTree.from_json(t.to_json()).tree
        assert reread.code is None
        assert canonical_code(t.tree) == treecore._code(t.tree.adj) == canonical_code(reread)


def test_canonical_code_codes_each_tree_once(monkeypatch):
    calls, code = [], treecore._code
    monkeypatch.setattr(treecore, "_code", lambda adj: calls.append(adj) or code(adj))
    tree = Tree([(0, 1), (1, 2), (2, 3)])
    first = canonical_code(tree)
    assert canonical_code(tree) is first is tree.code and len(calls) == 1
    # an enumerated tree's code was computed by its enumeration, none after
    trees = list(enumerate_upto(16))[1:]
    calls.clear()
    assert [canonical_code(t.tree) for t in trees] == [t.tree.code for t in trees]
    assert calls == []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumeration_cold_equals_after_the_level_below(p):
    enumerate_nonsingular.cache_clear()
    cold = enumerate_nonsingular(p)
    enumerate_nonsingular.cache_clear()
    enumerate_nonsingular(p - 1)
    warm = enumerate_nonsingular(p)
    assert isinstance(cold, tuple) and warm is not cold
    assert [t.to_json() for t in warm] == [t.to_json() for t in cold]
