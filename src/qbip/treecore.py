"""Trees with perfect matchings: labeling, alternating paths, and enumeration.

A tree on 2p vertices with a perfect matching (necessarily unique) is held as
a MatchedTree: the underlying tree, the matching as an ordered list of pairs
(l_i, r_i), and the induced bipartition sides.  Pair order is the labeling
authority for every matrix built downstream.

The alternation convention used throughout: a u-v path is alternating when its
edges strictly alternate matching / non-matching AND both terminal edges are
matching edges.  Consequently every alternating path starts with the matching
edge at its endpoint, has k matching and k-1 non-matching edges, and joins
opposite sides.  Odd/even refers to the parity of k.
"""

from __future__ import annotations

import functools
import random


class NotATree(ValueError):
    pass


class NotNonsingular(ValueError):
    """The tree has no perfect matching."""


class Tree:
    """Connected acyclic graph on vertices 0..n-1, held immutably.

    n - 1 distinct edges (u, v) with 0 <= u < v < n that reach every vertex
    form a tree.  So the edges are sorted once, n is their count plus one, and
    the only checks are those ids, a repeat of the edge before, and one walk
    from 0 that must reach all n vertices.  Its one derived field, ``code``,
    is the canonical code: None until ``canonical_code`` first reads it off
    one rooted walk of the lists, or until enumeration stores the code it
    read off the parent tree's walk, patched on the path from the new pair
    to 0.
    """

    __slots__ = ("n", "edges", "adj", "code")

    def __init__(self, edges):
        try:
            edges = sorted(tuple(sorted(e)) for e in edges)
        except TypeError:
            raise NotATree("edges must be a list of vertex-id pairs") from None
        if not edges:
            raise NotATree("a tree needs at least one edge here")
        n = len(edges) + 1
        adj = [[] for _ in range(n)]
        prev = None
        for e in edges:
            # type(), not isinstance(): a bool is not a vertex id
            if len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int \
                    or not 0 <= e[0] < e[1] < n:
                raise NotATree(f"bad edge {e}: {n - 1} edges need two distinct "
                               f"integer ids in 0..{n - 1} each")
            if e == prev:
                raise NotATree(f"repeated edge {e}")
            u, v = prev = e
            # sorted edges list each vertex's smaller neighbors, then its
            # larger ones, both ascending
            adj[u].append(v)
            adj[v].append(u)
        if len(bfs(adj, 0)[0]) != n:
            raise NotATree("graph is disconnected")
        self.n = n
        self.edges = tuple(edges)
        self.adj = tuple(map(tuple, adj))
        self.code = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data) -> "Tree":
        if not isinstance(data, dict) or "edges" not in data:
            raise NotATree('tree JSON must be an object with an "edges" list')
        return cls(data["edges"])


def perfect_matching(tree: Tree):
    """The unique perfect matching, greedily from the leaves up.

    In reversed BFS order from 0 each vertex comes after its children.  One
    that no child took can only match its parent, so it takes it; at the
    root, or with the parent taken by a sibling, no perfect matching exists.
    """
    order, parent = bfs(tree.adj, 0)
    mate = [-1] * tree.n + [tree.n]  # slot n, the root's parent, is never free
    for v in reversed(order):
        if mate[v] < 0:
            u = parent[v]
            if mate[u] >= 0:
                raise NotNonsingular(f"vertex {v} left unmatched")
            mate[u], mate[v] = v, u
    return tuple((v, u) for v, u in enumerate(mate[:-1]) if v < u)


class MatchedTree:
    """A nonsingular tree with an ordered standard labeling.

    pairs[i] = (l, r) is the i-th matching pair (paper-style index i+1); the
    set of first components is the L side.
    """

    __slots__ = ("tree", "pairs", "side_of", "index_of", "partner")

    def __init__(self, tree: Tree, pairs):
        pairs = tuple((l, r) for l, r in pairs)
        if any(type(l) is not int or type(r) is not int for l, r in pairs):
            raise NotATree("matching pairs must hold integer vertex ids")
        if tree.n != 2 * len(pairs):
            raise NotNonsingular("pair list does not cover the tree")
        side = {}
        index = {}
        partner = [0] * tree.n
        for i, (l, r) in enumerate(pairs):
            # range guard first: adj[-1] would wrap and adj[n] would raise
            if not (0 <= min(l, r) and max(l, r) < tree.n and r in tree.adj[l]):
                raise NotNonsingular(f"pair {(l, r)} is not an edge")
            side[l] = "L"
            side[r] = "R"
            index[l] = i
            index[r] = i
            partner[l] = r
            partner[r] = l
        if len(side) != tree.n:
            raise NotNonsingular("pairs overlap or miss vertices")
        for u, v in tree.edges:
            if side[u] == side[v]:
                raise NotNonsingular("pair sides do not 2-color the tree")
        self.tree = tree
        self.pairs = pairs
        self.side_of = side
        self.index_of = index
        self.partner = tuple(partner)  # partner[v]: v's matched vertex

    @property
    def p(self) -> int:
        return len(self.pairs)

    def l_vertex(self, i: int) -> int:
        return self.pairs[i][0]

    def r_vertex(self, i: int) -> int:
        return self.pairs[i][1]

    @property
    def l_vertices(self):
        return tuple(l for l, _ in self.pairs)

    @property
    def r_vertices(self):
        return tuple(r for _, r in self.pairs)

    def matching_edges(self):
        return tuple(sorted(tuple(sorted(p)) for p in self.pairs))

    def __eq__(self, other):
        if not isinstance(other, MatchedTree):
            return NotImplemented
        return self.tree == other.tree and self.pairs == other.pairs

    def __repr__(self):
        return f"MatchedTree(p={self.p}, pairs={list(self.pairs)})"

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.tree.edges],
            "matching": [list(e) for e in self.matching_edges()],
            "labels": {
                "L": list(self.l_vertices),
                "R": list(self.r_vertices),
            },
        }

    @classmethod
    def from_json(cls, data) -> "MatchedTree":
        """MatchedTree from tree JSON, the shape ``to_json`` writes.

        ``edges`` is required.  ``labels`` ({"L": [...], "R": [...]}) fixes
        the pair order and needs ``matching`` beside it; without ``labels``
        the standard labeling is derived, and a ``matching`` given alone must
        be the tree's perfect matching.  Any other shape raises NotATree or
        NotNonsingular naming the field.
        """
        tree = Tree.from_json(data)
        matching = data.get("matching", [])
        if not (isinstance(matching, list) and all(
                isinstance(e, list) and all(type(v) is int for v in e) for e in matching)):
            raise NotATree('"matching" must be a list of vertex-id pairs')
        if "labels" not in data:
            mt = standard_labeling(tree)
        elif "matching" not in data:
            raise NotATree('"labels" needs a "matching" list beside it')
        else:
            labels = data["labels"]
            if not (isinstance(labels, dict) and isinstance(labels.get("L"), list)
                    and isinstance(labels.get("R"), list)
                    and len(labels["L"]) == len(labels["R"])):
                raise NotATree('"labels" must map "L" and "R" to vertex lists of one length')
            mt = cls(tree, zip(labels["L"], labels["R"]))
        declared = tuple(sorted(tuple(sorted(e)) for e in matching))
        if "matching" in data and declared != mt.matching_edges():
            raise NotNonsingular('"matching" is not the tree\'s perfect matching')
        return mt


def standard_labeling(tree: Tree) -> MatchedTree:
    """Canonical MatchedTree: vertex 0 on the L side, pairs by ascending L id;
    each other vertex's side is its parent's flipped, in one bfs from 0."""
    order, parent = bfs(tree.adj, 0)
    left = [True] * tree.n
    for x in order[1:]:
        left[x] = not left[parent[x]]
    return MatchedTree(tree, sorted((u, v) if left[u] else (v, u)
                                    for u, v in perfect_matching(tree)))


def distances(tree: Tree):
    """All-pairs distances: n rows in vertex order, each its own list.

    Row 0 is the depths from 0.  Every other vertex is one step further than
    its parent from all but its own subtree, a slice of the preorder, and one
    nearer to that: O(n^2) in all, with no walk from each vertex.
    """
    n = tree.n
    order, parent = bfs(tree.adj, 0)
    pre, stack = [], [0]
    while stack:
        x = stack.pop()
        pre.append(x)
        stack.extend(y for y in tree.adj[x] if y != parent[x])
    size, depth = [1] * (n + 1), [0] * n
    for x in reversed(order):
        size[parent[x]] += size[x]
    for x in order[1:]:
        depth[x] = depth[parent[x]] + 1
    rows = [depth] + [None] * (n - 1)
    for i in range(1, n):
        x = pre[i]
        up = rows[parent[x]]
        row = [d + 1 for d in up]
        for u in pre[i:i + size[x]]:
            row[u] = up[u] - 1
        rows[x] = row
    return rows


# ---------------------------------------------------------------------------
# alternating paths
# ---------------------------------------------------------------------------


def alternating_reach(adj, partner, v: int) -> dict[int, int]:
    """Endpoints of all alternating paths starting at v.

    The tree is given by its neighbour lists adj and its matching by
    partner, partner[x] being x's matched vertex: a MatchedTree's
    ``tree.adj`` and ``partner``, or the lists of a tree derived from one.
    Maps each reachable endpoint u to the number of matching edges on the
    alternating v-u path.  An alternating path from v must open with the
    matching edge at v, then each continuation is forced: one non-matching
    step followed by the new vertex's matching edge.  Single O(n) walk.
    """
    first = partner[v]
    reach = {first: 1}
    stack = [(first, 1)]
    while stack:
        x, k = stack.pop()
        px = partner[x]
        for w in adj[x]:
            if w == px:
                continue
            y = partner[w]
            if y not in reach:
                reach[y] = k + 1
                stack.append((y, k + 1))
    return reach


def diff(adj, partner, v: int) -> int:
    """Even-minus-odd count of alternating paths starting at v.

    The tree is given as to alternating_reach: neighbour lists adj and
    partner[x], x's matched vertex.  The length-0 path does not count.
    """
    reach = alternating_reach(adj, partner, v)
    return sum(1 if k % 2 == 0 else -1 for k in reach.values())


# ---------------------------------------------------------------------------
# growing and shrinking by one matched pair
# ---------------------------------------------------------------------------


def attach_p2(mt: MatchedTree, v: int) -> MatchedTree:
    """Attach a new matched pair at v: add u = n, w = n + 1 with edges [v,u], [u,w].

    The bridging vertex u lands on the side opposite v, the new leaf w on
    v's side, and the new pair takes the last index.  detach_p2 removes a
    pendant pair in place, not always this one.
    """
    n = mt.tree.n
    tree = Tree(list(mt.tree.edges) + [(v, n), (n, n + 1)])
    return MatchedTree(tree, list(mt.pairs) + [attached_pair(mt, v)])


def attached_pair(mt: MatchedTree, v: int) -> tuple:
    """The pair that attach_p2(mt, v) appends, (l, r) of u = n and w = n + 1."""
    n = mt.tree.n
    return (n + 1, n) if mt.side_of[v] == "L" else (n, n + 1)


def detach_p2(adj) -> int:
    """Remove a pendant matched pair in place, the ids of the rest kept.

    adj is a matched tree's neighbour lists as mutable lists: a copy of a
    MatchedTree's ``tree.adj``, or what earlier calls left of one.  The
    smallest-id leaf w whose neighbour u, its partner, has degree 2 (one
    exists for p >= 2: an endpoint of a longest path) goes with u: their
    lists are emptied and u leaves the list of its other neighbour, the
    site, which is returned; attach_p2 there regrows the tree up to
    isomorphism.  The tree's partner table holds for the vertices left, and
    the non-empty lists, still ascending, compacted in id order, are the
    smaller tree's.  It needs no check: a tree with a pendant matched pair
    removed is a tree, and the other pairs are a perfect matching of it.
    """
    w = next((v for v, row in enumerate(adj) if len(row) == 1 and len(adj[row[0]]) == 2), None)
    if w is None:
        raise ValueError("detach_p2 needs p >= 2")
    u = adj[w][0]
    a, b = adj[u]
    site = b if a == w else a
    adj[site].remove(u)
    del adj[w][:], adj[u][:]
    return site


def sub_lists(mt: MatchedTree, pair_indices) -> tuple:
    """(adj, pairs): the neighbour lists and pairs of mt restricted to the
    given pairs, their vertices compacted to 0.. in id order and the pairs
    in the given order.

    When the pairs induce a connected subtree the lists are that tree's and
    need no check: a connected induced subgraph of a tree is a tree, and the
    given pairs are a perfect matching of it.  The restricted edges are
    taken in mt's sorted order, so each list is ascending, as a Tree's own.
    """
    verts = {v for i in pair_indices for v in mt.pairs[i]}
    relabel = {old: new for new, old in enumerate(sorted(verts))}
    adj = [[] for _ in verts]
    for a, b in mt.tree.edges:
        if a in verts and b in verts:
            u, v = relabel[a], relabel[b]
            adj[u].append(v)
            adj[v].append(u)
    return adj, [(relabel[mt.pairs[i][0]], relabel[mt.pairs[i][1]]) for i in pair_indices]


def grown_lists(adj):
    """For each vertex v, (v, the neighbour lists of attach_p2 at v): the
    pendant pair n, n + 1 spliced in at v, with n = len(adj).

    The lists are attach_p2's tree's own (each stays ascending, as n and
    n + 1 exceed every old id), and a tree with a pendant path hung at one
    vertex is a tree, so they need no check.  One list is changed in place
    and yielded for every v: read it before the next step.
    """
    n = len(adj)
    lists = [*adj, None, (n,)]
    for v in range(n):
        lists[v], lists[n] = adj[v] + (n,), (v, n + 1)
        yield v, lists
        lists[v] = adj[v]


# ---------------------------------------------------------------------------
# canonical form and enumeration
# ---------------------------------------------------------------------------


def canonical_code(tree: Tree) -> bytes:
    """Canonical AHU encoding of the tree rooted at its centroid(s).

    Equal codes exactly characterize isomorphic trees.  The code is read off
    the neighbour lists alone by ``_code`` on the first call and kept as
    ``tree.code``: one rooted walk from 0, rerooted at each centroid.
    Enumeration codes each candidate by patching its parent's walk
    (``_grown_codes``) before building any Tree, and stores the code on each
    tree it keeps, so a tree of a shared level may have it filled in already.
    """
    if tree.code is None:
        tree.code = _code(tree.adj)
    return tree.code


def _code(adj) -> bytes:
    """Canonical AHU encoding of the tree with neighbour lists adj.

    A centroid minimises worst = max(heaviest child subtree, n - size), the
    largest component left when it is removed.  One walk from 0 (``_walk``)
    gives both, and every vertex's code rooted at 0; each centroid roots one
    encoding, read off that walk by ``_rerooted``, and with two the
    lexicographically smaller wins.
    """
    n = len(adj)
    parent, size, heaviest, kids, code = _walk(adj)
    return _centroid_code([max(h, n - s) for h, s in zip(heaviest[:n], size)],
                          parent, kids, code)


def bfs(adj, root):
    """(order, parent): the BFS order from root of the tree with neighbour
    lists adj, and each vertex's parent (len(adj) for the root).  The one
    rooted walk of the package: reversed(order) takes each vertex after its
    children, which are its neighbours but its parent."""
    parent = [-1] * len(adj)
    parent[root] = len(adj)
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def _walk(adj):
    """(parent, size, heaviest, kids, code) of the tree rooted at 0: each
    vertex's parent, subtree size, largest child subtree, its children's
    AHU codes sorted, and its own, "(" + those + ")".

    The reversed BFS order is a post-order, so every vertex is coded after
    its children, without recursion.  size, heaviest and kids have an extra
    slot, len(adj), the root's parent.
    """
    n = len(adj)
    order, parent = bfs(adj, 0)
    size, heaviest = [1] * (n + 1), [0] * (n + 1)
    kids, code = [[] for _ in range(n + 1)], [b""] * n
    for x in reversed(order):
        px = parent[x]
        size[px] += size[x]
        if size[x] > heaviest[px]:
            heaviest[px] = size[x]
        kids[x].sort()
        code[x] = c = b"(" + b"".join(kids[x]) + b")"
        kids[px].append(c)
    return parent, size, heaviest, kids, code


def _centroid_code(worst, parent, kids, code) -> bytes:
    """The smaller code rooted at a vertex of least worst, one or two."""
    least = min(worst)
    c = worst.index(least)
    first = _rerooted(c, parent, kids, code)
    if worst.count(least) == 1:
        return first
    return min(first, _rerooted(worst.index(least, c + 1), parent, kids, code))


def _rerooted(c, parent, kids, code) -> bytes:
    """AHU code of the tree rooted at c, from its walk rooted at 0.

    Only the vertices on the path 0 -> c change children when the root moves
    to c: each loses the next one on the path and gains the part above it.
    So that part is coded from 0 down, one list re-sorted per step.
    """
    path = [c]
    while path[-1]:
        path.append(parent[path[-1]])
    above = []
    for x, below in zip(path[:0:-1], path[-2::-1]):
        ks = kids[x] + above
        ks.remove(code[below])
        ks.sort()
        above = [b"(" + b"".join(ks) + b")"]
    ks = kids[c] + above
    ks.sort()
    return b"(" + b"".join(ks) + b")"


def _grown_codes(adj):
    """For each vertex v, (v, ``_code`` of the lists ``grown_lists`` yields
    at v), all read off one walk of adj.

    Rooted at 0, hanging the pair n, n + 1 at v gives new descendants only
    to the vertices on the path v -> 0, so only their sizes, heaviest
    children and codes change: v's children gain n's code (()), and each
    vertex above swaps its path child's old code for the new one.  The walk
    is patched there in place for v, coded and restored.  worst holds each
    old vertex's largest component in the grown tree, patched on the path.
    The new vertices are left out.  The leaf n + 1 leaves n + 1 > (n + 2) / 2
    vertices behind, so it is never a centroid; n leaves n, so it is one only
    when the parent is P2, and then v is the other centroid of the grown P4,
    with the same code.
    """
    n = len(adj)
    parent, size, heaviest, kids, code = _walk(adj)
    worst = [max(h, n + 2 - s) for h, s in zip(heaviest[:n], size)]
    for v in range(n):
        saved, x, old, new, grown = [], v, None, b"(())", 2
        while True:
            ks = kids[x]
            saved.append((x, ks, code[x], worst[x]))
            ks = ks + [new]
            if old:
                ks.remove(old)
            ks.sort()
            kids[x], old = ks, code[x]
            code[x] = new = b"(" + b"".join(ks) + b")"
            worst[x] = max(heaviest[x], grown, n - size[x])
            if not x:
                break
            grown, x = size[x] + 2, parent[x]
        yield v, _centroid_code(worst, parent, kids, code)
        for x, ks, c, w in saved:
            kids[x], code[x], worst[x] = ks, c, w


DEFAULT_ENUM_BOUND = 8


@functools.lru_cache(maxsize=1)
def enumerate_nonsingular(p: int) -> tuple:
    """All isomorphism classes of nonsingular trees on 2p vertices.

    Level p is grown from level p-1 (``enumerate_nonsingular(p - 1)``):
    every candidate, a pair attached at a vertex of a tree there (complete,
    because detach_p2 inverts some attachment), is coded without building
    it.  ``_grown_codes`` walks each parent tree once from 0 and codes each
    candidate by patching that walk on the path from the attachment vertex
    to 0, the only vertices whose subtrees change, then rerooting at the
    centroid(s).  Only the first candidate of each canonical code is built
    by ``attach_p2`` and kept, with that code stored as its ``tree.code``:
    the code is ``_code`` of the built tree's own lists, the one
    ``canonical_code`` would compute.  Deterministic order: sorted by code.

    The last level built is memoised, so the ascending calls of
    enumerate_upto build each level once; no other level is kept.  The
    result is therefore a tuple shared between callers, and its trees must
    not be changed.
    """
    if not 1 <= p <= DEFAULT_ENUM_BOUND:
        raise ValueError(f"p must be within 1..{DEFAULT_ENUM_BOUND}")
    if p == 1:
        return (_P2,)
    level = {}
    for t in enumerate_nonsingular(p - 1):
        for v, code in _grown_codes(t.tree.adj):
            if code not in level:
                level[code] = grown = attach_p2(t, v)
                grown.tree.code = code
    return tuple(t for _, t in sorted(level.items()))


def check_vertex_bound(max_vertices: int) -> int:
    """The vertex bound of enumerate_upto: even, >= 2, at most 2 * DEFAULT_ENUM_BOUND."""
    if max_vertices < 2 or max_vertices % 2:
        raise ValueError(f"the vertex bound must be even and >= 2, not {max_vertices}")
    if max_vertices > 2 * DEFAULT_ENUM_BOUND:
        raise ValueError(f"the vertex bound is capped at {2 * DEFAULT_ENUM_BOUND} vertices")
    return max_vertices


def enumerate_upto(max_vertices: int):
    """Every nonsingular tree on at most max_vertices vertices, by p then code.

    The bound is checked at the call.  Levels are taken in ascending order, so
    each is grown once from the memoised level before it.
    """
    levels = range(1, check_vertex_bound(max_vertices) // 2 + 1)
    return (t for p in levels for t in enumerate_nonsingular(p))


_P2 = MatchedTree(Tree([(0, 1)]), [(0, 1)])


def random_nonsingular(p: int, seed: int) -> MatchedTree:
    """Random nonsingular tree grown by p-1 attachments at uniform vertices.

    Driven by random.Random (Mersenne Twister), so a seed pins the tree.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rng = random.Random(seed)
    t = _P2
    for _ in range(p - 1):
        t = attach_p2(t, rng.randrange(t.tree.n))
    return t

