"""Independent test oracles.

Nothing here shares algorithmic code with the package: an edge list is a
tree by union-find over its edges (the package walks its adjacency once),
matchings are found by brute force over edge subsets, isomorphism classes are keyed by a
min-over-all-rootings encoding (the package roots at centroids), labeled trees
come from Prufer sequences, determinants expand by cofactors, ranks are
read off those determinants of minors, inverses come from Gauss-Jordan
over the rational-function field, one RatFun operation at a time (the
package eliminates over Z at one Kronecker point instead), and alternating
paths are classified by walking each u-v path edge by edge, and mu, tau
and diff at a vertex are read off those classifications (the package reads
every endpoint off one walk per R-vertex).  The relabeling helpers, the
restriction to a set of pairs and the peel of one pendant pair build their
trees through the package's validating constructors; the package restricts
and peels neighbour lists without building any.  The canonical-form reference
is the RatFun constructor as first written, which took each content anew and
scaled by Poly products; it shares poly_gcd and divexact with the package.
"""

import heapq
import itertools
import math
from enum import Enum
from typing import NamedTuple

from qbip.exactla import DimensionMismatch, Matrix, SingularMatrix
from qbip.polyalg import ONE, ZERO, Poly, RatFun, divexact, poly_gcd
from qbip.treecore import MatchedTree, Tree


def prufer_to_edges(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def is_tree(data) -> bool:
    """Independent check that data["edges"] is a tree on the ids 0..n-1."""
    edges = data.get("edges") if isinstance(data, dict) else None
    if not isinstance(edges, list) or not edges:
        return False
    if not all(isinstance(e, list) and len(e) == 2
               and all(type(v) is int for v in e) for e in edges):
        return False
    n = len(edges) + 1
    if {v for e in edges for v in e} != set(range(n)):
        return False
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # a cycle or a self-loop
        root[ru] = rv
    return True


def all_perfect_matchings(n, edges):
    """Every perfect matching, by exhaustive search over edge subsets."""
    if n % 2:
        return []
    out = []
    for combo in itertools.combinations(edges, n // 2):
        seen = set()
        ok = True
        for u, v in combo:
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and len(seen) == n:
            out.append(tuple(sorted(tuple(sorted(e)) for e in combo)))
    return out


def min_rooting_code(n, edges):
    """Canonical string by minimizing the rooted encoding over all roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def encode(root):
        def rec(v, parent):
            return "(" + "".join(sorted(rec(w, v) for w in adj[v] if w != parent)) + ")"

        return rec(root, -1)

    return min(encode(r) for r in range(n))


def count_nonsingular_prufer(n):
    """Isomorphism classes of trees on n vertices with a perfect matching."""
    if n == 2:
        return 1
    seen = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = prufer_to_edges(seq, n)
        if all_perfect_matchings(n, edges):
            seen.add(min_rooting_code(n, edges))
    return len(seen)


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion; entries form a ring."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def rank_minors(rows):
    """Rank as the largest k with a nonzero k x k minor (0 for a zero matrix)."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for r in itertools.combinations(range(m), k):
            for c in itertools.combinations(range(n), k):
                if det_cofactor([[rows[i][j] for j in c] for i in r]):
                    return k
    return 0


def poly_of(*coeffs):
    return Poly(coeffs)


def inverse_gauss_jordan(m):
    """Inverse by Gauss-Jordan over the rational-function field.

    Pivots are chosen by lowest combined numerator/denominator degree; the
    cost here comes from polynomial degree growth, not numerical error.
    """
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    a = [
        [_as_field(e) for e in row]
        + [RatFun(ONE) if i == j else RatFun(ZERO) for j in range(n)]
        for i, row in enumerate(m.entries)
    ]
    for col in range(n):
        best = None
        for i in range(col, n):
            e = a[i][col]
            if e:
                size = e.num.degree() + e.den.degree()
                if best is None or size < best[0]:
                    best = (size, i)
        if best is None:
            raise SingularMatrix(f"no pivot in column {col}")
        _, piv = best
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [e * inv for e in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return Matrix((row[n:] for row in a), m.col_kind, m.row_kind)


def _as_field(e):
    if isinstance(e, RatFun):
        return e
    if isinstance(e, (Poly, int)):
        return RatFun(e)
    raise TypeError(f"field elimination needs RatFun/Poly/int entries, got {type(e)}")


def primitive_part_reference(p):
    """Primitive part by the loop first written for ``Poly.primitive_part``:
    a new Poly, p divided by its content signed as its leading coefficient."""
    if not p.coeffs:
        return p
    c = 0
    for x in p.coeffs:
        c = math.gcd(c, x)
    if p.coeffs[-1] < 0:
        c = -c
    return Poly(x // c for x in p.coeffs)


def canonical_form_reference(num, den):
    """(num, den) of RatFun(num, den), by the constructor first written: the
    primitive parts reduced by their gcd, then the signed contents by theirs.
    It shares ``poly_gcd`` and ``divexact`` with the package."""
    if not num:
        return ZERO, ONE
    pn, pd = primitive_part_reference(num), primitive_part_reference(den)
    g = poly_gcd(pn, pd)
    if g != ONE:
        pn, pd = divexact(pn, g), divexact(pd, g)
    cn = num.content() if num.leading() > 0 else -num.content()
    cd = den.content() if den.leading() > 0 else -den.content()
    c = math.gcd(cn, cd)
    cn, cd = cn // c, cd // c
    if cd < 0:
        cn, cd = -cn, -cd
    return cn * pn, cd * pd


class PathKind(Enum):
    ODD_ALTERNATING = "odd"
    EVEN_ALTERNATING = "even"
    NOT_ALTERNATING = "none"


class PathClass(NamedTuple):
    kind: PathKind
    adjacent: bool
    matching_edge: bool


def classify_path(mt: MatchedTree, u: int, v: int) -> PathClass:
    """Classify the unique u-v path by walking it edge by edge."""
    if u == v:
        raise ValueError("classify_path needs distinct endpoints")
    path = _tree_path(mt.tree, u, v)
    flags = [mt.index_of[a] == mt.index_of[b] for a, b in zip(path, path[1:])]
    adjacent = len(flags) == 1
    matching_edge = adjacent and flags[0]
    alternating = (
        flags[0]
        and flags[-1]
        and all(a != b for a, b in zip(flags, flags[1:]))
    )
    if not alternating:
        return PathClass(PathKind.NOT_ALTERNATING, adjacent, matching_edge)
    kind = (
        PathKind.ODD_ALTERNATING
        if sum(flags) % 2
        else PathKind.EVEN_ALTERNATING
    )
    return PathClass(kind, adjacent, matching_edge)


_SIGN = {PathKind.ODD_ALTERNATING: 1, PathKind.EVEN_ALTERNATING: -1,
         PathKind.NOT_ALTERNATING: 0}


def path_diff(mt: MatchedTree, v: int) -> int:
    """Even minus odd alternating paths from v, each path to another vertex classified."""
    return -sum(_SIGN[classify_path(mt, v, w).kind] for w in range(mt.tree.n) if w != v)


def path_mu(mt: MatchedTree, v: int) -> list:
    """mu_v over the side opposite v, in pair order: +/-(1 + (d(w) - 1) q^2) when
    the v-w path is odd/even alternating, else 0."""
    opposite = mt.r_vertices if mt.side_of[v] == "L" else mt.l_vertices
    return [_SIGN[classify_path(mt, v, w).kind] * Poly((1, 0, mt.tree.degree(w) - 1))
            for w in opposite]


def path_tau(mt: MatchedTree, v: int) -> Poly:
    """tau(v) = (1 - d(v)) (1 + diff(v)) q^2 - diff(v), diff by ``path_diff``."""
    d, f = mt.tree.degree(v), path_diff(mt, v)
    return Poly((-f, 0, (1 - d) * (1 + f)))


def _tree_path(tree: Tree, u: int, v: int):
    parent = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y in tree.adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def permute_pairs(mt: MatchedTree, order) -> MatchedTree:
    """Reindex the matching pairs; order[i] is the old index of new pair i."""
    if sorted(order) != list(range(mt.p)):
        raise ValueError("order must be a permutation of the pair indices")
    return MatchedTree(mt.tree, [mt.pairs[i] for i in order])


def relabel_vertices(mt: MatchedTree, mapping) -> MatchedTree:
    """Apply a vertex-id permutation, keeping pair order and sides."""
    tree = Tree([(mapping[a], mapping[b]) for a, b in mt.tree.edges])
    return MatchedTree(tree, [(mapping[l], mapping[r]) for l, r in mt.pairs])


def sub_matched_tree(mt: MatchedTree, pair_indices):
    """Induced MatchedTree on the given pairs, in the given order, and the
    old-to-new vertex map, which compacts their vertices to 0.. in id order.

    The pairs must induce a connected subtree; the constructors check it.
    The reference for ``treecore.sub_lists`` and, through ``peel``, for
    ``treecore.detach_p2``.
    """
    verts = sorted({v for i in pair_indices for v in mt.pairs[i]})
    relabel = {old: new for new, old in enumerate(verts)}
    tree = Tree([(relabel[a], relabel[b]) for a, b in mt.tree.edges
                 if a in relabel and b in relabel])
    pairs = [(relabel[l], relabel[r]) for l, r in (mt.pairs[i] for i in pair_indices)]
    return MatchedTree(tree, pairs), relabel


def peel(mt: MatchedTree):
    """(smaller, site, removed index): ``treecore.detach_p2``'s rule on the
    objects.  The smallest-id leaf whose partner has degree 2 is removed with
    its partner by ``sub_matched_tree``; site is the partner's other
    neighbour, in the smaller tree's ids.  detach_p2 keeps every id and
    empties the removed pair's lists instead, so its lists and site match
    these once the non-empty lists are compacted in id order."""
    tree, partner = mt.tree, mt.partner
    w = next(v for v in range(tree.n)
             if tree.degree(v) == 1 and tree.degree(partner[v]) == 2)
    u = partner[w]
    site = next(x for x in tree.adj[u] if x != w)
    removed = mt.index_of[w]
    smaller, relabel = sub_matched_tree(mt, [i for i in range(mt.p) if i != removed])
    return smaller, relabel[site], removed
