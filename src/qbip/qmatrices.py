"""Builders for the structured matrices and vectors of matched trees.

Orientation bookkeeping follows one convention everywhere: the distance-type
matrices (bipartite q-distance, exponential) are L x R, the bipartite
q-Laplacian and every inverse are R x L.  The index-kind metadata on Matrix
makes a product with the wrong orientation fail instead of silently
transposing.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactla, treecore
from .exactla import KIND_L, KIND_R, KIND_VERTEX, Matrix, Vector
from .polyalg import (
    ONE, ONE_MINUS_Q2, ONE_PLUS_Q, Q, Q2, Q_ONE_PLUS_Q, Poly, PoleAtPoint, RatFun,
    divexact, qdeg, qint,
)
from .treecore import MatchedTree, PathKind, Tree


class BdqZero(ArithmeticError):
    """The distance index vanished, so the closed-form inverse is undefined."""


def build_qB(mt: MatchedTree) -> Matrix:
    """L x R matrix of q-integers of distances: entry (i,j) = [dist(l_i, r_j)]."""
    dist = treecore.distances(mt.tree)
    return Matrix(
        (
            (qint(dist[l][r]) for r in mt.r_vertices)
            for l in mt.l_vertices
        ),
        KIND_L,
        KIND_R,
    )


def build_E(mt: MatchedTree) -> Matrix:
    """L x R matrix of distance monomials: entry (i,j) = q^dist(l_i, r_j)."""
    dist = treecore.distances(mt.tree)
    return Matrix(
        (
            (Poly((0,) * dist[l][r] + (1,)) for r in mt.r_vertices)
            for l in mt.l_vertices
        ),
        KIND_L,
        KIND_R,
    )


def build_qL(mt: MatchedTree) -> Matrix:
    """R x L bipartite q-Laplacian.

    Entry (i,j): d(r_i)_q d(l_i)_q - q^2 on the diagonal; +/- d(r_i)_q d(l_j)_q
    when the r_i-l_j path is odd/even alternating; -q^2 when r_i is adjacent
    to l_j off the matching; 0 otherwise.  The cases are mutually exclusive.
    """
    tree = mt.tree
    p = mt.p
    rows = []
    for i in range(p):
        r = mt.r_vertex(i)
        dr = qdeg(tree.degree(r))
        reach = treecore.alternating_reach(mt, r)
        adjacent = set(tree.adj[r])
        row = []
        for j in range(p):
            l = mt.l_vertex(j)
            if i == j:
                row.append(dr * qdeg(tree.degree(l)) - Q2)
            elif l in reach:
                entry = dr * qdeg(tree.degree(l))
                row.append(entry if reach[l] % 2 else -entry)
            elif l in adjacent:
                row.append(-Q2)
            else:
                row.append(Poly())
        rows.append(row)
    return Matrix(rows, KIND_R, KIND_L)


def build_full_qD(tree: Tree) -> Matrix:
    """Vertex x Vertex q-distance matrix [dist(i,j)]_q of any tree."""
    dist = treecore.distances(tree)
    return Matrix(
        ((qint(d) for d in row) for row in dist), KIND_VERTEX, KIND_VERTEX
    )


def build_full_eD(tree: Tree) -> Matrix:
    """Vertex x Vertex exponential distance matrix q^dist(i,j) of any tree."""
    dist = treecore.distances(tree)
    return Matrix(
        ((Poly((0,) * d + (1,)) for d in row) for row in dist),
        KIND_VERTEX,
        KIND_VERTEX,
    )


def qsigned_degree_vector(mt: MatchedTree, v: int) -> Vector:
    """Signed degree-scalar vector over the side opposite v.

    Entry i is +d(w_i)_q / -d(w_i)_q when the v-w_i path is odd/even
    alternating (w_i running over the opposite side), else 0.
    """
    tree = mt.tree
    opposite = mt.r_vertices if mt.side_of[v] == "L" else mt.l_vertices
    kind = KIND_R if mt.side_of[v] == "L" else KIND_L
    reach = treecore.alternating_reach(mt, v)
    entries = []
    for w in opposite:
        if w in reach:
            val = qdeg(tree.degree(w))
            entries.append(val if reach[w] % 2 else -val)
        else:
            entries.append(Poly())
    return Vector(entries, kind)


def tau_at(mt: MatchedTree, v: int) -> Poly:
    """Vertex weight (1 - d(v)) (1 + diff(v)) q^2 - diff(v)."""
    d = mt.tree.degree(v)
    f = treecore.diff(mt, v)
    return Poly((-f, 0, (1 - d) * (1 + f)))


def qtau(mt: MatchedTree):
    """The tau vector restricted to each side: (tau_l, tau_r)."""
    tau_l = Vector((tau_at(mt, l) for l in mt.l_vertices), KIND_L)
    tau_r = Vector((tau_at(mt, r) for r in mt.r_vertices), KIND_R)
    return tau_l, tau_r


def bdq_det(mt: MatchedTree) -> Poly:
    """Distance index extracted from det of the q-bipartite distance matrix.

    det always carries the factor q^(p-1) (1+q)^(p-1); the index is the
    cofactor times (-1)^(p-1).  A failed division is a broken build, not a
    recoverable condition.
    """
    p = mt.p
    det = exactla.det_bareiss(build_qB(mt))
    divisor = Q ** (p - 1) * ONE_PLUS_Q ** (p - 1)
    quotient = divexact(det, divisor)
    return -quotient if (p - 1) % 2 else quotient


def bdq_recursive(mt: MatchedTree) -> Poly:
    """Distance index by peeling pendant pairs.

    Each detachment site v in the smaller tree contributes
    (1+q)(1 + diff(v)); the base pair contributes 1.
    """
    total = ONE
    cur = mt
    while cur.p > 1:
        cur, site, _ = treecore.detach_p2(cur)
        total = total + ONE_PLUS_Q * (1 + treecore.diff(cur, site))
    return total


def inverse_E_formula(mt: MatchedTree) -> Matrix:
    """Closed-form inverse of the exponential matrix: qL / (q (1 - q^2))."""
    den = Q * ONE_MINUS_Q2
    return build_qL(mt).map(lambda e: RatFun(e, den))


def inverse_qB_formula(mt: MatchedTree) -> Matrix:
    """Closed-form inverse of the q-bipartite distance matrix.

    -qL / (q (1+q)) plus the rank-one correction tau_r tau_l^t / (q bd_q).
    Defined whenever bd_q is not the zero polynomial.
    """
    bd = bdq_det(mt)
    if not bd:
        raise BdqZero("distance index is identically zero")
    tau_l, tau_r = qtau(mt)
    laplacian_term = build_qL(mt).map(lambda e: RatFun(-e, Q_ONE_PLUS_Q))
    qbd = Q * bd
    correction = exactla.outer(tau_r, tau_l).map(lambda e: RatFun(e, qbd))
    return laplacian_term + correction


def inverse_B_q1(mt: MatchedTree) -> Matrix:
    """Inverse of the plain bipartite distance matrix (everything at q = 1)."""
    bd1 = bdq_det(mt).eval_at(1)
    if bd1 == 0:
        raise BdqZero("distance index vanishes at q = 1")
    lap = eval_matrix(build_qL(mt), Fraction(1))
    tau_l, tau_r = qtau(mt)
    tau_l1 = tau_l.map(lambda e: e.eval_at(1))
    tau_r1 = tau_r.map(lambda e: e.eval_at(1))
    correction = exactla.outer(tau_r1, tau_l1).map(lambda e: e / bd1)
    return lap.scale(Fraction(-1, 2)) + correction


def eval_matrix(m: Matrix, q0) -> Matrix:
    """Entrywise exact evaluation at a rational point."""
    q0 = Fraction(q0)
    rows = []
    for i, row in enumerate(m.entries):
        out = []
        for j, e in enumerate(row):
            try:
                out.append(e.eval_at(q0))
            except PoleAtPoint as exc:
                raise PoleAtPoint(f"entry ({i}, {j}): {exc}") from None
        rows.append(out)
    return Matrix(rows, m.row_kind, m.col_kind)


def eval_vector(v: Vector, q0) -> Vector:
    q0 = Fraction(q0)
    return v.map(lambda e: e.eval_at(q0))


def is_corona(mt: MatchedTree) -> bool:
    """Whether the tree is some tree with one pendant added per vertex.

    Equivalent structural test: every matching pair contains a leaf.
    """
    return all(
        mt.tree.degree(l) == 1 or mt.tree.degree(r) == 1 for l, r in mt.pairs
    )
