"""Builders for the structured matrices and vectors of matched trees.

Orientation bookkeeping follows one convention everywhere: the distance-type
matrices (bipartite q-distance, exponential) are L x R, the bipartite
q-Laplacian and every inverse are R x L.  The index-kind metadata on Matrix
makes a product with the wrong orientation fail instead of silently
transposing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import exactla, treecore
from .exactla import KIND_L, KIND_R, KIND_VERTEX, Matrix, Vector
from .polyalg import (
    ONE, ONE_MINUS_Q2, ONE_PLUS_Q, Q, Q_ONE_PLUS_Q, Poly, PoleAtPoint, RatFun,
    divexact, qint, qpow,
)
from .treecore import MatchedTree


class TreeData:
    """The per-tree quantities of one MatchedTree, each built on first use and kept.

    A field calls its module-level builder, looked up by name when first read.
    ``lap``, the tree's alternating-path table, is read for qL, tau, each mu
    and each diff.  It is ``laplacian`` of the tree's neighbour lists and
    pairs; the trees that the attachment checks grow and split get only such
    a table, from their own lists, and no TreeData.  A vertex's mu in Z[q]
    is not kept: ``qsigned_degree_vector`` reads it off ``lap`` at each call.
    ``bd`` is the peel, ``bdq_recursive``: 1 + (1+q) t, t an integer, so never
    zero and odd at q = 1.  Only ``verify.check_bdq`` reads ``det_qB``, through
    ``bdq_det`` and for its witness.
    Functions that take a tree accept either kind and wrap it with ``of``.
    Lifetime: one suite run, one point evaluation or one CLI command.
    None of these is kept on the MatchedTree, at module level or across
    trees: enumeration and conjecture hold every tree of a level at once, so
    such a cache would grow with the level.  The tree's canonical code is not
    one of them: it is one short byte string per tree, which enumeration
    computes anyway, and ``treecore.canonical_code`` keeps it as ``Tree.code``.
    """

    def __init__(self, mt: MatchedTree):
        self.mt = mt

    @classmethod
    def of(cls, x) -> "TreeData":
        return x if isinstance(x, cls) else cls(x)

    # each body names its builder, so the name is looked up at the first read;
    # cached_property(build_qL) would bind it once and hide a replaced builder
    dist = cached_property(lambda self: treecore.distances(self.mt.tree))
    dist_lr = cached_property(lambda self: lr_distances(self))
    lap = cached_property(lambda self: laplacian(self.mt.tree.adj, self.mt.pairs))
    qB = cached_property(lambda self: build_qB(self))
    E = cached_property(lambda self: build_E(self))
    qL = cached_property(lambda self: build_qL(self))
    tau = cached_property(lambda self: qtau(self))
    bd = cached_property(lambda self: bdq_recursive(self.mt))
    det_qB = cached_property(lambda self: exactla.det_bareiss(self.qB))
    diffs = cached_property(lambda self: {side: self.lap.diff(side) for side in "LR"})

    def diff(self, v: int) -> int:
        return self.diffs[self.mt.side_of[v]][self.mt.index_of[v]]


def _by_distance(dist_rows: list, entry, row_kind: str, col_kind: str) -> Matrix:
    """entry(d) at each cell of distance d, made once per d = 0..dmax and
    shared by its cells (a Poly is immutable)."""
    table = list(map(entry, range(max(map(max, dist_rows)) + 1)))
    return Matrix((map(table.__getitem__, row) for row in dist_rows), row_kind, col_kind)


def lr_distances(mt: MatchedTree | TreeData) -> list:
    """The integer L x R distance block: row i holds dist(l_i, r_j) over j."""
    d = TreeData.of(mt)
    dist, rs = d.dist, d.mt.r_vertices
    return [list(map(dist[l].__getitem__, rs)) for l in d.mt.l_vertices]


def distance_block(mt: MatchedTree | TreeData, entry=int) -> Matrix:
    """L x R matrix with entry (i,j) = entry(dist(l_i, r_j)), mapped from ``TreeData.dist_lr``."""
    return _by_distance(TreeData.of(mt).dist_lr, entry, KIND_L, KIND_R)


def build_qB(mt: MatchedTree | TreeData) -> Matrix:
    """L x R matrix of q-integers of distances: entry (i,j) = [dist(l_i, r_j)]."""
    return distance_block(mt, qint)


def build_E(mt: MatchedTree | TreeData) -> Matrix:
    """L x R matrix of distance monomials: entry (i,j) = q^dist(l_i, r_j)."""
    return distance_block(mt, qpow)


class Laplacian(NamedTuple):
    """The tree's alternating-path table S, with its degrees and adjacency A_RL.

    S holds +1/-1 at (r_i, l_j) when the r_i-l_j path is odd/even
    alternating, else 0.  qL = D_R.S.D_L - q^2 A_RL, D = diag(1 + (d(v) - 1)
    q^2); mu of r_k is S's row k times D_L, of l_k its column k times D_R.
    ``rows``, ``mu`` and ``tau`` read the data through ``value``, a map from
    coefficient tuples (ascending) to a ring, by sums and products alone:
    ``Poly`` gives qL itself, a value at q = B its integer rows at B, ``sum``
    its integer rows at q = 1, and the coefficient 1-norm a bound on each
    entry's.  ``rows`` takes each product d(r)_q d(l)_q, and its negative,
    once per degree pair that S reaches, at first use; the cells of that
    pair and sign share it, as ``_by_distance`` shares qB's and E's entries,
    and each cell of A_RL gets its own sum.
    """

    deg_r: list  # d(r_i)
    deg_l: list  # d(l_j)
    sign: list  # row i: S's row i, one +1, -1 or 0 per l_j
    adj: list  # row i: j of each neighbour l_j

    def rows(self, value) -> list:
        minus, zero, off = value((-1,)), value(()), value((0, 0, -1))  # off: -q^2
        scalar = {d: value((1, 0, d - 1)) for d in {*self.deg_r, *self.deg_l}}  # d -> d_q
        products = {}  # d(r) -> d(l) -> (zero, d(r)_q d(l)_q, its negative), by S's entry
        rows = []
        for dr, signs, adj in zip(self.deg_r, self.sign, self.adj):
            by_dl, row = products.setdefault(dr, {}), []
            for s, dl in zip(signs, self.deg_l):
                if not s:
                    row.append(zero)
                    continue
                cell = by_dl.get(dl)
                if cell is None:
                    x = scalar[dr] * scalar[dl]
                    cell = by_dl[dl] = (zero, x, minus * x)
                row.append(cell[s])
            for j in adj:
                row[j] = row[j] + off
            rows.append(row)
        return rows

    def mu(self, k: int, side: str, value) -> list:
        """mu of r_k, S's row k times D_L, if side is "R", else of l_k, S's column k times D_R."""
        signs, deg = ((self.sign[k], self.deg_l) if side == "R"
                      else ([row[k] for row in self.sign], self.deg_r))
        return [value((s, 0, s * (d - 1))) for s, d in zip(signs, deg)]

    def diff(self, side: str) -> list:
        """Each vertex's even minus odd alternating paths: minus S's row sums
        for side "R", its column sums for "L"."""
        return [-sum(s) for s in (self.sign if side == "R" else zip(*self.sign))]

    def tau(self, side: str, value) -> list:
        """tau over a side: (1 - d)(1 + f) q^2 - f at a vertex of degree d and diff f."""
        deg = self.deg_r if side == "R" else self.deg_l
        return [value((-f, 0, (1 - d) * (1 + f))) for d, f in zip(deg, self.diff(side))]

    def norm(self) -> int:
        """Bounds every entry's norm: qL's by d(r) d(l) + 1, tau_r's as |diff| <= p."""
        p, d = len(self.deg_l), max(self.deg_r)
        return max(d * max(self.deg_l) + 1, p + (d - 1) * (p + 1))


def laplacian(adj, pairs) -> Laplacian:
    """The Laplacian of the matched tree with neighbour lists adj and pairs
    (l_i, r_i) in order, from one alternating_reach walk per R-vertex.

    Nothing is validated here.  A MatchedTree passes its ``tree.adj`` and
    ``pairs``; the attachment checks pass the lists of the trees they derive
    from one (``treecore.grown_lists``, ``treecore.sub_lists``), which are
    trees with perfect matchings in a kept pair order because a splice or a
    connected restriction of a validated tree is one.
    """
    partner, index = [0] * len(adj), [0] * len(adj)
    for i, (l, r) in enumerate(pairs):
        partner[l], partner[r] = r, l
        index[l] = index[r] = i
    sign = []
    for _, r in pairs:
        row = [0] * len(pairs)
        for w, k in treecore.alternating_reach(adj, partner, r).items():
            row[index[w]] = 1 if k % 2 else -1
        sign.append(row)
    return Laplacian([len(adj[r]) for _, r in pairs], [len(adj[l]) for l, _ in pairs],
                     sign, [[index[l] for l in adj[r]] for _, r in pairs])


def build_qL(mt: MatchedTree | TreeData) -> Matrix:
    """R x L bipartite q-Laplacian, the tree's ``Laplacian`` read in Z[q].

    Entry (i,j): d(r_i)_q d(l_i)_q - q^2 on the diagonal; +/- d(r_i)_q d(l_j)_q
    when the r_i-l_j path is odd/even alternating; -q^2 when r_i is adjacent
    to l_j off the matching; 0 otherwise.
    """
    return Matrix(TreeData.of(mt).lap.rows(Poly), KIND_R, KIND_L)


def build_full_qD(dist: list) -> Matrix:
    """Vertex x Vertex matrix [dist(i,j)]_q of any tree's ``treecore.distances``."""
    return _by_distance(dist, qint, KIND_VERTEX, KIND_VERTEX)


def build_full_eD(dist: list) -> Matrix:
    """Vertex x Vertex matrix q^dist(i,j) of any tree's ``treecore.distances``."""
    return _by_distance(dist, qpow, KIND_VERTEX, KIND_VERTEX)


def qsigned_degree_vector(mt: MatchedTree | TreeData, v: int) -> Vector:
    """Signed degree-scalar vector over the side opposite v: ``Laplacian.mu`` in Z[q].

    Entry i is +d(w_i)_q / -d(w_i)_q when the v-w_i path is odd/even
    alternating (w_i running over the opposite side), else 0.
    """
    d = TreeData.of(mt)
    side = d.mt.side_of[v]
    return Vector(d.lap.mu(d.mt.index_of[v], side, Poly), KIND_L if side == "R" else KIND_R)


def qtau(mt: MatchedTree | TreeData):
    """The tau vector restricted to each side, (tau_l, tau_r): ``Laplacian.tau`` in Z[q]."""
    lap = TreeData.of(mt).lap
    return Vector(lap.tau("L", Poly), KIND_L), Vector(lap.tau("R", Poly), KIND_R)


def bdq_det(mt: MatchedTree | TreeData) -> Poly:
    """Distance index extracted from det of the q-bipartite distance matrix.

    det always carries the factor q^(p-1) (1+q)^(p-1); the index is the
    cofactor times (-1)^(p-1), det qB being ``TreeData.det_qB``.  A failed
    division, NotDivisible, means a broken qB: ``verify.check_bdq`` reports it.
    """
    d = TreeData.of(mt)
    p = d.mt.p
    divisor = Q ** (p - 1) * ONE_PLUS_Q ** (p - 1)
    quotient = divexact(d.det_qB, divisor)
    return -quotient if (p - 1) % 2 else quotient


def bdq_recursive(mt: MatchedTree) -> Poly:
    """Distance index by peeling pendant pairs: 1 + (1+q) sum (1 + diff(v)).

    v runs over the sites of p - 1 ``treecore.detach_p2`` calls, each diff
    taken in the tree the call leaves.  The peel runs in place on one copy
    of the tree's neighbour lists, in the tree's own ids, so the tree's
    partner table serves every step, and builds no Tree.
    """
    adj, total = [list(row) for row in mt.tree.adj], 0
    for _ in range(mt.p - 1):
        total += 1 + treecore.diff(adj, mt.partner, treecore.detach_p2(adj))
    return ONE + ONE_PLUS_Q * total


def inverse_E_formula(mt: MatchedTree | TreeData) -> Matrix:
    """Closed-form inverse of the exponential matrix: qL / (q (1 - q^2)).

    qL repeats few values, one per degree product, so each distinct entry is
    canonicalised once and its cells share the RatFun (never changed).
    """
    den = Q * ONE_MINUS_Q2
    return TreeData.of(mt).qL.map(lru_cache(maxsize=None)(lambda e: RatFun(e, den)))


def inverse_qB_formula(mt: MatchedTree | TreeData) -> Matrix:
    """Closed-form inverse of the q-bipartite distance matrix.

    -qL / (q (1+q)) plus the rank-one correction tau_r tau_l^t / (q bd_q).
    bd_q is the peel, never the zero polynomial, so it is always defined.  As in
    ``inverse_E_formula``, each distinct qL entry and each distinct product
    tau_r tau_l^t is canonicalised once, and each distinct pair of the two
    terms added once; equal cells share one RatFun.
    """
    d = TreeData.of(mt)
    tau_l, tau_r = d.tau
    qbd = Q * d.bd
    laplacian_term = lru_cache(maxsize=None)(lambda e: RatFun(-e, Q_ONE_PLUS_Q))
    correction = lru_cache(maxsize=None)(lambda t: RatFun(t, qbd))
    cell = lru_cache(maxsize=None)(lambda e, t: laplacian_term(e) + correction(t))
    rows = zip(d.qL.entries, exactla.outer(tau_r, tau_l).entries)
    return Matrix((map(cell, e, t) for e, t in rows), KIND_R, KIND_L)


def inverse_B_q1(mt: MatchedTree | TreeData) -> Matrix:
    """Inverse of the plain bipartite distance matrix (everything at q = 1).

    -qL/2 + tau_r tau_l^t / bd at q = 1: entry (i,j) is
    (2 tau_r(1)_i tau_l(1)_j - bd(1) qL(1)_ij) / (2 bd(1)), one Fraction of
    integers each.  Values at q = 1 are coefficient sums; qL(1) is read by
    ``eval_matrix`` at the int 1, so its entries are ints.
    """
    d = TreeData.of(mt)
    bd1 = sum(d.bd.coeffs)  # odd: bd is the peel
    lap = eval_matrix(d.qL, 1)
    tau_l1, tau_r1 = (d.lap.tau(side, sum) for side in "LR")
    return Matrix(
        ([Fraction(2 * t * u - bd1 * x, 2 * bd1) for u, x in zip(tau_l1, row)]
         for t, row in zip(tau_r1, lap.entries)),
        lap.row_kind, lap.col_kind)


def _evaluator(q0):
    """e -> e.eval_at(q0), each distinct entry evaluated once, kept by the entry.

    An integral Fraction is passed as its int, so a Poly entry's value there
    is an int and no Fraction is built for it.
    """
    if isinstance(q0, Fraction) and q0.denominator == 1:
        q0 = q0.numerator
    return lru_cache(maxsize=None)(lambda e: e.eval_at(q0))


def eval_matrix(m: Matrix, q0) -> Matrix:
    """Entrywise exact evaluation at an int or Fraction point q0.

    A Poly entry's value is an int at an integral q0, else a Fraction; a
    RatFun entry's is a Fraction (``polyalg``).  A point of any other type,
    a float or a string, is a TypeError.  Each distinct entry is evaluated
    once per call, as the built matrices repeat few values: one per distance
    in qB and E, one per degree product in qL.  A pole names the first
    failing entry (i, j) in row-major order, the order the rows are mapped
    in: it is sought only once one is raised.
    """
    at = _evaluator(q0)
    try:
        return Matrix((map(at, row) for row in m.entries), m.row_kind, m.col_kind)
    except PoleAtPoint as exc:
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                try:
                    at(e)
                except PoleAtPoint:
                    raise PoleAtPoint(f"entry ({i}, {j}): {exc}") from None
        raise


def eval_vector(v: Vector, q0) -> Vector:
    """Entrywise exact evaluation at an int or Fraction point, as ``eval_matrix``,
    each distinct entry once."""
    return v.map(_evaluator(q0))


def is_corona(mt: MatchedTree) -> bool:
    """Whether the tree is some tree with one pendant added per vertex.

    Equivalent structural test: every matching pair contains a leaf.
    """
    return all(
        mt.tree.degree(l) == 1 or mt.tree.degree(r) == 1 for l, r in mt.pairs
    )
