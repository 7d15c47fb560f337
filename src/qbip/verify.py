"""Named identity checks over matched trees, with pass/fail witnesses.

Every check compares both sides of one identity exactly; a failure carries
the offending index and the nonzero residual so it can be replayed
standalone.  A suite run wraps its tree once in a ``qmatrices.TreeData`` and
every check reads the distances, qL, qB, E, tau, mu and bd_q from it, so
each is built once per tree.

Most checks decide their identities in Z[q] at one integer point q = B = 2^k
per tree, ``exactla.kronecker_base`` of a bound on the coefficients of both
sides read from the data: the sides are then equal in Z[q] iff equal at B,
and a failing entry reads back as its balanced base-B digits.
The five product identities are stated once each, in ``IDENTITIES``, with
denominators cleared; one engine packs their matrix sides into one integer per
row, building no p x p matrix at a point (see the comment there), and the
random large-tree suite runs it, on the same ``_factors``, at the user's
rational points.  The two attachment checks share ``_join_point``: the trees
they grow and split are neighbour lists and pair lists spliced or restricted
from the validated tree's, never rebuilt as Tree objects, and have qL only as
integers at B, from their own reach walks; the tree itself is read the same
way, off its own ``Laplacian``; ``check_full_dq_ed`` proves det eD by one
Laplacian product at such a point, and det qD from it by (q-1) qD = eD - J in
Z[q].  bd_q is read by the peel, which walks lists as well, so a suite builds
no Tree; only ``check_bdq`` takes the dense determinant route.  The other
checks compare Z[q], Q or Z values directly.  Nothing is ever approximate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, repeat
from math import lcm, prod
from operator import add, mul
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import exactla, qmatrices, treecore
from .exactla import KIND_L, KIND_R, Matrix, Vector, entry_json
from .polyalg import (
    ONE, ONE_MINUS_Q2, ONE_PLUS_Q, Q, Q_MINUS_ONE, Q_ONE_PLUS_Q, NotDivisible, Poly, exact_point,
    qint, qpow,
)
from .qmatrices import TreeData
from .treecore import MatchedTree


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None
    skipped: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "witness": self.witness}
        if self.skipped:
            out["skipped"] = self.skipped
        return out


@dataclass(frozen=True)
class VerificationReport:
    tree_code: bytes
    p: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def first_failure(self) -> CheckResult | None:
        return next((r for r in self.results if not r.passed), None)

    def to_json(self) -> dict:
        return {
            "tree": self.tree_code.hex(),
            "p": self.p,
            "checks": [r.to_json() for r in self.results],
        }


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def _compare(name: str, label: str, got, want, **where) -> CheckResult:
    """Pass, or fail with a witness at the first entry where got and want differ.

    got and want are two scalars, two Vectors or two Matrices; the witness
    holds the entry's index (none for scalars), both values and their
    difference, then the keywords ``where`` (vertex=, split_pair=).
    """
    if isinstance(got, Matrix):
        pairs = (((i, j), got[i, j], want[i, j])
                 for i in range(got.rows) for j in range(got.cols))
    elif isinstance(got, Vector):
        pairs = (((i,), a, b) for i, (a, b) in enumerate(zip(got, want)))
    else:
        pairs = (((), got, want),)
    for index, a, b in pairs:
        if not a == b:
            return CheckResult(name, False, {
                "identity": label,
                **({"entry": list(index)} if index else {}),
                "got": entry_json(a),
                "want": entry_json(b),
                "residual": entry_json(a - b),
                **where,
            })
    return CheckResult(name, True)


# ---------------------------------------------------------------------------
# the product identities and their engine
# ---------------------------------------------------------------------------

# Each identity is a tuple of equations (label, lhs, rhs) over Z[q].  A side
# is a sum of terms and a term a product of named factors (see _factors).
# Scalar factors commute out; matrix and vector factors multiply in order, a
# vector next to a vector being an outer product.  An inverse is checked on
# one side only: for square X and Y, X.Y = cI with c != 0 gives Y.X = cI.
#
# A side whose terms hold one vector each is a vector and is compared entry
# by entry.  Every other side is a matrix M and is compared as M.v, with
# v = (1, B, ..., B^(n-1)) and B = 2^(8w): row i packs into the one integer
# sum_j M_ij B^j.  The packed rows of a product F.G are F times the packed
# rows of G, one big-integer operation per nonzero of F.  No p x p matrix
# is built at a point: each factor keeps the form of its data.  A scalar is
# an int and a vector a Vector; qL, I and any other Poly matrix are a
# _Sparse of their nonzeros (qL about 6 a row, I one, so its packed rows are
# B^i); qB and E are a _Table, dmax + 1 values by distance read through the
# tree's one distance block, and pack with one encoded digit per value and
# one join per row.  On a vector side (_mul) a _Sparse meets the vector one
# product per nonzero, and a _Table goes through exactla.mat_vec or vec_mat,
# p^2 integer products over the rows its block gives one at a time.  For a term
# c F_1 ... F_k, |c| ||F_1|| ... ||F_(k-1)|| max|F_k| bounds every entry,
# ||.|| being the largest absolute row sum, and summing it over a side's
# terms bounds the side.  With C the largest such bound over the matrix
# sides checked at a point, w is the least width with 4C < B
# (exactla.pack_width): the two sides' rows differ entrywise by at most
# 2C < B/2, so their packed rows are equal only if the rows are, and each
# packed row reads back as its balanced base-B digits.
#
# The same bound, run at q = 1 on each factor's norm (the sum of
# |coefficients| of each entry), bounds the coefficient 1-norm of every entry
# of a side by C, as that norm is submultiplicative.  With C_L and C_R for
# the two sides, each entry of lhs - rhs is decided and read back at q = B =
# exactla.kronecker_base(C_L + C_R).  One such point, past every equation's,
# proves all of a tree's identities (_proof_point).
IDENTITIES = {
    "B_tau": (
        ("qB tau_r = bd_q ones", [("qB", "tau_r")], [("bd", "ones_L")]),
        ("tau_l^t qB = bd_q ones^t", [("tau_l", "qB")], [("bd", "ones_R")]),
    ),
    "row_col_sums": (
        ("ones^t qL = (1-q^2) tau_l^t", [("ones_R", "qL")], [("1-q^2", "tau_l")]),
        ("qL ones = (1-q^2) tau_r", [("qL", "ones_L")], [("1-q^2", "tau_r")]),
    ),
    "lemma_111": (
        ("-qL.qB + (1+q) tau_r ones^t = q(1+q) I",
         [("-1", "qL", "qB"), ("1+q", "tau_r", "ones_R")], [("q(1+q)", "I")]),
    ),
    "inverse_E": (
        ("qL.E = q(1-q^2) I", [("qL", "E")], [("q(1-q^2)", "I")]),
    ),
    "inverse_qB": (
        ("(-bd_q qL + (1+q) tau_r tau_l^t).qB = q(1+q) bd_q I",
         [("-1", "bd", "qL", "qB"), ("1+q", "tau_r", "tau_l", "qB")],
         [("q(1+q)", "bd", "I")]),
    ),
}
_EQUATIONS = [eq for eqs in IDENTITIES.values() for eq in eqs]  # what a point serves
# names of the evaluated checks, which carry the point after an "@"
_POINT_NAMES = {"inverse_E": "inverse_E_product", "inverse_qB": "inverse_qB_product"}


class _Factor(NamedTuple):
    deg: int  # bounds the degree of every entry
    at: Callable  # (a, b) -> b^deg * value at q = a/b, entrywise in integers
    norm: Callable = None  # () -> the sum of |coefficients| of each entry


@dataclass(frozen=True)
class _Sparse:
    """A matrix at a point as its nonzeros: nonzeros[i] maps j to entry (i, j).
    It is never expanded into dense rows: it packs, and multiplies a vector
    (``_mul``) or packed rows (``times``), one product per nonzero."""
    nonzeros: list
    cols: int
    row_kind: str = KIND_R
    col_kind: str = KIND_R

    rows = property(lambda self: len(self.nonzeros))

    def size(self, top: bool) -> int:
        """Largest |entry| if top, else the largest absolute row sum."""
        return max((max(row, default=0) if top else sum(row))
                   for row in (list(map(abs, r.values())) for r in self.nonzeros))

    def packed(self, width: int) -> list:
        """Row i as sum_j entry_ij B^j, B = 2^(8 width)."""
        return [sum(v << 8 * width * j for j, v in row.items()) for row in self.nonzeros]

    def times(self, tail: list) -> list:
        """Packed rows of self.G from G's packed rows, one product per nonzero."""
        return [sum(map(mul, row.values(), map(tail.__getitem__, row)))
                for row in self.nonzeros]


@dataclass(frozen=True)
class _Table:
    """qB or E at a point: entry (i, j) is table[block[i][j]], table holding
    the value at each distance d = 0..dmax and block being the tree's integer
    L x R distance block, ``TreeData.dist_lr``, which every point shares.  qB
    and E stand last in every matrix product of IDENTITIES: only packed alone."""
    table: list
    block: list
    row_kind, col_kind = KIND_L, KIND_R

    rows = cols = property(lambda self: len(self.block))
    entries = property(lambda self: (map(self.table.__getitem__, row) for row in self.block))

    def size(self, top: bool) -> int:
        """As ``_Sparse.size``; the table's largest |value| bounds the block's."""
        return (max(map(abs, self.table)) if top
                else max(map(sum, map(map, repeat(abs), self.entries))))

    def packed(self, width: int) -> list:
        return exactla.pack_rows(self.block, width, self.table)


def _poly_factor(x) -> _Factor:
    """A Poly, or a Vector or Matrix of them; deg is its largest entry degree.

    The nonzero entries are found and their distinct coefficient tuples
    numbered once per tree; a point and the norm take one integer Horner sum
    per distinct tuple.  At a point a Poly is an int, a Vector a Vector of
    ints and a Matrix a ``_Sparse`` of its nonzeros.
    """
    if isinstance(x, Poly):
        deg = max(0, x.degree())
        return _Factor(deg, lambda a, b: sum(map(mul, x.coeffs, _monomials(a, b, deg))),
                       lambda: _norm(x.coeffs))
    vector = isinstance(x, Vector)
    index = {}  # distinct nonzero coeffs -> their number
    support = [{j: index.setdefault(e.coeffs, len(index)) for j, e in enumerate(row) if e.coeffs}
               for row in ((x.entries,) if vector else x.entries)]
    deg = max((len(c) - 1 for c in index), default=0)

    def form(value):  # value(coeffs) at each nonzero entry
        values = list(map(value, index))
        nonzeros = [{j: values[k] for j, k in row.items()} for row in support]
        if vector:
            return Vector(map(nonzeros[0].get, range(len(x)), repeat(0)), x.kind)
        return _Sparse(nonzeros, x.cols, x.row_kind, x.col_kind)

    def at(a, b):
        monomials = _monomials(a, b, deg)
        return form(lambda coeffs: sum(map(mul, coeffs, monomials)))

    return _Factor(deg, at, lambda: form(_norm))


def _monomials(a: int, b: int, deg: int) -> list:
    """a^i b^(deg - i) for i = 0..deg: q^i at q = a/b, times b^deg."""
    return [a**i * b ** (deg - i) for i in range(deg + 1)]


@lru_cache(maxsize=64)
def _distance_rules(dmax: int) -> tuple:
    """_poly_factor of [d] and of q^d at d = 0..dmax, build_qB's and build_E's entry rules."""
    return tuple(_poly_factor(Vector(map(rule, range(dmax + 1)), KIND_L)) for rule in (qint, qpow))


def _distance_factors(td: TreeData):
    """qB and E, each a ``_Table`` at a point and for its norm: the values of
    ``_distance_rules`` read through the tree's one integer L x R block."""
    block = td.dist_lr
    # lists: _Table maps __getitem__ over every cell, and a list's is faster than a tuple's
    return tuple(_Factor(rule.deg, lambda a, b, rule=rule: _Table(list(rule.at(a, b)), block),
                         lambda rule=rule: _Table(list(rule.norm()), block))
                 for rule in _distance_rules(max(map(max, block))))


def _factors(td: TreeData) -> dict:
    """Every factor of the tree's product identities, by name, read off its TreeData."""
    p = td.mt.p
    ones_L, ones_R = Vector((1,) * p, KIND_L), Vector((1,) * p, KIND_R)
    eye = _Sparse([{i: 1} for i in range(p)], p)
    factors = {
        "-1": _poly_factor(-ONE),
        "1+q": _poly_factor(ONE_PLUS_Q),
        "1-q^2": _poly_factor(ONE_MINUS_Q2),
        "q(1+q)": _poly_factor(Q_ONE_PLUS_Q),
        "q(1-q^2)": _poly_factor(Q * ONE_MINUS_Q2),
        "ones_L": _Factor(0, lambda a, b: ones_L, lambda: ones_L),
        "ones_R": _Factor(0, lambda a, b: ones_R, lambda: ones_R),
        "I": _Factor(0, lambda a, b: eye, lambda: eye),
        "qL": _poly_factor(td.qL),
        "bd": _poly_factor(td.bd),
    }
    factors["tau_l"], factors["tau_r"] = map(_poly_factor, td.tau)
    factors["qB"], factors["E"] = _distance_factors(td)
    return factors


def _degree(term, factors: dict) -> int:
    return sum(factors[ref].deg for ref in term)


class _Point(dict):
    """One tree's factors at q = x, as integers scaled by b^deg, and their products.

    A factor is keyed by its name, in its form at a point (see IDENTITIES),
    and an exact product by the tuple of its factor names, folded right to
    left.  The products on matrix sides are kept as packed rows instead, all
    at one width fixed by the matrix sides of ``equations``.  Values are
    built on first use and live as long as the point.
    """

    def __init__(self, factors: dict, x: Fraction, equations):
        super().__init__()
        self.factors, self.x, self.equations = factors, x, equations
        self.sizes, self.packs = {}, {}

    def __missing__(self, ref):
        if not isinstance(ref, tuple):
            value = self.factors[ref].at(self.x.numerator, self.x.denominator)
        elif len(ref) == 1:
            value = self[ref[0]]
        else:
            value = _mul(self[ref[0]], self[ref[1:]])
        self[ref] = value
        return value

    def form(self, refs):
        """The factor refs[0] as it stands in the product refs: a matrix's own
        form, or a vector as a ``_Sparse`` column when a vector follows it,
        else as a row."""
        value = self[refs[0]]
        if not isinstance(value, Vector):
            return value
        if self._column(refs):
            return _Sparse([{0: v} if v else {} for v in value], 1)
        return _Sparse([{j: v for j, v in enumerate(value) if v}], len(value))

    def _column(self, refs) -> bool:
        return len(refs) > 1 and isinstance(self[refs[1]], Vector)

    def size(self, refs, last: bool) -> int:
        """Largest |entry| of form(refs) if last, else its largest absolute row sum."""
        # a column vector's row sums are its entries
        top = last or isinstance(self[refs[0]], Vector) and self._column(refs)
        key = refs[0], top
        if key not in self.sizes:
            self.sizes[key] = self.form(refs).size(top)
        return self.sizes[key]

    def split(self, term, scale: int) -> tuple:
        """(coef, refs): the term's scalars times b^(scale - deg), and its other names."""
        coef = self.x.denominator ** (scale - _degree(term, self.factors))
        refs = []
        for ref in term:
            if isinstance(self[ref], int):
                coef *= self[ref]
            else:
                refs.append(ref)
        return coef, tuple(refs)

    def bound(self, term, scale: int) -> int:
        """|coef| ||F_1|| ... ||F_(k-1)|| max|F_k| for split(term, scale): no
        entry of the term exceeds it."""
        coef, refs = self.split(term, scale)
        return abs(coef) * prod(self.size(refs[i:], i == len(refs) - 1)
                                for i in range(len(refs)))

    def packed(self, refs) -> list:
        """Row i of the product of refs as the integer sum_j P_ij B^j."""
        if refs not in self.packs:
            form = self.form(refs)
            self.packs[refs] = (form.packed(self.width) if len(refs) == 1
                                else form.times(self.packed(refs[1:])))
        return self.packs[refs]

    def shape(self, equation) -> tuple:
        """(scale, vector): the largest degree of the equation's terms, and
        whether its sides are vectors (each term holds one vector)."""
        _, lhs, rhs = equation
        vector = sum(isinstance(self[ref], Vector) for ref in lhs[0]) == 1
        return max(_degree(term, self.factors) for term in lhs + rhs), vector

    @cached_property
    def width(self) -> int:
        """Bytes per packed digit: 4C < 2^(8 width), C bounding every matrix side."""
        bound = 0
        for equation in self.equations:
            scale, vector = self.shape(equation)
            if not vector:
                for terms in equation[1:]:
                    bound = max(bound, sum(self.bound(term, scale) for term in terms))
        return exactla.pack_width(bound)


def _mul(x, y):
    """x.y, exact, on a vector side: a matrix times a vector or a vector times
    a matrix, as no term in IDENTITIES puts its vector before two matrices
    (outer products only arise on matrix sides).  A ``_Sparse`` is read by
    its nonzeros, under exactla.mat_vec's and vec_mat's checks; a ``_Table``
    goes through them."""
    if isinstance(x, Vector):
        if not isinstance(y, _Sparse):
            return exactla.vec_mat(x, y)
        _conform(x, y.rows, y.row_kind)
        out = [0] * y.cols
        for v, row in zip(x.entries, y.nonzeros):
            for j, a in row.items():
                out[j] += v * a
        return Vector(out, y.col_kind)
    if not isinstance(x, _Sparse):
        return exactla.mat_vec(x, y)
    _conform(y, x.cols, x.col_kind)
    return Vector(x.times(y.entries), x.row_kind)


def _conform(v: Vector, length: int, kind: str) -> None:
    """exactla.mat_vec's and vec_mat's checks: v has the length and index
    kind of the matrix indices it meets."""
    if len(v) != length:
        raise exactla.DimensionMismatch(f"vector of length {len(v)} against {length} indices")
    if v.kind != kind:
        raise exactla.IndexKindMismatch(f"{v.kind} vector against {kind} indices")


def _side(terms, point: _Point, scale: int, vector: bool) -> list:
    """A vector side's entries, or a matrix side's packed rows, at b^scale."""
    total = None
    for term in terms:
        coef, refs = point.split(term, scale)
        if vector:
            rows = point[refs].entries
        elif point.bound(term, scale):
            rows = point.packed(refs)
        else:  # a zero coefficient or a zero factor: nothing to pack
            rows = [0] * point.form(refs).rows
        scaled = map(mul, repeat(coef), rows)
        total = list(scaled) if total is None else list(map(add, total, scaled))
    return total


def _mismatch(equations, point: _Point) -> dict | None:
    """Witness for the first entry where an equation fails at the point, or None."""
    for equation in equations:
        label, lhs, rhs = equation
        scale, vector = point.shape(equation)
        got, want = (_side(terms, point, scale, vector) for terms in (lhs, rhs))
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        if i is None:
            continue
        if vector:
            entry, got_ij, want_ij = [i], got[i], want[i]
        else:  # row i of each side from its balanced digits
            base = 1 << 8 * point.width
            got_row, want_row = (exactla.balanced_digits(v, base)
                                 for v in (got[i], want[i]))
            j = next(j for j in count() if got_row[j] != want_row[j])
            entry, got_ij, want_ij = [i, j], got_row[j], want_row[j]
        unit = point.x.denominator**scale
        got_ij, want_ij = Fraction(got_ij, unit), Fraction(want_ij, unit)
        return {
            "identity": label,
            "entry": entry,
            "point": str(point.x),
            "got": str(got_ij),
            "want": str(want_ij),
            "residual": str(got_ij - want_ij),
        }
    return None


@lru_cache(maxsize=1)  # the last tree's: a suite run packs each factor once
def _proof_point(td: TreeData) -> _Point:
    """The tree's factors at q = B = 2^k, B > 2(C_L + C_R) for every equation."""
    factors = _factors(td)
    norms = {ref: _Factor(0, lambda a, b, f=f: f.norm()) for ref, f in factors.items()}
    at_one = _Point(norms, Fraction(1), _EQUATIONS)
    bound = max(sum(at_one.bound(term, 0) for term in lhs + rhs) for _, lhs, rhs in _EQUATIONS)
    return _Point(factors, Fraction(exactla.kronecker_base(bound)), _EQUATIONS)


def _prove(name: str, mt: MatchedTree | TreeData) -> CheckResult:
    """Identity `name` in Z[q], decided at the tree's proof point q = B.

    See the comment on ``IDENTITIES``.  A failure's witness adds the residual
    in Z[q], ``residual_poly``: the balanced base-B digits of its value at B.
    """
    point = _proof_point(TreeData.of(mt))
    witness = _mismatch(IDENTITIES[name], point)
    if witness is None:
        return CheckResult(name, True)
    residual = exactla.balanced_digits(int(witness["residual"]), int(point.x))
    return CheckResult(name, False, dict(witness, residual_poly=entry_json(residual)))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

# the inverse checks also compare with the elimination oracle up to this p
ORACLE_MAX_P = 5


def check_det_E(mt: MatchedTree | TreeData) -> CheckResult:
    """det of the exponential matrix is q^p (1-q^2)^(p-1)."""
    td = TreeData.of(mt)
    p = td.mt.p
    det = exactla.det_bareiss(td.E)
    want = Q**p * ONE_MINUS_Q2 ** (p - 1)
    return _compare("det_E", "det E = q^p (1-q^2)^(p-1)", det, want)


def check_det_qL(mt: MatchedTree | TreeData) -> CheckResult:
    """det of the bipartite q-Laplacian is 1-q^2."""
    det = exactla.det_bareiss(TreeData.of(mt).qL)
    return _compare("det_qL", "det qL = 1-q^2", det, ONE_MINUS_Q2)


def check_bdq(mt: MatchedTree | TreeData) -> CheckResult:
    """det qB = (-1)^(p-1) q^(p-1) (1+q)^(p-1) bd_q, bd_q the peel: once ``bdq_det``
    divides det qB exactly, its quotient and the peel are compared, else the
    ``TreeData.det_qB`` that the division took."""
    td = TreeData.of(mt)
    try:
        got = qmatrices.bdq_det(td)
    except NotDivisible:
        return _compare("bdq", "det qB = (-1)^(p-1) q^(p-1) (1+q)^(p-1) bd_q",
                        td.det_qB, (-Q_ONE_PLUS_Q) ** (td.mt.p - 1) * td.bd)
    return _compare("bdq", "bd_q determinant route equals recursion", got, td.bd)


def check_sum_mu(mt: MatchedTree | TreeData) -> CheckResult:
    """At every vertex, the entries of the signed degree vector sum to
    (diff+1)q^2 - diff."""
    td, mu = TreeData.of(mt), qmatrices.qsigned_degree_vector
    return _first_failure("sum_mu", (
        _compare("sum_mu", "ones^t mu_v = (diff+1)q^2 - diff", mu(td, v).sum(),
                 Poly((-td.diff(v), 0, td.diff(v) + 1)), vertex=v) for v in range(td.mt.tree.n)))


def check_row_col_sums(mt: MatchedTree | TreeData) -> CheckResult:
    """Row/column sums of the q-Laplacian are (1-q^2) times the tau vectors."""
    return _prove("row_col_sums", mt)


def check_B_tau(mt: MatchedTree | TreeData) -> CheckResult:
    """The distance matrix sends tau_r (and tau_l^t) to the index times ones."""
    return _prove("B_tau", mt)


def check_lemma_111(mt: MatchedTree | TreeData) -> CheckResult:
    """-qL.qB + (1+q) tau_r ones^t = q(1+q) I."""
    return _prove("lemma_111", mt)


def check_inverse_E(mt: MatchedTree | TreeData) -> CheckResult:
    """qL.E = q(1-q^2) I, so E^-1 = qL/(q(1-q^2)); for p <= ORACLE_MAX_P the
    formula inverse also equals the elimination oracle's."""
    td = TreeData.of(mt)
    res = _prove("inverse_E", td)
    if not res.passed or td.mt.p > ORACLE_MAX_P:
        return res
    return _compare(
        "inverse_E", "formula inverse equals elimination oracle",
        qmatrices.inverse_E_formula(td), exactla.inverse_gauss(td.E),
    )


def check_inverse_qB(mt: MatchedTree | TreeData) -> CheckResult:
    """(-bd_q qL + (1+q) tau_r tau_l^t).qB = q(1+q) bd_q I, the closed-form
    inverse of qB with denominators cleared; for p <= ORACLE_MAX_P the
    formula inverse also equals the elimination oracle's."""
    td = TreeData.of(mt)
    res = _prove("inverse_qB", td)
    if not res.passed or td.mt.p > ORACLE_MAX_P:
        return res
    return _compare(
        "inverse_qB", "formula inverse equals elimination oracle",
        qmatrices.inverse_qB_formula(td), exactla.inverse_gauss(td.qB),
    )


def joined_qL(pieces, size: int, value) -> list:
    """qL's rows, read through ``value`` (see ``qmatrices.Laplacian``), of
    matched trees joined by edges from one L-vertex a to R-vertices b.

    Each piece is (qL's rows, mu of its join vertex, k, at), so read: the
    join vertex is in the piece's pair k, and its pair i is pair at[i] of the
    result's size pairs.  pieces[0] holds a, every other piece one b.  The
    result is the pieces' blocks plus, for the branches joined at a,
    (#branches) q^2 mu_a on a's column of the home block; and for each b, q^2
    mu_b on b's row, -mu_a mu_b^t on the home rows x b's columns and -q^2 at
    (b, a)."""
    minus, q2, zero = value((-1,)), value((0, 0, 1)), value(())
    rows = [[zero] * size for _ in range(size)]
    for qL, _, _, at in pieces:
        for i, row in zip(at, qL):
            out = rows[i]
            for j, e in zip(at, row):
                out[j] = e
    (_, mu_a, k_a, home), *branches = pieces
    a = home[k_a]
    for i, m in zip(home, mu_a):
        rows[i][a] += len(branches) * q2 * m
    for _, mu_b, k_b, at in branches:
        row_b = rows[at[k_b]]
        for j, m in zip(at, mu_b):
            row_b[j] += q2 * m
        row_b[a] += minus * q2
        for i, m in zip(home, mu_a):
            for j, m_b in zip(at, mu_b):
                rows[i][j] = minus * m * m_b
    return rows


def _norm(coeffs) -> int:
    """Coefficients read as their 1-norm (see ``qmatrices.Laplacian``)."""
    return sum(map(abs, coeffs))


def _read(td: TreeData, value) -> SimpleNamespace:
    """The tree's qL rows, tau_r and each vertex's mu, read off its Laplacian through value."""
    lap, index, side = td.lap, td.mt.index_of, td.mt.side_of
    return SimpleNamespace(td=td, value=value, qL=lap.rows(value), tau_r=lap.tau("R", value),
                           mu=[lap.mu(index[v], side[v], value) for v in range(len(index))])


# the lone pair that an attachment joins to the tree, l = 0 and r = 1
_P2 = qmatrices.laplacian(((1,), (0,)), ((0, 1),))


def predicted_attach_qL(reading: SimpleNamespace, v: int) -> list:
    """qL's rows of attach_p2(mt, v), read as ``reading`` is (see ``_read``):
    mt joined at v to a lone pair, pair last."""
    mt, value = reading.td.mt, reading.value
    p, side = mt.p, mt.side_of[v]
    tree = (reading.qL, reading.mu[v], mt.index_of[v], range(p))
    pair = (_P2.rows(value), _P2.mu(0, "R" if side == "L" else "L", value), 0, (p,))
    return joined_qL((tree, pair) if side == "L" else (pair, tree), p + 1, value)


def predicted_attach_tau_r(reading: SimpleNamespace, v: int) -> list:
    """tau_r of attach_p2(mt, v) from mt's tau_r and mu, read as ``reading`` is.

    For an R-side attachment the correction on the existing entry carries a
    q^2 factor (forced by the row-sum identity; checked against the direct
    computation on every enumerated tree).
    """
    mt, value = reading.td.mt, reading.value
    entries = list(reading.tau_r)
    if mt.side_of[v] == "R":
        scale = 1 + reading.td.diff(v)
        entries[mt.index_of[v]] += value((0, 0, -scale))
        entries.append(value((scale,)))
    else:
        entries = [t + value((-1,)) * m for t, m in zip(entries, reading.mu[v])]
        entries.append(value((1,)))
    return entries


def block_split_vertices(mt: MatchedTree):
    return [k for k in range(mt.p) if mt.tree.degree(mt.l_vertex(k)) >= 2]


def predicted_block_qL(mt: MatchedTree, k1: int):
    """qL reassembled by joined_qL from the subtrees split off at the L-vertex
    v of pair k1 (degree >= 2), each with its own ``qmatrices.laplacian``.

    Cutting v from its neighbours but its partner leaves the home component,
    which holds pair k1, and one branch per cut neighbour w; in one
    ``treecore.bfs`` from v, each vertex further out joins its parent's
    piece.  Each piece is mt's lists restricted to its pairs
    (``treecore.sub_lists``), pairs in mt's order: a connected piece of a
    tree is a tree, and the cut edges are off the matching, so it needs no
    validation.  Returns
    (predicted, bound): predicted(value) is (qL's rows, mu1) read through
    value in mt's pair order, mu1 being v's signed degree vector in the home
    subtree (zero off home); bound bounds the norm of each of their entries.
    """
    v, partner = mt.pairs[k1]
    joins = [v, *sorted(w for w in mt.tree.adj[v] if w != partner)]  # of each piece
    piece = {v: 0, partner: 0, **{w: b for b, w in enumerate(joins[1:], 1)}}
    order, parent = treecore.bfs(mt.tree.adj, v)
    for x in order[1:]:
        piece.setdefault(x, piece[parent[x]])
    ats = [[] for _ in joins]
    for k in range(mt.p):
        ats[piece[mt.l_vertex(k)]].append(k)
    pieces = [(qmatrices.laplacian(*treecore.sub_lists(mt, at)), mt.side_of[join],
               at.index(mt.index_of[join]), at) for join, at in zip(joins, ats)]

    def predicted(value):
        read = [(lap.rows(value), lap.mu(k, side, value), k, at) for lap, side, k, at in pieces]
        home = dict(zip(ats[0], read[0][1]))
        return joined_qL(read, mt.p, value), [home.get(k, value(())) for k in range(mt.p)]

    # mu1's entries are among the home block's
    bound = _joined_bound([(max(map(max, lap.rows(_norm))), max(lap.mu(k, side, _norm)))
                           for lap, side, k, _ in pieces])
    return predicted, bound


def _joined_bound(pieces) -> int:
    """A bound on the norm of every entry that joined_qL gives for pieces with
    qL and mu entries of norm at most pieces[i] = (qL, mu): joined_qL read as
    norms on the pieces collapsed to one pair each, where every kind of entry
    (home block, a's column, b's row, (b, a), home x b) takes its terms."""
    collapsed = [([[q]], [m], 0, (i,)) for i, (q, m) in enumerate(pieces)]
    return max(map(max, joined_qL(collapsed, len(collapsed), _norm)))


@lru_cache(maxsize=1)  # the last tree's: both checks share it
def _join_point(td: TreeData) -> tuple:
    """(grown, splits, reading, B): the Laplacian of the tree grown at each
    vertex, predicted_block_qL at each split pair, and the tree read at B.

    The tree grown at v is attach_p2(mt, v) as lists alone: the pendant pair
    spliced into mt's neighbour lists (``treecore.grown_lists``) and its pair
    appended last.  A validated tree with a pendant path hung at one vertex
    is a tree, and its pairs a perfect matching in attach_p2's order, so no
    Tree or MatchedTree is built or checked.

    B = 2^k > 2(C_got + C_want).  C_got bounds the coefficient 1-norm of every
    entry read off a tree: the grown trees' by ``Laplacian.norm``, this one's
    read off its ``Laplacian`` as norms.  C_want bounds every prediction's:
    each join's by ``_joined_bound``, each tau_r update's read as norms.
    """
    mt = td.mt
    grown = [qmatrices.laplacian(adj, (*mt.pairs, treecore.attached_pair(mt, v)))
             for v, adj in treecore.grown_lists(mt.tree.adj)]
    splits = {k1: predicted_block_qL(mt, k1) for k1 in block_split_vertices(mt)}
    norms = _read(td, _norm)
    qL, mu = max(map(max, norms.qL)), max(map(max, norms.mu))
    got = max(qL, mu, *(lap.norm() for lap in grown))
    # an attachment joins the tree to the lone pair: either order has the same largest entry
    pair = max(map(max, _P2.rows(_norm))), max(_P2.mu(0, "R", _norm))
    want = max(_joined_bound([(qL, mu), pair]),
               *(max(predicted_attach_tau_r(norms, v)) for v in range(mt.tree.n)),
               *(bound for _, bound in splits.values()))
    base = exactla.kronecker_base(got + want)
    # coefficients (ascending) read as their value at base, each tuple once
    value = lru_cache(maxsize=None)(lambda coeffs: sum(c * base**i for i, c in enumerate(coeffs)))
    return grown, splits, _read(td, value), base


def _compare_at(name: str, label: str, base: int, got, want, **where) -> CheckResult:
    """_compare of two vectors or matrices given by their values at q = base,
    each entry read back into Z[q] as its balanced base digits."""
    def zq(x):
        x = Matrix(x, KIND_R, KIND_L) if isinstance(x[0], list) else Vector(x, KIND_R)
        return x.map(lambda e: exactla.balanced_digits(e, base))
    return CheckResult(name, True) if got == want else _compare(
        name, label, zq(got), zq(want), **where)


def _first_failure(name: str, results) -> CheckResult:
    return next((r for r in results if not r.passed), CheckResult(name, True))


def check_attach_update(mt: MatchedTree | TreeData) -> CheckResult:
    """Block update formulas for qL and tau_r under pair attachment, at every
    vertex, decided at the tree's ``_join_point``."""
    grown, _, reading, base = _join_point(TreeData.of(mt))
    name, value = "attach_update", reading.value
    return _first_failure(name, (res for v, lap in enumerate(grown) for res in (
        _compare_at(name, f"qL block update at vertex {v}", base,
                    lap.rows(value), predicted_attach_qL(reading, v), vertex=v),
        _compare_at(name, f"tau_r update at vertex {v}", base,
                    lap.tau("R", value), predicted_attach_tau_r(reading, v), vertex=v))))


def check_block_decomposition(mt: MatchedTree | TreeData) -> CheckResult:
    """qL reassembles from the split subtrees at any branching L-vertex,
    decided at the tree's ``_join_point``."""
    td, name = TreeData.of(mt), "block_decomposition"
    if not block_split_vertices(td.mt):
        return CheckResult(name, True, skipped="no L-vertex of degree >= 2")
    _, splits, reading, base = _join_point(td)
    predictions = ((k1, *predicted(reading.value)) for k1, (predicted, _) in splits.items())
    return _first_failure(name, (res for k1, qL, mu1 in predictions for res in (
        _compare_at(name, f"qL block reassembly at pair {k1}", base,
                    reading.qL, qL, split_pair=k1),
        _compare_at(name, f"signed degree vector restriction at pair {k1}", base,
                    reading.mu[td.mt.l_vertex(k1)], mu1, split_pair=k1))))


def check_q1_properties(mt: MatchedTree | TreeData) -> CheckResult:
    """Specialization at q=1: sums, adjugate, rank, symmetry, inverse; the last
    as B.(D inverse_B_q1) = D I over Z, D the lcm of inverse_B_q1's denominators."""
    td = TreeData.of(mt)
    p = td.mt.p
    ints = td.qL.map(lambda e: sum(e.coeffs))  # qL at q = 1
    adj = exactla.adjugate_int(ints)
    inverse = qmatrices.inverse_B_q1(td)
    den = lcm(*(x.denominator for row in inverse.entries for x in row))
    # one side suffices: for square matrices over Q, B.X = I gives X.B = I
    product = exactla.mat_mul(qmatrices.distance_block(td),
                              inverse.map(lambda x: x.numerator * (den // x.denominator)))
    name = "q1_properties"
    return _first_failure(name, (
        _compare(name, "row sums of the q=1 Laplacian",
                 Vector(map(sum, ints.entries), KIND_R), Vector([0] * p, KIND_R)),
        _compare(name, "column sums of the q=1 Laplacian",
                 Vector(map(sum, zip(*ints.entries)), KIND_L), Vector([0] * p, KIND_L)),
        _compare(name, "adjugate is all-ones", adj,
                 Matrix([[1] * p] * p, adj.row_kind, adj.col_kind)),
        _compare(name, "rank of the q=1 Laplacian", exactla.rank_int(ints), p - 1),
        _compare(name, "symmetry iff corona", ints.entries == ints.transpose().entries,
                 qmatrices.is_corona(td.mt)),
        CheckResult(name, True) if product == Matrix.identity(p, KIND_L, KIND_L, den, 0)
        else _compare(name, "B . inverse_B = I at q=1", product.map(lambda x: Fraction(x, den)),
                      Matrix.identity(p, KIND_L, KIND_L, Fraction(1), Fraction(0)))))


def check_full_dq_ed(tree: treecore.Tree | TreeData) -> CheckResult:
    """Full-matrix determinants of the vertex-indexed distance analogues qD
    and eD, built from one distance table: a TreeData lends its table, a bare
    Tree (which needs no perfect matching) gets one distances call.

    With L_q = I - qA + q^2 (Deg - I) read from the adjacency, L_q.eD =
    (1-q^2) I and want_ed det L_q = (1-q^2)^n give det eD = want_ed.  Then
    eD^-1 = L_q/(1-q^2), 1^t L_q 1 = (1-q)(n - (n-2) q) on a tree, and
    (q-1) qD = eD - J, J all ones, as (q-1) [d]_q = q^d - 1: the determinant
    lemma gives (q-1)^n (1+q) det qD = (n-1)(q-1) det eD, which want_qd must
    satisfy.  L_q.eD is decided at q = b = 2^k past twice the sum of both
    sides' coefficient bounds, read from the degrees and the built eD, and
    (q-1) qD = eD - J in Z[q], once per distinct pair of entries.  Only if the
    certificate fails are the two dense determinants taken, qD's first, for
    the verdict and witness.
    """
    dist, adj = ((tree.dist, tree.mt.tree.adj) if isinstance(tree, TreeData)
                 else (treecore.distances(tree), tree.adj))
    qd, ed = qmatrices.build_full_qD(dist), qmatrices.build_full_eD(dist)
    claims = _dq_ed_claims(len(dist))
    if _dq_ed_certificate(adj, qd, ed, *claims):
        return CheckResult("full_dq_ed", True)
    return _first_failure("full_dq_ed", (
        _compare("full_dq_ed", label, exactla.det_bareiss(d), want) for label, d, want in (
            ("det qD = (-1)^(n-1) (n-1) (1+q)^(n-2)", qd, claims[0]),
            ("det eD = (1-q^2)^(n-1)", ed, claims[1]))))


@lru_cache(maxsize=64)
def _dq_ed_claims(n: int) -> tuple:
    """want_qd, want_ed, (1-q^2)^n, (q-1)^n (1+q) and (n-1)(q-1) on n vertices."""
    return ((-1) ** (n - 1) * (n - 1) * ONE_PLUS_Q ** (n - 2), ONE_MINUS_Q2 ** (n - 1),
            ONE_MINUS_Q2**n, Q_MINUS_ONE**n * ONE_PLUS_Q, (n - 1) * Q_MINUS_ONE)


def _dq_ed_certificate(adj, qd: Matrix, ed: Matrix, want_qd, want_ed, ed_det, qd_scale, ed_scale):
    """Whether the certificate of ``check_full_dq_ed`` holds."""
    pairs = {(a.coeffs, e.coeffs) for r, s in zip(qd.entries, ed.entries) for a, e in zip(r, s)}
    index = {}  # each distinct coefficient tuple of eD, numbered once
    ed_i = [[index.setdefault(e.coeffs, len(index)) for e in row] for row in ed.entries]
    # row v of L_q has norm 2 deg(v): 2 max deg max ||entry|| + 2 bounds both sides
    b = exactla.kronecker_base(2 * max(map(len, adj)) * max(map(_norm, index)) + 2)
    width = exactla.pack_width(b ** (max(map(len, index)) + 2))  # past every entry at b
    ed_p = exactla.pack_rows(ed_i, width, [sum(c * b**i for i, c in enumerate(cs))
                                           for cs in index])  # as in IDENTITIES
    ed_l = [(1 + (len(a) - 1) * b * b) * y - b * sum(map(ed_p.__getitem__, a))
            for y, a in zip(ed_p, adj)]  # L_q.eD, L_vv = 1 + (deg(v) - 1) q^2
    return (all(Q_MINUS_ONE * Poly(a) == Poly(e) - ONE for a, e in pairs)
            and ed_l == [(1 - b * b) << 8 * width * i for i in range(len(adj))]
            and want_ed * _det_vertex_laplacian(adj) == ed_det
            and qd_scale * want_qd == ed_scale * want_ed)


def _det_vertex_laplacian(adj) -> Poly:
    """det L_q = f(0), f(v) = L_vv prod f(c) - q^2 sum_c g(c) prod_(c' != c) f(c')
    and g(v) = prod f(c) over v's children c, with no division, at q = b, the
    ``exactla.kronecker_base`` of the product of the row norms 2 deg(v), which
    bounds det L_q's coefficients (see ``exactla._kronecker_rows``).  The
    children are v's neighbours but its parent in one ``treecore.bfs`` from 0."""
    b = exactla.kronecker_base(prod(2 * len(a) for a in adj))
    (order, parent), f, g = treecore.bfs(adj, 0), [0] * len(adj), [0] * len(adj)
    for v in reversed(order):  # leaves first: v's children are done, its parent not
        prod_f, sum_g = 1, 0  # prod f(c), sum_c g(c) prod_(c' != c) f(c')
        for c in filter(parent[v].__ne__, adj[v]):
            prod_f, sum_g = prod_f * f[c], sum_g * f[c] + prod_f * g[c]
        f[v], g[v] = (1 + (len(adj[v]) - 1) * b * b) * prod_f - b * b * sum_g, prod_f
    return exactla.balanced_digits(f[0], b)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_suite(mt: MatchedTree | TreeData) -> VerificationReport:
    """The thirteen symbolic checks on one tree, in the order listed here;
    this list is the suite."""
    td = TreeData.of(mt)
    results = (
        check_det_E(td),
        check_det_qL(td),
        check_bdq(td),
        check_sum_mu(td),
        check_row_col_sums(td),
        check_B_tau(td),
        check_lemma_111(td),
        check_inverse_E(td),
        check_inverse_qB(td),
        check_attach_update(td),
        check_block_decomposition(td),
        check_q1_properties(td),
        check_full_dq_ed(td),
    )
    return VerificationReport(
        treecore.canonical_code(td.mt.tree), td.mt.p, results
    )


def run_enumerated(max_vertices: int, threads: int = 1):
    """Symbolic suite over every nonsingular tree with 2p <= max_vertices.

    The reports come in enumerate_upto's order, by p then canonical code,
    which pool.map keeps.
    """
    trees = list(treecore.enumerate_upto(max_vertices))
    workers = min(threads, os.cpu_count() or 1, len(trees))
    if workers <= 1:
        return [run_suite(t) for t in trees]
    import concurrent.futures  # only a parallel run pays for the import

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_suite, trees, chunksize=4))


def summary_line(reports) -> str:
    checks = sum(len(r.results) for r in reports)
    fails = sum(1 for r in reports for c in r.results if not c.passed)
    return f"TREES {len(reports)} CHECKS {checks} FAIL {fails}"


# ---------------------------------------------------------------------------
# exact evaluation at rational points (large random trees)
# ---------------------------------------------------------------------------

EXCLUDED_POINTS = (Fraction(0), Fraction(1), Fraction(-1))
DEFAULT_Q_POINTS = (
    Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2), Fraction(5, 3)
)


def _rational_points(q_points) -> list[Fraction]:
    points = [Fraction(exact_point(x)) for x in q_points]
    if not points:
        raise ValueError("no evaluation points")
    for i, x in enumerate(points):
        if x in EXCLUDED_POINTS:
            raise ValueError(f"q = {x} is an excluded evaluation point")
        if x in points[:i]:
            raise ValueError(f"q = {x} is given more than once")
    return points


def evaluate_identities_at(mt: MatchedTree | TreeData, *q_points) -> list[CheckResult]:
    """The five product identities at each exact rational point, point by point.

    The tree's factors are built once, as for the proof point; each point's
    values are dropped before the next point is evaluated.
    """
    points = _rational_points(q_points)
    factors = _factors(TreeData.of(mt))
    results = []
    for x in points:
        point = _Point(factors, x, _EQUATIONS)  # frees the previous point's matrices
        for name, identity in IDENTITIES.items():
            label = f"{_POINT_NAMES.get(name, name)}@{x}"
            if name == "inverse_qB" and point["bd"] == 0:
                results.append(CheckResult(label, True,
                                           skipped="bd_q vanishes at this point"))
            else:
                witness = _mismatch(identity, point)
                results.append(CheckResult(label, witness is None, witness))
    return results


def run_random(p: int, trials: int, seed: int, q_points=DEFAULT_Q_POINTS):
    """Evaluated suite on random trees; one report per tree, all points in it."""
    if trials < 1:
        raise ValueError("need at least one random trial")
    points = _rational_points(q_points)
    reports = []
    for t in range(trials):
        mt = treecore.random_nonsingular(p, seed + t)
        reports.append(VerificationReport(
            treecore.canonical_code(mt.tree), mt.p,
            tuple(evaluate_identities_at(mt, *points)),
        ))
    return reports
