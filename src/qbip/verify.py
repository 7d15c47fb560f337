"""Named identity checks over matched trees, with pass/fail witnesses.

Every check compares both sides of one identity exactly; a failure carries
the offending index and the nonzero residual so it can be replayed
standalone.  A suite run wraps its tree once in a ``qmatrices.TreeData`` and
every check reads the distances, qL, qB, E, tau, mu and bd_q from it, so
each is built once per tree; only the trees grown or split by the attachment
checks get their own builds.

The five product identities (B_tau, row_col_sums, lemma_111, inverse_E,
inverse_qB) are stated once each, in ``IDENTITIES``, as Z[q] matrix
equations with every denominator cleared.  One engine checks them: it
evaluates each factor at q = a/b as an integer matrix scaled by b^deg and
compares plain integers.  A vector side is compared entry by entry, after
exactla's matrix-vector products.  A matrix side M is compared as M.v, with
v = (1, B, ..., B^(n-1)): each row packs into one integer, so a product
costs one big-integer operation per nonzero of its left factor.  B is
chosen from a bound C on every entry so that 4C < B, which makes equal
packed rows mean equal rows and lets a failing row be read back for its
witness (see the comment on ``IDENTITIES``).  The enumerated suite runs the
engine at one integer point q = 2^k per tree, shared by all five identities,
k read from the factors' coefficients so that the sides of every equation
are equal in Z[q] iff they are equal there: a pass is a proof in Z[q]; the
random large-tree suite runs the same engine at the user's rational points.
The other checks compare Z[q] canonical forms directly.  Nothing is ever
approximate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, count, repeat
from math import prod
from operator import add, mul
from typing import Callable, NamedTuple

from . import exactla, qmatrices, treecore
from .exactla import KIND_L, KIND_R, Matrix, Vector, entry_json
from .polyalg import (
    ONE, ONE_MINUS_Q2, ONE_PLUS_Q, Q, Q2, Q_ONE_PLUS_Q, Poly, ZERO,
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
# rows of G, one big-integer operation per nonzero of F.  For a term
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
# the two sides, an entry of lhs - rhs has coefficients in [-(C_L + C_R),
# C_L + C_R], so at q = 2^k > 2(C_L + C_R) it is 0 only if it is 0 in Z[q]
# (Kronecker substitution), and else it reads back as its base-2^k digits.
# One such point, past 2(C_L + C_R) of every equation, proves all of a tree's
# identities (_proof_point).
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


def _poly_factor(x) -> _Factor:
    """A Poly, or a Vector or Matrix of them; deg is its largest entry degree.

    The nonzero entries are found once; a point and the norm read only them.
    """
    if isinstance(x, Poly):
        deg = max(0, x.degree())
        return _Factor(deg, lambda a, b: sum(map(mul, x.coeffs, _monomials(a, b, deg))),
                       lambda: sum(map(abs, x.coeffs)))
    rows = (x.entries,) if isinstance(x, Vector) else x.entries
    support = [[(j, e.coeffs) for j, e in enumerate(row) if e.coeffs] for row in rows]
    deg = max((len(c) - 1 for nonzeros in support for _, c in nonzeros), default=0)

    def fill(value):  # value(coeffs) at each nonzero entry, 0 elsewhere
        values = [[0] * len(rows[0]) for _ in rows]
        for row, nonzeros in zip(values, support):
            for j, coeffs in nonzeros:
                row[j] = value(coeffs)
        if isinstance(x, Vector):
            return Vector(values[0], x.kind)
        return Matrix(values, x.row_kind, x.col_kind)

    def at(a, b):
        monomials = _monomials(a, b, deg)
        return fill(lambda coeffs: sum(map(mul, coeffs, monomials)))

    return _Factor(deg, at, lambda: fill(lambda coeffs: sum(map(abs, coeffs))))


def _monomials(a: int, b: int, deg: int) -> list:
    """a^i b^(deg - i) for i = 0..deg: q^i at q = a/b, times b^deg."""
    return [a**i * b ** (deg - i) for i in range(deg + 1)]


def _distance_factors(mt: MatchedTree | TreeData):
    """qB = [dist] and E = q^dist over L x R, read straight from the distance table.

    The integer L x R block is read once; at a point each entry d is looked up
    in a table of the values at d = 0..dmax.
    """
    block = qmatrices.distance_block(TreeData.of(mt)).entries
    dmax = max(map(max, block))

    def lookup(table):
        return Matrix((map(table.__getitem__, row) for row in block), KIND_L, KIND_R)

    def qB(a, b):  # [d] = 1 + q + ... + q^(d-1), times b^(dmax-1)
        return lookup([0, *accumulate(a**i * b ** (dmax - 1 - i) for i in range(dmax))])

    def E(a, b):  # q^d, times b^dmax
        return lookup([a**d * b ** (dmax - d) for d in range(dmax + 1)])

    # norms: [d] has d unit coefficients, q^d one
    return (_Factor(dmax - 1, qB, lambda: lookup(range(dmax + 1))),
            _Factor(dmax, E, lambda: lookup([1] * (dmax + 1))))


def _factors(td: TreeData, bd: Poly) -> dict:
    """Every factor of the tree's product identities, by name, bd_q given."""
    p = td.mt.p
    ones_L, ones_R = Vector((1,) * p, KIND_L), Vector((1,) * p, KIND_R)
    eye = Matrix.identity(p, KIND_R, KIND_R, one=1, zero=0)
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
        "bd": _poly_factor(bd),
    }
    factors["tau_l"], factors["tau_r"] = map(_poly_factor, td.tau)
    factors["qB"], factors["E"] = _distance_factors(td)
    return factors


def _degree(term, factors: dict) -> int:
    return sum(factors[ref].deg for ref in term)


class _Point(dict):
    """One tree's factors at q = x, as integers scaled by b^deg, and their products.

    A factor is keyed by its name and an exact product by the tuple of its
    factor names, folded right to left.  The products on matrix sides are
    kept as packed rows instead, all at one width fixed by the matrix sides
    of ``equations``.  Values are built on first use and live as long as
    the point.
    """

    def __init__(self, factors: dict, x: Fraction, equations):
        super().__init__()
        self.factors, self.x, self.equations = factors, x, equations
        self.shapes, self.splits, self.sizes, self.bounds, self.packs = {}, {}, {}, {}, {}

    def __missing__(self, ref):
        if not isinstance(ref, tuple):
            value = self.factors[ref].at(self.x.numerator, self.x.denominator)
        elif len(ref) == 1:
            value = self[ref[0]]
        else:
            value = _mul(self[ref[0]], self[ref[1:]])
        self[ref] = value
        return value

    def rows(self, refs) -> tuple:
        """Integer rows of the factor refs[0] as it stands in the product refs.

        A vector is a column when a vector follows it, else a row.
        """
        value = self[refs[0]]
        if isinstance(value, Matrix):
            return value.entries
        return tuple(zip(value.entries)) if self._column(refs) else (value.entries,)

    def _column(self, refs) -> bool:
        return len(refs) > 1 and isinstance(self[refs[1]], Vector)

    def size(self, refs, last: bool) -> int:
        """Largest |entry| of rows(refs) if last, else its largest absolute row sum."""
        value = self[refs[0]]
        vector = isinstance(value, Vector)
        top = last or vector and self._column(refs)  # a column's row sums are its entries
        key = refs[0], top
        if key not in self.sizes:
            if vector:
                v = value.entries
                self.sizes[key] = max(max(v), -min(v)) if top else sum(map(abs, v))
            else:
                rows = value.entries
                self.sizes[key] = (max(max(map(max, rows)), -min(map(min, rows))) if top
                                   else max(map(sum, map(map, repeat(abs), rows))))
        return self.sizes[key]

    def split(self, term, scale: int) -> tuple:
        """(coef, refs): the term's scalars times b^(scale - deg), and its other names."""
        key = term, scale
        if key not in self.splits:
            coef = self.x.denominator ** (scale - _degree(term, self.factors))
            refs = []
            for ref in term:
                if isinstance(self[ref], int):
                    coef *= self[ref]
                else:
                    refs.append(ref)
            self.splits[key] = coef, tuple(refs)
        return self.splits[key]

    def bound(self, term, scale: int) -> int:
        """|coef| ||F_1|| ... ||F_(k-1)|| max|F_k| for split(term, scale): no
        entry of the term exceeds it."""
        key = term, scale
        if key not in self.bounds:
            coef, refs = self.split(term, scale)
            self.bounds[key] = abs(coef) * prod(self.size(refs[i:], i == len(refs) - 1)
                                                for i in range(len(refs)))
        return self.bounds[key]

    def packed(self, refs) -> list:
        """Row i of the product of refs as the integer sum_j P_ij B^j."""
        if refs not in self.packs:
            rows = self.rows(refs)
            if len(refs) == 1:
                self.packs[refs] = exactla.pack_rows(rows, self.width)
            else:
                tail = self.packed(refs[1:])
                self.packs[refs] = [sum(map(mul, filter(None, row), compress(tail, row)))
                                    for row in rows]
        return self.packs[refs]

    def shape(self, equation) -> tuple:
        """(scale, vector): the largest degree of the equation's terms, and
        whether its sides are vectors (each term holds one vector)."""
        label, lhs, rhs = equation
        if label not in self.shapes:
            vector = sum(isinstance(self[ref], Vector) for ref in lhs[0]) == 1
            self.shapes[label] = max(_degree(term, self.factors) for term in lhs + rhs), vector
        return self.shapes[label]

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
    """x.y, exact, on a vector side (outer products only arise on matrix sides)."""
    if isinstance(x, Matrix):
        return exactla.mat_mul(x, y) if isinstance(y, Matrix) else exactla.mat_vec(x, y)
    return exactla.vec_mat(x, y)


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
            rows = [0] * len(point.rows(refs))
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
    factors = _factors(td, td.bd)
    norms = {ref: _Factor(0, lambda a, b, f=f: f.norm()) for ref, f in factors.items()}
    at_one = _Point(norms, Fraction(1), _EQUATIONS)
    bound = max(sum(at_one.bound(term, 0) for term in lhs + rhs) for _, lhs, rhs in _EQUATIONS)
    return _Point(factors, Fraction(1 << (2 * bound).bit_length()), _EQUATIONS)


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
    """Determinant route and recursive route agree on the distance index."""
    # det qB = (-1)^(p-1) q^(p-1) (1+q)^(p-1) bd_q holds by construction once
    # bdq_det's exact division succeeds, so only the two routes are compared
    td = TreeData.of(mt)
    return _compare("bdq", "bd_q determinant route equals recursion",
                    td.bd, qmatrices.bdq_recursive(td.mt))


def check_sum_mu(mt: MatchedTree | TreeData) -> CheckResult:
    """At every vertex, the entries of the signed degree vector sum to
    (diff+1)q^2 - diff."""
    td = TreeData.of(mt)
    for v in range(td.mt.tree.n):
        f = treecore.diff(td.mt, v)
        res = _compare("sum_mu", "ones^t mu_v = (diff+1)q^2 - diff",
                       td.mu(v).sum(), Poly((-f, 0, f + 1)), vertex=v)
        if not res.passed:
            return res
    return CheckResult("sum_mu", True)


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
    if not td.bd:
        return CheckResult("inverse_qB", False, {
            "identity": "closed-form inverse of qB",
            "got": "bd_q is identically zero",
            "want": "nonzero bd_q",
            "residual": "0",
        })
    res = _prove("inverse_qB", td)
    if not res.passed or td.mt.p > ORACLE_MAX_P:
        return res
    return _compare(
        "inverse_qB", "formula inverse equals elimination oracle",
        qmatrices.inverse_qB_formula(td), exactla.inverse_gauss(td.qB),
    )


def joined_qL(pieces, size: int) -> Matrix:
    """qL of matched trees joined by edges from one L-vertex a to R-vertices b.

    Each piece is (qL, mu of its join vertex, k, at): the join vertex is in
    the piece's pair k, and its pair i is pair at[i] of the result's size
    pairs.  pieces[0] holds a, every other piece one b.  The result is the
    pieces' blocks plus, for the branches joined at a, (#branches) q^2 mu_a
    on a's column of the home block; and for each b, q^2 mu_b on b's row,
    -mu_a mu_b^t on the home rows x b's columns and -q^2 at (b, a).
    """
    rows = [[ZERO] * size for _ in range(size)]
    for qL, _, _, at in pieces:
        for i, row in zip(at, qL.entries):
            out = rows[i]
            for j, e in zip(at, row):
                out[j] = e
    (_, mu_a, k_a, home), *branches = pieces
    a = home[k_a]
    for i, m in zip(home, mu_a):
        rows[i][a] += len(branches) * Q2 * m
    for _, mu_b, k_b, at in branches:
        row_b = rows[at[k_b]]
        for j, m in zip(at, mu_b):
            row_b[j] += Q2 * m
        row_b[a] -= Q2
        for i, m in zip(home, mu_a):
            out = rows[i]
            for j, m_b in zip(at, mu_b):
                out[j] = -m * m_b
    return Matrix(rows, KIND_R, KIND_L)


# a lone matched pair: qL = [1 - q^2], and mu = (1) at either vertex
_PAIR_QL = Matrix([[ONE_MINUS_Q2]], KIND_R, KIND_L)
_PAIR_MU = (ONE,)


def predicted_attach_qL(mt: MatchedTree | TreeData, v: int) -> Matrix:
    """qL of attach_p2(mt, v): mt joined at v to a lone pair, pair last."""
    td = TreeData.of(mt)
    p = td.mt.p
    tree = (td.qL, td.mu(v), td.mt.index_of[v], range(p))
    pair = (_PAIR_QL, _PAIR_MU, 0, (p,))
    return joined_qL((tree, pair) if td.mt.side_of[v] == "L" else (pair, tree), p + 1)


def predicted_attach_tau_r(mt: MatchedTree | TreeData, v: int) -> Vector:
    """tau_r of attach_p2(mt, v) from mt's tau_r and signed degree data.

    For an R-side attachment the correction on the existing entry carries a
    q^2 factor (forced by the row-sum identity; checked against the direct
    computation on every enumerated tree).
    """
    td = TreeData.of(mt)
    _, tau_r = td.tau
    k = td.mt.index_of[v]
    if td.mt.side_of[v] == "R":
        scale = 1 + treecore.diff(td.mt, v)
        entries = [
            t - scale * Q2 if i == k else t for i, t in enumerate(tau_r)
        ]
        entries.append(Poly((scale,)))
    else:
        entries = [t - m for t, m in zip(tau_r, td.mu(v))]
        entries.append(ONE)
    return Vector(entries, KIND_R)


def check_attach_update(mt: MatchedTree | TreeData) -> CheckResult:
    """Block update formulas for qL and tau_r under pair attachment, at
    every vertex."""
    td = TreeData.of(mt)
    for v in range(td.mt.tree.n):
        grown = treecore.attach_p2(td.mt, v)
        res = _compare(
            "attach_update", f"qL block update at vertex {v}",
            qmatrices.build_qL(grown), predicted_attach_qL(td, v), vertex=v,
        )
        if not res.passed:
            return res
        tau_r = Vector((qmatrices.tau_at(grown, r) for r in grown.r_vertices), KIND_R)
        res = _compare(
            "attach_update", f"tau_r update at vertex {v}",
            tau_r, predicted_attach_tau_r(td, v), vertex=v,
        )
        if not res.passed:
            return res
    return CheckResult("attach_update", True)


def block_split_vertices(mt: MatchedTree):
    return [k for k in range(mt.p) if mt.tree.degree(mt.l_vertex(k)) >= 2]


def predicted_block_qL(mt: MatchedTree, k1: int):
    """qL reassembled by joined_qL from the subtrees split off at the L-vertex
    v of pair k1 (degree >= 2).

    Cutting v from its neighbours but its partner leaves the home component,
    which holds pair k1, and one branch per cut neighbour w.  Returns
    (predicted, home, mu1), all in mt's pair order: predicted is qL; home
    lists the home component's pair indices, ascending; mu1 is v's signed
    degree vector in the home subtree, at home's pairs and zero elsewhere.
    """
    v, partner = mt.pairs[k1]
    joins = [v, *sorted(w for w in mt.tree.adj[v] if w != partner)]  # of each piece
    piece = {v: 0, partner: 0, **{w: b for b, w in enumerate(joins[1:], 1)}}
    stack = [partner, *joins[1:]]
    while stack:  # one walk from v gives each vertex its piece
        x = stack.pop()
        for y in mt.tree.adj[x]:
            if y not in piece:
                piece[y] = piece[x]
                stack.append(y)
    ats = [[] for _ in joins]
    for k in range(mt.p):
        ats[piece[mt.l_vertex(k)]].append(k)
    pieces = []
    for join, at in zip(joins, ats):
        sub, relabel = treecore.sub_matched_tree(mt, at)
        pieces.append((qmatrices.build_qL(sub),
                       qmatrices.qsigned_degree_vector(sub, relabel[join]),
                       at.index(mt.index_of[join]), at))
    _, mu_home, _, home = pieces[0]
    mu1 = [ZERO] * mt.p
    for k, m in zip(home, mu_home):
        mu1[k] = m
    return joined_qL(pieces, mt.p), home, Vector(mu1, KIND_R)


def check_block_decomposition(mt: MatchedTree | TreeData) -> CheckResult:
    """qL reassembles from the split subtrees at any branching L-vertex."""
    td = TreeData.of(mt)
    mt = td.mt
    splits = block_split_vertices(mt)
    if not splits:
        return CheckResult("block_decomposition", True,
                           skipped="no L-vertex of degree >= 2")
    for k1 in splits:
        predicted, _, mu1 = predicted_block_qL(mt, k1)
        res = _compare(
            "block_decomposition", f"qL block reassembly at pair {k1}",
            td.qL, predicted, split_pair=k1,
        )
        if not res.passed:
            return res
        res = _compare(
            "block_decomposition", f"signed degree vector restriction at pair {k1}",
            td.mu(mt.l_vertex(k1)), mu1, split_pair=k1,
        )
        if not res.passed:
            return res
    return CheckResult("block_decomposition", True)


def check_q1_properties(mt: MatchedTree | TreeData) -> CheckResult:
    """Specialization at q=1: sums, adjugate, rank, symmetry, inverse."""
    td = TreeData.of(mt)
    p = td.mt.p
    ints = td.qL.map(lambda e: sum(e.coeffs))  # qL at q = 1
    adj = exactla.adjugate_int(ints)
    # one side suffices: for square matrices over Q, B.X = I gives X.B = I
    product = qmatrices.eval_matrix(td.qB, Fraction(1)) @ qmatrices.inverse_B_q1(td)
    name = "q1_properties"
    results = (
        _compare(name, "row sums of the q=1 Laplacian",
                 Vector(map(sum, ints.entries), KIND_R), Vector([0] * p, KIND_R)),
        _compare(name, "column sums of the q=1 Laplacian",
                 Vector(map(sum, zip(*ints.entries)), KIND_L), Vector([0] * p, KIND_L)),
        _compare(name, "adjugate is all-ones", adj,
                 Matrix([[1] * p] * p, adj.row_kind, adj.col_kind)),
        _compare(name, "rank of the q=1 Laplacian", exactla.rank_int(ints), p - 1),
        _compare(name, "symmetry iff corona", ints.entries == ints.transpose().entries,
                 qmatrices.is_corona(td.mt)),
        _compare(name, "B . inverse_B = I at q=1", product, Matrix.identity(
            p, KIND_L, KIND_L, one=Fraction(1), zero=Fraction(0))),
    )
    return next((r for r in results if not r.passed), CheckResult(name, True))


def check_full_dq_ed(tree: treecore.Tree | TreeData) -> CheckResult:
    """Full-matrix determinants of the vertex-indexed distance analogues qD
    and eD, both from one distance table.

    A TreeData lends its table; a bare Tree (which needs no perfect matching)
    gets one distances call.
    """
    dist = tree.dist if isinstance(tree, TreeData) else treecore.distances(tree)
    n = len(dist)
    det_qd = exactla.det_bareiss(qmatrices.build_full_qD(dist))
    sign = -1 if (n - 1) % 2 else 1
    want_qd = (sign * (n - 1)) * ONE_PLUS_Q ** (n - 2)
    res = _compare(
        "full_dq_ed", "det qD = (-1)^(n-1) (n-1) (1+q)^(n-2)", det_qd, want_qd
    )
    if not res.passed:
        return res
    det_ed = exactla.det_bareiss(qmatrices.build_full_eD(dist))
    return _compare(
        "full_dq_ed", "det eD = (1-q^2)^(n-1)", det_ed, ONE_MINUS_Q2 ** (n - 1)
    )


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
    points = [Fraction(x) for x in q_points]
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

    The tree's factors are built once, bd_q by the recursion; each point's
    evaluated matrices are dropped before the next point is evaluated.
    """
    points = _rational_points(q_points)
    td = TreeData.of(mt)
    factors = _factors(td, qmatrices.bdq_recursive(td.mt))
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
