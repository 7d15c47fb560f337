"""Exact dense linear algebra over Z[q], its fraction field, Q, and Z.

This module is the referee for the closed-form constructions elsewhere in the
package: it only knows generic exact algorithms and never builds any of the
structured matrices itself.  One fraction-free Bareiss elimination over Z
(``_echelon``) gives integer ranks, Z[q] determinants by Kronecker
substitution, inverses over Q(q) with one division there per distinct entry
(its Gauss-Jordan form, at such a point) and integer adjugates (the same, at
one shifted point); characteristic polynomials come from one determinant.
Besides it: polynomials of an integer matrix, for annihilation tests, from
one Horner loop on a Kronecker-packed vector; integer rows packed into one
integer each, so that verify compares every side of a product identity row by
row with one big-integer operation per nonzero, each row's values taken in one
C-level gather by a getter built once per matrix; Sturm sequences on polyalg's
pseudo-remainder.

Matrices and vectors carry index-kind metadata ("L", "R", "Vertex") so that a
product with mismatched row/column semantics fails loudly instead of silently
transposing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import itemgetter, mul, ne

from .polyalg import ONE, ZERO, Poly, RatFun, divexact, poly_gcd, prem

KIND_L = "L"
KIND_R = "R"
KIND_VERTEX = "Vertex"


class DimensionMismatch(ValueError):
    pass


class IndexKindMismatch(ValueError):
    pass


class SingularMatrix(ArithmeticError):
    pass


class Vector:
    __slots__ = ("entries", "kind")

    def __init__(self, entries, kind: str):
        self.entries = tuple(entries)
        self.kind = kind

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.kind == other.kind and self.entries == other.entries

    def __repr__(self):
        return f"Vector({list(self.entries)!r}, kind={self.kind!r})"

    def map(self, fn) -> "Vector":
        return Vector((fn(e) for e in self.entries), self.kind)

    def scale(self, s) -> "Vector":
        return Vector((s * e for e in self.entries), self.kind)

    def sum(self):
        return sum(self.entries[1:], self.entries[0])

    def to_json(self) -> dict:
        return {
            "length": len(self.entries),
            "kind": self.kind,
            "entries": [entry_json(e) for e in self.entries],
        }


class Matrix:
    """Dense matrix; entries may be Poly, RatFun, Fraction, or int."""

    __slots__ = ("rows", "cols", "row_kind", "col_kind", "entries")

    def __init__(self, entries, row_kind: str, col_kind: str):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatch("empty matrix")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise DimensionMismatch("ragged rows")
        self.entries = entries
        self.rows = len(entries)
        self.cols = width
        self.row_kind = row_kind
        self.col_kind = col_kind

    @classmethod
    def identity(cls, n: int, row_kind: str, col_kind: str, one=ONE, zero=ZERO):
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            row_kind,
            col_kind,
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.row_kind == other.row_kind
            and self.col_kind == other.col_kind
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"Matrix({self.rows}x{self.cols}, {self.row_kind}x{self.col_kind})"
        )

    def map(self, fn) -> "Matrix":
        return Matrix(
            ((fn(e) for e in row) for row in self.entries),
            self.row_kind,
            self.col_kind,
        )

    def scale(self, s) -> "Matrix":
        return self.map(lambda e: s * e)

    def __neg__(self):
        return self.map(lambda e: -e)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self!r} + {other!r}")
        if (self.row_kind, self.col_kind) != (other.row_kind, other.col_kind):
            raise IndexKindMismatch(f"{self!r} + {other!r}")
        return Matrix(
            (
                (a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.row_kind,
            self.col_kind,
        )

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        if isinstance(other, Vector):
            return mat_vec(self, other)
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries), self.col_kind, self.row_kind)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "row_kind": self.row_kind,
            "col_kind": self.col_kind,
            "entries": [[entry_json(e) for e in row] for row in self.entries],
        }


def entry_json(e):
    """JSON form of one entry: coefficient lists for Poly/RatFun, else a string."""
    if isinstance(e, (Poly, RatFun)):
        return e.to_json()
    return str(e)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact dense product with index-kind checking: entry (i, j) is
    sum(a[i, k] * b[k, j] for k), row by column."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a!r} @ {b!r}")
    if a.col_kind != b.row_kind:
        raise IndexKindMismatch(
            f"columns of {a!r} are {a.col_kind}-indexed but rows of {b!r} "
            f"are {b.row_kind}-indexed"
        )
    cols = list(zip(*b.entries))
    return Matrix(
        ((sum(map(mul, row, col)) for col in cols) for row in a.entries),
        a.row_kind,
        b.col_kind,
    )


def conform(v: Vector, length: int, kind: str) -> None:
    """Raise unless v has the length, then the index kind, of the matrix indices it meets."""
    if len(v) != length:
        raise DimensionMismatch(f"vector of length {len(v)} against {length} indices")
    if v.kind != kind:
        raise IndexKindMismatch(f"{v.kind} vector against {kind} indices")


def mat_vec(a: Matrix, v: Vector) -> Vector:
    conform(v, a.cols, a.col_kind)
    return Vector((sum(map(mul, row, v.entries)) for row in a.entries), a.row_kind)


def vec_mat(v: Vector, a: Matrix) -> Vector:
    conform(v, a.rows, a.row_kind)
    return Vector((sum(map(mul, v.entries, col)) for col in zip(*a.entries)),
                  a.col_kind)


def outer(u: Vector, v: Vector) -> Matrix:
    return Matrix(
        ((x * y for y in v.entries) for x in u.entries), u.kind, v.kind
    )


# ---------------------------------------------------------------------------
# determinants and inverses
# ---------------------------------------------------------------------------


def det_bareiss(m: Matrix) -> Poly:
    """Determinant over Z[q] by one fraction-free Bareiss elimination over Z.

    ``_echelon`` of the integer rows of ``_kronecker_rows`` gives det M(B)
    (every interior division is exact, so ``//`` is), which is read back by
    its balanced base-B digits.
    """
    if not m.is_square():
        raise DimensionMismatch("determinant of a non-square matrix")
    rows, base = _kronecker_rows(m)
    pivots, sign, pivot = _echelon(rows, m.cols)
    return balanced_digits(sign * pivot, base) if len(pivots) == m.rows else ZERO


def _kronecker_rows(m: Matrix) -> tuple:
    """(rows, B): m's Poly or int (or integral Fraction) entries at q = B.

    B = ``kronecker_base(C)``, where C, read from m's own entries, is the
    product over the rows of the sum of the coefficient 1-norms of the row's
    entries.  Expanding over permutations, the 1-norm of det m is at most
    the permanent of the entry 1-norms, so at most C; an (n-1)-minor leaves
    out a row whose sum is at least 1 unless C = 0.  So every coefficient of
    det m and of each entry of adj m lies in [-C, C], and such a polynomial
    is the balanced base-B digits of its value at B.  C = 0 means a zero
    row, and m is singular at every point.  An int entry is its own value at
    B, and its absolute value is its 1-norm; any other entry goes through its
    coefficient tuple.
    """
    rows = [[e if type(e) is int else _ring_coeffs(e) for e in row] for row in m.entries]
    base = kronecker_base(prod(sum(abs(c) if type(c) is int else sum(map(abs, c)) for c in row)
                               for row in rows))
    powers = [base**i for i in range(max((len(c) for row in rows for c in row
                                          if type(c) is not int), default=1))]
    return [[c if type(c) is int else sum(map(mul, c, powers)) for c in row]
            for row in rows], base


def _echelon(a: list, cols: int, jordan: bool = False) -> tuple:
    """Bareiss fraction-free elimination of the integer rows a, in place.

    Pivots are sought in the first cols columns, in order; each clears the
    rows below it, and with jordan those above it too.  Only the columns
    after the pivot's are updated, as no later step reads the others.
    Returns (pivots, sign, pivot): the pivot columns, the sign of the row
    swaps made, and the last pivot (1 if there is none).  A square matrix of
    full rank has determinant sign * pivot.

    Once k pivots are taken, each entry of a later row in a later column is
    the (k+1)-minor of the row-swapped input on the pivot rows and columns
    plus its own row and column, and the k-th pivot is the k-minor on the
    pivot rows and columns.  By Sylvester's identity each update, a 2x2
    determinant of (k+1)-minors, is the (k+2)-minor times the k-minor it is
    divided by, so every ``//`` is exact.  A column with no nonzero at or
    below the next pivot row is skipped rather than ending the loop: the
    minors above involve the pivot columns only, so the same identity holds
    with the pivot columns in place of the leading ones, and every column
    after the skipped one is still searched for a pivot.  With jordan and no
    column skipped, an entry of pivot row i is the pivot minor with column i
    replaced by the entry's column (Cramer), again exact: on [A | I] the
    right half ends as d A^-1, d = +-det A the last pivot.
    """
    rows, width = len(a), len(a[0])
    pivots, sign, prev = [], 1, 1
    for c in range(cols):
        k = len(pivots)
        piv = next((i for i in range(k, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        pivot = ak[c]
        for ai in a[k + 1:] + (a[:k] if jordan else []):
            f = ai[c]
            for j in range(c + 1, width):
                ai[j] = (pivot * ai[j] - f * ak[j]) // prev
        prev = pivot
        pivots.append(c)
    return pivots, sign, prev


def _ring_coeffs(e) -> tuple:
    if isinstance(e, Poly):
        return e.coeffs
    if isinstance(e, (int, Fraction)):
        return (_as_int(e),)
    raise TypeError(f"ring elimination needs Poly or int entries, got {type(e)}")


def kronecker_base(bound: int) -> int:
    """B = 2^k > 2C, C = bound.  A Poly with coefficients in [-C, C] is the
    balanced base-B digits of its value at B (Kronecker substitution), so
    ``balanced_digits`` reads it back, and it is 0 iff that value is.
    Callers bound two sides together, C_L + C_R, which bounds each
    coefficient of their difference."""
    return 1 << (2 * bound).bit_length()


def balanced_digits(v: int, base: int) -> Poly:
    """The Poly with digits in [-(base // 2), base // 2] whose value at base is v."""
    digits = []
    while v:
        v, d = divmod(v, base)
        if d > base // 2:
            v, d = v + 1, d - base
        digits.append(d)
    return Poly(digits)


def _as_int(e) -> int:
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    raise TypeError(f"expected an exact integer entry, got {e!r}")


def inverse_gauss(m: Matrix) -> Matrix:
    """Inverse over Q(q) by one fraction-free Gauss-Jordan elimination over Z.

    ``_echelon`` with jordan on [M(B) | I], M(B) from ``_kronecker_rows``,
    leaves X = d M(B)^-1 = +-adj M(B) in the right half, d = +-det M(B) the
    last pivot.  d and each X_ij are read back by their balanced base-B
    digits, and only the last step is taken in Q(q): M^-1 = X / d, reading
    back and dividing each distinct integer X_ij once, and equal entries
    share the one RatFun, which is never changed.  A column with no pivot at
    B means det M(B) = 0, hence det M = 0 (a zero row has none at any
    point); the first such column is named.
    """
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    rows, base = _kronecker_rows(m)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, _, d = _echelon(a, n, jordan=True)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {min(set(range(n)).difference(pivots))}")
    inv = RatFun(balanced_digits(d, base)).inverse()
    entry = lru_cache(maxsize=None)(lambda x: RatFun(balanced_digits(x, base)) * inv)
    return Matrix((map(entry, row[n:]) for row in a), m.col_kind, m.row_kind)


def adjugate_int(m: Matrix) -> Matrix:
    """Exact adjugate of an integer matrix: adj(m + tI) at t = 0, read at t = T.

    Each entry of adj(m + tI) is +-an (n-1)-minor of m + tI, a polynomial in
    t whose coefficient 1-norm is at most the product of the row sums of the
    entry 1-norms, sum_j |m_ij| + 1, over the rows it keeps; so every
    coefficient lies in [-C, C] for C the product over all rows, read from
    m's own rows, and with T = ``kronecker_base(C)`` > 2C, adj(m)_ij is the
    lowest balanced base-T digit of adj(m + TI)_ij.  T exceeds every row's
    sum_j |m_ij|, so m + TI is strictly diagonally dominant with a positive
    diagonal: each leading principal minor is nonzero, no row is swapped,
    and one ``_echelon`` with jordan on [m + TI | I] leaves det(m + TI)
    (m + TI)^-1 = adj(m + TI) in the right half.
    """
    if not m.is_square():
        raise DimensionMismatch("adjugate of a non-square matrix")
    n = m.rows
    rows = [[_as_int(e) for e in row] for row in m.entries]
    t = kronecker_base(prod(sum(map(abs, row)) + 1 for row in rows))
    a = [[x + t * (i == j) for j, x in enumerate(row)] + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    _echelon(a, n, jordan=True)
    half = t // 2
    return Matrix(([(x + half) % t - half for x in row[n:]] for row in a),
                  m.col_kind, m.row_kind)


def rank_int(m: Matrix) -> int:
    """Rank of an integer matrix: the pivots of one ``_echelon`` over Z."""
    return len(_echelon([[_as_int(e) for e in row] for row in m.entries], m.cols)[0])


def charpoly_exact(m: Matrix) -> Poly:
    """Characteristic polynomial det(xI - m) of an integer matrix.

    One ``det_bareiss`` of the Z[x] matrix xI - m, built from one pass over
    the rows of -m (an int entry is taken as it is, any other through
    ``_as_int``): only the diagonal becomes a Poly, and the int entries are
    packed by ``_kronecker_rows`` as they are.  Returned as a Poly in the
    spectral variable (coefficients ascending).
    """
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    shifted = [[-(e if type(e) is int else _as_int(e)) for e in row] for row in m.entries]
    for i, row in enumerate(shifted):
        row[i] = Poly((row[i], 1))
    return det_bareiss(Matrix(shifted, m.row_kind, m.col_kind))


# ---------------------------------------------------------------------------
# exact spectral tools
# ---------------------------------------------------------------------------


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if not p:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree() == 0:
        return ONE
    g = poly_gcd(p, p.derivative())
    return divexact(p, g).primitive_part()


def annihilates(m: Matrix, p: Poly) -> bool:
    """Exact test of p(m) == 0 with integer matrices.

    p(m) is zero exactly when its packed image ``_packed_horner(m, p)`` is,
    since each row of p(m) is the balanced base-B digits of one packed
    entry; nothing is decoded.
    """
    if not m.is_square():
        raise DimensionMismatch("polynomial of a non-square matrix")
    return not any(_packed_horner(m, p.coeffs)[0])


def _packed_horner(m: Matrix, coeffs) -> tuple:
    """(w, B) with w = p(m) v, v = (B^0, ..., B^(n-1)), p = sum c_k x^k.

    Let N be the largest absolute row sum of the integer matrix m.  Then
    |(m^k)_ij| <= N^k, so every entry of p(m) lies in [-C, C] with
    C = sum |c_k| N^k, read from m's own rows and p's own coefficients.
    With B = ``kronecker_base(C)`` each such entry is one balanced base-B
    digit, so w_i = sum_j p(m)_ij B^j holds row i of p(m) as its digits
    (Kronecker substitution, as in ``det_bareiss``).
    w comes from Horner on one vector, w <- m w + c_k v: n dot products per
    step, where Horner on the whole matrix takes n^2.  C = 0 means p(m) = 0, and then
    w = 0 whatever B is.
    """
    rows = [[e if type(e) is int else _as_int(e) for e in row] for row in m.entries]
    norm = max(sum(map(abs, row)) for row in rows)
    base = kronecker_base(sum(abs(c) * norm**k for k, c in enumerate(coeffs)))
    v = [base**j for j in range(m.rows)]
    w = [0] * m.rows
    for c in reversed(coeffs):
        w = [sum(map(mul, row, w)) + c * b for row, b in zip(rows, v)]
    return w, base


def pack_width(bound: int) -> int:
    """Bytes per digit of ``pack_rows`` for rows whose entries lie in [-C, C].

    The least w >= 1 with 4C < B = 2^(8w).  Two such rows differ entrywise by
    at most 2C < B/2, so their packed integers are equal only if the rows
    are, and the balanced base-B digits of a packed row read it back.
    """
    return max(1, -(-(4 * bound).bit_length() // 8))


def row_getters(rows) -> list:
    """One ``operator.itemgetter`` per row of indices: getter i takes row i of
    any table in one C-level gather, as a sequence.

    A one-index itemgetter returns the bare item, so a one-index row gets a
    one-item slice instead (P2's distance block is 1 x 1).
    """
    return [itemgetter(*row) if len(row) > 1 else itemgetter(slice(row[0], row[0] + 1))
            for row in rows]


def pack_rows(getters, width: int, table: list) -> list:
    """Each row of indices into table, given as its ``row_getters`` getter, as
    the integer sum_j table[row_j] B^j.

    B = 2^(8 width), and every value of table must lie in [-B/2, B/2).
    Offset by B/2, each value is encoded once, as one unsigned little-endian
    digit of width bytes; a row's digits are gathered and joined and read as
    one integer, and the packed offset sum_j (B/2) B^j is taken back off.
    Numbering the distinct entries pays where they repeat, as in a
    distance-type matrix at a point, with at most diameter + 1 of them.
    """
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * len(getters[0](table)), "little")
    digit = [(v + half).to_bytes(width, "little") for v in table]
    return [int.from_bytes(b"".join(get(digit)), "little") - offset for get in getters]


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence p, p', -rem(p, p'), ... of a squarefree polynomial.

    Each remainder comes from ``prem(a, b)``, which is
    lead(b)^(deg a - deg b + 1) rem(a, b): it is negated when that scale is
    negative, divided by its content, and negated once more.  Positive
    scaling leaves every sign variation as it is.
    """
    chain = [p, p.derivative()]
    while chain[-1]:
        a, b = chain[-2:]
        r = prem(a, b)
        if r:
            g = r.content()
            if b.leading() < 0 and (a.degree() - b.degree()) % 2 == 0:
                g = -g
            r = Poly(-c // g for c in r.coeffs)
        chain.append(r)
    chain.pop()
    return chain


def count_real_roots(p: Poly, lo=None, hi=None, chain=None) -> int:
    """Distinct real roots of a squarefree polynomial in (lo, hi].

    ``None`` bounds mean -oo and +oo.  There each member f of the Sturm chain
    has the sign of lead(f), times (-1)^deg(f) at -oo; at x = a/b, b > 0, it
    has the sign of the integer b^deg(f) f(x) that ``Poly._horner`` gives.
    A caller counting over several intervals passes p's ``sturm_chain`` once
    as ``chain``.
    """
    if not p:
        raise ValueError("root counting needs a nonzero polynomial")
    if chain is None:
        chain = sturm_chain(p)

    def variations(x, end: int) -> int:
        # end is the sign of the infinite bound that x = None stands for
        ab = x is not None and Fraction(x).as_integer_ratio()
        values = [f._horner(*ab)[0] if ab else end ** f.degree() * f.leading() for f in chain]
        signs = [v > 0 for v in values if v]
        return sum(map(ne, signs, signs[1:]))

    return variations(lo, -1) - variations(hi, 1)


def conjecture_evidence(m: Matrix) -> dict:
    """Exact spectral evidence for an integer matrix.

    diagonalizable: the squarefree part of the characteristic polynomial
    annihilates the matrix.  When it keeps the degree, it is the monic
    characteristic polynomial itself, which annihilates the matrix by
    Cayley-Hamilton, so only a charpoly with a repeated root is tested by
    ``annihilates``.  all_eigen_nonneg: every eigenvalue is real
    (the squarefree part has as many distinct real roots as its degree)
    and none lies in (-oo, 0); both root counts read one Sturm chain.  Both
    tests are exact; no roots are isolated numerically.  The characteristic
    polynomial itself is returned under "charpoly".
    """
    cp = charpoly_exact(m)
    sf = squarefree_part(cp)
    diag = sf.degree() == cp.degree() or annihilates(m, sf)
    chain = sturm_chain(sf)
    real_roots = count_real_roots(sf, chain=chain)
    all_real = real_roots == sf.degree()
    negative = count_real_roots(sf, hi=0, chain=chain) - (sf[0] == 0)
    return {
        "charpoly": cp,
        "diagonalizable": diag,
        "all_eigen_nonneg": all_real and negative == 0,
        "real_root_count": real_roots,
    }
