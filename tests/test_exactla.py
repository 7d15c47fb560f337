import random
from fractions import Fraction
from itertools import chain, product
from operator import mul

import pytest

from oracles import det_cofactor, inverse_gauss_jordan, rank_minors
from qbip import qmatrices, treecore
from qbip.exactla import (
    KIND_L,
    KIND_R,
    KIND_VERTEX,
    DimensionMismatch,
    IndexKindMismatch,
    Matrix,
    SingularMatrix,
    Vector,
    annihilates,
    charpoly_exact,
    conjecture_evidence,
    count_real_roots,
    det_bareiss,
    inverse_gauss,
    adjugate_int,
    mat_mul,
    rank_int,
    squarefree_part,
)
from qbip import exactla, polyalg
from qbip.polyalg import ONE, Poly, RatFun, ZERO, Q


def poly_m(rows, rk=KIND_VERTEX, ck=KIND_VERTEX):
    return Matrix([[Poly((c,)) if isinstance(c, int) else c for c in row] for row in rows], rk, ck)


# -- products -------------------------------------------------------------------


def test_product_qL_qB(p4_attach):
    got = mat_mul(qmatrices.build_qL(p4_attach), qmatrices.build_qB(p4_attach))
    want = Matrix(
        [[Poly((0, -1, -1)), ZERO], [Poly((1, 1)), Poly((1, 0, -1))]],
        KIND_R,
        KIND_R,
    )
    assert got == want


def test_product_with_identity(p4_attach):
    qB = qmatrices.build_qB(p4_attach)
    eye = Matrix.identity(2, KIND_L, KIND_L)
    assert mat_mul(eye, qB) == qB


def test_product_E_qL_is_scalar_identity(p4_attach):
    got = mat_mul(qmatrices.build_E(p4_attach), qmatrices.build_qL(p4_attach))
    scalar = Poly((0, 1, 0, -1))  # q(1-q^2)
    assert got == Matrix.identity(2, KIND_L, KIND_L).scale(scalar)


def test_product_checks_kinds(p4_attach):
    qB = qmatrices.build_qB(p4_attach)
    with pytest.raises(IndexKindMismatch):
        mat_mul(qB, qB)
    with pytest.raises(DimensionMismatch):
        mat_mul(qB, Matrix.identity(3, KIND_R, KIND_L))


def _dense_product(a, b):
    """Triple-loop reference: entry (i, j) is sum(a[i][k] * b[k][j] for k)."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


_ENTRY_MAKERS = {
    "int": lambda rng: rng.randint(-5, 5),
    "Fraction": lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    "Poly": lambda rng: Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]),
    "RatFun": lambda rng: RatFun(Poly([rng.randint(-2, 2), rng.randint(0, 2)]),
                                 Poly([rng.randint(1, 2), 1])),
}


def _sparse_rows(rng, rows, cols, make, density):
    return [[make(rng) if rng.random() < density else make(rng) * 0 for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("kind", sorted(_ENTRY_MAKERS))
def test_product_matches_dense_reference_in_value_and_type(kind):
    rng = random.Random(2024)
    make = _ENTRY_MAKERS[kind]
    cases = [(1, 1, 1), (3, 4, 2), (5, 5, 5), (6, 3, 7)]
    for n, m, k in cases:
        for density in (0.0, 0.3, 1.0):
            a = _sparse_rows(rng, n, m, make, density)
            b = _sparse_rows(rng, m, k, make, 0.6)
            a[rng.randrange(n)] = [make(rng) * 0] * m  # an all-zero row
            got = mat_mul(Matrix(a, KIND_R, KIND_L), Matrix(b, KIND_L, KIND_R))
            want = _dense_product(a, b)
            assert [list(row) for row in got.entries] == want
            assert [[type(e) for e in row] for row in got.entries] == [
                [type(e) for e in row] for row in want
            ]
            assert (got.row_kind, got.col_kind) == (KIND_R, KIND_R)


def test_product_of_an_all_zero_factor_keeps_the_entry_type():
    zero_polys = Matrix([[ZERO, ZERO], [ZERO, ZERO]], KIND_R, KIND_L)
    got = mat_mul(zero_polys, Matrix([[ONE, Q], [Q, ONE]], KIND_L, KIND_R))
    assert got.entries == ((ZERO, ZERO), (ZERO, ZERO))
    assert all(type(e) is Poly for row in got.entries for e in row)
    # zero Poly serialises as [], the int 0 as "0": a type change would show
    assert got.to_json()["entries"] == [[[], []], [[], []]]
    one_by_one = Matrix([[Fraction(3, 2)]], KIND_L, KIND_R)
    ints = mat_mul(Matrix([[0]], KIND_R, KIND_L), one_by_one)
    assert ints.entries == ((Fraction(0),),) and type(ints[0, 0]) is Fraction


def test_product_of_a_sparse_laplacian_and_a_dense_factor():
    # a sparse left factor, about 6 nonzeros a row, times a dense one: every
    # entry is the row-by-column sum, zeros and all
    mt = treecore.random_nonsingular(60, 3)
    qL = qmatrices.eval_matrix(qmatrices.build_qL(mt), 2).map(int)
    rng = random.Random(7)
    dense = [[rng.randint(1, 9) for _ in range(mt.p)] for _ in range(mt.p)]
    got = mat_mul(qL, Matrix(dense, KIND_L, KIND_R))
    assert [list(row) for row in got.entries] == _dense_product(qL.entries, dense)


def test_vector_kind_checks(p4_attach):
    qB = qmatrices.build_qB(p4_attach)
    with pytest.raises(IndexKindMismatch):
        qB @ Vector((ONE, ONE), KIND_L)


# -- determinants ------------------------------------------------------------------


def test_det_qB_p4(p4_attach):
    assert det_bareiss(qmatrices.build_qB(p4_attach)) == Poly((0, -1, -1))


def test_det_qL_p2(p2):
    assert det_bareiss(qmatrices.build_qL(p2)) == Poly((1, 0, -1))


def test_det_E_p4(p4_attach):
    assert det_bareiss(qmatrices.build_E(p4_attach)) == Poly((0, 0, 1, 0, -1))


def test_det_zero_matrix():
    assert det_bareiss(poly_m([[0, 0], [0, 0]])) == ZERO


def test_det_agrees_with_cofactor_expansion():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            rows = [
                [
                    Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m = Matrix(rows, KIND_VERTEX, KIND_VERTEX)
            assert det_bareiss(m) == det_cofactor([list(r) for r in rows])


def _zq_matrices(seed):
    """Random Z[q] matrices with negative coefficients, int and degree-0
    entries, 1x1 cases and zero rows."""
    rng = random.Random(seed)
    for n in (1, 1, 2, 3, 4, 5):
        for t in range(8):
            rows = [
                [
                    rng.randint(-6, 6) if rng.random() < 0.2
                    else Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            if t % 4 == 3:
                rows[rng.randrange(n)] = [ZERO] * n
            yield rows


def _cofactor_det(rows):
    return det_cofactor([[Poly((e,)) if isinstance(e, int) else e for e in row]
                         for row in rows])


def test_det_matches_cofactor_expansion_on_random_zq_matrices():
    for rows in _zq_matrices(41):
        got = det_bareiss(Matrix(rows, KIND_VERTEX, KIND_VERTEX))
        assert type(got) is Poly
        assert got == _cofactor_det(rows), rows


_AT_THE_BOUND = [
    ([[Poly((0, 0, -3))]], Poly((0, 0, -3))),  # C = 3, det = -C q^2
    ([[Poly((0, 0, 3))]], Poly((0, 0, 3))),
    ([[Poly((0, 2)), 0, 0], [0, -3, 0], [0, 0, Poly((0, 0, 1))]], Poly((0, 0, 0, -6))),
    ([[Poly((0, -2)), 0], [0, Poly((0, 0, -5))]], Poly((0, 0, 0, 10))),
    ([[Poly((-1, 1)), 0], [0, Poly((1, 1))]], Poly((-1, 0, 1))),  # C = 4, digits below C
    ([[Poly((1, -1)), 0], [0, Poly((-1, 0, 1))]], Poly((-1, 1, 1, -1))),
    # C = 42 = det = adj[2][2], and the first pivot needs a row swap
    ([[0, Poly((0, 0, 7)), 0], [Poly((0, -6)), 0, 0], [0, 0, 1]], Poly((0, 0, 0, 42))),
]


@pytest.mark.parametrize("rows, want", _AT_THE_BOUND)
def test_det_coefficients_at_the_kronecker_bound(rows, want):
    """Coefficients equal to +-C: an even base 2C or an unbalanced decode fails."""
    m = Matrix(rows, KIND_VERTEX, KIND_VERTEX)
    assert det_bareiss(m) == want == _cofactor_det(rows)


@pytest.mark.parametrize("rows, want", _AT_THE_BOUND)
def test_inverse_coefficients_at_the_kronecker_bound(rows, want):
    """``inverse_gauss`` reads det and the adjugate back from the same base;
    in the last matrix both reach C, in the first +-C is det's alone."""
    m = Matrix(rows, KIND_VERTEX, KIND_VERTEX)
    assert inverse_gauss(m) == inverse_gauss_jordan(m)


def test_full_qD_det_takes_no_polynomial_division(monkeypatch):
    calls = []

    def counted(a, b, _fn=polyalg.divexact):
        calls.append(1)
        return _fn(a, b)

    monkeypatch.setattr(exactla, "divexact", counted)
    monkeypatch.setattr(polyalg, "divexact", counted)
    mt = next(iter(treecore.enumerate_nonsingular(4)))
    det = det_bareiss(qmatrices.build_full_qD(treecore.distances(mt.tree)))
    assert det == -7 * Poly((1, 1)) ** 6  # (-1)^(n-1) (n-1) (1+q)^(n-2), n = 8
    assert calls == []


def test_det_rejects_inexact_and_field_entries():
    with pytest.raises(TypeError):
        det_bareiss(Matrix([[Fraction(1, 2)]], KIND_R, KIND_L))
    with pytest.raises(TypeError):
        det_bareiss(Matrix([[RatFun(ONE)]], KIND_R, KIND_L))
    assert det_bareiss(Matrix([[Fraction(4, 2)]], KIND_R, KIND_L)) == Poly((2,))


def _int_matrices(seed, sizes=range(1, 9), per_size=6):
    """Random integer matrices with zero leading pivots and singular cases."""
    rng = random.Random(seed)
    for n in sizes:
        for t in range(per_size):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if t % 3 == 1:
                rows[0][0] = 0  # the first pivot needs a row swap
            elif t % 3 == 2 and n > 1:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1 % (n - 1)])]
            yield rows


def test_integer_det_matches_poly_det():
    for rows in _int_matrices(5):
        ints = Matrix(rows, KIND_R, KIND_L)
        assert det_bareiss(ints) == det_bareiss(poly_m(rows, KIND_R, KIND_L))


def test_integer_det_of_singular_and_pivotless_matrices():
    assert det_bareiss(Matrix([[0, 1], [0, 2]], KIND_R, KIND_L)) == ZERO
    assert det_bareiss(Matrix([[0, 1], [1, 0]], KIND_R, KIND_L)) == Poly((-1,))
    assert det_bareiss(Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]], KIND_R, KIND_L)) == ZERO


# -- inverses ----------------------------------------------------------------------


def test_inverse_gauss_p2(p2):
    inv = inverse_gauss(qmatrices.build_qB(p2))
    assert inv.entries == ((RatFun(ONE),),)
    assert (inv.row_kind, inv.col_kind) == (KIND_R, KIND_L)


def test_inverse_gauss_matches_formula_inverse(p4_attach):
    assert inverse_gauss(qmatrices.build_E(p4_attach)) == qmatrices.inverse_E_formula(
        p4_attach
    )


def test_inverse_gauss_singular():
    # the error names the first column without a pivot, though a later one has one
    for rows in ([[1, 1], [0, 0]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
        with pytest.raises(SingularMatrix, match="no pivot in column 1$"):
            inverse_gauss(poly_m(rows))


def test_inverse_gauss_times_matrix_is_identity():
    for p in (1, 2, 3):
        for mt in treecore.enumerate_nonsingular(p):
            qB = qmatrices.build_qB(mt)
            inv = inverse_gauss(qB)
            eye = Matrix.identity(p, KIND_L, KIND_L, one=RatFun(ONE), zero=RatFun(ZERO))
            assert mat_mul(qB, inv) == eye
            assert det_bareiss(qB)  # sanity: raised SingularMatrix otherwise


def _inverse_or_singular(invert, m):
    try:
        return invert(m)
    except SingularMatrix:
        return SingularMatrix


def test_inverse_gauss_matches_field_elimination_on_small_trees():
    for p in range(1, 6):
        for mt in treecore.enumerate_nonsingular(p):
            for m in (qmatrices.build_E(mt), qmatrices.build_qB(mt)):
                assert inverse_gauss(m) == inverse_gauss_jordan(m)


def _ring_matrices(seed, count=300):
    """Random Poly/int matrices, n = 1..5, with zero pivots and singular cases.

    Cases come in four kinds, 75 each: plain; a zero first pivot, so the
    first column needs a row swap; row 1 zero in the first two columns, so
    for n >= 3 the second pivot needs one; the last row a Z[q] combination
    of the others (a zero row when n = 1), so singular.
    """
    rng = random.Random(seed)
    for t in range(count):
        n = 1 + t % 5
        make = [
            lambda: rng.randint(-3, 3),
            lambda: Poly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]),
            lambda: rng.choice((rng.randint(-3, 3), Poly((rng.randint(-2, 2), 1)))),
        ][t % 3]
        rows = [[make() for _ in range(n)] for _ in range(n)]
        kind = t // 5 % 4
        if kind == 1:
            rows[0][0] = 0
        elif kind == 2 and n > 1:
            rows[0][0] = Poly((1, rng.randint(-2, 2)))
            rows[1][0] = rows[1][1] = 0
        elif kind == 3:
            coefs = [Poly((rng.randint(-2, 2), rng.randint(-1, 1))) for _ in range(n - 1)]
            rows[-1] = [sum((c * row[j] for c, row in zip(coefs, rows)), ZERO)
                        for j in range(n)]
        yield Matrix(rows, KIND_R, KIND_L)


def test_inverse_gauss_matches_field_elimination_on_random_matrices():
    singular = 0
    for m in _ring_matrices(14):
        got = _inverse_or_singular(inverse_gauss, m)
        assert got == _inverse_or_singular(inverse_gauss_jordan, m), m.entries
        singular += got is SingularMatrix
    assert 75 < singular < 150  # the singular kind and some others; most invert


def test_inverse_gauss_constructs_two_ratfuns_per_entry(ratfun_inits):
    calls = ratfun_inits
    for mt in treecore.enumerate_nonsingular(5):
        calls.clear()
        inv = inverse_gauss(qmatrices.build_qB(mt))
        assert 0 < len(calls) <= 2 * len(set(chain.from_iterable(inv.entries))) + 2


# -- adjugate and rank -----------------------------------------------------------------


def test_adjugate_of_q1_laplacian(p4_attach):
    lap = Matrix([[1, -1], [-1, 1]], KIND_R, KIND_L)
    adj = adjugate_int(lap)
    assert adj.entries == ((1, 1), (1, 1))


def test_rank_of_q1_laplacian():
    lap = Matrix([[1, -1], [-1, 1]], KIND_R, KIND_L)
    assert rank_int(lap) == 1


def test_rank_matches_minor_oracle():
    # low-rank products A.B, some with zero leading columns, so that columns
    # without a pivot turn up first, in the middle and last
    rng = random.Random(41)
    cases = [[[0] * 4 for _ in range(3)], [[1, 2, 3], [2, 4, 5]]]
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(1, min(m, n))
        a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        zeros = rng.randint(0, n // 2)
        for row in b:
            row[:zeros] = [0] * zeros
        cases.append([[sum(map(mul, row, col)) for col in zip(*b)] for row in a])
    for rows in cases:
        assert rank_int(Matrix(rows, KIND_R, KIND_L)) == rank_minors(rows), rows


def test_adjugate_identity():
    eye = Matrix([[1, 0], [0, 1]], KIND_R, KIND_L)
    assert adjugate_int(eye).entries == ((1, 0), (0, 1))


def test_adjugate_times_matrix_is_det_identity():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m = Matrix(rows, KIND_R, KIND_L)
            adj = adjugate_int(m)
            det = det_bareiss(m)
            d = det[0] if det else 0
            prod = mat_mul(adj, m)
            assert prod.entries == tuple(
                tuple(d if i == j else 0 for j in range(n)) for i in range(n)
            )


def test_each_exact_kernel_is_one_elimination_at_one_base(monkeypatch):
    # det, rank, inverse and adjugate each run the one Bareiss loop once; the
    # adjugate takes no characteristic polynomial and no determinant; every
    # Kronecker point, the adjugate's shift and annihilates' base come from
    # one kronecker_base call
    calls = []
    for name in ("_echelon", "kronecker_base", "charpoly_exact", "det_bareiss"):
        monkeypatch.setattr(exactla, name, lambda *args, _name=name, _fn=getattr(exactla, name),
                            **kwargs: calls.append(_name) or _fn(*args, **kwargs))
    m = Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], KIND_R, KIND_L)
    for kernel, want in ((det_bareiss, ["kronecker_base", "_echelon"]),
                         (rank_int, ["_echelon"]),
                         (inverse_gauss, ["kronecker_base", "_echelon"]),
                         (adjugate_int, ["kronecker_base", "_echelon"]),
                         (lambda m: annihilates(m, Poly((1, 1))), ["kronecker_base"])):
        calls.clear()
        kernel(m)
        assert calls == want


# -- characteristic polynomials -----------------------------------------------------------


def test_charpoly_of_zero_matrix():
    assert charpoly_exact(Matrix([[0]], KIND_R, KIND_L)) == Q


def test_charpoly_of_q1_laplacian():
    lap = Matrix([[1, -1], [-1, 1]], KIND_R, KIND_L)
    assert charpoly_exact(lap) == Poly((0, -2, 1))


def test_charpoly_of_identity():
    eye = Matrix([[1, 0], [0, 1]], KIND_R, KIND_L)
    assert charpoly_exact(eye) == Poly((1, -2, 1))


def test_charpoly_at_zero_is_signed_det():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m = Matrix(rows, KIND_R, KIND_L)
        cp = charpoly_exact(m)
        det = det_bareiss(m)
        d = det[0] if det else 0
        assert cp.eval_at(0) == (-1) ** n * d


def _charpoly_reference(m: Matrix) -> Poly:
    """det(xI - m) as a Bareiss determinant over Z[x]."""
    lam = Poly((0, 1))
    shifted = [
        [lam - e if i == j else Poly((-e,)) for j, e in enumerate(row)]
        for i, row in enumerate(m.entries)
    ]
    return det_bareiss(Matrix(shifted, m.row_kind, m.col_kind))


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b:
            rows.append([0] * at + list(row) + [0] * (n - at - len(row)))
        at += len(b)
    return rows


def test_charpoly_matches_poly_reference():
    jordan = [[2, 1, 0], [0, 2, 1], [0, 0, 2]]
    block = [[1, -1], [3, 0]]
    special = [
        jordan,
        _block_diag(jordan, jordan, [[2, 5], [0, 2]]),  # one eigenvalue, order 8
        _block_diag(block, block, block),  # repeated complex pairs
        _block_diag(block, [[0]], block),  # repeated pairs and a zero eigenvalue
        [[0] * 5 for _ in range(5)],
    ]
    for rows in [*_int_matrices(17), *special]:
        m = Matrix(rows, KIND_R, KIND_L)
        cp = charpoly_exact(m)
        assert cp == _charpoly_reference(m), rows
        assert cp.degree() == m.rows and cp.leading() == 1
        # n + 1 values fix a degree-n polynomial; integer determinants need no decode
        for x in range(m.rows + 1):
            shifted = [[x * (i == j) - e for j, e in enumerate(row)]
                       for i, row in enumerate(rows)]
            assert cp.eval_at(x) == det_bareiss(Matrix(shifted, KIND_R, KIND_L))[0]


def test_charpoly_matches_poly_reference_on_random_matrices():
    # xI - m packs its int entries as they are; the reference packs Poly entries
    rng = random.Random(97)
    for t in range(200):
        n = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if t % 4 == 1:
            rows[0][0] = 0  # the first pivot needs a row swap
        elif t % 4 == 2 and n > 1:
            rows[-1] = list(rows[0])  # singular
        m = Matrix(rows, KIND_R, KIND_L)
        assert charpoly_exact(m) == _charpoly_reference(m), rows


def test_integer_kernels_take_exact_integers_only():
    # a Fraction with a denominator or a float raises wherever it stands; an
    # integral Fraction or a bool is read as its integer, alone or beside Poly
    rows = [[2, -1, 0], [-1, 2, -1], [0, -1, 3]]
    for bad in (Fraction(1, 2), 0.5, 2.0):
        for i in range(3):
            m = Matrix([[bad if (r, c) == (i, 2 - i) else e for c, e in enumerate(row)]
                        for r, row in enumerate(rows)], KIND_R, KIND_L)
            for kernel in (det_bareiss, charpoly_exact, rank_int):
                with pytest.raises(TypeError):
                    kernel(m)
    bits = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    for ints, alike in ((rows, [[Fraction(2 * e, 2) for e in row] for row in rows]),
                        (bits, [[bool(e) for e in row] for row in bits])):
        want = Matrix(ints, KIND_R, KIND_L)
        m = Matrix(alike, KIND_R, KIND_L)
        for kernel in (det_bareiss, charpoly_exact, rank_int):
            got = kernel(m)
            assert got == kernel(want)
            assert type(got) is int or all(type(c) is int for c in got.coeffs)
        mixed = [[Poly((0, 1)) if i == j else e for j, e in enumerate(row)]
                 for i, row in enumerate(alike)]
        assert det_bareiss(Matrix(mixed, KIND_R, KIND_L)) == det_bareiss(poly_m(
            [[Poly((0, 1)) if i == j else e for j, e in enumerate(row)]
             for i, row in enumerate(ints)]))


# -- squarefree parts and annihilation ----------------------------------------------------


def test_squarefree_part_examples():
    assert squarefree_part(Poly((1, -2, 1))) == Poly((-1, 1))
    assert squarefree_part(Poly((0, -2, 1))) == Poly((0, -2, 1))


def test_annihilates_identity():
    eye = Matrix([[1, 0], [0, 1]], KIND_R, KIND_L)
    assert annihilates(eye, Poly((-1, 1)))
    assert not annihilates(eye, Q)


def test_annihilates_by_cayley_hamilton():
    for rows in _int_matrices(29, sizes=range(1, 6), per_size=3):
        m = Matrix(rows, KIND_R, KIND_L)
        cp = charpoly_exact(m)
        assert annihilates(m, cp)
        assert not annihilates(m, cp + ONE)  # cp(m) + I = I
    jordan = Matrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]], KIND_R, KIND_L)
    assert not annihilates(jordan, Poly((-2, 1)) ** 2)
    assert annihilates(jordan, Poly((-2, 1)) ** 3)
    assert not annihilates(Matrix([[0, 0], [1, 0]], KIND_R, KIND_L), Q)  # row 0 vanishes


def test_annihilates_q1_laplacian_squarefree_charpoly():
    lap = Matrix([[1, -1], [-1, 1]], KIND_R, KIND_L)
    assert annihilates(lap, squarefree_part(charpoly_exact(lap)))


def test_annihilates_jordan_block_and_diagonal():
    jordan = Matrix([[1, 1], [0, 1]], KIND_R, KIND_L)
    assert not annihilates(jordan, Poly((-1, 1)))
    diag = Matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 2]], KIND_R, KIND_L)
    sf = squarefree_part(charpoly_exact(diag))
    assert sf == charpoly_exact(diag)
    assert annihilates(diag, sf)


# -- matrix polynomials ------------------------------------------------------------------


def _matrix_poly_reference(rows, coeffs):
    """sum c_k m^k by Horner, each product by the triple loop."""
    n = len(rows)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = [[sum(acc[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        for i in range(n):
            acc[i][i] += c
    return acc


def _unpacked_horner(m, coeffs):
    """The rows of p(m) read off ``_packed_horner``: the balanced digits of
    each packed entry, in its base."""
    w, base = exactla._packed_horner(m, coeffs)
    return [[exactla.balanced_digits(x, base)[j] for j in range(m.cols)] for x in w]


def test_matrix_poly_matches_triple_loop_reference():
    rng = random.Random(53)
    cases = [([[0] * 3] * 3, [4, -1, 2]), ([[2, -1], [0, 5]], []), ([[0]], []),
             ([[-4]], [3, 0, 0, -1]), ([[7]], [0, 0, 0, 0, 2])]
    for n in range(1, 9):
        for _ in range(8):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, n + 1))]
            cases.append((rows, coeffs))
    for rows, coeffs in cases:
        m = Matrix(rows, KIND_R, KIND_L)
        assert _unpacked_horner(m, coeffs) == _matrix_poly_reference(rows, coeffs)


@pytest.mark.parametrize("rows,coeffs,want", [
    # N = 3, C = 1 + 2*3 = 7, B = 16: the entry is -C, the lowest balanced digit
    ([[3]], [-1, -2], [[-7]]),
    ([[3]], [1, 2], [[7]]),
    # N = 3, C = 1 + 2*3 + 9 = 16: diagonal entries -C and -4 (a row-sum
    # bound N^k is reached by a diagonal matrix)
    ([[3, 0], [0, -3]], [-1, -2, -1], [[-16, 0], [0, -4]]),
    # m^2 = 9I: p(m) = -2I - 5m^2 has -47 = -C on the diagonal, and with
    # the opposite signs 47 = C
    ([[0, 3], [3, 0]], [-2, 0, -5], [[-47, 0], [0, -47]]),
    ([[0, 3], [3, 0]], [2, 0, 5], [[47, 0], [0, 47]]),
])
def test_matrix_poly_entries_at_the_bound(rows, coeffs, want):
    # entries of p(m) at +-C, read back from base B = kronecker_base(C) > 2C
    m = Matrix(rows, KIND_R, KIND_L)
    bound = max(abs(x) for row in want for x in row)
    assert exactla._packed_horner(m, coeffs)[1] == exactla.kronecker_base(bound)
    assert _unpacked_horner(m, coeffs) == want
    assert annihilates(m, Poly(coeffs)) is False


@pytest.mark.parametrize("width", [1, 2, 5])
def test_pack_rows_reads_back_at_the_digit_limits(width):
    # entries may fill [-B/2, B/2); each packed row is sum_j x_j B^j
    base = 256**width
    lo, hi = -base // 2, base // 2 - 1
    rng = random.Random(width)
    rows = [[lo, hi, 0], [hi, lo, -1], [rng.randrange(lo, hi + 1) for _ in range(3)]]
    # repeated entries, as in every matrix packed: one value, and every row of
    # three values that include both limits
    rows.append([hi] * 3)
    rows += [list(row) for row in product((lo, 0, hi), repeat=3)]

    def packed(rows):  # rows of indices into the table of their distinct values
        table = sorted({x for row in rows for x in row})
        getters = exactla.row_getters([[table.index(x) for x in row] for row in rows])
        return exactla.pack_rows(getters, width, table)

    # and a one-column block, of one row and of three, gathered by one-index getters
    for block in (rows, [[hi]], [[lo], [0], [hi]]):
        assert packed(block) == [sum(x * base**j for j, x in enumerate(row)) for row in block]
    # digits within [-C, C], 4C < B, read back as balanced digits
    c = (base - 1) // 4
    assert exactla.pack_width(c) == width
    for row in ([c, -c, c], [-c, 0, c], [0, 0, 0]):
        (v,) = packed([row])
        assert [exactla.balanced_digits(v, base)[j] for j in range(3)] == row


def test_adjugate_matches_cofactor_oracle():
    rng = random.Random(61)
    cases = [([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], None)
             for n in range(1, 7) for _ in range(5)]
    cases += [([[0] * n for _ in range(n)], [[1]] if n == 1 else [[0] * n for _ in range(n)])
              for n in range(1, 5)]
    for n in range(3, 7):  # rank at most n - 2: every (n-1)-minor vanishes
        a = [[rng.randint(-3, 3) for _ in range(n - 2)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 2)]
        cases.append(([[sum(map(mul, row, col)) for col in zip(*b)] for row in a],
                      [[0] * n for _ in range(n)]))
    for n in range(1, 5):  # large entries, and so a large shift point
        cases.append(([[rng.choice((-1, 1)) * rng.randint(10**5, 10**6) for _ in range(n)]
                       for _ in range(n)], None))
    for mt in treecore.enumerate_upto(12):  # the q = 1 Laplacians: adj is all ones
        lap = qmatrices.build_qL(mt).map(lambda e: sum(e.coeffs))
        cases.append(([list(row) for row in lap.entries], [[1] * mt.p for _ in range(mt.p)]))
    assert len(cases) == 30 + 4 + 4 + 4 + 73
    for rows, known in cases:
        n = len(rows)
        want = [[1]] if n == 1 else [
            [(-1) ** (i + j) * det_cofactor(
                [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
             for j in range(n)]
            for i in range(n)
        ]
        assert known is None or want == known
        got = adjugate_int(Matrix(rows, KIND_R, KIND_L))
        assert [list(r) for r in got.entries] == want, rows


# -- Sturm counting ---------------------------------------------------------------------------


def test_count_examples():
    p = Poly((0, -2, 1))  # x^2 - 2x, roots 0 and 2
    assert count_real_roots(Poly((1, 0, 1))) == 0
    assert count_real_roots(Poly((-1, 1)), lo=0, hi=2) == 1


def test_count_half_open_convention():
    p = Poly((0, -2, 1))
    assert count_real_roots(p, hi=0) == 1          # (-oo, 0] catches the root 0
    assert count_real_roots(p, lo=0) == 1          # (0, +oo) catches only 2
    assert count_real_roots(p, lo=0, hi=2) == 1
    assert count_real_roots(p, lo=Fraction(-1, 2), hi=Fraction(1, 2)) == 1


def test_count_invariant_under_positive_scaling():
    p = Poly((-6, 1, 1))  # (x+3)(x-2)
    for s in (1, 2, 7):
        scaled = Poly(s * c for c in p.coeffs)
        assert count_real_roots(scaled) == 2
        assert count_real_roots(scaled, hi=0) == 1


def test_sturm_counts_match_sympy():
    # sparse polynomials give remainder sequences that skip degrees, and
    # chain members with negative leading coefficients
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43)
    for _ in range(300):
        deg = rng.randint(1, 7)
        coeffs = [rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(deg)]
        p = Poly(coeffs + [rng.choice((-3, -2, -1, 1, 2, 3))])
        sf = squarefree_part(p)
        want = sympy.Poly(list(reversed(sf.coeffs)), x)
        for f in (sf, -sf):
            assert count_real_roots(f) == want.count_roots(), p
            assert count_real_roots(f, hi=0) == want.count_roots(sup=0), p


def test_count_rejects_zero():
    with pytest.raises(ValueError):
        count_real_roots(ZERO)


# -- conjecture evidence ------------------------------------------------------------------------


def test_evidence_p2():
    got = conjecture_evidence(Matrix([[0]], KIND_R, KIND_L))
    assert got == {
        "charpoly": Q,
        "diagonalizable": True,
        "all_eigen_nonneg": True,
        "real_root_count": 1,
    }


def test_evidence_p4():
    lap = Matrix([[1, -1], [-1, 1]], KIND_R, KIND_L)
    got = conjecture_evidence(lap)
    assert got == {
        "charpoly": Poly((0, -2, 1)),
        "diagonalizable": True,
        "all_eigen_nonneg": True,
        "real_root_count": 2,
    }


def test_evidence_flags_negative_eigenvalue():
    got = conjecture_evidence(Matrix([[-1, 0], [0, 2]], KIND_R, KIND_L))
    assert got["diagonalizable"]
    assert not got["all_eigen_nonneg"]


def test_evidence_counts_a_negative_beside_a_zero_eigenvalue():
    got = conjecture_evidence(Matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 2]], KIND_R, KIND_L))
    assert not got["all_eigen_nonneg"]
    assert got["real_root_count"] == 3


def test_diagonalizable_is_the_annihilation_test():
    # a squarefree charpoly settles it by Cayley-Hamilton: the q = 1
    # Laplacian of every tree with 2p <= 14, and small integer matrices,
    # many with repeated eigenvalues, some of them not diagonalizable
    rng = random.Random(24)
    laplacians = [qmatrices.eval_matrix(qmatrices.build_qL(mt), Fraction(1)).map(int)
                  for mt in treecore.enumerate_upto(14)]
    small = []
    for _ in range(300):
        n = rng.randint(1, 4)
        small.append(Matrix([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
                             for _ in range(n)], KIND_R, KIND_L))
    for mats in (laplacians, small):
        got = [conjecture_evidence(m)["diagonalizable"] for m in mats]
        assert got == [annihilates(m, squarefree_part(charpoly_exact(m))) for m in mats]
    assert not all(got)


def test_evidence_flags_non_diagonalizable():
    got = conjecture_evidence(Matrix([[0, 1], [0, 0]], KIND_R, KIND_L))
    assert not got["diagonalizable"]
    assert got["real_root_count"] == 1
