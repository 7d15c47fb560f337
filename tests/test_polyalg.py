import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import canonical_form_reference, primitive_part_reference
from qbip import polyalg
from qbip.polyalg import (
    ONE,
    Poly,
    PoleAtPoint,
    NotDivisible,
    Q,
    RatFun,
    ZERO,
    divexact,
    poly_gcd,
    qdeg,
    qint,
)

small_polys = st.builds(
    Poly, st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
)
nonzero_polys = small_polys.filter(bool)


# -- q-scalars ---------------------------------------------------------------


def test_qint_base_cases():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(3) == Poly((1, 1, 1))
    with pytest.raises(ValueError):
        qint(-1)


def test_qdeg_base_cases():
    assert qdeg(1) == ONE
    assert qdeg(2) == Poly((1, 0, 1))
    assert qdeg(3) == Poly((1, 0, 2))
    with pytest.raises(ValueError):
        qdeg(0)


@pytest.mark.parametrize("k", range(1, 65))
def test_q_scalars_specialize_to_k_at_one(k):
    assert qint(k).eval_at(1) == k
    assert qdeg(k).eval_at(1) == k


@pytest.mark.parametrize("k", range(0, 65))
def test_qint_telescopes(k):
    # [k](1-q) == 1 - q^k
    want = ONE - Poly((0,) * k + (1,))
    assert qint(k) * Poly((1, -1)) == want


# -- ring arithmetic ----------------------------------------------------------


def test_difference_of_squares():
    assert Poly((1, 1)) * Poly((1, -1)) == Poly((1, 0, -1))


def test_additive_inverse():
    assert qint(2) + (-qint(2)) == ZERO


def test_multiplicative_identity():
    assert qdeg(2) * qint(1) == Poly((1, 0, 1))


def test_canonical_form_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)) == ZERO
    assert Poly(Poly((3, 0, 5)).coeffs) == Poly((3, 0, 5))


@given(small_polys, small_polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(small_polys, small_polys, small_polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys, small_polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys)
def test_eval_is_ring_homomorphism(a, b):
    x = Fraction(3, 7)
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)


# -- exact division ------------------------------------------------------------


def test_divexact_factorizations():
    assert divexact(Poly((1, 0, -1)), Poly((1, 1))) == Poly((1, -1))
    assert divexact(Poly((0, 1, 1)), Q) == Poly((1, 1))


def test_divexact_rejects_nonfactor():
    with pytest.raises(NotDivisible):
        divexact(Poly((1, 1)), Poly((1, -1)))


def test_divexact_rejects_fractional_quotient():
    # (2 + 2q) / 2 is fine; (1 + q) / 2 is not integral
    assert divexact(Poly((2, 2)), Poly((2,))) == Poly((1, 1))
    with pytest.raises(NotDivisible):
        divexact(Poly((1, 1)), Poly((2,)))


def test_divexact_by_zero():
    with pytest.raises(ZeroDivisionError):
        divexact(ONE, ZERO)


@given(small_polys, nonzero_polys)
def test_divexact_inverts_multiplication(a, b):
    assert divexact(a * b, b) == a


# -- gcd ------------------------------------------------------------------------


def test_gcd_common_factor():
    assert poly_gcd(Poly((1, 0, -1)), Poly((1, 1))) == Poly((1, 1))


def test_gcd_coprime():
    assert poly_gcd(Q, Poly((1, 1))) == ONE


def test_gcd_returns_primitive_part():
    # oracle: both arguments decompose as content * primitive part with the
    # same primitive part, so the primitive gcd is that common part
    a, b = Poly((2, 2)), Poly((4, 4))
    ca = math.gcd(*a.coeffs)
    cb = math.gcd(*b.coeffs)
    pa = Poly(c // ca for c in a.coeffs)
    pb = Poly(c // cb for c in b.coeffs)
    assert pa == pb
    assert poly_gcd(a, b) == pa


def test_gcd_of_zeros_rejected():
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)


def test_gcd_with_zero_is_the_other_primitive_part():
    # one point decides coprimality only for two nonzero operands: at
    # x = 4 the value 2 of q - 2 would pass for a unit
    assert poly_gcd(ZERO, Poly((-2, 1))) == Poly((-2, 1))
    assert poly_gcd(Poly((4, -2)), ZERO) == Poly((-2, 1))


def test_gcd_matches_sympy():
    # random products, and common factors with roots at Cauchy's bound of
    # cofactors of norm k: q +- (k+1), then k q +- 1 and q^2 - k
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(24)

    def of_norm(k, deg):
        coeffs = [rng.randint(-k, k) for _ in range(deg)] + [rng.choice((-k, k))]
        rng.shuffle(coeffs)
        return Poly(coeffs + [rng.randint(1, k)])

    pairs = []
    for _ in range(200):
        f, g, h = (of_norm(rng.randint(1, 9), rng.randint(0, 4)) for _ in range(3))
        pairs.append((f * h, g * h))
    for k in range(1, 51):
        for common in (Poly((k + 1, 1)), Poly((-k - 1, 1)), Poly((1, k)), Poly((-1, k)),
                       Poly((-k, 0, 1))):
            f, g = of_norm(k, rng.randint(0, 3)), of_norm(k, rng.randint(0, 3))
            pairs += [(common, common * f), (common * f, common * g), (common * f, g)]
    for a, b in pairs:
        want = sympy.gcd(sympy.Poly(a.coeffs[::-1], x), sympy.Poly(b.coeffs[::-1], x))
        assert poly_gcd(a, b) == Poly(map(int, want.all_coeffs()[::-1])).primitive_part(), (a, b)


def test_coprime_pair_takes_no_remainder_step(monkeypatch):
    # at x = 2 * 1 + 4 the values are 55987 and 2372, whose gcd 1 <= x/2
    steps = []

    def counted(a, b, _fn=polyalg.prem):
        steps.append(b)
        return _fn(a, b)

    monkeypatch.setattr(polyalg, "prem", counted)
    assert poly_gcd(qint(7), Poly((2, -1, 0, 5, 1))) == ONE
    assert steps == []


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b, c):
    g = poly_gcd(a * c, b * c)
    divexact(a * c, g)
    divexact(b * c, g)
    # the common factor's primitive part must divide the gcd
    divexact(g, c.primitive_part())


# -- rational functions ----------------------------------------------------------


def test_rf_monomial_reciprocal():
    assert RatFun(Q).inverse() == RatFun(ONE, Q)


def test_rf_common_denominator_sums_to_one():
    one_plus_q = Poly((1, 1))
    assert RatFun(ONE, one_plus_q) + RatFun(Q, one_plus_q) == RatFun(ONE)


def test_rf_cancellation():
    assert RatFun(Poly((1, 0, -1))) * RatFun(ONE, Poly((1, 1))) == RatFun(Poly((1, -1)))


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        RatFun(ZERO).inverse()


def test_rf_canonical_form_invariants():
    f = RatFun(Poly((2, 2)), Poly((0, 4)))  # (2+2q)/(4q) -> (1+q)/(2q)
    assert f.num == Poly((1, 1))
    assert f.den == Poly((0, 2))
    assert f.den.leading() > 0
    assert math.gcd(f.num.content(), f.den.content()) == 1
    assert poly_gcd(f.num, f.den) == ONE


def test_rf_zero_is_zero_over_one():
    assert RatFun(ZERO, Poly((3, 5))) == RatFun(ZERO)
    assert RatFun(ZERO).den == ONE


# scaled by integers of either sign, and often by a shared factor, so that
# contents >= 2, negative leading coefficients and common factors all occur
scales = st.integers(min_value=-12, max_value=12).filter(bool)


@given(small_polys, nonzero_polys, st.one_of(st.just(ONE), nonzero_polys), scales, scales)
def test_rf_matches_the_reference_canonical_form(a, b, common, ka, kb):
    num, den = a * common * ka, b * common * kb
    f = RatFun(num, den)
    assert (f.num, f.den) == canonical_form_reference(num, den)


@given(small_polys, scales)
def test_primitive_part_matches_the_reference_and_keeps_a_primitive_self(a, k):
    for x in (a, a * k):
        want = primitive_part_reference(x)
        assert x.primitive_part() == want
        assert (x.primitive_part() is x) == (want == x)


def test_rf_reference_cases_cover_contents_signs_and_zero():
    cases = [(Poly((6, 4)), Poly((-9, 3))), (Poly((0, -2, -2)), Poly((2, 4, 2))),
             (ZERO, Poly((-4, 2))), (Poly((-5,)), Poly((10, 0, -15)))]
    for num, den in cases:
        f = RatFun(num, den)
        assert (f.num, f.den) == canonical_form_reference(num, den)
    f = RatFun(Poly((0, -2, -2)), Poly((2, 4, 2)))  # -2q(1+q) / 2(1+q)^2
    assert (f.num, f.den) == (Poly((0, -1)), Poly((1, 1)))


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_rf_canonicalization_cancels_common_factors(a, b, c):
    assert RatFun(a * c, b * c) == RatFun(a, b)


@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_rf_arithmetic_agrees_with_evaluation(an, ad, bn, bd):
    a = RatFun(an, ad)
    b = RatFun(bn, bd)
    x = Fraction(5, 7)
    if ad.eval_at(x) == 0 or bd.eval_at(x) == 0:
        return
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
    if a and a.num.eval_at(x) != 0:
        assert a.inverse().eval_at(x) == 1 / a.eval_at(x)


# -- evaluation ---------------------------------------------------------------


def test_poly_eval_examples():
    assert qint(3).eval_at(1) == 3
    assert Poly((1, 0, -1)).eval_at(1) == 0
    assert Poly((1, 2)).eval_at(Fraction(1, 2)) == 2


@given(small_polys, st.integers(-5, 5) | st.fractions(max_denominator=12))
def test_poly_eval_matches_fraction_horner(p, x):
    want = Fraction(0)
    for c in reversed(p.coeffs):
        want = want * x + c
    got = p.eval_at(x)
    assert got == want and type(got) is (int if type(x) is int else Fraction)


@given(small_polys, nonzero_polys, st.integers(-5, 5))
def test_rf_eval_at_an_integer_is_the_fraction_of_the_horner_values(n, d, x):
    def horner(p):
        want = Fraction(0)
        for c in reversed(p.coeffs):
            want = want * x + c
        return want

    f = RatFun(n, d)
    if horner(f.den) == 0:
        return
    got = f.eval_at(x)
    assert type(got) is Fraction and got == horner(f.num) / horner(f.den)


INEXACT_POINTS = [0.5, 0.1, 2.0, "1/2", "2", True, False, None, 1j]


@pytest.mark.parametrize("x", INEXACT_POINTS)
def test_poly_eval_rejects_an_inexact_point(x):
    # a float would be read at its binary value, a string parsed; bool is no point
    for p in (Poly((1, 2)), ZERO):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            p.eval_at(x)


@pytest.mark.parametrize("x", INEXACT_POINTS)
def test_rf_eval_rejects_an_inexact_point(x):
    with pytest.raises(TypeError, match="an int or a Fraction"):
        RatFun(Poly((1, 2)), Poly((3, 1))).eval_at(x)


@pytest.mark.parametrize("coeffs", [
    (Fraction(1, 2), 1), (Fraction(2),), (1, Fraction(2)), (0.5,), (1, 0.5, 2),
])
def test_poly_rejects_inexact_coefficients(coeffs):
    with pytest.raises(TypeError):
        Poly(coeffs)


def test_rf_eval_pole():
    f = RatFun(ONE, Poly((1, -1)))
    with pytest.raises(PoleAtPoint):
        f.eval_at(1)
    assert f.eval_at(2) == -1


# -- wire format ----------------------------------------------------------------


def test_poly_json_round_trip():
    p = Poly((1, 0, 1))
    assert p.to_json() == ["1", "0", "1"]
    assert Poly.from_json(["1", "0", "1"]) == p
    f = RatFun(ONE, Q)
    assert f.to_json() == {"num": ["1"], "den": ["0", "1"]}
    assert RatFun.from_json(f.to_json()) == f


def test_poly_str_forms():
    assert str(ZERO) == "0"
    assert str(Poly((1, 1, 1))) == "1 + q + q^2"
    assert str(Poly((0, -1, 2))) == "-q + 2q^2"
    assert str(RatFun(ONE, Q)) == "(1)/(q)"
