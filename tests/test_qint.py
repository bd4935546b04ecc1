import pytest

from torusrep.cyclotomic import (
    PrimeContext,
    exact_div,
    h_valuation,
    is_associate,
    mul_factored,
    reduce_mod_h,
)
from torusrep.qint import scalars


def test_A_is_primitive_2pth_root(qs):
    p = qs.ctx.p
    assert qs.A ** 2 == qs.q
    assert qs.A ** p == -qs.ctx.one()
    assert qs.A ** (2 * p) == qs.ctx.one()


def test_brace_basics(qs):
    p = qs.ctx.p
    assert not qs.brace(0)
    assert not qs.brace(p)
    for n in range(1, p):
        assert qs.brace(-n) == -qs.brace(n)


def test_brace_frozen_p5(qs5):
    # A = -q^3, so (-A)^1 = q^3 and {1} = q^3 - q^2
    q = qs5.q
    assert qs5.brace(1) == q ** 3 - q ** 2
    assert qs5.brace(1).nums == (0, 0, -1, 1)


def test_brace_plus(qs):
    assert qs.brace_plus(0) == qs.ctx.from_int(2)
    for n in range(1, qs.ctx.p):
        assert reduce_mod_h(qs.brace_plus(n)) == 2


def test_brace_q_factors(qs):
    for n in range(qs.ctx.p):
        assert qs.brace_q(n) == qs.brace(n) * qs.brace_plus(n)
        assert qs.brace_q(n) == qs.brace(2 * n)


def test_factorial_conventions(qs):
    one = qs.ctx.one()
    assert qs.brace_fact(0) == one
    assert qs.brace_dfact(0) == one
    for f in (qs.brace_fact, qs.brace_dfact, qs.brace_plus_fact,
              qs.brace_plus_dfact, qs.brace_q_fact):
        assert not f(-1)
        assert not f(-3)
    assert qs.brace_dfact(5) == qs.brace(5) * qs.brace(3) * qs.brace(1)
    assert qs.brace_plus_dfact(4) == qs.brace_plus(4) * qs.brace_plus(2)
    assert qs.brace_fact(3) == qs.brace(1) * qs.brace(2) * qs.brace(3)


def test_brace_valuations(qs):
    p = qs.ctx.p
    for n in range(1, p):
        assert h_valuation(qs.brace(n)) == 1
        assert h_valuation(qs.brace_q(n)) == 1
        assert h_valuation(qs.brace_plus(n)) == 0
        assert is_associate(qs.brace(n), qs.ctx.h)
    for n in range(0, p):
        assert h_valuation(qs.brace_fact(n)) == n


def _multiplied_out(ctx, f):
    """(numerator, denominator) of a Factored as plain products, no division."""
    num = f.sign * ctx.zeta_pow(f.e)
    for k in f.up:
        num = num * (1 - ctx.zeta_pow(k))
    den = ctx.one()
    for k in f.down:
        den = den * (1 - ctx.zeta_pow(k))
    return num, den


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_bracket_factorizations_multiply_back(p):
    qs = scalars(PrimeContext(p))

    def agree(f, value):
        num, den = _multiplied_out(qs.ctx, f)
        return num == value * den and mul_factored(qs.ctx.one(), f) == value

    for n in range(1, 2 * p):
        if n % p:
            assert agree(qs.brace_factors(n), qs.brace(n))
            assert agree(qs.brace_plus_factors(n), qs.brace_plus(n))
            assert agree(qs.brace_q_factors(n), qs.brace_q(n))
    for j in range(1, p - 1, 2):
        assert agree(qs.A_pow_minus_one_factors(j), qs.A_pow(j) - 1)
    # factorials, with the zero factor below 0
    for n in range(-2, p + 3):
        assert agree(qs.brace_fact_factors(n), qs.brace_fact(n))
        assert agree(qs.brace_dfact_factors(n), qs.brace_dfact(n))
        assert agree(qs.brace_q_fact_factors(n), qs.brace_q_fact(n))
    for n in range(-2, p):
        assert agree(qs.brace_plus_fact_factors(n), qs.brace_plus_fact(n))
    with pytest.raises(ValueError):
        qs.brace_plus_factors(p)  # {p}+ = 2
    with pytest.raises(ValueError):
        qs.A_pow_minus_one_factors(2)


def test_brace_quotient_reduces_to_n(qs):
    """The exact quotient {n}/{1} lies in Z[zeta_p] and reduces to n mod p."""
    for n in range(1, qs.ctx.p):
        quot = exact_div(qs.brace(n), qs.brace(1))
        assert quot is not None
        assert reduce_mod_h(quot) == n % qs.ctx.p


def test_lambda_frozen_p5(qs5):
    q = qs5.q
    assert qs5.lambda_i(0) == -q - q ** 4


def test_lambda_difference_identity(qs):
    p = qs.ctx.p
    for m in range(p):
        for n in range(p):
            assert qs.lambda_i(m) - qs.lambda_i(n) == qs.brace(n - m) * qs.brace(m + n + 2)


def test_lambda_plus_two_valuation(qs):
    p = qs.ctx.p
    two = qs.ctx.from_int(2)
    for i in range(p - 1):
        assert h_valuation(qs.lambda_i(i) + two) == 2
    assert not qs.lambda_i(p - 1) + two  # lambda_{p-1} = -2 exactly


def test_mu_basics(qs):
    assert qs.mu_k(0) == qs.ctx.one()
    for k in range(qs.ctx.d):
        assert qs.mu_k(k) ** qs.ctx.p == qs.ctx.one()


def test_mu_frozen_p5(qs5):
    assert qs5.mu_k(1) == qs5.ctx.zeta_pow(4)


def test_gamma_units(qs):
    assert qs.gamma_m(0) == qs.ctx.one()
    den = qs.ctx.one()  # prod_{k=1}^m (A^(2k+1) - 1)
    for m in range(qs.ctx.d):
        g = qs.gamma_m(m)
        assert h_valuation(g) == 0
        assert is_associate(g, qs.ctx.one())
        if m:
            den = den * (qs.A_pow(2 * m + 1) - 1)
        assert g * den == (-qs.A) ** ((m * m + 5 * m) // 2)


def test_gamma_reduction(qs):
    p = qs.ctx.p
    inv2 = pow(2, p - 2, p)
    for m in range(qs.ctx.d):
        expected = pow(-1, m) * pow(inv2, m, p) % p
        assert reduce_mod_h(qs.gamma_m(m)) == expected


def test_gamma_range_check(qs):
    with pytest.raises(ValueError):
        qs.gamma_m(qs.ctx.d)
    with pytest.raises(ValueError):
        qs.gamma_m(-1)
