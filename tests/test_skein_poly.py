import pytest

from torusrep.cyclotomic import h_valuation, is_associate, reduce_mod_h
from torusrep.skein_poly import (
    C_closed,
    C_recursive,
    QPoly,
    _poly_mul,
    expand_in_Qc,
    multiply_mod,
    omega_plus_coeffs,
    omega_plus_poly,
    omega_plus_unprimed,
    q_poly_monomial,
    verify_product_expansion,
)


def test_monomial_small_cases(qs):
    ctx = qs.ctx
    assert q_poly_monomial(qs, 0, 0) == (ctx.one(),)
    assert q_poly_monomial(qs, 1, 0) == (-qs.lambda_i(0), ctx.one())
    l0, l1 = qs.lambda_i(0), qs.lambda_i(1)
    assert q_poly_monomial(qs, 2, 0) == (l0 * l1, -(l0 + l1), ctx.one())
    # shifted start
    assert q_poly_monomial(qs, 1, 2) == (-qs.lambda_i(2), ctx.one())


def test_monomial_range_check(qs):
    with pytest.raises(ValueError):
        q_poly_monomial(qs, qs.ctx.p + 1, 0)
    with pytest.raises(ValueError):
        expand_in_Qc(qs, (), 0)  # the empty polynomial has no coefficients
    for n in (-1, qs.ctx.rank(0)):  # the basis of the c = 0 module is Q_0..Q_{d-1}
        with pytest.raises(ValueError):
            QPoly.unit(qs.ctx, 0, n)


def test_expand_round_trip(qs):
    d = qs.ctx.d
    for c in range(d):
        for n in range(d - c + 1):
            got = expand_in_Qc(qs, q_poly_monomial(qs, n, c), c)
            expected = tuple(
                qs.ctx.one() if i == n else qs.ctx.zero() for i in range(n + 1)
            )
            assert got == expected


def test_expand_shift_by_z(qs):
    """z * Q_{n,c} = Q_{n+1,c} + lambda_{c+n} Q_{n,c}."""
    ctx = qs.ctx
    for c in (0, ctx.d - 1):
        for n in range(ctx.d - c):
            zq = _poly_mul((ctx.zero(), ctx.one()), q_poly_monomial(qs, n, c))
            got = expand_in_Qc(qs, zq, c)
            assert got[n + 1] == ctx.one()
            assert got[n] == qs.lambda_i(c + n)
            assert all(not got[i] for i in range(n))


def test_q1_squared_frozen(qs):
    got = expand_in_Qc(qs, _poly_mul(q_poly_monomial(qs, 1, 0), q_poly_monomial(qs, 1, 0)), 0)
    assert got == (qs.ctx.zero(), -qs.brace(1) * qs.brace(3), qs.ctx.one())


def test_C_trivial_and_frozen(qs):
    one = qs.ctx.one()
    for m in range(4):
        for n in range(4):
            assert C_closed(qs, 0, m, n) == one
    assert C_closed(qs, 1, 1, 1) == -qs.brace(1) * qs.brace(3)


def test_C_symmetry(qs):
    top = min(6, qs.ctx.p)
    for m in range(top):
        for n in range(top):
            for l in range(min(m, n) + 1):
                assert C_closed(qs, l, m, n) == C_closed(qs, l, n, m)


def test_C_range_check(qs):
    with pytest.raises(ValueError):
        C_closed(qs, 2, 1, 3)
    with pytest.raises(ValueError):
        C_recursive(qs, -1, 1, 1)
    with pytest.raises(ValueError):
        C_closed(qs, 0, qs.ctx.p, 0)


def test_C_recursion_matches_closed_form(qs5):
    p = qs5.ctx.p
    for m in range(p):
        for n in range(p):
            for l in range(min(m, n) + 1):
                assert C_recursive(qs5, l, m, n) == C_closed(qs5, l, m, n)


def test_C_top_case(qs):
    """C^{n+1}_{m,n+1} = (lambda_m - lambda_n) * C^n_{m,n}."""
    p = qs.ctx.p
    for n in range(min(4, p - 2)):
        for m in range(n + 1, min(7, p)):
            beta = qs.lambda_i(m) - qs.lambda_i(n)
            assert C_closed(qs, n + 1, m, n + 1) == beta * C_closed(qs, n, m, n)


def test_C_valuation(qs5):
    p = qs5.ctx.p
    for m in range(p):
        for n in range(p - m - 1):  # keep m+n+1 < p
            for l in range(min(m, n) + 1):
                assert h_valuation(C_closed(qs5, l, m, n)) == 2 * l


def test_product_expansion_trivial(qs):
    for c in range(qs.ctx.d):
        for n in range(qs.ctx.p - c):
            assert verify_product_expansion(qs, 0, n, c)


@pytest.mark.parametrize("p", [5, 7])
def test_product_expansion_full_grid(p):
    from torusrep.cyclotomic import PrimeContext
    from torusrep.qint import scalars
    qs = scalars(PrimeContext(p))
    for c in range(qs.ctx.d):
        for m in range(p - c):
            for n in range(p - c - m):
                assert verify_product_expansion(qs, m, n, c), (m, n, c)


def test_product_expansion_range_check(qs):
    with pytest.raises(ValueError):
        verify_product_expansion(qs, qs.ctx.p, 0, 0)


def test_multiply_mod_identity(qs):
    ctx = qs.ctx
    for c in (0, ctx.d - 1):
        x = QPoly.unit(ctx, c, ctx.d - c - 1)
        assert multiply_mod(qs, x, (ctx.one(),)) == x


def test_multiply_mod_truncates_top(qs):
    """z * Q_{d-c-1,c} = Q_{d-c,c} + lambda_{d-1} Q_{d-c-1,c} and the first
    term dies in the quotient."""
    ctx = qs.ctx
    z = (ctx.zero(), ctx.one())
    for c in range(ctx.d):
        top = ctx.d - c - 1
        got = multiply_mod(qs, QPoly.unit(ctx, c, top), z)
        assert got.coeffs[top] == qs.lambda_i(ctx.d - 1)
        assert all(not got.coeffs[i] for i in range(top))


def test_multiply_mod_respects_product_expansion(qs):
    """Quotient products agree with the truncation of the full expansion."""
    ctx = qs.ctx
    for c in range(ctx.d):
        rank = ctx.d - c
        for n in range(rank):
            for m in range(ctx.p - c - n):
                got = multiply_mod(qs, QPoly.unit(ctx, c, n), q_poly_monomial(qs, m, 0))
                want = [ctx.zero()] * rank
                for l in range(min(m, n + c) + 1):
                    if m + n - l < rank:
                        want[m + n - l] = want[m + n - l] + C_closed(qs, l, m, n + c)
                assert list(got.coeffs) == want


def test_qpoly_validation(ctx5):
    with pytest.raises(ValueError):
        QPoly(ctx5, 0, (ctx5.one(),))  # wrong length
    with pytest.raises(ValueError):
        QPoly(ctx5, ctx5.d, (ctx5.one(),))  # c out of range


def test_omega_coefficients(qs):
    coeffs = omega_plus_coeffs(qs)
    assert len(coeffs) == qs.ctx.d
    assert coeffs[0] == qs.ctx.one()
    p = qs.ctx.p
    inv2 = pow(2, p - 2, p)
    for m, g in enumerate(coeffs):
        assert is_associate(g, qs.ctx.one())
        assert reduce_mod_h(g) == pow(-1, m) * pow(inv2, m, p) % p


def test_omega_unprimed_rescales(qs):
    # omega_plus_unprimed carries the scale D = {d-1}!
    unprimed = omega_plus_unprimed(qs)
    scale = qs.brace_fact(qs.ctx.d - 1)
    for m in range(qs.ctx.d):
        assert unprimed[m] * qs.brace_fact(m) == qs.gamma_m(m) * scale


def test_omega_poly_expands_back(qs):
    got = expand_in_Qc(qs, omega_plus_poly(qs), 0)
    assert got == omega_plus_unprimed(qs)
