import math
from fractions import Fraction

import pytest
from hypothesis import example, given, assume, strategies as st

from torusrep.cyclotomic import (
    CycNum,
    Factored,
    HDigits,
    PrimeContext,
    dot,
    exact_div,
    h_valuation,
    integral,
    is_associate,
    mul_factored,
    reduce_mod_h,
    truncate,
)


def small_cycnums(p):
    """Integral elements with small coefficients."""
    return st.builds(
        lambda cs: CycNum(PrimeContext(p), tuple(cs)),
        st.lists(st.integers(-30, 30), min_size=p - 1, max_size=p - 1),
    )


def test_prime_context_rejects_bad_p():
    for bad in (4, 6, 9, 1, 0, -5, 3, 2):
        with pytest.raises(ValueError):
            PrimeContext(bad)
    assert PrimeContext(5).d == 2
    assert PrimeContext(13).d == 6


def test_zeta_powers(ctx):
    assert ctx.zeta_pow(0) == ctx.one()
    assert ctx.zeta_pow(ctx.p) == ctx.one()
    assert ctx.zeta_pow(-1) == ctx.zeta_pow(ctx.p - 1)
    # the top power is stored in reduced form
    assert ctx.zeta_pow(ctx.p - 1).nums == (-1,) * (ctx.p - 1)
    # sum of all p-th roots of unity vanishes
    total = ctx.one()
    for k in range(1, ctx.p):
        total = total + ctx.zeta_pow(k)
    assert not total


def test_h_squared_p5(ctx5):
    h = ctx5.h
    assert (h * h).nums == (1, -2, 1, 0)
    assert h * h == h ** 2


def test_mixed_int_arithmetic(ctx5):
    z = ctx5.zeta_pow(1)
    assert 1 - z == ctx5.h
    assert (2 * z) - z == z
    assert z * 0 == ctx5.zero()


def test_exact_div_geometric(ctx):
    one = ctx.one()
    z2 = ctx.zeta_pow(2)
    got = exact_div(one - z2, ctx.h)
    assert got == one + ctx.zeta_pow(1)


def test_exact_div_inverse_direction(ctx):
    """(1-z)/(1-z^2) = (1+z)^{-1} is integral; check it against the
    conjugate-product oracle prod_{k=2}^{p-1}(1+z^k), valid because the
    full product over k=1..p-1 is the norm of 1+z, which is 1."""
    one = ctx.one()
    got = exact_div(ctx.h, one - ctx.zeta_pow(2))
    oracle = one
    for k in range(2, ctx.p):
        oracle = oracle * (one + ctx.zeta_pow(k))
    assert got == oracle
    assert (one + ctx.zeta_pow(1)) * oracle == one


def test_exact_div_inverse_frozen_p5(ctx5):
    got = exact_div(ctx5.h, ctx5.one() - ctx5.zeta_pow(2))
    assert got.nums == (0, -1, 0, -1)


def test_exact_div_absent(ctx5):
    assert exact_div(ctx5.from_int(2), ctx5.h) is None


def test_exact_div_by_zero_is_an_error_not_none(ctx5):
    with pytest.raises(ZeroDivisionError):
        exact_div(ctx5.one(), ctx5.zero())
    with pytest.raises(ZeroDivisionError):
        ctx5.zero() ** -1


@given(p=st.sampled_from([5, 11]), data=st.data())
def test_exact_div_roundtrip(p, data):
    x, y = data.draw(small_cycnums(p)), data.draw(small_cycnums(p))
    assume(bool(y))
    assert exact_div(x * y, y) == x


def _synthetic_div_h(x):
    """x / (1 - zeta) solved directly: from q * (1 - zeta) = x, the top
    coefficient of q is s/p, s the coefficient sum of x (so h | x exactly
    when p | s), and q is the running sum of x_i - s/p."""
    top, r = divmod(sum(x.nums), x.ctx.p)
    if r:
        return None
    quot, acc = [], 0
    for n in x.nums:
        acc += n - top
        quot.append(acc)
    return CycNum(x.ctx, quot)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_exact_div_by_h_matches_synthetic_division(p):
    """The norm route divides by h as the O(p) synthetic division does, on
    random x (mostly not divisible) and on x*h (always divisible)."""
    ctx = PrimeContext(p)
    branches = set()

    @given(x=small_cycnums(p), times_h=st.booleans())
    def check(x, times_h):
        y = x * ctx.h if times_h else x
        got = exact_div(y, ctx.h)
        assert got == _synthetic_div_h(y)
        if times_h:
            assert got == x
        branches.add(got is None)

    check()
    assert branches == {True, False}


@given(a=st.integers(-10**6, 10**6), b=st.integers(-10**4, 10**4).filter(bool),
       p=st.sampled_from([5, 7, 11, 13]))
def test_exact_div_of_integers_is_integer_division(a, b, p):
    """The power basis is integral, so b divides a in Z[zeta_p] exactly when
    it does in Z: an oracle for the None branch independent of the norm."""
    ctx = PrimeContext(p)
    got = exact_div(ctx.from_int(a), ctx.from_int(b))
    if a % b:
        assert got is None
    else:
        assert got == ctx.from_int(a // b)


def _dot_oracle(pairs, p):
    """sum x*y by schoolbook products of the coefficient polynomials in
    zeta, then long division by Phi_p = 1 + zeta + ... + zeta^(p-1)."""
    total = [0] * (2 * p - 3)
    for x, y in pairs:
        for i, a in enumerate(x.nums):
            for j, b in enumerate(y.nums):
                total[i + j] += a * b
    for k in range(len(total) - 1, p - 2, -1):
        top = total[k]  # subtract top * zeta^(k-p+1) * Phi_p
        for i in range(k - p + 1, k + 1):
            total[i] -= top
    return tuple(total[:p - 1])


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dot_matches_schoolbook_products_reduced_by_phi(p):
    ctx = PrimeContext(p)
    assert dot(ctx, []) == ctx.zero()
    assert dot(ctx, [(ctx.zero(), ctx.h), (ctx.h, ctx.zero())]) == ctx.zero()
    elements = st.one_of(st.just(ctx.zero()), small_cycnums(p))

    @given(pairs=st.lists(st.tuples(elements, elements), max_size=4))
    def check(pairs):
        got = dot(ctx, pairs)
        assert got.nums == _dot_oracle(pairs, p)

    check()


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_mul_factored_matches_exact_div_and_products(p):
    """The O(p) factored route against the norm route: x * f equals
    exact_div of x times the up factors, multiplied out one by one, by the
    product of the down factors; k runs over all residues, 0 included.
    The explicit examples reach each branch whatever the random draws."""
    ctx = PrimeContext(p)
    factor = lambda k: ctx.one() - ctx.zeta_pow(k)
    ks = st.lists(st.integers(-2 * p, 2 * p), max_size=4)
    branches = set()

    @given(x=small_cycnums(p), v=st.integers(0, 3), up=ks, down=ks,
           e=st.integers(-2 * p, 2 * p), sign=st.sampled_from([1, -1]))
    @example(x=ctx.one(), v=0, up=[2], down=[1], e=0, sign=1)  # integral
    @example(x=ctx.one(), v=0, up=[], down=[1], e=0, sign=1)  # not integral
    @example(x=ctx.one(), v=0, up=[p], down=[1], e=0, sign=1)  # zero numerator
    @example(x=ctx.one(), v=0, up=[1], down=[-p], e=0, sign=1)  # zero divisor
    def check(x, v, up, down, e, sign):
        x = x * ctx.h ** v  # so that some divisions come out integral
        f = Factored(sign, e, tuple(up), tuple(down))
        if any(k % p == 0 for k in down):
            with pytest.raises(ZeroDivisionError):
                mul_factored(x, f)
            branches.add("zero divisor")
            return
        num = sign * ctx.zeta_pow(e) * x
        for k in up:
            num = num * factor(k)
        den = ctx.one()
        for k in down:
            den = den * factor(k)
        got = mul_factored(x, f)
        assert got == exact_div(num, den)
        if any(k % p == 0 for k in up):
            assert got == ctx.zero()
            branches.add("zero numerator")
        else:
            branches.add(got is None)

    check()
    assert branches == {True, False, "zero divisor", "zero numerator"}


def test_integral_returns_the_quotient_or_names_what(ctx):
    """integral is mul_factored with the None branch turned into an error
    that names the value; a divisor factor 0 is not that error."""
    h2 = ctx.h * ctx.h
    assert integral(h2, Factored(down=(1,)), "h^2/h") == ctx.h
    y = ctx.one() - ctx.zeta_pow(3)
    f = Factored(-1, 2, (3,), (2,))
    assert integral(y, f, "y f") == exact_div(-ctx.zeta_pow(2) * y * y, ctx.one() - ctx.zeta_pow(2))
    with pytest.raises(ArithmeticError, match=f"1/h is not integral at p={ctx.p}"):
        integral(ctx.one(), Factored(down=(1,)), "1/h")
    with pytest.raises(ZeroDivisionError, match="1 - zeta\\^0"):
        integral(ctx.one(), Factored(up=(ctx.p,), down=(ctx.p,)), "0/0")


def test_h_valuation_basics(ctx):
    assert h_valuation(ctx.zero()) == math.inf
    assert h_valuation(ctx.h) == 1
    assert h_valuation(ctx.from_int(ctx.p)) == ctx.p - 1
    assert h_valuation(ctx.one()) == 0


@given(x=small_cycnums(7), y=small_cycnums(7))
def test_h_valuation_additive(x, y):
    assume(bool(x) and bool(y))
    assert h_valuation(x * y) == h_valuation(x) + h_valuation(y)


def test_h_valuation_rejects_non_integral(ctx5):
    # CycNum holds elements of Z[zeta_p] only: a rational coefficient is
    # refused at construction, before any valuation could see it
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            h_valuation(CycNum(ctx5, (bad, 0, 0, 0)))


def test_is_associate(ctx):
    h = ctx.h
    assert is_associate(h, h)
    assert not is_associate(h, h * h)
    assert is_associate(ctx.one(), -ctx.zeta_pow(3))  # roots of unity are units
    assert is_associate(ctx.zero(), ctx.zero())
    assert not is_associate(ctx.zero(), h)
    assert not is_associate(h, ctx.zero())


def test_truncate_zero_and_ideal(ctx):
    assert truncate(ctx.zero(), 4).digits == (0,) * 5
    hN = ctx.h ** 4
    assert truncate(hN, 3).digits == (0,) * 4


def test_truncate_zeta_frozen_p5(ctx5):
    # zeta = 1 - h, and -1 = 4 mod 5; the h^2 digit vanishes since 5 ~ h^4
    assert truncate(ctx5.zeta_pow(1), 2).digits == (1, 4, 0)


def test_truncate_roundtrip(ctx):
    x = ctx.from_int(3) + ctx.zeta_pow(2) * 7 - ctx.zeta_pow(1) * 2
    for N in (0, 1, 5, 2 * (ctx.p - 1)):
        digs = truncate(x, N)
        assert truncate(digs.lift(ctx), N) == digs


def test_truncate_is_ring_homomorphism(ctx):
    import random
    rng = random.Random(ctx.p)
    for _ in range(25):
        N = rng.randrange(0, 9)
        x = CycNum(ctx, tuple(rng.randrange(-40, 41) for _ in range(ctx.p - 1)))
        y = CycNum(ctx, tuple(rng.randrange(-40, 41) for _ in range(ctx.p - 1)))
        assert truncate(x + y, N) == truncate(x, N) + truncate(y, N)
        assert truncate(x * y, N) == truncate(x, N) * truncate(y, N)


def test_hdigits_validation():
    with pytest.raises(ValueError):
        HDigits(5, (5, 0))  # digit out of range
    with pytest.raises(ValueError):
        HDigits(5, ())
    with pytest.raises(ValueError):
        HDigits(5, (1, 2)).lift(PrimeContext(7))  # digits mod h for another p


def test_reduce_mod_h(ctx):
    assert reduce_mod_h(ctx.zeta_pow(1)) == 1
    assert reduce_mod_h(ctx.h) == 0
    assert reduce_mod_h(ctx.zeta_pow(1) + ctx.zeta_pow(-1)) == 2
    x = ctx.from_int(3) - ctx.zeta_pow(1) * 9
    assert reduce_mod_h(x) == truncate(x, 6).digits[0]
    with pytest.raises(TypeError):
        reduce_mod_h(CycNum(ctx, (Fraction(1, 3),) + (0,) * (ctx.p - 2)))


def test_integrality_predicate(ctx5):
    # 1/3 is not in Z[zeta_5], while (3 + 3z + 3z^2 + 3z^3)/3 is
    assert exact_div(ctx5.one(), ctx5.from_int(3)) is None
    assert exact_div(CycNum(ctx5, (3, 3, 3, 3)), ctx5.from_int(3)) == CycNum(ctx5, (1, 1, 1, 1))


def test_canonical_equality_and_hash(ctx5):
    a = CycNum(ctx5, (1, 2, 0, 0))
    b = ctx5.one() + 2 * ctx5.zeta_pow(1)
    assert a == b and hash(a) == hash(b)
    # an element equal to an int hashes like it; elements of two rings differ
    one = ctx5.one()
    assert one == 1 and hash(one) == hash(1) and len({1, one}) == 1
    assert ctx5.from_int(-7) == -7 and hash(ctx5.from_int(-7)) == hash(-7)
    assert one != PrimeContext(7).one() and len({one, PrimeContext(7).one(), 1}) == 2
    assert CycNum(ctx5, (0, 0, 0, 0)) == ctx5.zero()
    # zeta^4 is stored reduced, so both spellings of it compare equal
    assert ctx5.zeta_pow(4) == -(ctx5.one() + ctx5.zeta_pow(1) + ctx5.zeta_pow(2) + ctx5.zeta_pow(3))


def test_negative_power_is_field_inverse(ctx5):
    u = ctx5.one() + ctx5.zeta_pow(1)  # a unit
    assert u ** -1 * u == ctx5.one()
    assert u ** -2 * u ** 2 == ctx5.one()
    with pytest.raises(ValueError):
        ctx5.h ** -1  # h is not a unit: its inverse is not integral
