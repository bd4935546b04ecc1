"""Acceptance suite.

Every criterion runs over the full grid p in {5, 7, 11, 13}, all
0 <= c <= d-1, with exact equality in Z[zeta_p] or F_p (no tolerances
anywhere).  A slow-marked tier repeats the core criteria at
p in {17, 19, 23, 29, 31}.  Each test prints a single PASS/FAIL line for its criterion, so
`pytest -v -s tests/test_acceptance.py` doubles as a readable report.
"""

import math
import random

import pytest

from torusrep.cyclotomic import CycNum, PrimeContext, h_valuation, truncate
from torusrep.fp_rep import (
    irreducibility_check,
    rho0_matrices,
    u_lemma_check,
    verify_intertwine,
)
from torusrep.identities import closed_form, krattenthaler_sum
from torusrep.qint import scalars
from torusrep.rep import (
    RepMatrix,
    b_term,
    norm_Q,
    norm_Qprime,
    t_matrix,
    tstar_matrix,
    tstar_oracle,
)
from torusrep.skein_poly import C_closed, C_recursive, verify_product_expansion

GRID_PRIMES = (5, 7, 11, 13)


def grid():
    for p in GRID_PRIMES:
        qs = scalars(PrimeContext(p))
        for c in range(qs.ctx.d):
            yield qs, c


def check(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_c01_braid_relation():
    ok = True
    for qs, c in grid():
        t, s = t_matrix(qs, c), tstar_matrix(qs, c)
        ok &= t @ s @ t == s @ t @ s
    check("1. braid relation t.t*.t = t*.t.t*", ok)


def test_c02_central_scalar():
    ok = True
    for qs, c in grid():
        p = qs.ctx.p
        exponent = (-6 + 2 * c * (c + 1) - p * (p + 1) // 2) % p
        expected = RepMatrix.identity(qs.ctx, c).scale(qs.ctx.zeta_pow(exponent))
        ok &= (t_matrix(qs, c) @ tstar_matrix(qs, c) @ t_matrix(qs, c)) ** 4 == expected
    check("2. central relation (t.t*.t)^4 = q^(-6+2c(c+1)-p(p+1)/2).I", ok)


def test_c03_twists_have_order_p():
    ok = True
    for qs, c in grid():
        ident = RepMatrix.identity(qs.ctx, c)
        ok &= t_matrix(qs, c) ** qs.ctx.p == ident
        ok &= tstar_matrix(qs, c) ** qs.ctx.p == ident
    check("3. order: t^p = (t*)^p = I", ok)


def test_c04_closed_form_equals_multiplication_oracle():
    ok = True
    for qs, c in grid():
        ok &= tstar_matrix(qs, c) == tstar_oracle(qs, c)
    check("4. t* closed form = multiplication-by-omega_+ oracle", ok)


def test_c05_twist_spectrum():
    ok = True
    for qs, c in grid():
        mu = tuple(qs.mu_k(c + n) for n in range(qs.ctx.d - c))
        ok &= t_matrix(qs, c).diagonal() == mu
        ok &= tstar_matrix(qs, c).diagonal() == mu
    check("5. diagonal of t and t* is (mu_c, ..., mu_{d-1})", ok)


def test_c06_product_expansion_and_structure_constants():
    ok = True
    for p in GRID_PRIMES:
        qs = scalars(PrimeContext(p))
        for c in range(qs.ctx.d):
            for m in range(p - c):
                for n in range(p - c - m):
                    ok &= verify_product_expansion(qs, m, n, c)
        for m in range(p):
            for n in range(p):
                for l in range(min(m, n) + 1):
                    cval = C_closed(qs, l, m, n)
                    ok &= cval == C_recursive(qs, l, m, n)
                    if m + n + 1 < p:
                        ok &= h_valuation(cval) == 2 * l
    check("6. product expansion identity; C closed = recursive; v_h(C^l) = 2l", ok)


def test_c07_norms():
    ok = True
    for qs, c in grid():
        for n in range(qs.ctx.d - c):
            ok &= h_valuation(norm_Qprime(qs, n, c)) == c
            ok &= norm_Q(qs, n, c) == qs.brace_fact(n) ** 2 * norm_Qprime(qs, n, c)
    check("7. v_h(norm Q'_n) = c and norm Q = ({n}!)^2 norm Q'", ok)


def test_c08_term_valuation_ladder():
    ok = True
    for qs, c in grid():
        for n in range(qs.ctx.d - c):
            for m in range(n + 1):
                for l in range(m + c + 1):
                    ok &= h_valuation(b_term(qs, n, m, l, c)) == l
    check("8. v_h of the l-th t* summand is exactly l", ok)


def test_c09_mod_h_closed_forms():
    ok = True
    for p in GRID_PRIMES:
        ctx = PrimeContext(p)
        for c in range(ctx.d):
            try:
                rho0_matrices(ctx, c)  # raises on reduction/closed-form mismatch
            except ArithmeticError:
                ok = False
    check("9. entrywise mod-h reduction of t, t* equals the closed forms", ok)


def test_c10_intertwiner():
    ok = True
    for p in GRID_PRIMES:
        ctx = PrimeContext(p)
        for c in range(ctx.d):
            ok &= verify_intertwine(ctx, c)
    check("10. Phi intertwines the SL(2,F_p) polynomial action with (t^, t*^)", ok)


def test_c11_irreducibility():
    ok = True
    for p in GRID_PRIMES:
        ctx = PrimeContext(p)
        for c in range(ctx.d):
            ok &= irreducibility_check(ctx, c)
    check("11. generated algebra has full dimension (d-c)^2 over F_p", ok)


def test_c12_double_factorial_congruence():
    sieve = [True] * 102
    sieve[0] = sieve[1] = False
    for i in range(2, 11):
        if sieve[i]:
            for j in range(i * i, 102, i):
                sieve[j] = False
    ok = all(u_lemma_check(p) for p in range(5, 102) if sieve[p])
    check("12. (-2)^(-k) (d-k-1)! (2k+1)!! = (d-1)! mod p for all p <= 101", ok)


def test_c13_binomial_identity_grid():
    ok = True
    for n in range(1, 13):
        for m in range(1, n + 1):
            for i in range(0, n - m + 1):
                want = closed_form(n, m) if i == 0 else 0
                ok &= krattenthaler_sum(n, m, i) == want
    check("13. binomial identity: sum = (2n-1)!/((n-m)!(2m-1)!) or 0, n <= 12", ok)


def test_c14_hadic_soundness():
    ok = True
    for p in GRID_PRIMES:
        ctx = PrimeContext(p)
        rng = random.Random(p)
        for _ in range(200):
            N = rng.randrange(0, 9)
            x = CycNum(ctx, tuple(rng.randrange(-50, 51) for _ in range(p - 1)))
            y = CycNum(ctx, tuple(rng.randrange(-50, 51) for _ in range(p - 1)))
            ok &= truncate(x + y, N) == truncate(x, N) + truncate(y, N)
            ok &= truncate(x * y, N) == truncate(x, N) * truncate(y, N)
        digits = truncate(ctx.from_int(p), p + 1).digits
        ok &= all(digits[i] == 0 for i in range(p - 1))
        ok &= digits[p - 1] != 0
        ok &= h_valuation(ctx.from_int(p)) == p - 1
    check("14. truncation is a ring homomorphism; p has digits only from h^(p-1)", ok)


#: c on the wider tier: every c up to p = 23, then the middle of each of
#: three equal bands of 0..d-1 (the colors the benchmark's matrices use)
WIDE_COLORS = {17: range(8), 19: range(9), 23: range(11), 29: (2, 7, 11), 31: (2, 7, 12)}


@pytest.mark.slow
@pytest.mark.parametrize("p", sorted(WIDE_COLORS))
def test_c15_wider_primes(p):
    qs = scalars(PrimeContext(p))
    ok = True
    for c in WIDE_COLORS[p]:
        t, s = t_matrix(qs, c), tstar_matrix(qs, c)
        mu = tuple(qs.mu_k(c + n) for n in range(qs.ctx.d - c))
        ok &= t @ s @ t == s @ t @ s
        ok &= s == tstar_oracle(qs, c)
        ok &= t.diagonal() == mu and s.diagonal() == mu
        ok &= verify_intertwine(qs.ctx, c)
    check(f"15. p={p}: braid relation, t* oracle, twist spectrum, intertwiner", ok)
