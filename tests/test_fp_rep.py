import random

import pytest

from torusrep.cyclotomic import ModH, PrimeContext
from torusrep.fp_rep import (
    SL2_T,
    SL2_TSTAR,
    a_hat_entry,
    b_hat_entry,
    int_dfact,
    irreducibility_check,
    phi_matrix,
    poly_action,
    rho0_matrices,
    u_lemma_check,
    verify_intertwine,
)
from torusrep.rep import RepMatrix


def primes_up_to(n):
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, n + 1, i):
                sieve[j] = False
    return [i for i, ok in enumerate(sieve) if ok]


def random_sl2(rng, p):
    while True:
        a, b, c = (rng.randrange(p) for _ in range(3))
        if a % p:
            d = (1 + b * c) * pow(a, p - 2, p) % p
            return ((a, b), (c, d))


def test_int_dfact():
    assert int_dfact(0) == 1
    assert int_dfact(-1) == 1
    assert int_dfact(5) == 15
    assert int_dfact(6) == 48


def test_closed_forms_frozen_p5():
    assert a_hat_entry(5, 0, 0, 1) == 2  # -3!! = -3 = 2 mod 5
    assert b_hat_entry(5, 1, 0) == 2     # (-2)^{-1} mod 5
    assert a_hat_entry(5, 0, 1, 0) == 0
    assert b_hat_entry(5, 0, 1) == 0


def test_rho0_unipotent_triangular(ctx):
    for c in range(ctx.d):
        t_hat, s_hat = rho0_matrices(ctx, c)
        rank = ctx.d - c
        assert t_hat.diagonal() == (1,) * rank
        assert s_hat.diagonal() == (1,) * rank
        for i in range(rank):
            for j in range(rank):
                if i > j:
                    assert t_hat.entries[i][j] == 0
                if i < j:
                    assert s_hat.entries[i][j] == 0


def test_rho0_satisfies_relations(ctx):
    """Over F_p the central scalar collapses to 1, so (t t* t)^4 = I."""
    for c in range(ctx.d):
        t_hat, s_hat = rho0_matrices(ctx, c)
        ident = RepMatrix.identity(ModH(ctx), c)
        assert t_hat @ s_hat @ t_hat == s_hat @ t_hat @ s_hat
        assert (t_hat @ s_hat @ t_hat) ** 4 == ident
        assert t_hat ** ctx.p == ident
        assert s_hat ** ctx.p == ident


def test_poly_action_identity(ctx):
    for c in (ctx.d - 1, ctx.d - 2, 0):  # D = d-c-1 in (0, 1, d-1)
        D = ctx.d - c - 1
        assert poly_action(ctx.p, ((1, 0), (0, 1)), D) == RepMatrix.identity(ModH(ctx), c)


def test_poly_action_generators(ctx):
    from math import comb
    p = ctx.p
    D = ctx.d - 1
    T = poly_action(p, SL2_T, D)
    S = poly_action(p, SL2_TSTAR, D)
    for m in range(D + 1):
        for n in range(D + 1):
            assert T.entries[m][n] == comb(n, m) % p
            expected = (-1) ** (m - n) * comb(D - n, m - n) if m >= n else 0
            assert S.entries[m][n] == expected % p


def test_poly_action_rejects_bad_det(ctx5):
    with pytest.raises(ValueError):
        poly_action(5, ((2, 0), (0, 2)), 2)
    with pytest.raises(ValueError):
        poly_action(7, SL2_T, -1)  # no polynomials of negative degree


def test_poly_action_multiplicative(ctx):
    p = ctx.p
    D = ctx.d - 1
    rng = random.Random(p)
    for _ in range(20):
        g = random_sl2(rng, p)
        k = random_sl2(rng, p)
        gk = tuple(
            tuple(sum(g[i][l] * k[l][j] for l in range(2)) % p for j in range(2))
            for i in range(2)
        )
        assert poly_action(p, gk, D) == poly_action(p, g, D) @ poly_action(p, k, D)


def test_word_factorizations_agree(ctx):
    """Different spellings of the same group element act identically."""
    p = ctx.p
    D = ctx.d - 1
    T = poly_action(p, SL2_T, D)
    S = poly_action(p, SL2_TSTAR, D)
    assert T @ S @ T == S @ T @ S
    t_hat, s_hat = rho0_matrices(ctx, 0)
    assert t_hat @ s_hat @ t_hat == s_hat @ t_hat @ s_hat


def test_phi_diagonal(ctx):
    p = ctx.p
    for c in range(ctx.d):
        phi = phi_matrix(ctx, c)
        rank = ctx.d - c
        for i in range(rank):
            assert phi.entries[i][i] != 0
            for j in range(rank):
                if i != j:
                    assert phi.entries[i][j] == 0
        assert phi.entries[0][0] == pow(int_dfact(2 * c + 1), p - 2, p)


def test_phi_entry0_trivial_at_c0(ctx):
    assert phi_matrix(ctx, 0).entries[0][0] == 1


def test_intertwine(ctx):
    for c in range(ctx.d):
        assert verify_intertwine(ctx, c)


def test_intertwine_trivial_rank_one(ctx):
    assert verify_intertwine(ctx, ctx.d - 1)


def test_irreducibility(ctx):
    for c in range(ctx.d):
        assert irreducibility_check(ctx, c)


def test_u_lemma_frozen_p5():
    # k=1 at p=5: (-2)^{-1} * 1! * 3!! = 2*3 = 6 = 1 = (d-1)! mod 5
    assert u_lemma_check(5)


def test_u_lemma_all_small_primes():
    for p in primes_up_to(101):
        if p >= 5:
            assert u_lemma_check(p), p


def test_fp_matrix_basics(ctx5):
    ring = ModH(ctx5)
    M = RepMatrix(ring, ((1, 2), (3, 4)))
    assert (M @ M).entries == ((2, 0), (0, 2))  # products reduce mod 5
    assert M @ RepMatrix.identity(ring, 0) == M
    with pytest.raises(ValueError):
        RepMatrix(ring, ((1, 2), (3,)))
