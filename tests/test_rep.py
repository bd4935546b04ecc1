import pytest

from torusrep.cyclotomic import Truncation, exact_div, h_valuation, reduce_mod_h
from torusrep.skein_poly import C_closed
from torusrep.rep import (
    RepMatrix,
    a_entry,
    b_entry,
    b_term,
    eval_word,
    invert,
    norm_Q,
    norm_Qprime,
    ratio_R,
    t_matrix,
    tstar_matrix,
    tstar_oracle,
    verify_relations,
)


class TestNorms:
    def test_base_case(self, qs):
        assert norm_Qprime(qs, 0, 0) == qs.ctx.one()

    def test_valuation_is_c(self, qs):
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                assert h_valuation(norm_Qprime(qs, n, c)) == c

    def test_unprimed_norm_relation(self, qs):
        """The Q and Q' self-pairings differ by ({n}!)^2, each computed
        from its own closed form."""
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                assert norm_Q(qs, n, c) == qs.brace_fact(n) ** 2 * norm_Qprime(qs, n, c)

    def test_range_check(self, qs):
        with pytest.raises(ValueError):
            norm_Qprime(qs, qs.ctx.d, 0)


class TestRatio:
    def test_diagonal_is_one(self, qs):
        for c in range(qs.ctx.d):
            for n in range(qs.ctx.d - c):
                assert ratio_R(qs, n, n, c) == qs.ctx.one()

    def test_reciprocal(self, qs):
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                for m in range(d - c):
                    assert ratio_R(qs, n, m, c) * ratio_R(qs, m, n, c) == qs.ctx.one()
                    assert h_valuation(ratio_R(qs, n, m, c)) == 0

    def test_equals_norm_ratio(self, qs):
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                for m in range(d - c):
                    assert exact_div(
                        norm_Qprime(qs, n, c), norm_Qprime(qs, m, c)
                    ) == ratio_R(qs, n, m, c)


class TestEntries:
    def test_diagonal_is_twist_eigenvalue(self, qs):
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                assert b_entry(qs, n, n, c) == qs.mu_k(c + n)
                assert a_entry(qs, n, n, c) == qs.mu_k(c + n)

    def test_zero_above_diagonal(self, qs):
        assert not b_entry(qs, 0, qs.ctx.d - 1, 0)
        assert not a_entry(qs, qs.ctx.d - 1, 0, 0)

    def test_index_range_check(self, qs):
        """Indices outside 0..d-c-1 raise, also where the entry would be 0."""
        rank = qs.ctx.d  # c = 0
        for n, m in ((5, 100), (100, 50), (-1, -1), (rank, 0), (0, rank), (-1, 0)):
            with pytest.raises(ValueError, match="indices"):
                b_entry(qs, n, m, 0)
            with pytest.raises(ValueError, match="indices"):
                a_entry(qs, m, n, 0)

    def test_b_term_against_dense_product(self, qs):
        """b_term * {M}! * {m}! = C^l_{M,m+c} * gamma_M * {n}!, M = l+n-m:
        the one factor list against the dense values, with no division."""
        f = qs.brace_fact
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                for m in range(n + 1):
                    for l in range(m + c + 1):
                        M = l + n - m
                        want = C_closed(qs, l, M, m + c) * qs.gamma_m(M) * f(n)
                        assert b_term(qs, n, m, l, c) * f(M) * f(m) == want

    def test_a_entry_is_ratio_times_b_entry(self, qs):
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                for m in range(d - c):
                    want = ratio_R(qs, n, m, c) * b_entry(qs, n, m, c)
                    assert a_entry(qs, m, n, c) == want

    def test_term_valuation_small(self, qs5):
        d = qs5.ctx.d
        for c in range(d):
            for n in range(d - c):
                for m in range(n + 1):
                    for l in range(m + c + 1):
                        assert h_valuation(b_term(qs5, n, m, l, c)) == l

    def test_a_entry_frozen_reduction_p5(self, qs5):
        assert reduce_mod_h(a_entry(qs5, 0, 1, 0)) == 2

    def test_adjointness_guard(self, qs):
        """a_{m,n} <Q'_m,Q'_m> = b_{n,m} <Q'_n,Q'_n> for m <= n."""
        d = qs.ctx.d
        for c in range(d):
            for n in range(d - c):
                for m in range(n + 1):
                    lhs = a_entry(qs, m, n, c) * norm_Qprime(qs, m, c)
                    rhs = b_entry(qs, n, m, c) * norm_Qprime(qs, n, c)
                    assert lhs == rhs


class TestMatrices:
    def test_shapes_and_triangularity(self, qs):
        d = qs.ctx.d
        for c in range(d):
            t = t_matrix(qs, c)
            s = tstar_matrix(qs, c)
            assert t.size == s.size == d - c
            assert t.is_upper_triangular()
            assert s.is_lower_triangular()

    def test_edge_rank_one(self, qs):
        t = t_matrix(qs, qs.ctx.d - 1)
        assert t.entries == ((qs.mu_k(qs.ctx.d - 1),),)

    def test_diagonal_spectrum(self, qs):
        for c in range(qs.ctx.d):
            mu = tuple(qs.mu_k(c + n) for n in range(qs.ctx.d - c))
            assert t_matrix(qs, c).diagonal() == mu
            assert tstar_matrix(qs, c).diagonal() == mu

    def test_oracle_agreement(self, qs):
        for c in range(qs.ctx.d):
            assert tstar_matrix(qs, c) == tstar_oracle(qs, c)

    def test_rejects_non_integral_entries(self, ctx5):
        # entries are CycNum values, which refuse non-integer coefficients
        from fractions import Fraction
        from torusrep.cyclotomic import CycNum
        with pytest.raises(TypeError):
            RepMatrix(ctx5, ((CycNum(ctx5, (Fraction(1, 2), 0, 0, 0)),),))

    def test_truncation_commutes_with_product(self, qs):
        t = t_matrix(qs, 0)
        s = tstar_matrix(qs, 0)
        for N in (0, 3):
            assert (t @ s).truncate(N) == t.truncate(N) @ s.truncate(N)


class TestInvert:
    def test_left_and_right_inverse(self, qs):
        ident = RepMatrix.identity(qs.ctx, 0)
        for M in (t_matrix(qs, 0), tstar_matrix(qs, 0)):
            assert invert(M) @ M == ident
            assert M @ invert(M) == ident

    def test_inverse_is_power(self, qs):
        t = t_matrix(qs, 0)
        assert invert(t) == t ** (qs.ctx.p - 1)

    def test_non_unit_diagonal_rejected(self, ctx5):
        M = RepMatrix(ctx5, ((ctx5.h,),))
        with pytest.raises(ValueError, match="unit"):
            invert(M)

    def test_non_triangular_rejected(self, ctx5):
        one = ctx5.one()
        M = RepMatrix(ctx5, ((one, one), (one, one)))
        with pytest.raises(ValueError, match="triangular"):
            invert(M)


class TestWords:
    def test_empty_word(self, qs):
        assert eval_word(qs, "", 0) == RepMatrix.identity(qs.ctx, 0)

    def test_braid_words(self, qs):
        for c in range(qs.ctx.d):
            assert eval_word(qs, "TST", c) == eval_word(qs, "STS", c)

    def test_inverse_letters(self, qs):
        ident = RepMatrix.identity(qs.ctx, 0)
        assert eval_word(qs, "Tt", 0) == ident
        assert eval_word(qs, "sS", 0) == ident

    def test_order_p(self, qs):
        ident = RepMatrix.identity(qs.ctx, 0)
        assert eval_word(qs, "T" * qs.ctx.p, 0) == ident

    def test_central_word_p5(self, qs5):
        # (t t* t)^4 is the scalar q^{-21 mod 5} = q^4 at c = 0
        got = eval_word(qs5, "TST" * 4, 0)
        assert got == RepMatrix.identity(qs5.ctx, 0).scale(qs5.ctx.zeta_pow(4))

    def test_malformed_word(self, qs5):
        with pytest.raises(ValueError):
            eval_word(qs5, "TSX", 0)
        with pytest.raises(ValueError, match="truncation order"):
            eval_word(qs5, "TS", 0, -1)

    def test_truncated_word_matches_exact(self, qs):
        for N in (0, 2):
            exact = eval_word(qs, "TSts", 1)
            assert eval_word(qs, "TSts", 1, N) == exact.truncate(N)

    def test_digit_matrix_product(self, qs):
        got = eval_word(qs, "T", 0, 3) @ eval_word(qs, "S", 0, 3)
        assert got == eval_word(qs, "TS", 0, 3)
        assert got.ring == Truncation(qs.ctx, 3)


class TestRelations:
    def test_all_checks_pass(self, qs):
        for c in range(qs.ctx.d):
            report = verify_relations(qs, c)
            assert report == {name: True for name in report}

    def test_twelfth_power_identity(self, qs):
        """(t t*)^6 = (t t* t)^4, the two spellings of the boundary twist."""
        t = t_matrix(qs, 0)
        s = tstar_matrix(qs, 0)
        assert (t @ s) ** 6 == (t @ s @ t) ** 4

    def test_order_wraps(self, qs):
        t = t_matrix(qs, 0)
        assert t ** (qs.ctx.p + 1) == t


def _c_entry_points():
    from torusrep.cli import RunConfig
    from torusrep.cyclotomic import PrimeContext
    from torusrep.fp_rep import phi_matrix, rho0_matrices
    from torusrep.qint import scalars

    ctx = PrimeContext(7)
    qs = scalars(ctx)
    return {
        "t_matrix": lambda c: t_matrix(qs, c),
        "tstar_matrix": lambda c: tstar_matrix(qs, c),
        "tstar_oracle": lambda c: tstar_oracle(qs, c),
        "identity": lambda c: RepMatrix.identity(ctx, c),
        "eval_word": lambda c: eval_word(qs, "T", c),
        "rho0_matrices": lambda c: rho0_matrices(ctx, c),
        "phi_matrix": lambda c: phi_matrix(ctx, c),
        "RunConfig": lambda c: RunConfig("matrices", 7, c),
        "norm_Qprime": lambda c: norm_Qprime(qs, 0, c),
        "norm_Q": lambda c: norm_Q(qs, 0, c),
        "ratio_R": lambda c: ratio_R(qs, 0, 0, c),
        "b_term": lambda c: b_term(qs, 0, 0, 0, c),
        "b_entry": lambda c: b_entry(qs, 0, 0, c),
        "a_entry": lambda c: a_entry(qs, 0, 0, c),
    }


@pytest.mark.parametrize("c", [-1, 3], ids=["c-1", "c=d"])
@pytest.mark.parametrize("entry", sorted(_c_entry_points()))
def test_c_out_of_range_is_rejected_at_the_boundary(entry, c):
    # p = 7, so d = 3 and the valid range is 0 <= c <= 2
    with pytest.raises(ValueError, match="0 <= c <= 2"):
        _c_entry_points()[entry](c)


def _error_paths():
    from torusrep.cyclotomic import PrimeContext, truncate
    from torusrep.qint import scalars

    ctx5, ctx7 = PrimeContext(5), PrimeContext(7)
    t5 = lambda: t_matrix(scalars(ctx5), 0)  # 2x2
    t7 = lambda c: t_matrix(scalars(ctx7), c)  # 3x3 at c = 0, 2x2 at c = 1
    return {
        "exact@Fp": lambda: t7(0) @ t7(0).reduce_mod_h(),
        "N2@N3": lambda: t7(0).truncate(2) @ t7(0).truncate(3),
        "exact@truncated": lambda: t7(0) @ t7(0).truncate(2),
        "p5@p7": lambda: t5() @ t7(1),
        "3x3@2x2": lambda: t7(0) @ t7(1),
        "Fp**-1": lambda: t7(0).reduce_mod_h() ** -1,
        "truncated**-1": lambda: t7(0).truncate(2) ** -1,
        "non-square": lambda: RepMatrix(ctx7, ((ctx7.one(), ctx7.one()),)),
        "HDigits N2*N3": lambda: truncate(ctx7.h, 2) * truncate(ctx7.h, 3),
    }


@pytest.mark.parametrize("case", sorted(_error_paths()))
def test_mismatched_rings_sizes_and_inverses_raise(case):
    with pytest.raises(ValueError):
        _error_paths()[case]()


@pytest.mark.parametrize("N", [*range(6), 8], ids=lambda N: f"N{N}")
def test_truncated_letters_multiply_to_the_word(N):
    """Truncate t, t* and their inverses first, then multiply in
    Z[zeta_7]/(h^(N+1)); N = 8 >= p-1 reaches the digits with carries."""
    from torusrep.cyclotomic import PrimeContext
    from torusrep.qint import scalars

    qs = scalars(PrimeContext(7))
    t, s = t_matrix(qs, 0), tstar_matrix(qs, 0)
    letters = {"T": t, "S": s, "t": invert(t), "s": invert(s)}
    assert t.truncate(N).is_upper_triangular() and s.truncate(N).is_lower_triangular()
    word = "TSstTTsS"
    acc = RepMatrix.identity(qs.ctx, 0).truncate(N)
    for ch in word:
        acc = acc @ letters[ch].truncate(N)
    assert acc == eval_word(qs, word, 0, N)


def test_mod_h_reduction_is_the_first_digit():
    """F_p and the N = 0 truncation are the same ring."""
    from torusrep.cyclotomic import PrimeContext
    from torusrep.qint import scalars

    qs = scalars(PrimeContext(7))
    for M in (t_matrix(qs, 0), tstar_matrix(qs, 0)):
        digit0 = tuple(tuple(e.digits[0] for e in row) for row in M.truncate(0).entries)
        assert M.reduce_mod_h().entries == digit0
