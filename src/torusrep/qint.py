"""Quantum integers and derived scalars at a primitive 2p-th root of unity.

With q = zeta_p and A = -q^(d+1) (so A^2 = q and A has order 2p), the three
bracket flavors are

    {n}   = (-A)^n - (-A)^(-n)
    {n}+  = (-A)^n + (-A)^(-n)
    {n}_q =    q^n  -    q^(-n)      (so {n}_q = {n} * {n}+ = {2n})

together with their factorials and double factorials.  On top of these live
the eigenvalues lambda_i = -q^(i+1) - q^(-i-1) of the core curve, the twist
eigenvalues mu_k = (-1)^k * A^(k(k+2)), and the positive-twist coefficients
gamma_m, which are algebraic-integer units.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CycNum, PrimeContext, exact_div


class QScalars:
    """All named scalars for one prime context.

    Every table is filled eagerly at construction, so a shared instance is
    safe to use from multiple threads.  Use scalars(ctx) to get the cached
    instance for a context.
    """

    def __init__(self, ctx: PrimeContext):
        self.ctx = ctx
        p, d = ctx.p, ctx.d
        self.q = ctx.zeta_pow(1)
        self.A = -ctx.zeta_pow(d + 1)

        # (-A)^n = q^(n(d+1)) depends only on n mod p, as do the brackets.
        mA = [ctx.zeta_pow(r * (d + 1)) for r in range(p)]
        self._brace = [mA[r] - mA[-r] for r in range(p)]
        self._brace_plus = [mA[r] + mA[-r] for r in range(p)]
        qpow = [ctx.zeta_pow(r) for r in range(p)]
        self._brace_q = [qpow[r] - qpow[-r] for r in range(p)]

        self._lambda = [-(qpow[(i + 1) % p] + qpow[-(i + 1) % p]) for i in range(p)]

        limit = 2 * p  # comfortably past every factorial argument in use
        self._brace_fact = self._cumulative(self.brace, limit, step=1)
        self._brace_plus_fact = self._cumulative(self.brace_plus, limit, step=1)
        self._brace_q_fact = self._cumulative(self.brace_q, limit, step=1)
        self._brace_dfact = self._cumulative(self.brace, limit, step=2)
        self._brace_plus_dfact = self._cumulative(self.brace_plus, limit, step=2)

        self._gamma = [self._gamma_value(m) for m in range(d)]

    def _cumulative(self, term, limit, step):
        table = [self.ctx.one()] * (limit + 1)
        for n in range(1, limit + 1):
            prev = table[n - step] if n >= step else self.ctx.one()
            table[n] = term(n) * prev
        return table

    def _gamma_value(self, m: int) -> CycNum:
        e = m * (m + 5)
        assert e % 2 == 0
        num = self.ctx.zeta_pow((e // 2) * (self.ctx.d + 1))  # (-A)^(e/2)
        den = self.ctx.one()
        for k in range(1, m + 1):
            den = den * (self.A_pow(2 * k + 1) - 1)
        value = exact_div(num, den)
        if value is None:
            raise ArithmeticError(f"gamma_{m} failed integrality at p={self.ctx.p}")
        return value

    def A_pow(self, k: int) -> CycNum:
        """A^k, using A = -q^(d+1)."""
        v = self.ctx.zeta_pow(k * (self.ctx.d + 1))
        return -v if k % 2 else v

    def brace(self, n: int) -> CycNum:
        """{n} = (-A)^n - (-A)^(-n)."""
        return self._brace[n % self.ctx.p]

    def brace_plus(self, n: int) -> CycNum:
        """{n}+ = (-A)^n + (-A)^(-n)."""
        return self._brace_plus[n % self.ctx.p]

    def brace_q(self, n: int) -> CycNum:
        """{n}_q = q^n - q^(-n)."""
        return self._brace_q[n % self.ctx.p]

    # Factorial variants.  {0}! = 1, and a negative argument gives 0 for
    # every flavor, which lets sums over ranges run without edge guards.

    def brace_fact(self, n: int) -> CycNum:
        """{n}! = {n}{n-1}...{1}."""
        return self._lookup(self._brace_fact, self.brace, n, step=1)

    def brace_plus_fact(self, n: int) -> CycNum:
        """{n}+! = {n}+{n-1}+...{1}+."""
        return self._lookup(self._brace_plus_fact, self.brace_plus, n, step=1)

    def brace_q_fact(self, n: int) -> CycNum:
        """{n}_q! = {n}_q{n-1}_q...{1}_q."""
        return self._lookup(self._brace_q_fact, self.brace_q, n, step=1)

    def brace_dfact(self, n: int) -> CycNum:
        """{n}!! = {n}{n-2}..., ending in {2} or {1}."""
        return self._lookup(self._brace_dfact, self.brace, n, step=2)

    def brace_plus_dfact(self, n: int) -> CycNum:
        """{n}+!! = {n}+{n-2}+..., ending in {2}+ or {1}+."""
        return self._lookup(self._brace_plus_dfact, self.brace_plus, n, step=2)

    def _lookup(self, table, term, n, step):
        if n < 0:
            return self.ctx.zero()
        if n < len(table):
            return table[n]
        acc = self.ctx.one()
        while n > 0:
            acc = acc * term(n)
            n -= step
        return acc

    def lambda_i(self, i: int) -> CycNum:
        """lambda_i = -q^(i+1) - q^(-i-1), the curve eigenvalue on color i."""
        if i < 0:
            raise ValueError("lambda_i takes i >= 0")
        return self._lambda[i % self.ctx.p]

    def mu_k(self, k: int) -> CycNum:
        """mu_k = (-1)^k * A^(k(k+2)), the twist eigenvalue on color k."""
        if k < 0:
            raise ValueError("mu_k takes k >= 0")
        v = self.A_pow(k * (k + 2))
        return -v if k % 2 else v

    def gamma_m(self, m: int) -> CycNum:
        """gamma_m = (-A)^((m^2+5m)/2) / prod_{k=1}^m (A^(2k+1) - 1).

        Integral (checked at construction) and in fact a unit of Z[zeta_p].
        """
        if not 0 <= m <= self.ctx.d - 1:
            raise ValueError(f"gamma_m needs 0 <= m <= {self.ctx.d - 1}, got {m}")
        return self._gamma[m]


@lru_cache(maxsize=None)
def scalars(ctx: PrimeContext) -> QScalars:
    """The shared QScalars instance for a context."""
    return QScalars(ctx)
