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

Every bracket is a unit times factors 1 - zeta^k, each an associate of h
(or 0, when p | k).  With s = d+1, so that zeta^s = -A squares to q,

    {n}      = -zeta^(-ns) (1 - zeta^n)
    {n}+     =  zeta^(-ns) (1 - zeta^(2n)) / (1 - zeta^n)     (p not | n)
    {n}_q    = -zeta^(-n)  (1 - zeta^(2n))
    A^j - 1  = -(1 - zeta^j) / (1 - zeta^(js))                (j odd, p not | j)

The *_factors methods give these, the factorials built from them and gamma_m
as Factored values, so a closed form in brackets is one factor list,
evaluated by one integral call at O(p) per factor.  The CycNum factorials
brace_fact, ... are the plain products of the brackets, the oracle the
factor lists are tested against.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import CycNum, Factored, PrimeContext, integral


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
        return self._product(self.brace, n, step=1)

    def brace_plus_fact(self, n: int) -> CycNum:
        """{n}+! = {n}+{n-1}+...{1}+."""
        return self._product(self.brace_plus, n, step=1)

    def brace_q_fact(self, n: int) -> CycNum:
        """{n}_q! = {n}_q{n-1}_q...{1}_q."""
        return self._product(self.brace_q, n, step=1)

    def brace_dfact(self, n: int) -> CycNum:
        """{n}!! = {n}{n-2}..., ending in {2} or {1}."""
        return self._product(self.brace, n, step=2)

    def brace_plus_dfact(self, n: int) -> CycNum:
        """{n}+!! = {n}+{n-2}+..., ending in {2}+ or {1}+."""
        return self._product(self.brace_plus, n, step=2)

    def _product(self, term, n, step):
        if n < 0:
            return self.ctx.zero()
        acc = self.ctx.one()
        for k in range(n, 0, -step):
            acc = acc * term(k)
        return acc

    # The brackets as Factored values (see the module docstring).

    def brace_factors(self, n: int) -> Factored:
        """{n} = -zeta^(-n(d+1)) (1 - zeta^n), for every n."""
        return Factored(-1, -n * (self.ctx.d + 1), (n,))

    def brace_plus_factors(self, n: int) -> Factored:
        """{n}+ = zeta^(-n(d+1)) (1 - zeta^(2n)) / (1 - zeta^n), for p not
        dividing n ({p}+ = 2 is no unit times such factors)."""
        if n % self.ctx.p == 0:
            raise ValueError(f"{{n}}+ has no factor form for p | n, got n={n}")
        return Factored(1, -n * (self.ctx.d + 1), (2 * n,), (n,))

    def brace_q_factors(self, n: int) -> Factored:
        """{n}_q = -zeta^(-n) (1 - zeta^(2n)), for every n."""
        return Factored(-1, -n, (2 * n,))

    def A_pow_minus_one_factors(self, j: int) -> Factored:
        """A^j - 1 = -(1 - zeta^j) / (1 - zeta^(j(d+1))), for odd j prime to p."""
        if j % 2 == 0 or j % self.ctx.p == 0:
            raise ValueError(f"need odd j prime to p={self.ctx.p}, got j={j}")
        return Factored(-1, 0, (j,), (j * (self.ctx.d + 1),))

    def brace_fact_factors(self, n: int) -> Factored:
        """{n}! as one factor list."""
        return self._fact_factors(self.brace_factors, n, step=1)

    def brace_plus_fact_factors(self, n: int) -> Factored:
        """{n}+! as one factor list, for n < p."""
        return self._fact_factors(self.brace_plus_factors, n, step=1)

    def brace_q_fact_factors(self, n: int) -> Factored:
        """{n}_q! as one factor list."""
        return self._fact_factors(self.brace_q_factors, n, step=1)

    def brace_dfact_factors(self, n: int) -> Factored:
        """{n}!! as one factor list."""
        return self._fact_factors(self.brace_factors, n, step=2)

    @staticmethod
    def _fact_factors(term, n, step):
        if n < 0:
            return Factored(up=(0,))  # 1 - zeta^0 = 0, as for the CycNum factorials
        return math.prod((term(k) for k in range(n, 0, -step)), start=Factored())

    def gamma_factors(self, m: int) -> Factored:
        """gamma_m (see gamma_m) as one factor list."""
        if not 0 <= m <= self.ctx.d - 1:
            raise ValueError(f"gamma_m needs 0 <= m <= {self.ctx.d - 1}, got {m}")
        num = Factored(e=(m * (m + 5) // 2) * (self.ctx.d + 1))  # (-A)^((m^2+5m)/2)
        den = math.prod((self.A_pow_minus_one_factors(2 * k + 1) for k in range(1, m + 1)),
                        start=Factored())
        return num / den

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

        Integral (checked on each call) and in fact a unit of Z[zeta_p].
        """
        return integral(self.ctx.one(), self.gamma_factors(m), f"gamma_{m}")


@lru_cache(maxsize=None)
def scalars(ctx: PrimeContext) -> QScalars:
    """The shared QScalars instance for a context."""
    return QScalars(ctx)
