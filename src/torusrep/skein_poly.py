"""Polynomial model of the one-holed torus skein module.

The module for boundary color 2c is realized as the quotient of the
polynomial ring on the core-curve variable z by the relation
Q_{d-c, c}(z) = 0, where

    Q_{n,c}(z) = prod_{i=c}^{c+n-1} (z - lambda_i)

and {Q_{n,c} : 0 <= n <= d-c-1} is a basis.  Multiplication of basis
elements is governed by structure constants C^l_{m,n}, available both in
closed form (a ratio of quantum factorials) and through a division-free
recursion; the two are cross-checked against brute polynomial expansion.

Everything here is exact arithmetic in Z[zeta_p]; this module serves as the
independent oracle for the twist matrices built elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycNum, Factored, PrimeContext, dot, integral
from .qint import QScalars


def _poly_mul(a, b):
    ctx = a[0].ctx
    return tuple(
        dot(ctx, ((ai, b[k - i]) for i, ai in enumerate(a) if 0 <= k - i < len(b)))
        for k in range(len(a) + len(b) - 1)
    )


@lru_cache(maxsize=None)
def q_poly_monomial(qs: QScalars, n: int, c: int) -> tuple[CycNum, ...]:
    """Monomial coefficients (low degree first) of Q_{n,c}(z), monic of
    degree n.  Computation in the untruncated ring: any 0 <= n <= p goes."""
    if not 0 <= n <= qs.ctx.p:
        raise ValueError(f"need 0 <= n <= {qs.ctx.p}, got {n}")
    coeffs = (qs.ctx.one(),)
    for i in range(c, c + n):
        coeffs = _poly_mul(coeffs, (-qs.lambda_i(i), qs.ctx.one()))
    return coeffs


def _assemble_from_Qc(qs: QScalars, coeffs, c: int) -> tuple[CycNum, ...]:
    """The monomial-basis polynomial sum_n coeffs[n] * Q_{n,c}(z).  Q_{n,c}
    has degree n, so coefficient i is one dot over the terms n >= i."""
    basis = [q_poly_monomial(qs, n, c) for n in range(len(coeffs))]
    return tuple(
        dot(qs.ctx, ((x, q[i]) for x, q in zip(coeffs[i:], basis[i:])))
        for i in range(len(coeffs))
    )


def expand_in_Qc(qs: QScalars, poly, c: int) -> tuple[CycNum, ...]:
    """Re-express a monomial-basis polynomial in the basis {Q_{n,c}}_{n>=0}.

    Synthetic division by (z - lambda_c), (z - lambda_{c+1}), ... peels off
    one coefficient per stage; exact inverse of assembling from
    q_poly_monomial.
    """
    coeffs = list(poly)
    if not coeffs:
        raise ValueError("need at least the constant coefficient")
    out = []
    stage = 0
    while len(coeffs) > 1:
        r = qs.lambda_i(c + stage)
        deg = len(coeffs) - 1
        quot = [None] * deg
        quot[deg - 1] = coeffs[deg]
        for j in range(deg - 1, 0, -1):
            quot[j - 1] = coeffs[j] + r * quot[j]
        out.append(coeffs[0] + r * quot[0])
        coeffs = quot
        stage += 1
    out.append(coeffs[0])
    return tuple(out)


@dataclass(frozen=True)
class QPoly:
    """An element of the rank-(d-c) quotient module, as coefficients over
    the basis Q_{0,c}, ..., Q_{d-c-1,c}."""

    ctx: PrimeContext
    c: int
    coeffs: tuple[CycNum, ...]

    def __post_init__(self):
        rank = self.ctx.rank(self.c)
        if len(self.coeffs) != rank:
            raise ValueError(f"need {rank} coefficients")

    @classmethod
    def unit(cls, ctx: PrimeContext, c: int, n: int) -> "QPoly":
        rank = ctx.rank(c)
        if not 0 <= n < rank:
            raise ValueError(f"need 0 <= n <= {rank - 1}, got {n}")
        return cls(ctx, c, tuple(ctx.one() if i == n else ctx.zero() for i in range(rank)))


def multiply_mod(qs: QScalars, x: QPoly, y) -> QPoly:
    """Multiply x by a monomial-basis polynomial y inside the quotient:
    expand the product over {Q_{n,c}} and discard every Q_{n,c} with
    n >= d-c (those vanish in the module).  x is first assembled into one
    monomial-basis polynomial, so there is a single product."""
    ctx, c = x.ctx, x.c
    rank = ctx.rank(c)
    prod = _poly_mul(_assemble_from_Qc(qs, x.coeffs, c), tuple(y))
    expanded = expand_in_Qc(qs, prod, c)
    kept = list(expanded[:rank]) + [ctx.zero()] * (rank - min(rank, len(expanded)))
    return QPoly(ctx, c, tuple(kept))


def C_factors(qs: QScalars, l: int, m: int, n: int) -> Factored:
    """Structure constant C^l_{m,n} = (-1)^l {m}!{n}!{m+n+1}! /
    ({m-l}!{n-l}!{m+n+1-l}!{l}!) as one factor list.

    The three length-l falling slices of brackets over {l}! -- same value,
    but no intermediate quotient, so the boundary cases where a full
    factorial vanishes stay well defined.
    """
    if not (0 <= l <= min(m, n)) or m >= qs.ctx.p or n >= qs.ctx.p:
        raise ValueError(f"C^{l}_({m},{n}) out of range for p={qs.ctx.p}")
    slices = math.prod(
        (qs.brace_factors(j) for top in (m, n, m + n + 1) for j in range(top - l + 1, top + 1)),
        start=Factored(),
    )
    return Factored(sign=(-1) ** l) * slices / qs.brace_fact_factors(l)


@lru_cache(maxsize=None)
def C_closed(qs: QScalars, l: int, m: int, n: int) -> CycNum:
    """C^l_{m,n} in Z[zeta_p], from its factor list C_factors."""
    return integral(qs.ctx.one(), C_factors(qs, l, m, n), f"C^{l}_({m},{n})")


def C_recursive(qs: QScalars, l: int, m: int, n: int) -> CycNum:
    """C^l_{m,n} by the division-free recursion on n, with
    beta_{a,b} = lambda_a - lambda_b:

        C^0_{m,n}     = 1
        C^l_{m,n+1}   = C^l_{m,n} + beta_{m+n-l+1, n} * C^{l-1}_{m,n}
        C^{n+1}_{m,n+1} = beta_{m,n} * C^n_{m,n}

    (the top case is the middle one with the vanishing C^{n+1}_{m,n} term).
    """
    if not (0 <= l <= min(m, n)) or m >= qs.ctx.p or n >= qs.ctx.p:
        raise ValueError(f"C^{l}_({m},{n}) out of range for p={qs.ctx.p}")
    memo = {}

    def rec(lv, nv):
        if lv == 0:
            return qs.ctx.one()
        if lv > nv:
            return qs.ctx.zero()
        key = (lv, nv)
        if key not in memo:
            beta = qs.lambda_i(m + nv - lv) - qs.lambda_i(nv - 1)
            memo[key] = rec(lv, nv - 1) + beta * rec(lv - 1, nv - 1)
        return memo[key]

    return rec(l, n)


def verify_product_expansion(qs: QScalars, m: int, n: int, c: int) -> bool:
    """Check the product identity

        Q_m(z) * Q_{n,c}(z) = sum_{l=0}^{min(m,n+c)} C^l_{m,n+c} * Q_{m+n-l,c}(z)

    as exact polynomials (no quotient truncation); needs m + n + c < p."""
    if m < 0 or n < 0 or c < 0 or m + n + c >= qs.ctx.p:
        raise ValueError("need m, n, c >= 0 with m + n + c < p")
    lhs = _poly_mul(q_poly_monomial(qs, m, 0), q_poly_monomial(qs, n, c))
    got = expand_in_Qc(qs, lhs, c)
    want = [qs.ctx.zero()] * (m + n + 1)
    for l in range(0, min(m, n + c) + 1):
        want[m + n - l] = C_closed(qs, l, m, n + c)
    return list(got) == want


def omega_plus_coeffs(qs: QScalars) -> tuple[CycNum, ...]:
    """Coefficients of the positive-twist element omega_+ over the
    orthogonal basis Q'_m = Q_m/{m}!: exactly (gamma_0, ..., gamma_{d-1})."""
    return tuple(qs.gamma_m(m) for m in range(qs.ctx.d))


def omega_plus_unprimed(qs: QScalars) -> tuple[CycNum, ...]:
    """D * omega_+ over the plain basis Q_m, with D = {d-1}!: coefficient m
    is gamma_m * D/{m}! = gamma_m * {m+1}{m+2}...{d-1}.  omega_+ itself has
    the non-integral coefficients gamma_m/{m}!; the scale keeps it in
    Z[zeta_p], and users divide D out once at the end."""
    out, tail = [], qs.ctx.one()
    for m in range(qs.ctx.d - 1, -1, -1):
        out.append(qs.gamma_m(m) * tail)
        tail = tail * qs.brace(m)
    return tuple(reversed(out))


def omega_plus_poly(qs: QScalars) -> tuple[CycNum, ...]:
    """D * omega_+ as a monomial-basis polynomial in z, degree d-1, with
    D = {d-1}! as in omega_plus_unprimed."""
    return _assemble_from_Qc(qs, omega_plus_unprimed(qs), 0)
