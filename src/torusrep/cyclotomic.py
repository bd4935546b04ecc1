"""Exact arithmetic in the ring of integers Z[zeta_p].

Values are integer coefficient vectors over the power basis 1, zeta, ...,
zeta^(p-2), kept canonical through the relation
zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  Equality is coefficientwise.
Z[zeta_p] is the full ring of integers of Q(zeta_p), and every object of the
package lives in it, so no denominators are ever carried.

The element h = 1 - zeta generates the unique prime ideal above p, with
(h)^(p-1) = (p), and every 1 - zeta^k with p not dividing k is an associate
of h.  Division takes one of two routes:

- mul_factored multiplies by a Factored, a unit +-zeta^e times a ratio of
  such factors 1 - zeta^k, at O(p) integer operations per factor.  Every
  quantum bracket has this form, so every closed form of the package is
  one factor list, evaluated by integral (mul_factored with the check that
  the value is integral); so is the division by h behind the h-adic
  valuations and the truncated digit expansions: the finite rings
  Z[zeta_p]/(h^(N+1)), whose N = 0 layer is the field F_p via zeta -> 1.
- exact_div divides by any nonzero y through the Galois norm: y times the
  product of its other conjugates sigma_k(y), each a permutation of
  coefficients, is the integer N(y), so x/y is x times that cofactor divided
  by N(y), and exists exactly when every coefficient is divisible.  It is
  the general division (unit inverses, associates) and the test oracle of
  the factored route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeContext:
    """An odd prime p >= 5; d = (p-1)/2 is the number of admissible colors."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p) or self.p < 5:
            raise ValueError(f"p must be an odd prime >= 5, got {self.p}")

    @property
    def d(self) -> int:
        return (self.p - 1) // 2

    def rank(self, c: int) -> int:
        """d - c, the rank of the module with boundary color 2c; the one
        check of the range 0 <= c <= d-1."""
        if not 0 <= c <= self.d - 1:
            raise ValueError(f"need 0 <= c <= {self.d - 1} for p={self.p}, got c={c}")
        return self.d - c

    def zero(self) -> "CycNum":
        return CycNum(self, (0,) * (self.p - 1))

    def one(self) -> "CycNum":
        return self.from_int(1)

    def from_int(self, n: int) -> "CycNum":
        return CycNum(self, (n,) + (0,) * (self.p - 2))

    def zeta_pow(self, k: int) -> "CycNum":
        """zeta^k as a canonical basis vector (k may be any integer)."""
        k %= self.p
        if k < self.p - 1:
            nums = tuple(1 if i == k else 0 for i in range(self.p - 1))
        else:
            nums = (-1,) * (self.p - 1)
        return CycNum(self, nums)

    @property
    def h(self) -> "CycNum":
        """h = 1 - zeta, a generator of the prime ideal above p."""
        return self.one() - self.zeta_pow(1)

    def product(self, a, b):
        """The product of two square matrices over Z[zeta_p], given as rows
        of CycNum entries; each entry is one dot of a row with a column."""
        cols = tuple(zip(*b))
        return tuple(tuple(dot(self, zip(row, col)) for col in cols) for row in a)


class CycNum:
    """An element of Z[zeta_p], stored as integer coefficients over the power
    basis.  Instances are immutable and hashable."""

    __slots__ = ("ctx", "nums")

    def __init__(self, ctx: PrimeContext, nums):
        nums = tuple(map(index, nums))  # TypeError for a non-integer coefficient
        if len(nums) != ctx.p - 1:
            raise ValueError(f"need {ctx.p - 1} coefficients, got {len(nums)}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        elif not isinstance(other, CycNum):
            return NotImplemented
        # unequal, not an error, across rings: their int-valued elements share hashes
        return self.ctx == other.ctx and self.nums == other.nums

    def __hash__(self):
        # an element equal to an int (nums[1:] all 0) hashes like that int
        return hash(self.nums if any(self.nums[1:]) else self.nums[0])

    def __neg__(self) -> "CycNum":
        return CycNum(self.ctx, tuple(-n for n in self.nums))

    def __add__(self, other) -> "CycNum":
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.ctx, tuple(x + y for x, y in zip(self.nums, other.nums)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "CycNum":
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return dot(self.ctx, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            inv = exact_div(self.ctx.one(), self)
            if inv is None:
                raise ValueError(f"{self!r} is not a unit of Z[zeta_p]")
            return inv ** (-k)
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        terms = [f"{n}" if i == 0 else f"{n}*z^{i}" for i, n in enumerate(self.nums) if n]
        body = " + ".join(terms) if terms else "0"
        return f"CycNum(p={self.ctx.p}: {body})"


def _coerce(ctx: PrimeContext, value):
    if isinstance(value, CycNum):
        if value.ctx != ctx:
            raise ValueError("mixed prime contexts")
        return value
    if isinstance(value, int):
        return ctx.from_int(value)
    return NotImplemented


def _fold(ctx: PrimeContext, acc) -> CycNum:
    """The element with the p coefficients acc over 1, zeta, ..., zeta^(p-1):
    eliminate zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    top = acc[-1]
    return CycNum(ctx, tuple(a - top for a in acc[:-1]))


def dot(ctx: PrimeContext, pairs) -> CycNum:
    """The sum of x * y over pairs of CycNum values, every product convolved
    into one unreduced list with exponents mod p (zeta^p = 1) and reduced
    once: the one place where coefficients of two elements are multiplied."""
    p = ctx.p
    acc = [0] * p
    for x, y in pairs:
        b = [(j, bj) for j, bj in enumerate(y.nums) if bj]
        for i, ai in enumerate(x.nums):
            if ai:
                for j, bj in b:
                    acc[(i + j) % p] += ai * bj
    return _fold(ctx, acc)


def _conjugate(y: CycNum, k: int) -> CycNum:
    """sigma_k(y), the image of y under zeta -> zeta^k (k prime to p): a
    permutation of the p coefficients of the unreduced form."""
    p = y.ctx.p
    acc = [0] * p
    for i, a in enumerate(y.nums):
        acc[i * k % p] = a
    return _fold(y.ctx, acc)


@lru_cache(maxsize=None)
def _cofactor(y: CycNum) -> tuple[CycNum, int]:
    """(c, N(y)) with c = prod_{k=2}^{p-1} sigma_k(y), so y * c = N(y), the
    Galois norm: a positive integer, as the field is totally complex."""
    c = y.ctx.one()
    for k in range(2, y.ctx.p):
        c = c * _conjugate(y, k)
    return c, (y * c).nums[0]


def exact_div(x: CycNum, y: CycNum) -> CycNum | None:
    """x / y when the quotient lies in Z[zeta_p]; None when y does not
    divide x there.  Division by zero raises, it is not a missing quotient."""
    if not y:
        raise ZeroDivisionError("exact_div by zero")
    c, norm = _cofactor(y)
    quot = []
    for n in (x * c).nums:
        q, r = divmod(n, norm)
        if r:
            return None
        quot.append(q)
    return CycNum(x.ctx, quot)


class Factored:
    """sign * zeta^e * prod_{k in up}(1 - zeta^k) / prod_{k in down}(1 - zeta^k),
    an element of Q(zeta_p) kept as its factors for any p.  A factor with
    p | k is 0, so one in up makes the value 0 and one in down has no value.
    Products and quotients only concatenate the lists."""

    __slots__ = ("sign", "e", "up", "down")

    def __init__(self, sign: int = 1, e: int = 0, up: tuple[int, ...] = (),
                 down: tuple[int, ...] = ()):
        self.sign, self.e, self.up, self.down = sign, e, up, down

    def __mul__(self, other: "Factored") -> "Factored":
        return Factored(self.sign * other.sign, self.e + other.e,
                        self.up + other.up, self.down + other.down)

    def __truediv__(self, other: "Factored") -> "Factored":
        return Factored(self.sign * other.sign, self.e - other.e,
                        self.up + other.down, self.down + other.up)


def mul_factored(x: CycNum, f: Factored) -> CycNum | None:
    """x * f when that lies in Z[zeta_p]; None when it does not.

    Works on the p coefficients of x over 1, zeta, ..., zeta^(p-1), where
    multiplying by 1 - zeta^k is y_j = x_j - x_(j-k).  Dividing by it needs
    p | s, s the coefficient sum (the test h | x), and walks the cycle
    j -> j+k once with y_(j+k) = y_j + x_(j+k) - s/p.  Every factor costs
    O(p); the list is reduced once at the end.  All multiplications come
    first: each 1 - zeta^k is an associate of h, so every division on the
    way is exact when the whole quotient is.  A divisor factor with p | k
    raises ZeroDivisionError; it is never cancelled against the numerator.
    """
    p = x.ctx.p
    net = [0] * p  # multiplicity of 1 - zeta^k, k mod p, after cancelling
    for k in f.down:
        if k % p == 0:
            raise ZeroDivisionError("divisor factor 1 - zeta^0 = 0")
        net[k % p] -= 1
    for k in f.up:
        net[k % p] += 1
    e = f.e % p
    acc = [0] * p
    for i, a in enumerate(x.nums):
        acc[(i + e) % p] = f.sign * a
    for k, n in enumerate(net):
        for _ in range(n):
            acc = [a - b for a, b in zip(acc, acc[-k:] + acc[:-k])]
    for k, n in enumerate(net):
        if n < 0:
            cycle = [i * k % p for i in range(1, p)]
        for _ in range(-n):
            s, r = divmod(sum(acc), p)
            if r:
                return None
            y, run = [0] * p, 0
            for j in cycle:
                run += acc[j] - s
                y[j] = run
            acc = y
    return _fold(x.ctx, acc)


def integral(x: CycNum, f: Factored, what: str) -> CycNum:
    """x * f, which the caller knows lies in Z[zeta_p] (every closed form of
    the package is integral); ArithmeticError naming what when it does not."""
    val = mul_factored(x, f)
    if val is None:
        raise ArithmeticError(f"{what} is not integral at p={x.ctx.p}")
    return val


#: 1/h = 1/(1 - zeta), the division of the h-adic digit expansions
_OVER_H = Factored(down=(1,))


def h_valuation(x: CycNum):
    """The h-adic valuation of x (math.inf for 0).

    Well defined because h generates a prime ideal; computed by repeated
    division by h, which terminates since (h^(p-1)) = (p).
    """
    if not x:
        return math.inf
    v = 0
    x = mul_factored(x, _OVER_H)
    while x is not None:
        v += 1
        x = mul_factored(x, _OVER_H)
    return v


def is_associate(x: CycNum, y: CycNum) -> bool:
    """True when x and y generate the same ideal of Z[zeta_p] (x = u*y, u a
    unit).  0 is an associate of 0 only."""
    if not x or not y:
        return not x and not y
    return exact_div(x, y) is not None and exact_div(y, x) is not None


def reduce_mod_h(x: CycNum) -> int:
    """The image of x in Z[zeta_p]/(h) = F_p (zeta -> 1)."""
    return sum(x.nums) % x.ctx.p


@dataclass(frozen=True)
class HDigits:
    """A truncated h-adic expansion d_0 + d_1*h + ... + d_N*h^N with digits
    in {0, ..., p-1}; the elements of Z[zeta_p]/(h^(N+1)) in canonical form."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits:
            raise ValueError("need at least the mod-h digit")
        if any(not (0 <= di < self.p) for di in self.digits):
            raise ValueError("digits must lie in {0, ..., p-1}")

    @property
    def N(self) -> int:
        return len(self.digits) - 1

    def __bool__(self) -> bool:
        return any(self.digits)

    def lift(self, ctx: PrimeContext | None = None) -> CycNum:
        """The canonical integral representative sum(d_i * h^i)."""
        if ctx is None:
            ctx = PrimeContext(self.p)
        if ctx.p != self.p:
            raise ValueError(f"digits mod h for p={self.p}, lifted to p={ctx.p}")
        h = ctx.h
        acc, hpow = ctx.zero(), ctx.one()
        for di in self.digits:
            acc = acc + ctx.from_int(di) * hpow
            hpow = hpow * h
        return acc

    def _binop(self, other, op):
        if not isinstance(other, HDigits):
            return NotImplemented
        if self.p != other.p or self.N != other.N:
            raise ValueError("mismatched modulus h^(N+1)")
        return truncate(op(self.lift(), other.lift()), self.N)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)


def truncate(x: CycNum, N: int) -> HDigits:
    """The h-adic digits of x through h^N.

    Digit extraction peels one layer at a time: d_0 is the mod-h reduction,
    and x - d_0 is then exactly divisible by h.  Truncation at every level N
    is a ring homomorphism onto Z[zeta_p]/(h^(N+1)).
    """
    if N < 0:
        raise ValueError("truncation order must be >= 0")
    digits = []
    for _ in range(N + 1):
        d = reduce_mod_h(x)
        digits.append(d)
        x = integral(x - d, _OVER_H, "(x - (x mod h))/h")
    return HDigits(x.ctx.p, tuple(digits))


@dataclass(frozen=True)
class Truncation:
    """The ring Z[zeta_p]/(h^(N+1)), whose elements are HDigits with N+1
    digits; a matrix product lifts to Z[zeta_p] and truncates once per entry."""

    ctx: PrimeContext
    N: int

    def zero(self) -> HDigits:
        return HDigits(self.ctx.p, (0,) * (self.N + 1))

    def one(self) -> HDigits:
        return HDigits(self.ctx.p, (1,) + (0,) * self.N)

    def rank(self, c: int) -> int:
        return self.ctx.rank(c)

    def product(self, a, b):
        lift = lambda m: [[e.lift(self.ctx) for e in row] for row in m]
        return tuple(
            tuple(truncate(e, self.N) for e in row)
            for row in self.ctx.product(lift(a), lift(b))
        )


@dataclass(frozen=True)
class ModH:
    """The field Z[zeta_p]/(h) = F_p, whose elements are ints in 0..p-1."""

    ctx: PrimeContext

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def rank(self, c: int) -> int:
        return self.ctx.rank(c)

    def product(self, a, b):
        p = self.ctx.p
        cols = tuple(zip(*b))
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
            for row in a
        )
