"""The mod-h representation over F_p and its SL(2,F_p) polynomial model.

Setting zeta -> 1 collapses Z[zeta_p] onto F_p and turns the twist matrices
into unipotent triangular integer matrices t-hat and t*-hat with closed-form
entries (signed ratios of factorials and odd double factorials).  Those are
computed here twice -- once by reducing the exact matrices, once from the
closed forms -- and any disagreement is treated as a hard failure.  Every
matrix here is a RepMatrix over the ring ModH (F_p); the functions that
build one reduce its entries to 0..p-1, and products stay reduced.

The same module carries the classical action of SL(2,F_p) on homogeneous
two-variable polynomials of degree D = d-c-1 (basis x^(D-n) y^n), the
diagonal change of basis Phi that intertwines it with (t-hat, t*-hat), a
Burnside-style irreducibility certificate, and the double-factorial
congruence used to normalize Phi.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .cyclotomic import ModH, PrimeContext
from .qint import scalars
from .rep import RepMatrix, t_matrix, tstar_matrix


def int_dfact(n: int) -> int:
    """n!! over the integers, with 0!! = (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _inv(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"no inverse of 0 mod {p}")
    return pow(x, p - 2, p)


def a_hat_entry(p: int, c: int, m: int, n: int) -> int:
    """Closed form for the reduced t entry (m, n), m <= n:
    (-1)^(n-m) (2c+2n+1)!! / ((n-m)! (2c+2m+1)!!) mod p."""
    if m > n:
        return 0
    val = int_dfact(2 * c + 2 * n + 1) * _inv(factorial(n - m) * int_dfact(2 * c + 2 * m + 1), p)
    if (n - m) % 2:
        val = -val
    return val % p


def b_hat_entry(p: int, m: int, n: int) -> int:
    """Closed form for the reduced t* entry (m, n), n <= m:
    (-2)^(n-m) binomial(m, n) mod p (negative exponent = modular inverse)."""
    if n > m:
        return 0
    return comb(m, n) * pow(_inv(-2, p), m - n, p) % p


@lru_cache(maxsize=None)
def rho0_matrices(ctx: PrimeContext, c: int) -> tuple[RepMatrix, RepMatrix]:
    """(t-hat, t*-hat) on the color-2c module.

    Computed both as the entrywise mod-h reduction of the exact matrices and
    from the closed forms above; a mismatch raises rather than being patched.
    """
    qs = scalars(ctx)
    p = ctx.p
    rank = ctx.rank(c)
    t_red = t_matrix(qs, c).reduce_mod_h()
    s_red = tstar_matrix(qs, c).reduce_mod_h()
    t_hat = RepMatrix(ModH(ctx), tuple(
        tuple(a_hat_entry(p, c, m, n) for n in range(rank)) for m in range(rank)
    ))
    s_hat = RepMatrix(ModH(ctx), tuple(
        tuple(b_hat_entry(p, m, n) for n in range(rank)) for m in range(rank)
    ))
    if t_red != t_hat or s_red != s_hat:
        raise ArithmeticError(
            f"mod-h reduction disagrees with closed forms at p={p}, c={c}"
        )
    return t_hat, s_hat


#: The SL(2,Z) generators whose images are t and t*.
SL2_T = ((1, 1), (0, 1))
SL2_TSTAR = ((1, 0), (-1, 1))


def poly_action(p: int, g, D: int) -> RepMatrix:
    """The matrix of g in SL(2,F_p) acting on homogeneous polynomials of
    degree D, basis x^(D-n) y^n:  g . x^m y^n = (ax+cy)^m (bx+dy)^n."""
    (a, b), (c, d) = g
    if D < 0:
        raise ValueError(f"need degree D >= 0, got {D}")
    if (a * d - b * c) % p != 1:
        raise ValueError("g must have determinant 1 mod p")
    size = D + 1
    cols = []
    for j in range(size):
        vec = [0] * size
        # (a x + c y)^(D-j) * (b x + d y)^j, collected by the power of y
        for r in range(D - j + 1):
            left = comb(D - j, r) * pow(a, D - j - r, p) * pow(c, r, p)
            for s in range(j + 1):
                right = comb(j, s) * pow(b, j - s, p) * pow(d, s, p)
                vec[r + s] = (vec[r + s] + left * right) % p
        cols.append(vec)
    return RepMatrix(ModH(PrimeContext(p)), tuple(
        tuple(cols[j][i] for j in range(size)) for i in range(size)
    ))


def phi_matrix(ctx: PrimeContext, c: int) -> RepMatrix:
    """The diagonal intertwiner from the polynomial basis to the Q' basis:
    entry n is (-1)^n n! / (2c+2n+1)!! mod p.  Always invertible."""
    p = ctx.p
    rank = ctx.rank(c)
    diag = []
    for n in range(rank):
        den = int_dfact(2 * c + 2 * n + 1) % p
        if den == 0:
            raise ArithmeticError(f"(2c+2n+1)!! vanished mod {p} at n={n}")
        val = factorial(n) * _inv(den, p)
        diag.append(-val % p if n % 2 else val % p)
    return RepMatrix(ModH(ctx), tuple(
        tuple(diag[i] if i == j else 0 for j in range(rank)) for i in range(rank)
    ))


def verify_intertwine(ctx: PrimeContext, c: int) -> bool:
    """True iff Phi carries the polynomial action of the SL(2) generators
    to (t-hat, t*-hat): Phi A_T = t-hat Phi and Phi A_T* = t*-hat Phi.
    This is the certificate that the mod-h representation factors through
    SL(2,F_p) and is isomorphic to the degree-D polynomial representation."""
    p = ctx.p
    D = ctx.d - c - 1
    t_hat, s_hat = rho0_matrices(ctx, c)
    phi = phi_matrix(ctx, c)
    action_t = poly_action(p, SL2_T, D)
    action_s = poly_action(p, SL2_TSTAR, D)
    return phi @ action_t == t_hat @ phi and phi @ action_s == s_hat @ phi


def irreducibility_check(ctx: PrimeContext, c: int) -> bool:
    """Burnside certificate: the unital algebra generated by t-hat and
    t*-hat spans all (d-c) x (d-c) matrices over F_p."""
    p = ctx.p
    t_hat, s_hat = rho0_matrices(ctx, c)
    size = t_hat.size
    target = size * size

    basis: list[tuple[int, list[int]]] = []  # (pivot index, reduced row)

    def insert(vec) -> bool:
        v = list(vec)
        for piv, row in basis:
            if v[piv]:
                f = v[piv]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        for i, x in enumerate(v):
            if x:
                inv = pow(x, p - 2, p)
                v = [(inv * y) % p for y in v]
                for piv, row in basis:
                    if row[i]:
                        f = row[i]
                        row[:] = [(x0 - f * y0) % p for x0, y0 in zip(row, v)]
                basis.append((i, v))
                return True
        return False

    def flatten(M):
        return [e for row in M.entries for e in row]

    frontier = [RepMatrix.identity(t_hat.ring, c)]
    insert(flatten(frontier[0]))
    while frontier and len(basis) < target:
        M = frontier.pop()
        for G in (t_hat, s_hat):
            P = M @ G
            if insert(flatten(P)):
                frontier.append(P)
    return len(basis) == target


def u_lemma_check(p: int) -> bool:
    """The double-factorial congruence behind the normalization of Phi:
    (-2)^(-k) (d-k-1)! (2k+1)!! = (d-1)!  mod p,  for 0 <= k <= d-1."""
    ctx = PrimeContext(p)  # validates primality
    d = ctx.d
    rhs = factorial(d - 1) % p
    inv_m2 = _inv(-2, p)
    return all(
        pow(inv_m2, k, p) * factorial(d - k - 1) * int_dfact(2 * k + 1) % p == rhs
        for k in range(d)
    )
