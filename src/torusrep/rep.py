"""Twist matrices on the one-holed torus module, exactly over Z[zeta_p].

The module for boundary color 2c has the orthogonal basis
Q'_n = Q_{n,c}/{n}!, n = 0..d-c-1.  The meridinal twist t acts upper
triangularly and the longitudinal twist t* lower triangularly:

    t(Q'_n)  = sum_m a_{m,n} Q'_m      (matrix entry (m, n) = a_{m,n})
    t*(Q'_m) = sum_n b_{n,m} Q'_n      (matrix entry (n, m) = b_{n,m})

with row index always written first.  The entries come in two independent
ways: sums of quantum-factorial factor lists (b_entry, and a_entry = R b),
and multiplication by the twist element omega_+ in the polynomial model
(tstar_oracle).  Both land in Z[zeta_p].

RepMatrix is the one matrix type, over any of the three rings of the
representation: Z[zeta_p], its h-adic truncations Z[zeta_p]/(h^(N+1)) (the
finite-level representations) and F_p = Z[zeta_p]/(h) (the mod-h layer of
fp_rep).  Truncation and reduction mod h are entrywise ring maps that
commute with products, so word values may be computed exactly and
truncated at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import (
    CycNum,
    Factored,
    ModH,
    PrimeContext,
    Truncation,
    dot,
    exact_div,
    integral,
    reduce_mod_h,
    truncate,
)
from .qint import QScalars
from .skein_poly import C_factors, QPoly, multiply_mod, omega_plus_poly


@dataclass(frozen=True)
class RepMatrix:
    """A square matrix over one of the three rings of the representation:
    Z[zeta_p] (ring a PrimeContext, CycNum entries), Z[zeta_p]/(h^(N+1))
    (a Truncation, HDigits entries) or F_p (a ModH, ints in 0..p-1).

    Immutable.  The ring supplies zero(), one(), rank(c) and the matrix
    product; products and powers stay in the ring, and only an exact matrix
    has inverses.
    """

    ring: object
    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, ring, c: int) -> "RepMatrix":
        """The identity on the module with boundary color 2c."""
        return cls._identity(ring, ring.rank(c))

    @classmethod
    def _identity(cls, ring, n: int) -> "RepMatrix":
        one, zero = ring.one(), ring.zero()
        return cls(ring, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "RepMatrix") -> "RepMatrix":
        if self.ring != other.ring or self.size != other.size:
            raise ValueError("matrices over different rings or of different sizes")
        return RepMatrix(self.ring, self.ring.product(self.entries, other.entries))

    def __pow__(self, k: int) -> "RepMatrix":
        if k < 0:
            return invert(self) ** (-k)
        result = RepMatrix._identity(self.ring, self.size)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def _map(self, ring, f) -> "RepMatrix":
        """The matrix over ring with entries f(e)."""
        return RepMatrix(ring, tuple(tuple(f(e) for e in row) for row in self.entries))

    def scale(self, s) -> "RepMatrix":
        return self._map(self.ring, lambda e: e * s)

    def truncate(self, N: int) -> "RepMatrix":
        """Entrywise image of an exact matrix in Z[zeta_p]/(h^(N+1))."""
        return self._map(Truncation(self.ring, N), lambda e: truncate(e, N))

    def reduce_mod_h(self) -> "RepMatrix":
        """Entrywise image of an exact matrix in F_p (zeta -> 1)."""
        return self._map(ModH(self.ring), reduce_mod_h)

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(self.size))

    def is_upper_triangular(self) -> bool:
        return all(
            not self.entries[i][j] for i in range(self.size) for j in range(i)
        )

    def is_lower_triangular(self) -> bool:
        return all(
            not self.entries[i][j]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def transpose(self) -> "RepMatrix":
        return RepMatrix(self.ring, tuple(zip(*self.entries)))

    def __repr__(self):
        body = ",\n  ".join(repr(list(row)) for row in self.entries)
        return f"RepMatrix({self.ring!r},\n  {body})"


def _check_indices(qs: QScalars, c: int, *indices: int) -> None:
    """ValueError unless c is a color and every index lies in 0..d-c-1."""
    rank = qs.ctx.rank(c)
    if not all(0 <= i < rank for i in indices):
        raise ValueError(f"need indices in 0..{rank - 1}, got {indices}")


def norm_Qprime(qs: QScalars, n: int, c: int) -> CycNum:
    """The self-pairing of Q'_n on the module with boundary color 2c:

    q^(-c(c+1)/2) * {2c+2n+1}!! * {2c+n+1}+! / {n}! * ({c}_q!)^2 / ({1}_q {2c}_q!)

    Integral, with h-adic valuation exactly c."""
    _check_indices(qs, c, n)
    cq = qs.brace_q_fact_factors(c)
    num = (
        Factored(e=-(c * (c + 1)) // 2)
        * qs.brace_dfact_factors(2 * c + 2 * n + 1)
        * qs.brace_plus_fact_factors(2 * c + n + 1)
        * cq * cq
    )
    den = qs.brace_fact_factors(n) * qs.brace_q_factors(1) * qs.brace_q_fact_factors(2 * c)
    return integral(qs.ctx.one(), num / den, f"norm of Q'_{n} (c={c})")


def norm_Q(qs: QScalars, n: int, c: int) -> CycNum:
    """The self-pairing of the unprimed Q_n = {n}! Q'_n, from its own
    closed form (not derived from norm_Qprime, so the two can be compared):

    q^(-c(c+1)/2) * {n}! * {2c+2n+1}!! * {2c+n+1}+! * ({c}_q!)^2 / ({1}_q {2c}_q!)
    """
    _check_indices(qs, c, n)
    cq = qs.brace_q_fact_factors(c)
    num = (
        Factored(e=-(c * (c + 1)) // 2)
        * qs.brace_fact_factors(n)
        * qs.brace_dfact_factors(2 * c + 2 * n + 1)
        * qs.brace_plus_fact_factors(2 * c + n + 1)
        * cq * cq
    )
    den = qs.brace_q_factors(1) * qs.brace_q_fact_factors(2 * c)
    return integral(qs.ctx.one(), num / den, f"norm of Q_{n} (c={c})")


def _R_factors(qs: QScalars, n: int, m: int, c: int) -> Factored:
    """R_{n,m} (see ratio_R) as one factor list."""
    num = (qs.brace_fact_factors(m) * qs.brace_dfact_factors(2 * c + 2 * n + 1)
           * qs.brace_plus_fact_factors(2 * c + n + 1))
    den = (qs.brace_fact_factors(n) * qs.brace_dfact_factors(2 * c + 2 * m + 1)
           * qs.brace_plus_fact_factors(2 * c + m + 1))
    return num / den


def ratio_R(qs: QScalars, n: int, m: int, c: int) -> CycNum:
    """R_{n,m} = {m}!{2c+2n+1}!!{2c+n+1}+! / ({n}!{2c+2m+1}!!{2c+m+1}+!),
    the unit relating adjoint entries: a_{m,n} = R_{n,m} b_{n,m}.  Equals
    norm_Qprime(n,c)/norm_Qprime(m,c)."""
    _check_indices(qs, c, n, m)
    return integral(qs.ctx.one(), _R_factors(qs, n, m, c), f"R_({n},{m}) (c={c})")


def b_term(qs: QScalars, n: int, m: int, l: int, c: int) -> CycNum:
    """Summand l of the t* entry b_{n,m}, with M = l+n-m:

        C^l_{M, m+c} * gamma_M / {M}! * {n}!/{m}!

    One factor list; integral, with h-adic valuation exactly l."""
    if not (0 <= m <= n < qs.ctx.rank(c) and 0 <= l <= m + c):
        raise ValueError("need 0 <= m <= n <= d-c-1 and 0 <= l <= m+c")
    M = l + n - m
    f = qs.brace_fact_factors
    terms = C_factors(qs, l, M, m + c) * qs.gamma_factors(M) * f(n) / (f(M) * f(m))
    return integral(qs.ctx.one(), terms, f"b-term (n={n},m={m},l={l},c={c})")


@lru_cache(maxsize=None)
def b_entry(qs: QScalars, n: int, m: int, c: int) -> CycNum:
    """Entry (n, m) of the t* matrix; zero above the diagonal (m > n)."""
    _check_indices(qs, c, n, m)
    if m > n:
        return qs.ctx.zero()
    return sum((b_term(qs, n, m, l, c) for l in range(m + c + 1)), qs.ctx.zero())


def a_entry(qs: QScalars, m: int, n: int, c: int) -> CycNum:
    """Entry (m, n) of the t matrix: R_{n,m} * b_{n,m}; zero for m > n."""
    b = b_entry(qs, n, m, c)  # checks c and both indices
    if m > n:
        return b
    return integral(b, _R_factors(qs, n, m, c), f"a_({m},{n}) (c={c})")


@lru_cache(maxsize=None)
def t_matrix(qs: QScalars, c: int) -> RepMatrix:
    """The meridinal twist on the color-2c module (upper triangular)."""
    rank = qs.ctx.rank(c)
    return RepMatrix(qs.ctx, tuple(
        tuple(a_entry(qs, m, n, c) for n in range(rank)) for m in range(rank)
    ))


@lru_cache(maxsize=None)
def tstar_matrix(qs: QScalars, c: int) -> RepMatrix:
    """The longitudinal twist on the color-2c module (lower triangular)."""
    rank = qs.ctx.rank(c)
    return RepMatrix(qs.ctx, tuple(
        tuple(b_entry(qs, n, m, c) for m in range(rank)) for n in range(rank)
    ))


@lru_cache(maxsize=None)
def tstar_oracle(qs: QScalars, c: int) -> RepMatrix:
    """t* computed the other way: as multiplication by omega_+ in the
    polynomial quotient model, rescaled from the Q basis to the Q' basis.
    Shares no formulas with b_entry, so entrywise agreement with
    tstar_matrix cross-validates both routes."""
    ctx = qs.ctx
    rank = ctx.rank(c)
    omega = omega_plus_poly(qs)  # D * omega_+, D = {d-1}!
    f = qs.brace_fact_factors
    cols = []
    for m in range(rank):
        image = multiply_mod(qs, QPoly.unit(ctx, c, m), omega)
        # t*(Q'_m) = (Q_{m,c} * omega_+)/{m}! = sum_n coeff_n {n}!/({m}! D) Q'_n
        den = f(m) * f(ctx.d - 1)
        cols.append([integral(image.coeffs[n], f(n) / den, f"t* oracle entry ({n},{m}) (c={c})")
                     for n in range(rank)])
    return RepMatrix(ctx, cols).transpose()


def invert(M: RepMatrix) -> RepMatrix:
    """Exact inverse of a triangular matrix over Z[zeta_p] whose diagonal
    entries are units, by back substitution with one dot per entry."""
    if not isinstance(M.ring, PrimeContext):
        raise ValueError("only a matrix over Z[zeta_p] is inverted")
    if M.is_lower_triangular() and not M.is_upper_triangular():
        return invert(M.transpose()).transpose()
    if not M.is_upper_triangular():
        raise ValueError("matrix is not triangular")
    ctx, n = M.ring, M.size
    one, zero = ctx.one(), ctx.zero()
    dinv = []
    for i in range(n):
        q = exact_div(one, M.entries[i][i])
        if q is None:
            raise ValueError(f"diagonal entry {i} is not a unit")
        dinv.append(q)
    X = [[zero] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        X[i][i] = dinv[i]
        for j in range(i + 1, n):
            acc = dot(ctx, ((M.entries[i][k], X[k][j]) for k in range(i + 1, j + 1)))
            X[i][j] = -(dinv[i] * acc)
    return RepMatrix(ctx, X)


#: Word alphabet: uppercase letters are the twists, lowercase their inverses.
WORD_ALPHABET = "TSts"


def eval_word(qs: QScalars, word: str, c: int, N: int | None = None):
    """Evaluate a mapping-class word (T = t, S = t*, lowercase = inverse)
    to its exact matrix, or to its h-adic truncation at depth N.

    The product is always computed exactly and truncated at the end; since
    truncation is a ring homomorphism, this agrees with digitwise
    arithmetic at every level.
    """
    if N is not None and N < 0:
        raise ValueError("truncation order must be >= 0")
    bad = set(word) - set(WORD_ALPHABET)
    if bad:
        raise ValueError(f"word letters must be in {WORD_ALPHABET!r}, got {sorted(bad)}")
    mats = {"T": t_matrix(qs, c), "S": tstar_matrix(qs, c)}
    result = RepMatrix.identity(qs.ctx, c)
    for ch in word:
        if ch not in mats:
            mats[ch] = invert(mats[ch.upper()])
        result = result @ mats[ch]
    if N is None:
        return result
    return result.truncate(N)


def verify_relations(qs: QScalars, c: int) -> dict[str, bool]:
    """Exact checks of the defining relations on the color-2c module.

    Returns one boolean per named check; every failure mode stays a report
    entry rather than an exception.
    """
    ctx = qs.ctx
    p = ctx.p
    t = t_matrix(qs, c)
    s = tstar_matrix(qs, c)
    ident = RepMatrix.identity(ctx, c)
    tst = t @ s @ t

    exponent = (-6 + 2 * c * (c + 1) - p * (p + 1) // 2) % p
    mu = tuple(qs.mu_k(c + n) for n in range(ctx.d - c))

    return {
        "braid": tst == s @ t @ s,
        "central_scalar": tst ** 4 == ident.scale(ctx.zeta_pow(exponent)),
        "order_p": t ** p == ident and s ** p == ident,
        "twist_spectrum": t.diagonal() == mu and s.diagonal() == mu,
        "multiplication_oracle": s == tstar_oracle(qs, c),
    }
