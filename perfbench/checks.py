"""Output checks, run untimed after each measured phase.

Each check returns None when the output is right and a one-line reason when
it is not.  The checks do their own ring arithmetic: the braid relation is
multiplied out here with Kronecker substitution, and the mod-h word product
with plain integers mod p, so they do not go through the matrix product or
the exact division that later changes will optimise.  The package code they
call is the independent route to t* (`tstar_oracle`), the closed forms of
the mod-h matrices in `fp_rep`, and the exact t and t* that a `words` job
multiplies, whose truncation and product are done here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED_FILE = Path(__file__).resolve().parent / "words_pinned.json"


# --- Z[zeta_p] arithmetic on coefficient lists over 1, zeta, ..., zeta^(p-2)

def _pack(coeffs, bits: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int, count: int) -> list[int]:
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        out.append(digit)
        value = (value - digit) >> bits
    if value:
        raise ArithmeticError("Kronecker unpacking overflowed")
    return out


def _reduce(poly: list[int], p: int) -> list[int]:
    """Fold a polynomial in zeta into the power basis: zeta^p = 1, then
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    acc = [0] * p
    for i, c in enumerate(poly):
        acc[i % p] += c
    top = acc[p - 1]
    return [c - top for c in acc[: p - 1]]


def ring_matmul(a, b, p: int):
    """Exact product of square matrices over Z[zeta_p] whose entries are
    coefficient lists; each entry is one packed big-integer dot product."""
    n = len(a)
    biggest = lambda m: max((abs(x) for row in m for e in row for x in e), default=0)
    bits = biggest(a).bit_length() + biggest(b).bit_length() + (n * p).bit_length() + 2
    pa = [[_pack(e, bits) for e in row] for row in a]
    pb_cols = [[_pack(b[k][j], bits) for k in range(n)] for j in range(n)]
    return [
        [
            _reduce(_unpack(sum(x * y for x, y in zip(row, col)), bits, 2 * p - 3), p)
            for col in pb_cols
        ]
        for row in pa
    ]


def zeta_power(k: int, p: int) -> list[int]:
    k %= p
    if k == p - 1:
        return [-1] * (p - 1)
    return [1 if i == k else 0 for i in range(p - 1)]


def twist_eigenvalue(k: int, p: int) -> list[int]:
    """mu_k = (-1)^k A^(k(k+2)) with A = -zeta^(d+1), from its definition."""
    d = (p - 1) // 2
    e = k * (k + 2)
    sign = (-1) ** k * (-1) ** e
    return [sign * x for x in zeta_power(e * (d + 1), p)]


# --- workload checks

def check_matrices(args: list[str], returncode: int, stdout: bytes) -> str | None:
    """`torusrep matrices --p P --c C`: t* equals the multiplication oracle,
    t and t* satisfy the braid relation, are triangular and have the twist
    spectrum on the diagonal."""
    import torusrep

    if returncode != 0:
        return f"exit code {returncode}"
    p, c = int(args[2]), int(args[4])
    try:
        doc = json.loads(stdout)
        t, s = doc["t"], doc["tstar"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    rank = (p - 1) // 2 - c
    if (doc.get("p"), doc.get("c")) != (p, c):
        return "output is for another (p, c)"
    for m in (t, s):
        if len(m) != rank or any(
            len(row) != rank
            or any(len(e) != p - 1 or any(type(x) is not int for x in e) for e in row)
            for row in m
        ):
            return f"expected a {rank}x{rank} matrix of {p - 1} integers per entry"
    zero = [0] * (p - 1)
    if any(t[i][j] != zero for i in range(rank) for j in range(i)):
        return "t is not upper triangular"
    if any(s[i][j] != zero for i in range(rank) for j in range(i + 1, rank)):
        return "t* is not lower triangular"
    mu = [twist_eigenvalue(c + n, p) for n in range(rank)]
    if [t[i][i] for i in range(rank)] != mu or [s[i][i] for i in range(rank)] != mu:
        return "diagonal is not the twist spectrum"
    if ring_matmul(ring_matmul(t, s, p), t, p) != ring_matmul(ring_matmul(s, t, p), s, p):
        return "braid relation t t* t = t* t t* fails"
    oracle = torusrep.tstar_oracle(torusrep.scalars(torusrep.PrimeContext(p)), c)
    if [[list(e.nums) for e in row] for row in oracle.entries] != s:
        return "t* differs from the multiplication oracle"
    return None


def check_verify(args: list[str], returncode: int, stdout: bytes) -> str | None:
    """`torusrep verify --p P ... --scope all`: exit 0, only PASS lines, the
    line count of the full grid for those primes, and a final OK."""
    if returncode != 0:
        return f"exit code {returncode}"
    primes = {int(v) for flag, v in zip(args, args[1:]) if flag == "--p"}
    # per c: 5 rep + 3 fp lines; per p: d + 2 skein, 1 fp; then identity, OK
    expected = sum(9 * ((p - 1) // 2) + 3 for p in primes) + 2
    lines = stdout.decode(errors="replace").splitlines()
    if len(lines) != expected:
        return f"{len(lines)} lines, expected {expected}"
    if lines[-1] != "OK":
        return "last line is not OK"
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        return "a check did not PASS"
    return None


CHECKS = {"matrices": check_matrices, "verify": check_verify}


# --- Z[zeta_p]/(h^n) for n <= p-1, which is the ring F_p[h]/(h^n): an element
# is its n h-adic digits, packed into one integer with `bits`-bit slots

def h_digits(coeffs, p: int, n: int) -> list[int]:
    """The first n h-adic digits (in 0..p-1) of an element of Z[zeta_p]
    given by its power-basis coefficients, with h = 1 - zeta."""
    x = list(coeffs)
    digits = []
    for _ in range(n):
        d = sum(x) % p
        digits.append(d)
        x[0] -= d
        # now p divides x(1) = Phi_p(1) * k: a = x - k Phi_p vanishes at 1, so
        # a = (X - 1) q with integer q of degree p-2, and x / (1 - zeta) = -q
        k = sum(x) // p
        a = [c - k for c in x] + [-k]
        q = [0] * (p - 1)
        q[p - 2] = a[p - 1]
        for i in range(p - 2, 0, -1):
            q[i - 1] = a[i] + q[i]
        x = [-c for c in q]
    return digits


def _unpack_digits(value: int, bits: int, n: int) -> list[int]:
    mask = (1 << bits) - 1
    return [(value >> (bits * i)) & mask for i in range(n)]


class TruncatedLetters:
    """T, S and their inverses over Z[zeta_p]/(h^n), from t and t* given as
    matrices of n-digit lists; t^-1 = t^(p-1) because t^p = 1."""

    def __init__(self, t, s, p: int):
        self.p, self.n, self.rank = p, len(t[0][0]), len(t)
        if not 1 <= self.n <= p - 1:
            raise ValueError(f"need 1 to p-1 digits, got {self.n}")
        # a slot holds a sum of rank*n products of digits below p
        self.bits = (self.rank * self.n * (p - 1) ** 2).bit_length() + 1
        pack = lambda m: [[_pack(e, self.bits) for e in row] for row in m]
        self.letters = {"T": pack(t), "S": pack(s)}
        ident = self._identity()
        for ch, m in (("t", self.letters["T"]), ("s", self.letters["S"])):
            inv = m
            for _ in range(p - 2):
                inv = self._mul(inv, m)
            if self._mul(m, inv) != ident:
                raise ArithmeticError("t^p or t*^p is not 1 in the truncated ring")
            self.letters[ch] = inv

    def _identity(self):
        return [[int(i == j) for j in range(self.rank)] for i in range(self.rank)]

    def _mul(self, a, b):
        low = (1 << (self.bits * self.n)) - 1
        cols = list(zip(*b))
        return [
            [
                _pack([d % self.p for d in _unpack_digits(
                    sum(x * y for x, y in zip(row, col)) & low, self.bits, self.n)],
                    self.bits)
                for col in cols
            ]
            for row in a
        ]

    def word(self, word: str) -> list:
        """The word's value as a matrix of digit lists."""
        acc = self._identity()
        for ch in word:
            acc = self._mul(acc, self.letters[ch])
        return [[_unpack_digits(e, self.bits, self.n) for e in row] for row in acc]


def mod_h_letters(p: int, c: int) -> TruncatedLetters:
    """The letters over Z[zeta_p]/(h) = F_p, from fp_rep's closed forms."""
    from torusrep.fp_rep import a_hat_entry, b_hat_entry

    rank = (p - 1) // 2 - c
    t = [[[a_hat_entry(p, c, m, n)] for n in range(rank)] for m in range(rank)]
    s = [[[b_hat_entry(p, m, n)] for n in range(rank)] for m in range(rank)]
    return TruncatedLetters(t, s, p)


def truncated_letters(t, s, p: int, n: int) -> TruncatedLetters:
    """The letters over Z[zeta_p]/(h^n), truncated here from the exact t and
    t* given as matrices of power-basis coefficient lists."""
    digits = lambda m: [[h_digits(e, p, n) for e in row] for row in m]
    return TruncatedLetters(digits(t), digits(s), p)


def digest(digits) -> str:
    return hashlib.sha256(json.dumps(digits).encode()).hexdigest()


def load_pinned() -> dict:
    return json.loads(PINNED_FILE.read_text())


def check_word(word: str, N: int, digits, mod_h, truncated, pinned: str | None) -> str | None:
    """`eval_word(qs, word, c, N)`: N+1 digits in 0..p-1 per entry, the
    digit-0 layer equal to the word over F_p from the closed forms (`mod_h`),
    every digit equal to the word over Z[zeta_p]/(h^(N+1)) from letters
    truncated here (`truncated`), and for the pinned seed the digest of every
    digit."""
    p, rank = mod_h.p, mod_h.rank
    if len(digits) != rank or any(len(row) != rank for row in digits):
        return f"expected a {rank}x{rank} matrix"
    if any(len(e) != N + 1 or not all(0 <= x < p for x in e) for row in digits for e in row):
        return f"expected {N + 1} digits in 0..{p - 1} per entry"
    if [[[e[0]] for e in row] for row in digits] != mod_h.word(word):
        return "digit-0 layer differs from the product mod h"
    if [[list(e) for e in row] for row in digits] != truncated.word(word):
        return "digits differ from the product in the truncated ring"
    if pinned is not None and digest(digits) != pinned:
        return "digits differ from the pinned digest"
    return None
