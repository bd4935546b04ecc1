"""Seeded job lists for the three workloads.

A workload is a stream of blocks, and a run executes whole blocks.  The
`matrices` jobs differ by up to 25 times in cost, and a seeded draw of
(P, C) pairs moved the median job latency of a 30-second run by 20-60 %
between seeds, more than any bound the benchmark can set.  So a `matrices`
block holds a fixed set of (P, C) pairs and a `verify` block one job for each
prime, and the seed only orders them.  `words` jobs cost about the same, so
there the seed draws every input: the words and their depths.
"""

from __future__ import annotations

import random

MATRICES_PRIMES = (23, 29, 31)
#: C is taken at the midpoints of this many equal strata of 0..d-1.
MATRICES_STRATA = 3
VERIFY_PRIMES = (7, 11, 13, 17)
WORDS_P = 17
WORDS_C = 0
WORD_LENGTH = 256
ALPHABET = "TSts"
_INVERSE = {"T": "t", "t": "T", "S": "s", "s": "S"}


def strata_midpoints(d: int, k: int = MATRICES_STRATA) -> list[int]:
    """The C values at the middle of k equal strata of 0..d-1."""
    return sorted({(2 * j + 1) * d // (2 * k) for j in range(k)})


def matrices_block(rng: random.Random) -> list[list[str]]:
    """One block of `torusrep matrices` argument lists: every prime with C
    at each stratum midpoint, in seeded order."""
    jobs = [
        ["matrices", "--p", str(p), "--c", str(c)]
        for p in MATRICES_PRIMES
        for c in strata_midpoints((p - 1) // 2)
    ]
    rng.shuffle(jobs)
    return jobs


def verify_block(rng: random.Random) -> list[list[str]]:
    """One block of `torusrep verify --scope all` argument lists: one job for
    each prime, in seeded order."""
    primes = list(VERIFY_PRIMES)
    rng.shuffle(primes)
    return [["verify", "--p", str(p), "--scope", "all"] for p in primes]


def random_word(rng: random.Random, length: int = WORD_LENGTH) -> str:
    """A freely reduced word: no letter is followed by its inverse."""
    word: list[str] = []
    while len(word) < length:
        ch = rng.choice(ALPHABET)
        if word and _INVERSE[ch] == word[-1]:
            continue
        word.append(ch)
    return "".join(word)


def words_block(rng: random.Random) -> list[tuple[str, int]]:
    """One `eval_word` job: a word and a truncation depth N in 0..p-2, where
    Z[zeta_p]/(h^(N+1)) is still the ring F_p[h]/(h^(N+1))."""
    return [(random_word(rng), rng.randrange(WORDS_P - 1))]


BLOCKS = {"matrices": matrices_block, "verify": verify_block, "words": words_block}


def block_stream(workload: str, seed: int):
    """Yield the blocks of a workload for a seed, without end."""
    rng = random.Random(f"{workload}:{seed}")
    make = BLOCKS[workload]
    while True:
        yield make(rng)
