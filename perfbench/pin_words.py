"""Write words_pinned.json: digests of the first PINNED_JOBS jobs of the
pinned `words` seed, each computed twice and required to agree.

    python3 perfbench/pin_words.py

One route is `eval_word`, which the benchmark times.  The other truncates
t, t* and their inverses first and multiplies the truncated matrices with
`HDigitsMatrix.__matmul__`, which lifts every entry to Z[zeta_p] and
truncates again after each product.  Takes several minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402

PINNED_SEED = 1
PINNED_JOBS = 20


def main() -> int:
    import torusrep

    p, c = jobs.WORDS_P, jobs.WORDS_C
    ctx = torusrep.PrimeContext(p)
    qs = torusrep.scalars(ctx)
    t, s = torusrep.t_matrix(qs, c), torusrep.tstar_matrix(qs, c)
    exact = {"T": t, "S": s, "t": torusrep.invert(t), "s": torusrep.invert(s)}
    stream = jobs.block_stream("words", PINNED_SEED)
    digests = []
    for i in range(PINNED_JOBS):
        (word, N), = next(stream)
        letters = {ch: M.truncate(N) for ch, M in exact.items()}
        acc = torusrep.RepMatrix.identity(ctx, c).truncate(N)
        for ch in word:
            acc = acc @ letters[ch]
        lifted = [[list(e.digits) for e in row] for row in acc.entries]
        direct = torusrep.eval_word(qs, word, c, N)
        if [[list(e.digits) for e in row] for row in direct.entries] != lifted:
            print(f"job {i}: eval_word and the lift path disagree", file=sys.stderr)
            return 1
        digests.append(checks.digest(lifted))
        print(f"job {i}: N={N} agree", file=sys.stderr)
    checks.PINNED_FILE.write_text(json.dumps(
        {"seed": PINNED_SEED, "p": p, "c": c, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
