"""Command-line front end.

Subcommands:

    matrices  --p P --c C [--format json|csv]        exact t and t*
    hadic     --p P --c C --word W --n-trunc N       truncated word value
    fp        --p P --c C [--format json|csv]        mod-p layer + intertwiner
    verify    [--p P ...] [--scope ...]              verification grids

c is the parameter c itself (the banded point carries color 2c); valid
values are 0 <= c <= (p-3)/2.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  All output is byte-deterministic for fixed flags:
JSON uses sorted keys, matrices are row-major, and every report line is
newline-terminated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cyclotomic import PrimeContext, h_valuation
from .fp_rep import (
    SL2_T,
    SL2_TSTAR,
    irreducibility_check,
    phi_matrix,
    poly_action,
    rho0_matrices,
    u_lemma_check,
    verify_intertwine,
)
from .identities import verify_identity_grid
from .qint import scalars
from .rep import WORD_ALPHABET, eval_word, t_matrix, tstar_matrix, verify_relations
from .skein_poly import C_closed, C_recursive, verify_product_expansion

#: default verification grid
DEFAULT_PRIMES = (5, 7, 11, 13)

_HEADER = {"basis": "Qprime", "convention": {"rows": "m", "cols": "n"}}


def _context(p: int, max_p: int) -> PrimeContext:
    """The context of p, refused beyond --max-p and for a non-prime or small p."""
    if p > max_p:
        raise ValueError(f"p={p} exceeds --max-p={max_p}")
    return PrimeContext(p)


@dataclass(frozen=True)
class RunConfig:
    command: str
    p: int
    c: int = 0
    N: int = 0
    word: str = ""
    format: str = "json"
    max_p: int = 101

    def __post_init__(self):
        # argparse checks the format, and eval_word the word and N
        _context(self.p, self.max_p).rank(self.c)


def _mat_coeff_lists(M):
    return [[list(e.nums) for e in row] for row in M.entries]


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def cmd_matrices(cfg: RunConfig) -> str:
    qs = scalars(PrimeContext(cfg.p))
    t = t_matrix(qs, cfg.c)
    s = tstar_matrix(qs, cfg.c)
    if cfg.format == "json":
        return _dumps({
            "p": cfg.p, "c": cfg.c, **_HEADER,
            "t": _mat_coeff_lists(t), "tstar": _mat_coeff_lists(s),
        })
    lines = ["matrix,row,col,coeffs"]
    for name, M in (("t", t), ("tstar", s)):
        for i, row in enumerate(M.entries):
            for j, e in enumerate(row):
                lines.append(f"{name},{i},{j},{' '.join(map(str, e.nums))}")
    return "\n".join(lines) + "\n"


def cmd_hadic(cfg: RunConfig) -> str:
    qs = scalars(PrimeContext(cfg.p))
    M = eval_word(qs, cfg.word, cfg.c, cfg.N)
    if cfg.format == "json":
        entries = [
            [{"p": e.p, "N": e.N, "digits": list(e.digits)} for e in row]
            for row in M.entries
        ]
        return _dumps({
            "p": cfg.p, "c": cfg.c, "N": cfg.N, "word": cfg.word, **_HEADER,
            "entries": entries,
        })
    lines = ["row,col,digits"]
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            lines.append(f"{i},{j},{' '.join(map(str, e.digits))}")
    return "\n".join(lines) + "\n"


def cmd_fp(cfg: RunConfig) -> str:
    ctx = PrimeContext(cfg.p)
    D = ctx.d - cfg.c - 1
    t_hat, s_hat = rho0_matrices(ctx, cfg.c)
    phi = phi_matrix(ctx, cfg.c)
    action_t = poly_action(cfg.p, SL2_T, D)
    action_s = poly_action(cfg.p, SL2_TSTAR, D)
    ok = verify_intertwine(ctx, cfg.c)
    if cfg.format == "json":
        as_lists = lambda M: [list(row) for row in M.entries]
        return _dumps({
            "p": cfg.p, "c": cfg.c, **_HEADER,
            "t_hat": as_lists(t_hat), "tstar_hat": as_lists(s_hat),
            "phi": as_lists(phi),
            "poly_t": as_lists(action_t), "poly_tstar": as_lists(action_s),
            "intertwine_ok": ok,
        })
    lines = ["matrix,row,col,value"]
    for name, M in (
        ("t_hat", t_hat), ("tstar_hat", s_hat), ("phi", phi),
        ("poly_t", action_t), ("poly_tstar", action_s),
    ):
        for i, row in enumerate(M.entries):
            for j, e in enumerate(row):
                lines.append(f"{name},{i},{j},{e}")
    lines.append(f"intertwine_ok,0,0,{int(ok)}")
    return "\n".join(lines) + "\n"


def _verify_rep(qs, c, lines):
    report = verify_relations(qs, c)
    p = qs.ctx.p
    ok = True
    for name, passed in report.items():
        lines.append(f"{'PASS' if passed else 'FAIL'} p={p} c={c} rep.{name}")
        ok &= passed
    return ok


def _verify_skein(qs, lines):
    ctx = qs.ctx
    p, d = ctx.p, ctx.d
    ok = True

    for c in range(d):
        passed = all(
            verify_product_expansion(qs, m, n, c)
            for m in range(p - c)
            for n in range(p - c - m)
        )
        lines.append(f"{'PASS' if passed else 'FAIL'} p={p} c={c} skein.product_expansion")
        ok &= passed

    agree = valuation = True
    for m in range(p):
        for n in range(p):
            for l in range(min(m, n) + 1):
                cval = C_closed(qs, l, m, n)
                agree &= cval == C_recursive(qs, l, m, n)
                if m + n + 1 < p:
                    valuation &= h_valuation(cval) == 2 * l
    lines.append(f"{'PASS' if agree else 'FAIL'} p={p} skein.structure_constants_agree")
    lines.append(f"{'PASS' if valuation else 'FAIL'} p={p} skein.structure_constant_valuation")
    return ok and agree and valuation


def _verify_fp(ctx, lines):
    p = ctx.p
    ok = True
    for c in range(ctx.d):
        try:
            rho0_matrices(ctx, c)
            reduced = True
        except ArithmeticError:
            reduced = False
        inter = reduced and verify_intertwine(ctx, c)
        irr = reduced and irreducibility_check(ctx, c)
        lines.append(f"{'PASS' if reduced else 'FAIL'} p={p} c={c} fp.closed_form_reduction")
        lines.append(f"{'PASS' if inter else 'FAIL'} p={p} c={c} fp.sl2_intertwiner")
        lines.append(f"{'PASS' if irr else 'FAIL'} p={p} c={c} fp.irreducibility")
        ok &= reduced and inter and irr
    lemma = u_lemma_check(p)
    lines.append(f"{'PASS' if lemma else 'FAIL'} p={p} fp.double_factorial_congruence")
    return ok and lemma


def cmd_verify(p_list, scope: str, n_max: int = 12, max_p: int = 101):
    contexts = [_context(p, max_p) for p in sorted(set(p_list))]
    lines = []
    all_ok = True
    if scope in ("all", "rep", "skein", "fp"):
        for ctx in contexts:
            qs = scalars(ctx)
            if scope in ("all", "rep"):
                for c in range(ctx.d):
                    all_ok &= _verify_rep(qs, c, lines)
            if scope in ("all", "skein"):
                all_ok &= _verify_skein(qs, lines)
            if scope in ("all", "fp"):
                all_ok &= _verify_fp(ctx, lines)
    if scope in ("all", "identity"):
        report = verify_identity_grid(n_max)
        status = "PASS" if report.ok else "FAIL"
        lines.append(f"{status} identity.binomial_grid n_max={n_max} checked={report.checked}")
        for n, m, i, got, want in report.failures:
            lines.append(f"  mismatch at (n={n}, m={m}, i={i}): got {got}, expected {want}")
        all_ok &= report.ok
    lines.append("OK" if all_ok else "FAILED")
    return "\n".join(lines) + "\n", 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusrep",
        description="Exact twist matrices on the one-holed torus, their h-adic "
                    "truncations, and the mod-p polynomial model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime >= 5")
        sp.add_argument("--c", type=int, default=0,
                        help="boundary parameter c (color 2c), 0 <= c <= (p-3)/2")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--max-p", type=int, default=101, help="refuse larger primes")

    sp = sub.add_parser("matrices", help="exact t and t* in the Q' basis")
    common(sp)

    sp = sub.add_parser("hadic", help="h-adic digits of a word value")
    common(sp)
    sp.add_argument("--word", default="", help=f"word over {WORD_ALPHABET!r} (lowercase = inverse)")
    sp.add_argument("--n-trunc", type=int, default=0, dest="n_trunc",
                    help="truncation depth N (digits d_0..d_N)")

    sp = sub.add_parser("fp", help="mod-p matrices, SL(2,F_p) action, intertwiner")
    common(sp)

    sp = sub.add_parser("verify", help="run verification grids")
    sp.add_argument("--p", type=int, action="append", dest="p_list",
                    help="prime to include (repeatable; default 5 7 11 13)")
    sp.add_argument("--scope", choices=("all", "rep", "skein", "fp", "identity"),
                    default="all")
    sp.add_argument("--n-max", type=int, default=12, dest="n_max",
                    help="grid bound for the identity scope")
    sp.add_argument("--max-p", type=int, default=101)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            p_list = args.p_list or list(DEFAULT_PRIMES)
            report, code = cmd_verify(p_list, args.scope, args.n_max, args.max_p)
            sys.stdout.write(report)
            return code
        cfg = RunConfig(
            command=args.command,
            p=args.p,
            c=args.c,
            N=getattr(args, "n_trunc", 0),
            word=getattr(args, "word", ""),
            format=args.format,
            max_p=args.max_p,
        )
        handler = {"matrices": cmd_matrices, "hadic": cmd_hadic, "fp": cmd_fp}[cfg.command]
        sys.stdout.write(handler(cfg))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
