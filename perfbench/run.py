"""The torusrep benchmark.

    python3 perfbench/run.py --workload matrices|words|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (one job at a time, closed loop, one client process):

  matrices  `torusrep matrices --p P --c C`, each job a fresh interpreter
  words     `eval_word(qs, w, 0, N)` at p = 17 in this process
  verify    `torusrep verify --p P --scope all`, P in {7, 11, 13, 17}, each
            job a fresh interpreter

With --trace 0 the run measures whole blocks of jobs for about S seconds and
reports the end-to-end metrics; one set-up is timed before each job, outside
the jobs' wall time, so that the set-up samples span the run.  Every time is
reported at a reference speed: a fixed calibration is timed before each job
and after the last, and a time is scaled by CAL_REF_S over the calibration
time next to it (see `calibrate` and `end_to_end`).  With --trace 1
it runs a fixed, seeded set of jobs, each traced and then untraced, and
reports the per-layer metrics and the tracing overhead.  Every output is
checked after the timed part.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402

#: blocks in the traced run; fixed so that its counts repeat exactly
TRACE_BLOCKS = {"matrices": 1, "verify": 2, "words": 8}
JOB_TIMEOUT_S = 120
#: reported seconds are seconds on a machine where `calibrate` takes this long
CAL_REF_S = 0.25
#: repetitions of the calibration's unit of work
CAL_REPS = 20
CLI = "import sys; from torusrep.cli import main; sys.exit(main())"
#: a fresh interpreter that builds the `words` set-up and prints its seconds
WORDS_SETUP = (f"import sys; sys.path[:0] = [{str(HERE)!r}]; import run; "
               "print(run.words_setup()[0])")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str]) -> tuple[float, int, bytes, bytes]:
    """Run a command in a fresh interpreter from the checkout root; return
    (seconds from spawn to exit, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - t0, -1, exc.stdout or b"", exc.stderr or b""
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def guarded(check, *args) -> str | None:
    """The reason `check(*args)` gives, or the exception it raises as one:
    package code that a check calls can fail too."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 -- any failure is a failed job
        return f"check raised {exc!r}"


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work takes now.

    The speed of this VM's vCPUs swings by two times and more, for seconds
    to minutes (CPU time equals wall time, so the work is slowed, not
    descheduled), and unlike kinds of work slow by unlike shares.  So the work is of the kinds
    the package does, in about equal shares: `Fraction` arithmetic,
    convolutions of small integer lists, and products and remainders of
    big integers.  It runs no package code, so a change to the package
    cannot move it.
    """
    t0 = time.perf_counter()
    big, mod, sink = 3 ** 6000, 7 ** 4000, 0
    for rep in range(CAL_REPS):
        x = Fraction(1, 3)
        for i in range(1, 400):
            x = x * Fraction(i + 7, i + 3) + Fraction(1, i)
        a, b = list(range(-8, 8)), [3 * i - 20 for i in range(16)]
        for _ in range(80):
            acc = [0] * 17
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    acc[(i + j) % 17] += ai * bj
            a = [(c - acc[16]) % 1000003 for c in acc[:16]]
        for i in range(12):
            sink ^= big * (mod + rep + i) % (mod - i - 1)
    return time.perf_counter() - t0


def pin_cpu() -> int:
    """Keep this process and the interpreters it starts on one vCPU, so that
    a calibration and the job next to it run on the same one: the two vCPUs
    change speed independently."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_blocks(stream, seconds: float, run_job, setup_sample):
    """Run whole blocks while the next one is expected to end within
    `seconds` of job time, and at least one.  Before each job take one
    set-up sample and then one calibration, and take one more calibration
    at the end; their time is not part of the wall time.  Return the job
    records, the set-up samples, the calibrations and each job's wall time."""
    records, setups, cals, walls, block_times = [], [], [], [], []
    while True:
        block_time = 0.0
        for job in next(stream):
            setups.append(setup_sample())
            cals.append(calibrate())
            t0 = time.perf_counter()
            records.append(run_job(job))
            walls.append(time.perf_counter() - t0)
            block_time += walls[-1]
        block_times.append(block_time)
        if sum(block_times) + statistics.mean(block_times) > seconds:
            cals.append(calibrate())
            return records, setups, cals, walls


def _first_blocks(workload: str, seed: int) -> list:
    stream = jobs.block_stream(workload, seed)
    return [job for _ in range(TRACE_BLOCKS[workload]) for job in next(stream)]


def _report_failures(label: str, reasons) -> int:
    failed = 0
    for job, reason in reasons:
        if reason is not None:
            failed += 1
            print(f"FAILED {label} {job}: {reason}", file=sys.stderr)
    return failed


def _simpson(f, lo: float, hi: float, steps: int = 64) -> float:
    h = (hi - lo) / steps
    return h / 3 * sum((1 if i in (0, steps) else 4 if i % 2 else 2) * f(lo + i * h)
                       for i in range(steps + 1))


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: a mean of all order statistics,
    the i-th weighted by the Beta((n+1)/2, (n+1)/2) mass on [i/n, (i+1)/n].
    A `matrices` run times each of 9 jobs of unlike cost once, so the sample
    median is one job's time; this estimate averages over the middle jobs."""
    xs = sorted(values)
    n = len(xs)
    density = lambda t: (t * (1 - t)) ** ((n - 1) / 2)
    weights = [_simpson(density, i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(latencies, walls, setups, cals, peak_rss_mb, failed) -> dict:
    """The end-to-end metrics at the reference speed: a job's times are
    scaled by CAL_REF_S over the mean of the calibrations just before and
    after it, a set-up's by CAL_REF_S over the calibration just after it."""
    job_scale = [2 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
    n = len(latencies)
    values = {
        "ops_per_s": ((n - failed) / sum(w * s for w, s in zip(walls, job_scale)), "1/s"),
        "op_p50_s": (median_hd([t * s for t, s in zip(latencies, job_scale)]), "s"),
        "setup_s": (statistics.median(t * CAL_REF_S / c for t, c in zip(setups, cals)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((n - failed) / n, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def unscaled(latencies, walls, cals) -> dict:
    """The figures before scaling, for the record line."""
    return {"wall_s": sum(walls), "op_p50_unscaled_s": median_hd(latencies),
            "calibration_mean_s": statistics.mean(cals)}


# --- fresh-interpreter workloads: matrices, verify

def import_sample() -> float:
    """Seconds to spawn an interpreter that imports the package."""
    seconds, rc, _, err = spawn([sys.executable, "-c", "import torusrep"])
    if rc != 0:
        raise RuntimeError(f"import torusrep: exit code {rc}: {err.decode(errors='replace')}")
    return seconds


def run_fresh(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check = checks.CHECKS[workload]
    if not trace:
        import_sample()  # writes the bytecode caches; not a sample
        records, setups, cals, walls = timed_blocks(
            jobs.block_stream(workload, seed), seconds,
            lambda args: (args, *spawn([sys.executable, "-c", CLI, *args])), import_sample)
        failed = _report_failures(workload, (
            (args, guarded(check, args, rc, out)) for args, _, rc, out, _ in records))
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        latencies = [r[1] for r in records]
        return {"attempted": len(records), "failed": failed,
                "metrics": end_to_end(latencies, walls, setups, cals, peak, failed),
                "unscaled": unscaled(latencies, walls, cals)}

    job_list = _first_blocks(workload, seed)
    # each job traced, then untraced right after, so that both see the same machine
    traced, plain = [], []
    for args in job_list:
        traced.append(spawn([sys.executable, str(HERE / "child.py"), *args]))
        plain.append(spawn([sys.executable, "-c", CLI, *args]))
    stats, reasons = [], []
    for args, (_, rc, out, _), (_, trc, tout, terr) in zip(job_list, plain, traced):
        reason = guarded(check, args, rc, out)
        lines = terr.decode(errors="replace").splitlines()
        if reason is None and (trc, tout) != (rc, out):
            reason = "traced output differs from untraced output"
        if reason is None and not (lines and lines[-1].startswith(tracer.MARKER)):
            reason = "traced job left no trace"
        if reason is None:
            stats.append(json.loads(lines[-1][len(tracer.MARKER):]))
        reasons.append((args, reason))
    failed = _report_failures(workload, reasons)
    overhead = sum(r[0] for r in traced) / sum(r[0] for r in plain) - 1
    return {"attempted": len(job_list), "failed": failed,
            "metrics": tracer.layer_metrics(tracer.merge(stats), overhead)}


# --- in-process workload: words

def words_setup():
    """Build the scalars and both twist matrices from empty caches."""
    import torusrep

    tracer.clear_caches()
    t0 = time.perf_counter()
    qs = torusrep.scalars(torusrep.PrimeContext(jobs.WORDS_P))
    torusrep.t_matrix(qs, jobs.WORDS_C)
    torusrep.tstar_matrix(qs, jobs.WORDS_C)
    return time.perf_counter() - t0, qs


def words_setup_sample() -> float:
    """Seconds the `words` set-up takes in a fresh interpreter, so that the
    caches of the process running the jobs are left as they are."""
    _, rc, out, err = spawn([sys.executable, "-c", WORDS_SETUP])
    try:
        return float(out)
    except ValueError:
        raise RuntimeError(f"words set-up: exit code {rc}: {err.decode(errors='replace')}") from None


def words_job(qs, job):
    """Run one job; the output is the digit matrix, or the exception the
    package raised, which `word_reasons` counts as a failure."""
    import torusrep

    word, N = job
    t0 = time.perf_counter()
    try:
        M = torusrep.eval_word(qs, word, jobs.WORDS_C, N)
        dt = time.perf_counter() - t0
        out = tuple(tuple(tuple(e.digits) for e in row) for row in M.entries)
    except Exception as exc:  # noqa: BLE001 -- any failure is a failed job
        dt, out = time.perf_counter() - t0, exc
    return job, dt, out


class WordCheck:
    """Checks `words` outputs; the reference letters are built on first use,
    so that package code failing there fails the jobs, not the run."""

    def __init__(self, seed: int):
        pinned = checks.load_pinned()
        self.digests = pinned["digests"] if seed == pinned["seed"] else []
        self.truncated: dict[int, checks.TruncatedLetters] = {}
        self.mod_h = self.exact = None

    def __call__(self, i: int, word: str, N: int, out) -> str | None:
        import torusrep

        if isinstance(out, Exception):
            return f"raised {out!r}"
        p, c = jobs.WORDS_P, jobs.WORDS_C
        if self.exact is None:
            qs = torusrep.scalars(torusrep.PrimeContext(p))
            self.mod_h = checks.mod_h_letters(p, c)
            self.exact = [[[list(e.nums) for e in row] for row in M.entries]
                          for M in (torusrep.t_matrix(qs, c), torusrep.tstar_matrix(qs, c))]
        if N not in self.truncated:
            self.truncated[N] = checks.truncated_letters(*self.exact, p, N + 1)
        return checks.check_word(word, N, out, self.mod_h, self.truncated[N],
                                 self.digests[i] if i < len(self.digests) else None)


def word_reasons(records, seed: int) -> list:
    """(job label, failure reason or None) for each `words` record."""
    check = WordCheck(seed)
    return [((word[:16] + "...", N), guarded(check, i, word, N, out))
            for i, ((word, N), _, out) in enumerate(records)]


def run_words(seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        _, qs = words_setup()  # for the jobs; not a sample
        records, setups, cals, walls = timed_blocks(
            jobs.block_stream("words", seed), seconds,
            lambda job: words_job(qs, job), words_setup_sample)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = _report_failures("words", word_reasons(records, seed))
        latencies = [r[1] for r in records]
        return {"attempted": len(records), "failed": failed,
                "metrics": end_to_end(latencies, walls, setups, cals, peak, failed),
                "unscaled": unscaled(latencies, walls, cals)}

    job_list = _first_blocks("words", seed)
    tr = tracer.Tracer()
    traced, plain = [], []
    tr.install()
    try:
        _, qs = words_setup()
    finally:
        tr.uninstall()
    # each job traced, then untraced right after, so that both see the same
    # machine; traced first, so its cache hits are those of a traced run alone
    for job in job_list:
        tr.install()
        try:
            traced.append(words_job(qs, job))
        finally:
            tr.uninstall()
        plain.append(words_job(qs, job))
    reasons = [
        (label, reason or (None if a[2] == b[2] else "traced output differs"))
        for (label, reason), a, b in zip(word_reasons(traced, seed), traced, plain)
    ]
    failed = _report_failures("words", reasons)
    overhead = sum(r[1] for r in traced) / sum(r[1] for r in plain) - 1
    return {"attempted": len(job_list), "failed": failed,
            "metrics": tracer.layer_metrics(tr.stats(), overhead)}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(jobs.BLOCKS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torusrep" / "__init__.py").is_file():
        print(f"error: no torusrep package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpu = pin_cpu()
    # a failed set-up leaves nothing to measure: it raises, and no result is printed
    if args.workload == "words":
        result = run_words(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_fresh(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "jobs": result["attempted"],
                             **result.pop("unscaled", {}), **environment(),
                             "pinned_cpu": cpu}))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
