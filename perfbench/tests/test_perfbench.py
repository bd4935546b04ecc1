"""Tests of the benchmark itself: job lists, metric names, output checks and
the tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import checks
import jobs
import run
import torusrep
import tracer

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _blocks(workload, seed, n=3):
    return list(itertools.islice(jobs.block_stream(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(jobs.BLOCKS))
def test_job_lists_follow_the_seed(workload):
    assert _blocks(workload, 7) == _blocks(workload, 7)
    assert _blocks(workload, 7) != _blocks(workload, 8)


def test_words_never_draw_depth_beyond_p_minus_2():
    depths = {
        N for seed in range(5)
        for block in itertools.islice(jobs.block_stream("words", seed), 400)
        for _, N in block
    }
    assert depths == set(range(jobs.WORDS_P - 1))


def test_words_are_freely_reduced():
    for word, _ in _blocks("words", 3, 20)[0]:
        assert len(word) == jobs.WORD_LENGTH
        assert not any(a.swapcase() == b for a, b in zip(word, word[1:]))


def test_matrices_block_covers_every_prime_at_each_stratum():
    block = jobs.matrices_block(random.Random(0))
    assert len(block) == len(jobs.MATRICES_PRIMES) * jobs.MATRICES_STRATA
    assert jobs.strata_midpoints(15) == [2, 7, 12]


def test_metric_names_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    e2e = run.end_to_end([1.0, 2.0], [1.5, 1.5], [0.1, 0.1], [0.2] * 3, 10.0, 0)
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in doc["end_to_end"]] == [v["unit"] for v in e2e.values()]
    layer = [{"name": n, "unit": u, "better": b} for n, u, b in tracer.METRICS]
    assert doc["per_layer"] == layer
    names = list(e2e) + [m["name"] for m in layer]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert len(e2e) <= 16 and len(layer) <= 128
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(jobs.BLOCKS)


def _spawn_cli(args):
    _, rc, out, _ = run.spawn([sys.executable, "-c", run.CLI, *args])
    return rc, out


def test_matrices_check_accepts_real_output_and_rejects_corruption():
    args = ["matrices", "--p", "11", "--c", "1"]
    rc, out = _spawn_cli(args)
    assert checks.check_matrices(args, rc, out) is None
    doc = json.loads(out)
    doc["tstar"][2][1][0] += 1
    assert checks.check_matrices(args, rc, json.dumps(doc).encode()) is not None
    doc = json.loads(out)
    doc["t"][0][0] = doc["t"][1][1]
    assert checks.check_matrices(args, rc, json.dumps(doc).encode()) is not None
    assert checks.check_matrices(args, rc, out[:-20]) is not None
    assert checks.check_matrices(args, 1, out) is not None


def test_verify_check_rejects_corruption():
    args = ["verify", "--p", "7", "--p", "5", "--scope", "all"]
    rc, out = _spawn_cli(args)
    assert checks.check_verify(args, rc, out) is None
    assert checks.check_verify(args[2:], rc, out) is not None
    assert checks.check_verify(args, rc, out.replace(b"PASS", b"FAIL", 1)) is not None
    assert checks.check_verify(args, rc, out.split(b"\n", 1)[1]) is not None
    assert checks.check_verify(args, rc, out.replace(b"OK", b"FAILED")) is not None


def _exact_twists(qs, c):
    return [[[list(e.nums) for e in row] for row in M.entries]
            for M in (torusrep.t_matrix(qs, c), torusrep.tstar_matrix(qs, c))]


def test_word_check_rejects_corruption():
    p, c, word, N = jobs.WORDS_P, jobs.WORDS_C, "TSstTTs", 3
    qs = torusrep.scalars(torusrep.PrimeContext(p))
    M = torusrep.eval_word(qs, word, c, N)
    digits = [[list(e.digits) for e in row] for row in M.entries]
    mod_h = checks.mod_h_letters(p, c)
    truncated = checks.truncated_letters(*_exact_twists(qs, c), p, N + 1)
    check = lambda d, pinned=None: checks.check_word(word, N, d, mod_h, truncated, pinned)
    assert check(digits, checks.digest(digits)) is None
    bad = json.loads(json.dumps(digits))
    bad[0][0][0] = (bad[0][0][0] + 1) % p
    assert check(bad) is not None
    deeper = json.loads(json.dumps(digits))
    deeper[1][0][N] = (deeper[1][0][N] + 1) % p
    assert check(deeper) is not None
    assert check(digits, checks.digest(deeper)) is not None


@pytest.mark.parametrize("p", [5, 7, 11])
def test_truncated_ring_matches_eval_word(p):
    qs = torusrep.scalars(torusrep.PrimeContext(p))
    rng = random.Random(p)
    for _ in range(20):
        x = torusrep.CycNum(qs.ctx, [rng.randrange(-50, 50) for _ in range(p - 1)])
        assert checks.h_digits(x.nums, p, p - 1) == list(torusrep.truncate(x, p - 2).digits)
    word = jobs.random_word(rng, 12)
    for N in range(p - 1):
        want = torusrep.eval_word(qs, word, 0, N)
        got = checks.truncated_letters(*_exact_twists(qs, 0), p, N + 1).word(word)
        assert got == [[list(e.digits) for e in row] for row in want.entries]


def test_median_estimate():
    assert run.median_hd([3.0]) == 3.0
    assert run.median_hd([1.0, 2.0]) == pytest.approx(1.5)
    assert run.median_hd([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)
    # n = 9: the top weight is the Beta(5, 5) mass on [8/9, 1], 0.001449...
    outer = run.median_hd([0.0] * 8 + [1.0])
    assert outer == pytest.approx(0.0014493, rel=1e-4)
    assert run.median_hd(range(9)) == pytest.approx(4.0)


def test_times_are_scaled_by_the_calibrations_next_to_them(monkeypatch):
    cals = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "calibrate", lambda: next(cals))
    records, setups, cals, walls = run.timed_blocks(
        iter([["a", "b"]]), 0.0, lambda job: job, lambda: 0.3)
    assert (records, setups, cals, len(walls)) == (["a", "b"], [0.3, 0.3], [0.1, 0.3, 0.2], 2)
    e2e = run.end_to_end([2.0, 4.0], [2.5, 2.5], setups, cals, 20.0, 1)
    ref = run.CAL_REF_S
    assert e2e["ops_per_s"]["value"] == pytest.approx(1 / (2.5 * ref / 0.2 + 2.5 * ref / 0.25))
    assert e2e["op_p50_s"]["value"] == pytest.approx((2.0 / 0.2 + 4.0 / 0.25) * ref / 2)
    assert e2e["setup_s"]["value"] == pytest.approx((0.3 / 0.1 + 0.3 / 0.3) * ref / 2)
    assert (e2e["peak_rss_mb"]["value"], e2e["ok_frac"]["value"]) == (20.0, 0.5)


def test_failed_checks_are_counted(capsys):
    assert run._report_failures("w", [("a", None), ("b", "bad"), ("c", "worse")]) == 2
    assert "FAILED w b: bad" in capsys.readouterr().err


def test_exceptions_are_failed_jobs():
    job = ("TSts", 2)
    record = run.words_job(None, job)
    assert isinstance(record[2], Exception)
    ((_, reason),) = run.word_reasons([record], seed=0)
    assert reason.startswith("raised ")
    args = ["matrices", "--p", "11", "--c", "1"]
    assert run.guarded(checks.check_matrices, args, 0, b'{"p": 11, "c": 1, "t": 3, "tstar": 4}')


def test_words_setup_is_sampled_in_a_fresh_interpreter():
    assert 0 < run.words_setup_sample() < 60


def test_ring_arithmetic_matches_the_package():
    p, c = 7, 0
    qs = torusrep.scalars(torusrep.PrimeContext(p))
    t, s = torusrep.t_matrix(qs, c), torusrep.tstar_matrix(qs, c)
    lists = lambda M: [[list(e.nums) for e in row] for row in M.entries]
    assert checks.ring_matmul(lists(t), lists(s), p) == lists(t @ s)
    for k in range(3 * p):
        assert checks.twist_eigenvalue(k, p) == list(qs.mu_k(k).nums)


def _traced_child(args):
    _, rc, out, err = run.spawn([sys.executable, str(run.HERE / "child.py"), *args])
    last = err.decode().splitlines()[-1]
    assert last.startswith(tracer.MARKER)
    return rc, out, json.loads(last[len(tracer.MARKER):])


def test_fresh_job_starts_with_empty_caches_and_traces_identically():
    args = ["verify", "--p", "5", "--scope", "all"]
    rc, out, stats = _traced_child(args)
    assert (rc, out) == _spawn_cli(args)
    assert stats["cache_entries_at_start"] == 0
    assert stats["calls"]["cli.main"] == 1
    again = _traced_child(args)[2]
    for key in ("calls", "cache", "quotients", "coeff_bits_max", "spans"):
        assert again[key] == stats[key]


def test_tracer_patches_every_binding_and_restores_them():
    from torusrep import cyclotomic, qint, rep, skein_poly

    originals = (cyclotomic.field_inverse, cyclotomic.CycNum.__mul__)
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = cyclotomic.field_inverse
        assert wrapped is not originals[0]
        assert qint.field_inverse is skein_poly.field_inverse is rep.field_inverse is wrapped
        assert torusrep.field_inverse is wrapped
        assert cyclotomic.CycNum.__rmul__ is cyclotomic.CycNum.__mul__ is not originals[1]
    finally:
        tr.uninstall()
    assert (cyclotomic.field_inverse, cyclotomic.CycNum.__mul__) == originals
    assert cyclotomic.CycNum.__rmul__ is originals[1]


def _traced_words():
    tr = tracer.Tracer()
    tr.install()
    try:
        _, qs = run.words_setup()
        for job in _blocks("words", 5, 2):
            run.words_job(qs, (job[0][0][:40], job[0][1]))
    finally:
        tr.uninstall()
    return tr.stats()


def test_two_traced_runs_count_the_same():
    first, second = _traced_words(), _traced_words()
    for key in ("calls", "cache", "quotients", "coeff_bits_max", "spans"):
        assert first[key] == second[key]
    metrics = tracer.layer_metrics(first, 0.1)
    assert [name for name, _, _ in tracer.METRICS] == list(metrics)
    assert metrics["cyclotomic.CycNum.mul.calls"]["value"] > 0
    assert metrics["qint.scalars.calls"]["value"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
