import hashlib
import json

import pytest

from torusrep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matrices_rank_one(capsys):
    code, out = run(capsys, "matrices", "--p", "5", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5 and payload["c"] == 1
    assert payload["basis"] == "Qprime"
    assert payload["convention"] == {"rows": "m", "cols": "n"}
    assert len(payload["t"]) == 1 and len(payload["t"][0]) == 1
    assert len(payload["t"][0][0]) == 4  # power-basis coefficient vector


def test_matrices_shape_and_triangularity(capsys):
    code, out = run(capsys, "matrices", "--p", "5", "--c", "0")
    payload = json.loads(out)
    zero = [0, 0, 0, 0]
    assert payload["t"][1][0] == zero       # upper triangular
    assert payload["tstar"][0][1] == zero   # lower triangular
    assert payload["t"][0][0] == [1, 0, 0, 0]


def test_matrices_deterministic(capsys):
    _, first = run(capsys, "matrices", "--p", "7", "--c", "2")
    _, second = run(capsys, "matrices", "--p", "7", "--c", "2")
    assert first == second
    assert first.endswith("\n")


def test_matrices_csv(capsys):
    code, out = run(capsys, "matrices", "--p", "5", "--c", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "matrix,row,col,coeffs"
    assert len(lines) == 1 + 2 * 4  # header + two 2x2 matrices
    assert lines[1].startswith("t,0,0,")


def test_usage_errors(capsys):
    assert run(capsys, "matrices", "--p", "4")[0] == 2
    assert run(capsys, "matrices", "--p", "5", "--c", "2")[0] == 2
    assert run(capsys, "hadic", "--p", "5", "--word", "TSX")[0] == 2
    assert run(capsys, "hadic", "--p", "5", "--n-trunc", "-1")[0] == 2
    assert run(capsys, "matrices", "--p", "103")[0] == 2  # beyond --max-p


def test_hadic_braid_words_agree(capsys):
    _, lhs = run(capsys, "hadic", "--p", "5", "--word", "TST", "--n-trunc", "3")
    _, rhs = run(capsys, "hadic", "--p", "5", "--word", "STS", "--n-trunc", "3")
    assert json.loads(lhs)["entries"] == json.loads(rhs)["entries"]


def test_hadic_identity_words(capsys):
    _, empty = run(capsys, "hadic", "--p", "7", "--c", "1", "--word", "", "--n-trunc", "2")
    _, order = run(capsys, "hadic", "--p", "7", "--c", "1", "--word", "T" * 7, "--n-trunc", "2")
    assert json.loads(empty)["entries"] == json.loads(order)["entries"]
    payload = json.loads(empty)
    assert payload["entries"][0][0] == {"p": 7, "N": 2, "digits": [1, 0, 0]}
    assert payload["entries"][0][1] == {"p": 7, "N": 2, "digits": [0, 0, 0]}


def test_hadic_csv(capsys):
    code, out = run(capsys, "hadic", "--p", "5", "--word", "TS", "--n-trunc", "1",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row,col,digits"
    assert len(lines) == 5


def test_fp_rank_one(capsys):
    code, out = run(capsys, "fp", "--p", "7", "--c", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_hat"] == [[1]]
    assert payload["tstar_hat"] == [[1]]
    assert payload["intertwine_ok"] is True


def test_fp_full(capsys):
    _, out = run(capsys, "fp", "--p", "5", "--c", "0")
    payload = json.loads(out)
    assert payload["t_hat"] == [[1, 2], [0, 1]]
    assert payload["tstar_hat"] == [[1, 0], [2, 1]]
    assert payload["poly_t"] == [[1, 1], [0, 1]]
    assert payload["intertwine_ok"] is True


def test_fp_csv_has_flag_row(capsys):
    _, out = run(capsys, "fp", "--p", "5", "--c", "1", "--format", "csv")
    assert out.strip().split("\n")[-1] == "intertwine_ok,0,0,1"


def test_verify_scopes(capsys):
    code, out = run(capsys, "verify", "--p", "5", "--scope", "rep")
    assert code == 0
    assert out.strip().split("\n")[-1] == "OK"
    assert "PASS p=5 c=0 rep.braid" in out

    code, out = run(capsys, "verify", "--p", "5", "--scope", "fp")
    assert code == 0
    assert "fp.double_factorial_congruence" in out

    code, out = run(capsys, "verify", "--scope", "identity", "--n-max", "4")
    assert code == 0
    assert "identity.binomial_grid" in out


def test_verify_rejects_bad_primes(capsys):
    assert run(capsys, "verify", "--p", "9")[0] == 2
    assert run(capsys, "verify", "--p", "103")[0] == 2


def test_verify_skein_scope(capsys):
    code, out = run(capsys, "verify", "--p", "5", "--scope", "skein")
    assert code == 0
    assert "skein.structure_constants_agree" in out


#: sha256 of the full stdout; any change to the printed matrices, their
#: order or their formatting changes these digests
GOLDEN_STDOUT = {
    "matrices --p 13 --c 2":
        "9da768259033c4563f45b8160ce07f903a33b77fafd9d527eb27c8af5e018b9f",
    "matrices --p 11 --c 0 --format csv":
        "244a9ab257711fc1d9057fb7191ae946f1ca58e3bdcbc9b9f66c1fffda8407c2",
    "hadic --p 11 --c 1 --word TSstTTs --n-trunc 6":
        "12914b85f29cc0a1cd9832cc844dc0a22ec4c612559a914b34d4c49e3f24690c",
    # N >= p-1: the digits past the F_p[h] range, where carries appear
    "hadic --p 7 --c 0 --word tSTs --n-trunc 8 --format csv":
        "08e05ddf80333be49016c4370c9e20ee5b7385b26e134e80c46fda557d484f3a",
    "fp --p 11 --c 1":
        "14dd0c810dc3aac418d64f9b7ce511ad79e44079f727d34ec058e6c7a0de877f",
    "fp --p 13 --c 0 --format csv":
        "6c40e9426e2b9f8068b083cff66b50e7730271ca078e9c3ecf5ba3ca25dcda0a",
    "verify --p 5 --p 7":
        "0e9eaf5ad08bb785dbded977d7056fd87268173899d6f771435c1b15b09a4f25",
    # past the p <= 13 grid, where the closed forms divide the largest brackets
    "matrices --p 31 --c 2":
        "970d30d6385b5d8d14756b8d7398e25ad248966dd32f92d97e008e4b82a68ea1",
    "matrices --p 43 --c 0":
        "8b837e6383a8350914c3cc14b891afe5d77db1c97f78485b2316f6aacf5531fc",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_stdout_is_byte_identical_to_golden(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
