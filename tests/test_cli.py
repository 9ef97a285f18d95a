"""Command-line interface: parsing, formats, determinism, exit codes."""

import ast
import csv
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys

import pytest

import simsun
from simsun import bijections, bulk, classes, cli, perms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_perm():
    assert cli.parse_perm("3412") == (3, 4, 1, 2)
    assert cli.parse_perm("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert cli.parse_perm("(1,4,3)(2)") == ((1, 4, 3), (2,))
    with pytest.raises(cli.UsageError):
        cli.parse_perm("abc")
    with pytest.raises(cli.UsageError):
        cli.parse_perm("11")  # not a permutation of [2]
    with pytest.raises(cli.UsageError):
        cli.parse_perm("(1,2(3)")


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "S", "--n", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,k,value"
    assert lines[-1] == "S,5,2,34"
    assert "S,5,1,26" in lines


def test_triangle_text_and_json(capsys):
    code, out, _ = run(capsys, "triangle", "T", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["T_0 = 1", "T_1 = x"]
    code, out, _ = run(capsys, "triangle", "S", "--n", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["command"] == "triangle"
    assert payload["results"][4]["poly"] == ["1", "11", "4"]


def test_triangle_errors(capsys):
    code, _, err = run(capsys, "triangle", "Zzz", "--n", "3")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "triangle", "Sxq", "--n", "3", "--format", "csv")
    assert code == 2


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "simsun1", "--n", "3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count 5"
    code, out, _ = run(capsys, "enumerate", "snakes", "--n", "2")
    assert out.strip().splitlines()[-1] == "count 3"
    code, out, _ = run(capsys, "enumerate", "simsun1", "--n", "1")
    assert out.strip().splitlines()[-1] == "count 1"
    code, _, err = run(capsys, "enumerate", "simsun1", "--n", "99")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "nope", "--n", "3")
    assert code == 2


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "simsun2", "--n", "4", "--format", "json")
    _, second, _ = run(capsys, "enumerate", "simsun2", "--n", "4", "--format", "json")
    assert first == second


# sha256 of the json listing at n = 8, recorded while cud read one-line
# words, the zigzags were grown from candidate masks and the second-kind
# tree stored signed standard cycle forms
LISTED_8 = {
    "cud": "2a2f04e8e2eecfe473fe034b31691a42bb94f360d8da62f7817e70fc00306e25",
    "alternating": "ae7813c6a181dbb4e40efeb60b109f1e367636a8c1662dda28c3f524746a91fc",
    "snakes": "2145cc1eb53180d239ebd543f1296bea60b351200489aaebf55e22f412d0e316",
    "simsun1": "d837bb0f655601d88f4d7c175812c1a9dd0f0b9cf0e7c3eb51a7c163295aed98",
    "simsun2": "6f9710f580cfe7344f8229962b33f97629ab3514cbe91481d10151a088a0038e",
}


@pytest.mark.parametrize("cls", sorted(LISTED_8))
def test_enumerate_listing_is_unchanged(capsys, cls):
    code, out, _ = run(capsys, "enumerate", cls, "--n", "8", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTED_8[cls]


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "p-low-coeffs", "--bogus"])
        assert exit_.value.code == 2
    code, out, _ = run(capsys, "verify", "p-low-coeffs", "--n-max", "3")
    assert code == 0 and out == "p-low-coeffs: bound 3: pass\n"


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "p-low-coeffs", "--n-max", "8")
    assert code == 0
    assert "pass" in out
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    for argv in (("all", "--n-max", "-1"), ("t-split", "--n-max", "-3")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "must be nonnegative" in err


def test_sweep_over_row_budget_exits_2(capsys, monkeypatch):
    # a tiny budget stands in for a level too large for the machine
    monkeypatch.setattr(perms, "ROW_BUDGET", 1000)

    def refuse(*args):
        raise AssertionError("a level was built before the budget check")

    with monkeypatch.context() as patch:
        # the bound is refused up front, before any level is built
        patch.setattr(classes, "grow", refuse)
        code, out, err = run(capsys, "verify", "enum-descents", "--n-max", "8")
    assert code == 2 and out == "" and err.startswith("error:")
    assert sum(bulk.simsun_word_distributions(5)[5].values()) == 61


def test_listing_over_row_budget_exits_2(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a zigzag level was built before the budget check")

    monkeypatch.setattr(perms, "_extend_zigzags", refuse)
    # E_14 = 199,360,981 rows: the largest n is asked for first and refused
    code, out, err = run(capsys, "verify", "euler-convolution", "--n-max", "13")
    assert code == 2 and out == "" and "199,360,981 rows" in err
    monkeypatch.setattr(perms, "ROW_BUDGET", 1000)
    # E_9 = 7,936 and S_6 = 2,763 rows
    for identity, n_max in (("euler-convolution", "8"), ("series-springer", "6")):
        code, out, err = run(capsys, "verify", identity, "--n-max", n_max)
        assert code == 2 and out == "" and err.startswith("error:")
    # 6! = 720 permutations are streamed, 7! = 5,040 are refused up front
    stream, blocks = perms.permutation_chunks, []

    def recorded(n):
        for block in stream(n):
            blocks.append(block.shape)
            yield block

    monkeypatch.setattr(perms, "permutation_chunks", recorded)
    code, out, err = run(capsys, "verify", "filter-matches-generator", "--n-max", "6")
    assert code == 0 and blocks[0] == (720, 6)
    blocks.clear()
    code, out, err = run(capsys, "verify", "filter-matches-generator", "--n-max", "7")
    assert code == 2 and out == "" and "5,040 rows" in err
    assert blocks == []


def test_closed_pipe_exits_141_without_traceback():
    # 7,936 lines, more than a pipe buffer: the reader stops after one
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "simsun.cli", "enumerate", "simsun1", "--n", "8"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"perm=1,2,3,4,5,6,7,8")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert b"Traceback" not in err and code == 141


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "t-split", "--n-max", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    (result,) = payload["results"]
    assert result == {"identity": "t-split", "bound": 6, "ok": True, "detail": "", "cases": 30}


def test_bijection_perm(capsys):
    code, out, _ = run(capsys, "bijection", "psi", "--perm", "3412")
    assert code == 0
    assert "(1^{u1}43^{v1})(2^{v2})" in out
    code, out, _ = run(capsys, "bijection", "phi", "--perm", "1")
    assert code == 0
    assert "image:  12" in out and "image:  21" in out
    code, out, _ = run(capsys, "bijection", "psi", "--perm", "(1,4,3)(2)")
    assert code == 0
    assert "^{y1}34^{x1}1^{y2}2" in out


def test_bijection_errors(capsys):
    code, _, err = run(capsys, "bijection", "psi", "--perm", "321")
    assert code == 2 and "not simsun" in err
    code, _, err = run(capsys, "bijection", "phi")
    assert code == 2
    code, _, err = run(capsys, "bijection", "phi", "--perm", "(1,2)")
    assert code == 2
    code, out, err = run(capsys, "bijection", "phi", "--perm", "12", "--n", "3")
    assert code == 2 and out == "" and "exactly one of --perm and --n" in err
    for perm in ("(1,,2)", "(1,2,)", "(1)()"):  # an empty entry or cycle
        code, out, err = run(capsys, "bijection", "psi", "--perm", perm)
        assert code == 2 and out == "" and "bad cycle syntax" in err


def test_bijection_psi_long_input(capsys):
    # the replay is iterative: a long history does not exhaust the stack
    word = ",".join(map(str, range(1, 1101)))
    code, out, _ = run(capsys, "bijection", "psi", "--perm", word)
    assert code == 0
    assert out.splitlines()[1].endswith("(1099^{v1099})(1100^{v1100})")
    cycles = "".join(f"({i})" for i in range(1, 1101))
    code, out, _ = run(capsys, "bijection", "psi", "--perm", cycles)
    assert code == 0
    assert out.splitlines()[1].endswith("1099^{y1100}1100")


def test_psi_input_over_limit_exits_2(capsys, monkeypatch):
    def refuse(tree, level):
        raise AssertionError("the history was read before the length check")

    monkeypatch.setattr(bijections, "PSI_LENGTH_LIMIT", 10)
    with monkeypatch.context() as patch:
        patch.setattr(classes, "strip", refuse)
        for perm in (",".join(map(str, range(1, 12))), "".join(f"({i})" for i in range(1, 12))):
            code, out, err = run(capsys, "bijection", "psi", "--perm", perm)
            assert code == 2 and out == "" and "11 letters" in err
    code, out, _ = run(capsys, "bijection", "psi", "--perm", ",".join(map(str, range(1, 11))))
    assert code == 0 and out.startswith("source:")


def test_phi_block_over_limit_exits_2(capsys, monkeypatch):
    def refuse(name, level):
        raise AssertionError("the block was built before the limit check")

    monkeypatch.setattr(bijections, "_map", refuse)
    # n - des = 30: 2^30 images
    code, out, err = run(capsys, "bijection", "phi", "--perm", ",".join(map(str, range(1, 31))))
    assert code == 2 and out == "" and err.startswith("error:") and "2^30" in err
    # n - des = 19 is one over the limit: 2^19 > 2^18
    code, _, err = run(capsys, "bijection", "phi", "--perm", ",".join(map(str, range(1, 20))))
    assert code == 2 and "2^19" in err
    # n - des = 18 is admitted
    monkeypatch.setattr(bijections, "_map", lambda name, level: (level[:0], level[:0, 0]))
    code, out, _ = run(capsys, "bijection", "phi", "--perm", ",".join(map(str, range(1, 19))))
    assert code == 0 and out.startswith("source:")


def test_too_large_is_one_exception():
    # both bounds are refused before any level or block is built
    with pytest.raises(simsun.TooLarge):
        bulk.simsun_word_distributions(13)
    with pytest.raises(simsun.TooLarge):
        bijections.phi_forward(tuple(range(1, 31)))


def test_bijection_rejects_csv(capsys):
    for argv in (["phi", "--n", "3"], ["psi", "--perm", "3412"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bijection", *argv, "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_bijection_exhaustive(capsys, monkeypatch):
    code, out, _ = run(capsys, "bijection", "phi", "--n", "4")
    assert code == 0 and "pass" in out
    code, _, err = run(capsys, "bijection", "phi", "--n", "12")
    assert code == 2
    code, _, err = run(capsys, "bijection", "psi", "--n", "0")
    assert code == 2
    # the only bound on --n is the row budget: phi at 4 writes 5! * 6 = 720
    # letters at its last level, at 5 it would write 6! * 7 = 5,040
    monkeypatch.setattr(perms, "ROW_BUDGET", 1000)
    code, out, _ = run(capsys, "bijection", "phi", "--n", "4")
    assert code == 0 and "pass" in out
    code, _, err = run(capsys, "bijection", "phi", "--n", "5")
    assert code == 2 and "budget 1,000" in err


def test_oversized_phi_is_refused_before_its_tables(capsys, monkeypatch):
    def refuse(m):
        raise AssertionError(f"a table of 2^{m - 1} rows was built before the budget check")

    monkeypatch.setattr(perms, "mask_stats", refuse)
    code, _, err = run(capsys, "bijection", "phi", "--n", "30")
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, "verify", "phi-partition", "--n-max", "20")
    assert code == 2 and "budget" in err


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "all", "--n-max", "5")
    assert code == 0
    assert out.count("pass") == 4
    code, _, err = run(capsys, "roots", "nope")
    assert code == 2
    code, out, _ = run(capsys, "roots", "all", "--n-max", "1")
    assert code == 1
    assert out.count("pass") == 1 and out.count("FAIL (no cases checked)") == 3
    code, _, _ = run(capsys, "roots", "all", "--n-max", "-1")
    assert code == 2
    code, out, _ = run(capsys, "roots", "roots-successive", "--n-max", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["suite,bound,ok,detail,cases", "roots-successive,5,True,,5"]


def test_series(capsys):
    code, out, _ = run(capsys, "series", "springer", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 1", "2: 3", "3: 11", "4: 57"]
    code, _, err = run(capsys, "series", "nope", "--order", "4")
    assert code == 2
    code, _, err = run(capsys, "series", "Sxz", "--order", "99")
    assert code == 2


def test_series_json_big_ints_are_strings(capsys):
    code, out, _ = run(capsys, "series", "Sxz", "--order", "6", "--format", "json")
    payload = json.loads(out)
    assert payload["results"][4]["poly"] == ["1", "11", "4"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["triangle"])  # missing required --n
    assert exc.value.code == 2


def test_enumerate_csv_is_one_table(capsys):
    # the count row goes through the same csv writer as the members
    code, out, _ = run(capsys, "enumerate", "simsun1", "--n", "3", "--format", "csv")
    assert code == 0
    assert all(line.endswith("\r\n") for line in out.splitlines(keepends=True))
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert len(rows) == 7 and rows[0] == ["perm", "des", "lpk", "pk", "uprun"]
    assert rows[-1] == ["count", "5"]


EMPTY = hashlib.sha256(b"").hexdigest()

# command -> (sha256 of stdout, stderr, exit code), recorded while each
# subcommand wrote its own formats; the enumerate csv listings were recorded
# once their count row ended in CRLF like the rows above it
PINNED = {
    "triangle S --n 5 --format text": (
        "f6898eaa612c3fc5278b5e4838f61a12013e59d569686c26a4bf6d0060b3313c", "", 0),
    "triangle S --n 5 --format csv": (
        "259d553a95bf4c1d871394dd6a41dc494142519d7705fa5e3ddcb5fcc9e9b858", "", 0),
    "triangle S --n 5 --format json": (
        "301e2203e88e3bdf6ca6e80ad73aa562959f58963dbd4bd1e7246c9a649001d4", "", 0),
    "triangle Sxq --n 4 --format json": (
        "bfdeaacdb8e0c72e509c4b27f2a6e3e39a5772bab6416f66f3df1d30f68fec14", "", 0),
    "triangle Sxq --n 4 --format csv": (
        EMPTY, "error: family Sxq is not univariate; csv unavailable\n", 2),
    "enumerate simsun1 --n 5 --format text": (
        "e2fe8b347d68caee72feaf48260ef4d496436c9a753f97d1fd9b04bc2770e452", "", 0),
    "enumerate simsun1 --n 5 --format csv": (
        "ca8faaafc4b8775c6cbaf9dd35cc3165a33e8ee10f8c250c57c382ef369d28bb", "", 0),
    "enumerate simsun1 --n 5 --format json": (
        "f0dfeaacff8d41dedea4bd0dfc9fbea5cbc9cbc2a85ceee39951d487336917fe", "", 0),
    "enumerate simsun2 --n 5 --format text": (
        "cb1853a9504c49d5b94d906faf7890f1dcac9674a72783a44b324b8e3c50a48c", "", 0),
    "enumerate simsun2 --n 5 --format csv": (
        "57fc28dbbcd2cb4a85123c0b9510f652dcb548fe471e6fa672c0cee29723ef4a", "", 0),
    "enumerate simsun2 --n 5 --format json": (
        "c3f59f988504207701952f715a04cad94f1603b8c261f4b46695a5eef7a512ab", "", 0),
    "enumerate snakes --n 5 --format text": (
        "a9d5621319b264ceaa7f1ed30ab50356bbd5cb72dc62ea87fee0aa5caedf2be8", "", 0),
    "enumerate snakes --n 5 --format csv": (
        "3fd0d29c4887319f716214d5f90ab96d14c8e049a3d77475a539d8f1e3f0d145", "", 0),
    "enumerate snakes --n 5 --format json": (
        "a403f3627716f6763f78e9b62f5cdacc6cd77d9f1240ec8df5acd7bebe1c5b7f", "", 0),
    "enumerate alternating --n 5 --format text": (
        "a60e9b5764778cd8090a5ee32febeb8e39f1f7d1e8fea51bf11c93e310b94c9e", "", 0),
    "enumerate alternating --n 5 --format csv": (
        "77e36568dfd15e2e3d2320c51b5847df158520bba6c2a2362f773437ba66f2ac", "", 0),
    "enumerate alternating --n 5 --format json": (
        "2812787c4a76684b149612f92d971968711c18b33e25ba62930960f1dee07d2b", "", 0),
    "enumerate cud --n 5 --format text": (
        "87ba6ad6a0777cd12d2ed89b09bfd9b9a22f41d9c3ff50fca1eb221a170be1ea", "", 0),
    "enumerate cud --n 5 --format csv": (
        "35d8d1a4868a0759b66cc057a10e2916f452940c5d7ada1e196d63a3c389e547", "", 0),
    "enumerate cud --n 5 --format json": (
        "20a8081e8f69be6c89b22129a127c782dd6dc22c756d7c29cf0f9d5fa2172c35", "", 0),
    "verify all --n-max 4 --format text": (
        "92fb26a504701ff6ca7e2f0efc1fff5348bfdfc0405dbef7aedc72fd4c4cf9ad", "", 0),
    "verify all --n-max 4 --format csv": (
        "6084a0b4411e7a1afa455badeaaec50b4c4a7ab9dcb3cf07b5c3b0a3fd2da5bf", "", 0),
    "verify all --n-max 4 --format json": (
        "f1103057d9a761d7d7578f25df3db81bb1d8bbe1ebcbaeb5090e595f688fd069", "", 0),
    "verify nope --n-max 4": (EMPTY, "error: unknown identity 'nope'\n", 2),
    "verify all --n-max -1": (EMPTY, "error: --n-max must be nonnegative\n", 2),
    "roots all --n-max 6 --format text": (
        "124854b4df1c9873fafcc302c4fc5f0524b484141f42fc99f98fe52ce4844831", "", 0),
    "roots all --n-max 6 --format csv": (
        "59c45aee2ec28b5e232dc2e82a1ee4517f8d45902c129473a1d1bf4a5806be24", "", 0),
    "roots all --n-max 6 --format json": (
        "0d89492c593afcac315ad65168b61e0b10e08c1936591508776deb26ff9bb99b", "", 0),
    "roots all --n-max 1 --format csv": (
        "ce6ad1e01ee2e6addd84343f158c046207c9e4ca911cdc2730f1b37b4ce23d65", "", 1),
    "bijection phi --perm 3412 --format text": (
        "ae03b9fcbf2bd7beddd43cbefe20059040817540bc845f48aee64500f3836007", "", 0),
    "bijection phi --perm 3412 --format json": (
        "f4654f58886fb47de811da97c76e15b6649f30b12ea359ecb3751c650f1e96f4", "", 0),
    "bijection psi --perm 3412 --format text": (
        "6b7bc5ce914cd2471bc56169532d6bf89e33d06c49c6ee73448959237d2b6441", "", 0),
    "bijection psi --perm 3412 --format json": (
        "369c79903e6ee3cb6d7f93f99a5a79267c31688b7b39059575cb131aafe37b9b", "", 0),
    "bijection psi --perm (1,4,3)(2) --format text": (
        "8022a60dc38a27110a591e9ee355f40d1af789df55235b260f155578ed1116d7", "", 0),
    "bijection psi --perm (1,4,3)(2) --format json": (
        "f5f5610dde55597ca28c83a41cb6e3e429cc3a0338a360e106be84156c12985c", "", 0),
    "bijection phi --n 4": (
        "e48e7df6d9b2deef9fd99b93187480b5498e8cd71f04d44a63adeacfc6d034e5", "", 0),
    "bijection psi --n 4": (
        "ec338272251e604b10350e3a7f5f65fe2b91206125b1bf4a796f5c424c65972d", "", 0),
    "bijection psi --perm (1,2": (EMPTY, "error: bad cycle syntax: '(1,2'\n", 2),
    "bijection psi --perm (1)(2": (EMPTY, "error: bad cycle syntax: '(1)(2'\n", 2),
    "bijection psi --perm 1,2,,3": (EMPTY, "error: bad permutation: '1,2,,3'\n", 2),
    "bijection psi --perm abc": (EMPTY, "error: bad permutation: 'abc'\n", 2),
    "bijection psi --perm 11": (EMPTY, "error: not a permutation of [n]: (1, 1)\n", 2),
    "bijection psi --perm (1)(1)": (
        EMPTY, "error: cycles do not cover [n] exactly once: ((1,), (1,))\n", 2),
    "series springer --order 8": (
        "49d08e09a3d8f8d4abe87667ebb365b0c0e90b215aae3a164e6fd0bd6ec49de2", "", 0),
    "series springer --order 8 --format csv": (
        "efb451ddbee9dc5135f9db22d6f91e1f5f8598e125d4e3125f5f8337db554aa8", "", 0),
    "series Sxqz --order 5 --format json": (
        "cedc1ada450dca3e17d1d14132fa80698962c8b14fe35d2f6d2a777b406843e0", "", 0),
    "series Sxz --order 99": (EMPTY, "error: order=99 out of range (max 24)\n", 2),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_output_is_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), err, code) == PINNED[command]


def test_only_emit_writes_to_stdout():
    tree = ast.parse(inspect.getsource(cli))
    emit = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_emit")
    inside = {id(node) for node in ast.walk(emit)}
    called = [ast.unparse(node.func) for node in ast.walk(emit) if isinstance(node, ast.Call)]
    assert called.count("json.dumps") == 1 and called.count("csv.writer") == 1
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        name = ast.unparse(node.func)
        assert not name.startswith(("json.", "csv.")) and not name.endswith(("write", "writelines"))
        if name == "print":  # main's errors go to stderr
            assert any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                       for k in node.keywords), ast.unparse(node)
