import argparse
import hashlib
import importlib
import inspect
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

import treedegree
from treedegree import (
    MarkedKaryTree,
    bar_delta_decode,
    format_composition,
    format_kary_tree,
    format_marked_kary_tree,
    format_plane_tree,
    fundamental_decomposition,
)
from treedegree import verification
from treedegree.cli import build_parser, main
from golden import (
    BINARY_TABLE,
    SAMPLE_CYCLIC_WORD,
    SAMPLE_MARK,
    SAMPLE_TERNARY_8,
    SAMPLE_TERNARY_ALPHA,
    SAMPLE_TERNARY_MARK,
    SAMPLE_TREE_14,
)


EMPTY = hashlib.sha256(b"").hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_plane_text(self, capsys):
        code, out, _ = run_cli(capsys, "count", "plane", "--edges", "2", "--outdegree", "0")
        assert code == 0 and out == "3\n"

    def test_kary_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "kary", "--arity", "2", "--edges", "2", "--outdegree", "1"
        )
        assert code == 0 and out == "8\n"

    def test_plane_json_uses_decimal_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "plane", "-n", "40", "-i", "0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "treedegree/1"
        assert doc["n"] == "40" and doc["i"] == "0"
        assert isinstance(doc["count"], str)
        from treedegree import binomial

        assert int(doc["count"]) == binomial(79, 39)

    @pytest.mark.parametrize(
        "argv, digits, digest",
        [
            (
                ["plane", "-n", "7300", "-i", "1"],
                4393,
                "b5a585e5733c1a77fdaebffb690004da459cdadb4e403aa640a80208d60b9b3b",
            ),
            (
                ["kary", "-k", "3", "-n", "6000", "-i", "1"],
                4974,
                "538d810bb736cc4e0c3c89f66620c8cc4703413e05497d242ed6341a7818d056",
            ),
        ],
    )
    def test_counts_past_the_decimal_digit_cap(self, capsys, argv, digits, digest):
        # Python 3.11 (and 3.10.7) refuse str() of ints over 4,300 digits
        # by default; the CLI prints the exact count in full and then puts
        # the caller's cap back. The digest is of the count's digits plus a
        # newline, so it pins the text output and the JSON count alike.
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, text, err = run_cli(capsys, "count", *argv)
        assert (code, err, len(text)) == (0, "", digits + 1)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        code, out, err = run_cli(capsys, "count", *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] + "\n" == text
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "plane", "-n", "0", "-i", "0")
        assert code == 2 and "error:" in err

    def test_usage_error_exits_2(self, capsys):
        assert main(["count", "plane", "--edges", "2"]) == 2
        capsys.readouterr()
        assert main(["count", "mystery"]) == 2
        capsys.readouterr()


class TestEnumerate:
    def test_plane_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "plane", "-n", "2")
        assert code == 0 and out == "(())\n()()\n"

    def test_kary_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "kary", "-k", "2", "-n", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "5"
        assert len(doc["trees"]) == 5

    def test_guard_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEDEGREE_GUARD", "3")
        code, _, err = run_cli(capsys, "enumerate", "plane", "-n", "4")
        assert code == 2 and "guard" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_default_guard_prints_nothing(self, capsys, fmt):
        code, out, err = run_cli(capsys, "enumerate", "plane", "-n", "15", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            "error: plane-tree enumeration exceeds the enumeration guard (15 > 14); "
            "set TREEDEGREE_GUARD to raise the limit\n"
        )

    @pytest.mark.parametrize(
        "argv", [["enumerate", "plane", "-n", "12"], ["table", "--max-edges", "200"]]
    )
    def test_a_closed_pipe_exits_0_quietly(self, argv):
        # ``| head -1``: the reader closes the pipe after one line, while the
        # writer still has megabytes to go. That is no mismatch: exit 0 with
        # nothing on stderr.
        src = os.path.dirname(os.path.dirname(treedegree.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "treedegree", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b"")
        assert first.endswith(b"\n") and len(first) > 1

    def test_a_wide_tree_with_no_edges_is_refused_at_once(self, capsys):
        # The one 0-edge tree is a word of k + 1 entries: the guard charges k.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "kary", "-k", "1000000", "-n", "0")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: k-ary tree enumeration exceeds the enumeration guard (1000000 > 24); "
            "set TREEDEGREE_GUARD to raise the limit\n"
        )

    def test_determinism(self, capsys):
        first = run_cli(capsys, "enumerate", "kary", "-k", "3", "-n", "2")
        second = run_cli(capsys, "enumerate", "kary", "-k", "3", "-n", "2")
        assert first == second


class TestEncodeDecode:
    def test_worked_marked_plane_decode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decode",
            "plane",
            "--word",
            format_composition(SAMPLE_CYCLIC_WORD),
            "--outdegree",
            "2",
        )
        assert code == 0
        assert out.strip() == format_plane_tree(SAMPLE_TREE_14) + "@4"

    def test_plane_decode_without_outdegree(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "plane", "--word", "(2,0,0)")
        assert code == 0 and out == "()()\n"

    def test_plane_pair_roundtrip_through_cli(self, capsys):
        tree_text = format_plane_tree(SAMPLE_TREE_14)
        code, word_out, _ = run_cli(
            capsys, "encode", "plane-pair", "--tree", tree_text, "--mark", str(SAMPLE_MARK)
        )
        assert code == 0
        assert word_out.strip() == format_composition(SAMPLE_CYCLIC_WORD)
        code, tree_out, _ = run_cli(
            capsys, "decode", "plane-pair", "--word", word_out.strip()
        )
        assert code == 0
        assert tree_out.strip() == f"{tree_text}@{SAMPLE_MARK}"

    def test_plane_pair_outdegree_cross_check(self, capsys):
        code, _, err = run_cli(
            capsys,
            "decode",
            "plane-pair",
            "--word",
            format_composition(SAMPLE_CYCLIC_WORD),
            "-i",
            "3",
        )
        assert code == 2 and "outdegree" in err

    def test_kary_pair_roundtrip_through_cli(self, capsys):
        tree_text = format_kary_tree(SAMPLE_TERNARY_8)
        code, word_out, _ = run_cli(
            capsys,
            "encode",
            "kary-pair",
            "--tree",
            tree_text,
            "--mark",
            str(SAMPLE_TERNARY_MARK),
        )
        assert code == 0
        assert word_out.strip() == format_composition(SAMPLE_TERNARY_ALPHA)
        code, out, _ = run_cli(
            capsys, "decode", "kary-pair", "--word", word_out.strip(), "-k", "3"
        )
        assert code == 0
        assert out.strip() == f"{tree_text}@{SAMPLE_TERNARY_MARK}"

    def test_subsets_roundtrip_through_cli(self, capsys):
        word_text = format_composition(SAMPLE_TERNARY_ALPHA)
        code, out, _ = run_cli(capsys, "encode", "subsets", "--word", word_text)
        assert code == 0
        assert out.strip() == '{"k":3,"n":8,"X":[1,3],"Y":[8,11,12,16,21,22]}'
        code, out, _ = run_cli(
            capsys,
            "decode",
            "subsets",
            "--X",
            "1,3",
            "--Y",
            "8,11,12,16,21,22",
            "-k",
            "3",
            "-n",
            "8",
        )
        assert code == 0 and out.strip() == word_text

    def test_empty_subsets(self, capsys):
        code, out, _ = run_cli(
            capsys, "decode", "subsets", "-k", "2", "-n", "0"
        )
        assert code == 0 and out.strip() == "(0,0)"

    def test_table_rows_through_cli(self, capsys):
        for x, y, word, tree, mark in BINARY_TABLE:
            code, out, _ = run_cli(
                capsys,
                "decode",
                "subsets",
                "--X",
                ",".join(str(v) for v in sorted(x)),
                "--Y",
                ",".join(str(v) for v in sorted(y)),
                "-k",
                "2",
                "-n",
                "2",
            )
            assert code == 0 and out.strip() == format_composition(word)
            code, out, _ = run_cli(
                capsys, "decode", "kary-pair", "--word", format_composition(word)
            )
            assert code == 0
            assert out.strip() == format_marked_kary_tree(MarkedKaryTree(tree, mark))

    def test_bad_word_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "decode", "plane", "--word", "(2,0)")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "family, tree, vertices",
        [("plane-pair", "(())()", 4), ("kary-pair", "( ( . . ) . )", 2)],
    )
    @pytest.mark.parametrize("outside", [0, 1])
    def test_mark_out_of_range_exits_2(self, capsys, family, tree, vertices, outside):
        mark = 0 if outside == 0 else vertices + 1
        code, out, err = run_cli(capsys, "encode", family, "--tree", tree, "--mark", str(mark))
        assert (code, out) == (2, "")
        assert err == f"error: mark {mark} out of range 1..{vertices}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "plane-pair", "--word", "(2,2)"], "word sum exceeds its length: '(2,2)'"),
        (
            ["decode", "subsets", "-k", "2", "-n", "1", "--X", "a"],
            "--X must be comma-separated integers: 'a'",
        ),
        (
            ["decode", "subsets", "-k", "2", "-n", "1", "--Y", "1,1"],
            "--Y contains repeated elements: '1,1'",
        ),
        (["table", "--max-edges", "0"], "--max-edges must be at least 1"),
        (["table", "-k", "0"], "--arity must be at least 1"),
        (["encode", "subsets", "--word", "(2,0,0,0)", "-n", "2"], "word encodes n=1, expected 2"),
        (
            ["decode", "kary-pair", "--word", "(2,0,0,0)", "-n", "2"],
            "word encodes n=1, expected 2",
        ),
        (
            ["encode", "kary-pair", "--tree", "(.)", "--mark", "1", "-k", "0"],
            "arity must be at least 1",
        ),
        (
            ["encode", "kary-pair", "--tree", "(.)", "--mark", "1", "-k", "-1"],
            "arity must be at least 1",
        ),
    ],
    ids=["word-sum", "X-not-integers", "Y-repeated", "table-edges", "table-arity",
         "encode-subsets-n", "decode-kary-pair-n", "encode-kary-pair-arity-0",
         "encode-kary-pair-arity-negative"],
)
def test_validation_messages_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# One argv per leaf command, each of which exits 0.
LEAF_ARGV = [
    "count plane -n 5 -i 2",
    "count kary -k 3 -n 4 -i 1",
    "enumerate plane -n 4",
    "enumerate kary -k 2 -n 3",
    "encode plane-pair --tree (()(()))() --mark 3",
    "encode kary-pair --tree '( ( . . ) . )' --mark 2",
    "encode subsets --word (3,0,0,0,0,3,0,0,0,0,3,0,0,3,3,0,0,0,3,0,0,0,0,3,3,0,0)",
    "decode plane --word (0,2,0,0,0,3,0,0,2,0,0,3,2,0) --outdegree 2",
    "decode plane-pair --word (1,0,2,0)",
    "decode kary-pair --word (2,0,0,2,0,0)",
    "decode subsets -k 3 -n 8 --X 1,3 --Y 8,11,12,16,21,22",
    "verify all --max-edges 4 --max-arity 2",
    "table -k 2 --max-edges 6",
]


@pytest.mark.parametrize("argv", LEAF_ARGV)
def test_json_names_the_schema_and_the_subcommand(capsys, argv):
    argv = shlex.split(argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert (code, doc["schema"], doc["kind"]) == (0, "treedegree/1", argv[0])


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-edges", "4", "--max-arity", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_each_subcommand(self, capsys):
        for what in ["theorem1", "theorem2", "identity1", "fine", "lagrange", "bijections"]:
            code, out, _ = run_cli(
                capsys, "verify", what, "--max-edges", "3", "--max-arity", "2"
            )
            assert code == 0, what
            assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_checks_per_subcommand(self, capsys):
        sizes = {
            "theorem1": 2, "theorem2": 2, "identity1": 1, "fine": 1, "lagrange": 6, "bijections": 6
        }
        lines = []
        for what, size in sizes.items():
            code, out, _ = run_cli(capsys, "verify", what, "--max-edges", "3", "--max-arity", "2")
            assert code == 0 and len(out.splitlines()) == size, what
            lines += out.splitlines()
        code, out, _ = run_cli(capsys, "verify", "all", "--max-edges", "3", "--max-arity", "2")
        assert code == 0 and out.splitlines() == lines

    def test_lagrange_runs_at_the_given_arity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lagrange", "--max-arity", "1")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)
        arity_scopes = [line for line in lines if "k=1.." in line]
        assert len(arity_scopes) == 3
        assert all("k=1..1," in line or "k=1..1]" in line for line in arity_scopes)

    @pytest.mark.parametrize(
        "bounds, fmt, digest",
        [
            ([], "text", "aaaa09b08f6846a46c16327eea9b92de035efc8d1ed3006630f50c06dc10b1e3"),
            ([], "json", "551246760ee15e35c24db3cdb8548f8db96505fff79665e28639b5046f90031b"),
            (
                ["--max-edges", "10", "--max-arity", "4"],
                "text",
                "be64e5ff3b205cf4cbbdbf367bed8786d6156fe665ddfb6e6185f4945e259976",
            ),
            (
                ["--max-edges", "10", "--max-arity", "4"],
                "json",
                "a7eae87edeb80d040843514e99ef6f27e3e741dd146430ccaf1b1286249e3b71",
            ),
        ],
    )
    def test_verify_all_is_pinned(self, capsys, bounds, fmt, digest):
        code, out, _ = run_cli(capsys, "verify", "all", *bounds, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bounds_below_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "fine", "--max-edges", "0")
        assert (code, out) == (2, "") and "at least 1" in err

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem1", "--max-edges", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(check["status"] == "pass" for check in doc["checks"])

    @pytest.fixture
    def tampered_binomial(self, monkeypatch):
        import treedegree.exact_math as exact_math

        honest = exact_math.binomial

        def tampered(n, m):
            value = honest(n, m)
            return value + 1 if (n, m) == (3, 1) else value

        monkeypatch.setattr(exact_math, "binomial", tampered)

    def test_tampered_formula_fails_with_smallest_counterexample(self, capsys, tampered_binomial):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--max-edges", "4")
        assert code == 1
        fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fail_lines
        # C(3, 1) feeds the n=2, i=0 cell; that is the smallest broken one.
        assert "n=2 i=0" in fail_lines[0]

    def test_tampered_formula_fails_in_json(self, capsys, tampered_binomial):
        argv = ["verify", "theorem1", "--max-edges", "4", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False
        assert "fail" in [check["status"] for check in doc["checks"]]


# sha256 of each parser's --help stdout. argparse lays out help and errors
# differently across Python versions, so these are Python 3.11's, at 80
# columns. Those of "" and "verify" were taken before the commands imported
# their layers lazily; the rest while each leaf parser was written out by hand.
HELP_DIGESTS = {
    "": "72c7e8f1da9617f89a01f7b21496c454d35a4782e0b678608b81e43574483d56",
    "count": "cab0f314cbf8eb4c98f482bbad36f419d50d551da35e6d236b1dae5df10fcfe9",
    "count plane": "3e57d34d9ade11d180b7468ab40e3e8b4e66724a34d1ea77be91fec72ba97f26",
    "count kary": "b748675e9f1ce7754f2accf906f44fcf432d5ef7c83b0da2bc8c0483222ce8b9",
    "enumerate": "5c74b0af9f24756fbd995d25a6021975a94928d1db3b78083fc20b2e2c24a93a",
    "enumerate plane": "ca3d1bc4af455c381189e44598e015dcbcf880ca1cb28d56185800f85c12f86f",
    "enumerate kary": "40b22c15bd0789b83deb8e3441810006ce2fa14223fa37eacf3666504585040a",
    "encode": "588a38e730013150055aa0dd08b24512bf80abed2506f881f39a88f1d3b58c75",
    "encode plane-pair": "819c5a9690fdffb8c1ba931500855dd81269a9eb0df7287a3def1478b2c152bf",
    "encode kary-pair": "51facb0467d3256f52fe10274e250bfbd2f77394c7a35be29a4c712a90d6ae3d",
    "encode subsets": "01705c47f6d911295ce0107c1e73aa7c225385171fb14161fa7a3fd3a370c8be",
    "decode": "9512146f844f54395a9da9f501c280cad057c04ba1b9bd6a02485f080f5e8ac7",
    "decode plane": "f95fe56e0c03a47ac28ad88f8b271f4941c2c55305512f84e840d851ad3f85b5",
    "decode plane-pair": "3c819ce289c027880cf0b266b1b1b05266adaaefbe0dc34e569769668ace9714",
    "decode kary-pair": "2d7278f0875f24b935c6c70b5a5b52268081b8b692dd65bc83454765c74a2a0d",
    "decode subsets": "6007ff3cbe2bd4d6453f550c25f92dde86b552d2b1c75cc83edbd476f6aac050",
    "verify": "7fcf21a236660d111a39738bc551e19f0f9a463f6a7c31f91435cf53c7dee872",
    "table": "695d66495c6e9ccdb6605cd7e896597e4cc17db2f08c325672e464b69c11d295",
}
PARSER_PINS = pytest.mark.parametrize(
    "argv, code, out_digest, err_digest",
    [
        *(([*path.split(), "--help"], 0, digest, EMPTY) for path, digest in HELP_DIGESTS.items()),
        (
            ["verify", "bogus"], 2,
            EMPTY, "195d5c71564ae8a289d42977d0ddf387b205e7b6117308f3957a74c16c9b24fd",
        ),
    ],
    ids=[*("-".join([*path.split(), "help"]) for path in HELP_DIGESTS), "verify-bogus"],
)
# Exact usage errors at 80 columns, in Python 3.11's wording (3.13 drops the
# quotes around the choices of an invalid-choice error). Exit code 2 and an
# empty stdout hold on every version.
USAGE_ERRORS = {
    "count plane -n 5": (
        "usage: treedegree count plane [-h] -n EDGES -i OUTDEGREE\n"
        "                              [--format {text,json}]\n"
        "treedegree count plane: error: the following arguments are required: -i/--outdegree\n"
    ),
    "enumerate tree -n 3": (
        "usage: treedegree enumerate [-h] {plane,kary} ...\n"
        "treedegree enumerate: error: argument family: invalid choice: 'tree'"
        " (choose from 'plane', 'kary')\n"
    ),
    "count kary -k 2 -n x -i 0": (
        "usage: treedegree count kary [-h] -k ARITY -n EDGES -i OUTDEGREE\n"
        "                             [--format {text,json}]\n"
        "treedegree count kary: error: argument -n/--edges: invalid int value: 'x'\n"
    ),
    "verify bogus": (
        "usage: treedegree verify [-h] [--max-edges MAX_EDGES] [-k MAX_ARITY]\n"
        "                         [--format {text,json}]\n"
        "                         {theorem1,theorem2,identity1,fine,lagrange,bijections,all}\n"
        "treedegree verify: error: argument what: invalid choice: 'bogus' (choose from"
        " 'theorem1', 'theorem2', 'identity1', 'fine', 'lagrange', 'bijections', 'all')\n"
    ),
    "table --format xml": (
        "usage: treedegree table [-h] [-k ARITY] [--max-edges MAX_EDGES]\n"
        "                        [--format {text,json,csv}]\n"
        "treedegree table: error: argument --format: invalid choice: 'xml'"
        " (choose from 'text', 'json', 'csv')\n"
    ),
    "decode subsets": (
        "usage: treedegree decode subsets [-h] [--X X] [--Y Y] -k ARITY -n EDGES\n"
        "                                 [--format {text,json}]\n"
        "treedegree decode subsets: error: the following arguments are required:"
        " -k/--arity, -n/--edges\n"
    ),
}
# vars(parse_args(argv)) for every leaf command, with func by name: long and
# short flags, omitted optional ones, and the three spellings of verify's -k.
PARSE_CORPUS = {
    "count plane -n 5 -i 2": dict(
        command="count", family="plane", edges=5, outdegree=2, format="text",
        func="_cmd_count_plane",
    ),
    "count plane --edges 5 --outdegree 2 --format json": dict(
        command="count", family="plane", edges=5, outdegree=2, format="json",
        func="_cmd_count_plane",
    ),
    "count kary -k 3 -n 4 -i 1": dict(
        command="count", family="kary", arity=3, edges=4, outdegree=1, format="text",
        func="_cmd_count_kary",
    ),
    "count kary --arity 2 --edges 3 --outdegree 0 --format json": dict(
        command="count", family="kary", arity=2, edges=3, outdegree=0, format="json",
        func="_cmd_count_kary",
    ),
    "enumerate plane -n 3": dict(
        command="enumerate", family="plane", edges=3, format="text", func="_cmd_enumerate_plane",
    ),
    "enumerate kary -k 2 -n 3 --format json": dict(
        command="enumerate", family="kary", arity=2, edges=3, format="json",
        func="_cmd_enumerate_kary",
    ),
    "enumerate kary --arity 3 --edges 2": dict(
        command="enumerate", family="kary", arity=3, edges=2, format="text",
        func="_cmd_enumerate_kary",
    ),
    "encode plane-pair --tree '(())' --mark 2": dict(
        command="encode", what="plane-pair", tree="(())", mark=2, format="text",
        func="_cmd_encode_plane_pair",
    ),
    "encode kary-pair --tree '( . . )' --mark 1": dict(
        command="encode", what="kary-pair", tree="( . . )", mark=1, arity=None, format="text",
        func="_cmd_encode_kary_pair",
    ),
    "encode kary-pair --tree . --mark 1 -k 2 --format json": dict(
        command="encode", what="kary-pair", tree=".", mark=1, arity=2, format="json",
        func="_cmd_encode_kary_pair",
    ),
    "encode subsets --word '(3,0,0,0)'": dict(
        command="encode", what="subsets", word="(3,0,0,0)", arity=None, edges=None, format="text",
        func="_cmd_encode_subsets",
    ),
    "encode subsets --word '(3,0,0,0)' -k 3 -n 1 --format json": dict(
        command="encode", what="subsets", word="(3,0,0,0)", arity=3, edges=1, format="json",
        func="_cmd_encode_subsets",
    ),
    "decode plane --word '(1,0)'": dict(
        command="decode", what="plane", word="(1,0)", outdegree=None, format="text",
        func="_cmd_decode_plane",
    ),
    "decode plane --word '(1,0)' -i 1": dict(
        command="decode", what="plane", word="(1,0)", outdegree=1, format="text",
        func="_cmd_decode_plane",
    ),
    "decode plane-pair --word '(1,0)'": dict(
        command="decode", what="plane-pair", word="(1,0)", outdegree=None, format="text",
        func="_cmd_decode_plane_pair",
    ),
    "decode plane-pair --word '(1,0)' --outdegree 1 --format json": dict(
        command="decode", what="plane-pair", word="(1,0)", outdegree=1, format="json",
        func="_cmd_decode_plane_pair",
    ),
    "decode kary-pair --word '(3,0,0,0)'": dict(
        command="decode", what="kary-pair", word="(3,0,0,0)", arity=None, edges=None,
        outdegree=None, format="text", func="_cmd_decode_kary_pair",
    ),
    "decode kary-pair --word '(3,0,0,0)' -k 3 -n 1 -i 0": dict(
        command="decode", what="kary-pair", word="(3,0,0,0)", arity=3, edges=1, outdegree=0,
        format="text", func="_cmd_decode_kary_pair",
    ),
    "decode subsets -k 2 -n 1": dict(
        command="decode", what="subsets", X="", Y="", arity=2, edges=1, format="text",
        func="_cmd_decode_subsets",
    ),
    "decode subsets --X 1 --Y 1,2 --arity 2 --edges 1 --format json": dict(
        command="decode", what="subsets", X="1", Y="1,2", arity=2, edges=1, format="json",
        func="_cmd_decode_subsets",
    ),
    "verify all": dict(
        command="verify", what="all", max_edges=8, max_arity=3, format="text", func="_cmd_verify",
    ),
    "verify theorem1 --max-edges 4 -k 4": dict(
        command="verify", what="theorem1", max_edges=4, max_arity=4, format="text",
        func="_cmd_verify",
    ),
    "verify lagrange --arity 5": dict(
        command="verify", what="lagrange", max_edges=8, max_arity=5, format="text",
        func="_cmd_verify",
    ),
    "verify fine --max-arity 2 --format json": dict(
        command="verify", what="fine", max_edges=8, max_arity=2, format="json",
        func="_cmd_verify",
    ),
    "table": dict(command="table", arity=None, max_edges=8, format="text", func="_cmd_table"),
    "table -k 3 --max-edges 5 --format csv": dict(
        command="table", arity=3, max_edges=5, format="csv", func="_cmd_table",
    ),
    "table --arity 2 --format json": dict(
        command="table", arity=2, max_edges=8, format="json", func="_cmd_table",
    ),
}
PINNED_PYTHON = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="pinned on Python 3.11"
)


class TestParser:
    @PINNED_PYTHON
    @PARSER_PINS
    def test_parser_output_is_pinned(self, capsys, monkeypatch, argv, code, out_digest, err_digest):
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest

    @PINNED_PYTHON
    @PARSER_PINS
    def test_a_parser_built_narrow_prints_at_the_current_width(
        self, capsys, monkeypatch, argv, code, out_digest, err_digest
    ):
        # main keeps its first parser; help and usage errors still take the
        # width from COLUMNS when they are printed.
        monkeypatch.setenv("COLUMNS", "40")
        build_parser.cache_clear()
        build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest

    @pytest.mark.parametrize("argv, err", USAGE_ERRORS.items(), ids=list(USAGE_ERRORS))
    def test_usage_errors_are_exact(self, capsys, monkeypatch, argv, err):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, got = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        if sys.version_info[:2] == (3, 11):
            assert got == err

    @pytest.mark.parametrize("argv, expected", PARSE_CORPUS.items(), ids=list(PARSE_CORPUS))
    def test_parse_args_corpus(self, argv, expected):
        got = vars(build_parser().parse_args(shlex.split(argv)))
        assert {**got, "func": got["func"].__name__} == expected

    @staticmethod
    def _used_parser():
        # A new process parser that has already built every command: it has
        # parsed the whole corpus, last entry first.
        build_parser.cache_clear()
        parser = build_parser()
        for argv in reversed(PARSE_CORPUS):
            parser.parse_args(shlex.split(argv))
        return parser

    @PARSER_PINS
    def test_pinned_output_is_the_same_from_a_used_parser(
        self, capsys, monkeypatch, argv, code, out_digest, err_digest
    ):
        # Commands are built the first time a parse selects them; what was
        # built before changes no byte.
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        fresh = run_cli(capsys, *argv)
        self._used_parser()
        assert run_cli(capsys, *argv) == fresh
        assert fresh[0] == code

    def test_corpus_namespaces_are_the_same_from_a_used_parser(self):
        fresh = {}
        for argv in PARSE_CORPUS:
            build_parser.cache_clear()
            fresh[argv] = vars(build_parser().parse_args(shlex.split(argv)))
        parser = self._used_parser()
        assert {argv: vars(parser.parse_args(shlex.split(argv))) for argv in PARSE_CORPUS} == fresh

    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        calls = [
            ["verify", "theorem1", "--max-edges", "3"],
            ["verify", "theorem1", "--max-edges", "x"],
            ["--help"],
            ["count", "plane", "-n", "5", "-i", "2"],
            ["verify", "theorem1"],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]
        build_parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
        assert build_parser.cache_info().misses == 1

    def test_verify_choices_and_defaults_are_the_sweeps(self):
        parser = build_parser()
        parser.parse_args(["verify", "all"])  # builds verify's flags
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        verify = {a.dest: a for a in commands.choices["verify"]._actions}
        assert verify["what"].choices == [*verification.CHECKS, "all"]
        defaults = inspect.signature(verification.run_checks).parameters
        assert verify["max_edges"].default == defaults["max_edges"].default
        assert verify["max_arity"].default == defaults["max_arity"].default


class TestTable:
    def test_plane_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-edges", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "i/n,1,2,3\n"
            "0,1,3,10\n"
            "1,1,2,6\n"
            "2,0,1,3\n"
            "3,0,0,1\n"
        )

    def test_kary_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "-k", "2", "--max-edges", "3", "--format", "csv"
        )
        assert code == 0
        assert out == (
            "i/n,1,2,3\n"
            "0,2,6,20\n"
            "1,2,8,30\n"
            "2,0,1,6\n"
        )

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "-k", "3", "--max-edges", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "kary" and doc["k"] == "3"
        assert doc["columns"] == ["1", "2"]
        assert doc["rows"][0] == {"i": "0", "counts": ["3", "15"]}

    def test_text_mode_deterministic(self, capsys):
        first = run_cli(capsys, "table", "--max-edges", "4")
        second = run_cli(capsys, "table", "--max-edges", "4")
        assert first == second and first[0] == 0

    @pytest.mark.parametrize(
        "family, fmt, digest",
        [
            ([], "text", "777a0f9e97b2a8ca9a9e8a67a861d9d89542536acfb5742f85c56c008a9ad91f"),
            ([], "json", "254c0e029ff24b780b9cf96581fc8e5e07dac7bf0ef220f5651ad7edc23d37b5"),
            ([], "csv", "597b47949a7b58c5844da2f942246c722fb9a82f3c2b5712c10571fd3a845e2d"),
            (["-k", "3"], "text", "c4aafca6a6676d0d0dc40d9a59dd25790e1b48d215805040da0b5d98504b8868"),
            (["-k", "3"], "json", "29fc59a7ac54a371ba57582b9e63aaa978c13eec0e9b9d593d3386f62c5997ae"),
            (["-k", "3"], "csv", "4e8ff71e9d341f7ab86959d0c36322c780566f2435aede79125eee3137982a4f"),
        ],
    )
    def test_table_is_pinned(self, capsys, family, fmt, digest):
        code, out, _ = run_cli(capsys, "table", *family, "--max-edges", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "plane", "-n", "2", "-i", "0", "--format", "csv"
        )
        assert code == 2


class TestWordNative:
    def test_deep_binary_pair_encodes(self, capsys):
        # A left path of 3000 edges; marking the root cuts the completion
        # word (2,)*3001 + (0,)*3002 right after its first entry.
        depth = 3000
        text = "( " * (depth + 1) + ". . )" + " . )" * depth
        code, out, err = run_cli(capsys, "encode", "kary-pair", "--tree", text, "--mark", "1")
        assert (code, err) == (0, "")
        assert out == format_composition((2,) * depth + (0,) * (depth + 2)) + "\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["enumerate", "plane", "-n", "8"],
                "a2f1a404d884a7e3a6fe1f3b5e9dc6bab2d227a0a04e07174a64ba1d579a1cba",
            ),
            (
                ["enumerate", "kary", "-k", "3", "-n", "4"],
                "ae9ce6210bc0f472a70bfe529fbb85ddb3cd2256dbc49bb48ea6f0852dd9860a",
            ),
            (
                ["enumerate", "plane", "-n", "10", "--format", "json"],
                "d70eeb4e8f2da0456e8f9161a513e7544a17ee46ea4017a8930e0c0944ec246e",
            ),
            (
                ["enumerate", "plane", "-n", "12", "--format", "json"],
                "43d9f236b83af195903cb2c60fd8f9984672919c1caf78dec8fae082c7dd5c9f",
            ),
            (
                ["enumerate", "kary", "-k", "3", "-n", "6"],
                "84635eff96e3482bc7a717e40bef72bb28dd6e934720e6df480fa268bfc94796",
            ),
            (
                ["enumerate", "kary", "-k", "3", "-n", "6", "--format", "json"],
                "9c556ae6586e212d637e08d15d1670f0d36500f427728f580b0cc381fafa8760",
            ),
        ],
    )
    def test_enumeration_text_is_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _tail_heavy(honest):
    # The tail starts one unit block early: the last block moves to its front.
    def tail_start(word):
        units, _ = fundamental_decomposition(word)
        return honest(word) - len(units[-1])

    return tail_start


@pytest.mark.parametrize(
    "module, attr, fault, call, argv, message",
    [
        (
            "plane_trees",
            "_tail_start",
            _tail_heavy,
            lambda: bar_delta_decode(SAMPLE_CYCLIC_WORD, 2),
            ["decode", "plane-pair", "--word", format_composition(SAMPLE_CYCLIC_WORD)],
            "rebuilt word is not a unit composition",
        ),
    ],
    ids=["decoded-word-is-unit"],
)
def test_kept_self_checks_fire(monkeypatch, capsys, module, attr, fault, call, argv, message):
    # The one codec self-check, which ties a decoded word to a tree: the
    # rebuilt word must be a unit composition. The encoded word's i is
    # compared with the tree by ``verify bijections`` instead.
    target = importlib.import_module(f"treedegree.{module}")
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    with pytest.raises(AssertionError, match=message):
        call()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("consistency failure: ") and message in err
