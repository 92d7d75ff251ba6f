"""Command-line behavior: outputs, exit codes, byte fidelity."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import POINT_JSONTL, POINT_VALUE, WEB_STATS_TN
from helpers import run_cli
from treetext import parse, serialize


@pytest.fixture
def write(tmp_path):
    def _write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    return _write


# ---------------------------------------------------------------------------
# fmt and stats


def test_fmt_is_byte_identity(write):
    for text in [WEB_STATS_TN, WEB_STATS_TN + "\n", "", "\n", "a\r\n b\r", "x\n\n  y"]:
        result = run_cli(["fmt", write("doc.tn", text)])
        assert result.code == 0
        assert result.out == text


def test_fmt_reads_stdin():
    result = run_cli(["fmt", "-"], stdin="a\n b".encode())
    assert result.code == 0 and result.out == "a\n b"


def test_stats(write):
    result = run_cli(["stats", write("doc.tn", WEB_STATS_TN)])
    assert result.code == 0
    assert result.out == "nodes 3\ndepth 1\n"


def test_stats_empty_file(write):
    result = run_cli(["stats", write("empty.tn", "")])
    assert result.code == 0
    assert result.out == "nodes 0\ndepth 0\n"


def test_stats_counts_every_line(write):
    # a trailing newline is a trailing empty node, and it counts
    result = run_cli(["stats", write("doc.tn", "a\n")])
    assert result.out == "nodes 2\ndepth 0\n"


# ---------------------------------------------------------------------------
# JSON commands


def test_from_json_untyped(write):
    path = write("v.json", '{"title": "Web Stats", "visitors": {"mozilla": 802}}')
    result = run_cli(["from-json", path])
    assert result.code == 0
    assert result.out == WEB_STATS_TN + "\n"


def test_from_json_typed(write):
    path = write("v.json", '{"dsl": "yrt", "ma": 902}')
    result = run_cli(["from-json", "--typed", path])
    assert result.out == POINT_JSONTL + "\n"


def test_from_json_empty_object(write):
    result = run_cli(["from-json", write("v.json", "{}")])
    assert result.code == 0 and result.out == ""


def test_from_json_rejects_bad_json(write):
    result = run_cli(["from-json", write("v.json", "{nope")])
    assert result.code == 1
    assert result.out == "" and "treetext:" in result.err


def test_from_json_rejects_bad_keys(write):
    result = run_cli(["from-json", write("v.json", '{"two words": 1}')])
    assert result.code == 1


def test_to_json(write):
    result = run_cli(["to-json", write("doc.tn", POINT_JSONTL + "\n")])
    assert result.code == 0
    assert json.loads(result.out) == POINT_VALUE


def test_to_json_chomps_exactly_one_trailing_newline(write):
    # two trailing newlines leave a real empty node, which JsonTL rejects
    assert run_cli(["to-json", write("a.tn", "z\n")]).code == 0
    assert run_cli(["to-json", write("b.tn", "z\n\n")]).code == 1


def test_to_json_decode_error(write):
    result = run_cli(["to-json", write("doc.tn", "frog\n")])
    assert result.code == 1 and "unknown tag" in result.err


def test_to_json_rejects_number_overflow(write):
    result = run_cli(["to-json", write("doc.tn", "n 1e400\n")])
    assert result.code == 1 and result.out == ""
    assert "overflows" in result.err


def test_integers_past_the_digit_limit_exit_one(write):
    digits = "1" * 5000  # past CPython's 4,300-digit int-to-string limit
    cases = [
        (["to-json"], "n " + digits),
        (["from-json"], '{"k": ' + digits + "}"),
        (["from-json", "--typed"], digits),
    ]
    for argv, text in cases:
        result = run_cli(argv + [write("in", text)])
        assert result.code == 1 and result.out == "", argv
        assert result.err.startswith("treetext: ") and result.err.count("\n") == 1, argv


def test_json_round_trip_through_cli(write, tmp_path):
    value = {"a": [1, True, None], "b": {"s": "line one\nline two"}}
    vpath = write("v.json", json.dumps(value))
    encoded = run_cli(["from-json", "--typed", vpath])
    tpath = write("doc.tn", encoded.out)
    decoded = run_cli(["to-json", tpath])
    assert json.loads(decoded.out) == value


# ---------------------------------------------------------------------------
# diff and patch


def test_diff_then_patch_is_byte_exact(write):
    for ta, tb in [
        (WEB_STATS_TN, WEB_STATS_TN.replace("802", "900")),
        ("a\n", "a"),
        ("", "x\n y\n"),
        ("shared\nold", "shared\nnew\n"),
    ]:
        a, b = write("a.tn", ta), write("b.tn", tb)
        patch = run_cli(["diff", a, b])
        assert patch.code == 0
        applied = run_cli(["patch", write("p.tl", patch.out), a])
        assert applied.code == 0
        assert applied.out == tb


def test_diff_output_is_patchtl(write):
    a = write("a.tn", "visitors\n mozilla 802")
    b = write("b.tn", "visitors\n mozilla 900")
    result = run_cli(["diff", a, b])
    assert result.out == "descend\n delete 1\n insert\n  mozilla 900\n"


def test_identity_diff(write):
    a = write("a.tn", WEB_STATS_TN)
    assert run_cli(["diff", a, a]).out == "keep 2\n"


def test_patch_mismatch_exits_one(write):
    result = run_cli(["patch", write("p.tl", "delete 5\n"), write("a.tn", "one")])
    assert result.code == 1
    assert "overruns" in result.err


def test_patch_malformed_exits_one(write):
    result = run_cli(["patch", write("p.tl", "frobnicate\n"), write("a.tn", "one")])
    assert result.code == 1


# ---------------------------------------------------------------------------
# check and compile


def test_check_clean_document(write):
    result = run_cli(["check", write("doc.tn", POINT_JSONTL + "\n"), "--grammar", "jsontl"])
    assert result.code == 0
    assert result.out == ""


def test_check_reports_errors_as_tree(write):
    path = write("doc.tn", "o\n sx dsl yrt\n n ma 902\n")
    result = run_cli(["check", path, "--grammar", "jsontl"])
    assert result.code == 0  # reporting errors is the command succeeding
    report = parse(result.out[:-1])
    assert [r.line for r in report.roots] == ["error"]
    children = {c.first_word: c.content for c in report.roots[0].children}
    assert children == {
        "path": "0 0",
        "kind": "unknownNodeType",
        "message": "unknown node type 'sx'",
        "suggestion": "s",
    }
    # the report itself round-trips under the core notation
    assert serialize(report) == result.out[:-1]


def test_check_strict_exits_one_on_errors(write):
    path = write("doc.tn", "frog\n")
    assert run_cli(["check", path, "--grammar", "jsontl"]).code == 0
    assert run_cli(["check", "--strict", path, "--grammar", "jsontl"]).code == 1
    clean = write("ok.tn", "z\n")
    assert run_cli(["check", "--strict", clean, "--grammar", "jsontl"]).code == 0


def test_check_fix_prints_corrected_document(write):
    path = write("doc.tn", "o\n sx dsl yrt\n n ma 902\n")
    result = run_cli(["check", "--fix", path, "--grammar", "jsontl"])
    assert result.code == 0
    assert result.out == POINT_JSONTL + "\n"


def test_check_with_grammar_file_path(write):
    grammar = write("tiny.grammar", "nodetype only\n root\n")
    assert run_cli(["check", write("d.tn", "only\n"), "--grammar", grammar]).code == 0
    result = run_cli(["check", write("e.tn", "other\n"), "--grammar", grammar])
    assert "unknownNodeType" in result.out


def test_check_maptl_builtin(write):
    result = run_cli(["check", write("m.tn", "dsl Domain Specific Language\n"), "--grammar", "maptl"])
    assert result.code == 0 and result.out == ""


def test_missing_grammar_file_exits_one(write):
    result = run_cli(["check", write("d.tn", "x\n"), "--grammar", "/nonexistent.grammar"])
    assert result.code == 1


def test_bad_grammar_file_exits_one(write):
    grammar = write("bad.grammar", "frobnicate\n")
    result = run_cli(["check", write("d.tn", "x\n"), "--grammar", grammar])
    assert result.code == 1 and "treetext:" in result.err


def test_compile(write):
    result = run_cli(["compile", write("doc.tn", POINT_JSONTL + "\n"), "--grammar", "jsontl"])
    assert result.code == 0
    assert json.loads(result.out) == POINT_VALUE


def test_compile_refuses_errors(write):
    result = run_cli(["compile", write("doc.tn", "frog\n"), "--grammar", "jsontl"])
    assert result.code == 1
    assert "error" in result.err


def test_compile_empty_document(write):
    result = run_cli(["compile", write("doc.tn", ""), "--grammar", "jsontl"])
    assert result.code == 0 and result.out == ""


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_two():
    assert run_cli(["frobnicate"]).code == 2


def test_missing_arguments_exit_two():
    assert run_cli([]).code == 2
    assert run_cli(["diff", "only-one"]).code == 2
    assert run_cli(["check", "doc"]).code == 2  # --grammar is required


def test_missing_file_exits_one(write):
    assert run_cli(["fmt", "/no/such/file.tn"]).code == 1


def test_version():
    result = run_cli(["--version"])
    assert result.code == 0


# ---------------------------------------------------------------------------
# the installed executable (one real-process sanity check)


def test_installed_entry_point_round_trips_bytes(tmp_path):
    data = "emoji 🌲\n café\r\nx\n  over indent".encode("utf-8")
    path = tmp_path / "doc.tn"
    path.write_bytes(data)
    exe = shutil.which("treetext")
    cmd = [exe, "fmt", str(path)] if exe else [sys.executable, "-m", "treetext.cli", "fmt", str(path)]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == data
