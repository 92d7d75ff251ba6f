"""Command-line behavior: outputs, exit codes, byte fidelity."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import POINT_JSONTL, POINT_VALUE, WEB_STATS_TN
from helpers import DEEP, chain, run_cli
import treetext
from treetext import TreeDocument, TreeNode, parse, serialize
from treetext.cli import _build_parser


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


def test_documents_past_the_recursion_limit_exit_one(write):
    # The codec decodes any depth, but json.dumps recurses and overflows.
    result = run_cli(["to-json", write("a.tn", serialize(chain(DEEP, "z")))])
    assert result.code == 1 and result.out == ""
    assert result.err.startswith("treetext: ") and result.err.count("\n") == 1


def test_json_commands_take_depths_the_json_module_takes(write):
    # 800 levels: past the recursion limit of a recursive codec, under the
    # json module's own.
    depth = 800
    nested = "[" * depth + "null" + "]" * depth
    typed = serialize(chain(depth, "z"))
    result = run_cli(["to-json", write("a.tn", typed + "\n")])
    assert (result.code, result.out, result.err) == (0, nested + "\n", "")
    result = run_cli(["from-json", "--typed", write("a.json", nested)])
    assert (result.code, result.out, result.err) == (0, typed + "\n", "")
    result = run_cli(["from-json", write("k.json", '{"k": ' + nested[1:-1] + "}")])
    untyped = TreeNode(" null")
    for _ in range(depth - 2):
        untyped = TreeNode("", [untyped])
    untyped = serialize(TreeDocument([TreeNode("k", [untyped])]))
    assert (result.code, result.out, result.err) == (0, untyped + "\n", "")


def test_diff_and_patch_take_any_depth(write):
    a = write("a.tn", serialize(chain(DEEP, "z")))
    b_text = serialize(chain(DEEP, "n 1"))
    result = run_cli(["diff", a, write("b.tn", b_text)])
    assert result.code == 0 and result.err == ""
    result = run_cli(["patch", write("p.tl", result.out), a])
    assert result.code == 0 and result.err == ""
    assert result.out == b_text


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


def test_compile_reports_where_a_template_failed(write):
    grammar = write("pair.grammar", "celltype any\n base any\nnodetype pair\n root\n catchAllCell any\n compile {1}\n")
    result = run_cli(["compile", write("doc.tn", "pair x\n"), "--grammar", grammar])
    assert result.code == 1 and result.out == ""
    assert result.err == "treetext: template placeholder {1} out of range for line 'pair x' (at path [0])\n"


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
    assert result.out == f"treetext {treetext.__version__}\n"


def _parsed(func: str, command: str, **args) -> dict:
    return {"command": command, "func": func, **args}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fmt", "a.tn"], _parsed("_cmd_fmt", "fmt", file="a.tn")),
        (["stats", "-"], _parsed("_cmd_stats", "stats", file="-")),
        (["from-json", "v.json"], _parsed("_cmd_from_json", "from-json", typed=False, file="v.json")),
        (["from-json", "v.json", "--typed"], _parsed("_cmd_from_json", "from-json", typed=True, file="v.json")),
        (["from-json", "--typed", "-"], _parsed("_cmd_from_json", "from-json", typed=True, file="-")),
        (["to-json", "v.tn"], _parsed("_cmd_to_json", "to-json", file="v.tn")),
        (["diff", "a.tn", "b.tn"], _parsed("_cmd_diff", "diff", a="a.tn", b="b.tn")),
        (["patch", "p.tn", "a.tn"], _parsed("_cmd_patch", "patch", patchfile="p.tn", a="a.tn")),
        (
            ["check", "d.tn", "--grammar", "jsontl"],
            _parsed("_cmd_check", "check", doc="d.tn", grammar="jsontl", strict=False, fix=False),
        ),
        (
            ["check", "--fix", "--grammar=g.grammar", "--strict", "d.tn"],
            _parsed("_cmd_check", "check", doc="d.tn", grammar="g.grammar", strict=True, fix=True),
        ),
        (
            ["check", "--strict", "-", "--grammar", "maptl"],
            _parsed("_cmd_check", "check", doc="-", grammar="maptl", strict=True, fix=False),
        ),
        (["compile", "d.tn", "--grammar", "jsontl"], _parsed("_cmd_compile", "compile", doc="d.tn", grammar="jsontl")),
        (["compile", "--grammar", "-", "d.tn"], _parsed("_cmd_compile", "compile", doc="d.tn", grammar="-")),
    ],
)
def test_argv_parses_to_the_same_arguments(argv, expected):
    args = vars(_build_parser().parse_args(argv))
    assert {**args, "func": args["func"].__name__} == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["fmt"], ["stats"], ["from-json"], ["from-json", "--typed"], ["to-json"], ["diff"], ["diff", "a"],
        ["patch"], ["patch", "p"], ["check"], ["check", "d"], ["check", "--grammar", "jsontl"],
        ["check", "d", "--grammar"], ["compile"], ["compile", "d"], ["compile", "--grammar", "jsontl"],
        ["fmt", "a", "b"], ["to-json", "--typed", "a"], ["compile", "--strict", "d", "--grammar", "g"],
    ],
)
def test_missing_or_unknown_arguments_exit_two(argv):
    result = run_cli(argv)
    assert result.code == 2 and result.out == ""
    assert result.err.startswith("usage: treetext ")


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "-", "-"],
        ["patch", "-", "-"],
        ["check", "--strict", "-", "--grammar", "-"],
        ["compile", "-", "--grammar", "-"],
    ],
)
def test_stdin_named_twice_is_a_usage_error(argv):
    # The first read takes all of stdin; the second would read an empty document.
    result = run_cli(argv, stdin=b"x\n")
    assert result.code == 2 and result.out == ""
    assert "standard input" in result.err


# ---------------------------------------------------------------------------
# start-up: what each command imports, and the lazy package namespace


def _loaded_by(code: str, modules: "set[str]", *flags: str) -> "list[str]":
    """Run ``code`` in a fresh interpreter started with ``flags``; return which of ``modules`` it loaded."""
    code += f"\nimport sys\nprint(*sorted({modules!r} & set(sys.modules)), file=sys.stderr)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(treetext.__file__))}
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, encoding="utf-8", env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


def test_cli_import_loads_no_thread_pool():
    # ThreadPoolExecutor, and the logging it pulls in, are imported only
    # when a *_parallel call runs; json and the other treetext modules only
    # by the commands that use them.
    heavy = {"concurrent.futures", "logging", "json", "dataclasses", "treetext.codec", "treetext.differ",
             "treetext.grammar"}
    assert _loaded_by("import treetext.cli", heavy) == []


def test_json_commands_do_not_load_the_grammar_engine(write):
    # The codec needs the grammar module only to report a decode error.
    json_path, tl_path = write("v.json", '{"dsl": "yrt", "ma": [1, true, null]}'), write("v.tn", POINT_JSONTL)
    code = f"from treetext.cli import main\nassert main(['from-json', '--typed', {json_path!r}]) == 0\n"
    code += f"assert main(['to-json', {tl_path!r}]) == 0"
    assert _loaded_by(code, {"treetext.grammar", "dataclasses"}) == []


def test_grammar_commands_load_neither_dataclasses_nor_inspect(write):
    # The grammar value types are plain slotted classes, and a bundled
    # grammar is read as a plain file (importlib.resources imports inspect
    # on Python 3.12 and later), so checking, compiling and reporting a
    # decode error skip both modules' import.  check and compile load
    # neither json nor a thread pool either; to-json writes JSON, so it
    # loads json.
    good, bad = write("p.tn", POINT_JSONTL), write("bad.tn", "o\n sx dsl yrt")
    code = "import treetext.grammar\nfrom treetext.cli import main\n"
    code += f"assert main(['check', {bad!r}, '--grammar', 'jsontl']) == 0\n"
    code += f"assert main(['check', {bad!r}, '--grammar', 'jsontl', '--fix']) == 0\n"
    code += f"assert main(['compile', {good!r}, '--grammar', 'jsontl']) == 0"
    assert _loaded_by(code, {"dataclasses", "inspect", "json", "concurrent.futures"}) == []
    code = "import contextlib, io\nfrom treetext.cli import main\n"
    code += "with contextlib.redirect_stderr(io.StringIO()):  # to-json's error line\n"
    code += f"    assert main(['to-json', {bad!r}]) == 1"
    assert _loaded_by(code, {"dataclasses", "inspect", "concurrent.futures"}) == []


def test_no_module_imports_typing():
    # The annotations are strings (from __future__ import annotations), so
    # no module needs typing at run time.  -S skips site, which may import
    # typing itself, for example through a .pth file.
    code = "import treetext.cli, treetext.codec, treetext.differ, treetext.grammar"
    assert _loaded_by(code, {"typing"}, "-S") == []


PUBLIC_NAMES = [
    "INDENT", "NEWLINE", "WORD_SEP", "NodePath", "TreeError", "InvalidLineError", "PathNotFoundError",
    "TreeNode", "TreeDocument", "parse", "parse_parallel", "serialize", "JsonValue", "ConversionError",
    "DecodeError", "from_json_untyped", "from_json_typed", "to_json_typed", "to_map", "from_map", "diff",
    "apply_patch", "PatchFormatError", "PatchMismatchError", "Grammar", "NodeTypeDef", "CellTypeDef",
    "TlError", "GrammarLoadError", "CompileError", "load_grammar", "load_builtin_grammar",
    "builtin_grammar_text", "check", "check_parallel", "autofix", "compile_doc", "__version__",
]


def test_lazy_namespace_serves_every_public_name():
    from treetext import codec, core, differ, grammar

    assert treetext.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(treetext))
    starred: dict = {}
    exec("from treetext import *", starred)
    for name in PUBLIC_NAMES[:-1]:
        home = next(m for m in (core, codec, differ, grammar) if name in vars(m))
        assert getattr(treetext, name) is vars(home)[name] is starred[name], name
    assert starred["__version__"] == treetext.__version__
    with pytest.raises(AttributeError, match="no_such_name"):
        treetext.no_such_name


def test_import_binds_only_the_core_names():
    # Of the public names, a bare import binds the core's and __version__,
    # and it loads none of the codec, differ and grammar modules: any of
    # them would follow the names in the output.
    code = "import treetext\nimport sys\n"
    code += "print(*sorted(set(treetext.__all__) & set(vars(treetext))), file=sys.stderr)"
    core = {"INDENT", "NEWLINE", "WORD_SEP", "NodePath", "TreeError", "InvalidLineError", "PathNotFoundError",
            "TreeNode", "TreeDocument", "parse", "parse_parallel", "serialize", "__version__"}
    loaded = _loaded_by(code, {"treetext.codec", "treetext.differ", "treetext.grammar"})
    assert loaded == sorted(core)


def test_lazy_namespace_imports_submodules_on_first_use():
    # In a fresh interpreter nothing but the core is loaded yet, so these
    # go through the module __getattr__.
    code = "import treetext\nfrom treetext import grammar\nassert grammar.__name__ == 'treetext.grammar'\n"
    code += "assert treetext.diff is __import__('treetext.differ').differ.diff"
    assert _loaded_by(code, {"treetext.codec"}) == []


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
