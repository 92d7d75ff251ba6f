"""Command-line interface.

One executable, one subcommand per library capability::

    treetext fmt <file>                     parse + serialize (byte identity)
    treetext stats <file>                   node count and depth, as a tree
    treetext from-json [--typed] <file>     JSON to tree (untyped or JsonTL)
    treetext to-json <file>                 JsonTL to JSON
    treetext diff <a> <b>                   edit script in PatchTL
    treetext patch <patchfile> <a>          apply an edit script
    treetext check [--strict] [--fix] <doc> --grammar <g>
    treetext compile <doc> --grammar <g>

"-" means standard input.  --grammar takes a file path or the name of a
bundled grammar (jsontl, maptl).

Exit codes: 0 success, 1 domain error (bad JSON, patch mismatch,
check errors under --strict), 2 usage error.

Newline handling is deliberate.  ``fmt``, ``diff`` and ``patch`` treat
their document inputs as raw bytes, where a trailing newline denotes a
trailing empty node, and ``fmt``/``patch`` write their result without
appending anything; that is what makes them byte-exact. Commands that
read a document as data (``to-json``, ``check``, ``compile``, and the
patch file itself) strip one trailing newline first, so ordinary
text files do not grow a phantom empty node, and all commands other
than ``fmt`` and ``patch`` terminate nonempty output with one newline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from treetext import __version__
from treetext.codec import from_json_typed, from_json_untyped, to_json_typed
from treetext.core import NEWLINE, TreeDocument, TreeError, TreeNode, parse, serialize
from treetext.differ import apply_patch, diff
from treetext.grammar import (
    Grammar,
    TlError,
    autofix,
    builtin_grammar_text,
    check,
    compile_doc,
    load_grammar,
)

BUILTIN_GRAMMARS = ("jsontl", "maptl")


def _read_raw(path: str) -> str:
    # Bytes first: text mode would translate \r\n and hide content.
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return data.decode("utf-8")


def _read_data(path: str) -> str:
    # Document-as-data reads drop one trailing newline; see module doc.
    text = _read_raw(path)
    return text[:-1] if text.endswith(NEWLINE) else text


def _write_line(text: str) -> None:
    if text:
        sys.stdout.write(text + NEWLINE)


def _load_grammar_arg(ref: str) -> Grammar:
    if ref != "-" and not os.path.exists(ref) and ref in BUILTIN_GRAMMARS:
        return load_grammar(builtin_grammar_text(ref))
    return load_grammar(_read_data(ref))


def _errors_to_tree(errors: "list[TlError]") -> TreeDocument:
    doc = TreeDocument()
    for error in errors:
        node = TreeNode("error")
        node.append_child(("path " + " ".join(str(i) for i in error.path)).rstrip())
        node.append_child(f"kind {error.kind}")
        node.append_child(f"message {error.message}")
        if error.suggestion is not None:
            node.append_child(f"suggestion {error.suggestion}")
        doc.roots.append(node)
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fmt(args) -> int:
    sys.stdout.write(serialize(parse(_read_raw(args.file))))
    return 0


def _cmd_stats(args) -> int:
    doc = parse(_read_raw(args.file))
    _write_line(f"nodes {doc.node_count()}{NEWLINE}depth {doc.max_depth()}")
    return 0


def _cmd_from_json(args) -> int:
    value = json.loads(_read_raw(args.file))
    doc = from_json_typed(value) if args.typed else from_json_untyped(value)
    _write_line(serialize(doc))
    return 0


def _cmd_to_json(args) -> int:
    value = to_json_typed(parse(_read_data(args.file)))
    _write_line(json.dumps(value, ensure_ascii=False))
    return 0


def _cmd_diff(args) -> int:
    patch = diff(parse(_read_raw(args.a)), parse(_read_raw(args.b)))
    _write_line(serialize(patch))
    return 0


def _cmd_patch(args) -> int:
    patch = parse(_read_data(args.patchfile))
    result = apply_patch(patch, parse(_read_raw(args.a)))
    sys.stdout.write(serialize(result))
    return 0


def _cmd_check(args) -> int:
    grammar = _load_grammar_arg(args.grammar)
    doc = parse(_read_data(args.doc))
    if args.fix:
        _write_line(serialize(autofix(doc, grammar)))
        return 0
    errors = check(doc, grammar)
    _write_line(serialize(_errors_to_tree(errors)))
    return 1 if errors and args.strict else 0


def _cmd_compile(args) -> int:
    grammar = _load_grammar_arg(args.grammar)
    _write_line(compile_doc(parse(_read_data(args.doc)), grammar))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetext",
        description="Work with indentation-structured tree documents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("fmt", help="parse and reserialize a document (byte identity)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_fmt)

    p = sub.add_parser("stats", help="print node count and maximum depth")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("from-json", help="convert JSON to a tree document")
    p.add_argument("--typed", action="store_true", help="emit lossless JsonTL instead of the untyped view")
    p.add_argument("file")
    p.set_defaults(func=_cmd_from_json)

    p = sub.add_parser("to-json", help="decode a JsonTL document to JSON")
    p.add_argument("file")
    p.set_defaults(func=_cmd_to_json)

    p = sub.add_parser("diff", help="print the edit script turning one document into another")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("patch", help="apply an edit script to a document")
    p.add_argument("patchfile")
    p.add_argument("a")
    p.set_defaults(func=_cmd_patch)

    p = sub.add_parser("check", help="validate a document against a grammar")
    p.add_argument("doc")
    p.add_argument("--grammar", required=True, help="grammar file, or a bundled name (jsontl, maptl)")
    p.add_argument("--strict", action="store_true", help="exit 1 when any error is found")
    p.add_argument("--fix", action="store_true", help="print the auto-corrected document instead of errors")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compile", help="compile a document through its grammar's templates")
    p.add_argument("doc")
    p.add_argument("--grammar", required=True, help="grammar file, or a bundled name (jsontl, maptl)")
    p.set_defaults(func=_cmd_compile)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TreeError, OSError, ValueError) as exc:
        # ValueError includes malformed JSON, non-UTF-8 input and JSON
        # integers past the interpreter's int-to-string digit limit.
        print(f"treetext: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
