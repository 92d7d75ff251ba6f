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

"-" means standard input, and may be named at most once per command.
--grammar takes a file path or the name of a bundled grammar (jsontl,
maptl).

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
import os
import sys

from treetext import __version__
from treetext.core import NEWLINE, TreeDocument, TreeError, TreeNode, _measure, parse, serialize

# Start-up is most of a command's time, so ``json``, the codec, the differ
# and the grammar engine are imported inside the commands that use them.

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


def _load_grammar_arg(ref: str) -> "Grammar":
    from treetext.grammar import load_builtin_grammar, load_grammar

    if ref != "-" and not os.path.exists(ref) and ref in BUILTIN_GRAMMARS:
        return load_builtin_grammar(ref)
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
    nodes, depth = _measure(parse(_read_raw(args.file)).roots)
    _write_line(f"nodes {nodes}{NEWLINE}depth {depth}")
    return 0


def _cmd_from_json(args) -> int:
    import json

    from treetext.codec import from_json_typed, from_json_untyped

    value = json.loads(_read_raw(args.file))
    doc = from_json_typed(value) if args.typed else from_json_untyped(value)
    _write_line(serialize(doc))
    return 0


def _cmd_to_json(args) -> int:
    import json

    from treetext.codec import to_json_typed

    value = to_json_typed(parse(_read_data(args.file)))
    _write_line(json.dumps(value, ensure_ascii=False))
    return 0


def _cmd_diff(args) -> int:
    from treetext.differ import diff

    patch = diff(parse(_read_raw(args.a)), parse(_read_raw(args.b)))
    _write_line(serialize(patch))
    return 0


def _cmd_patch(args) -> int:
    from treetext.differ import apply_patch

    patch = parse(_read_data(args.patchfile))
    result = apply_patch(patch, parse(_read_raw(args.a)))
    sys.stdout.write(serialize(result))
    return 0


def _cmd_check(args) -> int:
    from treetext.grammar import autofix, check

    grammar = _load_grammar_arg(args.grammar)
    doc = parse(_read_data(args.doc))
    if args.fix:
        _write_line(serialize(autofix(doc, grammar)))
        return 0
    errors = check(doc, grammar)
    _write_line(serialize(_errors_to_tree(errors)))
    return 1 if errors and args.strict else 0


def _cmd_compile(args) -> int:
    from treetext.grammar import compile_doc

    grammar = _load_grammar_arg(args.grammar)
    _write_line(compile_doc(parse(_read_data(args.doc)), grammar))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _flag(name: str, help: str) -> "tuple[str, dict]":
    return name, {"action": "store_true", "help": help}


_GRAMMAR = "--grammar", {"required": True, "help": f"grammar file, or a bundled name ({', '.join(BUILTIN_GRAMMARS)})"}

# name: (function, help line, arguments in the order they are added); an
# argument is a positional's name or a (flag, add_argument options) pair.
_COMMANDS = {
    "fmt": (_cmd_fmt, "parse and reserialize a document (byte identity)", ["file"]),
    "stats": (_cmd_stats, "print node count and maximum depth", ["file"]),
    "from-json": (_cmd_from_json, "convert JSON to a tree document",
                  [_flag("--typed", "emit lossless JsonTL instead of the untyped view"), "file"]),
    "to-json": (_cmd_to_json, "decode a JsonTL document to JSON", ["file"]),
    "diff": (_cmd_diff, "print the edit script turning one document into another", ["a", "b"]),
    "patch": (_cmd_patch, "apply an edit script to a document", ["patchfile", "a"]),
    "check": (_cmd_check, "validate a document against a grammar",
              ["doc", _GRAMMAR, _flag("--strict", "exit 1 when any error is found"),
               _flag("--fix", "print the auto-corrected document instead of errors")]),
    "compile": (_cmd_compile, "compile a document through its grammar's templates", ["doc", _GRAMMAR]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treetext", description="Work with indentation-structured tree documents.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (func, summary, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for argument in arguments:
            flag, options = (argument, {}) if isinstance(argument, str) else argument
            command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Every string argument but the subcommand's name is an input, and the
    # first read of standard input would leave the next one empty.
    if list(vars(args).values()).count("-") > 1:
        parser.error("standard input ('-') may be named only once")
    try:
        return args.func(args)
    except (TreeError, OSError, ValueError, RecursionError) as exc:
        # ValueError includes malformed JSON, non-UTF-8 input and JSON
        # integers past the interpreter's int-to-string digit limit.  The
        # json module recurses: it overflows on about 1,000 nested levels.
        print(f"treetext: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
