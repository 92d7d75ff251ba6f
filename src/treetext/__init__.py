"""treetext: a total, lossless toolkit for indentation-structured trees.

The core guarantee: ``parse`` accepts every string and ``serialize``
reproduces it byte for byte.  On top of that sit JSON interconversion
(:mod:`treetext.codec`), semantic diff/patch (:mod:`treetext.differ`),
and a small grammar engine with validation, autofix, and template
compilation (:mod:`treetext.grammar`).  ``treetext.cli`` exposes the
same operations as a command-line tool.
"""

import importlib

from treetext.core import (
    INDENT,
    NEWLINE,
    WORD_SEP,
    InvalidLineError,
    NodePath,
    PathNotFoundError,
    TreeDocument,
    TreeError,
    TreeNode,
    parse,
    parse_parallel,
    serialize,
)

# The codec, differ and grammar names load on first use (PEP 562), so a
# caller of the core alone, such as most CLI commands, never imports the
# grammar engine.  Each name's defining module:
_LAZY = {
    **dict.fromkeys(
        ("ConversionError", "DecodeError", "JsonValue", "from_json_typed", "from_json_untyped",
         "from_map", "to_json_typed", "to_map"),
        "treetext.codec",
    ),
    **dict.fromkeys(("PatchFormatError", "PatchMismatchError", "apply_patch", "diff"), "treetext.differ"),
    **dict.fromkeys(
        ("CellTypeDef", "CompileError", "Grammar", "GrammarLoadError", "NodeTypeDef", "TlError", "autofix",
         "builtin_grammar_text", "check", "check_parallel", "compile_doc", "load_builtin_grammar",
         "load_grammar"),
        "treetext.grammar",
    ),
}


def __getattr__(name: str):
    # AttributeError, not KeyError: ``from treetext import grammar`` relies
    # on it to fall back to importing the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached in the module's globals, so this runs once per name.
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "INDENT",
    "NEWLINE",
    "WORD_SEP",
    "NodePath",
    "TreeError",
    "InvalidLineError",
    "PathNotFoundError",
    "TreeNode",
    "TreeDocument",
    "parse",
    "parse_parallel",
    "serialize",
    "JsonValue",
    "ConversionError",
    "DecodeError",
    "from_json_untyped",
    "from_json_typed",
    "to_json_typed",
    "to_map",
    "from_map",
    "diff",
    "apply_patch",
    "PatchFormatError",
    "PatchMismatchError",
    "Grammar",
    "NodeTypeDef",
    "CellTypeDef",
    "TlError",
    "GrammarLoadError",
    "CompileError",
    "load_grammar",
    "load_builtin_grammar",
    "builtin_grammar_text",
    "check",
    "check_parallel",
    "autofix",
    "compile_doc",
    "__version__",
]
