"""treetext: a total, lossless toolkit for indentation-structured trees.

The core guarantee: ``parse`` accepts every string and ``serialize``
reproduces it byte for byte.  On top of that sit JSON interconversion
(:mod:`treetext.codec`), semantic diff/patch (:mod:`treetext.differ`),
and a small grammar engine with validation, autofix, and template
compilation (:mod:`treetext.grammar`).  ``treetext.cli`` exposes the
same operations as a command-line tool.
"""

import importlib

from treetext import core

# Each public name and its defining module, in ``__all__`` order.  The
# core's names are bound here; the codec, differ and grammar names load on
# first use (PEP 562), so a caller of the core alone, such as most CLI
# commands, never imports the grammar engine.
_HOMES = {
    **dict.fromkeys(
        ("INDENT", "NEWLINE", "WORD_SEP", "NodePath", "TreeError", "InvalidLineError", "PathNotFoundError",
         "TreeNode", "TreeDocument", "parse", "parse_parallel", "serialize"),
        "treetext.core",
    ),
    **dict.fromkeys(
        ("JsonValue", "ConversionError", "DecodeError", "from_json_untyped", "from_json_typed", "to_json_typed",
         "to_map", "from_map"),
        "treetext.codec",
    ),
    **dict.fromkeys(("diff", "apply_patch", "PatchFormatError", "PatchMismatchError"), "treetext.differ"),
    **dict.fromkeys(
        ("Grammar", "NodeTypeDef", "CellTypeDef", "TlError", "GrammarLoadError", "CompileError", "load_grammar",
         "load_builtin_grammar", "builtin_grammar_text", "check", "check_parallel", "autofix", "compile_doc"),
        "treetext.grammar",
    ),
}
globals().update((name, vars(core)[name]) for name, home in _HOMES.items() if home == core.__name__)


def __getattr__(name: str):
    # AttributeError, not KeyError: ``from treetext import grammar`` relies
    # on it to fall back to importing the submodule.
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached in the module's globals, so this runs once per name.
    value = globals()[name] = getattr(importlib.import_module(_HOMES[name]), name)
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
__all__ = [*_HOMES, "__version__"]
