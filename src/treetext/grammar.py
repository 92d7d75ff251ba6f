"""A deliberately minimal grammar engine for line-oriented tree dialects.

A grammar names the node types a document may contain, the cell types
that constrain the words of each line, and an optional compile template
per node type.  Checking a document yields a flat list of errors; each
subtree is checked independently of its siblings, so one broken branch
never hides problems elsewhere.  Unknown first words get a spelling
suggestion when a known one is close.  Checking, compiling and
autofixing share one walk, which resolves each node's type once;
``autofix`` is that walk with fixing on, applying each suggestion as it
reaches the node.

Grammar files are themselves tree documents::

    grammar <name>
    celltype <name>
     base word|int|float|bool|any
     enum <value> <value> ...
     regex <pattern>
    nodetype <name>
     match <first-word>
     cells <celltype> ...
     catchAllCell <celltype>
     children <nodetype> ...
     catchAllChild <nodetype>
     root
     compile <template>

``match`` defaults to the node type's name.  ``root`` marks a type legal
at depth 0; ``root catchall`` makes it match any first word at depth 0,
which is how key-value dialects admit arbitrary keys.  A ``catchAllChild``
plays the same role below a node.  Directives outside this list are load
errors: grammars are the trusted layer.  Blank lines separate blocks; a
blank line may not have indented lines under it, since they would belong
to no block.  One table lists each block's directives and how each is
read; the list above is its documentation.

Compile templates are flat substitutions.  ``{0}``, ``{1}``, ... insert
the words after the first word; ``{N+}`` inserts words N+1 onward joined
by spaces; ``{w}`` inserts the first word itself; ``{c}`` inserts the
compiled children joined by newlines, and ``{c|SEP}`` joins them with SEP
instead (for example ``{c|,}`` for comma-separated output).  Anything
else in the template is literal text.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable
from itertools import repeat
from operator import attrgetter

from treetext.core import (
    ARITY_MISMATCH,
    CELL_TYPE_MISMATCH,
    ILLEGAL_CHILD,
    NEWLINE,
    UNKNOWN_NODE_TYPE,
    WORD_SEP,
    NodePath,
    TreeDocument,
    TreeError,
    TreeNode,
    _map_blocks,
    parse,
)

_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Each cell base and the test a word must pass (a truthy result) to be of it.
_BASE_TESTS = {
    "word": bool,
    "int": _INT_RE.fullmatch,
    "float": _FLOAT_RE.fullmatch,
    "bool": {"true", "false"}.__contains__,
    "any": lambda word: True,
}
CELL_BASES = tuple(_BASE_TESTS)


class _Record:
    """A frozen value: compared, hashed, shown and pickled by the ``_fields``
    its constructor takes, in order.

    The constructor sets every slot once, through ``_set_fields``; past it,
    assigning or deleting a field raises AttributeError.  Each subclass sets
    ``_values = attrgetter(*_fields)``; an attrgetter does not bind, so it is
    called as ``self._values(self)``.
    """

    __slots__ = ("__weakref__",)

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)  # past this class's __setattr__

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TlError(_Record):
    """One language-level error, locatable in the checked document."""

    __slots__ = _fields = __match_args__ = ("path", "kind", "message", "suggestion")
    _values = attrgetter(*_fields)

    def __init__(self, path: NodePath, kind: str, message: str, suggestion: str | None = None):
        self._set_fields(path, kind, message, suggestion)


class GrammarLoadError(TreeError):
    """The grammar file itself is malformed."""


class CompileError(TreeError):
    """Compilation refused or failed; ``errors`` holds pending check errors.

    ``compile_doc`` attaches them to the error it raises for a document that
    does not check clean; any other CompileError holds none.
    """

    errors: "tuple[TlError, ...]" = ()


class CellTypeDef(_Record):
    __slots__ = _fields = __match_args__ = ("name", "base", "enum_values", "pattern")
    _values = attrgetter(*_fields)

    def __init__(self, name: str, base: str = "any", enum_values: frozenset | None = None,
                 pattern: "re.Pattern[str] | None" = None):
        self._set_fields(name, base, enum_values, pattern)

    def accepts(self, word: str) -> bool:
        if not _BASE_TESTS[self.base](word):
            return False
        if self.enum_values is not None and word not in self.enum_values:
            return False
        if self.pattern is not None and self.pattern.fullmatch(word) is None:
            return False
        return True


class NodeTypeDef(_Record):
    __slots__ = _fields = __match_args__ = (
        "name", "match", "cells", "catch_all_cell", "child_types", "catch_all_child", "is_root", "is_root_catch_all",
        "template",
    )
    _values = attrgetter(*_fields)

    def __init__(self, name: str, match: str, cells: "tuple[str, ...]" = (), catch_all_cell: str | None = None,
                 child_types: "tuple[str, ...]" = (), catch_all_child: str | None = None,
                 is_root: bool = False, is_root_catch_all: bool = False, template: str | None = None):
        self._set_fields(name, match, cells, catch_all_cell, child_types, catch_all_child, is_root,
                         is_root_catch_all, template)


class Grammar(_Record):
    """A tree-language definition.

    Its roots are the node types marked ``is_root``, and the first node
    type marked ``is_root_catch_all`` matches any other first word at
    depth 0.  It reads ``node_types`` and ``cell_types`` once, when it is
    built, so to change one, build a new Grammar.  Its fields hold dicts,
    so it does not hash.
    """

    _fields = __match_args__ = ("name", "node_types", "cell_types")
    _values = attrgetter(*_fields)
    # Two tables derived from the fields, outside ``==`` and ``repr``.  Each
    # node type, listed under its ``node_types`` key, resolves once to an
    # entry: [node type, the context its children resolve in, its cells as
    # CellTypeDefs, its catch-all cell or None].  A context is a (table,
    # catch_all) pair: ``table`` maps each match word to the entry of the
    # first node type listed with it, ``catch_all`` is an entry or None, and
    # a node resolves with ``table.get(first_word, catch_all)``.  ``_root``
    # is the depth-0 context.  ``_match_words`` holds every match word; an
    # unresolved node with one of these is an illegal child.
    __slots__ = (*_fields, "_root", "_match_words")

    def __init__(self, name: str = "", node_types: "dict[str, NodeTypeDef] | None" = None,
                 cell_types: "dict[str, CellTypeDef] | None" = None):
        types = {} if node_types is None else node_types
        cells = {} if cell_types is None else cell_types
        entries = {key: [nt, None, tuple(cells[c] for c in nt.cells),
                         None if nt.catch_all_cell is None else cells[nt.catch_all_cell]]
                   for key, nt in types.items()}
        # A context may hold its own entry, so contexts are filled in after every entry exists.
        for entry in entries.values():
            entry[1] = _context(entries, entry[0].child_types, entry[0].catch_all_child)
        catch_all = next((key for key, nt in types.items() if nt.is_root_catch_all), None)
        root = _context(entries, [key for key, nt in types.items() if nt.is_root and key != catch_all], catch_all)
        self._set_fields(name, types, cells, root, frozenset(nt.match for nt in types.values()))


def _context(entries, keys, catch_all):
    table = {entries[key][0].match: entries[key] for key in reversed(keys)}  # so the first listed type wins
    return table, None if catch_all is None else entries[catch_all]


# ---------------------------------------------------------------------------
# loading


def _one_word(node: TreeNode, path: NodePath, noun: str = "value") -> str:
    words = node.words
    if len(words) != 2 or words[1] == "":
        raise GrammarLoadError(f"{words[0]} needs exactly one {noun}", path)
    return words[1]


def _word_list(node: TreeNode, path: NodePath) -> "tuple[str, ...]":
    values = tuple(w for w in node.words[1:] if w != "")
    if not values:
        raise GrammarLoadError(f"{node.first_word} needs at least one value", path)
    return values


def _root(node: TreeNode, path: NodePath) -> bool:
    if node.content not in ("", "catchall"):
        raise GrammarLoadError("root takes nothing or 'catchall'", path)
    return node.content == "catchall"


def _base(node: TreeNode, path: NodePath) -> str:
    base = _one_word(node, path)
    if base not in CELL_BASES:
        raise GrammarLoadError(f"unknown base {base!r}, expected one of {', '.join(CELL_BASES)}", path)
    return base


def _regex(node: TreeNode, path: NodePath) -> "re.Pattern[str]":
    try:
        return re.compile(node.content)
    except re.error as exc:
        raise GrammarLoadError(f"bad regex: {exc}", path) from None


# Each block keyword: how its definition is built from the fields its
# directives set, and per directive (how its value is read, the field it
# sets, the block keyword its words name or None).  ``root`` sets
# ``is_root_catch_all`` (true for ``root catchall``), and a node type with
# that field set at all is a root type.
_BLOCKS = {
    "nodetype": (
        lambda name, match=None, **fields: NodeTypeDef(
            name, match or name, is_root="is_root_catch_all" in fields, **fields),
        {
            "match": (_one_word, "match", None),
            "cells": (_word_list, "cells", "celltype"),
            "catchAllCell": (_one_word, "catch_all_cell", "celltype"),
            "children": (_word_list, "child_types", "nodetype"),
            "catchAllChild": (_one_word, "catch_all_child", "nodetype"),
            "root": (_root, "is_root_catch_all", None),
            "compile": (lambda node, path: node.content, "template", None),
        },
    ),
    "celltype": (
        CellTypeDef,
        {
            "base": (_base, "base", None),
            "enum": (lambda node, path: frozenset(_word_list(node, path)), "enum_values", None),
            "regex": (_regex, "pattern", None),
        },
    ),
}


def load_grammar(text: str) -> Grammar:
    """Parse and validate a grammar file. Raises GrammarLoadError."""
    name: str | None = None
    defs: "dict[str, dict]" = {keyword: {} for keyword in _BLOCKS}
    refs: "list[tuple[NodePath, str, str]]" = []  # (path, block keyword, name)
    for i, block in enumerate(parse(text).roots):
        keyword = block.first_word
        if keyword == "grammar":
            if name is not None:
                raise GrammarLoadError("duplicate grammar name", (i,))
            if block._kids:
                raise GrammarLoadError("grammar directive takes no children", (i,))
            name = block.content
        elif keyword in _BLOCKS:
            def_name = _one_word(block, (i,), "name")
            if def_name in defs[keyword]:
                raise GrammarLoadError(f"duplicate {keyword} {def_name!r}", (i,))
            build, directives = _BLOCKS[keyword]
            fields: "dict[str, object]" = {}
            for j, directive in enumerate(block._kids or ()):
                path = (i, j)
                if directive._kids:
                    raise GrammarLoadError("directives take no children", path)
                word = directive.first_word
                entry = directives.get(word)
                if entry is None:
                    raise GrammarLoadError(f"unknown {keyword} directive {word!r}", path)
                read, field, refers_to = entry
                value = read(directive, path)
                # A repeated directive's last value wins, but a flag never turns off again.
                fields[field] = fields.get(field) is True or value
                if refers_to:
                    refs.extend((path, refers_to, word) for word in directive.words[1:] if word != "")
            defs[keyword][def_name] = build(def_name, **fields)
        elif block.line != "":
            raise GrammarLoadError(f"unknown directive {keyword!r}", (i,))
        elif block._kids:
            raise GrammarLoadError("a blank line separates blocks and takes no indented lines", (i,))

    for path, keyword, ref in refs:
        if ref not in defs[keyword]:
            raise GrammarLoadError(f"reference to unknown {keyword} {ref!r}", path)

    if sum(nt.is_root_catch_all for nt in defs["nodetype"].values()) > 1:
        raise GrammarLoadError("more than one catch-all root nodetype")
    if not any(nt.is_root for nt in defs["nodetype"].values()):
        raise GrammarLoadError("empty root type set: no nodetype is marked root")
    return Grammar(name or "", defs["nodetype"], defs["celltype"])


# ---------------------------------------------------------------------------
# checking


def check(doc: TreeDocument, grammar: Grammar) -> "list[TlError]":
    """Check every node against the grammar; errors never stop the walk.

    Each depth-0 subtree is checked in isolation, so the errors for a
    concatenation of two documents are the union of their separate
    errors with the second document's paths offset.
    """
    return _check_roots(doc.roots, 0, len(doc.roots), grammar)


def check_parallel(doc: TreeDocument, grammar: Grammar, max_workers: int | None = None) -> "list[TlError]":
    """Check depth-0 subtrees concurrently; result equals ``check``.

    Each worker checks one contiguous run of depth-0 subtrees.  Under
    CPython's global interpreter lock this demonstrates that the
    subtrees are independent; it is not a speedup.
    """
    roots = doc.roots
    return _map_blocks(
        lambda lo, hi: _check_roots(roots, lo, hi, grammar), range(len(roots)), len(roots), max_workers
    )


def _check_roots(roots, lo, hi, grammar, fix=False) -> "list[TlError]":
    errors: "list[TlError]" = []
    for _ in _typed_walk(roots, lo, hi, grammar, errors, fix):
        pass
    return errors


def _typed_walk(roots, lo, hi, grammar, errors, fix=False):
    """Yield ``(node, node_type)`` for ``roots[lo:hi]`` and their resolved
    descendants in document pre-order, each before its children are
    visited, and append the check errors to ``errors``.

    With ``fix`` set, a node whose unknown first word has a suggestion
    gets the suggestion instead and resolves to its type; only a node
    without one is an unknownNodeType error, and arity and cell types go
    unchecked.
    """
    # One path list, as in TreeDocument.walk; a tuple is built only for an error.
    path = [lo - 1]
    # (node, depth, the context it resolves in); children are pushed
    # last-first so nodes come out in document pre-order.
    stack = [(roots[i], 0, grammar._root) for i in reversed(range(lo, hi))]
    while stack:
        node, depth, (table, catch_all) = stack.pop()
        if depth < len(path):
            del path[depth + 1:]
            path[depth] += 1
        else:
            path.append(0)
        words = node.line.split(WORD_SEP)
        first = words[0]
        entry = table.get(first, catch_all)
        if entry is None:
            if first in grammar._match_words:
                errors.append(TlError(tuple(path), ILLEGAL_CHILD, f"node type {first!r} is not allowed here"))
                continue  # children of an unresolved node have no defined types
            suggestion = suggest(first, table)
            if not fix or suggestion is None:
                errors.append(TlError(tuple(path), UNKNOWN_NODE_TYPE, f"unknown node type {first!r}", suggestion))
                continue
            node.set_line(suggestion + node.line[len(first):])
            entry = table[suggestion]

        node_type, context, cells, extra = entry
        if not fix:  # autofix discards arity and cell errors: build none
            values = words[1:]
            if len(values) < len(cells) or (len(values) > len(cells) and extra is None):
                errors.append(
                    TlError(
                        tuple(path),
                        ARITY_MISMATCH,
                        f"expected {len(cells)} cells after {first!r}, got {len(values)}",
                    )
                )
            for i, value in enumerate(values):
                if i < len(cells):
                    cell = cells[i]
                elif extra is not None:
                    cell = extra
                else:
                    break
                if not cell.accepts(value):
                    suggestion = None
                    if cell.enum_values is not None:
                        suggestion = suggest(value, cell.enum_values)
                    errors.append(
                        TlError(
                            tuple(path),
                            CELL_TYPE_MISMATCH,
                            f"word {i + 2} {value!r} is not a valid {cell.name}",
                            suggestion=suggestion,
                        )
                    )
        yield node, node_type

        children = node._kids
        if not children:
            continue
        if not context[0] and context[1] is None:
            message = f"{node_type.name} nodes do not take children"
            prefix = tuple(path)
            errors.extend(TlError(prefix + (j,), ILLEGAL_CHILD, message) for j in range(len(children)))
            continue
        stack.extend(zip(reversed(children), repeat(depth + 1), repeat(context)))


# ---------------------------------------------------------------------------
# suggestions and autofix

_SUGGEST_MAX_DISTANCE = 2


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance (insert, delete, substitute all cost 1)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


def suggest(word: str, candidates: "Iterable[str]") -> str | None:
    """Nearest candidate within two edits; ties go alphabetically."""
    best = None
    best_distance = _SUGGEST_MAX_DISTANCE + 1
    # The edit distance is never below the length difference, so a candidate
    # whose length is as far off as the best distance so far cannot win; the
    # filter reads ``best_distance`` afresh for each candidate.
    for candidate in (c for c in sorted(candidates) if abs(len(c) - len(word)) < best_distance):
        distance = levenshtein(word, candidate)
        if distance < best_distance:
            best, best_distance = candidate, distance
    return best


def autofix(doc: TreeDocument, grammar: Grammar) -> TreeDocument:
    """Apply every first-word suggestion; idempotent, never raises.

    Only unknown-node-type errors carry applicable suggestions.  The
    fix is the typed walk itself, with fixing on: it corrects each node
    as it reaches it, before its children, so a fixed node's children
    are fixed in the same top-down pass.
    """
    fixed = doc.clone()
    _check_roots(fixed.roots, 0, len(fixed.roots), grammar, fix=True)
    return fixed


# ---------------------------------------------------------------------------
# compiling

_PLACEHOLDER = re.compile(r"\{(?:(w)|c(?:\|([^{}]*))?|([0-9]+)(\+?))\}")


def compile_doc(doc: TreeDocument, grammar: Grammar) -> str:
    """Render a checked document through its node types' templates.

    Refuses documents with pending check errors.  Nodes without a
    template contribute their compiled children joined by newlines.
    """
    errors: "list[TlError]" = []
    typed = list(_typed_walk(doc.roots, 0, len(doc.roots), grammar, errors))
    if errors:
        exc = CompileError(f"document has {len(errors)} error(s); fix them before compiling")
        exc.errors = tuple(errors)
        raise exc
    # One frame (node, node_type, rendered children) per open node, over a
    # sentinel frame whose list collects the roots' output.  The invariant:
    # the open frames are the ancestors of the next node to render, and each
    # frame's list holds its finished children, so each frame's count is a
    # step of that node's path.  A frame closes once it holds one string per
    # child and renders into its parent's list.  The sentinel's node has no
    # children and its list is never empty when on top, so it never closes.
    roots: "list[str]" = []
    frames = [(TreeNode(), None, roots)]
    for node, node_type in typed:
        frames.append((node, node_type, []))
        while len(frames[-1][2]) == len(frames[-1][0]._kids or ()):
            node, node_type, children = frames.pop()
            template = node_type.template
            try:
                frames[-1][2].append(NEWLINE.join(children) if template is None else _fill(template, node, children))
            except CompileError as exc:
                exc.path = tuple(len(frame[2]) for frame in frames)
                raise
    return NEWLINE.join(roots)


def _fill(template, node, rendered_children) -> str:
    words = node.words

    def substitute(match: "re.Match[str]") -> str:
        if match.group(1):  # {w}
            return words[0]
        index = match.group(3)
        if index is None:  # {c} or {c|SEP}
            separator = match.group(2)
            return (NEWLINE if separator is None else separator).join(rendered_children)
        try:
            position = int(index) + 1
        except ValueError:  # past the interpreter's int-to-string digit limit: past the last word
            position = len(words)
        if match.group(4):  # {N+}: empty when no words remain
            return WORD_SEP.join(words[position:])
        if position >= len(words):
            raise CompileError(f"template placeholder {{{index}}} out of range for line {node.line!r}")
        return words[position]

    return _PLACEHOLDER.sub(substitute, template)


# ---------------------------------------------------------------------------
# bundled grammars


_GRAMMARS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "grammars")


def builtin_grammar_text(name: str) -> str:
    """Source text of a bundled grammar (``jsontl`` or ``maptl``)."""
    # A plain file read: importlib.resources would cost more start-up time
    # than the rest of the grammar engine.
    path = os.path.join(_GRAMMARS_DIR, f"{name}.grammar")
    if os.path.dirname(path) != _GRAMMARS_DIR or not os.path.isfile(path):
        raise GrammarLoadError(f"no bundled grammar named {name!r}")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def load_builtin_grammar(name: str) -> Grammar:
    return load_grammar(builtin_grammar_text(name))
