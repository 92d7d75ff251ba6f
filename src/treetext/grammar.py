"""A deliberately minimal grammar engine for line-oriented tree dialects.

A grammar names the node types a document may contain, the cell types
that constrain the words of each line, and an optional compile template
per node type.  Checking a document yields a flat list of errors; each
subtree is checked independently of its siblings, so one broken branch
never hides problems elsewhere.  Unknown first words get a spelling
suggestion when a known one is close, and ``autofix`` applies those
suggestions mechanically.

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
errors: grammars are the trusted layer.

Compile templates are flat substitutions.  ``{0}``, ``{1}``, ... insert
the words after the first word; ``{N+}`` inserts words N+1 onward joined
by spaces; ``{w}`` inserts the first word itself; ``{c}`` inserts the
compiled children joined by newlines, and ``{c|SEP}`` joins them with SEP
instead (for example ``{c|,}`` for comma-separated output).  Anything
else in the template is literal text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from treetext.core import (
    NEWLINE,
    WORD_SEP,
    NodePath,
    TreeDocument,
    TreeError,
    TreeNode,
    _map_blocks,
    parse,
)

# Error kinds reported by check() and by the typed codecs.
UNKNOWN_NODE_TYPE = "unknownNodeType"
CELL_TYPE_MISMATCH = "cellTypeMismatch"
ARITY_MISMATCH = "arityMismatch"
ILLEGAL_CHILD = "illegalChild"
DUPLICATE_ROOT = "duplicateRoot"

CELL_BASES = ("word", "int", "float", "bool", "any")

_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class TlError:
    """One language-level error, locatable in the checked document."""

    path: NodePath
    kind: str
    message: str
    suggestion: Optional[str] = None


class GrammarLoadError(TreeError):
    """The grammar file itself is malformed."""

    def __init__(self, message: str, path: NodePath = ()):
        super().__init__(f"{message} (at path {list(path)})" if path else message)
        self.path = path


class CompileError(TreeError):
    """Compilation refused or failed; ``errors`` holds pending check errors."""

    def __init__(self, message: str, path: NodePath = (), errors: "tuple[TlError, ...]" = ()):
        super().__init__(message)
        self.path = path
        self.errors = errors


@dataclass(frozen=True)
class CellTypeDef:
    name: str
    base: str = "any"
    enum_values: Optional[frozenset] = None
    pattern: Optional["re.Pattern[str]"] = None

    def accepts(self, word: str) -> bool:
        if self.base == "word":
            if word == "":
                return False
        elif self.base == "int":
            if _INT_RE.fullmatch(word) is None:
                return False
        elif self.base == "float":
            if _FLOAT_RE.fullmatch(word) is None:
                return False
        elif self.base == "bool":
            if word not in ("true", "false"):
                return False
        if self.enum_values is not None and word not in self.enum_values:
            return False
        if self.pattern is not None and self.pattern.fullmatch(word) is None:
            return False
        return True


@dataclass
class NodeTypeDef:
    name: str
    match: str
    cells: "tuple[str, ...]" = ()
    catch_all_cell: Optional[str] = None
    child_types: "tuple[str, ...]" = ()
    catch_all_child: Optional[str] = None
    is_root: bool = False
    is_root_catch_all: bool = False
    template: Optional[str] = None


@dataclass
class Grammar:
    """An immutable (after load) tree-language definition."""

    name: str = ""
    node_types: "dict[str, NodeTypeDef]" = field(default_factory=dict)
    cell_types: "dict[str, CellTypeDef]" = field(default_factory=dict)
    root_types: "tuple[str, ...]" = ()
    root_catch_all: Optional[str] = None
    # One (table, catch_all) pair per context, keyed by the parent node
    # type's name; the key None holds the depth-0 context.  ``table`` maps
    # each match word to the first node type declared with it, and a node
    # resolves with ``table.get(first_word, catch_all)``.
    _contexts: "dict[Optional[str], tuple]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        types = self.node_types
        self._contexts = {
            nt.name: _context(types, nt.child_types, nt.catch_all_child) for nt in types.values()
        }
        self._contexts[None] = _context(
            types, [n for n in self.root_types if n != self.root_catch_all], self.root_catch_all
        )


def _context(types, names, catch_all):
    table: "dict[str, NodeTypeDef]" = {}
    for name in names:
        table.setdefault(types[name].match, types[name])  # the first listed type wins
    return table, types[catch_all] if catch_all else None


# ---------------------------------------------------------------------------
# loading


def load_grammar(text: str) -> Grammar:
    """Parse and validate a grammar file. Raises GrammarLoadError."""
    doc = parse(text)
    name: Optional[str] = None
    node_types: "dict[str, NodeTypeDef]" = {}
    cell_types: "dict[str, CellTypeDef]" = {}
    pending_refs: "list[tuple[NodePath, str, str]]" = []  # (path, kind, name)

    for i, block in enumerate(doc.roots):
        words = block.words
        keyword = words[0]
        if keyword == "grammar":
            if name is not None:
                raise GrammarLoadError("duplicate grammar name", (i,))
            if block.children:
                raise GrammarLoadError("grammar directive takes no children", (i,))
            name = block.content
        elif keyword == "nodetype":
            type_name = _single_word(block, (i,), "name")
            if type_name in node_types:
                raise GrammarLoadError(f"duplicate nodetype {type_name!r}", (i,))
            node_types[type_name] = _load_node_type(type_name, block, (i,), pending_refs)
        elif keyword == "celltype":
            type_name = _single_word(block, (i,), "name")
            if type_name in cell_types:
                raise GrammarLoadError(f"duplicate celltype {type_name!r}", (i,))
            cell_types[type_name] = _load_cell_type(type_name, block, (i,))
        elif block.line == "":
            continue  # blank separator lines are fine
        else:
            raise GrammarLoadError(f"unknown directive {keyword!r}", (i,))

    for path, kind, ref in pending_refs:
        if kind == "cell" and ref not in cell_types:
            raise GrammarLoadError(f"reference to unknown celltype {ref!r}", path)
        if kind == "node" and ref not in node_types:
            raise GrammarLoadError(f"reference to unknown nodetype {ref!r}", path)

    root_types = tuple(n for n, nt in node_types.items() if nt.is_root)
    catch_all_roots = [n for n, nt in node_types.items() if nt.is_root_catch_all]
    if len(catch_all_roots) > 1:
        raise GrammarLoadError("more than one catch-all root nodetype")
    if not root_types:
        raise GrammarLoadError("empty root type set: no nodetype is marked root")
    root_catch_all = catch_all_roots[0] if catch_all_roots else None
    return Grammar(name or "", node_types, cell_types, root_types, root_catch_all)


def _single_word(node: TreeNode, path: NodePath, noun: str = "value") -> str:
    words = node.words
    if len(words) != 2 or words[1] == "":
        raise GrammarLoadError(f"{words[0]} needs exactly one {noun}", path)
    return words[1]


def _word_list(node: TreeNode, path: NodePath) -> "tuple[str, ...]":
    values = tuple(w for w in node.words[1:] if w != "")
    if not values:
        raise GrammarLoadError(f"{node.first_word} needs at least one value", path)
    return values


def _load_node_type(name, block, path, pending_refs) -> NodeTypeDef:
    nt = NodeTypeDef(name=name, match=name)
    for j, directive in enumerate(block.children):
        dpath = path + (j,)
        if directive.children:
            raise GrammarLoadError("directives take no children", dpath)
        keyword = directive.first_word
        if keyword == "match":
            nt.match = _single_word(directive, dpath)
        elif keyword == "cells":
            nt.cells = _word_list(directive, dpath)
            pending_refs.extend((dpath, "cell", c) for c in nt.cells)
        elif keyword == "catchAllCell":
            nt.catch_all_cell = _single_word(directive, dpath)
            pending_refs.append((dpath, "cell", nt.catch_all_cell))
        elif keyword == "children":
            nt.child_types = _word_list(directive, dpath)
            pending_refs.extend((dpath, "node", c) for c in nt.child_types)
        elif keyword == "catchAllChild":
            nt.catch_all_child = _single_word(directive, dpath)
            pending_refs.append((dpath, "node", nt.catch_all_child))
        elif keyword == "root":
            if directive.content == "":
                nt.is_root = True
            elif directive.content == "catchall":
                nt.is_root = True
                nt.is_root_catch_all = True
            else:
                raise GrammarLoadError("root takes nothing or 'catchall'", dpath)
        elif keyword == "compile":
            nt.template = directive.content
        else:
            raise GrammarLoadError(f"unknown nodetype directive {keyword!r}", dpath)
    return nt


def _load_cell_type(name, block, path) -> CellTypeDef:
    base = "any"
    enum_values = None
    pattern = None
    for j, directive in enumerate(block.children):
        dpath = path + (j,)
        if directive.children:
            raise GrammarLoadError("directives take no children", dpath)
        keyword = directive.first_word
        if keyword == "base":
            base = _single_word(directive, dpath)
            if base not in CELL_BASES:
                raise GrammarLoadError(
                    f"unknown base {base!r}, expected one of {', '.join(CELL_BASES)}", dpath
                )
        elif keyword == "enum":
            enum_values = frozenset(_word_list(directive, dpath))
        elif keyword == "regex":
            try:
                pattern = re.compile(directive.content)
            except re.error as exc:
                raise GrammarLoadError(f"bad regex: {exc}", dpath) from None
        else:
            raise GrammarLoadError(f"unknown celltype directive {keyword!r}", dpath)
    return CellTypeDef(name=name, base=base, enum_values=enum_values, pattern=pattern)


# ---------------------------------------------------------------------------
# checking


def check(doc: TreeDocument, grammar: Grammar) -> "list[TlError]":
    """Check every node against the grammar; errors never stop the walk.

    Each depth-0 subtree is checked in isolation, so the errors for a
    concatenation of two documents are the union of their separate
    errors with the second document's paths offset.
    """
    return _check_roots(doc.roots, 0, len(doc.roots), grammar)


def check_parallel(doc: TreeDocument, grammar: Grammar, max_workers: Optional[int] = None) -> "list[TlError]":
    """Check depth-0 subtrees concurrently; result equals ``check``.

    Each worker checks one contiguous run of depth-0 subtrees.  Under
    CPython's global interpreter lock this demonstrates that the
    subtrees are independent; it is not a speedup.
    """
    roots = doc.roots
    return _map_blocks(
        lambda lo, hi: _check_roots(roots, lo, hi, grammar), range(len(roots)), len(roots), max_workers
    )


def _check_roots(roots, lo, hi, grammar) -> "list[TlError]":
    errors: "list[TlError]" = []
    # (node, path, parent node type's name or None at depth 0); children
    # are pushed last-first so errors come out in document pre-order.
    stack = [(roots[i], (i,), None) for i in reversed(range(lo, hi))]
    while stack:
        node, path, parent = stack.pop()
        table, catch_all = grammar._contexts[parent]
        first = node.first_word
        node_type = table.get(first, catch_all)
        if node_type is None:
            if any(nt.match == first for nt in grammar.node_types.values()):
                errors.append(TlError(path, ILLEGAL_CHILD, f"node type {first!r} is not allowed here"))
            else:
                message = f"unknown node type {first!r}"
                errors.append(TlError(path, UNKNOWN_NODE_TYPE, message, suggestion=suggest(first, table)))
            continue  # children of an unresolved node have no defined types

        _check_cells(node, path, node_type, grammar, errors)

        children = node.children
        if not children:
            continue
        if not node_type.child_types and node_type.catch_all_child is None:
            errors.extend(
                TlError(path + (j,), ILLEGAL_CHILD, f"{node_type.name} nodes do not take children")
                for j in range(len(children))
            )
            continue
        stack.extend((children[j], path + (j,), node_type.name) for j in reversed(range(len(children))))
    return errors


def _check_cells(node, path, node_type, grammar, errors) -> None:
    values = node.words[1:]
    cells = node_type.cells
    if len(values) < len(cells) or (len(values) > len(cells) and node_type.catch_all_cell is None):
        errors.append(
            TlError(
                path,
                ARITY_MISMATCH,
                f"expected {len(cells)} cells after {node.first_word!r}, got {len(values)}",
            )
        )
    for i, value in enumerate(values):
        if i < len(cells):
            cell_name = cells[i]
        elif node_type.catch_all_cell is not None:
            cell_name = node_type.catch_all_cell
        else:
            break
        cell = grammar.cell_types[cell_name]
        if not cell.accepts(value):
            suggestion = None
            if cell.enum_values is not None:
                suggestion = suggest(value, sorted(cell.enum_values))
            errors.append(
                TlError(
                    path,
                    CELL_TYPE_MISMATCH,
                    f"word {i + 2} {value!r} is not a valid {cell.name}",
                    suggestion=suggestion,
                )
            )


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


def suggest(word: str, candidates: "Iterable[str]") -> Optional[str]:
    """Nearest candidate within two edits; ties go alphabetically."""
    best = None
    best_distance = _SUGGEST_MAX_DISTANCE + 1
    for candidate in sorted(candidates):
        distance = levenshtein(word, candidate)
        if distance < best_distance:
            best, best_distance = candidate, distance
    return best


def autofix(doc: TreeDocument, grammar: Grammar) -> TreeDocument:
    """Apply every first-word suggestion; idempotent, never raises.

    Only unknown-node-type errors carry applicable suggestions.  Fixing a
    node can make its children checkable for the first time, so the pass
    repeats until no applicable suggestion remains; the repeat count is
    bounded by the document depth.
    """
    fixed = doc.clone()
    for _ in range(fixed.max_depth() + 2):
        applicable = [
            e for e in check(fixed, grammar)
            if e.kind == UNKNOWN_NODE_TYPE and e.suggestion is not None
        ]
        if not applicable:
            break
        for error in applicable:
            node = fixed.get_node(error.path)
            words = node.words
            words[0] = error.suggestion
            node.set_line(WORD_SEP.join(words))
    return fixed


# ---------------------------------------------------------------------------
# compiling

_PLACEHOLDER = re.compile(r"\{(?:(w)|c(?:\|([^{}]*))?|([0-9]+)(\+?))\}")


def compile_doc(doc: TreeDocument, grammar: Grammar) -> str:
    """Render a checked document through its node types' templates.

    Refuses documents with pending check errors.  Nodes without a
    template contribute their compiled children joined by newlines.
    """
    errors = check(doc, grammar)
    if errors:
        raise CompileError(
            f"document has {len(errors)} error(s); fix them before compiling",
            errors=tuple(errors),
        )
    # Children are pushed first-first, so the visit order read backwards
    # is post-order with each node's children in document order.
    visited: "list[tuple[TreeNode, NodeTypeDef]]" = []
    stack = [(root, None) for root in doc.roots]
    while stack:
        node, parent = stack.pop()
        table, catch_all = grammar._contexts[parent]
        node_type = table.get(node.first_word, catch_all)  # check passed: never None
        visited.append((node, node_type))
        stack.extend((child, node_type.name) for child in node.children)
    # Each node's rendered children are the last len(children) entries.
    rendered: "list[str]" = []
    for node, node_type in reversed(visited):
        cut = len(rendered) - len(node.children)
        children = rendered[cut:]
        del rendered[cut:]
        if node_type.template is None:
            rendered.append(NEWLINE.join(children))
            continue
        try:
            rendered.append(_fill(node_type.template, node, children))
        except CompileError as exc:
            exc.path = next(path for path, n in doc.walk() if n is node)
            raise
    return NEWLINE.join(rendered)


def _fill(template, node, rendered_children) -> str:
    words = node.words

    def substitute(match: "re.Match[str]") -> str:
        if match.group(1):  # {w}
            return words[0]
        index = match.group(3)
        if index is None:  # {c} or {c|SEP}
            separator = match.group(2)
            return (NEWLINE if separator is None else separator).join(rendered_children)
        position = int(index) + 1
        if match.group(4):  # {N+}: empty when no words remain
            return WORD_SEP.join(words[position:])
        if position >= len(words):
            raise CompileError(f"template placeholder {{{index}}} out of range for line {node.line!r}")
        return words[position]

    return _PLACEHOLDER.sub(substitute, template)


# ---------------------------------------------------------------------------
# bundled grammars


def builtin_grammar_text(name: str) -> str:
    """Source text of a bundled grammar (``jsontl`` or ``maptl``)."""
    from importlib.resources import files

    resource = files("treetext").joinpath(f"grammars/{name}.grammar")
    if not resource.is_file():
        raise GrammarLoadError(f"no bundled grammar named {name!r}")
    return resource.read_text(encoding="utf-8")


def load_builtin_grammar(name: str) -> Grammar:
    return load_grammar(builtin_grammar_text(name))
