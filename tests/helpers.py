"""Shared test utilities: an in-process CLI runner and random generators.

The generators take an explicit random.Random so every test pins its own
seed; nothing here reads global RNG state.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional

from treetext.cli import main
from treetext.codec import (
    TAGS,
    _JSON_NUMBER,
    ConversionError,
    _check_key,
    _fail,
)
from treetext.core import (
    DUPLICATE_ROOT,
    INDENT,
    NEWLINE,
    WORD_SEP,
    NodePath,
    TreeDocument,
    TreeError,
    TreeNode,
    parse,
    serialize,
)
from treetext.differ import PatchFormatError, PatchMismatchError
from treetext.grammar import (
    ARITY_MISMATCH,
    CELL_BASES,
    CELL_TYPE_MISMATCH,
    ILLEGAL_CHILD,
    UNKNOWN_NODE_TYPE,
    CellTypeDef,
    CompileError,
    Grammar,
    GrammarLoadError,
    NodeTypeDef,
    TlError,
    _fill,
    _typed_walk,
    suggest,
)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: "list[str]", stdin: bytes = b"") -> CliResult:
    """Run the CLI in process with captured byte-accurate streams."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", newline="")
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors land here
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        sys.stderr.flush()
        out = sys.stdout.buffer.getvalue().decode("utf-8")
        err = sys.stderr.buffer.getvalue().decode("utf-8")
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliResult(code, out, err)


def patch_op_words(patch: TreeDocument) -> "list[str]":
    """First words of every operation node, descending into descend ops.

    Children of insert operations are data, not operations, so they are
    deliberately not visited.
    """
    words: "list[str]" = []

    def visit(ops):
        for op in ops:
            words.append(op.first_word)
            if op.first_word == "descend":
                visit(op.children)

    visit(patch.roots)
    return words


# ---------------------------------------------------------------------------
# fuzz text

_PALETTE = (
    "abcdexyz"  # word letters
    "é中🌲"  # multibyte content
    "\t\r"  # control characters that are plain content
)


def fuzz_string(rng: random.Random, max_len: int = 4096) -> str:
    """Random text biased toward structure: whitespace runs and words."""
    target = rng.randrange(0, max_len + 1)
    chunks: "list[str]" = []
    size = 0
    while size < target:
        roll = rng.random()
        if roll < 0.25:
            chunk = " " * rng.randrange(1, 6)
        elif roll < 0.35:
            chunk = "\n" * rng.randrange(1, 3)
        elif roll < 0.40:
            # arbitrary code points, skipping the surrogate range
            cp = rng.randrange(32, 0x2FFFF)
            chunk = chr(cp) if not 0xD800 <= cp <= 0xDFFF else "?"
        else:
            chunk = "".join(rng.choice(_PALETTE) for _ in range(rng.randrange(1, 12)))
        chunks.append(chunk)
        size += len(chunk)
    return "".join(chunks)[:target]


# ---------------------------------------------------------------------------
# random documents

_LINE_WORDS = ("alpha", "beta", "gamma", "delta", "x", "y", "12", "née")


def random_line(rng: random.Random) -> str:
    words = [rng.choice(_LINE_WORDS) for _ in range(rng.randrange(1, 4))]
    return " ".join(words)


def random_document(rng: random.Random, max_nodes: int = 40, max_depth: int = 4) -> TreeDocument:
    doc = TreeDocument()
    budget = rng.randrange(0, max_nodes + 1)

    def grow(children: "list[TreeNode]", depth: int) -> None:
        nonlocal budget
        while budget > 0 and rng.random() < (0.7 if depth == 0 else 0.5):
            node = TreeNode(random_line(rng))
            children.append(node)
            budget -= 1
            if depth < max_depth and rng.random() < 0.4:
                grow(node.children, depth + 1)

    grow(doc.roots, 0)
    return doc


# Ten times CPython's default recursion limit.
DEEP = 10_000


def chain(depth: int, leaf: str, inner: str = "a") -> TreeDocument:
    """One root: ``depth`` nested ``inner`` nodes above a ``leaf`` node.

    Built from nodes, not text: a 10,000-level chain is about 50 MB as text.
    """
    node = TreeNode(leaf)
    for _ in range(depth):
        node = TreeNode(inner, [node])
    return TreeDocument([node])


def spine(node: TreeNode) -> "list[TreeNode]":
    """The node and its first-child descendants, top down."""
    nodes = [node]
    while nodes[-1].children:
        nodes.append(nodes[-1].children[0])
    return nodes


def reference_walk_depth(roots) -> "Iterator[tuple[TreeNode, int]]":
    """The core walker as it was before child iterators: every child is
    pushed as a ``(node, depth)`` tuple.  Kept as a reference for
    ``treetext.core._walk_depth``."""
    stack = [(node, 0) for node in reversed(list(roots))]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def reference_levenshtein(a: str, b: str) -> int:
    """Edit distance from the full ``(len(a) + 1) × (len(b) + 1)`` table,
    kept as a reference for ``treetext.grammar.levenshtein``."""
    table = [[i + j for j in range(len(b) + 1)] for i in range(len(a) + 1)]  # first row and column final
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            substitute = table[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, substitute)
    return table[-1][-1]


def reference_parse_lines(lines: "list[str]") -> "list[TreeNode]":
    """``treetext.core._parse_lines`` as it was before the mapped pass:
    one stack of open nodes, with depth ``min(indent, len(stack))``.
    Kept as a reference for the parser."""
    roots: "list[TreeNode]" = []
    # stack[i] is the most recent node at depth i along the open spine;
    # its length is always previous depth + 1.
    stack: "list[TreeNode]" = []
    for raw in lines:
        indent = len(raw) - len(raw.lstrip(INDENT))
        depth = min(indent, len(stack))
        node = TreeNode(raw[depth:])
        if depth == 0:
            roots.append(node)
        else:
            stack[depth - 1].children.append(node)
        del stack[depth:]
        stack.append(node)
    return roots


def mutate_document(rng: random.Random, doc: TreeDocument) -> TreeDocument:
    """A few random structural edits; returns an independent copy."""
    out = parse(doc.serialize())
    for _ in range(rng.randrange(1, 6)):
        paths = [path for path, _ in out.walk()]
        action = rng.random()
        if paths and action < 0.3:
            out.delete_node(rng.choice(paths))
        elif paths and action < 0.6:
            out.get_node(rng.choice(paths)).set_line(random_line(rng))
        else:
            node = TreeNode(random_line(rng))
            if paths and rng.random() < 0.5:
                parent = out.get_node(rng.choice(paths))
                parent.children.insert(rng.randrange(len(parent.children) + 1), node)
            else:
                out.roots.insert(rng.randrange(len(out.roots) + 1), node)
    return out


# ---------------------------------------------------------------------------
# reference diff


def reference_diff(a: TreeDocument, b: TreeDocument) -> TreeDocument:
    """The differ's original dense-table LCS traceback, kept as an oracle.

    It fills a full (n+1)×(m+1) table per sibling level, compares matched
    pairs by serialization and recurses, so use it on small documents only.
    """
    patch = TreeDocument(_reference_siblings(a.roots, b.roots))
    return patch if patch.roots else TreeDocument([TreeNode("keep 0")])


def _reference_siblings(old: "list[TreeNode]", new: "list[TreeNode]") -> "list[TreeNode]":
    # table[i][j] = LCS length of old[i:] vs new[j:], keyed on lines.
    table = [[0] * (len(new) + 1) for _ in range(len(old) + 1)]
    for i in range(len(old) - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(len(new) - 1, -1, -1):
            if old[i].line == new[j].line:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    ops: "list[TreeNode]" = []

    def bump(word: str) -> None:
        if ops and ops[-1].first_word == word:
            ops[-1].set_line(f"{word} {int(ops[-1].words[1]) + 1}")
        else:
            ops.append(TreeNode(f"{word} 1"))

    i = j = 0
    while i < len(old) or j < len(new):
        if (
            i < len(old)
            and j < len(new)
            and old[i].line == new[j].line
            and table[i][j] == table[i + 1][j + 1] + 1
        ):
            if old[i] == new[j]:
                bump("keep")
            else:
                ops.append(TreeNode("descend", _reference_siblings(old[i].children, new[j].children)))
            i += 1
            j += 1
        elif i < len(old) and (j >= len(new) or table[i + 1][j] >= table[i][j + 1]):
            bump("delete")
            i += 1
        else:
            if not (ops and ops[-1].line == "insert"):
                ops.append(TreeNode("insert"))
            ops[-1].children.append(new[j].clone())
            j += 1
    return ops


# ---------------------------------------------------------------------------
# reference apply_patch


def reference_apply_patch(patch: TreeDocument, doc: TreeDocument) -> TreeDocument:
    """PatchTL replayed recursively from the README's rules, kept as an oracle.

    Each level reads its ops until its first error, records that error
    under (depth, patch path of the level) and recurses into the descends
    it entered before the error.  The least key's error is raised: the
    first failing level in breadth-first order, each depth's levels in
    patch order.  Recursive, so use it on shallow patches only.
    """
    errors: "dict[tuple, TreeError]" = {}
    roots = _reference_replay(patch.roots, doc.roots, (), (), errors)
    if errors:
        raise errors[min(errors)]
    return TreeDocument(roots)


def _reference_replay(ops, source, op_path: NodePath, doc_path: NodePath, errors: dict) -> "list[TreeNode]":
    out: "list[TreeNode]" = []
    i = 0
    try:
        for k, op in enumerate(ops):
            word, here = op.first_word, op_path + (k,)
            if word in ("keep", "delete"):
                if op.children:
                    raise PatchFormatError(f"{word} takes no children", here)
                if len(op.words) != 2 or not re.fullmatch("[0-9]+", op.words[1]):
                    raise PatchFormatError(f"{word} needs one nonnegative count", here)
                try:
                    count = int(op.words[1])
                except ValueError:
                    raise PatchFormatError(f"{word} count is too long", here) from None
                if count > len(source) - i:
                    raise PatchMismatchError(
                        f"{word} {count} overruns {len(source) - i} remaining sibling(s)", doc_path + (i,)
                    )
                if word == "keep":
                    out.extend(node.clone() for node in source[i : i + count])
                i += count
            elif word not in ("insert", "descend"):
                raise PatchFormatError(f"unknown operation {word!r}", here)
            elif op.content:
                raise PatchFormatError(f"{word} takes no words", here)
            elif word == "insert":
                out.extend(node.clone() for node in op.children)
            elif i == len(source):
                raise PatchMismatchError("descend overruns the sibling list", doc_path + (i,))
            else:
                children = _reference_replay(op.children, source[i].children, here, doc_path + (i,), errors)
                out.append(TreeNode(source[i].line, children))
                i += 1
        if i != len(source):
            raise PatchMismatchError(f"patch left {len(source) - i} sibling(s) unconsumed", doc_path + (i,))
    except TreeError as error:
        errors[len(op_path), op_path] = error
    return out


_BAD_OPS = ("kep 1", "keep x", "insert a", "delete 3")


def mutate_patch(rng: random.Random, patch: TreeDocument) -> TreeDocument:
    """A copy of ``patch`` with one to three edits, each to a random op
    list: an op line replaced by, or a new op made of, one of
    ``_BAD_OPS``, or a child put under a keep.  Several edits in
    different levels test which error wins."""
    out = parse(patch.serialize())
    levels = [out.roots]
    for ops in levels:  # a descend's children are ops; an insert's are data
        levels.extend(op.children for op in ops if op.first_word == "descend")
    for _ in range(rng.randrange(1, 4)):
        ops = rng.choice(levels)
        keeps = [op for op in ops if op.first_word == "keep"]
        action = rng.randrange(3)
        if action == 0 and keeps:
            rng.choice(keeps).children.append(TreeNode("keep 1"))
        elif action == 1 and ops:
            ops[rng.randrange(len(ops))].set_line(rng.choice(_BAD_OPS))
        else:
            ops.insert(rng.randrange(len(ops) + 1), TreeNode(rng.choice(_BAD_OPS)))
    return out


# ---------------------------------------------------------------------------
# random JSON values

_KEY_LETTERS = "abcdefghij"


def random_key(rng: random.Random) -> str:
    return "".join(rng.choice(_KEY_LETTERS) for _ in range(rng.randrange(1, 9)))


def random_json(rng: random.Random, depth: int = 6, container_odds: float = 0.6, text=None):
    """A random JSON value; ``text(rng)``, if given, draws every string."""
    if depth > 0 and rng.random() < container_odds:
        if rng.random() < 0.5:
            # sorted first: a set's order of strings varies between processes
            keys = sorted({random_key(rng) for _ in range(rng.randrange(0, 5))})
            return {k: random_json(rng, depth - 1, text=text) for k in sorted(keys, key=lambda _: rng.random())}
        return [random_json(rng, depth - 1, text=text) for _ in range(rng.randrange(0, 5))]
    roll = rng.random()
    if roll < 0.25:
        return random_string(rng) if text is None else text(rng)
    if roll < 0.45:
        return rng.randrange(-10**12, 10**12)
    if roll < 0.65:
        return rng.choice([0.0, -0.0, 1e20, -2.5e-8, rng.uniform(-1e6, 1e6), rng.random()])
    if roll < 0.8:
        return rng.random() < 0.5
    if roll < 0.9:
        return None
    if text is not None:
        return text(rng)
    return rng.choice(["", " ", "two words", "line one\nline two", "\n", "  indented\ntail"])


def random_string(rng: random.Random) -> str:
    alphabet = "abc XY\"\\\t\né🌲\n"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))


# ---------------------------------------------------------------------------
# reference JSON codecs
#
# The scalar rules below are the codec's two type dispatches from before it
# read each value once; the oracles keep their own copy so that they share no
# code with the encoders they check.


def _is_multiline(value) -> bool:
    return isinstance(value, str) and NEWLINE in value


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return value
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConversionError(f"non-finite number {value!r} has no JSON text")
        return repr(value)
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise ConversionError("integer has too many digits to write as JSON text") from None
    raise ConversionError(f"{type(value).__name__} is not a JSON value")


def _tag_for(value) -> str:
    if isinstance(value, dict):
        return "o"
    if isinstance(value, list):
        return "a"
    if isinstance(value, str):
        return "s"
    if value is True or value is False:
        return "b"
    if value is None:
        return "z"
    if isinstance(value, (int, float)):
        return "n"
    raise ConversionError(f"{type(value).__name__} is not a JSON value")


def reference_from_json_untyped(value) -> TreeDocument:
    """The codec's original recursive untyped projection, kept as an oracle.

    It recurses once per level, so use it on shallow values only.
    """
    if not isinstance(value, dict):
        raise ConversionError("untyped projection takes a JSON object at top level")
    return TreeDocument([_reference_project(TreeNode(_check_key(k)), v) for k, v in value.items()])


def _reference_element(value) -> TreeNode:
    if not isinstance(value, (dict, list)) and not _is_multiline(value):
        return TreeNode(WORD_SEP + _scalar_text(value))
    return _reference_project(TreeNode(""), value)


def _reference_project(node: TreeNode, value) -> TreeNode:
    if isinstance(value, dict):
        node.children = [_reference_project(TreeNode(_check_key(k)), v) for k, v in value.items()]
    elif isinstance(value, list):
        node.children = [_reference_element(v) for v in value]
    elif _is_multiline(value):
        node.children = parse(value).roots
    else:
        text = _scalar_text(value)
        if text:
            node.set_line(node.line + WORD_SEP + text)
    return node


def reference_from_json_typed(value) -> TreeDocument:
    """The codec's original recursive JsonTL encoder, kept as an oracle.

    Two changes: it took key None for "no key", so an object member keyed
    None lost its key silently; here ``keyed`` says whether there is one.
    And it checked a member's value before its key; here the key comes
    first, as in both encoders.
    """
    return TreeDocument([_reference_encode(value, None, keyed=False)])


def _reference_encode(value, key, keyed: bool) -> TreeNode:
    key_word = WORD_SEP + _check_key(key) if keyed else ""
    head = _tag_for(value) + key_word
    node = TreeNode(head)
    if isinstance(value, dict):
        node.children = [_reference_encode(v, k, keyed=True) for k, v in value.items()]
    elif isinstance(value, list):
        node.children = [_reference_encode(v, None, keyed=False) for v in value]
    elif _is_multiline(value):
        node.children = parse(value).roots
    elif value is not None and value != "":
        node.set_line(head + WORD_SEP + _scalar_text(value))
    return node


def reference_to_json_typed(doc: TreeDocument):
    """The codec's original recursive JsonTL decoder, kept as an oracle."""
    if len(doc.roots) == 0:
        raise _fail((), ARITY_MISMATCH, "expected exactly one root node, got none")
    if len(doc.roots) > 1:
        raise _fail((1,), DUPLICATE_ROOT, f"expected exactly one root node, got {len(doc.roots)}")
    return _reference_decode(doc.roots[0], (0,), keyed=False)[1]


def _reference_decode(node: TreeNode, path, keyed: bool):
    if keyed:
        parts = node.line.split(WORD_SEP, 2)
        if len(parts) < 2:
            raise _fail(path, ARITY_MISMATCH, f"missing key after tag {parts[0]!r} in object")
        tag, key, rest = parts[0], parts[1], parts[2] if len(parts) == 3 else ""
    else:
        parts = node.line.split(WORD_SEP, 1)
        tag, key, rest = parts[0], None, parts[1] if len(parts) == 2 else ""
    if tag not in TAGS:
        raise _fail(path, UNKNOWN_NODE_TYPE, f"unknown tag {tag!r}", suggest(tag, sorted(TAGS)))
    if tag in ("n", "b", "z") and node.children:
        raise _fail(path + (0,), ILLEGAL_CHILD, f"{TAGS[tag]} nodes do not take children")
    if tag == "o":
        if rest:
            raise _fail(path, ARITY_MISMATCH, f"object node takes no words after the key, got {rest!r}")
        value: dict = {}
        for i, child in enumerate(node.children):
            child_key, child_value = _reference_decode(child, path + (i,), keyed=True)
            if child_key in value:
                raise _fail(path + (i,), DUPLICATE_ROOT, f"duplicate key {child_key!r}")
            value[child_key] = child_value
        return key, value
    if tag == "a":
        if rest:
            raise _fail(path, ARITY_MISMATCH, f"array node takes no words after the key, got {rest!r}")
        return key, [_reference_decode(c, path + (i,), keyed=False)[1] for i, c in enumerate(node.children)]
    if tag == "s":
        if node.children:
            if rest:
                raise _fail(path, CELL_TYPE_MISMATCH, "string node has both inline text and child lines")
            return key, serialize(TreeDocument(node.children))
        return key, rest
    if tag == "n":
        if rest == "":
            raise _fail(path, ARITY_MISMATCH, "number node is missing its value")
        if WORD_SEP in rest or _JSON_NUMBER.fullmatch(rest) is None:
            raise _fail(path, CELL_TYPE_MISMATCH, f"{rest!r} is not a JSON number")
        try:
            number = json.loads(rest)
        except ValueError:
            message = f"number literal of {len(rest)} characters is too long to read"
            raise _fail(path, CELL_TYPE_MISMATCH, message) from None
        if isinstance(number, float) and math.isinf(number):
            raise _fail(path, CELL_TYPE_MISMATCH, f"{rest!r} overflows to infinity")
        return key, number
    if tag == "b":
        if rest == "":
            raise _fail(path, ARITY_MISMATCH, "boolean node is missing its value")
        if rest not in ("true", "false"):
            raise _fail(path, CELL_TYPE_MISMATCH, f"{rest!r} is not a boolean", suggest(rest, ["false", "true"]))
        return key, rest == "true"
    if rest:
        raise _fail(path, ARITY_MISMATCH, f"null node takes no value, got {rest!r}")
    return key, None


_REFERENCE_INT = re.compile(r"[+-]?[0-9]+")
_REFERENCE_FLOAT = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _reference_accepts(cell, word: str) -> bool:
    if cell.base == "word":
        if word == "":
            return False
    elif cell.base == "int":
        if _REFERENCE_INT.fullmatch(word) is None:
            return False
    elif cell.base == "float":
        if _REFERENCE_FLOAT.fullmatch(word) is None:
            return False
    elif cell.base == "bool":
        if word not in ("true", "false"):
            return False
    if cell.enum_values is not None and word not in cell.enum_values:
        return False
    if cell.pattern is not None and cell.pattern.fullmatch(word) is None:
        return False
    return True


def reference_contexts(grammar) -> dict:
    """Every context a node can resolve in, read from the grammar's public
    fields: one ``(table, catch_all)`` pair per ``node_types`` key, for the
    children of the type listed under it, and the key None for depth 0.
    ``table`` maps each match word to the key of the first node type listed
    with it, and ``catch_all`` is a key, or None when there is none."""

    def context(keys, catch_all):
        table = {}
        for key in keys:
            table.setdefault(grammar.node_types[key].match, key)
        return table, catch_all

    contexts = {key: context(nt.child_types, nt.catch_all_child) for key, nt in grammar.node_types.items()}
    catch_alls = [n for n, nt in grammar.node_types.items() if nt.is_root_catch_all]
    catch_all = catch_alls[0] if catch_alls else None
    roots = [n for n, nt in grammar.node_types.items() if nt.is_root and n != catch_all]
    contexts[None] = context(roots, catch_all)
    return contexts


def reference_check(doc: TreeDocument, grammar) -> "list[TlError]":
    """``treetext.grammar.check`` as it was before autofix became a mode of
    the typed walk, with cell bases tested by an if-chain.  Kept as a
    reference for ``check`` and ``check_parallel``."""
    roots = doc.roots
    errors: "list[TlError]" = []
    contexts = reference_contexts(grammar)
    match_words = {nt.match for nt in grammar.node_types.values()}
    path = [-1]
    stack = [(roots[i], 0, None) for i in reversed(range(len(roots)))]
    while stack:
        node, depth, parent = stack.pop()
        if depth < len(path):
            del path[depth + 1:]
            path[depth] += 1
        else:
            path.append(0)
        table, catch_all = contexts[parent]
        first = node.first_word
        key = table.get(first, catch_all)
        if key is None:
            if first in match_words:
                errors.append(TlError(tuple(path), ILLEGAL_CHILD, f"node type {first!r} is not allowed here"))
            else:
                message = f"unknown node type {first!r}"
                errors.append(TlError(tuple(path), UNKNOWN_NODE_TYPE, message, suggestion=suggest(first, table)))
            continue

        node_type = grammar.node_types[key]
        values = node.words[1:]
        cells = node_type.cells
        if len(values) < len(cells) or (len(values) > len(cells) and node_type.catch_all_cell is None):
            message = f"expected {len(cells)} cells after {first!r}, got {len(values)}"
            errors.append(TlError(tuple(path), ARITY_MISMATCH, message))
        for i, value in enumerate(values):
            if i < len(cells):
                cell_name = cells[i]
            elif node_type.catch_all_cell is not None:
                cell_name = node_type.catch_all_cell
            else:
                break
            cell = grammar.cell_types[cell_name]
            if not _reference_accepts(cell, value):
                suggestion = None
                if cell.enum_values is not None:
                    suggestion = suggest(value, sorted(cell.enum_values))
                message = f"word {i + 2} {value!r} is not a valid {cell.name}"
                errors.append(TlError(tuple(path), CELL_TYPE_MISMATCH, message, suggestion=suggestion))

        children = node.children
        if not children:
            continue
        if not node_type.child_types and node_type.catch_all_child is None:
            message = f"{node_type.name} nodes do not take children"
            prefix = tuple(path)
            errors.extend(TlError(prefix + (j,), ILLEGAL_CHILD, message) for j in range(len(children)))
            continue
        stack.extend(zip(reversed(children), repeat(depth + 1), repeat(key)))
    return errors


# ---------------------------------------------------------------------------
# reference compile


def reference_compile_doc(doc: TreeDocument, grammar: Grammar) -> str:
    """``treetext.grammar.compile_doc`` as it was before it kept one frame
    per open node: a stack of (node, node_type, cut) over one shared list
    of rendered strings, sliced and truncated per node.  Kept as a
    reference for the output and for every ``CompileError``."""
    errors: "list[TlError]" = []
    typed = list(_typed_walk(doc.roots, 0, len(doc.roots), grammar, errors))
    if errors:
        exc = CompileError(f"document has {len(errors)} error(s); fix them before compiling")
        exc.errors = tuple(errors)
        raise exc
    # A node renders once all its children have (post-order), so its
    # rendered children are the tail of ``rendered`` from ``cut`` on.
    waiting: "list[tuple[TreeNode, NodeTypeDef, int]]" = []  # (node, node_type, cut)
    rendered: "list[str]" = []
    for node, node_type in typed:
        waiting.append((node, node_type, len(rendered)))
        while waiting and len(rendered) - waiting[-1][2] == len(waiting[-1][0].children):
            node, node_type, cut = waiting.pop()
            children = rendered[cut:]
            del rendered[cut:]
            if node_type.template is None:
                rendered.append(NEWLINE.join(children))
                continue
            try:
                rendered.append(_fill(node_type.template, node, children))
            except CompileError as exc:
                # ``waiting`` now holds the node's ancestors.  Every earlier
                # sibling rendered to one string, so the step from one cut
                # to the next is a child index along the path.
                cuts = [0, *(c for _, _, c in waiting), cut]
                exc.path = tuple(b - a for a, b in zip(cuts, cuts[1:]))
                raise
    return NEWLINE.join(rendered)


# ---------------------------------------------------------------------------
# reference grammar loader


def reference_load_grammar(text: str) -> Grammar:
    """``treetext.grammar.load_grammar`` as it was before one directive
    table read every block: one hand-written loader per block kind.  Kept
    as a reference; it skips a blank top-level line together with any
    indented lines under it, where ``load_grammar`` raises."""
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
            type_name = _reference_single_word(block, (i,), "name")
            if type_name in node_types:
                raise GrammarLoadError(f"duplicate nodetype {type_name!r}", (i,))
            node_types[type_name] = _reference_node_type(type_name, block, (i,), pending_refs)
        elif keyword == "celltype":
            type_name = _reference_single_word(block, (i,), "name")
            if type_name in cell_types:
                raise GrammarLoadError(f"duplicate celltype {type_name!r}", (i,))
            cell_types[type_name] = _reference_cell_type(type_name, block, (i,))
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
    return Grammar(name or "", node_types, cell_types)


def _reference_single_word(node: TreeNode, path: NodePath, noun: str = "value") -> str:
    words = node.words
    if len(words) != 2 or words[1] == "":
        raise GrammarLoadError(f"{words[0]} needs exactly one {noun}", path)
    return words[1]


def _reference_word_list(node: TreeNode, path: NodePath) -> "tuple[str, ...]":
    values = tuple(w for w in node.words[1:] if w != "")
    if not values:
        raise GrammarLoadError(f"{node.first_word} needs at least one value", path)
    return values


def _reference_node_type(name, block, path, pending_refs) -> NodeTypeDef:
    # A NodeTypeDef is frozen: gather its fields, then build it once.
    fields = {"name": name, "match": name}
    for j, directive in enumerate(block.children):
        dpath = path + (j,)
        if directive.children:
            raise GrammarLoadError("directives take no children", dpath)
        keyword = directive.first_word
        if keyword == "match":
            fields["match"] = _reference_single_word(directive, dpath)
        elif keyword == "cells":
            fields["cells"] = cells = _reference_word_list(directive, dpath)
            pending_refs.extend((dpath, "cell", c) for c in cells)
        elif keyword == "catchAllCell":
            fields["catch_all_cell"] = cell = _reference_single_word(directive, dpath)
            pending_refs.append((dpath, "cell", cell))
        elif keyword == "children":
            fields["child_types"] = child_types = _reference_word_list(directive, dpath)
            pending_refs.extend((dpath, "node", c) for c in child_types)
        elif keyword == "catchAllChild":
            fields["catch_all_child"] = child = _reference_single_word(directive, dpath)
            pending_refs.append((dpath, "node", child))
        elif keyword == "root":
            if directive.content == "":
                fields["is_root"] = True
            elif directive.content == "catchall":
                fields["is_root"] = fields["is_root_catch_all"] = True
            else:
                raise GrammarLoadError("root takes nothing or 'catchall'", dpath)
        elif keyword == "compile":
            fields["template"] = directive.content
        else:
            raise GrammarLoadError(f"unknown nodetype directive {keyword!r}", dpath)
    return NodeTypeDef(**fields)


def _reference_cell_type(name, block, path) -> CellTypeDef:
    base = "any"
    enum_values = None
    pattern = None
    for j, directive in enumerate(block.children):
        dpath = path + (j,)
        if directive.children:
            raise GrammarLoadError("directives take no children", dpath)
        keyword = directive.first_word
        if keyword == "base":
            base = _reference_single_word(directive, dpath)
            if base not in CELL_BASES:
                raise GrammarLoadError(
                    f"unknown base {base!r}, expected one of {', '.join(CELL_BASES)}", dpath
                )
        elif keyword == "enum":
            enum_values = frozenset(_reference_word_list(directive, dpath))
        elif keyword == "regex":
            try:
                pattern = re.compile(directive.content)
            except re.error as exc:
                raise GrammarLoadError(f"bad regex: {exc}", dpath) from None
        else:
            raise GrammarLoadError(f"unknown celltype directive {keyword!r}", dpath)
    return CellTypeDef(name=name, base=base, enum_values=enum_values, pattern=pattern)


# Block keywords, directive words of both block kinds, and words that are
# neither.
_GRAMMAR_BLOCKS = ("grammar", "nodetype", "celltype")
_GRAMMAR_DIRECTIVES = (
    "match", "cells", "catchAllCell", "children", "catchAllChild", "root", "compile", "base", "enum", "regex",
)
_GRAMMAR_ODD = ("mystery", "")
# Type names of the bundled and seed grammars, bases, ``catchall`` and
# a few words that name nothing or do not compile as a regex.
_GRAMMAR_VALUES = (
    "a", "b", "c", "o", "s", "obj", "str", "entry", "word", "any", "int", "bool", "jsonkey",
    "jsontext", "catchall", "ghost", "[", "{0}", "{c|,}", "",
)


def mutate_grammar_text(rng: random.Random, text: str) -> str:
    """Insert, replace or re-indent 1-3 lines of a grammar file.

    A new line is blank, or a word at an indent of 0-2 spaces followed by
    0-3 values: mostly a block keyword at indent 0 and a directive word
    below it, sometimes any word at any indent.
    """
    lines = text.split("\n")
    for _ in range(rng.randrange(1, 4)):
        indent = rng.choice((0, 0, 0, 1, 1, 1, 1, 1, 1, 2))
        if rng.random() < 0.05:
            line = ""
        else:
            if rng.random() < 0.15:
                words = [rng.choice(_GRAMMAR_BLOCKS + _GRAMMAR_DIRECTIVES + _GRAMMAR_ODD)]
            else:
                words = [rng.choice(_GRAMMAR_DIRECTIVES if indent else _GRAMMAR_BLOCKS)]
            words += [rng.choice(_GRAMMAR_VALUES) for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))]
            line = " " * indent + " ".join(words)
        at = rng.randrange(len(lines) + 1)
        action = rng.random()
        if action < 0.4 or at == len(lines):
            lines.insert(at, line)
        elif action < 0.7:
            lines[at] = line
        else:
            lines[at] = " " * indent + lines[at].lstrip(" ")
    return "\n".join(lines)
