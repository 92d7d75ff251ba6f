"""Total, lossless parsing and serialization of indentation-encoded trees.

One line of text is one node.  A node's depth is the count of leading
spaces on its line, one space per level, and each node attaches as the
last child of the most recent shallower node.  Newlines separate nodes,
so a line can never contain one; indentation is always spaces and tabs
are ordinary content.

Two guarantees hold for every input string, with no exceptions:

* ``parse`` never fails, and
* ``serialize(parse(text)) == text`` byte for byte.

A line indented more than one level below its predecessor attaches one
level down and keeps the surplus spaces inside ``line``; that local rule
is what makes the round trip exact for arbitrary input.

Equality of documents (and of nodes) is equality of their
serializations.  For parsed documents that is equality of structure, but
a hand-built tree can share its text with a tree of another shape: a
root whose line starts with a space reads back as a child of the root
before it.
"""

from __future__ import annotations

import gc
import os
from _thread import allocate_lock
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import repeat, starmap, zip_longest
from operator import eq, sub

NEWLINE = "\n"  # separates nodes vertically; never legal inside a line
INDENT = " "    # one space per depth level
WORD_SEP = " "  # splits a line into words

# Zero-based child indices from the document root.
NodePath = tuple[int, ...]


class TreeError(Exception):
    """Base class for every error raised by this package.

    ``path`` is the node path the error points at, or ``()`` when it points
    at no node.  A nonempty path ends the message, as ``(at path [0, 2])``;
    it is rendered when the error is shown, so a path set after the error
    was built still shows.  A subclass renames the path's kind through
    ``_where``.
    """

    _where = "path"

    def __init__(self, message: str = "", path: NodePath = ()):
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        message = super().__str__()
        return f"{message} (at {self._where} {list(self.path)})" if self.path else message


# Error kinds of check() and of the typed codecs.  check() never reports
# duplicateRoot; only to_json_typed and to_map raise it.
UNKNOWN_NODE_TYPE = "unknownNodeType"
CELL_TYPE_MISMATCH = "cellTypeMismatch"
ARITY_MISMATCH = "arityMismatch"
ILLEGAL_CHILD = "illegalChild"
DUPLICATE_ROOT = "duplicateRoot"


class InvalidLineError(TreeError):
    """A line string contained a newline."""


class PathNotFoundError(TreeError):
    """A node path did not resolve in the document."""


def _check_line(line: str) -> str:
    if NEWLINE in line:
        raise InvalidLineError(f"line may not contain a newline: {line!r}")
    return line


# Open collector pauses, across threads, and whether the collector was
# enabled before the first of them began.
_gc_lock = allocate_lock()
_gc_pauses = 0
_gc_was_enabled = False


def _gc_paused(build: Callable[[], "list[TreeNode]"]) -> "list[TreeNode]":
    """Return ``build()``, run with the cyclic garbage collector paused.

    A tree holds no reference cycles, yet every node allocates two
    tracked objects, so while a large tree is built the collector would
    rescan it again and again.  Pauses nest, also across threads: the
    last one to end restores the collector's state from before the first
    one began, so a collector the caller disabled stays disabled.
    """
    global _gc_pauses, _gc_was_enabled
    with _gc_lock:
        if _gc_pauses == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        return build()
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if _gc_pauses == 0 and _gc_was_enabled:
                gc.enable()


def _insert_at(siblings: "list[TreeNode]", index: int, node: "TreeNode", what: str) -> None:
    if not 0 <= index <= len(siblings):
        raise IndexError(f"{what} index {index} out of range (0..{len(siblings)})")
    siblings.insert(index, node)


class TreeNode:
    """One parsed line plus its ordered children.

    ``line`` is the node's text with its structural indentation removed;
    it may still begin with spaces if the source line was indented past
    its depth.  ``children`` is a plain mutable list.
    """

    __slots__ = ("line", "children")

    def __init__(self, line: str = "", children: Iterable[TreeNode] | None = None):
        if NEWLINE in line:  # _check_line's test, inlined: one call less per node built
            _check_line(line)
        self.line = line
        self.children: list[TreeNode] = list(children) if children is not None else []

    # -- word access ---------------------------------------------------

    @property
    def words(self) -> list[str]:
        """The line split on single spaces.

        Splitting is lossless: ``" ".join(node.words) == node.line``, and
        consecutive separators yield empty words.  An empty line is one
        empty word.
        """
        return self.line.split(WORD_SEP)

    @property
    def first_word(self) -> str:
        return self.line.partition(WORD_SEP)[0]

    @property
    def content(self) -> str:
        """Everything after the first word separator, or "" if there is none."""
        return self.line.partition(WORD_SEP)[2]

    # -- editing ---------------------------------------------------------

    def set_line(self, line: str) -> None:
        """Replace this node's line. Rejects strings containing a newline."""
        self.line = _check_line(line)

    def append_child(self, line: str) -> "TreeNode":
        """Append a new child node with the given line and return it."""
        node = TreeNode(line)
        self.children.append(node)
        return node

    def insert_child(self, index: int, node: "TreeNode") -> None:
        """Insert an existing node at ``index`` (0 <= index <= child count)."""
        _insert_at(self.children, index, node, "child")

    def clone(self) -> "TreeNode":
        """Deep copy of this subtree."""
        if not self.children:  # a leaf builds one node: not worth a collector pause
            return TreeNode(self.line)
        return TreeDocument([self]).clone().roots[0]

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """This subtree as text, with the node itself at depth 0."""
        return TreeDocument([self]).serialize()

    def __eq__(self, other: object):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return _same_shape([self], [other]) or _same_text([self], [other])

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"TreeNode({self.line!r}, children={len(self.children)})"


class TreeDocument:
    """A root container holding the depth-0 nodes of a document."""

    __slots__ = ("roots",)

    def __init__(self, roots: Iterable[TreeNode] | None = None):
        self.roots: list[TreeNode] = list(roots) if roots is not None else []

    # -- access ------------------------------------------------------------

    def get_node(self, path: NodePath) -> TreeNode | None:
        """Resolve a path of child indices; None if absent or empty."""
        node: TreeNode | None = None
        siblings = self.roots
        for index in path:
            if not 0 <= index < len(siblings):
                return None
            node = siblings[index]
            siblings = node.children
        return node

    def walk(self) -> Iterator[tuple[NodePath, TreeNode]]:
        """Yield (path, node) pairs in document order, iteratively."""
        path: list[int] = []
        for node, depth in _walk_depth(self.roots):
            # Pre-order: the next sibling at its depth, or the first child.
            if depth < len(path):
                del path[depth + 1:]
                path[depth] += 1
            else:
                path.append(0)
            yield tuple(path), node

    # -- editing -------------------------------------------------------------

    def append_child(self, line: str) -> TreeNode:
        """Append a new depth-0 node and return it."""
        node = TreeNode(line)
        self.roots.append(node)
        return node

    def insert_child(self, index: int, node: TreeNode) -> None:
        """Insert an existing node at ``index`` (0 <= index <= root count)."""
        _insert_at(self.roots, index, node, "root")

    def delete_node(self, path: NodePath) -> None:
        """Remove the node at ``path`` (and its subtree)."""
        if not path:
            raise PathNotFoundError("empty path does not name a node")
        if self.get_node(path) is None:
            raise PathNotFoundError("no node", path)
        parent = self.get_node(path[:-1])  # None for a root
        del (parent.children if parent else self.roots)[path[-1]]

    def clone(self) -> "TreeDocument":
        """Deep copy, iteratively; documents can be deeper than the
        Python recursion limit."""
        return TreeDocument(_gc_paused(lambda: _copy_roots(self.roots)))

    # -- measurement ------------------------------------------------------

    def node_count(self) -> int:
        """Total number of nodes in the document."""
        return _measure(self.roots)[0]

    def max_depth(self) -> int:
        """Depth of the deepest node; 0 for flat or empty documents."""
        return _measure(self.roots)[1]

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        # Each node adds two strings to one list: the newline and indent
        # for its depth, from a per-depth cache, then its line.  This is
        # _walk_depth written inline, one child iterator per open level, so
        # a node costs no generator step; a level is entered at most one
        # deeper than the last, so the cache grows one string at a time.
        heads = [NEWLINE]
        parts: list[str] = []
        append = parts.append
        stack = [iter(self.roots)]
        while stack:
            depth = len(stack) - 1
            if depth == len(heads):
                heads.append(heads[-1] + INDENT)
            head = heads[depth]
            for node in stack[-1]:
                append(head)
                append(node.line)
                if node.children:
                    stack.append(iter(node.children))
                    break
            else:
                stack.pop()
        if parts:
            parts[0] = ""  # no newline before the first line
        return "".join(parts)

    def __eq__(self, other: object):
        if not isinstance(other, TreeDocument):
            return NotImplemented
        return _same_shape(self.roots, other.roots) or _same_text(self.roots, other.roots)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TreeDocument(roots={len(self.roots)})"


def _walk_depth(roots: Iterable[TreeNode]) -> Iterator[tuple[TreeNode, int]]:
    """Yield (node, depth) in document pre-order, iteratively.

    The core's one depth-annotated walker, behind ``walk`` and the text
    comparison of ``==``: documents can be deeper than the Python
    recursion limit.  The stack holds one child iterator per open level,
    so a node's depth is ``len(stack) - 1``.
    """
    stack = [iter(roots)]
    while stack:
        depth = len(stack) - 1
        for node in stack[-1]:
            yield node, depth
            if node.children:
                stack.append(iter(node.children))
                break
        else:
            stack.pop()


def _copy_roots(roots: list[TreeNode]) -> list[TreeNode]:
    """Deep copies of ``roots``, iteratively."""
    copies: list[TreeNode] = []
    # (source siblings, the list their copies go into)
    stack = [(roots, copies)]
    while stack:
        sources, targets = stack.pop()
        for source in sources:
            node = TreeNode(source.line)
            targets.append(node)
            if source.children:
                stack.append((source.children, node.children))
    return copies


def _measure(roots: list[TreeNode]) -> tuple[int, int]:
    """(node count, depth of the deepest node) in one walk, a level at a
    time, so the depth is the count of levels below the roots."""
    count = deepest = 0
    level = [roots]  # the sibling lists at depth ``deepest``
    while True:
        count += sum(map(len, level))
        level = [node.children for siblings in level for node in siblings if node.children]
        if not level:
            return count, deepest
        deepest += 1


def _same_shape(xs: list[TreeNode], ys: list[TreeNode]) -> bool:
    """Whether two sibling lists hold the same lines in the same shape.

    Then their serializations are equal, so ``True`` is final; ``False``
    is not, since trees of different shapes can share a text.
    """
    # Sibling lists in pairs that must match, a pair as two entries: each
    # tuple held on the stack would be one more new object to the cyclic
    # collector, and on a wide tree enough of them set off collections.
    stack = [xs, ys]
    while stack:
        ys = stack.pop()
        xs = stack.pop()
        if len(xs) != len(ys):
            return False
        for x, y in zip(xs, ys):
            if x.line != y.line:
                return False
            if x.children or y.children:
                stack += x.children, y.children
    return True


def _raw_lines(roots: list[TreeNode]) -> Iterator[tuple[int, str]]:
    """Each serialized line ``INDENT * depth + line`` in document order, as
    (count of its leading indents, the rest), without building it.  No
    lines and one empty line both serialize to "", so no roots read as one
    empty root."""
    for node, depth in _walk_depth(roots or [TreeNode()]):
        rest = node.line.lstrip(INDENT)
        yield depth + len(node.line) - len(rest), rest


def _same_text(xs: list[TreeNode], ys: list[TreeNode]) -> bool:
    """Whether ``xs`` and ``ys`` serialize to the same text, built for
    neither: a text is its lines joined by newlines, which hold none."""
    return all(starmap(eq, zip_longest(_raw_lines(xs), _raw_lines(ys))))


def parse(text: str) -> TreeDocument:
    """Parse any string into a TreeDocument. Never fails.

    Empty input yields an empty document; otherwise every line becomes a
    node, blank lines included.  A line with k leading spaces attaches at
    depth ``min(k, previous depth + 1)`` (depth 0 for the first line) and
    keeps any surplus leading spaces as part of its ``line``.
    """
    doc = TreeDocument()
    if text:
        doc.roots = _gc_paused(lambda: _parse_lines(text.split(NEWLINE)))
    return doc


def _parse_lines(lines: list[str]) -> list[TreeNode]:
    # Every line is stripped once and built into a node in one mapped
    # pass; the loop then only attaches the nodes.
    stripped = list(map(str.lstrip, lines, repeat(INDENT)))
    indents = map(sub, map(len, lines), map(len, stripped))
    roots: list[TreeNode] = []
    # kids[d] is the list that the next depth-d node joins, for every d up
    # to top, the previous depth + 1; entries past top are stale.
    kids = [roots]
    top = 0
    for node, indent, raw in zip(map(TreeNode, stripped), indents, lines):
        if indent > top:
            # Surplus indentation stays in the line.
            node.line = raw[top:]
            indent = top
        kids[indent].append(node)
        top = indent + 1
        try:
            kids[top] = node.children
        except IndexError:  # once per level, the first time it opens
            kids.append(node.children)
    return roots


def serialize(doc: TreeDocument | TreeNode) -> str:
    """Render a document (or a single subtree) back to text."""
    return doc.serialize()


def parse_parallel(text: str, max_workers: int | None = None) -> TreeDocument:
    """Parse top-level blocks concurrently; result equals ``parse(text)``.

    Every line with zero leading spaces starts a depth-0 node, so the
    line list splits into independent blocks at those lines and each
    block parses in isolation.  Each worker parses one contiguous run of
    blocks, and joining the runs' roots in order reproduces the
    sequential result exactly.  Under CPython's global interpreter lock
    this demonstrates that the blocks are independent; it is not a
    speedup.
    """
    lines = text.split(NEWLINE) if text else []
    # Line 0 starts a block even when indented: it attaches at depth 0.
    starts = [i for i, line in enumerate(lines) if i == 0 or not line.startswith(INDENT)]
    return TreeDocument(_gc_paused(
        lambda: _map_blocks(lambda lo, hi: _parse_lines(lines[lo:hi]), starts, len(lines), max_workers)
    ))


def _map_blocks(fn: Callable[[int, int], list], starts: Sequence[int], end: int, max_workers: int | None) -> list:
    """Map ``fn(lo, hi)`` over one contiguous run of blocks per worker.

    ``starts`` holds the ascending first indices of independent blocks
    and ``end`` is one past the last block; the results join in order.
    """
    workers = (os.cpu_count() or 1) if max_workers is None else max_workers
    if workers <= 0:
        raise ValueError("max_workers must be greater than 0")
    if not starts:
        return []
    # Imported here: concurrent.futures loads logging, which would slow
    # every CLI start-up for the sake of the *_parallel calls alone.
    from concurrent.futures import ThreadPoolExecutor

    k = min(workers, len(starts))
    cuts = [starts[len(starts) * i // k] for i in range(k)] + [end]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return [x for run in pool.map(fn, cuts, cuts[1:]) for x in run]
