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
is what makes the round trip exact for arbitrary input.  Equality of
documents (and of nodes) is equality of their serializations: there is
exactly one encoding per tree, so textual identity and structural
identity coincide.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

NEWLINE = "\n"  # separates nodes vertically; never legal inside a line
INDENT = " "    # one space per depth level
WORD_SEP = " "  # splits a line into words

# Zero-based child indices from the document root.
NodePath = tuple[int, ...]


class TreeError(Exception):
    """Base class for every error raised by this package."""


class InvalidLineError(TreeError):
    """A line string contained a newline."""


class PathNotFoundError(TreeError):
    """A node path did not resolve in the document."""


def _check_line(line: str) -> str:
    if NEWLINE in line:
        raise InvalidLineError(f"line may not contain a newline: {line!r}")
    return line


class TreeNode:
    """One parsed line plus its ordered children.

    ``line`` is the node's text with its structural indentation removed;
    it may still begin with spaces if the source line was indented past
    its depth.  ``children`` is a plain mutable list.
    """

    __slots__ = ("line", "children")

    def __init__(self, line: str = "", children: Optional[Iterable["TreeNode"]] = None):
        self.line = _check_line(line)
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
        return self.line.split(WORD_SEP, 1)[0]

    @property
    def content(self) -> str:
        """Everything after the first word separator, or "" if there is none."""
        parts = self.line.split(WORD_SEP, 1)
        return parts[1] if len(parts) == 2 else ""

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
        if not 0 <= index <= len(self.children):
            raise IndexError(f"child index {index} out of range (0..{len(self.children)})")
        self.children.insert(index, node)

    def clone(self) -> "TreeNode":
        """Deep copy of this subtree."""
        return TreeDocument([self]).clone().roots[0]

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """This subtree as text, with the node itself at depth 0."""
        return TreeDocument([self]).serialize()

    def __eq__(self, other: object):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return self.serialize() == other.serialize()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"TreeNode({self.line!r}, children={len(self.children)})"


class TreeDocument:
    """A root container holding the depth-0 nodes of a document."""

    __slots__ = ("roots",)

    def __init__(self, roots: Optional[Iterable[TreeNode]] = None):
        self.roots: list[TreeNode] = list(roots) if roots is not None else []

    # -- access ------------------------------------------------------------

    def get_node(self, path: NodePath) -> Optional[TreeNode]:
        """Resolve a path of child indices; None if absent or empty."""
        node: Optional[TreeNode] = None
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
        if not 0 <= index <= len(self.roots):
            raise IndexError(f"root index {index} out of range (0..{len(self.roots)})")
        self.roots.insert(index, node)

    def delete_node(self, path: NodePath) -> None:
        """Remove the node at ``path`` (and its subtree)."""
        if not path:
            raise PathNotFoundError("empty path does not name a node")
        parent_children = self.roots
        if len(path) > 1:
            parent = self.get_node(path[:-1])
            if parent is None:
                raise PathNotFoundError(f"no node at path {path!r}")
            parent_children = parent.children
        index = path[-1]
        if not 0 <= index < len(parent_children):
            raise PathNotFoundError(f"no node at path {path!r}")
        del parent_children[index]

    def clone(self) -> "TreeDocument":
        """Deep copy, iteratively; documents can be deeper than the
        Python recursion limit."""
        copy = TreeDocument()
        # (source siblings, the list their copies go into)
        stack = [(self.roots, copy.roots)]
        while stack:
            sources, targets = stack.pop()
            for source in sources:
                node = TreeNode(source.line)
                targets.append(node)
                if source.children:
                    stack.append((source.children, node.children))
        return copy

    # -- measurement ------------------------------------------------------

    def node_count(self) -> int:
        """Total number of nodes in the document."""
        return sum(1 for _ in _walk_depth(self.roots))

    def max_depth(self) -> int:
        """Depth of the deepest node; 0 for flat or empty documents."""
        return max((depth for _, depth in _walk_depth(self.roots)), default=0)

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        return NEWLINE.join(
            INDENT * depth + node.line for node, depth in _walk_depth(self.roots)
        )

    def __eq__(self, other: object):
        if not isinstance(other, TreeDocument):
            return NotImplemented
        return self.serialize() == other.serialize()

    __hash__ = None

    def __repr__(self) -> str:
        return f"TreeDocument(roots={len(self.roots)})"


def _walk_depth(roots: Iterable[TreeNode]) -> Iterator[tuple[TreeNode, int]]:
    # Iterative pre-order walk; documents can be deeper than the Python
    # recursion limit.
    stack = [(node, 0) for node in reversed(list(roots))]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def parse(text: str) -> TreeDocument:
    """Parse any string into a TreeDocument. Never fails.

    Empty input yields an empty document; otherwise every line becomes a
    node, blank lines included.  A line with k leading spaces attaches at
    depth ``min(k, previous depth + 1)`` (depth 0 for the first line) and
    keeps any surplus leading spaces as part of its ``line``.
    """
    doc = TreeDocument()
    if text == "":
        return doc
    doc.roots.extend(_parse_lines(text.split(NEWLINE)))
    return doc


def _parse_lines(lines: list[str]) -> list[TreeNode]:
    roots: list[TreeNode] = []
    # stack[i] is the most recent node at depth i along the open spine;
    # its length is always previous depth + 1.
    stack: list[TreeNode] = []
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


def serialize(doc: Union[TreeDocument, TreeNode]) -> str:
    """Render a document (or a single subtree) back to text."""
    return doc.serialize()


def parse_parallel(text: str, max_workers: Optional[int] = None) -> TreeDocument:
    """Parse top-level blocks concurrently; result equals ``parse(text)``.

    Every line with zero leading spaces starts a depth-0 node, so the
    line list splits into independent blocks at those lines and each
    block parses in isolation.  Each worker parses one contiguous run of
    blocks, and joining the runs' roots in order reproduces the
    sequential result exactly.  Under CPython's global interpreter lock
    this demonstrates that the blocks are independent; it is not a
    speedup.
    """
    if text == "":
        return TreeDocument()
    lines = text.split(NEWLINE)
    # Line 0 starts a block even when indented: it attaches at depth 0.
    starts = [i for i, line in enumerate(lines) if i == 0 or not line.startswith(INDENT)]
    return TreeDocument(
        _map_blocks(lambda lo, hi: _parse_lines(lines[lo:hi]), starts, len(lines), max_workers)
    )


def _map_blocks(fn: Callable[[int, int], list], starts: Sequence[int], end: int, max_workers: Optional[int]) -> list:
    """Map ``fn(lo, hi)`` over one contiguous run of blocks per worker.

    ``starts`` holds the ascending first indices of independent blocks
    and ``end`` is one past the last block; the results join in order.
    """
    workers = (os.cpu_count() or 1) if max_workers is None else max_workers
    if workers <= 0:
        raise ValueError("max_workers must be greater than 0")
    if not starts:
        return []
    k = min(workers, len(starts))
    cuts = [starts[len(starts) * i // k] for i in range(k)] + [end]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return [x for run in pool.map(fn, cuts, cuts[1:]) for x in run]
