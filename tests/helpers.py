"""Shared test utilities: an in-process CLI runner and random generators.

The generators take an explicit random.Random so every test pins its own
seed; nothing here reads global RNG state.
"""

from __future__ import annotations

import io
import random
import sys
from dataclasses import dataclass

from treetext.cli import main
from treetext.core import TreeDocument, TreeNode, parse


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
# random JSON values

_KEY_LETTERS = "abcdefghij"


def random_key(rng: random.Random) -> str:
    return "".join(rng.choice(_KEY_LETTERS) for _ in range(rng.randrange(1, 9)))


def random_json(rng: random.Random, depth: int = 6, container_odds: float = 0.6):
    if depth > 0 and rng.random() < container_odds:
        if rng.random() < 0.5:
            keys = {random_key(rng) for _ in range(rng.randrange(0, 5))}
            return {k: random_json(rng, depth - 1) for k in sorted(keys, key=lambda _: rng.random())}
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(0, 5))]
    roll = rng.random()
    if roll < 0.25:
        return random_string(rng)
    if roll < 0.45:
        return rng.randrange(-10**12, 10**12)
    if roll < 0.65:
        return rng.choice([0.0, -0.0, 1e20, -2.5e-8, rng.uniform(-1e6, 1e6), rng.random()])
    if roll < 0.8:
        return rng.random() < 0.5
    if roll < 0.9:
        return None
    return rng.choice(["", " ", "two words", "line one\nline two", "\n", "  indented\ntail"])


def random_string(rng: random.Random) -> str:
    alphabet = "abc XY\"\\\t\né🌲\n"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
