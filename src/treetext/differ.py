"""Semantic diff and patch. Patches are themselves tree documents.

Because the notation has exactly one text for every tree, two documents
differ semantically exactly when their serializations differ, and a
diff over the text structure IS a diff over meaning.  The edit script
dialect (PatchTL) has four operations, one per line:

    keep <n>      advance past n matching siblings
    delete <n>    drop the next n siblings (whole subtrees)
    insert        children of this node are inserted subtrees
    descend       enter the next sibling; children are nested operations

Operations at depth 0 address the document's roots; a ``descend``
node's children address the entered node's children, and so on.

The diff algorithm runs a longest-common-subsequence match over the
sibling lines at each level (full lines, not first words), breaking
ties toward the earliest match and toward delete-before-insert, then
descends into matched pairs whose subtrees still differ.  Unmatched
runs are deleted or inserted whole; there is no move detection.

Cost: equal lines at the head of two sibling lists always match, so
the common prefix is consumed without a table.  Over the rest, the LCS
lengths are kept as one bit vector per old line (Allison & Dix 1986,
"A bit-string longest-common-subsequence algorithm"): n·m/8 bytes for
n old and m new siblings instead of a dense table of integers.  Every
subtree of both documents gets an id once per call, equal exactly for
equal structure (a leaf's line, or an integer interned for an inner
node, as in GumTree, Falleri et al. 2014), so a matched pair is
compared in constant time at any depth.

Both ``diff`` and ``apply_patch`` take one level, a matched pair of
sibling lists, per work item: a level reads its ops (or writes them)
in one pass and appends a work item for each pair it descends into, so
depth is limited only by memory.  Levels are taken in the order they
are entered, breadth-first, so ``apply_patch`` raises the error of the
first failing level in that order: a level's own ops are all read
before any level its descends enter.

Guarantees: ``apply_patch(diff(a, b), a) == b`` for all documents, and
``diff(a, a)`` is the single line ``keep <root count>``.  ``diff(a, b)``
contains an insert or delete operation if and only if the
serializations of a and b differ, for every tree ``parse`` builds.  A
hand-built tree whose non-first child has a line starting with a space
can serialize like a different tree; ids compare structure, so such a
text-equal pair may still get edits (as the line match already did).
"""

from __future__ import annotations

from treetext.core import NodePath, TreeDocument, TreeError, TreeNode

KEEP = "keep"
DELETE = "delete"
INSERT = "insert"
DESCEND = "descend"


class PatchFormatError(TreeError):
    """The patch document is not well-formed PatchTL; ``path`` is in the patch."""

    _where = "patch path"


class PatchMismatchError(TreeError):
    """The patch does not fit the document it was applied to."""


# ---------------------------------------------------------------------------
# diff


def diff(a: TreeDocument, b: TreeDocument) -> TreeDocument:
    """Compute a PatchTL document p with apply_patch(p, a) == b."""
    ids = _subtree_ids(a.roots, b.roots)
    patch = TreeDocument()
    # One work item per level, taken in the order entered.  Each level
    # writes only into its own op list, so that order does not change the
    # script.
    work = [(a.roots, b.roots, patch.roots)]
    for old, new, ops in work:
        _diff_siblings(old, new, ops, ids, work)
    if not patch.roots:
        patch.roots = [TreeNode(f"{KEEP} 0")]
    # Insert ops hold b's own nodes up to here: one copy of the whole patch
    # detaches them with one collector pause, where a copy per inserted
    # node would pause once per node.
    return patch.clone()


def _subtree_ids(*forests: "list[TreeNode]") -> "dict[int, int | str]":
    """Map id(node) to a value that is equal exactly for equal subtrees.

    A leaf's value is its line.  Any other node's value is the integer
    interned for its key, its line and its children's values; one key
    table serves every forest, and levels are taken deepest first.
    """
    keys: "dict[tuple, int]" = {}
    ids: "dict[int, int | str]" = {}
    for roots in forests:
        levels = [roots]
        while levels[-1]:
            levels.append([c for node in levels[-1] if node._kids for c in node._kids])
        for level in reversed(levels):
            for node in level:
                children = node._kids
                if children:
                    key = (node.line, *[ids[id(c)] for c in children])
                    ids[id(node)] = keys.setdefault(key, len(keys))
                else:
                    ids[id(node)] = node.line
    return ids


def _diff_siblings(old, new, ops, ids, work) -> None:
    """Append the ops turning ``old`` into ``new`` to ``ops``, and queue
    ``(old children, new children, descend ops)`` on ``work`` for each
    matched pair whose subtrees differ."""
    n, m = len(old), len(new)
    p = 0
    while p < n and p < m and old[p].line == new[p].line:
        p += 1
    rows = _lcs_rows(old, new, p)

    def lcs(i: int, j: int) -> int:  # LCS length of old[i:] and new[j:]; i, j >= p
        return (m - j) - (rows[i - p] & ((1 << (m - j)) - 1)).bit_count()

    # The kind of the last op; a keep or delete run is written once it ends.
    word, count = KEEP, 0
    i = j = 0
    while i < n or j < m:
        # Equal lines always extend the LCS by one, so they always match.
        if i < n and j < m and old[i].line == new[j].line:
            if ids[id(old[i])] == ids[id(new[j])]:
                if word != KEEP:
                    _close_run(ops, word, count)
                    word, count = KEEP, 0
                count += 1
            else:
                _close_run(ops, word, count)
                word, count = DESCEND, 0
                node = TreeNode(DESCEND)
                ops.append(node)
                work.append((old[i]._kids or (), new[j]._kids or (), node.children))
            i += 1
            j += 1
        elif i < n and (j >= m or lcs(i + 1, j) >= lcs(i, j + 1)):
            if word != DELETE:
                _close_run(ops, word, count)
                word, count = DELETE, 0
            count += 1
            i += 1
        else:
            if word != INSERT:
                _close_run(ops, word, count)
                word, count = INSERT, 0
                ops.append(TreeNode(INSERT))
            ops[-1].children.append(new[j])
            j += 1
    _close_run(ops, word, count)


def _lcs_rows(old, new, p: int) -> "list[int]":
    """Suffix-LCS rows of ``old[p:]`` against ``new[p:]`` as bit vectors.

    Bit k stands for ``new[m - 1 - k]``.  In ``rows[i - p]`` each clear
    bit below position ``m - j`` is one unit of LCS(old[i:], new[j:]), so
    that length is ``m - j`` minus the set bits below ``m - j``.
    """
    m = len(new)
    # Masks only for lines old[p:] has: with many distinct lines, masks
    # for all of new[p:] would take (m - p)²/16 bytes.
    wanted = {node.line for node in old[p:]}
    masks: "dict[str, int]" = {}
    for k in range(m - p):
        line = new[m - 1 - k].line
        if line in wanted:
            masks[line] = masks.get(line, 0) | (1 << k)
    full = (1 << (m - p)) - 1
    v = full
    rows = [v]
    for i in range(len(old) - 1, p - 1, -1):
        u = v & masks.get(old[i].line, 0)
        if u:
            v = ((v + u) | (v - u)) & full
        rows.append(v)
    rows.reverse()
    return rows


def _close_run(ops, word: str, count: int) -> None:
    if count:
        ops.append(TreeNode(f"{word} {count}"))


# ---------------------------------------------------------------------------
# apply


def apply_patch(patch: TreeDocument, doc: TreeDocument) -> TreeDocument:
    """Replay a PatchTL document against doc, producing a new document.

    Raises PatchFormatError for malformed patches, its path in the patch,
    and PatchMismatchError when keep/delete/descend counts do not fit doc,
    its path naming the position in doc where consumption failed.  A
    level's own ops are all read before any level its descends enter.
    """
    result = TreeDocument()
    # One work item per entered level, taken in the order entered.  A
    # level's trail is (op index, source index, parent trail) of the
    # descend that entered it, spelled as a path only for an error.
    work = [(patch.roots, doc.roots, result.roots, None)]
    for ops, source, out, trail in work:
        i = 0
        for k, op in enumerate(ops):
            kind = op.first_word
            if kind == KEEP or kind == DELETE:
                count = _read_count(op, trail, k)
                if i + count > len(source):
                    raise PatchMismatchError(
                        f"{kind} {count} overruns {len(source) - i} remaining sibling(s)", _path(trail, 1, i)
                    )
                if kind == KEEP:
                    out.extend(source[i : i + count])
                i += count
            elif kind != INSERT and kind != DESCEND:
                raise PatchFormatError(f"unknown operation {kind!r}", _path(trail, 0, k))
            elif op.content:
                raise PatchFormatError(f"{kind} takes no words", _path(trail, 0, k))
            elif kind == INSERT:
                out.extend(op._kids or ())
            elif i >= len(source):
                raise PatchMismatchError("descend overruns the sibling list", _path(trail, 1, i))
            else:
                node = TreeNode(source[i].line)
                out.append(node)
                work.append((op._kids or (), source[i]._kids or (), node.children, (k, i, trail)))
                i += 1
        if i != len(source):
            raise PatchMismatchError(f"patch left {len(source) - i} sibling(s) unconsumed", _path(trail, 1, i))
    # Kept and inserted runs hold doc's and the patch's own nodes up to
    # here: one copy detaches them with one collector pause, as in diff.
    return result.clone()


def _path(trail, side: int, last: int) -> NodePath:
    """The patch path (side 0) or document path (side 1) that ends at
    ``last`` in the level ``trail`` entered."""
    path = [last]
    while trail is not None:
        path.append(trail[side])
        trail = trail[2]
    path.reverse()
    return tuple(path)


def _read_count(op: TreeNode, trail, k: int) -> int:
    if op._kids:
        raise PatchFormatError(f"{op.first_word} takes no children", _path(trail, 0, k))
    words = op.words
    # ASCII digits only, as diff writes them: isdigit alone takes "²", which
    # int() rejects, and isdecimal takes "٣", which int() reads as 3.
    if len(words) != 2 or not (words[1].isascii() and words[1].isdigit()):
        raise PatchFormatError(f"{op.first_word} needs one nonnegative count", _path(trail, 0, k))
    try:
        return int(words[1])
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise PatchFormatError(f"{op.first_word} count is too long", _path(trail, 0, k)) from None
