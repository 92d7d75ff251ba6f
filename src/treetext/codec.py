"""JSON interconversion: an untyped projection plus two tree dialects.

Three layers, in order of fidelity:

* ``from_json_untyped`` renders a JSON object for human eyes.  Keys
  become first words, scalars become content, nested objects become
  children, arrays become children with an empty first word, and a
  multi-line string becomes one child per text line.  Type information
  is discarded on purpose; there is no inverse.  An array of two or more
  scalars is not canonical: ``{"tags": ["x", 3]}`` builds ``tags`` with
  children `` x`` and `` 3``, but its text re-parses as `` x`` with
  the child ``3``.

* ``from_json_typed`` / ``to_json_typed`` implement JsonTL, a lossless
  dialect.  Every node starts with a one-letter tag: o=object, a=array,
  s=string, n=number, b=boolean, z=null.  Inside an object the second
  word is the member key.  A string containing a newline is stored as
  child lines instead of escape sequences, so the text reads exactly as
  it will print.  ``to_json_typed(from_json_typed(v)) == v`` for every
  JSON value whose object keys are single words and whose numbers are
  finite, and every encoded tree equals its own re-parse.

* ``to_map`` / ``from_map`` implement MapTL, a flat string-to-string
  dialect: key = first word, value = rest of the line.

Both JSON encoders are one pre-order walk over a stack of child
iterators.  One type dispatch, ``_scalar``, reads each value's JsonTL
tag and inline text; the walk descends, writes child lines or stops
from that pair alone, and the dialects differ only in how they write a
node's line from its key, tag and text.  A member's key is checked
before its value, so both encoders raise the same error first.  The
JsonTL decoder walks the same stack, joining each container to its
parent once its children have joined.  None of them recurses, so any
depth that memory allows converts.

Encoders raise ConversionError for values outside their domain (keys
with spaces or newlines, non-finite numbers, values that contain
themselves).  Decoders raise DecodeError, built as ``(message, path)``
like every TreeError, so it pickles with its path; its ``error`` is the
TlError locating the offending node.
"""

from __future__ import annotations

import json
import math
import re

from treetext.core import (
    ARITY_MISMATCH,
    CELL_TYPE_MISMATCH,
    DUPLICATE_ROOT,
    ILLEGAL_CHILD,
    NEWLINE,
    UNKNOWN_NODE_TYPE,
    WORD_SEP,
    NodePath,
    TreeDocument,
    TreeError,
    TreeNode,
    parse,
    serialize,
)

JsonValue = dict | list | str | int | float | bool | None

TAGS = {"o": "object", "a": "array", "s": "string", "n": "number", "b": "boolean", "z": "null"}

# RFC 8259 number grammar; Python's json module is laxer (it also takes
# Infinity and NaN), so decoders gate on this first.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")

# The key of an array element or of the JsonTL root.  Not None: None can be
# an object's key, which the encoders must reject.
_NO_KEY = object()


class ConversionError(TreeError):
    """A value lies outside the encoder's domain."""


class DecodeError(TreeError):
    """A document does not conform to the dialect being decoded.

    ``error`` is the TlError locating the offending node, or None for a
    DecodeError built by hand.
    """

    error = None


def _fail(path: NodePath, kind: str, message: str, suggestion=None) -> "DecodeError":
    # The grammar module loads only when a decode fails: encoding and a
    # successful decode never need it.
    from treetext.grammar import TlError

    exc = DecodeError(message, path)
    exc.error = TlError(path, kind, message, suggestion)
    return exc


def _check_key(key) -> str:
    if not isinstance(key, str):
        raise ConversionError(f"object key {key!r} is not a string")
    if NEWLINE in key:
        raise ConversionError(f"object key {key!r} contains a newline")
    if WORD_SEP in key:
        raise ConversionError(f"object key {key!r} contains a space; keys must be single words")
    return key


# ---------------------------------------------------------------------------
# encoders: one pre-order walk, one line function per dialect


def from_json_untyped(value: JsonValue) -> TreeDocument:
    """Project a JSON object to a plain tree for display. Lossy on types."""
    if not isinstance(value, dict):
        raise ConversionError("untyped projection takes a JSON object at top level")
    return TreeDocument(_encode(value.items(), _untyped_line))


def from_json_typed(value: JsonValue) -> TreeDocument:
    """Encode any JSON value as a single-root JsonTL document."""
    return TreeDocument(_encode([(_NO_KEY, value)], _typed_line))


def _encode(items, line) -> "list[TreeNode]":
    """Build one node per ``(key, value)`` pair, key _NO_KEY for array elements.

    ``line(key, tag, text)`` writes a node's line in the caller's dialect
    from the key and the value's ``_scalar``.  The walk keeps a stack of
    child iterators and descends as soon as it meets a container, so
    nodes are built, and errors raised, in pre-order: a member's key
    before its value.
    """
    roots: "list[TreeNode]" = []
    stack = [(iter(items), roots, None)]
    open_ids = set()  # containers on the stack: a value that holds itself has no JSON text
    while stack:
        pairs, siblings, _ = stack[-1]
        for key, value in pairs:
            if key is not _NO_KEY:
                _check_key(key)
            tag, text = _scalar(value)
            node = TreeNode(line(key, tag, text))
            siblings.append(node)
            if tag == "o" or tag == "a":
                if id(value) in open_ids:
                    raise ConversionError(f"{type(value).__name__} contains itself; JSON has no cycles")
                open_ids.add(id(value))
                children = value.items() if tag == "o" else ((_NO_KEY, v) for v in value)
                stack.append((iter(children), node.children, id(value)))
                break
            if text is None:
                # Child lines, not escapes: the text is stored as the
                # sub-document it already is, so the tree equals its re-parse.
                node.children = parse(value).roots
        else:
            open_ids.discard(stack.pop()[2])
    return roots


def _untyped_line(key, tag: str, text) -> str:
    # An array element's first word is empty, so it keeps even empty text.
    if key is _NO_KEY:
        return "" if text is None else WORD_SEP + text
    return key + WORD_SEP + text if text else key


def _typed_line(key, tag: str, text) -> str:
    head = tag if key is _NO_KEY else tag + WORD_SEP + key
    return head + WORD_SEP + text if text and tag != "z" else head


def _scalar(value) -> "tuple[str, str | None]":
    """A JSON value's JsonTL tag and its inline text.

    The text is None for a container and for a multi-line string, which
    write their content as child nodes instead.
    """
    if isinstance(value, dict):
        return "o", None
    if isinstance(value, list):
        return "a", None
    if isinstance(value, str):
        return "s", None if NEWLINE in value else value
    if value is True:
        return "b", "true"
    if value is False:
        return "b", "false"
    if value is None:
        return "z", "null"
    # int's and float's own repr, as json writes them: a subclass's str or
    # repr, such as an IntEnum member's "C.A" on Python 3.10, is no number.
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConversionError(f"non-finite number {value!r} has no JSON text")
        return "n", float.__repr__(value)
    if isinstance(value, int):
        try:
            return "n", int.__repr__(value)
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise ConversionError("integer has too many digits to write as JSON text") from None
    raise ConversionError(f"{type(value).__name__} is not a JSON value")


# ---------------------------------------------------------------------------
# JsonTL decoder


def to_json_typed(doc: TreeDocument) -> JsonValue:
    """Decode a JsonTL document. Inverse of from_json_typed."""
    if len(doc.roots) == 0:
        raise _fail((), ARITY_MISMATCH, "expected exactly one root node, got none")
    if len(doc.roots) > 1:
        raise _fail((1,), DUPLICATE_ROOT, f"expected exactly one root node, got {len(doc.roots)}")
    # Frames are (child iterator, container, key), as in _encode.  The
    # document is read as a one-element array, so the containers' lengths
    # spell the path of the node being read and the walk ends when the root
    # joins it.
    result: list = []
    stack = [(iter(doc.roots), result, None)]
    while not result:
        nodes, container, _ = stack[-1]
        node = next(nodes, None)
        if node is not None:
            key, value = _decode(node, stack, keyed=isinstance(container, dict))
            if isinstance(value, (dict, list)):
                stack.append((iter(node._kids or ()), value, key))
                continue
        else:
            # A container joins its parent only after all its children have.
            _, value, key = stack.pop()
            container = stack[-1][1]
        if isinstance(container, list):
            container.append(value)
        elif key in container:
            raise _refuse(stack, DUPLICATE_ROOT, f"duplicate key {key!r}")
        else:
            container[key] = value
    return result[0]


def _refuse(stack, kind: str, message: str, near: str = "", candidates=(), below: NodePath = ()) -> DecodeError:
    """The DecodeError for the node the frames on ``stack`` are reading, or
    for its descendant ``below``, suggesting the candidate nearest ``near``."""
    from treetext.grammar import suggest

    return _fail(tuple(len(frame[1]) for frame in stack) + below, kind, message, suggest(near, candidates))


def _decode(node: TreeNode, stack, keyed: bool):
    """Read one node's head: (key, value), with an empty value for o and a."""
    tag, sep, rest = node.line.partition(WORD_SEP)
    if keyed and not sep:
        raise _refuse(stack, ARITY_MISMATCH, f"missing key after tag {tag!r} in object")
    key, _, rest = rest.partition(WORD_SEP) if keyed else (None, sep, rest)
    if tag not in TAGS:
        raise _refuse(stack, UNKNOWN_NODE_TYPE, f"unknown tag {tag!r}", tag, TAGS)
    if tag in ("n", "b", "z") and node._kids:
        raise _refuse(stack, ILLEGAL_CHILD, f"{TAGS[tag]} nodes do not take children", below=(0,))
    if tag in ("o", "a", "z"):
        if rest:
            takes = "value" if tag == "z" else "words after the key"
            raise _refuse(stack, ARITY_MISMATCH, f"{TAGS[tag]} node takes no {takes}, got {rest!r}")
        return key, {} if tag == "o" else [] if tag == "a" else None
    if tag == "s":
        if node._kids:
            if rest:
                raise _refuse(stack, CELL_TYPE_MISMATCH, "string node has both inline text and child lines")
            return key, serialize(TreeDocument(node._kids))
        return key, rest
    if rest == "":
        raise _refuse(stack, ARITY_MISMATCH, f"{TAGS[tag]} node is missing its value")
    if tag == "b":
        if rest not in ("true", "false"):
            raise _refuse(stack, CELL_TYPE_MISMATCH, f"{rest!r} is not a boolean", rest, ("false", "true"))
        return key, rest == "true"
    # n
    if WORD_SEP in rest or _JSON_NUMBER.fullmatch(rest) is None:
        raise _refuse(stack, CELL_TYPE_MISMATCH, f"{rest!r} is not a JSON number")
    try:
        number = json.loads(rest)
    except ValueError:  # past the interpreter's int-to-string digit limit
        message = f"number literal of {len(rest)} characters is too long to read"
        raise _refuse(stack, CELL_TYPE_MISMATCH, message) from None
    if isinstance(number, float) and math.isinf(number):
        raise _refuse(stack, CELL_TYPE_MISMATCH, f"{rest!r} overflows to infinity")
    return key, number


# ---------------------------------------------------------------------------
# MapTL


def to_map(doc: TreeDocument) -> "dict[str, str]":
    """Read a flat document as an ordered string map."""
    mapping: "dict[str, str]" = {}
    for i, root in enumerate(doc.roots):
        if root._kids:
            raise _fail((i,), ILLEGAL_CHILD, "map entries take no children")
        key = root.first_word
        if key == "":
            raise _fail((i,), CELL_TYPE_MISMATCH, "map entry key must be a nonempty word")
        if key in mapping:
            raise _fail((i,), DUPLICATE_ROOT, f"duplicate key {key!r}")
        mapping[key] = root.content
    return mapping


def from_map(mapping: "dict[str, str]") -> TreeDocument:
    """Encode an ordered string map; inverse of to_map on its output."""
    doc = TreeDocument()
    for key, value in mapping.items():
        _check_key(key)
        if key == "":
            raise ConversionError("map keys must be nonempty")
        if not isinstance(value, str):
            raise ConversionError(f"map value for {key!r} is not a string")
        if NEWLINE in value:
            raise ConversionError(f"map value for {key!r} contains a newline")
        doc.roots.append(TreeNode(key + WORD_SEP + value if value else key))
    return doc
