"""JSON interconversion: an untyped projection plus two tree dialects.

Three layers, in order of fidelity:

* ``from_json_untyped`` renders a JSON object for human eyes.  Keys
  become first words, scalars become content, nested objects become
  children, arrays become children with an empty first word, and a
  multi-line string becomes one child per text line.  Type information
  is discarded on purpose; there is no inverse.

* ``from_json_typed`` / ``to_json_typed`` implement JsonTL, a lossless
  dialect.  Every node starts with a one-letter tag: o=object, a=array,
  s=string, n=number, b=boolean, z=null.  Inside an object the second
  word is the member key.  A string containing a newline is stored as
  child lines instead of escape sequences, so the text reads exactly as
  it will print.  ``to_json_typed(from_json_typed(v)) == v`` for every
  JSON value whose object keys are single words and whose numbers are
  finite.

* ``to_map`` / ``from_map`` implement MapTL, a flat string-to-string
  dialect: key = first word, value = rest of the line.

Encoders raise ConversionError for values outside their domain (keys
with spaces or newlines, non-finite numbers).  Decoders raise
DecodeError, which carries a TlError locating the offending node.
"""

from __future__ import annotations

import json
import math
import re
from typing import Union

from treetext.core import (
    NEWLINE,
    WORD_SEP,
    NodePath,
    TreeDocument,
    TreeError,
    TreeNode,
    parse,
    serialize,
)
from treetext.grammar import (
    ARITY_MISMATCH,
    CELL_TYPE_MISMATCH,
    DUPLICATE_ROOT,
    ILLEGAL_CHILD,
    UNKNOWN_NODE_TYPE,
    TlError,
    suggest,
)

JsonValue = Union[dict, list, str, int, float, bool, None]

TAGS = {"o": "object", "a": "array", "s": "string", "n": "number", "b": "boolean", "z": "null"}

# RFC 8259 number grammar; Python's json module is laxer (it also takes
# Infinity and NaN), so decoders gate on this first.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


class ConversionError(TreeError):
    """A value lies outside the encoder's domain."""


class DecodeError(TreeError):
    """A document does not conform to the dialect being decoded."""

    def __init__(self, error: TlError):
        super().__init__(f"{error.message} (at path {list(error.path)})")
        self.error = error


def _fail(path: NodePath, kind: str, message: str, suggestion=None) -> "DecodeError":
    return DecodeError(TlError(path, kind, message, suggestion))


def _check_key(key) -> str:
    if not isinstance(key, str):
        raise ConversionError(f"object key {key!r} is not a string")
    if NEWLINE in key:
        raise ConversionError(f"object key {key!r} contains a newline")
    if WORD_SEP in key:
        raise ConversionError(f"object key {key!r} contains a space; keys must be single words")
    return key


# ---------------------------------------------------------------------------
# untyped projection


def from_json_untyped(value: JsonValue) -> TreeDocument:
    """Project a JSON object to a plain tree for display. Lossy on types."""
    if not isinstance(value, dict):
        raise ConversionError("untyped projection takes a JSON object at top level")
    doc = TreeDocument()
    doc.roots = [_project_into(TreeNode(_check_key(k)), v) for k, v in value.items()]
    return doc


def _project_element(value) -> TreeNode:
    # Array elements have no key: first word is empty.
    if not isinstance(value, (dict, list)) and not _is_multiline(value):
        return TreeNode(WORD_SEP + _scalar_text(value))
    return _project_into(TreeNode(""), value)


def _project_into(node: TreeNode, value) -> TreeNode:
    if isinstance(value, dict):
        node.children = [_project_into(TreeNode(_check_key(k)), v) for k, v in value.items()]
    elif isinstance(value, list):
        node.children = [_project_element(v) for v in value]
    elif _is_multiline(value):
        # A sub-document, as in JsonTL, so the tree equals its re-parse.
        node.children = parse(value).roots
    else:
        text = _scalar_text(value)
        if text:
            node.set_line(node.line + WORD_SEP + text)
    return node


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


# ---------------------------------------------------------------------------
# JsonTL encoder


def from_json_typed(value: JsonValue) -> TreeDocument:
    """Encode any JSON value as a single-root JsonTL document."""
    doc = TreeDocument()
    doc.roots = [_encode(value, None)]
    return doc


def _encode(value, key) -> TreeNode:
    head = _tag_for(value)
    if key is not None:
        head += WORD_SEP + _check_key(key)
    node = TreeNode(head)
    if isinstance(value, dict):
        node.children = [_encode(v, k) for k, v in value.items()]
    elif isinstance(value, list):
        node.children = [_encode(v, None) for v in value]
    elif _is_multiline(value):
        # Child lines, not escapes: the text is stored as the
        # sub-document it already is.
        node.children = parse(value).roots
    elif value is not None and value != "":
        node.set_line(head + WORD_SEP + _scalar_text(value))
    return node


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


# ---------------------------------------------------------------------------
# JsonTL decoder


def to_json_typed(doc: TreeDocument) -> JsonValue:
    """Decode a JsonTL document. Inverse of from_json_typed."""
    if len(doc.roots) == 0:
        raise _fail((), ARITY_MISMATCH, "expected exactly one root node, got none")
    if len(doc.roots) > 1:
        raise _fail((1,), DUPLICATE_ROOT, f"expected exactly one root node, got {len(doc.roots)}")
    _, value = _decode(doc.roots[0], (0,), keyed=False)
    return value


def _split_head(node: TreeNode, path: NodePath, keyed: bool):
    """Return (tag, key, rest) for one node line."""
    if keyed:
        parts = node.line.split(WORD_SEP, 2)
        if len(parts) < 2:
            raise _fail(path, ARITY_MISMATCH, f"missing key after tag {parts[0]!r} in object")
        return parts[0], parts[1], parts[2] if len(parts) == 3 else ""
    parts = node.line.split(WORD_SEP, 1)
    return parts[0], None, parts[1] if len(parts) == 2 else ""


def _decode(node: TreeNode, path: NodePath, keyed: bool):
    tag, key, rest = _split_head(node, path, keyed)
    if tag not in TAGS:
        raise _fail(
            path,
            UNKNOWN_NODE_TYPE,
            f"unknown tag {tag!r}",
            suggestion=suggest(tag, sorted(TAGS)),
        )
    if tag in ("n", "b", "z") and node.children:
        raise _fail(path + (0,), ILLEGAL_CHILD, f"{TAGS[tag]} nodes do not take children")

    if tag == "o":
        if rest:
            raise _fail(path, ARITY_MISMATCH, f"object node takes no words after the key, got {rest!r}")
        value: dict = {}
        for i, child in enumerate(node.children):
            child_key, child_value = _decode(child, path + (i,), keyed=True)
            if child_key in value:
                raise _fail(path + (i,), DUPLICATE_ROOT, f"duplicate key {child_key!r}")
            value[child_key] = child_value
        return key, value
    if tag == "a":
        if rest:
            raise _fail(path, ARITY_MISMATCH, f"array node takes no words after the key, got {rest!r}")
        return key, [
            _decode(child, path + (i,), keyed=False)[1] for i, child in enumerate(node.children)
        ]
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
        except ValueError:  # past the interpreter's int-to-string digit limit
            message = f"number literal of {len(rest)} characters is too long to read"
            raise _fail(path, CELL_TYPE_MISMATCH, message) from None
        if isinstance(number, float) and math.isinf(number):
            raise _fail(path, CELL_TYPE_MISMATCH, f"{rest!r} overflows to infinity")
        return key, number
    if tag == "b":
        if rest == "":
            raise _fail(path, ARITY_MISMATCH, "boolean node is missing its value")
        if rest not in ("true", "false"):
            raise _fail(
                path,
                CELL_TYPE_MISMATCH,
                f"{rest!r} is not a boolean",
                suggestion=suggest(rest, ["false", "true"]),
            )
        return key, rest == "true"
    # z
    if rest:
        raise _fail(path, ARITY_MISMATCH, f"null node takes no value, got {rest!r}")
    return key, None


# ---------------------------------------------------------------------------
# MapTL


def to_map(doc: TreeDocument) -> "dict[str, str]":
    """Read a flat document as an ordered string map."""
    mapping: "dict[str, str]" = {}
    for i, root in enumerate(doc.roots):
        if root.children:
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
