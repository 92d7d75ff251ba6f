"""JSON interconversion: untyped projection, JsonTL, MapTL."""

import enum
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    WEB_STATS_JSON,
    POINT_JSONTL,
    POINT_VALUE,
    CITIES_MAPTL,
    CITIES_VALUE,
    WEB_STATS_TN,
)
from helpers import (
    DEEP,
    chain,
    fuzz_string,
    random_json,
    random_key,
    reference_from_json_typed,
    reference_from_json_untyped,
    reference_to_json_typed,
    spine,
)
from treetext import (
    ConversionError,
    DecodeError,
    TreeDocument,
    from_json_typed,
    from_json_untyped,
    from_map,
    parse,
    serialize,
    to_json_typed,
    to_map,
)

# ---------------------------------------------------------------------------
# untyped projection


def test_web_stats_object_projects_to_its_listing():
    doc = from_json_untyped(WEB_STATS_JSON)
    assert serialize(doc) == WEB_STATS_TN
    assert doc.node_count() == 3


def test_empty_object_projects_to_empty_document():
    assert serialize(from_json_untyped({})) == ""


def test_multiline_string_projects_to_child_lines():
    source = 'import hn.np as lz\nprint("aaronsw pdm ah as mo gb 28-3")'
    doc = from_json_untyped({"source": source})
    assert serialize(doc) == (
        "source\n import hn.np as lz\n print(\"aaronsw pdm ah as mo gb 28-3\")"
    )
    assert len(doc.roots[0].children) == 2
    # a continuation line nests under the line before it, as on re-parse
    doc = from_json_untyped({"k": "a\n b"})
    assert [(p, n.line) for p, n in doc.walk()] == [
        (p, n.line) for p, n in parse(serialize(doc)).walk()
    ]


def test_scalars_render_as_canonical_json_text():
    doc = from_json_untyped({"a": True, "b": False, "c": None, "d": 7, "e": 2.5})
    assert serialize(doc) == "a true\nb false\nc null\nd 7\ne 2.5"


def test_empty_string_value_renders_bare_key():
    assert serialize(from_json_untyped({"k": ""})) == "k"


def test_array_elements_have_empty_first_word():
    doc = from_json_untyped({"tags": ["x", 3, None]})
    assert serialize(doc) == "tags\n  x\n  3\n  null"
    for child in doc.roots[0].children:
        assert child.first_word == ""


def test_nested_containers_inside_arrays():
    doc = from_json_untyped({"rows": [{"a": 1}, [2]]})
    assert serialize(doc) == "rows\n \n  a 1\n \n   2"


def test_untyped_rejects_non_object_top_level():
    for value in [[], "x", 5, None, True]:
        with pytest.raises(ConversionError):
            from_json_untyped(value)


def test_untyped_rejects_keys_with_separators():
    with pytest.raises(ConversionError):
        from_json_untyped({"two words": 1})
    with pytest.raises(ConversionError):
        from_json_untyped({"has\nnewline": 1})


def test_untyped_rejects_numbers_without_json_text():
    # 10**5000 is past CPython's 4,300-digit int-to-string limit.
    for bad in [math.inf, math.nan, 10**5000]:
        with pytest.raises(ConversionError):
            from_json_untyped({"k": bad})


# ---------------------------------------------------------------------------
# JsonTL encoder


def test_point_value_encodes_to_its_listing():
    assert serialize(from_json_typed(POINT_VALUE)) == POINT_JSONTL


def test_scalar_encodings():
    # list of pairs, not a dict: True/1 and False/0 collide as dict keys
    cases = [
        (None, "z"),
        (True, "b true"),
        (False, "b false"),
        (0, "n 0"),
        (-7, "n -7"),
        (2.5, "n 2.5"),
        ("", "s"),
        ("hi", "s hi"),
        ("two words", "s two words"),
    ]
    for value, text in cases:
        assert serialize(from_json_typed(value)) == text


def test_container_encodings():
    assert serialize(from_json_typed({})) == "o"
    assert serialize(from_json_typed([])) == "a"
    assert serialize(from_json_typed([1, "x"])) == "a\n n 1\n s x"
    assert serialize(from_json_typed({"k": {}})) == "o\n o k"
    assert serialize(from_json_typed({"k": []})) == "o\n a k"


def test_multiline_string_encodes_as_child_lines():
    assert serialize(from_json_typed({"s": "a\nb"})) == "o\n s s\n  a\n  b"
    assert serialize(from_json_typed("a\nb")) == "s\n a\n b"


def test_encoder_rejects_bad_keys_and_numbers():
    with pytest.raises(ConversionError):
        from_json_typed({"two words": 1})
    with pytest.raises(ConversionError):
        from_json_typed({"nl\nkey": 1})
    for bad in [math.inf, -math.inf, math.nan, 10**5000]:
        with pytest.raises(ConversionError):
            from_json_typed(bad)
    with pytest.raises(ConversionError):
        from_json_typed({"k": {1: "non-string key"}})
    with pytest.raises(ConversionError):
        from_json_typed({None: 1})  # not written as "o\n n 1", which drops the key
    with pytest.raises(ConversionError):
        from_json_typed(object())


def test_both_encoders_check_a_member_key_before_its_value():
    # 10**5000 is past CPython's 4,300-digit int-to-string limit.
    for value in [{1, 2}, object(), math.inf, 10**5000]:
        for encode in (from_json_untyped, from_json_typed):
            with pytest.raises(ConversionError) as info:
                encode({"a b": value})
            assert str(info.value) == "object key 'a b' contains a space; keys must be single words"


class _Level(enum.IntEnum):
    LOW = 1


class _LoudInt(int):
    def __repr__(self):
        return "loud"

    __str__ = __repr__


class _LoudFloat(float):
    def __repr__(self):
        return "loud"

    __str__ = __repr__


def test_number_subclasses_write_their_number_text():
    # int's and float's own text, as json.dumps writes them: on Python 3.10
    # str(_Level.LOW) is "_Level.LOW", which no decoder reads as a number.
    for value, text in [(_Level.LOW, "1"), (_LoudInt(-7), "-7"), (_LoudFloat(2.5), "2.5")]:
        assert json.dumps(value) == text
        assert serialize(from_json_untyped({"k": value})) == f"k {text}"
        assert serialize(from_json_typed({"k": value})) == f"o\n n k {text}"
        assert to_json_typed(from_json_typed({"k": value})) == {"k": json.loads(text)}


def test_encoding_is_deterministic_and_order_preserving():
    value = {"b": 1, "a": 2}
    assert serialize(from_json_typed(value)) == "o\n n b 1\n n a 2"
    assert serialize(from_json_typed(value)) == serialize(from_json_typed(value))


# ---------------------------------------------------------------------------
# JsonTL decoder


def test_point_listing_decodes_to_its_value():
    value = to_json_typed(parse(POINT_JSONTL))
    assert value == POINT_VALUE
    assert json.dumps(value) == json.dumps(POINT_VALUE)


def test_bare_object_decodes_empty():
    assert to_json_typed(parse("o")) == {}
    assert to_json_typed(parse("a")) == []


def test_key_order_is_preserved():
    value = to_json_typed(parse("o\n n b 1\n n a 2"))
    assert list(value) == ["b", "a"]


def test_string_decodings():
    assert to_json_typed(parse("s")) == ""
    assert to_json_typed(parse("s  leading")) == " leading"
    assert to_json_typed(parse("s\n a\n b")) == "a\nb"
    # A trailing separator is a tolerated spelling of the empty string.
    assert to_json_typed(parse("o\n s k ")) == {"k": ""}
    assert to_json_typed(parse("o\n s k")) == {"k": ""}


def _decode_error(text):
    with pytest.raises(DecodeError) as info:
        to_json_typed(parse(text))
    return info.value.error


def test_decode_error_kinds_and_paths():
    err = _decode_error("q")
    assert err.kind == "unknownNodeType" and err.path == (0,)
    err = _decode_error("o\n s k v\n q k2")
    assert err.kind == "unknownNodeType" and err.path == (0, 1)
    err = _decode_error("o\n s")
    assert err.kind == "arityMismatch" and err.path == (0, 0)
    assert "key" in err.message
    err = _decode_error("n")
    assert err.kind == "arityMismatch"
    err = _decode_error("n x12")
    assert err.kind == "cellTypeMismatch"
    err = _decode_error("n 1 2")
    assert err.kind == "cellTypeMismatch"
    err = _decode_error("b maybe")
    assert err.kind == "cellTypeMismatch" and err.suggestion is None
    err = _decode_error("b ture")
    assert err.kind == "cellTypeMismatch" and err.suggestion == "true"
    err = _decode_error("z extra")
    assert err.kind == "arityMismatch"
    err = _decode_error("o\n s k v\n s k w")
    assert err.kind == "duplicateRoot" and err.path == (0, 1)
    err = _decode_error("o extra")
    assert err.kind == "arityMismatch"
    err = _decode_error("z\n child")
    assert err.kind == "illegalChild" and err.path == (0, 0)
    err = _decode_error("s text\n more")
    assert err.kind == "cellTypeMismatch"


def test_decode_rejects_wrong_root_counts():
    err = _decode_error("")
    assert err.kind == "arityMismatch"
    err = _decode_error("o\no")
    assert err.kind == "duplicateRoot" and err.path == (1,)


def test_decoder_rejects_non_json_numbers():
    too_long = "n " + "1" * 5000  # past CPython's 4,300-digit int-to-string limit
    for text in ["n Infinity", "n NaN", "n 01", "n +1", "n 1.", "n .5", "n 0x10", "n 1e400", "n -1e400", too_long]:
        assert _decode_error(text).kind == "cellTypeMismatch", text


def test_unknown_tag_gets_suggestion():
    err = _decode_error("so hello")
    assert err.kind == "unknownNodeType"
    assert err.suggestion in ("o", "s")


# ---------------------------------------------------------------------------
# JsonTL round trip


@st.composite
def json_values(draw, max_depth=4):
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(min_value=-(10**15), max_value=10**15)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(alphabet=st.sampled_from(list("ab \"\\\t\né🌲\n")), max_size=10)
    )
    keys = st.text(alphabet=st.sampled_from(list("abcdef_")), min_size=1, max_size=6)
    return draw(
        st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(keys, inner, max_size=4),
            max_leaves=25,
        )
    )


@given(json_values())
@settings(max_examples=300)
def test_typed_round_trip_is_lossless(value):
    decoded = to_json_typed(from_json_typed(value))
    assert decoded == value
    assert json.dumps(decoded) == json.dumps(value)


def test_typed_round_trip_random_corpus():
    rng = random.Random(8259)
    for _ in range(300):
        value = random_json(rng)
        decoded = to_json_typed(from_json_typed(value))
        assert json.dumps(decoded) == json.dumps(value)


def _walk(doc):
    return [(len(path), node.line) for path, node in doc.walk()]


@given(json_values())
@settings(max_examples=300)
def test_typed_trees_equal_their_reparse(value):
    # == compares serializations, so it cannot see a non-canonical tree.
    doc = from_json_typed(value)
    assert _walk(doc) == _walk(parse(serialize(doc)))


# ---------------------------------------------------------------------------
# cycles and depth


def test_encoders_reject_cyclic_values():
    loop = []
    loop.append(loop)
    with pytest.raises(ConversionError):
        from_json_typed(loop)
    with pytest.raises(ConversionError):
        from_json_untyped({"k": loop})
    member = {}
    member["k"] = member
    with pytest.raises(ConversionError):
        from_json_untyped(member)
    # A value shared by siblings is not a cycle.
    shared = [1]
    value = [shared, shared, {"a": shared}]
    assert serialize(from_json_typed(value)) == serialize(from_json_typed([[1], [1], {"a": [1]}]))
    assert to_json_typed(from_json_typed(value)) == value
    assert serialize(from_json_untyped({"k": value})) == serialize(from_json_untyped({"k": [[1], [1], {"a": [1]}]}))


def test_codecs_take_any_depth():
    depth = 100_000
    value = None
    for _ in range(depth):
        value = [value]
    doc = from_json_typed(value)
    assert doc.node_count() == depth + 1
    assert [node.line for node in spine(doc.roots[0])] == ["a"] * depth + ["z"]
    decoded = to_json_typed(doc)
    for _ in range(depth):  # not ==, which recurses on nested lists
        assert type(decoded) is list and len(decoded) == 1
        decoded = decoded[0]
    assert decoded is None
    doc = from_json_untyped({"k": value})
    assert doc.node_count() == depth + 1
    assert [node.line for node in spine(doc.roots[0])] == ["k"] + [""] * (depth - 1) + [" null"]
    # The deepest node's error carries its whole path.
    with pytest.raises(DecodeError) as info:
        to_json_typed(chain(DEEP, "q"))
    assert info.value.error.kind == "unknownNodeType"
    assert info.value.error.path == (0,) * (DEEP + 1)


# ---------------------------------------------------------------------------
# agreement with the recursive reference codecs

# Values outside the encoders' domain: non-finite and over-long numbers,
# non-JSON types, and keys that are not single words.
_BAD_VALUES = (math.inf, -math.inf, math.nan, 10**5000, object(), (1,), b"x", {1})
_BAD_KEYS = ("two words", "new\nline", 1, None, 2.5)
_JSONTL_WORDS = ("o", "a", "s", "n", "b", "z", "q", "so", "k", "k2", "", "1", "-0.5", "01", "1e400", "true", "ture")


def _risky_json(rng, depth=4):
    """A random value in which about one node or key in 25 lies outside JSON."""
    roll = rng.random()
    if roll < 0.04:
        return rng.choice(_BAD_VALUES)
    if depth == 0 or roll > 0.5:
        return random_json(rng, 0)
    if rng.random() < 0.5:
        return [_risky_json(rng, depth - 1) for _ in range(rng.randrange(5))]
    keys = [rng.choice(_BAD_KEYS) if rng.random() < 0.04 else random_key(rng) for _ in range(rng.randrange(5))]
    return {key: _risky_json(rng, depth - 1) for key in keys}


def _jsontl_words(rng):
    return " ".join(rng.choice(_JSONTL_WORDS) for _ in range(rng.randrange(1, 4)))


def _mutate_jsontl(rng, text):
    """A few line edits: replace, repeat (a duplicate key), drop or re-indent a line."""
    lines = text.split("\n")
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(lines))
        indent = len(lines[i]) - len(lines[i].lstrip(" "))
        roll = rng.random()
        if roll < 0.4:
            lines[i] = " " * indent + _jsontl_words(rng)
        elif roll < 0.6:
            lines.insert(i, lines[i])
        elif roll < 0.8 and len(lines) > 1:
            del lines[i]
        else:
            lines[i] = lines[i][1:] if indent and rng.random() < 0.5 else " " + lines[i]
    return "\n".join(lines)


def _outcome(fn, arg):
    """``fn(arg)`` in comparable form: a tree as its (depth, line) walk,
    a value as JSON text, an exception as its type, text and TlError."""
    try:
        result = fn(arg)
    except Exception as exc:  # both sides must fail alike, whatever the type
        error = getattr(exc, "error", None)
        fields = None if error is None else (error.path, error.kind, error.message, error.suggestion)
        return type(exc), str(exc), fields
    if isinstance(result, TreeDocument):
        return _walk(result)
    return json.dumps(result)


def test_codecs_match_the_recursive_reference():
    rng = random.Random(6)
    for i in range(2500):
        value = _risky_json(rng)
        assert _outcome(from_json_typed, value) == _outcome(reference_from_json_typed, value)
        assert _outcome(from_json_untyped, {"k": value}) == _outcome(reference_from_json_untyped, {"k": value})
        text = serialize(from_json_typed(random_json(rng, depth=4)))
        if i % 2:
            fuzz = fuzz_string(rng, 60)
        else:
            fuzz = "\n".join(" " * rng.randrange(3) + _jsontl_words(rng) for _ in range(rng.randrange(4)))
        for case in (text, _mutate_jsontl(rng, text), fuzz):
            doc = parse(case)
            assert _outcome(to_json_typed, doc) == _outcome(reference_to_json_typed, doc), case


# ---------------------------------------------------------------------------
# MapTL


def test_cities_map_listing():
    mapping = to_map(parse(CITIES_MAPTL))
    assert mapping == CITIES_VALUE
    assert list(mapping) == ["dsl", "sf"]
    assert serialize(from_map(mapping)) == CITIES_MAPTL


def test_empty_map():
    assert to_map(parse("")) == {}
    assert serialize(from_map({})) == ""


def test_empty_value_round_trip():
    assert serialize(from_map({"k": ""})) == "k"
    assert to_map(parse("k")) == {"k": ""}
    assert to_map(parse("k ")) == {"k": ""}


def test_map_is_a_tree_sublanguage():
    doc = parse(CITIES_MAPTL)
    assert doc.node_count() == len(to_map(doc))


def test_to_map_errors():
    with pytest.raises(DecodeError) as info:
        to_map(parse("k v\nk w"))
    assert info.value.error.kind == "duplicateRoot" and info.value.error.path == (1,)
    with pytest.raises(DecodeError) as info:
        to_map(parse("k v\n child"))
    assert info.value.error.kind == "illegalChild"
    with pytest.raises(DecodeError) as info:
        to_map(parse(" nokey"))
    assert info.value.error.kind == "cellTypeMismatch"


def test_from_map_errors():
    for bad in [{"two words": "v"}, {"a\nb": "v"}, {"": "v"}, {"k": "a\nb"}, {"k": 5}, {5: "v"}]:
        with pytest.raises(ConversionError):
            from_map(bad)


@given(
    st.dictionaries(
        st.text(alphabet=st.sampled_from(list("abcdef")), min_size=1, max_size=5),
        st.text(alphabet=st.sampled_from(list("ab c é")), max_size=12),
        max_size=8,
    )
)
@settings(max_examples=200)
def test_map_round_trip(mapping):
    assert to_map(from_map(mapping)) == mapping


def test_map_round_trip_random_corpus():
    rng = random.Random(505)
    for _ in range(500):
        mapping = {}
        for _ in range(rng.randrange(0, 9)):
            key = "".join(rng.choice("abcdefgh") for _ in range(rng.randrange(1, 6)))
            value = " ".join(
                rng.choice(["v", "w w", "", "é", "x  y"]) for _ in range(rng.randrange(0, 3))
            )
            mapping[key] = value
        assert to_map(from_map(mapping)) == mapping
        assert list(to_map(from_map(mapping))) == list(mapping)
