"""JSON interconversion: untyped projection, JsonTL, MapTL."""

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
from helpers import random_json
from treetext import (
    ConversionError,
    DecodeError,
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
    for bad in [math.inf, -math.inf, math.nan]:
        with pytest.raises(ConversionError):
            from_json_typed(bad)
    with pytest.raises(ConversionError):
        from_json_typed({"k": {1: "non-string key"}})
    with pytest.raises(ConversionError):
        from_json_typed(object())


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
    for text in ["n Infinity", "n NaN", "n 01", "n +1", "n 1.", "n .5", "n 0x10", "n 1e400", "n -1e400"]:
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
