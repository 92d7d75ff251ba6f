"""Parser and serializer: totality, losslessness, tree building, editing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WEB_STATS_TN
from helpers import DEEP, chain, spine
from treetext import (
    INDENT,
    NEWLINE,
    WORD_SEP,
    InvalidLineError,
    PathNotFoundError,
    TreeDocument,
    TreeNode,
    parse,
    parse_parallel,
    serialize,
)

# A structure-dense alphabet makes hypothesis hit indentation edge cases
# far more often than fully random unicode would; a plain st.text() run
# is mixed in to keep arbitrary code points covered too.
dense_text = st.text(alphabet=st.sampled_from(list("ab \n\t\ré🌲")))
any_text = dense_text | st.text()


# ---------------------------------------------------------------------------
# structure


def test_web_stats_listing_structure():
    doc = parse(WEB_STATS_TN)
    assert [r.line for r in doc.roots] == ["title Web Stats", "visitors"]
    assert doc.roots[0].children == []
    assert [c.line for c in doc.roots[1].children] == ["mozilla 802"]
    assert doc.node_count() == 3
    assert doc.max_depth() == 1
    assert serialize(doc) == WEB_STATS_TN


def test_empty_text_has_no_nodes():
    doc = parse("")
    assert doc.roots == []
    assert doc.node_count() == 0
    assert doc.max_depth() == 0
    assert serialize(doc) == ""


def test_every_line_is_a_node_including_blanks():
    doc = parse("a\n\nb\n")
    assert [r.line for r in doc.roots] == ["a", "", "b", ""]
    assert doc.node_count() == 4


def test_single_newline_is_two_empty_nodes():
    doc = parse("\n")
    assert [r.line for r in doc.roots] == ["", ""]


def test_child_attaches_to_most_recent_shallower_node():
    doc = parse("a\n b\n  c\n d")
    a = doc.roots[0]
    assert [c.line for c in a.children] == ["b", "d"]
    assert [c.line for c in a.children[0].children] == ["c"]


def test_surplus_indent_stays_in_the_line():
    # A jump of more than one level keeps the extra spaces as content.
    doc = parse("a\n   b")
    child = doc.roots[0].children[0]
    assert child.line == "  b"
    assert child.first_word == ""
    assert serialize(doc) == "a\n   b"


def test_indent_beyond_depth_on_blank_prefix():
    # Leading spaces on the first line can never attach anywhere: depth 0.
    doc = parse("  x")
    assert doc.roots[0].line == "  x"


def test_tabs_are_content_not_structure():
    doc = parse("a\n\tb")
    assert [r.line for r in doc.roots] == ["a", "\tb"]
    assert doc.roots[0].children == []


def test_carriage_return_is_content():
    text = "a\r\n b\r"
    doc = parse(text)
    assert doc.roots[0].line == "a\r"
    assert serialize(doc) == text


def test_words_and_content():
    node = parse("key one  two").roots[0]
    assert node.first_word == "key"
    assert node.words == ["key", "one", "", "two"]
    assert node.content == "one  two"
    assert WORD_SEP.join(node.words) == node.line
    blank = TreeNode("")
    assert blank.words == [""]
    assert blank.first_word == ""
    assert blank.content == ""


def test_constants():
    assert NEWLINE == "\n"
    assert INDENT == " "
    assert WORD_SEP == " "


# ---------------------------------------------------------------------------
# totality and losslessness


@given(any_text)
@settings(max_examples=300)
def test_parse_is_total_and_round_trips(text):
    assert serialize(parse(text)) == text


@given(dense_text)
@settings(max_examples=150)
def test_every_prefix_parses_and_round_trips(text):
    text = text[:80]
    for end in range(len(text) + 1):
        prefix = text[:end]
        assert serialize(parse(prefix)) == prefix


@given(any_text)
@settings(max_examples=200)
def test_node_count_equals_line_count(text):
    expected = 0 if text == "" else len(text.split(NEWLINE))
    assert parse(text).node_count() == expected


@given(dense_text)
@settings(max_examples=200)
def test_words_rejoin_to_line(text):
    for _, node in parse(text).walk():
        assert WORD_SEP.join(node.words) == node.line


@given(dense_text, dense_text)
@settings(max_examples=150)
def test_depth_zero_boundary_concatenation(t1, t2):
    # Joining two texts at a zero-indent boundary concatenates their
    # root lists without disturbing either side's subtrees.  This is
    # the chunking lemma behind parse_parallel.
    if t1 == "" or t2 == "" or t2.startswith(INDENT):
        return
    combined = parse(t1 + NEWLINE + t2)
    expected = [r.serialize() for r in parse(t1).roots] + [
        r.serialize() for r in parse(t2).roots
    ]
    assert [r.serialize() for r in combined.roots] == expected


@given(any_text, st.integers(min_value=1, max_value=8))
@settings(max_examples=100)
def test_parse_parallel_matches_sequential(text, workers):
    assert parse_parallel(text, max_workers=workers) == parse(text)


def test_parse_parallel_all_indented_input():
    text = "  a\n  b\n   c"
    assert parse_parallel(text, max_workers=3) == parse(text)
    assert serialize(parse_parallel(text)) == text


# ---------------------------------------------------------------------------
# equality


def test_equality_is_serialization_equality():
    assert parse("a\n b") == parse("a\n b")
    assert parse("a") != parse("b")
    assert parse("a") != "a"
    # A hand-built child whose line starts with a space serializes the
    # same as a deeper node; such documents compare equal by design.
    built = TreeDocument([TreeNode("a", [TreeNode(" b")])])
    assert built == parse(serialize(built))


def test_nodes_are_not_hashable():
    with pytest.raises(TypeError):
        hash(TreeNode("a"))


def test_node_equality():
    assert TreeNode("a", [TreeNode("b")]) == parse("a\n b").roots[0]
    assert TreeNode("a") != TreeNode("a", [TreeNode("b")])


# ---------------------------------------------------------------------------
# editing


def test_append_and_insert_children():
    doc = TreeDocument()
    root = doc.append_child("root")
    root.append_child("kid one")
    root.insert_child(0, TreeNode("kid zero"))
    doc.insert_child(0, TreeNode("front"))
    assert serialize(doc) == "front\nroot\n kid zero\n kid one"


def test_insert_child_index_out_of_range():
    doc = parse("a")
    with pytest.raises(IndexError):
        doc.insert_child(5, TreeNode("x"))
    with pytest.raises(IndexError):
        doc.roots[0].insert_child(1, TreeNode("x"))


def test_lines_may_not_contain_newlines():
    with pytest.raises(InvalidLineError):
        TreeNode("a\nb")
    node = TreeNode("ok")
    with pytest.raises(InvalidLineError):
        node.set_line("bad\n")
    with pytest.raises(InvalidLineError):
        node.append_child("also\nbad")


def test_get_node_paths():
    doc = parse("a\n b\n  c\nd")
    assert doc.get_node((0,)).line == "a"
    assert doc.get_node((0, 0, 0)).line == "c"
    assert doc.get_node((1,)).line == "d"
    assert doc.get_node(()) is None
    assert doc.get_node((9,)) is None
    assert doc.get_node((0, 5)) is None
    assert doc.get_node((-1,)) is None


def test_walk_is_preorder_with_paths():
    doc = parse("a\n b\n  c\nd")
    assert [(path, node.line) for path, node in doc.walk()] == [
        ((0,), "a"),
        ((0, 0), "b"),
        ((0, 0, 0), "c"),
        ((1,), "d"),
    ]


def test_delete_node():
    doc = parse("a\n b\n c\nd")
    doc.delete_node((0, 0))
    assert serialize(doc) == "a\n c\nd"
    doc.delete_node((1,))
    assert serialize(doc) == "a\n c"
    with pytest.raises(PathNotFoundError):
        doc.delete_node((0, 7))
    with pytest.raises(PathNotFoundError):
        doc.delete_node(())


def test_clone_is_deep():
    doc = parse("a\n b")
    copy = doc.clone()
    copy.roots[0].children[0].set_line("changed")
    assert serialize(doc) == "a\n b"
    node = doc.roots[0]
    twin = node.clone()
    twin.append_child("extra")
    assert serialize(node) == "a\n b"


def _assert_deep_copy(original: TreeNode, copy: TreeNode) -> None:
    nodes, copies = spine(original), spine(copy)
    assert [n.line for n in copies] == [n.line for n in nodes]
    assert not any(n is c for n, c in zip(nodes, copies))


def test_document_clone_takes_any_depth():
    doc = chain(DEEP, "leaf")
    _assert_deep_copy(doc.roots[0], doc.clone().roots[0])


def test_node_clone_takes_any_depth():
    node = chain(DEEP, "leaf").roots[0]
    _assert_deep_copy(node, node.clone())


def test_serialize_accepts_node_or_document():
    doc = parse("a\n b")
    assert serialize(doc.roots[0]) == "a\n b"
    assert serialize(doc) == "a\n b"


def _render_mirror(entries, depth=0):
    lines = []
    for line, children in entries:
        lines.append(INDENT * depth + line)
        lines.extend(_render_mirror(children, depth + 1))
    return lines


def test_editing_fuzz_against_mirror():
    """200 random edits tracked against an independent nested-list model."""
    rng = random.Random(20260817)
    doc = TreeDocument()
    mirror: list = []  # [line, children] pairs, same shape as the tree

    def mirror_entry(entries, path):
        entry = entries[path[0]]
        return mirror_entry(entry[1], path[1:]) if len(path) > 1 else entry

    for _ in range(200):
        paths = [path for path, _ in doc.walk()]
        roll = rng.random()
        line = rng.choice(["a", "b c", "", " lead", "\tword", "x  y"])
        if not paths or roll < 0.35:
            if paths and rng.random() < 0.5:
                parent = rng.choice(paths)
                doc.get_node(parent).append_child(line)
                mirror_entry(mirror, parent)[1].append([line, []])
            else:
                doc.append_child(line)
                mirror.append([line, []])
        elif roll < 0.55:
            target = rng.choice(paths)
            doc.get_node(target).set_line(line)
            mirror_entry(mirror, target)[0] = line
        elif roll < 0.75:
            target = rng.choice(paths)
            parent_path, index = target[:-1], target[-1]
            entries = mirror if not parent_path else mirror_entry(mirror, parent_path)[1]
            node = TreeNode(line)
            if parent_path:
                doc.get_node(parent_path).insert_child(index, node)
            else:
                doc.insert_child(index, node)
            entries.insert(index, [line, []])
        else:
            target = rng.choice(paths)
            doc.delete_node(target)
            entries = mirror if len(target) == 1 else mirror_entry(mirror, target[:-1])[1]
            del entries[target[-1]]
        assert serialize(doc) == NEWLINE.join(_render_mirror(mirror))
        assert doc.node_count() == len(_render_mirror(mirror))
