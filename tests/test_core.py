"""Parser and serializer: totality, losslessness, tree building, editing."""

import copy
import gc
import pickle
import random
import sys
import threading
import time
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WEB_STATS_TN
from helpers import DEEP, chain, fuzz_string, reference_parse_lines, reference_walk_depth, spine
import treetext
from treetext import (
    INDENT,
    NEWLINE,
    WORD_SEP,
    CompileError,
    ConversionError,
    DecodeError,
    GrammarLoadError,
    InvalidLineError,
    PatchFormatError,
    PatchMismatchError,
    PathNotFoundError,
    TreeDocument,
    TreeError,
    TreeNode,
    apply_patch,
    autofix,
    check,
    compile_doc,
    diff,
    from_json_untyped,
    load_builtin_grammar,
    load_grammar,
    parse,
    parse_parallel,
    serialize,
    to_json_typed,
    to_map,
)
from treetext import core
from treetext.core import _gc_paused, _walk_depth

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
    for line in ["", " ", "  lead", "a  b", "trail ", "trail  ", " a b ", "one", "a b c"]:
        node = TreeNode(line)
        words = node.words
        assert node.first_word == words[0], repr(line)
        assert node.content == WORD_SEP.join(words[1:]), repr(line)


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


def test_a_non_canonical_document_equals_its_reparse():
    # The second root's line starts with a space, so the text is that of a
    # root with one child.  Equality compares serializations, not the
    # (depth, line) pairs of the two walks, which differ here.
    assert TreeDocument([TreeNode("a"), TreeNode(" b")]) == parse("a\n b")
    # No lines and one empty line both serialize to "".
    assert TreeDocument([TreeNode("")]) == TreeDocument() == TreeDocument([TreeNode("")])
    assert TreeDocument() != TreeDocument([TreeNode(" ")])
    assert TreeDocument() != TreeDocument([TreeNode("", [TreeNode("")])])


def test_nodes_are_not_hashable():
    with pytest.raises(TypeError):
        hash(TreeNode("a"))


def test_node_equality():
    assert TreeNode("a", [TreeNode("b")]) == parse("a\n b").roots[0]
    assert TreeNode("a") != TreeNode("a", [TreeNode("b")])


def _one_edit(doc: TreeDocument, rng: random.Random) -> TreeDocument:
    """A copy of ``doc`` with one edit: a changed line, an appended leaf, or
    the last child of a node moved to follow it, its line indented once."""
    doc = doc.clone()
    nodes = [node for _, node in doc.walk()]
    kind = rng.randrange(3)
    if kind == 0 and nodes:
        rng.choice(nodes).set_line(rng.choice(("", " ", "a", " a", "b c")))
    elif kind == 1:
        rng.choice([doc, *nodes]).append_child(rng.choice(("", " ", "a")))
    else:
        # A leaf moved so keeps the text; a node with children does not.
        for path, node in doc.walk():
            if node.children and rng.random() < 0.5:
                moved = node.children.pop()
                parent = doc.get_node(path[:-1]) if len(path) > 1 else doc
                parent.insert_child(path[-1] + 1, TreeNode(INDENT + moved.line, moved.children))
                break
    return doc


def test_equality_agrees_with_serialization_equality():
    rng = random.Random(25)
    outcomes = set()
    for seed in range(400):
        a = _hand_built(random.Random(seed))
        again = parse(serialize(a))
        for b in (a.clone(), again, _one_edit(a, rng), _one_edit(again, rng), _hand_built(rng)):
            pairs = [(a, b), (b, a)]
            if a.roots and b.roots:
                pairs.append((a.roots[0], b.roots[0]))
            for x, y in pairs:
                same_text = serialize(x) == serialize(y)
                assert (x == y) is same_text
                assert (x != y) is not same_text
            outcomes.add((serialize(a) == serialize(b), core._same_shape(a.roots, b.roots)))
    # Equal in shape, equal in text only, and unequal pairs were all seen.
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_equality_takes_linear_time_and_memory_at_any_depth():
    # The text of a 100,000-level chain is about 5 GB of indent spaces, so
    # == must decide without building it, in equal and unequal cases.
    depth = 100_000
    a, b = chain(depth, "x"), chain(depth, "x")
    other_leaf, shorter = chain(depth, "y"), chain(depth - 1, "x")
    started = time.perf_counter()
    a.clone()
    copy_s = time.perf_counter() - started
    for x, y, equal in ((a, b, True), (a, other_leaf, False), (a, shorter, False), (shorter, a, False)):
        started = time.perf_counter()
        assert (x == y) is equal and (x != y) is not equal
        assert (x.roots[0] == y.roots[0]) is equal
        # Three comparisons, each one walk of both trees or two, against
        # one copy of one tree, with room for a loaded machine.
        assert time.perf_counter() - started < 50 * copy_s + 1.0, equal
    tracemalloc.start()
    try:
        for y in (b, other_leaf):
            tracemalloc.reset_peak()
            assert (a == y) is (y is b)
            # Two walks hold one child iterator per level: about 140 bytes
            # a level, where the text would take 50,000.
            assert tracemalloc.get_traced_memory()[1] < 500 * depth
    finally:
        tracemalloc.stop()


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
    with pytest.raises(IndexError, match=r"^root index 5 out of range \(0\.\.1\)$"):
        doc.insert_child(5, TreeNode("x"))
    with pytest.raises(IndexError, match=r"^child index 1 out of range \(0\.\.0\)$"):
        doc.roots[0].insert_child(1, TreeNode("x"))


def test_lines_may_not_contain_newlines():
    with pytest.raises(InvalidLineError, match=r"^line may not contain a newline: 'a\\nb'$"):
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


def test_get_node_one_past_the_last_sibling_is_none():
    doc = parse("a\n b\nd")
    assert doc.get_node((2,)) is None
    assert doc.get_node((0, 1)) is None
    assert doc.get_node((0, 0, 0)) is None


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
    leaf = node.children[0]
    leaf_copy = leaf.clone()
    assert leaf_copy == leaf and leaf_copy is not leaf


def test_leaf_clone_does_not_pause_the_collector(monkeypatch):
    doc = parse("a\n b")
    pauses = []
    monkeypatch.setattr(core, "_gc_paused", lambda build: pauses.append(build) or build())
    assert doc.roots[0].children[0].clone().line == "b"
    assert pauses == []
    assert doc.roots[0].clone() == doc.roots[0]
    assert len(pauses) == 1


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


# ---------------------------------------------------------------------------
# a leaf's child list

# A JsonTL document of 8 nodes, 6 of them leaves, that checks clean.
_JSONTL_DOC = "o\n n a 1\n a b\n  b true\n  z\n  s x y\n s c xy\n o d"


def _leaves(doc: TreeDocument) -> "list[TreeNode]":
    return [node for _, node in doc.walk() if not node._kids]


def test_a_parsed_leaf_makes_its_child_list_when_read():
    doc = parse("a\n b\nc")
    before = doc.clone()
    leaf = doc.roots[0].children[0]
    assert leaf._kids is None
    kids = leaf.children
    assert type(kids) is list and kids == [] and leaf.children is kids
    kids.append(TreeNode("x"))
    doc.roots[1].children.append(TreeNode("y"))
    text = "a\n b\n  x\nc\n y"
    assert serialize(doc) == text
    assert doc == parse(text) and doc != before
    assert serialize(doc.clone()) == text
    patch = diff(before, doc)
    assert serialize(patch) == "descend\n descend\n  insert\n   x\ndescend\n insert\n  y"
    assert apply_patch(patch, before) == doc


def test_pickle_and_copy_keep_leaves_and_inner_nodes():
    doc = parse("a\n b\n  c\nd\n e\nf")
    copies = [pickle.loads(pickle.dumps(doc, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(doc), copy.deepcopy(doc)]:
        assert twin == doc and serialize(twin) == serialize(doc)
        assert [leaf.line for leaf in _leaves(twin)] == ["c", "e", "f"]
    for node in doc.roots:
        assert pickle.loads(pickle.dumps(node)) == copy.copy(node) == copy.deepcopy(node) == node
    assert [leaf._kids for leaf in _leaves(copies[0]) + _leaves(copy.deepcopy(doc))] == [None] * 6


def test_no_library_call_makes_a_list_for_a_parsed_leaf():
    jsontl = load_builtin_grammar("jsontl")
    doc, other = parse(_JSONTL_DOC), parse(_JSONTL_DOC.replace("true", "false"))
    leaves = _leaves(doc) + _leaves(other)
    assert len(leaves) == 12 and doc.node_count() == 8
    assert serialize(doc) == _JSONTL_DOC and doc == parse(_JSONTL_DOC) and doc != other
    copies = [doc.clone(), doc.roots[0].clone()]
    assert doc.max_depth() == 2 and [repr(doc.get_node(path)) for path, _ in doc.walk()]
    assert check(doc, jsontl) == [] and compile_doc(doc, jsontl)
    copies.append(autofix(doc, jsontl))
    for a, b in ((doc, other), (other, doc)):
        patch = diff(a, b)
        copies += [patch, apply_patch(patch, a)]
    assert to_json_typed(doc) == {"a": 1, "b": [True, None, "x y"], "c": "xy", "d": {}}
    assert [leaf for leaf in leaves if leaf._kids is not None] == []
    copies = [c if isinstance(c, TreeDocument) else TreeDocument([c]) for c in copies]
    assert [leaf for c in copies for leaf in _leaves(c) if leaf._kids is not None] == []


# ---------------------------------------------------------------------------
# the core walker against the tuple-stack reference


def _hand_built(rng: random.Random) -> TreeDocument:
    """A tree built from nodes, with lines that start with surplus spaces,
    empty lines and explicitly empty child lists."""
    doc = TreeDocument()
    open_lists = [doc.roots]  # the child lists a new node may join
    for _ in range(rng.randrange(0, 80)):
        del open_lists[rng.randrange(1, len(open_lists) + 1):]
        node = TreeNode(rng.choice(("", " ", "  x", "a", "b c", "\t", " lead")), [] if rng.random() < 0.5 else None)
        open_lists[-1].append(node)
        open_lists.append(node.children)
    return doc


def _assert_walkers_agree(doc: TreeDocument, paths_and_text: bool = True) -> None:
    expected = [(id(node), depth) for node, depth in reference_walk_depth(doc.roots)]
    assert [(id(node), depth) for node, depth in _walk_depth(doc.roots)] == expected
    assert doc.node_count() == len(expected)
    assert doc.max_depth() == max((depth for _, depth in expected), default=0)
    if not paths_and_text:
        return
    assert doc.serialize() == NEWLINE.join(INDENT * d + n.line for n, d in reference_walk_depth(doc.roots))
    # A node's path is its parent's path plus its index among the parent's
    # children, and in pre-order the parent's path is a prefix of the
    # previous node's path.
    previous: tuple = ()
    open_nodes: "list[TreeNode]" = []  # open_nodes[d]: the latest node at depth d
    for walked, reference in zip_longest(doc.walk(), reference_walk_depth(doc.roots)):
        assert walked is not None and reference is not None
        (path, node), (reference_node, depth) = walked, reference
        siblings = open_nodes[depth - 1].children if depth else doc.roots
        assert node is reference_node and len(path) == depth + 1
        assert path[:-1] == previous[:depth] and siblings[path[-1]] is node
        del open_nodes[depth:]
        open_nodes.append(node)
        previous = path


def test_walkers_match_the_reference_on_hand_built_trees():
    for seed in range(300):
        _assert_walkers_agree(_hand_built(random.Random(seed)))


def test_walkers_match_the_reference_on_flat_roots():
    _assert_walkers_agree(TreeDocument(TreeNode(f"root {i % 7}") for i in range(100_000)))


def test_walkers_match_the_reference_on_deep_chains():
    # The text of a k-level chain holds about k*k/2 indent spaces, and its
    # paths as many indices, so those two are checked at DEEP levels only.
    _assert_walkers_agree(chain(100_000, "leaf"), paths_and_text=False)
    _assert_walkers_agree(chain(DEEP, "leaf"))


def test_serialize_memory_is_linear_in_its_output():
    # Entering a level must not grow the per-depth head cache: 5,000 roots
    # with one child each enter depth 1 5,000 times.
    doc = TreeDocument(TreeNode(f"root {i}", [TreeNode(f"child {i}")]) for i in range(5000))
    tracemalloc.start()
    try:
        text = serialize(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count(NEWLINE) == 9999
    assert peak < 10 * len(text)


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


# ---------------------------------------------------------------------------
# the parser against the stack reference


def _shape(roots) -> "list[tuple[int, str]]":
    # (depth, line) pairs: unlike ==, which compares serializations, they
    # tell a node with surplus spaces from a deeper node.
    return [(depth, node.line) for node, depth in _walk_depth(roots)]


def _assert_parses_like_the_reference(text: str) -> None:
    expected = _shape(reference_parse_lines(text.split(NEWLINE))) if text else []
    assert _shape(parse(text).roots) == expected
    for workers in (1, 2, 3):
        assert _shape(parse_parallel(text, max_workers=workers).roots) == expected


def test_parse_matches_the_reference_on_hand_written_texts():
    for text in (
        "",
        "a\n   b\n  c\n      d\n e\n  f",  # surplus indentation at every step
        "   a\n b\n    c\nd\n  e",  # an indented first line
        "a\r\n \tb\n\n  \n\t c\n \r\n\n",  # CR, tabs and blank lines
        "\n\n \n  \n   ",
    ):
        _assert_parses_like_the_reference(text)


def test_parse_matches_the_reference_on_fuzz_strings():
    for seed in range(300):
        _assert_parses_like_the_reference(fuzz_string(random.Random(seed), max_len=2000))


def test_parse_matches_the_reference_on_random_depths():
    rng = random.Random(5)
    for _ in range(200):
        lines = (INDENT * rng.randrange(0, 7) + rng.choice(("a", "", "\t", "c d")) for _ in range(rng.randrange(1, 60)))
        _assert_parses_like_the_reference(NEWLINE.join(lines))


def test_parse_matches_the_reference_on_flat_roots():
    _assert_parses_like_the_reference(NEWLINE.join(f"root {i % 7}" for i in range(100_000)))


def test_parse_matches_the_reference_on_a_deep_chain():
    _assert_parses_like_the_reference(NEWLINE.join(INDENT * depth + "a" for depth in range(DEEP)))


# ---------------------------------------------------------------------------
# the cyclic collector around parse and clone


@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_builds_leave_the_collector_as_they_found_it(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    doc = parse("a\n b\n  c\nd")
    assert gc.isenabled() is enabled
    parse_parallel("a\n b\nc\nd", max_workers=2)
    assert gc.isenabled() is enabled
    doc.clone()
    doc.roots[0].clone()
    assert gc.isenabled() is enabled
    doc.roots[0].children[0].line = "assigned\ndirectly"
    with pytest.raises(InvalidLineError):
        doc.clone()
    assert gc.isenabled() is enabled


def _build_and_read() -> bool:
    parse("a\n b").clone()
    return gc.isenabled()


def test_collector_pauses_nest(collector_state):
    gc.enable()
    assert _gc_paused(_build_and_read) is False
    assert gc.isenabled()


def test_collector_is_enabled_after_threads_build_at_once(collector_state):
    # Small trees, so that most switches fall inside or between pauses.  A
    # pause that only saved and restored gc.isenabled() turns the collector
    # on while other threads' pauses are open, and leaves it off for good
    # when a thread reads it off during another thread's pause and disables
    # it after that pause has ended.
    gc.enable()
    failures = []

    def build():
        try:
            for _ in range(500):
                parse("a\n b").clone()
                if _gc_paused(_build_and_read):
                    failures.append("collector on inside a pause")
        except BaseException as exc:  # recorded and asserted on below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# errors: one rule renders every node path


_PAIR_GRAMMAR = "celltype any\n base any\nnodetype pair\n root\n catchAllCell any\n compile {1}"


@pytest.mark.parametrize(
    "raise_it, error_type, message, path",
    [
        (
            lambda: load_grammar("nodetype a\n bogus"),
            GrammarLoadError,
            "unknown nodetype directive 'bogus' (at path [0, 0])",
            (0, 0),
        ),
        (lambda: load_grammar(""), GrammarLoadError, "empty root type set: no nodetype is marked root", ()),
        (
            lambda: apply_patch(parse("frobnicate"), parse("one")),
            PatchFormatError,
            "unknown operation 'frobnicate' (at patch path [0])",
            (0,),
        ),
        (
            lambda: apply_patch(parse("keep 1\ndescend"), parse("one")),
            PatchMismatchError,
            "descend overruns the sibling list (at path [1])",
            (1,),
        ),
        (lambda: to_json_typed(parse("a\n frog")), DecodeError, "unknown tag 'frog' (at path [0, 0])", (0, 0)),
        (lambda: to_map(parse("a 1\na 2")), DecodeError, "duplicate key 'a' (at path [1])", (1,)),
        # A failing template's path is set after the error is built, and shows.
        (
            lambda: compile_doc(parse("pair a b\npair a"), load_grammar(_PAIR_GRAMMAR)),
            CompileError,
            "template placeholder {1} out of range for line 'pair a' (at path [1])",
            (1,),
        ),
        (
            lambda: compile_doc(parse("frog"), load_grammar(_PAIR_GRAMMAR)),
            CompileError,
            "document has 1 error(s); fix them before compiling",
            (),
        ),
        # The empty document's error points at no node, so it has no suffix.
        (lambda: to_json_typed(parse("")), DecodeError, "expected exactly one root node, got none", ()),
        (lambda: TreeNode("a\nb"), InvalidLineError, "line may not contain a newline: 'a\\nb'", ()),
        (lambda: parse("a").delete_node((5,)), PathNotFoundError, "no node (at path [5])", (5,)),
        (lambda: parse("a\n b").delete_node((0, 3)), PathNotFoundError, "no node (at path [0, 3])", (0, 3)),
        (lambda: parse("a").delete_node(()), PathNotFoundError, "empty path does not name a node", ()),
        (lambda: from_json_untyped([1]), ConversionError, "untyped projection takes a JSON object at top level", ()),
    ],
    ids=[
        "grammar-load", "grammar-load-no-node", "patch-format", "patch-mismatch", "decode", "decode-map",
        "compile-template", "compile-refused", "decode-empty-document", "invalid-line", "path-not-found",
        "path-not-found-nested", "path-empty", "conversion",
    ],
)
def test_every_error_ends_its_message_with_its_path(raise_it, error_type, message, path):
    with pytest.raises(error_type) as info:
        raise_it()
    assert isinstance(info.value, TreeError)
    assert (str(info.value), info.value.path) == (message, path)
    # A process pool pickles the error a worker raises, path and all.
    for twin in (pickle.loads(pickle.dumps(info.value)), copy.deepcopy(info.value)):
        assert type(twin) is error_type
        assert (str(twin), twin.path) == (message, path)
        for field in ("error", "errors"):
            assert getattr(twin, field, None) == getattr(info.value, field, None)


def test_tree_error_renders_its_path_when_shown():
    error = TreeError("no luck")
    assert (str(error), error.path, str(TreeError())) == ("no luck", (), "")
    error.path = (2, 0)
    assert str(error) == "no luck (at path [2, 0])"
    assert str(PatchFormatError("bad op", (3,))) == "bad op (at patch path [3])"


def test_every_tree_error_is_built_from_a_message_and_a_path():
    kinds = [getattr(treetext, name) for name in treetext.__all__ if name.endswith("Error") and name != "TlError"]
    assert len(kinds) == 9 and all(issubclass(kind, TreeError) for kind in kinds)
    for kind in kinds:
        error = kind("bad", (1, 0))
        where = "patch path" if kind is PatchFormatError else "path"
        assert (str(error), error.path, error.args) == (f"bad (at {where} [1, 0])", (1, 0), ("bad",))
    # No subclass builds itself another way: the decoders attach a DecodeError's
    # TlError, and compile_doc a CompileError's check errors, after building it.
    assert all(kind is TreeError or "__init__" not in vars(kind) for kind in kinds)
    # A DecodeError built by hand locates no TlError, and a CompileError holds no check errors.
    assert DecodeError("bad").error is None
    assert CompileError("bad").errors == ()
