"""Diff and patch: soundness, minimality, determinism, PatchTL shape."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WEB_STATS_TN
from helpers import (
    DEEP,
    chain,
    mutate_document,
    patch_op_words,
    random_document,
    reference_diff,
    spine,
)
from treetext import (
    InvalidLineError,
    PatchFormatError,
    PatchMismatchError,
    TreeDocument,
    TreeNode,
    apply_patch,
    diff,
    parse,
    serialize,
)

dense_text = st.text(alphabet=st.sampled_from(list("ab \n")), max_size=60)


# ---------------------------------------------------------------------------
# golden cases


def test_identity_diff_is_single_keep():
    doc = parse(WEB_STATS_TN)
    patch = diff(doc, doc)
    assert serialize(patch) == "keep 2"
    assert apply_patch(patch, doc) == doc


def test_identity_diff_of_empty_documents():
    assert serialize(diff(parse(""), parse(""))) == "keep 0"


def test_mozilla_update_patch_shape():
    a = parse("visitors\n mozilla 802")
    b = parse("visitors\n mozilla 900")
    patch = diff(a, b)
    assert serialize(patch) == "descend\n delete 1\n insert\n  mozilla 900"
    assert apply_patch(patch, a) == b


def test_keep_runs_coalesce():
    a = parse("a\nb\nc\nd")
    b = parse("a\nb\nc\nx")
    assert serialize(diff(a, b)) == "keep 3\ndelete 1\ninsert\n x"


def test_delete_comes_before_insert():
    patch = diff(parse("old"), parse("new"))
    assert serialize(patch) == "delete 1\ninsert\n new"


def test_consecutive_inserts_share_one_insert_op():
    patch = diff(parse("a"), parse("a\nx\ny\n z"))
    assert serialize(patch) == "keep 1\ninsert\n x\n y\n  z"


def test_patches_and_results_share_no_nodes_with_their_inputs():
    a, b = parse("keep\nold\n kid"), parse("keep\nnew\n kid\n  deeper\nalso")
    patch = diff(a, b)
    result = apply_patch(patch, a)
    assert result == b

    def ids(doc):
        return {id(node) for _, node in doc.walk()}

    assert ids(patch).isdisjoint(ids(a) | ids(b))
    assert ids(result).isdisjoint(ids(a) | ids(patch))


def test_random_results_share_no_node_with_their_inputs():
    def nodes(doc):
        return [node for _, node in doc.walk()]

    def ids(*docs):
        return {id(node) for doc in docs for node in nodes(doc)}

    def edit(doc):
        for node in nodes(doc):
            node.line += "!"
            node.children.append(TreeNode("new"))

    rng = random.Random(43)
    for i in range(300):
        a = random_document(rng)
        b = mutate_document(rng, a) if i % 2 else random_document(rng)
        patch = diff(a, b)
        result = apply_patch(patch, a)
        assert ids(patch).isdisjoint(ids(a, b))
        assert ids(result).isdisjoint(ids(a, b, patch))
        texts = [serialize(a), serialize(b), serialize(patch)]
        edit(result)
        assert [serialize(a), serialize(b), serialize(patch)] == texts
        edit(patch)
        assert [serialize(a), serialize(b)] == texts[:2]


def test_apply_patch_checks_the_whole_patch_before_it_copies():
    # A line set directly to text with a newline fails at the one copy,
    # after the patch has been checked against the document.
    doc = parse("one\ntwo")
    doc.roots[0].line = "o\nne"
    with pytest.raises(PatchMismatchError):
        apply_patch(parse("keep 1\nkeep 5"), doc)
    with pytest.raises(InvalidLineError):
        apply_patch(parse("keep 2"), doc)


def test_earliest_match_tie_break():
    # "a" appears twice in the source; the first occurrence is kept.
    a = parse("a\nx\na")
    b = parse("a")
    assert serialize(diff(a, b)) == "keep 1\ndelete 2"


def test_descend_only_on_changed_subtrees():
    a = parse("top\n same\nother\n was")
    b = parse("top\n same\nother\n now")
    patch = diff(a, b)
    assert serialize(patch) == "keep 1\ndescend\n delete 1\n insert\n  now"


def test_inserted_subtrees_come_whole():
    patch = diff(parse(""), parse("root\n child\n  grand"))
    assert serialize(patch) == "insert\n root\n  child\n   grand"
    assert apply_patch(patch, parse("")) == parse("root\n child\n  grand")


def test_patch_round_trips_as_a_document():
    a, b = parse("x\n y\nz"), parse("x\n q\nw\nz")
    patch = diff(a, b)
    reparsed = parse(serialize(patch))
    assert serialize(reparsed) == serialize(patch)
    assert apply_patch(reparsed, a) == b


def test_blank_line_nodes_diff_cleanly():
    a = parse("a\n\nb")
    b = parse("a\nb")
    patch = diff(a, b)
    assert apply_patch(patch, a) == b


# ---------------------------------------------------------------------------
# apply errors


def test_apply_count_overrun():
    with pytest.raises(PatchMismatchError) as info:
        apply_patch(parse("delete 5"), parse("onenode"))
    assert info.value.path == (0,)
    with pytest.raises(PatchMismatchError):
        apply_patch(parse("keep 2"), parse("a"))


def test_apply_underrun():
    with pytest.raises(PatchMismatchError) as info:
        apply_patch(parse("keep 1"), parse("a\nb"))
    assert info.value.path == (1,)
    with pytest.raises(PatchMismatchError):
        apply_patch(parse("keep 0"), parse("a"))


def test_apply_descend_errors():
    with pytest.raises(PatchMismatchError):
        apply_patch(parse("descend"), parse(""))
    # nested mismatch reports the path into the source document,
    # pointing at the position where the failing count began
    with pytest.raises(PatchMismatchError) as info:
        apply_patch(parse("descend\n keep 2"), parse("a\n b"))
    assert info.value.path == (0, 0)


def test_malformed_patches():
    for text in [
        "hold 1",
        "keep",
        "keep x",
        "keep -1",
        "keep ²",
        "keep ١",
        "keep " + "9" * 5000,
        "keep 1 2",
        "insert stuff",
        "descend stuff\n keep 0",
        "keep 1\n child",
    ]:
        with pytest.raises(PatchFormatError):
            apply_patch(parse(text), parse("a"))


def test_inserted_lines_are_data_not_operations():
    # An inserted subtree may spell operation words without being one.
    b = parse("keep 5\ndelete 9")
    patch = diff(parse(""), b)
    assert apply_patch(patch, parse("")) == b
    assert patch_op_words(patch) == ["insert"]


# ---------------------------------------------------------------------------
# properties


@given(dense_text, dense_text)
@settings(max_examples=300)
def test_apply_diff_reconstructs_target(ta, tb):
    a, b = parse(ta), parse(tb)
    assert serialize(apply_patch(diff(a, b), a)) == tb


@given(dense_text, dense_text)
@settings(max_examples=300)
def test_minimality_iff_equal(ta, tb):
    ops = patch_op_words(diff(parse(ta), parse(tb)))
    has_edits = any(w in ("insert", "delete") for w in ops)
    assert has_edits == (ta != tb)


@given(dense_text)
@settings(max_examples=100)
def test_self_diff_is_one_keep(text):
    doc = parse(text)
    assert serialize(diff(doc, doc)) == f"keep {len(doc.roots)}"


def test_random_structured_pairs():
    rng = random.Random(33)
    for i in range(300):
        a = random_document(rng)
        b = mutate_document(rng, a) if i % 2 else random_document(rng)
        patch = diff(a, b)
        assert apply_patch(patch, a) == b
        # a patch never mutates its input
        assert serialize(a) == serialize(parse(serialize(a)))


# A few lines, indented and blank ones among them, so that sibling lists
# repeat lines often and the traceback meets many ties.
_DENSE_LINES = ("a", "b", "a b", " a", "  b", "", " ")


def test_diff_matches_the_dense_table_reference():
    rng = random.Random(41)

    def dense_document():
        return parse("\n".join(rng.choice(_DENSE_LINES) for _ in range(rng.randrange(0, 24))))

    for _ in range(5000):
        a, b = dense_document(), dense_document()
        assert serialize(diff(a, b)) == serialize(reference_diff(a, b))
    for i in range(1000):
        a = random_document(rng)
        b = mutate_document(rng, a) if i % 2 else random_document(rng)
        assert serialize(diff(a, b)) == serialize(reference_diff(a, b))


# ---------------------------------------------------------------------------
# depth


def test_diff_takes_any_depth():
    a, b = chain(DEEP, "z"), chain(DEEP, "n 1")
    patch = diff(a, b)
    assert len(patch.roots) == 1
    ops = spine(patch.roots[0])
    assert [op.line for op in ops] == ["descend"] * DEEP + ["delete 1"]
    assert serialize(TreeDocument(ops[-2].children)) == "delete 1\ninsert\n n 1"
    assert apply_patch(patch, a) == b
    assert serialize(diff(a, a)) == "keep 1"


def test_apply_patch_takes_any_depth():
    ops = [TreeNode("delete 1"), TreeNode("insert", [TreeNode("n 1")])]
    for _ in range(DEEP):
        ops = [TreeNode("descend", ops)]
    patch = TreeDocument(ops)
    assert apply_patch(patch, chain(DEEP, "z")) == chain(DEEP, "n 1")
    # One level short: the deepest delete finds no sibling to drop.
    with pytest.raises(PatchMismatchError) as info:
        apply_patch(patch, chain(DEEP - 1, "z"))
    assert info.value.path == (0,) * (DEEP + 1)
