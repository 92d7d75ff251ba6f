"""Grammar engine: loading, checking, suggestions, autofix, compiling."""

import copy
import json
import pickle
import random
import re
import weakref

import pytest

from conftest import POINT_JSONTL, POINT_VALUE, CITIES_MAPTL
from helpers import (
    DEEP,
    chain,
    mutate_document,
    mutate_grammar_text,
    random_document,
    random_json,
    reference_check,
    reference_compile_doc,
    reference_contexts,
    reference_load_grammar,
    spine,
)
from treetext import (
    CompileError,
    DecodeError,
    GrammarLoadError,
    TreeDocument,
    TreeNode,
    autofix,
    check,
    check_parallel,
    compile_doc,
    from_json_typed,
    load_builtin_grammar,
    load_grammar,
    parse,
    parse_parallel,
    serialize,
    to_json_typed,
    to_map,
)
from treetext import grammar as grammar_module
from treetext.grammar import (
    CellTypeDef,
    Grammar,
    NodeTypeDef,
    TlError,
    builtin_grammar_text,
    levenshtein,
    suggest,
)


@pytest.fixture(scope="module")
def jsontl():
    return load_builtin_grammar("jsontl")


@pytest.fixture(scope="module")
def maptl():
    return load_builtin_grammar("maptl")


# ---------------------------------------------------------------------------
# loading


def test_jsontl_fixture_loads(jsontl):
    assert jsontl.name == "jsontl"
    assert len(jsontl.node_types) == 12
    assert len(jsontl.cell_types) == 4
    assert sorted({nt.match for nt in jsontl.node_types.values()}) == list("abnosz")
    assert [n for n, nt in jsontl.node_types.items() if nt.is_root] == ["obj", "arr", "str", "num", "bool", "null"]
    assert not any(nt.is_root_catch_all for nt in jsontl.node_types.values())


def test_maptl_fixture_loads(maptl):
    assert maptl.name == "maptl"
    assert len(maptl.node_types) == 1
    assert maptl.node_types["entry"].is_root and maptl.node_types["entry"].is_root_catch_all


def test_match_defaults_to_nodetype_name():
    grammar = load_grammar("nodetype greet\n root")
    assert grammar.node_types["greet"].match == "greet"


def test_blank_separator_lines_are_tolerated():
    grammar = load_grammar("grammar g\n\nnodetype a\n root\n")
    assert grammar.name == "g" and "a" in grammar.node_types


def test_load_error_cases():
    cases = [
        "",  # no root types at all
        "nodetype a\n cells word",  # nothing marked root
        "frobnicate",  # unknown top-level directive
        "nodetype a\n root\n mystery x",  # unknown nodetype directive
        "celltype c\n shape round\nnodetype a\n root",  # unknown celltype directive
        "nodetype a\n root\n cells missing",  # dangling celltype reference
        "nodetype a\n root\n children ghost",  # dangling nodetype reference
        "nodetype a\n root\nnodetype a\n root",  # duplicate nodetype
        "celltype c\ncelltype c\nnodetype a\n root",  # duplicate celltype
        "grammar a\ngrammar b\nnodetype a\n root",  # duplicate grammar name
        "nodetype a b\n root",  # name is not one word
        "nodetype a\n root sometimes",  # bad root argument
        "nodetype a\n root\n match",  # match needs a value
        "celltype c\n base rope\nnodetype a\n root",  # unknown base
        "celltype c\n regex [\nnodetype a\n root",  # regex fails to compile
        "nodetype a\n root catchall\nnodetype b\n root catchall",  # two catch-alls
        "nodetype a\n root\n  nested",  # directive with children
        "grammar g\n child\nnodetype a\n root",  # grammar takes no children
        "celltype c\n enum\nnodetype a\n root",  # enum needs values
        "nodetype a\n root\n\n cells ghost",  # a directive indented under a blank line
        "nodetype a\n root\n\n nodetype b\n  root",  # a whole block indented under a blank line
    ]
    for text in cases:
        with pytest.raises(GrammarLoadError):
            load_grammar(text)


def test_load_errors_carry_paths():
    with pytest.raises(GrammarLoadError) as info:
        load_grammar("nodetype a\n root\n mystery x")
    assert info.value.path == (0, 1)
    with pytest.raises(GrammarLoadError) as info:
        load_grammar("nodetype a\n root\n\n cells ghost")
    assert info.value.path == (1,)


_SEED_GRAMMAR = """grammar g
celltype c
 base int
 enum 1 2
nodetype a
 root
 cells c
 children b
nodetype b
 catchAllCell c
 compile {0}"""


def _load_outcome(load, text):
    try:
        return load(text)
    except GrammarLoadError as exc:
        return exc.path, str(exc)


def test_load_grammar_matches_the_reference():
    texts = [
        "nodetype a\n root catchall\n root",  # a plain root keeps the catch-all
        "nodetype a\n root\n root catchall",
        "nodetype a\n root catchall\n root sometimes",
        "nodetype a\n root\n compile x\n compile",  # the last value wins, even an empty one
        "nodetype a\n root\n cells c\n cells ghost\ncelltype c",  # every repeated line's references count
        "celltype c\n enum x\n base int\n enum y z\nnodetype a\n root\n cells c",
    ]
    rng = random.Random(909)
    bases = [builtin_grammar_text("jsontl"), builtin_grammar_text("maptl"), _SEED_GRAMMAR]
    texts += [mutate_grammar_text(rng, bases[k % len(bases)]) for k in range(6000)]
    loaded = blank_roots = 0
    for text in texts:
        expected = _load_outcome(reference_load_grammar, text)
        blanks = [i for i, block in enumerate(parse(text).roots) if block.line == "" and block.children]
        if not blanks:
            assert _load_outcome(load_grammar, text) == expected, text
            loaded += isinstance(expected, Grammar)
            continue
        # The reference skips a blank line and drops the lines under it.
        blank_roots += 1
        with pytest.raises(GrammarLoadError) as info:
            load_grammar(text)
        if isinstance(expected, Grammar):  # then the blank line is the first error
            assert info.value.path == (blanks[0],), text
    assert loaded > 300 and blank_roots > 300


def test_unknown_builtin_grammar():
    with pytest.raises(GrammarLoadError):
        load_builtin_grammar("nope")


# ---------------------------------------------------------------------------
# checking


def test_sample_listings_check_clean(jsontl, maptl):
    assert check(parse(POINT_JSONTL), jsontl) == []
    assert check(parse(CITIES_MAPTL), maptl) == []


def test_empty_document_checks_clean(jsontl):
    assert check(parse(""), jsontl) == []


def test_nested_jsontl_checks_clean(jsontl):
    text = (
        "o\n s name probe\n o position\n  n x 1.5\n  n y -2\n"
        " a tags\n  s alpha\n  b true\n  z\n b active true\n z notes"
    )
    assert check(parse(text), jsontl) == []


def test_unknown_tag_suggestion_tie_break(jsontl):
    # distance from "x" to every one-letter tag is 1; ties go alphabetically
    errors = check(parse("o\n x dsl yrt"), jsontl)
    assert len(errors) == 1
    error = errors[0]
    assert error.kind == "unknownNodeType"
    assert error.path == (0, 0)
    assert error.suggestion == "a"


def test_no_suggestion_beyond_distance_two(jsontl):
    errors = check(parse("wombat"), jsontl)
    assert errors[0].kind == "unknownNodeType"
    assert errors[0].suggestion is None


def test_error_in_one_subtree_does_not_mask_siblings(jsontl):
    errors = check(parse("o\n qqq one\n qqq two\nxxx"), jsontl)
    assert [e.path for e in errors] == [(0, 0), (0, 1), (1,)]
    assert all(e.kind == "unknownNodeType" for e in errors)


def test_children_of_unresolved_nodes_are_not_checked(jsontl):
    errors = check(parse("qqq\n anything at all\n  even deeper"), jsontl)
    assert len(errors) == 1 and errors[0].path == (0,)


def test_illegal_child_when_no_children_allowed(jsontl):
    errors = check(parse("z\n stray"), jsontl)
    assert [e.kind for e in errors] == ["illegalChild"]
    assert errors[0].path == (0, 0)


def test_illegal_child_known_elsewhere():
    grammar = load_grammar(
        "nodetype alpha\n root\n children beta\nnodetype beta\n cells any\n"
        "celltype any\n base any"
    )
    errors = check(parse("beta x"), grammar)
    assert [e.kind for e in errors] == ["illegalChild"]
    errors = check(parse("alpha\n alpha"), grammar)
    assert [e.kind for e in errors] == ["illegalChild"]


def test_arity_mismatch(jsontl):
    errors = check(parse("o\n n onlykey"), jsontl)
    assert [e.kind for e in errors] == ["arityMismatch"]
    errors = check(parse("z extra words"), jsontl)
    assert [e.kind for e in errors] == ["arityMismatch"]


def test_cell_type_mismatches(jsontl):
    errors = check(parse("o\n n k notanumber"), jsontl)
    assert [e.kind for e in errors] == ["cellTypeMismatch"]
    errors = check(parse("b perhaps"), jsontl)
    assert [e.kind for e in errors] == ["cellTypeMismatch"]
    # leading-zero and bare-dot forms are not JSON numbers
    for bad in ["01", "+1", ".5", "1."]:
        assert check(parse(f"n {bad}"), jsontl), bad


def test_cell_bases():
    grammar = load_grammar(
        "celltype count\n base int\ncelltype ratio\n base float\n"
        "celltype flag\n base bool\ncelltype name\n base word\n"
        "nodetype row\n root\n cells count ratio flag name"
    )
    assert check(parse("row -3 2.5e1 true ok"), grammar) == []
    assert check(parse("row +3 .5 false ok"), grammar) == []
    errors = check(parse("row x 2.5 true ok"), grammar)
    assert [e.kind for e in errors] == ["cellTypeMismatch"]
    assert len(check(parse("row 1 nope maybe "), grammar)) == 3


def test_enum_suggestion_is_reported_not_applied():
    grammar = load_grammar(
        "celltype color\n enum red green blue\nnodetype paint\n root\n cells color"
    )
    doc = parse("paint rde")
    errors = check(doc, grammar)
    assert errors[0].kind == "cellTypeMismatch"
    assert errors[0].suggestion == "red"
    fixed = autofix(doc, grammar)
    assert serialize(fixed) == "paint rde"  # cell suggestions are advisory


def test_autofix_suggests_nothing_for_cell_mismatches(monkeypatch):
    # autofix discards every cell error, so it builds none: the enum
    # suggestions that check reports are never computed.
    grammar = load_grammar(
        "celltype color\n enum red green blue\nnodetype paint\n root\n cells color"
    )
    doc = parse("paint rde\npaint bleu\npaint red")
    assert [e.kind for e in check(doc, grammar)] == ["cellTypeMismatch"] * 2
    calls = []
    monkeypatch.setattr(grammar_module, "suggest", lambda *args: calls.append(args))
    assert serialize(autofix(doc, grammar)) == serialize(doc)
    assert calls == []


def test_regex_celltype():
    grammar = load_grammar(
        "celltype hexish\n regex [0-9a-f]+\nnodetype color\n root\n cells hexish"
    )
    assert check(parse("color ff00aa"), grammar) == []
    assert check(parse("color GG"), grammar)[0].kind == "cellTypeMismatch"


def test_error_paths_resolve(jsontl):
    doc = parse("o\n qq a\n n k bad\nz trailing\nwww")
    for error in check(doc, jsontl):
        assert doc.get_node(error.path) is not None


def test_check_never_reports_duplicate_roots(maptl):
    # duplicate keys are a dialect concern; subtree independence wins here
    assert check(parse("dsl one\ndsl two"), maptl) == []


def test_independence_of_concatenated_documents(jsontl):
    rng = random.Random(77)
    texts = ["o\n s k v", "qqq\nz", "n 5", POINT_JSONTL, "b wrong", "z\n kid"]
    for _ in range(40):
        t1, t2 = rng.choice(texts), rng.choice(texts)
        d1, d2 = parse(t1), parse(t2)
        combined = parse(t1 + "\n" + t2)
        offset = len(d1.roots)
        expected = check(d1, jsontl) + [
            e.__class__((e.path[0] + offset,) + e.path[1:], e.kind, e.message, e.suggestion)
            for e in check(d2, jsontl)
        ]
        assert check(combined, jsontl) == expected


def test_parallel_check_matches_sequential(jsontl, maptl):
    rng = random.Random(11)
    docs = [TreeDocument()] + [random_document(rng) for _ in range(20)]
    for doc in docs:
        for grammar in (jsontl, maptl):
            expected = check(doc, grammar)
            for workers in (1, 2, 3, 4, 7):
                assert check_parallel(doc, grammar, max_workers=workers) == expected


def test_check_takes_any_depth(jsontl):
    assert check(chain(DEEP, "z"), jsontl) == []
    assert check_parallel(chain(DEEP, "z"), jsontl, max_workers=2) == []
    for errors in (check(chain(DEEP, "zz"), jsontl), check_parallel(chain(DEEP, "zz"), jsontl, max_workers=2)):
        assert [(e.path, e.kind, e.suggestion) for e in errors] == [((0,) * (DEEP + 1), "unknownNodeType", "z")]


def test_parallel_calls_reject_nonpositive_workers(maptl):
    for workers in (0, -1):
        for text in ("a 1\nb 2", ""):
            with pytest.raises(ValueError):
                parse_parallel(text, max_workers=workers)
            with pytest.raises(ValueError):
                check_parallel(parse(text), maptl, max_workers=workers)
        with pytest.raises(ValueError):
            check_parallel(TreeDocument(), maptl, max_workers=workers)


# ---------------------------------------------------------------------------
# autofix


def test_autofix_restores_corrupted_tag(jsontl):
    doc = parse("o\n sx dsl yrt\n n ma 902")
    fixed = autofix(doc, jsontl)
    assert serialize(fixed) == POINT_JSONTL
    assert check(fixed, jsontl) == []
    assert serialize(doc) == "o\n sx dsl yrt\n n ma 902"  # input untouched


def test_autofix_is_idempotent(jsontl):
    doc = parse("o\n sx dsl yrt\n bq flag ture")
    once = autofix(doc, jsontl)
    assert autofix(once, jsontl) == once


def test_autofix_leaves_valid_documents_byte_identical(jsontl):
    doc = parse(POINT_JSONTL)
    assert serialize(autofix(doc, jsontl)) == POINT_JSONTL


def test_autofix_leaves_unfixable_tags(jsontl):
    doc = parse("wombat stays")
    fixed = autofix(doc, jsontl)
    assert serialize(fixed) == "wombat stays"
    assert check(fixed, jsontl)[0].kind == "unknownNodeType"


def test_autofix_cascades_into_newly_checkable_children(jsontl):
    # fixing the root reveals the child's misspelling on the next round
    doc = parse("ox\n sx k v")
    assert len(check(doc, jsontl)) == 1
    fixed = autofix(doc, jsontl)
    assert serialize(fixed) == "o\n s k v"
    assert check(fixed, jsontl) == []


def test_autofix_takes_any_depth(jsontl):
    doc = chain(DEEP, "sx hi")
    fixed = autofix(doc, jsontl)
    assert [n.line for n in spine(fixed.roots[0])] == ["a"] * DEEP + ["s hi"]
    assert spine(doc.roots[0])[-1].line == "sx hi"


def test_autofix_cascades_down_any_depth(jsontl):
    fixed = autofix(chain(DEEP, "sx hi", inner="ax"), jsontl)
    assert [n.line for n in spine(fixed.roots[0])] == ["a"] * DEEP + ["s hi"]


# A shared match word (item and other), a type legal only below box
# (leaf), a childless type (stop) and a catchAllChild (note), also
# beside named child types (box).
_FIX_GRAMMAR = (
    "celltype any\n base any\n"
    "nodetype top\n root\n catchAllCell any\n children item other top\n"
    "nodetype item\n match it\n catchAllCell any\n catchAllChild note\n"
    "nodetype other\n match it\n"
    "nodetype note\n catchAllCell any\n"
    "nodetype stop\n root\n"
    "nodetype box\n root\n children leaf box\n catchAllChild note\n"
    "nodetype leaf\n catchAllCell any"
)


def _autofix_reference(doc, grammar):
    # The fixed point of applying every unknownNodeType suggestion.
    fixed = doc.clone()
    while True:
        errors = [e for e in check(fixed, grammar) if e.kind == "unknownNodeType" and e.suggestion is not None]
        if not errors:
            return fixed
        for error in errors:
            node = fixed.get_node(error.path)
            node.set_line(error.suggestion + node.line[len(node.first_word):])


def _near_misses(words):
    misses = set()
    for word in words:
        misses.update({word + "x", "q" + word, word[1:], word[:-1] + "z", word + word})
    return sorted(misses - set(words))


def _random_tree(rng, words, max_depth=5, tails=("", " v", " 1 2", "  x")):
    doc = TreeDocument()
    stack = [(doc.roots, 0)]
    while stack:
        siblings, depth = stack.pop()
        for _ in range(rng.randrange(0, 4)):
            node = TreeNode(rng.choice(words) + rng.choice(tails))
            siblings.append(node)
            if depth < max_depth and rng.random() < 0.45:
                stack.append((node.children, depth + 1))
    return doc


def test_autofix_matches_the_fixed_point_of_check(jsontl, maptl):
    rng = random.Random(404)
    for grammar in (jsontl, maptl, load_grammar(_FIX_GRAMMAR)):
        match_words = sorted({nt.match for nt in grammar.node_types.values()})
        words = match_words + _near_misses(match_words) + ["wombat"]
        changed = 0
        for _ in range(300):
            doc = _random_tree(rng, words)
            fixed = autofix(doc, grammar)
            assert fixed == _autofix_reference(doc, grammar), serialize(doc)
            changed += fixed != doc
        assert changed > 0 or grammar is maptl  # maptl resolves every first word


# Every cell base, an enum (alone and over a base) and a regex.
_CELLS_GRAMMAR = (
    "celltype w\n base word\ncelltype i\n base int\ncelltype f\n base float\n"
    "celltype b\n base bool\ncelltype a\n base any\ncelltype color\n enum red green blue\n"
    "celltype size\n base float\n enum 1 2.5 1e3\ncelltype hex\n regex [0-9a-f]+\n"
    "nodetype row\n root\n cells i f b w\n catchAllCell a\n children paint hexes row\n"
    "nodetype paint\n cells color size\n catchAllChild row\n"
    "nodetype hexes\n root\n catchAllCell hex\n"
    "nodetype flag\n root\n cells b\n catchAllCell color"
)
_CELL_TAILS = (
    "", " 1", " -3 2.5 true x", " +7 .5e2 false  ", " 1 2 3", " red 2.5", " rde 1e3",
    " blu 2", " ff 0a", " x GG", " true red grean", " 1e3 1. maybe y more words", " 01 - tru ",
)


def test_check_matches_the_reference(jsontl, maptl):
    rng = random.Random(808)
    cases = [(g, ("", " v", " 1 2", "  x")) for g in (jsontl, maptl, load_grammar(_FIX_GRAMMAR))]
    cases.append((load_grammar(_CELLS_GRAMMAR), _CELL_TAILS))
    for grammar, tails in cases:
        match_words = sorted({nt.match for nt in grammar.node_types.values()})
        words = match_words + _near_misses(match_words) + ["wombat"]
        kinds = set()
        for _ in range(300):
            doc = _random_tree(rng, words, tails=tails)
            expected = reference_check(doc, grammar)
            assert check(doc, grammar) == expected, serialize(doc)
            for workers in (1, 2, 3):
                assert check_parallel(doc, grammar, max_workers=workers) == expected, serialize(doc)
            kinds.update(e.kind for e in expected)
        assert kinds >= {"unknownNodeType", "illegalChild"} or grammar is maptl


# JSON string characters the jsontext cell takes: no quote, backslash or
# control character, so no line break either.
_JSONTEXT = "ab Zé🌲{}[],:\x7f\u2028"


def _jsontext(rng):
    return "".join(rng.choice(_JSONTEXT) for _ in range(rng.randrange(0, 10)))


def test_jsontl_grammar_agrees_with_the_codec(jsontl):
    rng = random.Random(8)
    for _ in range(400):
        value = random_json(rng, depth=rng.randrange(0, 6), text=_jsontext)
        doc = from_json_typed(value)
        assert check(doc, jsontl) == []
        assert json.loads(compile_doc(doc, jsontl)) == to_json_typed(doc) == value
        text = serialize(doc)
        nodes = [node for _, node in doc.walk()]
        for node in rng.sample(nodes, rng.randint(1, min(3, len(nodes)))):
            tag = node.first_word  # a one-letter tag: the misspelling is one edit from it alone
            node.set_line(tag + rng.choice("qwy") + node.line[len(tag):])
        assert serialize(autofix(doc, jsontl)) == text
    # The empty key, which the seeded draws never make: `o\n n  1` and kin.
    for value in ({"": 1}, {"": ""}, {"": {"": None}}):
        doc = from_json_typed(value)
        assert check(doc, jsontl) == []
        assert json.loads(compile_doc(doc, jsontl)) == to_json_typed(doc) == value


def test_jsontl_grammar_suggests_booleans_like_the_decoder(jsontl):
    for text, suggestion in (("b ture", "true"), ("o\n b k flase", "false"), ("b maybe", None)):
        errors = check(parse(text), jsontl)
        assert [(e.kind, e.suggestion) for e in errors] == [("cellTypeMismatch", suggestion)], text
        with pytest.raises(DecodeError) as info:
            to_json_typed(parse(text))
        assert info.value.error.suggestion == suggestion, text


# ---------------------------------------------------------------------------
# compiling


def test_compile_point_listing_to_json(jsontl):
    out = compile_doc(parse(POINT_JSONTL), jsontl)
    assert json.loads(out) == POINT_VALUE


def test_compile_nested_values(jsontl):
    value = {
        "name": "probe one",
        "position": {"x": 1.5, "y": -2},
        "tags": ["alpha", "beta"],
        "active": True,
        "notes": None,
        "empty": {},
        "none": [],
    }
    doc = from_json_typed(value)
    assert check(doc, jsontl) == []
    assert json.loads(compile_doc(doc, jsontl)) == value


def test_compile_scalar_roots(jsontl):
    assert json.loads(compile_doc(parse("n 2.5"), jsontl)) == 2.5
    assert json.loads(compile_doc(parse("b false"), jsontl)) is False
    assert json.loads(compile_doc(parse("z"), jsontl)) is None
    assert json.loads(compile_doc(parse("s two words"), jsontl)) == "two words"
    assert json.loads(compile_doc(parse("s"), jsontl)) == ""


def test_compile_empty_document(jsontl):
    assert compile_doc(parse(""), jsontl) == ""


def test_compile_maptl_matches_to_map(maptl):
    doc = parse(CITIES_MAPTL)
    lines = compile_doc(doc, maptl).split("\n")
    entries = [f'"{k}": "{v}"' for k, v in to_map(doc).items()]
    assert lines == entries


def test_compile_refuses_documents_with_errors(jsontl):
    doc = parse("o\n qqq k")
    with pytest.raises(CompileError) as info:
        compile_doc(doc, jsontl)
    assert len(info.value.errors) == 1
    assert info.value.errors[0].kind == "unknownNodeType"


def test_compile_placeholder_out_of_range():
    grammar = load_grammar(
        "celltype any\n base any\nnodetype pair\n root\n catchAllCell any\n compile {2}"
    )
    with pytest.raises(CompileError) as info:
        compile_doc(parse("pair only"), grammar)
    assert info.value.path == (0,)
    assert compile_doc(parse("pair a b c"), grammar) == "c"
    # An index past the interpreter's int-to-string digit limit is past the last word.
    huge = "9" * 5000
    grammar = load_grammar(
        "celltype any\n base any\n"
        f"nodetype far\n root\n catchAllCell any\n compile [{{{huge}+}}]\n"
        f"nodetype near\n root\n catchAllCell any\n compile {{{huge}}}"
    )
    assert compile_doc(parse("far a b c"), grammar) == "[]"
    with pytest.raises(CompileError) as info:
        compile_doc(parse("far a\nnear a b c"), grammar)
    assert info.value.path == (1,)


def test_compile_renders_children_before_their_parent():
    grammar = load_grammar(
        "celltype any\n base any\nnodetype pair\n root\n catchAllCell any\n catchAllChild pair\n compile {2}"
    )
    with pytest.raises(CompileError) as info:
        compile_doc(parse("pair only\n pair x"), grammar)
    assert info.value.path == (0, 0)
    assert "'pair x'" in str(info.value)


def test_compile_takes_any_depth(jsontl):
    assert compile_doc(chain(DEEP, "a"), jsontl) == "[" * (DEEP + 1) + "]" * (DEEP + 1)


def test_compile_error_path_at_any_depth():
    grammar = load_grammar(
        "celltype any\n base any\nnodetype pair\n root\n catchAllCell any\n catchAllChild pair\n compile {2}"
    )
    # Only the leaf lacks a third value.  Each level puts the spine node
    # after level % 3 complete siblings, so the path is not all zeros.
    node, path = TreeNode("pair only"), []
    for level in range(DEEP):
        node = TreeNode("pair a b c", [TreeNode("pair d e f") for _ in range(level % 3)] + [node])
        path.append(level % 3)
    path.append(1)
    with pytest.raises(CompileError) as info:
        compile_doc(TreeDocument([TreeNode("pair x y z"), node]), grammar)
    assert info.value.path == tuple(reversed(path))
    assert "'pair only'" in str(info.value)


# Templates whose {N} placeholders run out of range on short lines; the
# first grammar's group has no template, so it joins its children's output.
_TEMPLATE_GRAMMARS = (
    "celltype any\n base any\n"
    "nodetype doc\n root\n catchAllCell any\n children item pair group\n compile <{w} {0+}>{c|,}\n"
    "nodetype group\n match group\n catchAllCell any\n children item pair group\n"
    "nodetype item\n match item\n catchAllCell any\n children item pair\n compile [{0}:{c}]\n"
    "nodetype pair\n match pair\n catchAllCell any\n catchAllChild item\n compile {1}={c|;}",
    "celltype any\n base any\n"
    "nodetype pair\n root catchall\n catchAllCell any\n catchAllChild pair\n compile ({w} {2} {c|, })",
)


def _match_word_tree(rng, grammar, max_depth=6):
    # Mostly match words legal where they stand, each with 0-3 words after it.
    contexts = reference_contexts(grammar)
    everywhere = sorted({nt.match for nt in grammar.node_types.values()})
    doc = TreeDocument()
    stack = [(doc.roots, None, 0)]
    while stack:
        siblings, parent, depth = stack.pop()
        table, catch_all = contexts[parent]
        legal = sorted(table) + ([] if catch_all is None else [grammar.node_types[catch_all].match])
        for _ in range(rng.randrange(0 if depth == 0 else 1, 4)):
            first = rng.choice(everywhere if rng.random() < 0.03 else legal)
            node = TreeNode(" ".join([first] + rng.choices("xyz", k=rng.randrange(0, 4))))
            siblings.append(node)
            key = table.get(first, catch_all)
            takes_children = key is not None and contexts[key] != ({}, None)
            if takes_children and depth < max_depth and rng.random() < 0.6:
                stack.append((node.children, key, depth + 1))
    return doc


def _compiled(compile, doc, grammar):
    try:
        return compile(doc, grammar)
    except CompileError as exc:
        errors = [(e.path, e.kind, e.message, e.suggestion) for e in exc.errors]
        return str(exc), exc.path, errors


def test_compile_matches_the_reference(jsontl, maptl):
    rng = random.Random(1111)
    cases = []
    for _ in range(400):
        doc = from_json_typed(random_json(rng, depth=rng.randrange(0, 6), text=rng.choice([None, _jsontext])))
        cases += [(doc, jsontl), (doc, maptl)]
        mutant = mutate_document(rng, doc)
        cases += [(mutant, jsontl), (mutant, maptl)]
    for text in _TEMPLATE_GRAMMARS:
        grammar = load_grammar(text)
        cases += [(_match_word_tree(rng, grammar), grammar) for _ in range(1500)]
    pair = load_grammar(_TEMPLATE_GRAMMARS[1])
    cases.append((chain(DEEP, "a"), jsontl))
    cases += [(chain(DEEP, leaf, "pair a b c"), pair) for leaf in ("pair x y z", "pair only")]
    compiled = refused = 0
    template_depths = []
    for doc, grammar in cases:
        expected = _compiled(reference_compile_doc, doc, grammar)
        assert _compiled(compile_doc, doc, grammar) == expected, serialize(doc)
        if isinstance(expected, str):
            compiled += 1
        elif expected[2]:
            refused += 1
        else:
            template_depths.append(len(expected[1]) - 1)
    assert compiled > 1000 and refused > 1000
    # Template failures at every depth of the generated trees, hundreds below depth 1.
    assert sum(depth > 1 for depth in template_depths) >= 300
    assert set(range(7)) <= set(template_depths) and DEEP in template_depths


def test_template_placeholders():
    grammar = load_grammar(
        "celltype any\n base any\n"
        "nodetype doc\n root\n catchAllChild item\n compile <ul>{c}</ul>\n"
        "nodetype item\n match item\n catchAllCell any\n compile <li>{w}:{0+}</li>"
    )
    out = compile_doc(parse("doc\n item a b\n item"), grammar)
    assert out == "<ul><li>item:a b</li>\n<li>item:</li></ul>"


def test_nodes_without_templates_render_their_children():
    grammar = load_grammar(
        "celltype any\n base any\n"
        "nodetype group\n root\n catchAllChild leaf\n"
        "nodetype leaf\n match leaf\n catchAllCell any\n compile [{0+}]"
    )
    assert compile_doc(parse("group\n leaf x\n leaf y"), grammar) == "[x]\n[y]"


def test_custom_child_separator():
    grammar = load_grammar(
        "celltype any\n base any\n"
        "nodetype list\n root\n catchAllChild leaf\n compile ({c|; })\n"
        "nodetype leaf\n match leaf\n catchAllCell any\n compile {0+}"
    )
    assert compile_doc(parse("list\n leaf a\n leaf b"), grammar) == "(a; b)"


def test_first_listed_child_type_wins_a_shared_match_word():
    grammar = load_grammar(
        "nodetype p\n root\n children y x\n compile {c}\n"
        "nodetype x\n match k\n compile X\n"
        "nodetype y\n match k\n compile Y"
    )
    assert compile_doc(parse("p\n k"), grammar) == "Y"


def test_root_catchall_alongside_named_roots():
    grammar = load_grammar(
        "celltype any\n base any\n"
        "nodetype special\n root\n compile S\n"
        "nodetype anything\n root catchall\n catchAllCell any\n compile A"
    )
    assert compile_doc(parse("special\nother"), grammar) == "S\nA"


# ---------------------------------------------------------------------------
# suggestion machinery


def test_levenshtein():
    assert levenshtein("", "") == 0
    assert levenshtein("a", "") == 1
    assert levenshtein("s", "sx") == 1
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("x", "a") == 1


def test_suggest_tie_break_and_threshold():
    assert suggest("x", ["b", "a", "z"]) == "a"
    assert suggest("sx", ["a", "b", "n", "o", "s", "z"]) == "s"
    assert suggest("wombat", ["a", "b"]) is None
    assert suggest("word", []) is None


def test_suggest_matches_the_full_scan():
    rng = random.Random(1010)

    def word():
        return "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 8)))

    for _ in range(20_000):
        target = word()
        candidates = [word() for _ in range(rng.randrange(0, 12))]
        distance, nearest = min(((levenshtein(target, c), c) for c in candidates), default=(0, None))
        assert suggest(target, candidates) == (nearest if distance <= 2 else None), (target, candidates)


# ---------------------------------------------------------------------------
# the grammar value types

_INT = CellTypeDef("int", "int")
_NODE_FIELDS = (
    "name", "match", "cells", "catch_all_cell", "child_types", "catch_all_child", "is_root",
    "is_root_catch_all", "template",
)
_GRAMMAR_FIELDS = ("name", "node_types", "cell_types")


def _value_type_cases():
    """(type, field names, values in field order, defaults of the trailing fields)."""
    node = NodeTypeDef("point", "p", ("int",), None, (), None, True, False, "{0}")
    return [
        (TlError, ("path", "kind", "message", "suggestion"), ((0, 1), "arityMismatch", "m", "s"), (None,)),
        (CellTypeDef, ("name", "base", "enum_values", "pattern"),
         ("digit", "int", frozenset({"1"}), re.compile("[0-9]")), ("any", None, None)),
        (NodeTypeDef, _NODE_FIELDS, ("point", "p", ("int",), "int", ("point",), "point", True, True, "{0}"),
         ((), None, (), None, False, False, None)),
        (Grammar, _GRAMMAR_FIELDS, ("g", {"point": node}, {"int": _INT}), ("", {}, {})),
    ]


@pytest.mark.parametrize("cls, fields, values, defaults", _value_type_cases())
def test_value_types_keep_their_fields_constructor_and_equality(cls, fields, values, defaults):
    assert cls.__match_args__ == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for value in (by_position, by_keyword):
        assert tuple(getattr(value, name) for name in fields) == values
    assert by_position == by_keyword and not by_position != by_keyword
    required = len(fields) - len(defaults)
    bare = cls(*values[:required])
    assert tuple(getattr(bare, name) for name in fields[required:]) == defaults
    assert bare != by_position and not bare == by_position
    other_type = TlError((), "", "") if cls is CellTypeDef else _INT
    assert by_position != values and by_position != other_type and not by_position == other_type
    match by_position:
        case cls(first, second):
            assert (first, second) == values[:2]
        case _:
            pytest.fail("positional match failed")
    assert repr(by_position) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields, values)) + ")"
    assert copy.deepcopy(by_position) == pickle.loads(pickle.dumps(by_position)) == by_position


def test_value_type_repr_matches_the_readme(jsontl):
    assert repr(check(parse("o\n sx dsl yrt"), jsontl)) == (
        "[TlError(path=(0, 0), kind='unknownNodeType', message=\"unknown node type 'sx'\", suggestion='s')]"
    )


def test_frozen_value_types_hash_and_refuse_changes():
    error = TlError((0,), "arityMismatch", "m")
    assert hash(error) == hash(TlError((0,), "arityMismatch", "m", None))
    assert hash(CellTypeDef("c", "int")) == hash(CellTypeDef("c", "int"))
    assert len({error, TlError((0,), "arityMismatch", "m"), _INT, CellTypeDef("int", "int")}) == 2
    for frozen, name in ((error, "kind"), (_INT, "base")):
        with pytest.raises(AttributeError):
            setattr(frozen, name, "x")
        with pytest.raises(AttributeError):
            delattr(frozen, name)
    assert error.kind == "arityMismatch" and _INT.base == "int"


def test_mutable_value_types_do_not_hash(jsontl):
    # A Grammar's fields hold dicts, so it alone does not hash; a NodeTypeDef
    # is frozen like TlError and CellTypeDef and hashes by value.
    with pytest.raises(TypeError):
        hash(jsontl)
    assert hash(NodeTypeDef("a", "a")) == hash(NodeTypeDef("a", "a", (), None, (), None, False, False, None))
    assert len({NodeTypeDef("a", "a"), NodeTypeDef("a", "a"), NodeTypeDef("a", "b")}) == 2
    assert Grammar().node_types is not Grammar().node_types


@pytest.mark.parametrize("cls, fields, values, defaults", _value_type_cases())
def test_value_types_refuse_changes_to_every_field(cls, fields, values, defaults):
    value = cls(*values)
    for name in cls.__slots__:  # the fields, and a Grammar's derived tables
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values


def test_a_grammar_changes_only_by_building_a_new_one():
    # A Grammar reads its fields once, when it is built, into the tables check() uses.
    grammar = load_builtin_grammar("jsontl")
    doc = parse("n 1\na\n n 1.5\n n x")
    expected = check(doc, grammar)
    assert [(error.path, error.kind) for error in expected] == [((1, 1), "cellTypeMismatch")]
    with pytest.raises(AttributeError):
        grammar.node_types = {}
    num = grammar.node_types["num"]
    grammar.node_types["num"] = NodeTypeDef(**{**{name: getattr(num, name) for name in _NODE_FIELDS}, "is_root": False})
    grammar.cell_types["jsonnum"] = CellTypeDef("jsonnum", "int")
    assert check(doc, grammar) == expected
    rebuilt = Grammar(grammar.name, grammar.node_types, grammar.cell_types)
    assert [error.kind for error in check(doc, rebuilt)] == ["illegalChild", "cellTypeMismatch", "cellTypeMismatch"]


def test_a_hand_built_grammar_takes_its_roots_from_its_node_types():
    any_cell = CellTypeDef("any")
    node_types = {"a": NodeTypeDef("a", "a", is_root=True, catch_all_cell="any"), "b": NodeTypeDef("b", "b")}
    grammar = Grammar("g", node_types, {"any": any_cell})
    assert check(parse("a x y"), grammar) == []
    assert [error.kind for error in check(parse("b"), grammar)] == ["illegalChild"]
    # The first type marked is_root_catch_all matches any other first word at depth 0, marked root or not.
    for is_root in (False, True):
        node_types["c"] = NodeTypeDef("c", "c", catch_all_cell="any", is_root=is_root, is_root_catch_all=True)
        node_types["d"] = NodeTypeDef("d", "d", is_root_catch_all=True)
        grammar = Grammar("g", node_types, {"any": any_cell})
        assert check(parse("a\nb x\nd x\nwombat y"), grammar) == []
    unknown_names = ({"cells": ("ghost",)}, {"catch_all_cell": "ghost"}, {"catch_all_cell": ""},
                     {"child_types": ("",)}, {"catch_all_child": ""})
    for unknown in unknown_names:
        with pytest.raises(KeyError):
            Grammar("g", {"a": NodeTypeDef("a", "a", is_root=True, **unknown)})


def test_a_node_checks_against_the_type_listed_under_its_key():
    # Two types share a name under different keys; each node keeps the cells of the type it resolved to.
    node_types = {"x": NodeTypeDef("a", "a", cells=("int",), is_root=True), "a": NodeTypeDef("a", "zz", is_root=True)}
    grammar = Grammar("g", node_types, {"int": _INT})
    assert check(parse("a 5"), grammar) == []
    assert check(parse("zz"), grammar) == []
    assert [error.kind for error in check(parse("a x\nzz 5"), grammar)] == ["cellTypeMismatch", "arityMismatch"]
    # A catch-all child is one when it is not None: the empty key names a type like any other.
    grammar = Grammar("g", {"a": NodeTypeDef("a", "a", is_root=True, catch_all_child=""), "": NodeTypeDef("", "b")})
    assert check(parse("a\n x\n b"), grammar) == []


def test_the_check_oracle_resolves_node_types_by_their_key():
    # The same-name grammar, where each key has its own children, and a catch-all child under the key "".
    node_types = {
        "x": NodeTypeDef("a", "a", child_types=("c",), is_root=True),
        "a": NodeTypeDef("a", "zz", child_types=("d",), is_root=True),
        "c": NodeTypeDef("c", "c"),
        "d": NodeTypeDef("d", "d"),
    }
    cases = [(Grammar("g", node_types), text) for text in ("a\n c", "zz\n d", "a\n d", "zz\n c")]
    node_types = {"a": NodeTypeDef("a", "a", is_root=True, catch_all_child=""), "": NodeTypeDef("", "b")}
    cases.append((Grammar("g", node_types), "a\n x\n b"))
    for grammar, text in cases:
        assert reference_check(parse(text), grammar) == check(parse(text), grammar), text


def test_a_rebuilt_grammar_equals_and_checks_like_the_loaded_one(jsontl, maptl):
    rng = random.Random(1919)
    for grammar in (jsontl, maptl, *map(load_grammar, _TEMPLATE_GRAMMARS)):
        rebuilt = Grammar(grammar.name, dict(grammar.node_types), dict(grammar.cell_types))
        assert rebuilt == grammar
        docs = [random_document(rng) for _ in range(30)]
        docs += [mutate_document(rng, from_json_typed(random_json(rng, depth=4))) for _ in range(30)]
        docs += [mutate_document(rng, _match_word_tree(rng, grammar, max_depth=3)) for _ in range(30)]
        for doc in docs:
            assert check(doc, rebuilt) == check(doc, grammar), serialize(doc)
    assert check(parse("n 1"), Grammar(jsontl.name, dict(jsontl.node_types), dict(jsontl.cell_types))) == []


def test_grammar_equality_and_repr_ignore_its_derived_tables():
    text = builtin_grammar_text("maptl")
    first, second = load_grammar(text), load_grammar(text)
    derived = [name for name in Grammar.__slots__ if name not in Grammar._fields]
    assert derived
    for name in derived:
        object.__setattr__(second, name, None)
    assert first == second and repr(first) == repr(second)


def test_value_types_can_be_weakly_referenced(jsontl):
    for value in (TlError((), "k", "m"), _INT, NodeTypeDef("a", "a"), jsontl):
        assert weakref.ref(value)() is value


@pytest.mark.parametrize("name", ["nosuch", "", "../grammars/jsontl", "grammars/jsontl", "../__init__"])
def test_builtin_grammar_text_reads_only_the_bundled_grammars(name):
    with pytest.raises(GrammarLoadError, match="no bundled grammar named"):
        builtin_grammar_text(name)
