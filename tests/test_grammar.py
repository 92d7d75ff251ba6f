"""Grammar engine: loading, checking, suggestions, autofix, compiling."""

import json
import random

import pytest

from conftest import POINT_JSONTL, POINT_VALUE, CITIES_MAPTL
from helpers import DEEP, chain, random_document, spine
from treetext import (
    CompileError,
    GrammarLoadError,
    TreeDocument,
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
    to_map,
)
from treetext.grammar import levenshtein, suggest


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
    assert jsontl.root_catch_all is None
    assert len(jsontl.root_types) == 6


def test_maptl_fixture_loads(maptl):
    assert maptl.name == "maptl"
    assert len(maptl.node_types) == 1
    assert maptl.root_catch_all == "entry"
    assert maptl.root_types == ("entry",)


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
    ]
    for text in cases:
        with pytest.raises(GrammarLoadError):
            load_grammar(text)


def test_load_errors_carry_paths():
    with pytest.raises(GrammarLoadError) as info:
        load_grammar("nodetype a\n root\n mystery x")
    assert info.value.path == (0, 1)


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
    text = "a 1\nb 2"
    with pytest.raises(ValueError):
        parse_parallel(text, max_workers=0)
    with pytest.raises(ValueError):
        check_parallel(parse(text), maptl, max_workers=0)


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
