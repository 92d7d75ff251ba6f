"""Depth probe: the deepest chain each public function handles.

A chain of depth d is d nested nodes, one per level ("a" above a leaf),
which is d*d/2 bytes as text: 10,000 levels is about 50 MB, so the probe
never goes deeper.  Each function is searched between 1 and the cap on
the assumption that failure is monotone in depth (it is for recursion).
A RecursionError, MemoryError or wrong result is a failure at that depth
and is reported with it, never skipped.  Results are checked by walking
the output's attributes iteratively, never by another call of the
function under test.

Each function has its own time budget, so a slow function cannot starve
the ones probed after it.  When the budget runs out the search stops and
reports the depth already proven, marked incomplete; the attempt that
ran out of time is not a failure.

Each workload's traced run probes the functions of the modules it
exercises: core on ``docs``, codec and grammar on ``dialects``, differ
on ``edits``.
"""

from __future__ import annotations

from time import perf_counter

from jobs import JobTimeout, Mismatch, expect, time_limit

MAX_DEPTH = 10_000
BUDGET_S = 20.0  # per function
MIN_ATTEMPT_S = 0.5  # no attempt starts with less time left
FUNCTIONS = (
    "core.parse", "core.serialize", "core.eq", "core.clone",
    "grammar.check", "grammar.autofix", "grammar.compile_doc",
    "codec.from_json_typed", "codec.to_json_typed", "differ.diff", "differ.apply_patch",
)


def _chain(tt, depth, leaf):
    node = tt.TreeNode(leaf)
    for _ in range(depth - 1):
        node = tt.TreeNode("a", [node])
    return tt.TreeDocument([node])


def _chain_text(depth, leaf):
    return "\n".join([" " * i + "a" for i in range(depth - 1)] + [" " * (depth - 1) + leaf])


def _text(doc) -> str:
    out = []
    stack = [(n, 0) for n in reversed(doc.roots)]
    while stack:
        node, d = stack.pop()
        out.append(" " * d + node.line)
        stack.extend((c, d + 1) for c in reversed(node.children))
    return "\n".join(out)


def _walk_chain(nodes, depth, line="descend"):
    """Follow ``depth`` single-child levels whose line is ``line``; return the rest."""
    for _ in range(depth):
        expect(len(nodes) == 1 and nodes[0].line == line, "probe", f"expected a {line!r} chain")
        nodes = nodes[0].children
    return nodes


def _cases(tt, jsontl):
    def parse(d):
        nodes = _walk_chain(tt.parse(_chain_text(d, "z")).roots, d - 1, "a")
        expect(len(nodes) == 1 and nodes[0].line == "z" and not nodes[0].children, "core", "parse")

    def serialize(d):
        expect(tt.serialize(_chain(tt, d, "z")) == _chain_text(d, "z"), "core", "serialize")

    def eq(d):
        expect((_chain(tt, d, "z") == _chain(tt, d, "z")) is True, "core", "== on equal chains")
        expect((_chain(tt, d, "z") == _chain(tt, d, "n 1")) is False, "core", "== on different chains")

    def clone(d):
        doc = _chain(tt, d, "z")
        copy = doc.clone()
        expect(copy.roots[0] is not doc.roots[0] and _text(copy) == _chain_text(d, "z"), "core", "clone")

    def check(d):
        expect(tt.check(_chain(tt, d, "z"), jsontl) == [], "grammar", "check")

    def autofix(d):
        expect(_text(tt.autofix(_chain(tt, d, "zz"), jsontl)) == _chain_text(d, "z"), "grammar", "autofix")

    def compile_doc(d):
        out = tt.compile_doc(_chain(tt, d, "z"), jsontl)
        expect(out == "[" * (d - 1) + "null" + "]" * (d - 1), "grammar", "compile_doc")

    def from_json_typed(d):
        value = None
        for _ in range(d - 1):
            value = [value]
        expect(_text(tt.from_json_typed(value)) == _chain_text(d, "z"), "codec", "from_json_typed")

    def to_json_typed(d):
        value = tt.to_json_typed(_chain(tt, d, "z"))
        for _ in range(d - 1):
            expect(type(value) is list and len(value) == 1, "codec", "to_json_typed")
            value = value[0]
        expect(value is None, "codec", "to_json_typed leaf")

    def diff(d):
        ops = _walk_chain(tt.diff(_chain(tt, d, "z"), _chain(tt, d, "n 1")).roots, d - 1)
        # The bottom level must turn ["z"] into ["n 1"] with keep/delete/insert.
        source, out = ["z"], []
        for op in ops:
            word, _, count = op.line.partition(" ")
            if word == "insert":
                out.extend((c.line, len(c.children)) for c in op.children)
            elif word in ("keep", "delete") and count.isdigit():
                if word == "keep":
                    out.extend((s, 0) for s in source[: int(count)])
                source = source[int(count):]
            else:
                raise Mismatch("differ", f"unexpected operation {op.line!r} at the leaf")
        expect(source == [] and out == [("n 1", 0)], "differ", "diff at the leaf")

    def apply_patch(d):
        ops = [tt.TreeNode("delete 1"), tt.TreeNode("insert", [tt.TreeNode("n 1")])]
        for _ in range(d - 1):
            ops = [tt.TreeNode("descend", ops)]
        result = tt.apply_patch(tt.TreeDocument(ops), _chain(tt, d, "z"))
        expect(_text(result) == _chain_text(d, "n 1"), "differ", "apply_patch")

    return {
        "core.parse": parse, "core.serialize": serialize, "core.eq": eq, "core.clone": clone,
        "grammar.check": check, "grammar.autofix": autofix, "grammar.compile_doc": compile_doc,
        "codec.from_json_typed": from_json_typed, "codec.to_json_typed": to_json_typed,
        "differ.diff": diff, "differ.apply_patch": apply_patch,
    }


def _attempt(case, depth, seconds):
    """None if ``case`` passes at ``depth``, else the error; JobTimeout propagates."""
    try:
        with time_limit(seconds):
            case(depth)
    except JobTimeout:
        raise
    except Exception as exc:  # RecursionError and MemoryError are results here
        return f"{type(exc).__name__}: {str(exc)[:160]}"
    return None


def deepest(case, cap):
    """Search one function within BUDGET_S.

    Doubles the depth from 1 until a failure or the cap, then bisects.
    Returns the deepest passing depth, the shallowest failure seen
    ({"depth", "error"} or None) and whether the search finished before
    the budget ran out.
    """
    deadline = perf_counter() + BUDGET_S
    lo, hi, failure, complete = 0, None, None, True
    while hi is None or hi - lo > 1:
        depth = min(max(2 * lo, 1), cap) if hi is None else (lo + hi) // 2
        left = deadline - perf_counter()
        if left < MIN_ATTEMPT_S:
            complete = False
            break
        try:
            error = _attempt(case, depth, left)
        except JobTimeout:
            complete = False
            break
        if error is None:
            lo = depth
            if depth == cap:
                break
        else:
            hi, failure = depth, {"depth": depth, "error": error}
    return {"max_ok_depth": lo, "failure": failure, "complete": complete}


def run(tt, names, cap=MAX_DEPTH):
    """Probe the named functions, each within its own BUDGET_S."""
    cases = _cases(tt, tt.load_builtin_grammar("jsontl"))
    return {name: deepest(cases[name], cap) for name in names}
