"""One job per workload item: the calls a user makes, checked against the
generator's record.

A job never compares the library with another call of itself: outputs
are checked against the input text, the generator's counts and expected
texts, ``json`` from the standard library, or the reference model in
``gen``.  A failed check raises ``Mismatch`` naming the module at fault.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import re
import signal
import subprocess
import sys
from time import perf_counter

import gen

JOB_LIMIT_S = 20.0


class Mismatch(Exception):
    def __init__(self, module: str, message: str):
        super().__init__(f"{module}: {message}")
        self.module = module


def expect(ok, module, message):
    if not ok:
        raise Mismatch(module, message)


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("time limit exceeded")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise JobTimeout in the main thread once ``seconds`` have passed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _canon_text(text):
    try:
        return gen.canon(json.loads(text))
    except ValueError:
        return None


class Context:
    """What a worker loads once per set-up: the library, grammars and items."""

    def __init__(self, tt, workdir, items, tracer):
        self.tt = tt
        self.workdir = workdir
        self.workers = nproc()
        self.grammars = {}
        self.items = items
        self.parts = {item["part"] for item in items}
        self.files = {}
        if "dialects" in self.parts:
            for name in ("jsontl", "maptl"):
                self.grammars[name] = tracer.call("grammar.load_grammar", tt.load_builtin_grammar, name)
        if "cli" in self.parts:
            self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONUTF8="1")
            for name in os.listdir(workdir):
                with open(os.path.join(workdir, name), "rb") as handle:
                    self.files["@" + name] = handle.read()
        for item in items:
            _prepare(self, item)


def run(ctx, item, tr):
    """Run one job; for ``cli`` return the command's own time."""
    return _RUN[item["part"]](ctx, item, tr)


def _nbytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _prepare(ctx, item):
    """Derive per-item fields the job needs, outside the timed region."""
    w = item["part"]
    if w == "docs":
        item["nbytes"] = _nbytes(item["text"])
        item["edited_nbytes"] = _nbytes(item["edited"])
        for op in item["edits"]:
            op[1] = tuple(op[1])
    elif w == "dialects":
        if item["kind"] == "maptl":
            bad = {p[0] for p, _ in item["errors"]}
            item["clean_map"] = {k: v for i, (k, v) in enumerate(item["map"].items()) if i not in bad}
            item["nbytes"] = _nbytes(item["text"])
        else:
            item["canon"] = gen.canon(item["value"])
            item["nbytes"] = _nbytes(item.get("typo_text", item["text"]))
            item["typo_errors"] = sorted(([p, "unknownNodeType", t] for p, t in item.get("typo_paths", ())), key=repr)
    elif w == "edits":
        item["nbytes"] = _nbytes(item["a"]) + _nbytes(item["b"])
        item["doc_a"] = ctx.tt.parse(item["a"])
        item["doc_b"] = ctx.tt.parse(item["b"])
    else:
        item["nbytes"] = sum(len(ctx.files[ref]) for ref in item["inputs"])
        if "patch" in item["expect"]:
            item["ref_a"], item["ref_b"] = (ctx.files[ref].decode("utf-8") for ref in item["expect"]["patch"])


# ---------------------------------------------------------------------------
# docs


def _docs(ctx, item, tr):
    tt, text = ctx.tt, item["text"]
    doc = tr.call("core.parse", tt.parse, text)
    tr.count("core.parse.bytes", item["nbytes"])
    expect(tr.call("core.serialize", tt.serialize, doc) == text, "core", "serialize(parse(text)) != text")
    expect(tr.call("core.walk", doc.node_count) == item["nodes"], "core", "node_count")
    expect(tr.call("core.walk", doc.max_depth) == item["depth"], "core", "max_depth")
    for op in item["edits"]:
        if op[0] == "set":
            node = tr.call("core.edit", doc.get_node, op[1])
            tr.call("core.edit", node.set_line, op[2])
        elif op[0] == "insert":
            parent = tr.call("core.edit", doc.get_node, op[1]) if op[1] else doc
            tr.call("core.edit", parent.insert_child, op[2], tt.TreeNode(op[3]))
        else:
            tr.call("core.edit", doc.delete_node, op[1])
    edited = tr.call("core.serialize", tt.serialize, doc)
    expect(edited == item["edited"], "core", "text after path edits")
    copy = tr.call("core.clone", doc.clone)
    again = tr.call("core.parse", tt.parse, edited)
    tr.count("core.parse.bytes", item["edited_nbytes"])
    expect(tr.call("core.eq", operator.eq, copy, again) is True, "core", "clone != re-parse")


# ---------------------------------------------------------------------------
# dialects


def _dialect(ctx, item, tr):
    tt, kind = ctx.tt, item["kind"]
    if kind == "maptl":
        return _maptl(ctx, item, tr)
    jsontl = ctx.grammars["jsontl"]
    if kind == "typo":
        doc = tr.call("core.parse", tt.parse, item["typo_text"])
        tr.count("core.parse.bytes", item["nbytes"])
        errors = tr.call("grammar.check", tt.check, doc, jsontl)
        tr.count("grammar.check.errors", len(errors))
        found = sorted(([list(e.path), e.kind, e.suggestion] for e in errors), key=repr)
        expect(found == item["typo_errors"], "grammar", "check errors on injected typos")
        fixed = tr.call("grammar.autofix", tt.autofix, doc, jsontl)
        expect(tr.call("core.serialize", tt.serialize, fixed) == item["text"], "grammar", "autofix")
        expect(tr.call("grammar.check", tt.check, fixed, jsontl) == [], "grammar", "check after autofix")
        return
    doc = tr.call("codec.from_json_typed", tt.from_json_typed, item["value"])
    text = tr.call("core.serialize", tt.serialize, doc)
    expect(text == item["text"], "codec", "from_json_typed text")
    doc = tr.call("core.parse", tt.parse, text)
    tr.count("core.parse.bytes", item["nbytes"])
    if kind == "full":
        errors = tr.call("grammar.check", tt.check, doc, jsontl)
        tr.count("grammar.check.errors", len(errors))
        expect(errors == [], "grammar", "check on a clean document")
        out = tr.call("grammar.compile_doc", tt.compile_doc, doc, jsontl)
        expect(_canon_text(out) == item["canon"], "grammar", "compile_doc != source value")
    value = tr.call("codec.to_json_typed", tt.to_json_typed, doc)
    expect(gen.canon(value) == item["canon"], "codec", "to_json_typed != source value")


def _maptl(ctx, item, tr):
    tt, maptl, text = ctx.tt, ctx.grammars["maptl"], item["text"]
    doc = tr.call("core.parse_parallel", tt.parse_parallel, text, ctx.workers)
    expect(tr.call("core.serialize", tt.serialize, doc) == text, "core", "parse_parallel")
    errors = tr.call("grammar.check_parallel", tt.check_parallel, doc, maptl, ctx.workers)
    tr.count("grammar.check.errors", len(errors))
    expect([[list(e.path), e.kind] for e in errors] == item["errors"], "grammar", "check_parallel errors")
    mapping = tr.call("codec.to_map", tt.to_map, doc)
    expect(list(mapping.items()) == list(item["map"].items()), "codec", "to_map")
    clean = tr.call("codec.from_map", tt.from_map, item["clean_map"])
    expect(tr.call("core.serialize", tt.serialize, clean) == item["clean_text"], "codec", "from_map")
    out = tr.call("grammar.compile_doc", tt.compile_doc, clean, maptl)
    expect(out == item["compiled"], "grammar", "compile_doc on MapTL")


# ---------------------------------------------------------------------------
# edits


def _edits(ctx, item, tr):
    tt = ctx.tt
    patch = tr.call("differ.diff", tt.diff, item["doc_a"], item["doc_b"])
    text = tr.call("core.serialize", tt.serialize, patch)
    tr.count("differ.diff.patch_lines", text.count("\n") + 1)
    patch = tr.call("core.parse", tt.parse, text)
    if tr.recording:
        tr.count("core.parse.bytes", _nbytes(text))
    result = tr.call("differ.apply_patch", tt.apply_patch, patch, item["doc_a"])
    expect(tr.call("core.serialize", tt.serialize, result) == item["b"], "differ", "apply_patch(diff(a, b), a) != b")
    ops = [[r.line, _ref_nodes(r.children)] for r in patch.roots]
    expect(gen.patch_has_edit(ops) == item["changed"], "differ", "insert/delete present iff a != b")


def _ref_nodes(children):
    # Only descend operations need their children; inserted data is skipped.
    return [[c.line, _ref_nodes(c.children) if c.line == "descend" else []] for c in children]


# ---------------------------------------------------------------------------
# cli


def _command(argv, stdin, env):
    return subprocess.run(argv, input=stdin, capture_output=True, timeout=JOB_LIMIT_S, env=env)


def _cli(ctx, item, tr):
    argv = [sys.executable, "-m", "treetext.cli"]
    argv += [os.path.join(ctx.workdir, a[1:]) if a.startswith("@") else a for a in item["argv"]]
    stdin = ctx.files[item["stdin"]] if item["stdin"] else b""
    start = perf_counter()
    proc = tr.call("cli." + item["cmd"], _command, argv, stdin, ctx.env)
    elapsed = perf_counter() - start
    expect(proc.returncode == 0, "cli", f"exit code {proc.returncode}: {proc.stderr[-300:]!r}")
    out = proc.stdout.decode("utf-8")
    spec = item["expect"]
    if "exact" in spec:
        expect(out == spec["exact"], "cli", f"{item['cmd']} output differs")
    elif "regex" in spec:
        expect(re.fullmatch(spec["regex"], out) is not None, "cli", f"{item['cmd']} output {out[:80]!r}")
    elif "json" in spec:
        expect(_canon_text(out) == spec["json"], "cli", f"{item['cmd']} JSON differs")
    elif "patch" in spec:
        ops = gen.ref_parse(out[:-1] if out.endswith("\n") else out)
        try:
            result = gen.ref_text(gen.ref_apply_patch(ops, gen.ref_parse(item["ref_a"])))
        except ValueError as exc:
            raise Mismatch("cli", f"diff output does not apply: {exc}") from None
        expect(result == item["ref_b"], "cli", "diff output does not turn a into b")
        expect(gen.patch_has_edit(ops) == (item["ref_a"] != item["ref_b"]), "cli", "insert/delete iff a != b")
    else:
        found = []
        for node in gen.ref_parse(out[:-1] if out.endswith("\n") else out):
            fields = dict(c[0].split(" ", 1) if " " in c[0] else (c[0], "") for c in node[1])
            path = [int(w) for w in fields.get("path", "").split()]
            found.append([path, fields.get("kind"), fields.get("suggestion")])
        expect(sorted(found, key=repr) == sorted(spec["errors"], key=repr), "cli", "check errors differ")
    return elapsed


_RUN = {"docs": _docs, "dialects": _dialect, "edits": _edits, "cli": _cli}
