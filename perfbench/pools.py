"""The job pool of each workload, built from the seed alone.

``build(workload, seed, tiny)`` returns ``(items, files)``: the JSON-ready
job records the worker loads, and for ``cli`` the input files it hands
to the command.  Sizes come from fixed quantile schedules, so every seed
draws the same size multiset and only shapes and content vary; that keeps
a run's job mix, and so its percentiles, comparable across seeds.

A workload is made of parts, one per module under test; each item names
its part.  ``library`` is the docs, dialects and edits pools together,
item for item the same as the three workloads of those names.
"""

from __future__ import annotations

import random

import gen

WORKLOADS = ("library", "cli", "docs", "dialects", "edits")
PARTS = {"library": ("docs", "dialects", "edits"), "cli": ("cli",),
         "docs": ("docs",), "dialects": ("dialects",), "edits": ("edits",)}


def build(workload: str, seed: int, tiny: bool = False):
    items, files = [], {}
    for part in PARTS[workload]:
        part_items, part_files = _BUILDERS[part](random.Random(f"{part}:{seed}"), tiny)
        for item in part_items:
            item["part"] = part
        items += part_items
        files.update(part_files)
    return items, files


# ---------------------------------------------------------------------------
# docs: core parse/serialize/edit on heavy-tailed document sizes


def _docs(rng, tiny):
    pool = gen.line_pool(rng)
    # A dense bulk puts p50 and p90 where one job more or less moves them
    # by a few percent; four large files make the tail.
    if tiny:
        sizes = gen.heavy_tail(7, 10, 400) + [1000]
    else:
        sizes = gen.heavy_tail(196, 20, 5000) + [10_000, 20_000, 40_000, 100_000]
    shapes = ("mixed", "wide", "ragged", "mixed", "wide", "ragged", "mixed", "deep")
    items = []
    for i, n in enumerate(sizes):
        shape = shapes[i % len(shapes)]
        if shape == "deep" and n > 1000:
            shape = "mixed"  # a deep line is mostly indent: keep those bytes a minority
        if i == len(sizes) - 1:
            shape = "wide"  # the largest file is wide-flat, 10^4..10^5 roots
        depths, contents = gen.doc_lines(rng, shape, pool, lines=n,
                                         crlf=shape == "ragged" and i % 8 == 2)
        text = gen.lines_text(depths, contents)
        nodes, depth = len(depths), max(depths)
        edits = gen.path_edits(rng, depths, contents, pool, 4)
        items.append({"shape": shape, "text": text, "nodes": nodes, "depth": depth,
                      "edits": edits, "edited": gen.lines_text(depths, contents)})
    return items, {}


# ---------------------------------------------------------------------------
# dialects: JsonTL (codec + grammar) and a minority of MapTL (the parallel calls)


def _jsontl_item(rng, budget, kind):
    texts = gen._SAFE_TEXT + gen._WILD_TEXT if kind == "codec" else gen._SAFE_TEXT
    value = gen.json_value(rng, budget, texts)
    text = gen.jsontl_text(value)
    item = {"kind": kind, "value": value, "text": text}
    if kind == "typo":
        item["typo_text"], item["typo_paths"] = gen.jsontl_typos(rng, text, 1 + rng.randrange(5))
    return item


def _maptl_item(rng, pool, entries):
    source, clean = {}, {}
    malformed = []
    for i in range(entries):
        key = f"{rng.choice(gen._KEYS)}{i}"
        value = gen.choice_line(rng, pool)
        roll = rng.random()
        if roll < 0.01:
            value, kind = "", "arityMismatch"
        elif roll < 0.02:
            value, kind = " " + value, "cellTypeMismatch"
        else:
            kind = None
            clean[key] = value
        if kind:
            malformed.append([[i], kind])
        source[key] = value
    text = "\n".join(k + " " + v if v else k for k, v in source.items())
    return {"kind": "maptl", "text": text, "map": source, "errors": malformed,
            "clean_text": "\n".join(k + " " + v for k, v in clean.items()),
            "compiled": "\n".join(f'"{k}": "{v}"' for k, v in clean.items())}


_JSONTL_KINDS = ("full", "typo", "full", "codec", "full", "typo", "full")


def _dialects(rng, tiny):
    pool = gen.line_pool(rng)
    budgets = gen.heavy_tail(7, 10, 300) if tiny else gen.heavy_tail(110, 10, 3000) + [8000, 15_000]
    items = [_jsontl_item(rng, b, _JSONTL_KINDS[i % len(_JSONTL_KINDS)]) for i, b in enumerate(budgets)]
    # MapTL stays a minority of the bytes: at the parent commit each root
    # costs a thread task, which would otherwise drown the JsonTL signal.
    for entries in ((60, 120) if tiny else (400, 800, 1600, 3200)):
        items.append(_maptl_item(rng, pool, entries))
    return items, {}


# ---------------------------------------------------------------------------
# edits: diff/patch pairs, from identical to heavy rewrites


def _rewrite(rng, depths, contents, pool):
    starts = [i for i, d in enumerate(depths) if d == 0] + [len(depths)]
    blocks = [range(starts[j], starts[j + 1]) for j in range(len(starts) - 1)]
    rng.shuffle(blocks)
    new_depths, new_contents = [], []
    for block in blocks:
        for i in block:
            new_depths.append(depths[i])
            new_contents.append(gen.choice_line(rng, pool) if rng.random() < 0.5 else contents[i])
    depths[:], contents[:] = new_depths, new_contents


def _pair(rng, pool, mode, roots=None, lines=None):
    depths, contents = gen.doc_lines(rng, "tree", pool, lines=lines, roots=roots)
    a = gen.lines_text(depths, contents)
    if mode == "heavy":
        _rewrite(rng, depths, contents, pool)
    elif mode == "edit":
        gen.path_edits(rng, depths, contents, pool, 1 + rng.randrange(30))
    b = gen.lines_text(depths, contents)
    return a, b


def _edits(rng, tiny):
    pool = gen.line_pool(rng)
    roots = gen.heavy_tail(8, 5, 120) if tiny else gen.heavy_tail(106, 10, 700) + [1000, 2000]
    items = []
    for i, r in enumerate(roots):
        mode = {0: "same", 4: "heavy"}.get(i % 8, "edit")
        a, b = _pair(rng, pool, mode, roots=r)
        items.append({"mode": mode, "a": a, "b": b, "changed": a != b})
    return items, {}


# ---------------------------------------------------------------------------
# cli: one subprocess per command on generated files of up to ~100 KB

# (command, variant, jobs per pool)
CLI_MIX = (
    ("version", "", 10),
    ("fmt", "file", 8), ("fmt", "stdin", 5),
    ("stats", "file", 8), ("stats", "stdin", 2),
    ("from-json", "untyped", 5), ("from-json", "typed", 7),
    ("to-json", "file", 8), ("to-json", "stdin", 2),
    ("diff", "", 12),
    ("patch", "", 10),
    ("check", "jsontl", 5), ("check", "fix", 5), ("check", "maptl", 3),
    ("compile", "jsontl", 7), ("compile", "maptl", 3),
)


def _coarse_patch(a: str, b: str) -> str:
    """A valid PatchTL script: keep the common root prefix and suffix,
    replace the middle wholesale."""
    def blocks(text):
        out = []
        for line in text.split("\n") if text else []:
            if line.startswith(" ") and out:
                out[-1].append(line)
            else:
                out.append([line])
        return out

    old, new = blocks(a), blocks(b)
    pre = 0
    while pre < min(len(old), len(new)) and old[pre] == new[pre]:
        pre += 1
    suf = 0
    while suf < min(len(old), len(new)) - pre and old[-1 - suf] == new[-1 - suf]:
        suf += 1
    ops = [f"keep {pre}"] if pre else []
    if len(old) - pre - suf:
        ops.append(f"delete {len(old) - pre - suf}")
    if len(new) - pre - suf:
        ops.append("insert")
        ops.extend(" " + line for block in new[pre:len(new) - suf] for line in block)
    if suf:
        ops.append(f"keep {suf}")
    return "\n".join(ops or ["keep 0"])


def _cli(rng, tiny):
    pool = gen.line_pool(rng)
    files: "dict[str, str]" = {}
    items = []
    scale = 0.1 if tiny else 1.0

    def put(name, text):
        files[name] = text
        return "@" + name

    for command, variant, count in CLI_MIX:
        count = 1 if tiny else count
        for j, f in enumerate(s / 100 for s in gen.heavy_tail(count, 1, 100)):
            n = f"c{len(items)}"
            item = {"cmd": command, "stdin": None}
            if command == "version":
                item.update(argv=["--version"], expect={"regex": r"treetext \S+\n"}, inputs=[])
            elif command in ("fmt", "stats"):
                shape = ("mixed", "ragged", "wide")[j % 3]
                depths, contents = gen.doc_lines(rng, shape, pool, lines=max(20, int(3000 * f * scale)),
                                                 crlf=shape == "ragged")
                text = gen.lines_text(depths, contents)
                ref = put(n + ".tn", text)
                if variant == "stdin":
                    item.update(argv=[command, "-"], stdin=ref)
                else:
                    item.update(argv=[command, ref])
                item["inputs"] = [ref]
                item["expect"] = ({"exact": text} if command == "fmt" else
                                  {"exact": f"nodes {len(depths)}\ndepth {max(depths)}\n"})
            elif command in ("from-json", "to-json"):
                budget = max(10, int(2500 * f * scale))
                if variant == "untyped":
                    value = gen.json_value(rng, budget, gen._SAFE_TEXT + ("two\nlines",), keyed_top=True)
                    ref = put(n + ".json", gen.canon(value))
                    item.update(argv=[command, ref], expect={"exact": gen.untyped_text(value) + "\n"})
                else:
                    value = gen.json_value(rng, budget, gen._SAFE_TEXT + gen._WILD_TEXT)
                    if command == "from-json":
                        ref = put(n + ".json", gen.canon(value))
                        item.update(argv=[command, "--typed", ref],
                                    expect={"exact": gen.jsontl_text(value) + "\n"})
                    else:
                        ref = put(n + ".tn", gen.jsontl_text(value) + "\n")
                        item.update(argv=[command, "-" if variant == "stdin" else ref],
                                    stdin=ref if variant == "stdin" else None,
                                    expect={"json": gen.canon(value)})
                item["inputs"] = [ref]
            elif command in ("diff", "patch"):
                lines = max(20, int(1000 * f * scale))
                a, b = _pair(rng, pool, ("edit", "same", "edit", "heavy", "edit")[j % 5], lines=lines)
                ra, rb = put(n + ".a.tn", a), put(n + ".b.tn", b)
                if command == "diff":
                    item.update(argv=["diff", ra, rb], inputs=[ra, rb], expect={"patch": [ra, rb]})
                else:
                    rp = put(n + ".patch", _coarse_patch(a, b) + "\n")
                    item.update(argv=["patch", rp, ra], inputs=[rp, ra], expect={"exact": b})
            elif variant == "maptl":
                m = _maptl_item(rng, pool, max(20, int(2000 * f * scale)))
                if command == "check":
                    ref = put(n + ".tn", m["text"] + "\n")
                    item.update(argv=["check", ref, "--grammar", "maptl"],
                                expect={"errors": [[p, k, None] for p, k in m["errors"]]})
                else:
                    ref = put(n + ".tn", m["clean_text"] + "\n")
                    item.update(argv=["compile", ref, "--grammar", "maptl"],
                                expect={"exact": m["compiled"] + "\n"})
                item["inputs"] = [ref]
            else:  # check / check --fix / compile against jsontl
                budget = max(10, int(2500 * f * scale))
                j_item = _jsontl_item(rng, budget, "full" if command == "compile" else "typo")
                if command == "compile":
                    ref = put(n + ".tn", j_item["text"] + "\n")
                    item.update(argv=["compile", ref, "--grammar", "jsontl"],
                                expect={"json": gen.canon(j_item["value"])})
                else:
                    ref = put(n + ".tn", j_item["typo_text"] + "\n")
                    if variant == "fix":
                        item.update(argv=["check", "--fix", ref, "--grammar", "jsontl"],
                                    expect={"exact": j_item["text"] + "\n"})
                    else:
                        expected = [[p, "unknownNodeType", tag] for p, tag in j_item["typo_paths"]]
                        item.update(argv=["check", ref, "--grammar", "jsontl"], expect={"errors": expected})
                item["inputs"] = [ref]
            items.append(item)
    return items, files


_BUILDERS = {"docs": _docs, "dialects": _dialects, "edits": _edits, "cli": _cli}
