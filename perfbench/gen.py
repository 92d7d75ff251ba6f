"""Seeded input generators and the benchmark's own reference models.

Nothing here imports treetext.  Every expected output the benchmark
checks against is computed from the notation's rules directly (the
depth rule, JsonTL's encoding, PatchTL's four operations), so a defect
in the library cannot hide by agreeing with another call of itself.

A document is generated as two parallel lists, ``depths`` and
``contents``: line i is ``" " * depths[i] + contents[i]``.  Generators
keep every document canonical: only a first child (or the first root)
has content that starts with a space, so the text parses back to the
same tree.
"""

from __future__ import annotations

import json
import random

NEWLINE = "\n"

# Words for document lines; multibyte on purpose.
_WORDS = (
    "alpha", "beta", "gamma", "delta", "x", "y", "12", "3.5", "-7", "née",
    "中文", "🌲", "key", "value", "on", "off", "path/to/file", "a=b", "TODO",
)
# JsonTL check/compile leg: no '"', '\\', control characters or newlines.
_SAFE_TEXT = ("word", "two words", "  lead", "trail  ", "a  b", "é", "中", "🌲",
              "x=1", "", "100%", "(paren)", "semi;colon", "{brace}", "[0]")
# Codec-only leg: escapes, control characters and multi-line text.
_WILD_TEXT = ('say "hi"', "back\\slash", "tab\there", "bell\x07", "line one\nline two",
              "\n", "  indented\n  block\ntail", "trailing\n", "a\r\nb", "\x00nul")

# Per shape: (depth cap, P(go one deeper; from the cap, back to 0),
#             P(pop to a random shallower depth), P(blank line),
#             P(surplus indent on a first child), P(tab)).
SHAPES = {
    "mixed": (40, 0.30, 0.25, 0.03, 0.02, 0.01),
    "wide": (2, 0.12, 0.80, 0.02, 0.0, 0.0),
    "deep": (300, 0.90, 0.0, 0.01, 0.01, 0.0),
    "ragged": (12, 0.30, 0.30, 0.15, 0.10, 0.08),
    "tree": (6, 0.35, 0.45, 0.02, 0.0, 0.02),
}


def heavy_tail(n: int, lo: float, hi: float) -> "list[int]":
    """n sizes from lo toward hi, most of them near lo.

    The i-th size is the ((i + 0.5) / n)-quantile of lo * (hi/lo) ** (q ** 1.5),
    so every seed draws the same multiset of sizes and only content varies.
    """
    return [round(lo * (hi / lo) ** (((i + 0.5) / n) ** 1.5)) for i in range(n)]


def line_pool(rng: random.Random, n: int = 2048) -> "list[str]":
    pool = []
    for _ in range(n):
        words = [rng.choice(_WORDS) for _ in range(rng.randrange(1, 7))]
        line = " ".join(words)
        roll = rng.random()
        if roll < 0.05:
            line += " "  # trailing space
        elif roll < 0.10:
            line = line.replace(" ", "  ", 1)  # empty word
        pool.append(line)
    return pool


# ---------------------------------------------------------------------------
# documents as (depths, contents)


def doc_lines(rng, shape, pool, lines=None, roots=None, crlf=False):
    """Generate a canonical document of ``lines`` lines (or ``roots`` roots)."""
    cap, p_down, p_pop, p_blank, p_surplus, p_tab = SHAPES[shape]
    depths: "list[int]" = []
    contents: "list[str]" = []
    rnd, choice = rng.random, rng.choice
    depth = -1
    root_count = 0
    while True:
        if lines is not None and len(depths) >= lines:
            break
        r = rnd()
        if depth < 0:
            d = 0
        elif r < p_down:
            d = depth + 1 if depth < cap else 0
        elif r < p_down + p_pop:
            d = int(rnd() * (depth + 1))
        else:
            d = depth
        if d == 0:
            if roots is not None and root_count == roots:
                break
            root_count += 1
        r = rnd()
        if r < p_blank:
            content = ""
        else:
            content = choice(pool)
            if r < p_blank + p_tab:
                content = content.replace(" ", "\t", 1)
            if d > depth and rnd() < p_surplus:  # first child (or first line)
                content = " " * (1 + int(rnd() * 3)) + content
        if crlf:
            content += "\r"
        depths.append(d)
        contents.append(content)
        depth = d
    return depths, contents


def lines_text(depths, contents) -> str:
    return NEWLINE.join([" " * d + c for d, c in zip(depths, contents)])


def path_of(depths, t) -> "list[int]":
    """Node path (child indices from the root) of line t."""
    counts: "list[int]" = []
    for i in range(t + 1):
        d = depths[i]
        del counts[d + 1:]
        if len(counts) == d:
            counts.append(0)
        counts[d] += 1
    return [c - 1 for c in counts]


def subtree_end(depths, t) -> int:
    end, d = t + 1, depths[t]
    while end < len(depths) and depths[end] > d:
        end += 1
    return end


def child_starts(depths, t) -> "list[int]":
    """Line indices of the children of line t, or of the roots if t is -1."""
    d = depths[t] + 1 if t >= 0 else 0
    end = subtree_end(depths, t) if t >= 0 else len(depths)
    return [i for i in range(t + 1, end) if depths[i] == d]


def path_edits(rng, depths, contents, pool, count):
    """Apply ``count`` path edits in place; return them as job operations.

    Operations are ("set", path, line), ("insert", parent_path, index, line)
    and ("delete", path), exactly as a caller of the library would issue
    them; the lists end up holding the expected document.
    """
    ops = []
    for k in range(count):
        kind = ("set", "insert", "delete")[k % 3] if len(depths) > 2 else "insert"
        line = choice_line(rng, pool)
        if kind == "set":
            t = rng.randrange(len(depths))
            ops.append(["set", path_of(depths, t), line])
            contents[t] = line
        elif kind == "delete":
            t = rng.randrange(len(depths))
            ops.append(["delete", path_of(depths, t)])
            end = subtree_end(depths, t)
            del depths[t:end]
            del contents[t:end]
        else:
            t = rng.randrange(-1, len(depths)) if depths else -1
            starts = child_starts(depths, t)
            index = rng.randrange(len(starts) + 1)
            if index == 0 and starts and contents[starts[0]].startswith(" "):
                index = 1  # keep the surplus-indented first child first
            pos = starts[index] if index < len(starts) else (subtree_end(depths, t) if t >= 0 else len(depths))
            d = depths[t] + 1 if t >= 0 else 0
            ops.append(["insert", path_of(depths, t) if t >= 0 else [], index, line])
            depths.insert(pos, d)
            contents.insert(pos, line)
    return ops


def choice_line(rng, pool) -> str:
    return rng.choice(pool).lstrip(" ") or "new"


def profile(texts) -> dict:
    """Shape profile of a set of documents, computed from the text alone."""
    p = {"bytes": 0, "lines": 0, "docs": 0, "roots": 0, "max_depth": 0, "max_fanout": 0,
         "blank_lines": 0, "surplus_indent_lines": 0, "tab_or_cr_lines": 0}
    for text in texts:
        p["docs"] += 1
        p["bytes"] += len(text.encode("utf-8"))
        if text == "":
            continue
        counts: "list[int]" = []
        prev = -1
        for raw in text.split(NEWLINE):
            stripped = raw.lstrip(" ")
            indent = len(raw) - len(stripped)
            d = min(indent, prev + 1)
            if indent > d:
                p["surplus_indent_lines"] += 1
            if stripped == "":
                p["blank_lines"] += 1
            if "\t" in raw or "\r" in raw:
                p["tab_or_cr_lines"] += 1
            del counts[d + 1:]
            if len(counts) == d:
                counts.append(0)
            counts[d] += 1
            if counts[d] > p["max_fanout"]:
                p["max_fanout"] = counts[d]
            if d > p["max_depth"]:
                p["max_depth"] = d
            prev = d
            p["lines"] += 1
        p["roots"] += counts[0]
    return p


# ---------------------------------------------------------------------------
# reference tree model: a node is [content, children]


def ref_parse(text: str) -> list:
    """The notation's depth rule, applied independently of the library."""
    roots: list = []
    if text == "":
        return roots
    spine: list = []
    for raw in text.split(NEWLINE):
        indent = len(raw) - len(raw.lstrip(" "))
        d = min(indent, len(spine))
        node = [raw[d:], []]
        (spine[d - 1][1] if d else roots).append(node)
        del spine[d:]
        spine.append(node)
    return roots


def ref_text(roots) -> str:
    out = []
    stack = [(n, 0) for n in reversed(roots)]
    while stack:
        (content, children), d = stack.pop()
        out.append(" " * d + content)
        stack.extend((c, d + 1) for c in reversed(children))
    return NEWLINE.join(out)


def ref_apply_patch(ops, source):
    """PatchTL replay over the reference model; raises ValueError on misfit."""
    out = []
    i = 0
    for content, children in ops:
        words = content.split(" ")
        if words[0] in ("keep", "delete") and len(words) == 2 and words[1].isdigit() and not children:
            n = int(words[1])
            if i + n > len(source):
                raise ValueError(f"{content} overruns the sibling list")
            if words[0] == "keep":
                out.extend(source[i:i + n])
            i += n
        elif content == "insert":
            out.extend(children)
        elif content == "descend" and i < len(source):
            out.append([source[i][0], ref_apply_patch(children, source[i][1])])
            i += 1
        else:
            raise ValueError(f"bad operation {content!r}")
    if i != len(source):
        raise ValueError("patch left siblings unconsumed")
    return out


def patch_has_edit(ops) -> bool:
    """True when a PatchTL tree holds an insert or delete at any level."""
    stack = list(ops)
    while stack:
        content, children = stack.pop()
        word = content.split(" ", 1)[0]
        if word in ("insert", "delete"):
            return True
        if word == "descend":
            stack.extend(children)
    return False


# ---------------------------------------------------------------------------
# JSON values and their JsonTL / untyped encodings


def json_value(rng, budget, texts, depth=0, keyed_top=False):
    """A JSON value with about ``budget`` nodes, strings drawn from ``texts``."""
    if keyed_top or (budget > 1 and depth < 10):
        width = min(budget - 1, 1 + int(rng.random() ** 2 * 16)) if budget > 1 else 0
        shares = [rng.random() + 0.1 for _ in range(width)]
        total = sum(shares)
        rest = budget - 1
        sizes = [max(1, int(rest * s / total)) for s in shares]
        if keyed_top or rng.random() < 0.55:
            return {f"{rng.choice(_KEYS)}{i}": json_value(rng, n, texts, depth + 1)
                    for i, n in enumerate(sizes)}
        return [json_value(rng, n, texts, depth + 1) for n in sizes]
    r = rng.random()
    if r < 0.40:
        return rng.choice(texts)
    if r < 0.60:
        return rng.randrange(-10 ** 12, 10 ** 12)
    if r < 0.80:
        return rng.choice((0.0, -0.0, 1e20, -2.5e-8, 0.1, round(rng.uniform(-1e6, 1e6), 3)))
    if r < 0.92:
        return rng.random() < 0.5
    return None


_KEYS = ("id", "name", "size", "clé", "tags", "on_off", "x-y", "v", "data", "n")


def _number_text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return value
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return _number_text(value)


def jsontl_text(value) -> str:
    """JsonTL encoding of a JSON value (the README's rules)."""
    out: "list[str]" = []

    def emit(v, key, d):
        ind = " " * d
        if isinstance(v, dict):
            tag = "o"
        elif isinstance(v, list):
            tag = "a"
        elif isinstance(v, str):
            tag = "s"
        elif isinstance(v, bool):
            tag = "b"
        elif v is None:
            tag = "z"
        else:
            tag = "n"
        head = ind + tag + ("" if key is None else " " + key)
        if isinstance(v, dict):
            out.append(head)
            for k, child in v.items():
                emit(child, k, d + 1)
        elif isinstance(v, list):
            out.append(head)
            for child in v:
                emit(child, None, d + 1)
        elif isinstance(v, str) and NEWLINE in v:
            out.append(head)
            out.extend(" " * (d + 1) + line for line in v.split(NEWLINE))
        elif v is None or v == "":
            out.append(head)
        else:
            out.append(head + " " + _scalar_text(v))

    emit(value, None, 0)
    return NEWLINE.join(out)


def untyped_text(value: dict) -> str:
    """The README's display projection of a JSON object."""
    out: "list[str]" = []

    def into(line, v, d):
        if isinstance(v, dict):
            out.append(" " * d + line)
            for k, child in v.items():
                into(k, child, d + 1)
        elif isinstance(v, list):
            out.append(" " * d + line)
            for child in v:
                if not isinstance(child, (dict, list)) and not (isinstance(child, str) and NEWLINE in child):
                    out.append(" " * (d + 1) + " " + _scalar_text(child))
                else:
                    into("", child, d + 1)
        elif isinstance(v, str) and NEWLINE in v:
            out.append(" " * d + line)
            out.extend(" " * (d + 1) + part for part in v.split(NEWLINE))
        else:
            text = _scalar_text(v)
            out.append(" " * d + (line + " " + text if text else line))

    for k, child in value.items():
        into(k, child, 0)
    return NEWLINE.join(out)


def jsontl_typos(rng, text, count):
    """Double the tag letter of ``count`` random lines.

    A doubled tag is one edit from its own tag and two from every other,
    so autofix must restore exactly the original text.  Returns the typo
    text and, for each error check must report, its path and the tag
    autofix should suggest: typos with no typo above them (an unresolved
    node's children are not checked).
    """
    lines = text.split(NEWLINE)
    depths = [len(s) - len(s.lstrip(" ")) for s in lines]
    chosen = sorted(rng.sample(range(len(lines)), min(count, len(lines))))
    for t in chosen:
        d = depths[t]
        lines[t] = lines[t][: d + 1] + lines[t][d:]
    reported = []
    for t in chosen:
        d, above = depths[t], False
        for u in chosen:
            if u < t and depths[u] < d and subtree_end(depths, u) > t:
                above = True
        if not above:
            reported.append([path_of(depths, t), lines[t][d]])
    return NEWLINE.join(lines), reported


def canon(value) -> str:
    """Type-exact rendering for comparing JSON values (1 != true, 1 != 1.0)."""
    return json.dumps(value)
