"""Count the code lines of each ``src/treetext`` module.

A line is a code line if it holds a token other than a comment, a
newline or indentation, and it is not part of a module, class or
function docstring.  A token that spans several lines, such as a
triple-quoted string, counts on every line it covers.  Blank lines,
comment lines and docstrings therefore do not count, so the total
follows the amount of code rather than its layout.

Run from the repository root (standard library only)::

    python3 tools/code_lines.py [directory]

It prints one ``<count> <module>`` line per module, sorted by name,
then ``<count> total``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main(argv: "list[str]") -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/treetext")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
