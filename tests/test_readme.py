"""The README's python examples run, and show the values they return."""

import ast
import io
import re
import tokenize
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> "list[str]":
    return re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"), re.S | re.M)


def _literal_comments(block: str) -> "dict[int, object]":
    """Map each line number to the value of its comment, for each comment
    that is a python literal; prose comments are left out."""
    values = {}
    for token in tokenize.generate_tokens(io.StringIO(block).readline):
        if token.type == tokenize.COMMENT:
            try:
                values[token.start[0]] = ast.literal_eval(token.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return values


def test_readme_python_examples_run_and_show_their_values():
    blocks = _python_blocks()
    assert blocks
    namespace: dict = {}
    shown = 0
    for block in blocks:
        comments = _literal_comments(block)
        for statement in ast.parse(block).body:
            # `expr  # <literal>` on one line: the comment is the value the expression has.
            one_line = statement.lineno == statement.end_lineno
            if isinstance(statement, ast.Expr) and one_line and statement.lineno in comments:
                value = eval(compile(ast.Expression(statement.value), str(_README), "eval"), namespace)
                assert value == comments[statement.lineno], ast.unparse(statement)
                shown += 1
            else:
                exec(compile(ast.Module([statement], type_ignores=[]), str(_README), "exec"), namespace)
    assert shown
