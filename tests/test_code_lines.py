import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skip_layout_comments_and_docstrings():
    source = (
        '"""Module docstring,\n\non three lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # code with a comment\n"
        "\n"
        "class A:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        "        text = '''a string\n"
        "over two lines'''\n"
        "        return (text,\n"
        "                os.sep)\n"
    )
    # import, class, def, the two string lines and the two return lines
    assert _code_lines()(source) == 7
