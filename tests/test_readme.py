"""The README's library example runs and prints the lines its closing
comments give."""

from itertools import takewhile
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
EXAMPLE = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_closing_comments(capsys):
    comments = list(takewhile(lambda line: line.startswith("# "), reversed(EXAMPLE.splitlines())))
    expected = [line[2:] for line in reversed(comments)]
    assert expected  # the block ends with the output it documents
    exec(compile(EXAMPLE, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
