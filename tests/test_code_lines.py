"""The committed code-line counter, `tests/code_lines.py`."""

from code_lines import count_code_lines

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment

def f(x):
    """Function docstring."""
    return max(  # a trailing comment
        x,
        """a string, not a docstring,
        over two lines""",
    )
'''


def test_counts_lines_that_hold_a_code_token():
    # the `def` line and the call's five, the two-line string included;
    # not the docstrings, the comment line or the blank lines
    assert count_code_lines(SNIPPET) == 6
