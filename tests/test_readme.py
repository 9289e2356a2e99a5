"""The README's Python examples run as written and show true values.

The ```python blocks run in order in one namespace; each line of the form
``expr  # -> text`` asserts ``repr(expr) == text`` at that point.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_readme_examples_show_their_values():
    namespace: dict = {}
    checked = 0
    for block in _BLOCK.findall(README.read_text(encoding="utf-8")):
        pending = []
        for line in block.splitlines():
            expr, arrow, want = line.partition("# ->")
            if not arrow:
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            assert repr(eval(expr.strip(), namespace)) == want.strip(), line
            checked += 1
        exec("\n".join(pending), namespace)
    assert checked > 0
