"""The README's Python examples and CLI session run as written and show
true values.

The ```python blocks run in order in one namespace; each line of the form
``expr  # -> text`` asserts ``repr(expr) == text`` at that point. Each
``$ strongcenter ...`` line of the session runs in one directory, and its
stdout must match the lines below it, up to ``time-ms``.
"""

import pathlib
import re
import shlex

from strongcenter import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_SESSION = re.compile(r"^```\n(\$ .*?)^```", re.M | re.S)


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


def test_readme_cli_session_reproduces(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (session,) = _SESSION.findall(README.read_text(encoding="utf-8"))
    codes = []
    for entry in session.split("$ ")[1:]:
        command, _, want = entry.partition("\n")
        program, *argv = shlex.split(command)
        assert program == "strongcenter"
        codes.append(cli.main(argv))
        out, err = capsys.readouterr()
        assert err == ""
        above = out.partition("time-ms: ")[0]
        assert above == want.partition("time-ms: ")[0], command
    assert codes == [0, 1]
