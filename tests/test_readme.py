"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import mindeg

README = Path(__file__).resolve().parents[1] / "README.md"

# the printed lines, in order, as the example's comments give them
EXPECTED = ["(1, 3, 0)", "0", "[0, 1, 0]", "Certificate",
            "Infeasible True"]


def _library_block():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    block = _library_block()
    for value in EXPECTED:
        assert "# " + value in block, value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == EXPECTED


def test_every_exported_name_resolves():
    assert len(set(mindeg.__all__)) == len(mindeg.__all__)
    for name in mindeg.__all__:
        assert hasattr(mindeg, name), name
