"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    section = section[: section.index("\n## ", 1)]
    [block] = re.findall(r"```python\n(.*?)```", section, re.S)
    # the block asserts the golden sextic's mu, nu and rank itself
    assert "assert" in block
    exec(compile(block, "README.md", "exec"), {})
