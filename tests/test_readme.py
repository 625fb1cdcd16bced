"""README's Quick start runs as written against the package."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_python_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no Python block under Quick start"
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "BoundsReport(" in out
