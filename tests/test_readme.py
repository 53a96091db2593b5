"""The README's examples run as written: every ``python`` block is executed
in a fresh namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
