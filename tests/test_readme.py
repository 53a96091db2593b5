"""The README's examples run as written: every ``python`` block is executed
in a fresh namespace, and every command line of its "Command line" block
parses."""

import re
import shlex
from pathlib import Path

from quantkmeans.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def test_every_command_line_parses():
    block = re.search(r"^## Command line\n\n```\n(.*?)^```",
                      README.read_text(encoding="utf-8"), re.S | re.M)
    commands = [shlex.split(line)
                for line in block.group(1).replace("\\\n", " ").splitlines()]
    assert commands and all(words[0] == "quantkmeans" for words in commands)
    parser = build_parser()
    for words in commands:
        # argparse exits with status 2 on an unknown flag
        parser.parse_args(words[1:])
