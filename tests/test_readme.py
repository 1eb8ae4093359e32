"""The library examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def test_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    namespace = {}
    for number, block in enumerate(blocks, 1):
        code = compile(block, f"README.md python block {number}", "exec")
        exec(code, namespace)
