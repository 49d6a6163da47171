"""Every ``python`` block of README.md runs as written, so an API change
cannot break the documented quick start silently."""

import re
import time
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks, "README.md has no python block"
    start = time.perf_counter()
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert time.perf_counter() - start < 1.0
