"""Every ```python block of README.md runs as written, each in a fresh
namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("i", range(len(BLOCKS)))
def test_readme_block_runs(i):
    exec(compile(BLOCKS[i], f"README.md block {i}", "exec"), {})
