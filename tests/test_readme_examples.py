"""The `python` blocks of README.md run, in order, in one namespace.

They run in a directory holding `key.fasta`, the suite's 65,540-base
random key, so a documentation edit that breaks an example fails here.
"""

import random
import re
from pathlib import Path

import pytest

import dnamagic
from conftest import KEY_SEED, random_bases

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.filterwarnings("error")  # so an example that leaves a file open fails
def test_readme_python_examples_run(tmp_path, monkeypatch):
    (tmp_path / "key.fasta").write_text(random_bases(random.Random(KEY_SEED), 65540))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for number, block in enumerate(BLOCKS, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_mentions_every_public_name():
    text = README.read_text()
    assert [name for name in dnamagic.__all__ if not re.search(rf"\b{name}\b", text)] == []
