"""tools/mutants.py on a small fixture tree: killed, surviving, timed-out and skipped mutants."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"

FIXTURE = '''def count_up(n):
    """Counts from 0 to n."""
    i = 0
    while i < n:
        i += 1
    unused = n
    return i
'''

FIXTURE_TEST = '''from fixture import count_up


def test_count_up():
    assert count_up(3) == 3
'''


@pytest.fixture
def mutants(monkeypatch):
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "KNOWN_EQUIVALENTS",
                        {("src/fixture.py", "count_up", "return i"): "skipped for this test"})
    return module


@pytest.mark.skipif(sys.platform == "win32", reason="timeouts stop a POSIX process group")
def test_sampler_reports_each_outcome(tmp_path, mutants):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "fixture.py").write_text(FIXTURE)
    (tree / "tests" / "test_fixture.py").write_text(FIXTURE_TEST)
    report = mutants.sample(tree, ["src/fixture.py"])
    assert report["timeout_s"] > 0  # three times the unmutated run, which took a moment
    assert report["modules"] == {"src/fixture.py": {
        "statements": 5, "killed": 2, "survived": 1, "timeouts": 1, "skipped": 1}}
    assert report["survivors"] == [{"file": "src/fixture.py", "line": 6, "statement": "unused = n"}]
    assert report["timeouts"] == [{"file": "src/fixture.py", "line": 5, "statement": "i += 1"}]
    # the copy was mutated, never the tree itself
    assert (tree / "src" / "fixture.py").read_text() == FIXTURE


def test_sampler_refuses_a_tree_whose_tests_fail(tmp_path, mutants, monkeypatch, capsys):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "fixture.py").write_text(FIXTURE.replace("return i", "return -i"))
    (tree / "tests" / "test_fixture.py").write_text(FIXTURE_TEST)
    monkeypatch.setattr(mutants, "ROOT", tree)
    assert mutants.main(["src/fixture.py"]) == 2
    assert capsys.readouterr().err == "the unmutated tree fails its tests\n"


def test_deleting_an_elif_branch_leaves_its_if_with_an_empty_else(mutants):
    source = (b"def sign(x):\n    if x > 0:\n        return 1\n"
              b"    elif x < 0:\n        return -1\n    return 0\n")
    [branch] = [node for _, node in mutants.statements(ast.parse(source)) if node.lineno == 4]
    namespace = {}
    exec(compile(mutants.delete(source, branch), "sign", "exec"), namespace)
    assert [namespace["sign"](x) for x in (5, -5, 0)] == [1, 0, 0]


def test_pass_and_bare_strings_are_not_mutated(mutants):
    source = b'def f():\n    """Doc."""\n    "note"\n    x = 1\n    pass\n    return x\n'
    assert [node.lineno for _, node in mutants.statements(ast.parse(source))] == [4, 6]
