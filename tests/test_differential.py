"""tools/differential.py: the same tree gives identical records, and a changed tree is found."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "differential.py"
_spec = importlib.util.spec_from_file_location("differential", TOOL)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def _record(stdout: str, exit: int = 0, stderr: str = "") -> dict:
    return {"input": "t", "argv": ["check", "t.ito", "--json"], "exit": exit, "stderr": stderr,
            "stdout": stdout}


@pytest.fixture(scope="module")
def head_src(tmp_path_factory) -> Path:
    probe = subprocess.run(["git", "-C", str(TOOL.parent), "rev-parse", "HEAD"], capture_output=True)
    if probe.returncode:
        pytest.skip("not a git checkout")
    return differential.export("HEAD", tmp_path_factory.mktemp("tree") / "head")


class TestCompare:
    def test_identical_records(self):
        records = [_record('{"a":1.5}'), _record("x", exit=1, stderr="error")]
        assert differential.compare(records, [dict(r) for r in records]) == (2, [])

    def test_largest_numeric_difference(self):
        base, head = _record('{"a":[1.5,2,-3e-2]}'), _record('{"a":[1.5,2.25,-1e-2]}')
        same, lines = differential.compare([base], [head])
        assert same == 0 and lines == ["t: check --json: largest numeric difference 0.25"]

    def test_exit_code_and_unpaired_numbers(self):
        _, lines = differential.compare([_record("1 2", exit=0)], [_record("1", exit=2)])
        assert lines == ["t: check --json: numbers do not pair, exit 0 -> 2"]

    def test_stderr_counts(self):
        _, lines = differential.compare([_record("", stderr="line 3")], [_record("", stderr="line 4")])
        assert lines == ["t: check --json: largest numeric difference 1"]

    def test_runtime_is_stripped(self):
        assert differential._RUNTIME.sub(r"\1", '[{"kind":"x","runtime_ms":0.25,"seed":null}]') == (
            '[{"kind":"x","runtime_ms":,"seed":null}]')


class TestRuns:
    def test_head_against_head_is_identical(self, head_src, tmp_path):
        total, same, lines = differential.differential(head_src, head_src, tmp_path, small=True)
        assert total > 40 and same == total and lines == []

    def test_changed_tree_is_found(self, head_src, tmp_path):
        # a writer that moves every 1.0 of a JSON payload to 1.5 differs by 0.5 on those records
        mutant = tmp_path / "mutant" / "src"
        shutil.copytree(head_src, mutant)
        cli = mutant / "itoalg" / "cli.py"
        text = cli.read_text()
        assert "print(_dumps(payload()))" in text
        moved = 'print(_dumps(payload()).replace("1.0", "1.5"))'
        cli.write_text(text.replace("print(_dumps(payload()))", moved))
        total, same, lines = differential.differential(head_src, mutant, tmp_path / "out", small=True)
        assert 0 < same < total and len(lines) == total - same
        assert all(line.endswith("largest numeric difference 0.5") for line in lines)
