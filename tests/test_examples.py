"""The fast example scripts must stay runnable (import-and-main smoke).

The long examples (fingerprinting demos) are exercised through the
experiments they wrap; the quick ones run here end-to-end so the README
never rots.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "cross-VM DSA activity observed" in out

    def test_defense_monitoring(self, capsys):
        run_example("defense_monitoring.py")
        out = capsys.readouterr().out
        assert "detector raised" in out
        assert "jammed" in out

    def test_reverse_engineering_tour(self, capsys):
        run_example("reverse_engineering_tour.py")
        out = capsys.readouterr().out
        assert "every paper observation reproduced: True" in out

    def test_all_examples_importable(self):
        """Every example at least parses and imports its dependencies."""
        for path in sorted(EXAMPLES.glob("*.py")):
            source = path.read_text()
            compile(source, str(path), "exec")

    def test_examples_have_docstrings_and_main(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            source = path.read_text()
            assert source.lstrip().startswith(('#!/usr/bin/env python3', '"""')), path
            assert "def main()" in source, path
            assert '__main__' in source, path
