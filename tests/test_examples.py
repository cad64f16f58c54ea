"""Every example script runs to completion against the current library.

Each ``examples/*.py`` runs in-process as ``__main__`` with its default
arguments, on an empty memory-only trace cache, so a library API change
that breaks an example fails here rather than in a reader's terminal.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 11


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, fresh_cache, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{path.name} exited with {exc.code}"
    assert capsys.readouterr().out
