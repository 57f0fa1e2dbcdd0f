"""The public surface: every exported name resolves, and README's library
quick start runs as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import mtsfm_cpm

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block():
    """The python block under README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_stated_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start_block(), {})
    sc, psl_db = map(float, out.getvalue().split())
    assert sc == pytest.approx(0.903, abs=5e-4)
    assert psl_db <= -28.0


def test_every_public_name_resolves_once():
    names = mtsfm_cpm.__all__
    for name in names:
        getattr(mtsfm_cpm, name)
    assert len(set(names)) == len(names) == 46  # 45 names and __version__
