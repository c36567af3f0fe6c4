"""Every family the README's CLI block names resolves, so the docs cannot
name a spelling the command line rejects."""

import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from finfree.families import closed_form, resolve

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_families():
    text = README.read_text()
    block = re.search(r"## CLI\s*```\n(.*?)```", text, re.S).group(1)
    return re.findall(r"^finfree\s+(\w+)\s.*?--family\s+(\S+)", block, re.M)


def test_the_cli_block_names_families():
    assert {cmd for cmd, _ in _cli_families()} == {"mop", "limit", "density"}


@pytest.mark.parametrize("cmd,name", _cli_families(), ids=lambda v: v)
def test_readme_family_resolves(cmd, name):
    if cmd == "density":
        assert closed_form(name, "densities")(F(1, 3)).support
    else:
        assert resolve(name).name in ("jp1", "jp2", "ml1-1", "ml1-2", "ml2-1", "ml2-2")
