"""The mutant table of ``tests/mutants.py`` stays applicable.

Running the table takes minutes, so the fast suite checks only that every
mutant can be applied to today's code: its old text occurs exactly once in
its file, and each test it names exists.  A test named as ``file::name``
must be defined in that file.
"""
from __future__ import annotations

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_and_names_existing_tests(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    for target in mutant.tests:
        path, *names = target.split("::")
        assert (ROOT / path).exists(), target
        if names:
            text = (ROOT / path).read_text(encoding="utf-8")
            name = names[0].split("[")[0]
            assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), target
