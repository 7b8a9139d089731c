"""Every pin of ``pins.py``, one test each."""
from __future__ import annotations

import pytest

from pins import PINS, check, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    write_inputs(root)
    return root


@pytest.mark.parametrize("name, argv, kind, want", PINS, ids=[p[0] for p in PINS])
def test_pin(inputs, name, argv, kind, want):
    error = check(argv, kind, want, inputs)
    assert error is None, error
