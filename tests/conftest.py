"""Fixtures shared by the test modules."""

import importlib
import itertools

import pytest


@pytest.fixture
def no_long_permutation_lists(monkeypatch):
    """Make ``blowup`` fail at once where it would list the r! label
    permutations for r >= 11, gigabytes of tuples, instead of trying."""
    blowup_mod = importlib.import_module("hyperspec.blowup")

    def permutations(labels):
        assert len(labels) < 11, f"blowup lists {len(labels)}! label permutations"
        return itertools.permutations(labels)

    monkeypatch.setattr(blowup_mod, "permutations", permutations)
