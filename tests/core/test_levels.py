"""Profiling level-set tests."""

import pytest

from repro.core.levels import LADDER, M, ML, MLG, ProfilingLevelSet
from repro.tracing import Level


def test_labels():
    assert M.label == "M"
    assert ML.label == "M/L"
    assert MLG.label == "M/L/G"


def test_membership():
    assert Level.MODEL in M and Level.LAYER not in M
    assert Level.LAYER in ML
    assert Level.GPU_KERNEL in MLG


def test_deepest():
    assert M.deepest == Level.MODEL
    assert MLG.deepest == Level.GPU_KERNEL


def test_parse_round_trip():
    for level_set in LADDER:
        assert ProfilingLevelSet.parse(level_set.label) == level_set
    with pytest.raises(ValueError):
        ProfilingLevelSet.parse("M/X")


def test_ladder_is_cumulative():
    for shallow, deep in zip(LADDER, LADDER[1:]):
        assert shallow.levels < deep.levels
