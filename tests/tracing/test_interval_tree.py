"""Interval tree: unit + property-based tests against a naive oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interval_tree import Interval, IntervalTree


def test_interval_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(10, 5)


def test_interval_contains_point_inclusive():
    iv = Interval(10, 20)
    assert iv.contains_point(10)
    assert iv.contains_point(20)
    assert not iv.contains_point(21)


def test_interval_containment_and_overlap():
    outer, inner = Interval(0, 100), Interval(10, 20)
    assert outer.contains_interval(inner)
    assert not inner.contains_interval(outer)
    assert Interval(0, 10).overlaps(Interval(10, 20))  # touching counts
    assert not Interval(0, 9).overlaps(Interval(10, 20))


def test_empty_tree():
    tree = IntervalTree([])
    assert tree.stab(5) == []
    assert tree.containing(Interval(0, 1)) == []
    assert tree.overlapping(Interval(0, 1)) == []
    assert tree.tightest_containing(Interval(0, 1)) is None


def test_stab_simple():
    tree = IntervalTree([Interval(0, 10, "a"), Interval(5, 15, "b"),
                         Interval(20, 30, "c")])
    assert sorted(iv.data for iv in tree.stab(7)) == ["a", "b"]
    assert [iv.data for iv in tree.stab(25)] == ["c"]
    assert tree.stab(16) == []


def test_containing_query():
    tree = IntervalTree([Interval(0, 100, "outer"), Interval(10, 50, "mid"),
                         Interval(20, 30, "tight")])
    found = sorted(iv.data for iv in tree.containing(Interval(22, 28)))
    assert found == ["mid", "outer", "tight"]


def test_tightest_containing_prefers_smallest():
    tree = IntervalTree([Interval(0, 100, "outer"), Interval(10, 50, "mid")])
    assert tree.tightest_containing(Interval(20, 30)).data == "mid"


def test_duplicate_intervals_all_returned():
    tree = IntervalTree([Interval(0, 10, "a"), Interval(0, 10, "b")])
    assert sorted(iv.data for iv in tree.stab(5)) == ["a", "b"]


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 1000)).map(
        lambda t: Interval(min(t), max(t))
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(intervals=intervals_strategy, point=st.integers(-10, 1010))
def test_stab_matches_naive_oracle(intervals, point):
    tree = IntervalTree(intervals)
    expected = sorted(
        (iv.start, iv.end) for iv in intervals if iv.contains_point(point)
    )
    actual = sorted((iv.start, iv.end) for iv in tree.stab(point))
    assert actual == expected


@settings(max_examples=120, deadline=None)
@given(
    intervals=intervals_strategy,
    q=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)
def test_containing_matches_naive_oracle(intervals, q):
    query = Interval(min(q), max(q))
    tree = IntervalTree(intervals)
    expected = sorted(
        (iv.start, iv.end) for iv in intervals if iv.contains_interval(query)
    )
    actual = sorted((iv.start, iv.end) for iv in tree.containing(query))
    assert actual == expected


@settings(max_examples=120, deadline=None)
@given(
    intervals=intervals_strategy,
    q=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)
def test_overlapping_matches_naive_oracle(intervals, q):
    query = Interval(min(q), max(q))
    tree = IntervalTree(intervals)
    expected = sorted(
        (iv.start, iv.end) for iv in intervals if iv.overlaps(query)
    )
    actual = sorted((iv.start, iv.end) for iv in tree.overlapping(query))
    assert actual == expected
