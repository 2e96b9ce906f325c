"""VirtualClock unit tests."""

import pytest

from repro.sim import VirtualClock


def test_starts_at_zero():
    assert VirtualClock().now() == 0


def test_advance():
    c = VirtualClock()
    assert c.advance(100) == 100
    assert c.advance_us(1.5) == 1600
    assert c.advance(1000.4) == 2600


def test_advance_negative_rejected():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1)


def test_advance_rounds_fractional_ns():
    c = VirtualClock()
    c.advance(0.6)
    assert c.now() == 1
