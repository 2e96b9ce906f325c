"""ASCII plot renderer tests."""

import pytest

from repro.analysis.plots import ascii_roofline
from repro.sim import get_system

V100 = get_system("Tesla_V100")


def test_roofline_plot_contains_roof_and_points():
    # A memory-bound and a compute-bound point.
    art = ascii_roofline([0.25, 200.0], [0.1, 12.0], V100, width=40,
                         height=10)
    assert "ridge 17.44" in art
    assert "/" in art and "-" in art and "o" in art
    lines = art.splitlines()
    assert len([l for l in lines if l.startswith("|")]) == 10


def test_roofline_rejects_empty():
    with pytest.raises(ValueError):
        ascii_roofline([], [], V100)
    with pytest.raises(ValueError):
        ascii_roofline([0.0], [0.0], V100)


def test_plots_from_real_profile(cnn_profile):
    from repro.analysis import kernel_coordinates

    _, intensities, throughputs = kernel_coordinates(cnn_profile)
    art = ascii_roofline(intensities, throughputs, cnn_profile.gpu)
    assert "o" in art
