"""PGM encoding, raster container and the JSON report round trip."""

from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmprint import RasterImage, make_report, raster, read_pgm, \
    read_report, write_pgm, write_report
from lmprint.errors import ConfigError, DrawingFormatError
from lmprint.raster import pgm_parts

# numpy warnings fail these tests: each np.errstate of the span kernel must
# cover the operations that warn on purpose (a row that misses an outline,
# a flat segment), and no wider
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_minimal_pgm_is_canonical_12_bytes():
    img = RasterImage.from_cells(1, 1, 0.1, np.zeros((1, 1), dtype=np.uint8))
    blob = write_pgm(img)
    assert blob == b"P5\n1 1\n255\n\x00"
    assert len(blob) == 12


@st.composite
def _canvases(draw):
    """A binary canvas of up to 5 x 8 pixels."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    ink = draw(st.lists(st.booleans(), min_size=height * width,
                        max_size=height * width))
    return (np.array(ink, dtype=np.uint8) * 255).reshape(height, width)


@settings(max_examples=200, deadline=None)
@given(_canvases(), st.sampled_from((1, 2, 5)))
@example(np.zeros((2, 3), dtype=np.uint8), 2)
@example(np.full((2, 3), 255, dtype=np.uint8), 2)
@example(np.array([[255, 0, 0]], dtype=np.uint8), 1)
@example(np.array([[0, 0], [0, 255]], dtype=np.uint8), 1)
def test_runs_hold_the_canvas(cells, band):
    # bands of 1, 2 and 5 pixels, so runs cross band edges
    # from_cells keeps numpy's runs, painted with numpy; the same runs
    # given as a list are an array('q'), painted in Python
    height, width = cells.shape
    img = RasterImage.from_cells(width, height, 0.25, cells,
                                 origin_mm=(-1.0, 4.0))
    listed = RasterImage(width, height, 0.25, img.runs.tolist(),
                         origin_mm=(-1.0, 4.0))
    assert isinstance(listed.runs, array) and listed == img == listed
    for image in (img, listed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "_PGM_BAND", band)
            assert b"".join(pgm_parts(image)) == (
                b"P5\n%d %d\n255\n" % (width, height) + cells.tobytes())
        assert image.occupied_area_mm2() == \
            np.count_nonzero(cells) * 0.25 * 0.25
        assert "cells" not in vars(image)
        assert np.array_equal(image.cells, cells)
        assert read_pgm(write_pgm(image), 0.25, origin_mm=(-1.0, 4.0)) == image
    assert np.asarray(listed.runs).dtype == np.int64


@pytest.mark.parametrize("runs", [
    [1, 3, 0, 2, 2],  # an empty run inside
    [9, -1], [-1, 9, 0], [[8]],
    [0.5, 8.7],  # would read as [0, 8] if cast to integers
    [4.0, 4.0], [3, 5], [0, 8, 0, 0], []])
def test_non_canonical_runs_rejected(runs):
    # a list is checked in Python, an ndarray with numpy
    for given in (runs, np.array(runs)):
        with pytest.raises(ConfigError, match="runs"):
            RasterImage(width=4, height=2, scale=0.5, runs=given)


def test_pgm_round_trip():
    rng = np.random.default_rng(7)
    cells = (rng.integers(0, 2, size=(13, 9)) * 255).astype(np.uint8)
    img = RasterImage.from_cells(9, 13, 0.05, cells, origin_mm=(-1.0, 4.0))
    back = read_pgm(write_pgm(img), scale=0.05, origin_mm=(-1.0, 4.0))
    assert back == img
    assert write_pgm(back) == write_pgm(img)


def test_pgm_rejects_noncanonical():
    with pytest.raises(DrawingFormatError):
        read_pgm(b"P2\n1 1\n255\n0", scale=0.1)
    with pytest.raises(DrawingFormatError):
        read_pgm(b"P5\n2 2\n255\n\x00\x00\x00", scale=0.1)  # short payload
    with pytest.raises(DrawingFormatError):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00", scale=0.1)
    with pytest.raises(DrawingFormatError, match="0 or 255"):
        read_pgm(b"P5\n3 1\n255\n\xff\x07\x00", scale=0.1)  # not binary
    with pytest.raises(DrawingFormatError, match="under 1x1"):
        read_pgm(b"P5\n-1 -1\n255\n\x00", scale=0.1)  # -1 * -1 bytes
    with pytest.raises(DrawingFormatError, match="under 1x1"):
        read_pgm(b"P5\n0 3\n255\n", scale=0.1)


def test_raster_validation():
    with pytest.raises(ConfigError):
        RasterImage.from_cells(2, 2, 0.1, np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ConfigError):
        RasterImage.from_cells(0, 1, 0.1, np.zeros((1, 0), dtype=np.uint8))
    with pytest.raises(ConfigError):
        RasterImage.from_cells(1, 1, 0.0, np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(DrawingFormatError, match="0 or 255"):
        RasterImage.from_cells(2, 1, 0.1, np.array([[0, 7]], dtype=np.uint8))


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_non_finite_scale_rejected(scale):
    with pytest.raises(ConfigError, match="finite"):
        read_pgm(b"P5\n2 1\n255\n\xff\x00", scale=scale)


def test_occupied_area():
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[:2, :2] = 255
    img = RasterImage.from_cells(4, 4, 0.5, cells)
    assert img.occupied_area_mm2() == pytest.approx(4 * 0.25)


def test_empty_report_has_all_sections():
    report = make_report()
    assert report["version"] == 3
    for key in ("drawing", "toolpath", "physics", "traces", "totals",
                "checks"):
        assert key in report
    assert report["physics"] == report["traces"] == []


def test_report_round_trip_and_sorted_keys():
    report = make_report(totals={"b": 2.0, "a": 1.5},
                         checks={"z": [1, 2], "m": {"nested": True}})
    blob = write_report(report)
    assert read_report(blob) == report
    text = blob.decode()
    assert text.index('"checks"') < text.index('"drawing"') < \
        text.index('"toolpath"') < text.index('"version"')
    # canonical: re-serialization is byte-identical
    assert write_report(read_report(blob)) == blob


def test_report_version_enforced():
    with pytest.raises(DrawingFormatError):
        write_report({"version": 1})
    with pytest.raises(DrawingFormatError):
        read_report(b'{"version": 1}')
    with pytest.raises(DrawingFormatError):
        read_report(b'{"version": 2}')
    with pytest.raises(DrawingFormatError):
        read_report(b'{"version": 99}')
    with pytest.raises(DrawingFormatError):
        read_report(b"not json")


@pytest.mark.parametrize("ref", ["1", "-1", "true", "0.0", "null"])
def test_read_report_refuses_a_physics_index_that_does_not_resolve(ref):
    good = ('{"version": 3, "physics": [{"width_m": 1e-4}], "traces": '
            '[{"physics": 0}, {"physics": %s}]}')
    assert read_report(good % "0")["traces"][1]["physics"] == 0
    with pytest.raises(DrawingFormatError, match="trace 1"):
        read_report(good % ref)
