"""PGM encoding, raster container and the JSON report round trip."""

import numpy as np
import pytest

from lmprint import RasterImage, make_report, read_pgm, read_report, \
    write_pgm, write_report
from lmprint.errors import ConfigError, DrawingFormatError
from lmprint.raster import RunRaster, pgm_parts


def test_minimal_pgm_is_canonical_12_bytes():
    img = RasterImage(width=1, height=1, scale=0.1,
                      cells=np.zeros((1, 1), dtype=np.uint8))
    blob = write_pgm(img)
    assert blob == b"P5\n1 1\n255\n\x00"
    assert len(blob) == 12


def test_pgm_parts_are_the_header_and_the_canvas_itself():
    cells = np.arange(12, dtype=np.uint8).reshape(3, 4)
    img = RasterImage(width=4, height=3, scale=0.1, cells=cells)
    header, body = pgm_parts(img)
    assert header == b"P5\n4 3\n255\n"
    assert body.obj is img.cells  # the canvas's buffer, not a copy
    assert header + bytes(body) == write_pgm(img)


def test_run_raster_paints_its_runs():
    # background 1, ink 3, background 0, ink 2, background 2
    img = RunRaster(width=4, height=2, scale=0.5, runs=[1, 3, 0, 2, 2])
    assert img.occupied_area_mm2() == 5 * 0.25
    assert "cells" not in vars(img)
    assert img.cells.tolist() == [[0, 255, 255, 255], [255, 255, 0, 0]]
    canvas = RasterImage(width=4, height=2, scale=0.5, cells=img.cells)
    assert write_pgm(img) == write_pgm(canvas) and img == canvas
    # [0.5, 8.7] would read as [0, 8] if cast to integers
    for runs in ([1, 3, 0, 2, 1], [9, -1], [[8]], [0.5, 8.7], [4.0, 4.0]):
        with pytest.raises(ConfigError, match="runs"):
            RunRaster(width=4, height=2, scale=0.5, runs=runs)


def test_pgm_round_trip():
    rng = np.random.default_rng(7)
    cells = (rng.integers(0, 2, size=(13, 9)) * 255).astype(np.uint8)
    img = RasterImage(width=9, height=13, scale=0.05, cells=cells,
                      origin_mm=(-1.0, 4.0))
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


def test_raster_validation():
    with pytest.raises(ConfigError):
        RasterImage(width=2, height=2, scale=0.1,
                    cells=np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ConfigError):
        RasterImage(width=0, height=1, scale=0.1,
                    cells=np.zeros((1, 0), dtype=np.uint8))
    with pytest.raises(ConfigError):
        RasterImage(width=1, height=1, scale=0.0,
                    cells=np.zeros((1, 1), dtype=np.uint8))


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_non_finite_scale_rejected(scale):
    with pytest.raises(ConfigError, match="finite"):
        read_pgm(b"P5\n2 1\n255\n\xff\x00", scale=scale)


def test_occupied_area():
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[:2, :2] = 255
    img = RasterImage(width=4, height=4, scale=0.5, cells=cells)
    assert img.occupied_area_mm2() == pytest.approx(4 * 0.25)


def test_empty_report_has_all_sections():
    report = make_report()
    assert report["version"] == 1
    for key in ("drawing", "toolpath", "traces", "totals", "checks"):
        assert key in report
    assert report["traces"] == []


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
        write_report({"version": 2})
    with pytest.raises(DrawingFormatError):
        read_report(b'{"version": 99}')
    with pytest.raises(DrawingFormatError):
        read_report(b"not json")
