"""Grayscale occupancy rasters and the binary PGM (P5) writer.

The raster is georeferenced: origin_mm is the (x, y) of the top-left pixel
corner, rows run toward decreasing y (image convention). PGM carries no
scale, so reading one back needs the scale repeated; pixel content and
dimensions round-trip bit-exactly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import Record
from .errors import ConfigError, DrawingFormatError

if TYPE_CHECKING:
    import numpy as np


class RasterImage(Record):
    """Occupancy grid: cells is a (height, width) uint8 array, scale mm/px."""

    width: int
    height: int
    scale: float
    cells: np.ndarray
    origin_mm: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("raster dimensions must be >= 1")
        if not (0 < self.scale < math.inf):
            raise ConfigError("raster scale must be finite and > 0")
        import numpy as np
        cells = np.ascontiguousarray(self.cells, dtype=np.uint8)
        if cells.shape != (self.height, self.width):
            raise ConfigError(
                f"cells shape {cells.shape} does not match "
                f"(height, width)=({self.height}, {self.width})")
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        import numpy as np
        return (self.width == other.width and self.height == other.height
                and self.scale == other.scale and self.origin_mm == other.origin_mm
                and np.array_equal(self.cells, other.cells))

    def occupied_area_mm2(self) -> float:
        """Area covered by nonzero pixels."""
        import numpy as np
        return float(np.count_nonzero(self.cells)) * self.scale * self.scale


def pgm_parts(image: RasterImage) -> tuple[bytes, memoryview]:
    """The PGM header and the cells' own buffer, which follows it.

    Writing the two in turn writes the PGM without a copy of the canvas.
    """
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header, image.cells.data


def write_pgm(image: RasterImage) -> bytes:
    """Binary PGM, maxval 255, row-major.

    The canonical header is b"P5\\n<width> <height>\\n255\\n"; a 1x1 zero
    image is exactly b"P5\\n1 1\\n255\\n\\x00" (12 bytes). Output is
    byte-identical across runs and platforms.
    """
    return b"".join(pgm_parts(image))


def read_pgm(data: bytes, scale: float,
             origin_mm: tuple[float, float] = (0.0, 0.0)) -> RasterImage:
    """Parse canonical P5 bytes back into a RasterImage.

    PGM stores no physical scale, so the caller supplies it; with the same
    scale and origin the write/read round trip is the identity.
    """
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise DrawingFormatError("not a canonical P5 PGM")
    try:
        w, h = (int(v) for v in parts[1].split())
    except ValueError as exc:
        raise DrawingFormatError("bad PGM dimensions") from exc
    if parts[2] != b"255":
        raise DrawingFormatError("PGM maxval must be 255")
    payload = parts[3]
    if len(payload) != w * h:
        raise DrawingFormatError(
            f"PGM payload is {len(payload)} bytes, expected {w * h}")
    import numpy as np
    cells = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return RasterImage(width=w, height=h, scale=scale, cells=cells,
                       origin_mm=origin_mm)
