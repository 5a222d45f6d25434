"""Binary occupancy rasters, held as run lengths, and the binary PGM (P5)
writer, which paints the PGM in bands from the runs without a canvas.

The raster is georeferenced: origin_mm is the (x, y) of the top-left pixel
corner, rows run toward decreasing y (image convention). PGM carries no
scale, so reading one back needs the scale repeated; pixel content and
dimensions round-trip bit-exactly.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

from .core import Record
from .errors import ConfigError, DrawingFormatError

if TYPE_CHECKING:
    import numpy as np

# pixels per PGM body chunk: each chunk is painted from the runs it crosses
# and written before the next, so no canvas is held
_PGM_BAND = 1 << 20


class RasterImage(Record):
    """A binary raster at scale mm/px, held as run lengths, row-major over
    width * height pixels: runs alternates 0 and 255, background first.
    The form is canonical (an odd count; only the first and last run may
    be 0), so equal pixels are equal runs. cells, the (height, width)
    uint8 canvas, is built on first read and kept."""

    width: int
    height: int
    scale: float
    runs: np.ndarray
    origin_mm: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("raster dimensions must be >= 1")
        if not (0 < self.scale < math.inf):
            raise ConfigError("raster scale must be finite and > 0")
        import numpy as np
        runs = np.asarray(self.runs)
        # a float length would be truncated by a cast, so none is taken
        if runs.dtype.kind not in "iu" or runs.ndim != 1 \
                or runs.size % 2 == 0 or runs.min() < 0 \
                or not runs[1:-1].all() \
                or runs.sum() != self.width * self.height:
            raise ConfigError("runs must be canonical integer lengths that "
                              "sum to width * height")
        object.__setattr__(self, "runs",
                           np.ascontiguousarray(runs, dtype=np.int64))

    @classmethod
    def from_cells(cls, width: int, height: int, scale: float, cells,
                   origin_mm: tuple[float, float] = (0.0, 0.0)) -> RasterImage:
        """The raster of a (height, width) canvas of 0 and 255 pixels: its
        runs end where a pixel differs from the one before, with background
        before the first pixel and after the last."""
        import numpy as np
        cells = np.asarray(cells)
        if cells.shape != (height, width):
            raise ConfigError(
                f"cells shape {cells.shape} does not match "
                f"(height, width)=({height}, {width})")
        if not ((cells == 0) | (cells == 255)).all():
            raise DrawingFormatError("raster pixels must be 0 or 255")
        edges = np.flatnonzero(np.diff(cells.ravel() != 0, prepend=False,
                                       append=False))
        runs = np.diff(edges, prepend=0, append=cells.size)
        return cls(width=width, height=height, scale=scale, runs=runs,
                   origin_mm=origin_mm)

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        import numpy as np
        return (self.width == other.width and self.height == other.height
                and self.scale == other.scale and self.origin_mm == other.origin_mm
                and np.array_equal(self.runs, other.runs))

    @cached_property
    def cells(self) -> np.ndarray:
        import numpy as np
        return np.repeat(_shades(self.runs.size), self.runs).reshape(
            self.height, self.width)

    def occupied_area_mm2(self) -> float:
        """Area covered by ink pixels."""
        return float(self.runs[1::2].sum()) * self.scale * self.scale


def _shades(count: int):
    """The values of count runs: 0 and 255 alternately, 0 first."""
    import numpy as np
    shades = np.zeros(count, dtype=np.uint8)
    shades[1::2] = 255
    return shades


def pgm_parts(image: RasterImage):
    """The PGM header, then the body in bands of at most _PGM_BAND pixels.

    Each band is painted from the runs it crosses, so writing the parts in
    turn writes the PGM without holding a canvas.
    """
    import numpy as np
    yield f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    runs, shades = image.runs, _shades(image.runs.size)
    ends = np.cumsum(runs)
    n = image.width * image.height
    for p in range(0, n, _PGM_BAND):
        q = min(p + _PGM_BAND, n)
        # runs i..j cross pixels p..q-1: i is the first run to end beyond
        # p, j the first to end beyond q - 1
        i, j = np.searchsorted(ends, (p, q - 1), side="right")
        lengths = runs[i:j + 1].copy()
        lengths[0] = ends[i] - p
        lengths[-1] -= ends[j] - q
        yield np.repeat(shades[i:j + 1], lengths)


def write_pgm(image: RasterImage) -> bytes:
    """Binary PGM, maxval 255, row-major.

    The canonical header is b"P5\\n<width> <height>\\n255\\n"; a 1x1 zero
    image is exactly b"P5\\n1 1\\n255\\n\\x00" (12 bytes). Output is
    byte-identical across runs and platforms.
    """
    return b"".join(pgm_parts(image))


def read_pgm(data: bytes, scale: float,
             origin_mm: tuple[float, float] = (0.0, 0.0)) -> RasterImage:
    """Parse canonical P5 bytes of a binary raster back into a RasterImage.

    Every pixel byte must be 0 or 255. PGM stores no physical scale, so
    the caller supplies it; with the same scale and origin the write/read
    round trip is the identity.
    """
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise DrawingFormatError("not a canonical P5 PGM")
    try:
        w, h = (int(v) for v in parts[1].split())
    except ValueError as exc:
        raise DrawingFormatError("bad PGM dimensions") from exc
    if w < 1 or h < 1:
        raise DrawingFormatError(f"PGM size {w}x{h} is under 1x1")
    if parts[2] != b"255":
        raise DrawingFormatError("PGM maxval must be 255")
    payload = parts[3]
    if len(payload) != w * h:
        raise DrawingFormatError(
            f"PGM payload is {len(payload)} bytes, expected {w * h}")
    import numpy as np
    cells = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return RasterImage.from_cells(w, h, scale, cells, origin_mm)
