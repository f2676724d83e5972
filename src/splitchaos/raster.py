"""Point-set output: density grids, binary PPM images, CSV.

Each writer reads the e1/e2 arrays of an ifs.PointSet, such as a run's
chaos.PointCloud.  The grid maps e1 to the horizontal axis and e2 to the
vertical axis with the origin at the bottom-left.  Images are 8-bit
grayscale P6 with log-scaled intensity (white on black) so sparse
structure stays visible; identical grids produce identical bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

# Largest image side: the int64 counts of an 8192^2 grid take 512 MiB.
MAX_RESOLUTION = 8192


class DegenerateExtent(ValueError):
    """Extent has zero width in some component."""


@dataclass(frozen=True)
class DensityGrid:
    """Occupancy counts of a point cloud over a closed rectangular extent.

    counts[iy, ix] counts points in the cell column ix, row iy, rows
    indexed from the bottom; overflow tallies points outside the extent.
    """

    resolution: int
    counts: np.ndarray
    extent: tuple
    overflow: int


def check_image(resolution, extent):
    """Widths (e1, e2) of a (lo, hi) extent, or ValueError: the image side must lie in
    [2, MAX_RESOLUTION] and each width be positive and finite (else DegenerateExtent)."""
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")
    lo, hi = extent
    w1, w2 = hi.e1 - lo.e1, hi.e2 - lo.e2
    if not (0.0 < w1 < math.inf and 0.0 < w2 < math.inf):
        raise DegenerateExtent(f"extent widths must be positive and finite, got ({w1}, {w2})")
    return w1, w2


def rasterize(cloud, resolution, extent):
    """Bin cloud points into a resolution x resolution grid by truncation.

    Points on the far edges belong to the last cell (the extent is a
    closed box); points strictly outside are dropped and tallied.
    """
    w1, w2 = check_image(resolution, extent)
    lo, hi = extent
    x1, x2 = cloud.e1, cloud.e2
    inside = (x1 >= lo.e1) & (x1 <= hi.e1) & (x2 >= lo.e2) & (x2 <= hi.e2)
    ix = np.floor((x1[inside] - lo.e1) / w1 * resolution).astype(np.int64)
    iy = np.floor((x2[inside] - lo.e2) / w2 * resolution).astype(np.int64)
    np.clip(ix, 0, resolution - 1, out=ix)
    np.clip(iy, 0, resolution - 1, out=iy)
    counts = np.bincount(iy * resolution + ix, minlength=resolution * resolution)
    counts = counts.reshape(resolution, resolution)
    overflow = int(len(x1) - inside.sum())
    return DensityGrid(resolution, counts, (lo, hi), overflow)


def write_ppm(grid, out):
    """Write the grid as a binary P6 image, rows top to bottom."""
    r = grid.resolution
    out.write(f"P6\n{r} {r}\n255\n".encode("ascii"))
    cmax = int(grid.counts.max())
    if cmax == 0:
        out.write(bytes(3 * r * r))
        return
    # Dividing by log1p(cmax) sends the fullest cell to exactly 1.0, so the
    # floor lands on 255 there instead of flipping to 254 through round-off.
    ratio = np.log1p(grid.counts.astype(np.float64)) / math.log1p(cmax)
    levels = np.floor(255.0 * ratio).astype(np.uint8)
    rows = levels[::-1]
    out.write(np.repeat(rows.reshape(r * r), 3).tobytes())


def write_csv(cloud, out):
    """Write "index,e1,e2" rows with round-trip decimals and LF endings."""
    out.write(b"index,e1,e2\n")
    # 2^14-row chunks bound the text held at once; repr of a Python float is its round-trip decimal.
    for lo in range(0, len(cloud), 1 << 14):
        hi = lo + (1 << 14)
        rows = zip(range(lo, hi), cloud.e1[lo:hi].tolist(), cloud.e2[lo:hi].tolist())
        out.write("".join(f"{i},{a!r},{b!r}\n" for i, a, b in rows).encode("ascii"))
