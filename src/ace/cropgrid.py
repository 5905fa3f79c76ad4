"""Grid-wise image cropping: aligned crop pairs, their overlap masks, resize,
and the box mean that turns every integer-downscaled crop into a strided view.

Images are plain 2-d float arrays with intensities in [0, 1].  Grid
coordinates follow an (x, y) = (column, row) convention; token coordinates
inside a crop are (row, col).  A C1 token covers exactly one grid patch, a
C2 token covers a 2x2 block of grid patches, so in the overlap four C1
tokens tile each C2 token; which four is `model.group_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AlignmentError, GeometryError, ParameterError, ShapeError


@dataclass(frozen=True)
class GridSpec:
    """Crop geometry: grid side G (patches), patch side m (pixels), crop sides."""

    G: int = 32
    m: int = 32
    c1: int = 14
    c2: int = 28
    H0: int = 448

    def __post_init__(self):
        if self.c2 != 2 * self.c1:
            raise ParameterError(f"c2 must equal 2*c1, got c1={self.c1}, c2={self.c2}")
        if self.c1 % 2 != 0:
            raise ParameterError(f"c1 must be even, got {self.c1}")
        if self.G < self.c2:
            raise ParameterError(f"G must be >= c2, got G={self.G}, c2={self.c2}")
        for name in ("G", "m", "c1", "H0"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def T(self) -> int:
        """Encoder token-map side; both crops resize to H0 and embed to T x T tokens."""
        return self.c1

    @property
    def side(self) -> int:
        return self.G * self.m


@dataclass(frozen=True)
class CropPair:
    """A sampled (C1, C2) pair: grid anchors and T x T int8 overlap masks.

    O1 is all ones (C1 lies inside C2); O2 marks (T/2) x (T/2) C2 tokens, the
    i-th of which (row-major) is tiled by the i-th 2x2 block of C1 tokens.
    """

    anchor1: tuple[int, int]
    anchor2: tuple[int, int]
    O1: np.ndarray = field(repr=False)
    O2: np.ndarray = field(repr=False)


def compute_overlap(spec: GridSpec, anchor1: tuple[int, int], anchor2: tuple[int, int]):
    """Token overlap masks (O1, O2) for a C1-inside-C2 anchor pair."""
    x1, y1 = anchor1
    x2, y2 = anchor2
    dx, dy = x1 - x2, y1 - y2
    if dx % 2 != 0 or dy % 2 != 0:
        raise AlignmentError(f"anchor offset ({dx}, {dy}) must be even on both axes")
    if dx < 0 or dy < 0 or x1 + spec.c1 > x2 + spec.c2 or y1 + spec.c1 > y2 + spec.c2:
        raise GeometryError(f"C1 at {anchor1} does not lie inside C2 at {anchor2}")
    t, ox, oy = spec.T, dx // 2, dy // 2
    O2 = np.zeros((t, t), dtype=np.int8)
    O2[oy:oy + t // 2, ox:ox + t // 2] = 1
    return np.ones((t, t), dtype=np.int8), O2


def sample_crop_pair(rng: np.random.Generator, spec: GridSpec) -> CropPair:
    """Uniformly sample an even-aligned crop pair with C1 contained in C2."""
    lim2 = spec.G - spec.c2
    x2 = int(rng.integers(0, lim2 + 1))
    y2 = int(rng.integers(0, lim2 + 1))
    limu = (spec.c2 - spec.c1) // 2
    u = int(rng.integers(0, limu + 1))
    v = int(rng.integers(0, limu + 1))
    anchor2 = (x2, y2)
    anchor1 = (x2 + 2 * u, y2 + 2 * v)
    O1, O2 = compute_overlap(spec, anchor1, anchor2)
    return CropPair(anchor1=anchor1, anchor2=anchor2, O1=O1, O2=O2)


def resize(src: np.ndarray, out_side: int) -> np.ndarray:
    """Resize one square image into a new array: the exact f x f box average on
    an integer downscale by f (f = 1 keeps the bits), else pixel-centre
    bilinear with clamped edges, along rows, then along columns."""
    if src.ndim != 2 or not src.shape[0] == src.shape[1] >= 1:
        raise ShapeError(f"resize: expected a non-empty square image, got {src.shape}")
    if out_side < 1:
        raise ShapeError(f"resize: out_side must be at least 1, got {out_side}")
    s = src.shape[0]
    if s % out_side == 0:
        f = s // out_side
        return _box_sum(src, f, f) / (f * f)
    lo, hi, frac = _bilinear_plan(s, out_side)
    # weights in the image's float dtype, so a float32 image stays float32
    frac = frac.astype(np.result_type(src, np.float32), copy=False)
    keep = 1 - frac
    rows = src[lo] * keep[:, None] + src[hi] * frac[:, None]
    return rows[:, lo] * keep + rows[:, hi] * frac


@lru_cache(maxsize=256)
def _bilinear_plan(s: int, out_side: int):
    """Read-only source indices (lo, hi) and float64 weights of hi for each
    output pixel of an s -> out_side bilinear resize, one axis."""
    coords = (np.arange(out_side) + 0.5) * (s / out_side) - 0.5
    lo = np.clip(np.floor(coords).astype(int), 0, s - 1)
    hi = np.clip(lo + 1, 0, s - 1)
    frac = np.clip(coords - lo, 0.0, 1.0)
    for a in (lo, hi, frac):
        a.flags.writeable = False
    return lo, hi, frac


def box_mean(image: np.ndarray, f: int) -> np.ndarray:
    """The f x f box mean at every pixel offset: out[y, x] = image[y:y+f, x:x+f].mean().

    It shares resize's integer-downscale kernel, so out[y:y+f*n:f, x:x+f*n:f]
    equals resize(image[y:y+f*n, x:x+f*n], n) bit for bit, and every crop of
    side f*n is a strided view of one pass.
    """
    if image.ndim != 2 or not 1 <= f <= min(image.shape):
        raise ParameterError(f"box_mean: f={f} does not fit an image of shape {image.shape}")
    return _box_sum(image, f, 1) / (f * f)


def _box_sum(image: np.ndarray, f: int, step: int) -> np.ndarray:
    """Sums of the f x f boxes whose corners lie on a step x step lattice.

    `step` is f (resize) or 1 (box_mean).  The additions follow numpy's
    reshape(n, f, n, f).mean(axis=(1, 3)): each row's f columns first, then
    the f rows top to bottom.  numpy adds fewer than 8 terms left to right,
    which f - 1 shifted adds of strided column views repeat; from 8 terms on
    it adds in pairwise blocks, so there the columns go through its own row
    sum.  (At one output pixel, out_side 1, numpy merges the box into one
    pairwise sum of f*f terms, and the bits can differ.)
    """
    if f == 1:
        return image
    h, w = image.shape
    ny, nx = (h - f) // step + 1, (w - f) // step + 1
    xspan, yspan = (nx - 1) * step + 1, (ny - 1) * step + 1
    if f < 8:
        cols = image[:, :xspan:step] + image[:, 1:1 + xspan:step]
        for o in range(2, f):
            cols += image[:, o:o + xspan:step]
    else:
        cols = np.empty((h, nx), dtype=image.dtype)
        for o in range(0, f, step):
            k = (w - o) // f
            cols[:, o // step::f // step] = image[:, o:o + f * k].reshape(h, k, f).sum(axis=2)
    out = cols[:yspan:step] + cols[1:1 + yspan:step]
    for j in range(2, f):
        out += cols[j:j + yspan:step]
    return out


def extract_and_resize(image: np.ndarray, anchor: tuple[int, int],
                       side_in_patches: int, spec: GridSpec) -> np.ndarray:
    """Cut the crop at a grid anchor and resize it to H0 x H0 pixels."""
    x, y = anchor
    px, py = x * spec.m, y * spec.m
    size = side_in_patches * spec.m
    if px < 0 or py < 0 or px + size > image.shape[1] or py + size > image.shape[0]:
        raise GeometryError(
            f"crop at grid ({x}, {y}) side {side_in_patches} exceeds image {image.shape}")
    crop = image[py:py + size, px:px + size]
    return np.clip(resize(crop, spec.H0), 0.0, 1.0)
