"""Pixel-rectangle oracle for the crop-overlap geometry.

This path is deliberately independent of `cropgrid.compute_overlap` and
`model.group_blocks`: token pixel footprints are integer rectangles, all
intersected at once with broadcast min/max arithmetic; the overlap masks and
each C2 token's four C1 tokens are read off the areas and compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import model
from .cropgrid import CropPair, GridSpec, sample_crop_pair
from .errors import ParameterError
from .tensor import Tensor


def _rect(x0, y0, size) -> np.ndarray:
    """Pixel rectangle(s) (x0, y0, x1, y1) along the last axis."""
    return np.array([x0, y0, x0 + size, y0 + size]).T


def _token_rects(anchor, m: int, t: int, patches_per_token: int) -> np.ndarray:
    """(t*t, 4) pixel rectangles of a crop's tokens, in row-major token order."""
    size = patches_per_token * m
    rows, cols = np.indices((t, t)).reshape(2, -1)
    return _rect(anchor[0] * m + cols * size, anchor[1] * m + rows * size, size)


def _overlap_area(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection areas of broadcast (..., 4) rectangle arrays (0 when disjoint)."""
    w = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    h = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    return np.maximum(w, 0) * np.maximum(h, 0)


def _area(r: np.ndarray) -> np.ndarray:
    return (r[..., 2] - r[..., 0]) * (r[..., 3] - r[..., 1])


def overlap_via_pixels(spec: GridSpec, anchor1, anchor2):
    """Overlap masks and token tiling derived purely from pixel rectangles.

    Returns (O1, O2, members): members[i] holds the four C1 token indices
    tiling the i-th overlapped C2 token (row-major), in row-major sub-order.
    """
    m, t = spec.m, spec.T
    crop1 = _rect(anchor1[0] * m, anchor1[1] * m, spec.c1 * m)
    crop2 = _rect(anchor2[0] * m, anchor2[1] * m, spec.c2 * m)
    inter = np.concatenate([np.maximum(crop1[:2], crop2[:2]),
                            np.minimum(crop1[2:], crop2[2:])])
    if _overlap_area(crop1, crop2) <= 0:
        raise AssertionError("sampled crops never miss each other")

    rects1 = _token_rects(anchor1, m, t, 1)
    rects2 = _token_rects(anchor2, m, t, 2)
    ov1, ov2 = _overlap_area(rects1, inter), _overlap_area(rects2, inter)
    hit1, hit2 = ov1 > 0, ov2 > 0
    if not (np.array_equal(ov1[hit1], _area(rects1[hit1]))
            and np.array_equal(ov2[hit2], _area(rects2[hit2]))):
        raise AssertionError("partial token overlap is a geometry bug")
    O1 = hit1.reshape(t, t).astype(np.int8)
    O2 = hit2.reshape(t, t).astype(np.int8)
    o1_idx, idx2 = np.flatnonzero(hit1), np.flatnonzero(hit2)

    # C1 overlap tokens visited in (y0, x0) order, so each C2 token's members
    # come out sub-ordered row-major
    cand = o1_idx[np.lexsort((rects1[o1_idx, 0], rects1[o1_idx, 1]))]
    # inside[i, j]: C1 token cand[j] lies fully inside C2 token idx2[i]
    inside = _overlap_area(rects2[idx2, None], rects1[None, cand]) == _area(rects1[cand])
    if not np.all(inside.sum(axis=1) == 4):
        raise AssertionError("each overlapped C2 token must be tiled by 4 C1 tokens")
    members = cand[np.nonzero(inside)[1]]
    if not np.array_equal(np.sort(members), o1_idx):
        raise AssertionError("C1 overlap tokens must exactly tile the C2 side")
    return O1, O2, members.reshape(-1, 4)


@dataclass
class GeometryReport:
    samples: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


@lru_cache(maxsize=None)
def _block_members(t: int) -> np.ndarray:
    """Training's 2x2 regroup of a T x T grid's token indices, one row per block."""
    return model.group_blocks(Tensor(np.arange(t * t)[:, None])).data


def check_pair(spec: GridSpec, pair: CropPair, memo: dict | None = None) -> list[str]:
    """Compare one sampled pair against the pixel oracle; returns mismatch notes.

    `memo` maps (anchor1, anchor2) to the oracle's result, so a caller that
    checks many pairs runs the oracle once per distinct anchor pair.  An
    oracle rejection raises and leaves nothing behind.
    """
    key = (pair.anchor1, pair.anchor2)
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = overlap_via_pixels(spec, *key)
    O1, O2, members = memo[key]
    notes = []
    if not np.array_equal(members, _block_members(spec.T)):
        notes.append(f"2x2 regroup mismatch at anchors {pair.anchor1}/{pair.anchor2}")
    if not np.array_equal(O1, pair.O1):
        notes.append(f"O1 mismatch at anchors {pair.anchor1}/{pair.anchor2}")
    if not np.array_equal(O2, pair.O2):
        notes.append(f"O2 mismatch at anchors {pair.anchor1}/{pair.anchor2}")
    if pair.O1.sum() != 4 * pair.O2.sum():
        notes.append(f"|O1| != 4*|O2| at anchors {pair.anchor1}/{pair.anchor2}")
    return notes


def verify_geometry(spec: GridSpec, samples: int, seed: int,
                    corrupt: bool = False) -> GeometryReport:
    """Sample pairs and check each against the oracle, which runs once per
    distinct anchor pair within the call.

    `corrupt` is a test hook that shifts C1's anchor by one patch (left at the
    grid's edge), breaking even alignment, to prove the oracle rejects bad geometry.
    """
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    failures, memo = [], {}
    for _ in range(samples):
        pair = sample_crop_pair(rng, spec)
        if corrupt:
            x, y = pair.anchor1
            bad = replace(pair, anchor1=(x + 1 if x + spec.c1 < spec.G else x - 1, y))
            try:
                notes = check_pair(spec, bad, memo)
            except AssertionError as exc:
                notes = [f"oracle rejection at anchors {bad.anchor1}/{bad.anchor2}: {exc}"]
        else:
            notes = check_pair(spec, pair, memo)
        failures.extend(notes)
    return GeometryReport(samples=samples, failures=failures)
