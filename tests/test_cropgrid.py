"""Crop geometry against the independent pixel-rectangle oracle, resize
against hand-built references, and the overlap masks and token footprints
against the plain-numpy forms in `reference`."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference

import ace
import ace.model as model
import ace.tensor as tz
from ace.cropgrid import (GridSpec, box_mean, compute_overlap, extract_and_resize, resize,
                          sample_crop_pair)
from ace.errors import AlignmentError, GeometryError, ParameterError, ShapeError
from ace.objective import build_target
from ace.pixelcheck import _block_members, _token_rects, overlap_via_pixels, verify_geometry
from ace.synthgen import PhantomSpec, generate


def test_spec_validation():
    GridSpec(G=16, m=16, c1=8, c2=16, H0=64)
    with pytest.raises(ParameterError):
        GridSpec(G=16, m=16, c1=8, c2=17, H0=64)
    with pytest.raises(ParameterError):
        GridSpec(G=16, m=16, c1=7, c2=14, H0=64)
    with pytest.raises(ParameterError):
        GridSpec(G=10, m=16, c1=8, c2=16, H0=64)
    with pytest.raises(ParameterError, match=r"^m must be positive, got 0$"):
        GridSpec(G=16, m=0, c1=8, c2=16, H0=64)


def test_spec_derived_properties(desk_spec, paper_spec):
    assert desk_spec.T == 8 and desk_spec.side == 256
    assert paper_spec.T == 14 and paper_spec.side == 1024


def test_overlap_matches_pixel_oracle_exhaustively(desk_spec, paper_spec):
    # every anchor pair at both scales: 25 at desk scale, 1600 at paper scale
    for spec in (desk_spec, paper_spec):
        lim2 = spec.G - spec.c2
        limu = (spec.c2 - spec.c1) // 2
        regroup = _block_members(spec.T)
        for x2 in range(lim2 + 1):
            for y2 in range(lim2 + 1):
                for u in range(limu + 1):
                    for v in range(limu + 1):
                        a1 = (x2 + 2 * u, y2 + 2 * v)
                        a2 = (x2, y2)
                        O1, O2 = compute_overlap(spec, a1, a2)
                        eO1, eO2, members = overlap_via_pixels(spec, a1, a2)
                        assert np.array_equal(O1, eO1) and np.array_equal(O2, eO2)
                        assert eO1.dtype == eO2.dtype == np.int8
                        assert O1.sum() == 4 * O2.sum()
                        assert members.dtype.kind == "i"
                        assert members.shape == (O2.sum(), 4)
                        assert np.array_equal(members, regroup)


def test_pixel_oracle_rejects_partial_token_overlap(desk_spec):
    # C1 one patch right of C2's origin: C2's first token column straddles
    # the overlap edge
    with pytest.raises(AssertionError, match="partial token overlap"):
        overlap_via_pixels(desk_spec, (1, 0), (0, 0))
    with pytest.raises(AssertionError, match="partial token overlap"):
        overlap_via_pixels(desk_spec, (2, 3), (0, 0))


def test_pixel_oracle_checks_survive_optimize_flag():
    # `python -O` strips assert statements; the oracle's checks must stay
    code = ("from ace.cropgrid import GridSpec\n"
            "from ace.pixelcheck import overlap_via_pixels\n"
            "desk = GridSpec(G=16, m=16, c1=8, c2=16, H0=64)\n"
            "try:\n"
            "    overlap_via_pixels(desk, (1, 0), (0, 0))\n"
            "except AssertionError as exc:\n"
            "    print('rejected:', exc)\n")
    src = str(Path(ace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "rejected: partial token overlap" in proc.stdout


def test_overlap_sub_order_is_row_major(desk_spec):
    _, _, members = overlap_via_pixels(desk_spec, (2, 2), (0, 0))
    t = desk_spec.T
    for quads in (members, _block_members(t)):
        assert len(quads) == (t // 2) ** 2
        for quad in quads:
            rows = [q // t for q in quad]
            cols = [q % t for q in quad]
            # top-left, top-right, bottom-left, bottom-right
            assert rows[0] == rows[1] and rows[2] == rows[3] == rows[0] + 1
            assert cols[0] == cols[2] and cols[1] == cols[3] == cols[0] + 1


def test_overlap_error_cases(desk_spec):
    with pytest.raises(AlignmentError):
        compute_overlap(desk_spec, (1, 0), (0, 0))
    with pytest.raises(AlignmentError):
        compute_overlap(desk_spec, (0, 3), (0, 0))
    with pytest.raises(GeometryError):
        compute_overlap(desk_spec, (10, 0), (0, 0))


def test_sampled_pairs_are_valid(desk_spec, paper_spec):
    rng = np.random.default_rng(0)
    for spec in (desk_spec, paper_spec):
        for _ in range(50):
            pair = sample_crop_pair(rng, spec)
            assert pair.anchor2[0] + spec.c2 <= spec.G
            assert pair.anchor1[0] >= pair.anchor2[0]
            assert pair.anchor1[0] + spec.c1 <= pair.anchor2[0] + spec.c2
            assert (pair.anchor1[0] - pair.anchor2[0]) % 2 == 0
            assert np.all(pair.O1 == 1)
            assert pair.O2.sum() == (spec.T // 2) ** 2


def test_verify_geometry_clean_and_corrupt(desk_spec, paper_spec):
    for spec in (desk_spec, paper_spec):
        assert verify_geometry(spec, 100, seed=1).ok
        # injected odd-alignment corruption must be caught
        report = verify_geometry(spec, 50, seed=1, corrupt=True)
        assert len(report.failures) == 50
        assert all("oracle rejection" in note for note in report.failures)


def test_verify_geometry_catches_a_broken_regroup(desk_spec, monkeypatch):
    """The gate checks the regroup the heads run: grouping consecutive tokens
    instead of 2x2 blocks fails every pair."""
    def consecutive(x):
        *lead, n, k = x.data.shape
        return tz.reshape(x, (*lead, n // 4, 4 * k))

    monkeypatch.setattr(model, "group_blocks", consecutive)
    _block_members.cache_clear()
    try:
        report = verify_geometry(desk_spec, 100, seed=1)
    finally:
        _block_members.cache_clear()
    assert len(report.failures) == 100
    assert all("2x2 regroup mismatch" in note for note in report.failures)


def test_resize_identity_and_box_average():
    rng = np.random.default_rng(3)
    img = rng.random((8, 8))
    assert np.array_equal(resize(img, 8), img)
    down = resize(img, 4)
    # hand-built 2x2 box average
    expect = np.zeros((4, 4))
    for r in range(4):
        for c in range(4):
            expect[r, c] = img[2 * r:2 * r + 2, 2 * c:2 * c + 2].mean()
    assert np.allclose(down, expect, atol=1e-15)


def test_resize_bilinear_preserves_constants_and_ramps():
    const = np.full((7, 7), 0.37)
    assert np.allclose(resize(const, 5), 0.37)
    # a linear ramp stays linear under pixel-center aligned bilinear sampling
    ramp = np.tile(np.arange(12, dtype=float), (12, 1))
    up = resize(ramp, 8)
    diffs = np.diff(up[0])
    inner = diffs[1:-1]  # borders are clamped
    assert np.allclose(inner, inner[0], atol=1e-12)


@pytest.mark.parametrize("source", ["phantom", "noise"])
@pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-15), (np.float32, 4e-7)])
def test_resize_bilinear_matches_four_corner_reference(source, dtype, atol):
    """The separable row-then-column pass equals the four-corner outer-product
    form up to the last bits, up and down, in the image's dtype; the same
    side gives a new array with the image's bits."""
    for s, n in [(77, 154), (48, 96), (7, 5), (12, 8), (154, 64), (100, 64)]:
        if source == "phantom":
            img = generate(np.random.default_rng(0), PhantomSpec(side=s)).image
        else:
            img = np.random.default_rng(s).random((s, s))
        img = img.astype(dtype)
        out = resize(img, n)
        assert out.dtype == dtype and out.shape == (n, n), (s, n)
        assert np.allclose(out, reference.bilinear(img, n), rtol=0, atol=atol), (s, n)
        same = resize(img, s)
        assert np.array_equal(same, img) and not np.shares_memory(same, img), s


def test_resize_rejects_non_square():
    with pytest.raises(ShapeError):
        resize(np.zeros((4, 6)), 2)
    with pytest.raises(ShapeError):
        resize(np.zeros((3, 4, 6)), 2)
    with pytest.raises(ShapeError):  # one image, not a stack
        resize(np.zeros((3, 4, 4)), 2)
    with pytest.raises(ShapeError):
        resize(np.zeros(4), 2)
    for out_side in (0, -64):
        with pytest.raises(ShapeError, match=f"out_side must be at least 1, got {out_side}"):
            resize(np.zeros((4, 4)), out_side)


@pytest.mark.parametrize("source", ["phantom", "noise"])
def test_box_mean_slices_equal_resize_bit_for_bit(source):
    """Every crop of side f*n is a strided slice of one box mean, and it,
    resize of the crop view and resize of a contiguous copy all equal the
    plain reshape-mean reference bit for bit: f on both sides of numpy's
    8-term switch, at three scales.  A change to the order in which the
    shared kernel or numpy adds fails here rather than moving the anchors."""
    if source == "phantom":
        base = generate(np.random.default_rng(0), PhantomSpec(side=64)).image
    else:
        base = np.random.default_rng(4).random((64, 64))
    for scale in (1.0, 1e-8, 1e8):
        img = base * scale
        for f in (1, 2, 3, 4, 7, 8, 9, 16):
            box = box_mean(img, f)
            assert box.shape == (64 - f + 1, 64 - f + 1)
            n = (64 - f) // f
            for y in range(f):
                for x in range(f):
                    crop = img[y:y + f * n, x:x + f * n]
                    expect = reference.box_downscale(crop, n)
                    assert np.array_equal(box[y:y + f * n:f, x:x + f * n:f], expect), (f, y, x)
                    assert np.array_equal(resize(crop, n), expect), (f, y, x)
                    assert np.array_equal(resize(np.ascontiguousarray(crop), n), expect), (f, y, x)


def test_box_mean_refuses_factors_that_do_not_fit():
    img = np.zeros((6, 5))
    assert box_mean(img, 5).shape == (2, 1)
    for f in (0, -1, 6):
        with pytest.raises(ParameterError, match=rf"f={f} does not fit an image of shape \(6, 5\)"):
            box_mean(img, f)
    with pytest.raises(ParameterError, match=r"shape \(2, 4, 4\)"):
        box_mean(np.zeros((2, 4, 4)), 2)


def test_extract_and_resize(desk_spec):
    rng = np.random.default_rng(5)
    img = rng.random((desk_spec.side, desk_spec.side))
    out = extract_and_resize(img, (2, 4), desk_spec.c1, desk_spec)
    assert out.shape == (desk_spec.H0, desk_spec.H0)
    # C1 crop at desk scale is 128 px -> 64, C2 256 px -> 64: exact box averages
    crop = img[4 * 16:4 * 16 + 128, 2 * 16:2 * 16 + 128]
    assert np.array_equal(out, np.clip(reference.box_downscale(crop, 64), 0.0, 1.0))
    out = extract_and_resize(img, (0, 0), desk_spec.c2, desk_spec)
    assert np.array_equal(out, np.clip(reference.box_downscale(img, 64), 0.0, 1.0))
    with pytest.raises(GeometryError):
        extract_and_resize(img, (12, 0), desk_spec.c1, desk_spec)


def test_mask_pool_and_upsample(desk_spec):
    m = np.zeros((4, 4), dtype=np.int8)
    m[1, 2] = 1
    pooled = reference.pool_mask(m)
    assert pooled.shape == (2, 2)
    assert pooled[0, 1] == 1 and pooled.sum() == 1
    up = reference.upsample_mask(pooled)
    assert up.shape == (4, 4)
    assert np.all(up[0:2, 2:4] == 1) and up.sum() == 4
    # the matching targets are supported on exactly the overlap masks: rows
    # on the teacher crop's mask, columns on the other crop's mask pooled to
    # composed cells or upsampled to sub-cells
    rng = np.random.default_rng(3)
    for _ in range(20):
        pair = sample_crop_pair(rng, desk_spec)
        comp = build_target(pair, desk_spec, "composition")
        dec = build_target(pair, desk_spec, "decomposition")
        for matrix, rows, cols in ((comp, pair.O2, reference.pool_mask(pair.O1)),
                                   (dec, pair.O1, reference.upsample_mask(pair.O2))):
            assert np.array_equal(matrix.any(axis=1), rows.reshape(-1) > 0)
            assert np.array_equal(matrix.any(axis=0), cols.reshape(-1) > 0)


def test_token_to_grid(desk_spec):
    assert reference.token_to_grid("C1", (3, 2), (1, 4)) == ((3 + 4, 2 + 1), 1)
    assert reference.token_to_grid("C2", (0, 0), (2, 3)) == ((6, 4), 2)
    # every footprint is the pixel oracle's token rectangle, in grid patches
    t, m = desk_spec.T, desk_spec.m
    for role, anchor in (("C1", (3, 2)), ("C2", (0, 4))):
        for i, rect in enumerate(_token_rects(anchor, m, t, 1 if role == "C1" else 2)):
            (x, y), ext = reference.token_to_grid(role, anchor, (i // t, i % t))
            assert tuple(rect) == (x * m, y * m, (x + ext) * m, (y + ext) * m)


def test_crop_pair_token_footprints_agree(desk_spec):
    """The i-th overlapped C2 token and the C1 tokens of the heads' i-th 2x2
    block must cover the same grid patches."""
    rng = np.random.default_rng(9)
    t = desk_spec.T
    regroup = _block_members(t).astype(int)
    for _ in range(20):
        pair = sample_crop_pair(rng, desk_spec)
        for flat2, quad in zip(np.flatnonzero(pair.O2), regroup, strict=True):
            (gx2, gy2), ext = reference.token_to_grid("C2", pair.anchor2,
                                                      (flat2 // t, flat2 % t))
            covered2 = {(gx2 + dx, gy2 + dy) for dx in range(ext) for dy in range(ext)}
            covered1 = set()
            for flat1 in quad:
                (gx1, gy1), _ = reference.token_to_grid("C1", pair.anchor1,
                                                        (flat1 // t, flat1 % t))
                covered1.add((gx1, gy1))
            assert covered1 == covered2
