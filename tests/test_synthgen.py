"""Phantom generator: symmetry, landmark fidelity, image I/O, manifest."""

import numpy as np
import pytest

import ace.synthgen as sg
from ace.errors import FormatError, ParameterError
from ace.synthgen import (LANDMARK_NAMES, MIRROR_PAIRS, PhantomSpec, build_manifest,
                          generate, generate_dataset, instance_rng, load_manifest,
                          read_image, write_image)


def _clean_spec(side=128):
    return PhantomSpec(side=side, jitter_translate=0.0, jitter_scale=0.0,
                       intensity_noise=0.0, texture_amp=0.0, bg_jitter=0.0,
                       gain_jitter=0.0, field_amp=0.0, weave_amp=0.0,
                       level_jitter=0.0, mosaic_contrast=0.0)


def test_canonical_phantom_is_mirror_symmetric():
    ph = generate(np.random.default_rng(0), _clean_spec())
    assert np.allclose(ph.image, np.fliplr(ph.image), atol=1e-9)
    cx = (ph.image.shape[1] - 1) / 2.0
    for left, right in MIRROR_PAIRS:
        lx, ly = ph.landmarks[left]
        rx, ry = ph.landmarks[right]
        assert np.isclose(lx, 2 * cx - rx, atol=1e-9)
        assert np.isclose(ly, ry, atol=1e-9)
    dx, _ = ph.landmarks["disc_center"]
    assert np.isclose(dx, cx, atol=1e-9)


def test_landmark_names_complete():
    ph = generate(np.random.default_rng(1), PhantomSpec(side=128))
    assert set(ph.landmarks) == set(LANDMARK_NAMES)
    assert len(LANDMARK_NAMES) == 9 and len(MIRROR_PAIRS) == 4


def test_landmarks_sit_on_bright_structures():
    # mosaic off: the property under test is structure-vs-background contrast,
    # and a dark background plateau under a landmark would mask it
    spec = PhantomSpec(side=256, mosaic_contrast=0.0)
    for seed in range(3):
        rng, _ = instance_rng(11, seed)
        ph = generate(rng, spec)
        bg = spec.background
        for name in ("left_lobe_center", "right_lobe_center", "disc_center"):
            x, y = ph.landmarks[name]
            assert ph.image[int(round(y)), int(round(x))] > bg + 0.1, name


def test_jitter_moves_landmarks_with_structures():
    spec = PhantomSpec(side=256, jitter_translate=0.02, jitter_scale=0.06,
                       intensity_noise=0.0, texture_amp=0.0)
    a = generate(np.random.default_rng(5), spec)
    b = generate(np.random.default_rng(6), spec)
    moved = [n for n in LANDMARK_NAMES
             if not np.allclose(a.landmarks[n], b.landmarks[n], atol=1e-9)]
    assert moved  # different draws shift structures
    assert not np.allclose(a.image, b.image)


def test_generate_deterministic_for_equal_rng_state():
    spec = PhantomSpec(side=128)
    a = generate(np.random.default_rng(9), spec)
    b = generate(np.random.default_rng(9), spec)
    assert np.array_equal(a.image, b.image)
    assert a.landmarks == b.landmarks


def test_separable_grating_matches_full_grid():
    for s in (256, 97):
        yy, xx = np.mgrid[0:s, 0:s].astype(float)
        for amp, fx, fy, px, py in ((0.15, 3.7, 6.2, 1.1, 5.9), (0.12, 0.5, 2.5, 0.0, 6.2)):
            full = amp * np.sin(2 * np.pi * fx * xx / s + px) \
                * np.sin(2 * np.pi * fy * yy / s + py)
            assert np.array_equal(sg._grating(s, amp, fx, fy, px, py), full)


def test_one_axis_terms_match_full_grid(monkeypatch):
    # generate takes one-axis terms (rib bars on y, clavicle spans on x, the
    # grating factors) on an (s, 1) column or a (1, s) row; on full np.mgrid
    # axes every term is (s, s), and every pixel must be the same
    def full_axes(s):
        yy, xx = np.mgrid[0:s, 0:s].astype(float)
        return yy, xx

    for side in (97, 256):
        for spec in (PhantomSpec(side=side),
                     PhantomSpec(side=side, jitter_translate=0.08, jitter_scale=0.25)):
            for seed in range(3):
                broadcast = generate(np.random.default_rng(seed), spec)
                with monkeypatch.context() as m:
                    m.setattr(sg, "_pixel_axes", full_axes)
                    full = generate(np.random.default_rng(seed), spec)
                assert np.array_equal(broadcast.image, full.image), (side, seed)
                assert broadcast.landmarks == full.landmarks


def test_intensity_range():
    ph = generate(np.random.default_rng(2), PhantomSpec(side=128))
    assert ph.image.min() >= 0.0 and ph.image.max() <= 1.0


def test_spec_validation():
    with pytest.raises(ParameterError):
        PhantomSpec(side=0)
    with pytest.raises(ParameterError):
        PhantomSpec(side=64, jitter_translate=0.5)


_SPEC_REFUSALS = [
    ("jitter_translate", 0.1, "jitter_translate must be in [0, 0.1), got 0.1"),
    ("jitter_scale", -0.01, "jitter_scale must be in [0, 0.3), got -0.01"),
    ("bg_jitter", 0.2, "bg_jitter must be in [0, 0.1), got 0.2"),
    ("gain_jitter", 0.5, "gain_jitter must be in [0, 0.5), got 0.5"),
    ("field_amp", float("nan"), "field_amp must be in [0, 0.5), got nan"),
    ("level_jitter", 0.6, "level_jitter must be in [0, 0.5), got 0.6"),
    ("weave_amp", 0.1, "weave_amp is retired: only 0.0 is accepted, got 0.1"),
    ("mosaic_contrast", 0.2, "mosaic_contrast is retired: only 0.0 is accepted, got 0.2"),
]


@pytest.mark.parametrize("field, value, message", _SPEC_REFUSALS,
                         ids=[field for field, _, _ in _SPEC_REFUSALS])
def test_spec_refusal_names_field_and_value(field, value, message):
    with pytest.raises(ParameterError) as exc:
        PhantomSpec(side=64, **{field: value})
    assert str(exc.value) == message


def _assert_decoded_exactly(path, source, back):
    """The 16-bit codes stored in the file are within half a step of the
    source, and the decoded image is each code's float64 quotient rounded
    to float32."""
    q = np.frombuffer(path.read_bytes()[-2 * source.size:], dtype=">u2").reshape(source.shape)
    assert np.max(np.abs(q / 65535 - source)) <= 0.5 / 65535 + 1e-12
    assert back.dtype == np.float32
    assert np.array_equal(back, (q / 65535).astype(np.float32))
    return q


def test_pgm_roundtrip(tmp_path):
    # every 16-bit code once, each source value off its code by under half a step
    rng = np.random.default_rng(3)
    codes = rng.permutation(65536)
    img = np.clip((codes + rng.uniform(-0.49, 0.49, codes.size)) / 65535, 0.0, 1.0)
    img = img.reshape(128, 512)
    path = tmp_path / "x.pgm"
    write_image(path, img)
    back = read_image(path)
    assert back.shape == img.shape
    q = _assert_decoded_exactly(path, img, back)
    assert np.array_equal(q.ravel(), codes)


def test_pgm_reads_8bit(tmp_path):
    path = tmp_path / "x8.pgm"
    data = np.arange(256, dtype=np.uint8).reshape(8, 32)
    path.write_bytes(b"P5\n32 8\n255\n" + data.tobytes())
    img = read_image(path)
    assert img.dtype == np.float32
    assert np.array_equal(img, (data / 255).astype(np.float32))


def test_pgm_format_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        read_image(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n65535\n" + bytes(10))
    with pytest.raises(FormatError) as exc:
        read_image(trunc)
    assert "byte" in str(exc.value)
    for name, content, message in (
            ("header.pgm", b"P5\nxx 2\n255\n" + bytes(4), "malformed header near byte 2"),
            ("maxval.pgm", b"P5\n2 2\n4095\n" + bytes(8), "unsupported maxval 4095"),
            ("trailing.pgm", b"P5\n2 2\n255\n" + bytes(5), "1 byte(s) past the payload, "
             "from byte 15"),
            ("narrowed.pgm", b"P5\n10 16\n65535\n" + bytes(16 * 16 * 2),
             "192 byte(s) past the payload, from byte 335"),
            ("no_width.pgm", b"P5\n0 5\n65535\n", "width 0 is below 1 (offset 3)"),
            ("no_height.pgm", b"P5\n# empty\n4 00\n255\n", "height 0 is below 1 (offset 13)"),
            ("no_pixels.pgm", b"P5\n0 0\n255\n", "width 0 is below 1 (offset 3)")):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(FormatError) as exc:
            read_image(path)
        assert str(exc.value).startswith(f"{path}: {message}")


def test_manifest_roundtrip(tmp_path):
    spec = PhantomSpec(side=64)
    phantoms = [generate(np.random.default_rng(i), spec, instance_id=f"p{i}", seed=i)
                for i in range(3)]
    manifest = build_manifest(tmp_path, phantoms)
    loaded = load_manifest(manifest)
    assert len(loaded) == 3
    for orig, back in zip(phantoms, loaded):
        assert back.instance_id == orig.instance_id
        assert back.seed == orig.seed
        for name in LANDMARK_NAMES:
            assert back.landmarks[name] == orig.landmarks[name]  # repr round trip
        _assert_decoded_exactly(tmp_path / f"{orig.instance_id}.pgm", orig.image, back.image)


def test_manifest_missing_file_names_record(tmp_path):
    spec = PhantomSpec(side=32)
    ph = generate(np.random.default_rng(0), spec, instance_id="gone", seed=0)
    manifest = build_manifest(tmp_path, [ph])
    (tmp_path / "gone.pgm").unlink()
    with pytest.raises(FormatError) as exc:
        load_manifest(manifest)
    assert "gone" in str(exc.value)


def test_manifest_without_records_names_the_file(tmp_path):
    header_only = build_manifest(tmp_path / "header", [])
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    for manifest in (header_only, empty):
        with pytest.raises(FormatError) as exc:
            load_manifest(manifest)
        assert str(exc.value) == f"{manifest}: no phantom records"


@pytest.mark.parametrize("column, value", [("left_rib2_y", "abc"), ("seed", "1.5")])
def test_manifest_bad_number_names_line_and_column(tmp_path, column, value):
    phantoms = [generate(np.random.default_rng(i), PhantomSpec(side=32), instance_id=f"p{i}",
                         seed=i) for i in range(2)]
    manifest = build_manifest(tmp_path, phantoms)
    lines = manifest.read_text().splitlines()
    row = lines[2].split("\t")
    row[lines[0].split("\t").index(column)] = value
    lines[2] = "\t".join(row)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"manifest\.tsv:3: column '{column}' .*'{value}'"):
        load_manifest(manifest)


def test_manifest_wrong_column_count_names_file_and_line(tmp_path):
    phantoms = [generate(np.random.default_rng(i), PhantomSpec(side=32), instance_id=f"p{i}",
                         seed=i) for i in range(2)]
    manifest = build_manifest(tmp_path, phantoms)
    lines = manifest.read_text().splitlines()
    lines[2] = lines[2].rsplit("\t", 1)[0]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        load_manifest(manifest)
    assert str(exc.value) == f"{manifest}:3: wrong column count {2 + 2 * len(LANDMARK_NAMES)}"


def test_generate_dataset_writes_each_image_before_the_next_phantom(tmp_path, monkeypatch):
    """One image is alive at a time: every generate call is followed by the
    write of its image, not by the next generate."""
    calls = []
    generate_ = sg.generate
    write_image_ = sg.write_image

    def spy_generate(*args, **kwargs):
        calls.append("generate")
        return generate_(*args, **kwargs)

    def spy_write_image(*args, **kwargs):
        calls.append("write_image")
        return write_image_(*args, **kwargs)

    monkeypatch.setattr(sg, "generate", spy_generate)
    monkeypatch.setattr(sg, "write_image", spy_write_image)
    generate_dataset(tmp_path / "ds", 3, PhantomSpec(side=32), master_seed=0)
    assert calls == ["generate", "write_image"] * 3


def test_regenerating_into_a_used_directory_writes_new_images(tmp_path):
    """Another seed into the same directory pairs its landmarks with its own
    pixels, not with the images an earlier run left there."""
    spec = PhantomSpec(side=64)
    generate_dataset(tmp_path, 3, spec, master_seed=0)
    manifest = generate_dataset(tmp_path, 3, spec, master_seed=1)
    for i, back in enumerate(load_manifest(manifest)):
        rng, _ = instance_rng(1, i)
        fresh = generate(rng, spec, instance_id=f"phantom{i:05d}", seed=i)
        assert back.landmarks == fresh.landmarks
        assert np.max(np.abs(back.image - fresh.image)) <= 1 / 65535


def test_instance_rng_streams_are_stable_and_distinct():
    a1, _ = instance_rng(5, 3)
    a2, _ = instance_rng(5, 3)
    b, _ = instance_rng(5, 4)
    assert a1.random() == a2.random()
    assert a1.random() != b.random()


def test_generate_dataset_deterministic(tmp_path):
    spec = PhantomSpec(side=64)
    m1 = generate_dataset(tmp_path / "a", 4, spec, master_seed=2)
    m2 = generate_dataset(tmp_path / "b", 4, spec, master_seed=2)
    assert m1.read_text() == m2.read_text()  # paths are relative, so identical
    pa = load_manifest(m1)
    pb = load_manifest(m2)
    for x, y in zip(pa, pb):
        assert np.array_equal(x.image, y.image)


@pytest.mark.parametrize("count, master_seed, name", [(0, 0, "count"), (-2, 0, "count"),
                                                      (3, -1, "master_seed")])
def test_generate_dataset_refuses_an_empty_or_unseedable_run(tmp_path, count, master_seed,
                                                              name):
    """Refused by name before anything is written, not later by load_manifest
    (an empty manifest) or by numpy (an unnamed negative-seed ValueError)."""
    with pytest.raises(ParameterError, match=rf"^{name} must be"):
        generate_dataset(tmp_path / "ds", count, PhantomSpec(side=64), master_seed=master_seed)
    assert not (tmp_path / "ds").exists()
