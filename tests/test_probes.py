"""Probe mechanics: feature-path equivalences, determinism, scoring oracles."""

import csv
import tracemalloc

import numpy as np
import pytest

import ace.probes as pb
from ace.cropgrid import box_mean, resize
from ace.errors import ParameterError
from ace.model import EncoderConfig, init
from ace.synthgen import PhantomSpec, generate, instance_rng


@pytest.fixture(scope="module")
def probe_state():
    return init(EncoderConfig(K=16, T=4, H0=32, depth=1, hidden=32),
                np.random.default_rng(0))


@pytest.fixture(scope="module")
def probe_phantoms():
    spec = PhantomSpec(side=128)
    out = []
    for i in range(40):
        rng, _ = instance_rng(13, i)
        out.append(generate(rng, spec, instance_id=f"p{i:03d}", seed=i))
    return out


def test_crop_centered_padding():
    img = np.ones((10, 10))
    out = pb._crop_centered(img, 0.0, 0.0, 6)
    assert out.shape == (6, 6)
    assert np.all(out[:3, :3] == 0)  # padded region above-left of the corner
    assert np.all(out[3:, 3:] == 1)
    interior = pb._crop_centered(img, 5, 5, 4)
    assert np.all(interior == 1)
    assert pb._crop_centered(img.astype(np.float32), 0.0, 0.0, 6).dtype == np.float32


def test_embed_crops_shape_and_determinism(probe_state, probe_phantoms):
    crops = np.stack([p.image[:64, :64] for p in probe_phantoms[:4]])
    a = pb.embed_crops(probe_state, crops)
    b = pb.embed_crops(probe_state, crops)
    assert a.shape == (4, probe_state.config.K)
    assert np.array_equal(a, b)
    # a list of views of any sides, each resized on its own, gives the same rows
    views = [p.image[:64, :64] for p in probe_phantoms[:4]] + [probe_phantoms[0].image[:56, :56]]
    c = pb.embed_crops(probe_state, views)
    assert np.array_equal(c[:4], a)
    assert np.array_equal(c[4], pb.embed_crops(probe_state, [resize(views[4], 32)])[0])
    # no crops give no rows
    empty = pb.embed_crops(probe_state, [])
    assert empty.shape == (0, probe_state.config.K) and empty.dtype == np.float32


@pytest.mark.parametrize("chunk", [1, 5, 256])
def test_chunk_size_never_changes_a_feature(chunk, probe_state, probe_phantoms, monkeypatch):
    """Rows are the same bits however embed_crops chunks its crops: H0-side
    views, views of other sides and a float32 crop, over more than one
    default chunk."""
    h0 = probe_state.config.H0
    crops = []
    for i, p in enumerate(probe_phantoms[:10]):
        crops += [p.image[i:i + h0, :h0], p.image[:40 + 2 * i, :40 + 2 * i],
                  p.image[8:8 + h0 // 2, 8:8 + h0 // 2], p.image[:96, :96]]
    crops.append(probe_phantoms[10].image[:48, :48].astype(np.float32))
    assert len(crops) > pb._ENCODE_CHUNK
    expected = pb.embed_crops(probe_state, crops)
    monkeypatch.setattr(pb, "_ENCODE_CHUNK", chunk)
    assert np.array_equal(pb.embed_crops(probe_state, crops), expected)


def test_float32_crops_get_no_float64_copy(probe_state, monkeypatch):
    """float32 crops are resized in float32 and reach encode_batch as a
    float32 chunk: no float64 copy of a crop is made, so the allocation peak
    stays below the size of one (448 x 448 float64: 1.6 MB), where float64
    copies of the three crops of the chunk would take 3.6 MB."""
    image = np.random.default_rng(0).random((512, 512)).astype(np.float32)
    # a box downscale by 14, a bilinear resize and a box downscale by 7, all views
    crops = [image[:448, :448], image[7:447, 9:449], image[64:288, 32:256]]
    side = crops[0].shape[0]
    chunks = []

    def spy(cfg, params, x):
        chunks.append(x.dtype)
        return encode(cfg, params, x)

    encode = pb.encode_batch
    monkeypatch.setattr(pb, "encode_batch", spy)
    pb.embed_crops(probe_state, crops)  # warm the resize plans
    tracemalloc.start()
    try:
        feats = pb.embed_crops(probe_state, crops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == [np.float32, np.float32]
    assert feats.dtype == np.float32
    assert peak < side * side * 8, f"peak {peak / 1e6:.2f} MB"


def test_pooled_float32_key_dictionary_equals_view_list(probe_state):
    """The box-pooled key windows of a float32 image, as loaded phantoms are,
    equal resizing each float32 window, bit for bit."""
    image = generate(np.random.default_rng(0), PhantomSpec(side=256)).image.astype(np.float32)
    feats, _ = pb._key_dictionary(probe_state, image, 192, 8)
    assert np.array_equal(feats, _view_list_keys(probe_state, image, 192, 8))


def test_separability_holds_one_chunk_of_crops(probe_state):
    """landmark_separability cuts its zero-padded crops, in the phantoms'
    dtype, one encode chunk at a time: at 40 generated (float64) phantoms of
    256 and patch_frac 0.875 all 360 crops of 224 pixels take 145 MB (72 MB
    for loaded float32 phantoms), one chunk of 32 takes 12.8 MB, and the
    allocation peak stays below 30 MB."""
    phantoms = [generate(instance_rng(17, i)[0], PhantomSpec(side=256), instance_id=f"v{i}")
                for i in range(40)]
    tracemalloc.start()
    try:
        pb.landmark_separability(probe_state, phantoms, patch_frac=0.875)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"peak {peak / 1e6:.0f} MB"


def test_correspondence_windows_stay_views(probe_state):
    """The key dictionary's windows reach embed_crops as views: one call at
    window 192 and stride 8 on a 256-pixel phantom (1,089 windows, 306 MiB
    as one float64 copy) stays below a 100 MB allocation peak."""
    ph = generate(np.random.default_rng(0), PhantomSpec(side=256))
    tracemalloc.start()
    try:
        pb.correspondence_probe(probe_state, [ph], [ph], window=192, stride=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


def _view_list_keys(state, image, window, stride):
    """The key dictionary's features before pooling: every window a view of
    the padded image, resized on its own in embed_crops."""
    half = window // 2
    view = np.lib.stride_tricks.sliding_window_view(np.pad(image, half), (window, window))
    return pb.embed_crops(state, [w for row in view[::stride, ::stride] for w in row])


def _count_box_means(monkeypatch):
    calls = []

    def spy(image, f):
        calls.append(f)
        return box_mean(image, f)

    monkeypatch.setattr(pb, "box_mean", spy)
    return calls


@pytest.mark.parametrize("window,stride", [(192, 8), (192, 5), (128, 8)])
def test_pooled_key_dictionary_equals_view_list(window, stride, probe_state, monkeypatch):
    """A window at a multiple of H0 (32 here) is a strided view of one box
    mean, and its features equal resizing each window, bit for bit."""
    ph = generate(np.random.default_rng(0), PhantomSpec(side=256))
    calls = _count_box_means(monkeypatch)
    feats, centers = pb._key_dictionary(probe_state, ph.image, window, stride)
    assert calls == [window // probe_state.config.H0]
    assert np.array_equal(feats, _view_list_keys(probe_state, ph.image, window, stride))
    grid = np.arange(0, 256 + 1, stride, dtype=float)
    assert np.array_equal(centers, np.stack(np.meshgrid(grid, grid), -1).reshape(-1, 2))


@pytest.mark.parametrize("window", [48, 200])
def test_other_windows_keep_the_view_path(window, probe_state, probe_phantoms, monkeypatch):
    calls = _count_box_means(monkeypatch)
    image = probe_phantoms[0].image
    feats, _ = pb._key_dictionary(probe_state, image, window, 16)
    assert calls == []
    assert np.array_equal(feats, _view_list_keys(probe_state, image, window, 16))


def test_key_windows_reach_embed_crops_at_h0(probe_state, monkeypatch):
    """At window 192 no key window is downscaled on its own: the query crops
    are resized from 192, and the 1,089 key windows reach embed_crops at
    side H0, where they are stacked without a call to resize."""
    ph = generate(np.random.default_rng(0), PhantomSpec(side=256))
    sides, embedded = [], []

    def spy(src, out_side):
        sides.append((src.shape, out_side))
        return resize(src, out_side)

    def embed_spy(state, crops):
        embedded.extend(c.shape for c in crops)
        return embed(state, crops)

    embed = pb.embed_crops
    monkeypatch.setattr(pb, "resize", spy)
    monkeypatch.setattr(pb, "embed_crops", embed_spy)
    pb.correspondence_probe(probe_state, [ph], [ph], window=192, stride=8)
    h0 = probe_state.config.H0
    assert sides == [((192, 192), h0)] * len(ph.landmarks)
    assert embedded == [(192, 192)] * len(ph.landmarks) + [(h0, h0)] * 33 ** 2


def test_compositionality_parts_resize_once_to_h0(probe_state, probe_phantoms, monkeypatch):
    """Each quadrant reaches embed_crops as a view of the patch and is resized
    there once, straight to H0; none is first scaled up to the patch's side."""
    calls = []

    def spy(src, out_side):
        calls.append((src.shape[0], out_side))
        return resize(src, out_side)

    monkeypatch.setattr(pb, "resize", spy)
    rep = pb.compositionality_probe(probe_state, probe_phantoms, n_parts=4, samples=8,
                                    rng=np.random.default_rng(3))
    h0 = probe_state.config.H0
    # every call goes to H0: one per quadrant and one per patch not already at H0
    assert sorted(calls) == sorted((side, h0) for size in (r["size"] for r in rep.samples)
                                   for side in [size // 2] * 4 + [size] if side != h0)


def test_compositionality_probe_mechanics(probe_state, probe_phantoms):
    rng = np.random.default_rng(1)
    rep = pb.compositionality_probe(probe_state, probe_phantoms, n_parts=4,
                                    samples=10, rng=rng)
    assert len(rep.samples) == 10
    assert -1.0 <= rep.summary["mean_cosine"] <= 1.0
    hist_total = sum(v for k, v in rep.summary.items() if k.startswith("hist_"))
    assert hist_total == 10
    for n_parts in (2, 3):
        with pytest.raises(ParameterError, match=f"n_parts must be 4, got {n_parts}"):
            pb.compositionality_probe(probe_state, probe_phantoms, n_parts=n_parts,
                                      samples=1, rng=rng)


def test_probe_determinism(probe_state, probe_phantoms):
    r1 = pb.retrieval_probe(probe_state, probe_phantoms,
                            np.random.default_rng(7), n_batches=2)
    r2 = pb.retrieval_probe(probe_state, probe_phantoms,
                            np.random.default_rng(7), n_batches=2)
    assert r1.summary == r2.summary
    assert r1.samples == r2.samples


def test_retrieval_embeds_each_batch_in_two_calls(probe_state, probe_phantoms, monkeypatch):
    """One call for the whole images and one for the query squares, not one per query."""
    rows = []
    real = pb.encode_batch

    def spy(cfg, params, images):
        rows.append(len(images))
        return real(cfg, params, images)

    monkeypatch.setattr(pb, "encode_batch", spy)
    pb.retrieval_probe(probe_state, probe_phantoms, np.random.default_rng(7), n_batches=2)
    assert rows == [32, 32, 32, 32]


def test_retrieval_summary_keys(probe_state, probe_phantoms):
    rep = pb.retrieval_probe(probe_state, probe_phantoms, np.random.default_rng(7), n_batches=1)
    assert list(rep.summary) == ["batches", "batch_size", "accuracy", "chance"]
    assert rep.summary["batches"] == 1 and rep.summary["batch_size"] == 32
    assert rep.summary["chance"] == pytest.approx(1 / 32)


def test_retrieval_needs_enough_phantoms(probe_state, probe_phantoms):
    for probe in (pb.retrieval_probe, pb.decompositionality_probe):
        with pytest.raises(ParameterError, match="need at least 32 phantoms, got 5"):
            probe(probe_state, probe_phantoms[:5], np.random.default_rng(0), batch_size=32)


def test_decompositionality_mechanics(probe_state, probe_phantoms):
    rep = pb.decompositionality_probe(probe_state, probe_phantoms,
                                      np.random.default_rng(2), n_batches=2)
    assert len(rep.samples) == 64
    assert 0.0 <= rep.summary["accuracy"] <= 1.0
    assert rep.summary["chance"] == pytest.approx(1 / 32)
    for rec in rep.samples:
        assert rec["correct"] in (0, 1) and rec["tie"] in (0, 1)


def test_correspondence_same_image_oracle(probe_state, probe_phantoms):
    """Query == key with stride 1: the exact window is in the dictionary, so
    the feature distance is zero and errors reduce to rounding."""
    ph = probe_phantoms[0]
    rep = pb.correspondence_probe(probe_state, [ph], [ph], window=48, stride=1)
    assert rep.summary["mean_error_px"] < 2.0
    with pytest.raises(ParameterError):
        pb.correspondence_probe(probe_state, [ph], [ph], window=8, stride=16)
    with pytest.raises(ParameterError):
        pb.correspondence_probe(probe_state, [ph], [ph], window=999, stride=1)


@pytest.mark.parametrize("call, named", [
    (lambda st, ph: pb.retrieval_probe(st, ph, np.random.default_rng(0), n_batches=0),
     "n_batches must be at least 1, got 0"),
    (lambda st, ph: pb.decompositionality_probe(st, ph, np.random.default_rng(0), n_batches=0),
     "n_batches must be at least 1, got 0"),
    (lambda st, ph: pb.retrieval_probe(st, ph, np.random.default_rng(0), batch_size=0),
     "batch_size must be at least 2, got 0"),
    (lambda st, ph: pb.retrieval_probe(st, ph, np.random.default_rng(0), batch_size=1),
     "batch_size must be at least 2, got 1"),
    (lambda st, ph: pb.decompositionality_probe(st, ph, np.random.default_rng(0),
                                                batch_size=1),
     "batch_size must be at least 2, got 1"),
    (lambda st, ph: pb.compositionality_probe(st, ph, n_parts=4, samples=0,
                                              rng=np.random.default_rng(0)),
     "samples must be at least 1, got 0"),
    (lambda st, ph: pb.compositionality_probe(st, [], n_parts=4, samples=1,
                                              rng=np.random.default_rng(0)),
     "phantoms must be at least 1, got 0"),
    (lambda st, ph: pb.symmetry_probe(st, []), "phantoms must be at least 1, got 0"),
    (lambda st, ph: pb.correspondence_probe(st, ph[:1], ph[1:2], window=48, stride=-64),
     "stride must be at least 1, got -64"),
    (lambda st, ph: pb.correspondence_probe(st, ph[:1], ph[1:2], window=48, stride=0),
     "stride must be at least 1, got 0"),
    (lambda st, ph: pb.symmetry_probe(st, ph[:1], patch_frac=0.001),
     "patch_frac 0.001 leaves a patch side of 0 on a 128-pixel image"),
    (lambda st, ph: pb.symmetry_probe(st, ph[:1], patch_frac=-0.5),
     "patch_frac -0.5 leaves a patch side of -64 on a 128-pixel image"),
    (lambda st, ph: pb.landmark_separability(st, ph[:2], patch_frac=0.001),
     "patch_frac 0.001 leaves a patch side of 0 on a 128-pixel image"),
    (lambda st, ph: pb.landmark_separability(st, ph[:2], patch_frac=-0.5),
     "patch_frac -0.5 leaves a patch side of -64 on a 128-pixel image"),
], ids=["retrieval-batches", "decompositionality-batches", "retrieval-batch-size",
        "retrieval-batch-size-one", "decompositionality-batch-size-one",
        "compositionality-samples", "compositionality-phantoms", "symmetry-phantoms",
        "correspondence-stride-negative", "correspondence-stride-zero",
        "symmetry-patch-zero", "symmetry-patch-negative", "separability-patch-zero",
        "separability-patch-negative"])
def test_probe_refuses_count_below_one(call, named, probe_state, probe_phantoms):
    with pytest.raises(ParameterError, match=f"^{named}$"):
        call(probe_state, probe_phantoms)


def test_correspondence_refuses_empty_lists(probe_state, probe_phantoms):
    ph = probe_phantoms[0]
    for queries, keys, arg in (([], [ph], "queries"), ([ph], [], "keys")):
        with pytest.raises(ParameterError, match=f"{arg} is empty"):
            pb.correspondence_probe(probe_state, queries, keys, window=48, stride=8)


def test_symmetry_probe_on_clean_phantoms(probe_state):
    spec = PhantomSpec(side=128, jitter_translate=0.0, jitter_scale=0.0,
                       intensity_noise=0.0, texture_amp=0.0, bg_jitter=0.0,
                       gain_jitter=0.0, field_amp=0.0, weave_amp=0.0,
                       level_jitter=0.0, mosaic_contrast=0.0)
    clean = [generate(np.random.default_rng(0), spec)]
    rep = pb.symmetry_probe(probe_state, clean)
    # on a perfectly mirror-symmetric image the flipped left patch IS the
    # right patch, so the flipped cosine is exactly 1
    assert rep.summary["mean_flipped_cosine"] == pytest.approx(1.0, abs=1e-9)
    assert len(rep.samples) == 4


def test_separability_mechanics(probe_state, probe_phantoms, tmp_path):
    csv_path = tmp_path / "emb.csv"
    rep = pb.landmark_separability(probe_state, probe_phantoms[:6],
                                   embeddings_csv=csv_path)
    assert 0.0 <= rep.summary["accuracy"] <= 1.0
    assert rep.summary["chance"] == pytest.approx(1 / 9)
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 6 * 9
    assert rows[0][:2] == ["instance_id", "landmark"]
    # plain decimals that read back to the float32 features
    feats = pb.embed_crops(probe_state, [pb._crop_centered(
        probe_phantoms[0].image, *probe_phantoms[0].landmarks[rows[1][1]],
        int(0.35 * probe_phantoms[0].image.shape[0]))])[0]
    assert np.array_equal(np.array(rows[1][2:], dtype=float).astype(np.float32), feats)
    with pytest.raises(ParameterError):
        pb.landmark_separability(probe_state, probe_phantoms[:1])


def test_report_csv_roundtrip(probe_state, probe_phantoms, tmp_path):
    rep = pb.retrieval_probe(probe_state, probe_phantoms,
                             np.random.default_rng(0), n_batches=1)
    sp = tmp_path / "samples.csv"
    rep.write_csv(sp)
    with open(sp) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(rep.samples)
    assert set(rows[0]) == set(rep.samples[0])
    su = tmp_path / "summary.csv"
    rep.write_summary_csv(su)
    with open(su) as f:
        pairs = {r[0]: r[1] for r in csv.reader(f)}
    assert float(pairs["accuracy"]) == rep.summary["accuracy"]


def test_report_without_samples_writes_an_empty_file(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("stale")
    pb.ProbeReport("empty", {"accuracy": 0.0}).write_csv(path)
    assert path.read_bytes() == b""
