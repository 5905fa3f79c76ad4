"""Frozen-checkpoint property probes scored against synthetic ground truth.

All probes share one feature extractor: crop, resize to the encoder input
side, student encode, mean over tokens.  It encodes 32 crops at a time, so at
the desk encoder's size a chunk's MLP activations fit a 2 MiB L2 cache, and
the separability probe cuts its crops one such chunk at a time.  The
correspondence key windows whose side is a multiple of H0 are box-pooled
once per key image (`cropgrid.box_mean`) and reach it as H0-side views,
which are stacked without a resize.  No probe fine-tunes anything, and
feature extraction never sees labels; ground truth enters only at scoring
time.  Each probe is a pure function of (checkpoint, phantoms, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blas, heap
from .cropgrid import box_mean, resize
from .errors import ParameterError
from .model import EncoderState, encode_batch
from .synthgen import MIRROR_PAIRS, Phantom
from .tensor import DTYPE

_ENCODE_CHUNK = 32


@dataclass
class ProbeReport:
    name: str
    summary: dict
    samples: list[dict] = field(repr=False, default_factory=list)

    def write_csv(self, path) -> None:
        path = Path(path)
        with open(path, "w", newline="", encoding="utf-8") as f:
            if not self.samples:
                return
            writer = csv.DictWriter(f, fieldnames=list(self.samples[0].keys()))
            writer.writeheader()
            writer.writerows(self.samples)

    def write_summary_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["key", "value"])
            for k, v in self.summary.items():
                writer.writerow([k, v])


@blas.one_thread()
def embed_crops(state: EncoderState, crops) -> np.ndarray:
    """Shared feature path: resize each crop to H0, encode, mean-pool tokens -> (B, K).

    ``crops`` is a sized sequence of square crops of any side: a list of
    arrays or views, or a stack.  They are encoded `_ENCODE_CHUNK` (32) at a
    time: at the desk encoder's 64 tokens and 64 hidden units a chunk's
    float32 MLP activations take 512 KiB and fit a 2 MiB L2 cache, where 256
    crops would take 4 MiB.  A row does not depend on the chunking.  A crop
    already H0 x H0 is stacked as it is; correspondence key windows at a
    multiple of H0 arrive that way, box-pooled in `cropgrid.box_mean`, as
    H0-side views.  Each crop is resized in its own dtype, float32 for a
    loaded phantom, and the chunk is stacked in float32, so a pooled view and
    a resized window give the same bits and no crop gets a float64 copy; the
    features are float32.  The call runs on one OpenBLAS thread, as training
    does, and restores the count it found.  The first call keeps freed heap
    pages in the process for good (`heap.hold_freed_pages`)."""
    heap.hold_freed_pages()
    cfg = state.config
    feats = [np.empty((0, cfg.K), DTYPE)]  # no crops give no rows
    for i in range(0, len(crops), _ENCODE_CHUNK):
        resized = np.stack([c if c.shape == (cfg.H0, cfg.H0) else resize(c, cfg.H0)
                            for c in crops[i:i + _ENCODE_CHUNK]], dtype=DTYPE)
        feats.append(encode_batch(cfg, state.student, resized).mean(axis=1))
    return np.concatenate(feats, axis=0)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _cosine_matrix(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    qn = q / max(np.linalg.norm(q), 1e-30)
    kn = keys / np.maximum(np.linalg.norm(keys, axis=1, keepdims=True), 1e-30)
    return kn @ qn


def _crop_centered(image: np.ndarray, cx: float, cy: float, side: int) -> np.ndarray:
    """Square crop centered at (cx, cy) with zero padding past the borders,
    in the image's dtype."""
    h, w = image.shape
    half = side // 2
    x0, y0 = int(round(cx)) - half, int(round(cy)) - half
    out = np.zeros((side, side), dtype=image.dtype)
    sx0, sy0 = max(0, x0), max(0, y0)
    sx1, sy1 = min(w, x0 + side), min(h, y0 + side)
    if sx1 > sx0 and sy1 > sy0:
        out[sy0 - y0:sy1 - y0, sx0 - x0:sx1 - x0] = image[sy0:sy1, sx0:sx1]
    return out


def _require_counts(least: int = 1, **counts) -> None:
    """Refuse, by name, a count or stride below ``least``: a probe over nothing
    scores nothing."""
    for name, n in counts.items():
        if n < least:
            raise ParameterError(f"{name} must be at least {least}, got {n}")


def _random_square(rng: np.random.Generator, side: int):
    """Even-sided square (x, y, size) covering 30-60% of the image side."""
    size = int(rng.uniform(0.3, 0.6) * side)
    size -= size % 2
    size = max(2, size)
    x = int(rng.integers(0, side - size + 1))
    y = int(rng.integers(0, side - size + 1))
    return x, y, size


# ---------------------------------------------------------------------------


def compositionality_probe(state: EncoderState, phantoms: list[Phantom], n_parts: int,
                           samples: int, rng: np.random.Generator) -> ProbeReport:
    """Cosine between a patch embedding and the mean embedding of its 2x2 sub-patches.

    The quadrants reach embed_crops as views of the patch, so each is resized
    once, straight to H0, as the patch itself is."""
    if n_parts != 4:
        # the split mirrors the composer's 2x2 token blocks; the summary records it
        raise ParameterError(f"n_parts must be 4, got {n_parts}")
    _require_counts(samples=samples, phantoms=len(phantoms))
    records = []
    for s in range(samples):
        ph = phantoms[int(rng.integers(0, len(phantoms)))]
        side = ph.image.shape[0]
        x, y, size = _random_square(rng, side)
        whole = ph.image[y:y + size, x:x + size]
        h = size // 2
        parts = [whole[:h, :h], whole[:h, h:], whole[h:, :h], whole[h:, h:]]
        feats = embed_crops(state, parts + [whole])
        sim = _cosine(feats[-1], feats[:-1].mean(axis=0))
        records.append({"sample": s, "instance_id": ph.instance_id, "x": x, "y": y,
                        "size": size, "cosine": sim})
    sims = np.array([r["cosine"] for r in records])
    hist, edges = np.histogram(sims, bins=40, range=(-1.0, 1.0))
    summary = {"n_parts": n_parts, "samples": samples,
               "mean_cosine": float(sims.mean()), "std_cosine": float(sims.std())}
    for i, count in enumerate(hist):
        summary[f"hist_{edges[i]:+.2f}"] = int(count)
    return ProbeReport("compositionality", summary, records)


def _match_batches(phantoms: list[Phantom], rng: np.random.Generator, batch_size: int,
                   n_batches: int, draw) -> list[dict]:
    """Score batches of `batch_size` distinct phantoms by cosine matching.

    `draw(images)` returns the batch's (queries, candidates) features; item j
    is a hit when its query's best candidate is candidate j.  A tie is an
    exact float32 equality of the best cosines; it breaks to the lowest index."""
    # a margin needs a runner-up candidate in the batch
    _require_counts(2, batch_size=batch_size)
    _require_counts(n_batches=n_batches)
    if len(phantoms) < batch_size:
        raise ParameterError(f"need at least {batch_size} phantoms, got {len(phantoms)}")
    records = []
    for b in range(n_batches):
        chosen = rng.choice(len(phantoms), size=batch_size, replace=False)
        queries, candidates = draw([phantoms[int(i)].image for i in chosen])
        for j in range(batch_size):
            sims = _cosine_matrix(queries[j], candidates)
            winners = np.flatnonzero(sims == sims.max())
            order = np.sort(sims)[::-1]
            records.append({"batch": b, "item": j, "correct": int(winners[0] == j),
                            "tie": int(len(winners) > 1),
                            "margin": float(order[0] - order[1])})
    return records


def decompositionality_probe(state: EncoderState, phantoms: list[Phantom],
                             rng: np.random.Generator, batch_size: int = 32,
                             n_batches: int = 8) -> ProbeReport:
    """Match embed(X) - embed(X without a patch) against the excised patches."""
    def draw(images):
        excised, patches = [], []
        for img in images:
            x, y, size = _random_square(rng, img.shape[0])
            cut = img.copy()
            cut[y:y + size, x:x + size] = 0.0
            excised.append(cut)
            patches.append(img[y:y + size, x:x + size])
        f_whole = embed_crops(state, images)
        f_exc = embed_crops(state, excised)
        return f_whole - f_exc, embed_crops(state, patches)

    records = _match_batches(phantoms, rng, batch_size, n_batches, draw)
    summary = {"batches": n_batches, "batch_size": batch_size,
               "accuracy": sum(r["correct"] for r in records) / len(records),
               "ties": sum(r["tie"] for r in records), "chance": 1.0 / batch_size}
    return ProbeReport("decompositionality", summary, records)


def retrieval_probe(state: EncoderState, phantoms: list[Phantom],
                    rng: np.random.Generator, batch_size: int = 32,
                    n_batches: int = 8) -> ProbeReport:
    """Whole-image retrieval from one query patch per batch item."""
    def draw(images):
        f_whole = embed_crops(state, images)
        # the squares are drawn in item order, so the RNG stream does not depend on batching
        squares = [_random_square(rng, img.shape[0]) for img in images]
        return embed_crops(state, [img[y:y + size, x:x + size]
                                   for img, (x, y, size) in zip(images, squares)]), f_whole

    records = _match_batches(phantoms, rng, batch_size, n_batches, draw)
    summary = {"batches": n_batches, "batch_size": batch_size,
               "accuracy": sum(r["correct"] for r in records) / len(records),
               "chance": 1.0 / batch_size}
    return ProbeReport("retrieval", summary, records)


def _key_dictionary(state: EncoderState, image: np.ndarray, window: int, stride: int):
    """Features of all stride-grid windows plus their center coordinates.

    The image is zero padded by half a window so the grid of window centers
    covers every image pixel, including landmarks close to the border.  At a
    window of f * H0 the padded image is box-pooled once (`box_mean`), and
    each window is the H0-side view box[y:y+window:f, x:x+window:f], equal
    bit for bit to resizing the window itself; any other window is a view of
    the padded image, resized in embed_crops.
    """
    half = window // 2
    padded = np.pad(image, half)
    h0 = state.config.H0
    f = window // h0 if window % h0 == 0 else 1
    source = box_mean(padded, f) if f > 1 else padded
    view = np.lib.stride_tricks.sliding_window_view(source, (window - f + 1,) * 2)
    view = view[::stride, ::stride, ::f, ::f]
    ny, nx = view.shape[:2]
    feats = embed_crops(state, [w for row in view for w in row])
    ys, xs = np.mgrid[0:ny, 0:nx]
    centers = np.stack([xs.reshape(-1).astype(float) * stride,
                        ys.reshape(-1).astype(float) * stride], axis=1)
    return feats, centers


def correspondence_probe(state: EncoderState, queries: list[Phantom],
                         keys: list[Phantom], window: int, stride: int) -> ProbeReport:
    """Cross-image landmark matching by nearest feature over a sliding window grid.

    Each key image's window dictionary is built once and scored against
    every query, so the probe covers len(queries) * len(keys) image pairs.
    """
    _require_counts(stride=stride)
    if stride > window:
        raise ParameterError(f"stride {stride} exceeds window {window}")
    for arg, images in (("queries", queries), ("keys", keys)):
        if not images:
            raise ParameterError(f"correspondence_probe: {arg} is empty")
    for q in queries:
        if window > q.image.shape[0]:
            raise ParameterError(f"window {window} exceeds image side {q.image.shape[0]}")
    names = list(queries[0].landmarks.keys())
    q_feats = []
    for q in queries:
        q_feats.append(embed_crops(state, [_crop_centered(q.image, x, y, window)
                                           for x, y in q.landmarks.values()]))
    records = []
    for key in keys:
        k_feats, k_centers = _key_dictionary(state, key.image, window, stride)
        for q, feats in zip(queries, q_feats):
            for i, name in enumerate(names):
                d2 = ((k_feats - feats[i]) ** 2).sum(axis=1)
                best = int(np.argmin(d2))
                px, py = k_centers[best]
                gx, gy = key.landmarks[name]
                err = float(np.hypot(px - gx, py - gy))
                records.append({"query_instance": q.instance_id,
                                "key_instance": key.instance_id, "landmark": name,
                                "pred_x": px, "pred_y": py, "gt_x": gx, "gt_y": gy,
                                "error_px": err})
    per_landmark = {}
    for name in names:
        errs = [r["error_px"] for r in records if r["landmark"] == name]
        per_landmark[f"mean_error_{name}"] = float(np.mean(errs))
    summary = {"window": window, "stride": stride, "queries": len(queries),
               "keys": len(keys),
               "mean_error_px": float(np.mean([r["error_px"] for r in records]))}
    summary.update(per_landmark)
    return ProbeReport("correspondence", summary, records)


def symmetry_probe(state: EncoderState, phantoms: list[Phantom],
                   patch_frac: float = 0.35) -> ProbeReport:
    """Flip-equivariance: mirrored landmark patches should match once flipped."""
    _require_counts(phantoms=len(phantoms))
    records = []
    for ph in phantoms:
        side = ph.image.shape[0]
        patch = int(patch_frac * side)
        if patch < 1:
            raise ParameterError(f"patch_frac {patch_frac} leaves a patch side of {patch} "
                                 f"on a {side}-pixel image")
        # odd patch side keeps the window symmetric about its center pixel,
        # so a flip maps a left-landmark patch exactly onto the right one
        patch |= 1
        for left, right in MIRROR_PAIRS:
            lx, ly = ph.landmarks[left]
            rx, ry = ph.landmarks[right]
            c_l = _crop_centered(ph.image, lx, ly, patch)
            c_r = _crop_centered(ph.image, rx, ry, patch)
            feats = embed_crops(state, [np.fliplr(c_l), c_r, c_l])
            flipped_sim = _cosine(feats[0], feats[1])
            control_sim = _cosine(feats[2], feats[1])
            records.append({"instance_id": ph.instance_id, "pair": f"{left}|{right}",
                            "flipped_cosine": flipped_sim, "control_cosine": control_sim,
                            "gap": flipped_sim - control_sim})
    gaps = np.array([r["gap"] for r in records])
    summary = {"instances": len(phantoms), "mean_gap": float(gaps.mean()),
               "mean_flipped_cosine": float(np.mean([r["flipped_cosine"] for r in records])),
               "mean_control_cosine": float(np.mean([r["control_cosine"] for r in records]))}
    for left, right in MIRROR_PAIRS:
        key = f"{left}|{right}"
        summary[f"gap_{key}"] = float(np.mean([r["gap"] for r in records if r["pair"] == key]))
    return ProbeReport("symmetry", summary, records)


def landmark_separability(state: EncoderState, phantoms: list[Phantom],
                          patch_frac: float = 0.35, embeddings_csv=None) -> ProbeReport:
    """Leave-one-instance-out nearest-centroid accuracy over landmark identity."""
    if len(phantoms) < 2:
        raise ParameterError("landmark separability needs at least 2 instances")
    names = list(phantoms[0].landmarks.keys())
    n_inst, n_lm = len(phantoms), len(names)
    side = phantoms[0].image.shape[0]
    patch = int(patch_frac * side)
    if patch < 1:
        raise ParameterError(f"patch_frac {patch_frac} leaves a patch side of {patch} "
                             f"on a {side}-pixel image")
    # cut one encode chunk of crops at a time, so the zero-padded crops of
    # every site are never held at once
    sites = [(ph.image, *ph.landmarks[name]) for ph in phantoms for name in names]
    feats = np.concatenate([
        embed_crops(state, [_crop_centered(image, x, y, patch)
                            for image, x, y in sites[i:i + _ENCODE_CHUNK]])
        for i in range(0, len(sites), _ENCODE_CHUNK)]).reshape(n_inst, n_lm, -1)

    if embeddings_csv is not None:
        with open(embeddings_csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["instance_id", "landmark"]
                            + [f"e{i}" for i in range(feats.shape[-1])])
            for i, ph in enumerate(phantoms):
                for j, name in enumerate(names):
                    # str of a float32 is its shortest round-trip decimal
                    writer.writerow([ph.instance_id, name] + [str(v) for v in feats[i, j]])

    norm = feats / np.maximum(np.linalg.norm(feats, axis=-1, keepdims=True), 1e-30)
    records = []
    correct = 0
    for i in range(n_inst):
        others = np.delete(norm, i, axis=0)
        centroids = others.mean(axis=0)
        centroids /= np.maximum(np.linalg.norm(centroids, axis=-1, keepdims=True), 1e-30)
        sims = norm[i] @ centroids.T
        preds = sims.argmax(axis=1)
        for j, name in enumerate(names):
            hit = int(preds[j] == j)
            correct += hit
            records.append({"instance_id": phantoms[i].instance_id, "landmark": name,
                            "predicted": names[int(preds[j])], "correct": hit})
    summary = {"instances": n_inst, "landmarks": n_lm,
               "accuracy": correct / (n_inst * n_lm), "chance": 1.0 / n_lm}
    return ProbeReport("landmark_separability", summary, records)
