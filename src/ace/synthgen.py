"""Procedural phantom images with a fixed body plan and exact landmark ground truth.

Every phantom shares one canonical layout: two lateral lobes (ellipses),
a medial disc, a ladder of rib bars and two clavicle arcs, all mirror
symmetric about the vertical center line.  Per-instance jitter translates
and rescales each structure; landmarks move with their structure, so the
ground truth is exact by construction.  Images are written as 16-bit
binary PGM (P5) files plus a tab-separated manifest.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import heap
from .errors import FormatError, ParameterError, read_utf8

LANDMARK_NAMES = (
    "left_lobe_center", "right_lobe_center",
    "left_lobe_apex", "right_lobe_apex",
    "left_clavicle_tip", "right_clavicle_tip",
    "left_rib2", "right_rib2",
    "disc_center",
)

# landmark pairs mirrored about the vertical center line (used by the symmetry probe)
MIRROR_PAIRS = (
    ("left_lobe_center", "right_lobe_center"),
    ("left_lobe_apex", "right_lobe_apex"),
    ("left_clavicle_tip", "right_clavicle_tip"),
    ("left_rib2", "right_rib2"),
)


# the supported envelope of each jitter and appearance amplitude: [0, bound)
_ENVELOPE = (("jitter_translate", 0.1), ("jitter_scale", 0.3), ("bg_jitter", 0.1),
             ("gain_jitter", 0.5), ("field_amp", 0.5), ("level_jitter", 0.5))
_RETIRED = ("weave_amp", "mosaic_contrast")


@dataclass(frozen=True)
class PhantomSpec:
    side: int = 256
    jitter_translate: float = 0.04   # fraction of side, per structure
    jitter_scale: float = 0.12       # relative scale jitter, per structure
    intensity_noise: float = 0.02    # additive Gaussian sigma
    texture_amp: float = 0.15        # per-structure sinusoidal texture amplitude
    background: float = 0.12
    # instance-wide appearance: exposure-like parameters drawn once per
    # phantom and visible in every crop (background shift, intensity gain,
    # low-frequency illumination field)
    bg_jitter: float = 0.05
    gain_jitter: float = 0.25
    field_amp: float = 0.12
    # retired: only 0.0 is accepted (the identity weave is gone)
    weave_amp: float = 0.0
    # per-structure intensity levels drawn once per instance
    level_jitter: float = 0.25
    # retired: only 0.0 is accepted (the background mosaic is gone)
    mosaic_contrast: float = 0.0

    def __post_init__(self):
        if self.side <= 0:
            raise ParameterError(f"side must be positive, got {self.side}")
        for name, bound in _ENVELOPE:
            if not 0 <= (value := getattr(self, name)) < bound:
                raise ParameterError(f"{name} must be in [0, {bound}), got {value}")
        for name in _RETIRED:
            if (value := getattr(self, name)) != 0.0:
                raise ParameterError(f"{name} is retired: only 0.0 is accepted, got {value}")


@dataclass(frozen=True)
class Phantom:
    image: np.ndarray
    landmarks: dict[str, tuple[float, float]]
    instance_id: str
    seed: int


def _soft_mask(dist: np.ndarray, width: float) -> np.ndarray:
    """Smooth 1 inside (dist < 0), 0 outside, logistic edge of the given width.

    Overwrites `dist` with the mask and returns it."""
    dist /= width
    np.clip(dist, -40, 40, out=dist)
    np.exp(dist, out=dist)
    dist += 1.0
    return np.divide(1.0, dist, out=dist)


def _pixel_axes(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel rows as an (s, 1) column and columns as a (1, s) row.

    A term that depends on one axis is evaluated on s values and broadcast;
    every pixel is the same floating-point expression as on a full np.mgrid.
    """
    v = np.arange(s, dtype=float)
    return v[:, None], v[None, :]


def _grating(s: int, amp: float, fx: float, fy: float, px: float, py: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """amp * sin(2 pi fx x / s + px) * sin(2 pi fy y / s + py) on the s x s pixel grid,
    written to `out` when it is given."""
    yy, xx = _pixel_axes(s)
    return np.multiply(amp * np.sin(2 * np.pi * fx * xx / s + px),
                       np.sin(2 * np.pi * fy * yy / s + py), out=out)


def generate(rng: np.random.Generator, spec: PhantomSpec,
             instance_id: str = "phantom", seed: int = 0) -> Phantom:
    """Render one phantom; deterministic given the generator state.

    Rendered in place: every full-image pass writes into the image, a lobe
    mask, or one of two scratch buffers (work and texture), so no pass
    allocates a temporary.  Each pixel is the same float64 expression,
    evaluated in the same order, as the plain array arithmetic
    `img += 0.34 * level * mask * texture`, and so on."""
    s = spec.side
    cx = (s - 1) / 2.0
    yy, xx = _pixel_axes(s)
    work, tex = np.empty((s, s)), np.empty((s, s))

    def jitter():
        dx = rng.uniform(-spec.jitter_translate, spec.jitter_translate) * s
        dy = rng.uniform(-spec.jitter_translate, spec.jitter_translate) * s
        sc = rng.uniform(1.0 - spec.jitter_scale, 1.0 + spec.jitter_scale)
        return dx, dy, sc

    def texture(freq_lo=3.0, freq_hi=7.0):
        # 1 + a random grating, in the texture buffer
        fx = rng.uniform(freq_lo, freq_hi)
        fy = rng.uniform(freq_lo, freq_hi)
        px = rng.uniform(0, 2 * np.pi)
        py = rng.uniform(0, 2 * np.pi)
        grating = _grating(s, spec.texture_amp, fx, fy, px, py, out=tex)
        grating += 1.0
        return grating

    # instance-wide appearance parameters, drawn before any structure so the
    # per-structure stream stays aligned across spec variants
    bg = spec.background + rng.uniform(-spec.bg_jitter, spec.bg_jitter)
    gain = 1.0 + rng.uniform(-spec.gain_jitter, spec.gain_jitter)
    ffx = rng.uniform(0.5, 2.5)
    ffy = rng.uniform(0.5, 2.5)
    fpx = rng.uniform(0, 2 * np.pi)
    fpy = rng.uniform(0, 2 * np.pi)
    def level():
        return 1.0 + spec.level_jitter * rng.uniform(-1.0, 1.0)

    img = np.full((s, s), bg)
    landmarks: dict[str, tuple[float, float]] = {}

    # lateral lobes
    lobe_off = 0.18 * s
    lobe_cy = 0.45 * s
    lobe_ax, lobe_ay = 0.125 * s, 0.21 * s
    lobe_masks = {}
    for name, sign in (("left", -1.0), ("right", 1.0)):
        dx, dy, sc = jitter()
        ecx, ecy = cx + sign * lobe_off + dx, lobe_cy + dy
        ax, ay = lobe_ax * sc, lobe_ay * sc
        mask = ((xx - ecx) / ax) ** 2 + ((yy - ecy) / ay) ** 2  # the mask's own buffer
        np.sqrt(mask, out=mask)
        mask -= 1.0
        mask *= min(ax, ay)
        lobe_masks[name] = _soft_mask(mask, 1.5)
        np.multiply(mask, 0.34 * level(), out=work)
        work *= texture()
        img += work
        landmarks[f"{name}_lobe_center"] = (ecx, ecy)
        landmarks[f"{name}_lobe_apex"] = (ecx, ecy - ay)

    # rib ladder: four horizontal bars clipped to the lobe masks
    dxr, dyr, scr = jitter()
    rib_ys = (np.array([0.32, 0.42, 0.52, 0.62]) * s - lobe_cy) * scr + lobe_cy + dyr
    rib_h = 0.012 * s * scr
    bars = sum(_soft_mask(np.abs(yy - ry) - rib_h, 1.0) for ry in rib_ys)
    ribs = np.add(lobe_masks["left"], lobe_masks["right"], out=work)
    np.clip(ribs, 0.0, 1.0, out=ribs)
    ribs *= 0.18 * level() * bars
    ribs *= texture(5.0, 9.0)
    img += ribs
    rib2_y = rib_ys[1]
    landmarks["left_rib2"] = (landmarks["left_lobe_center"][0] + dxr, rib2_y)
    landmarks["right_rib2"] = (landmarks["right_lobe_center"][0] + dxr, rib2_y)

    # clavicle arcs: shallow parabolic ridges above each lobe
    for name, sign in (("left", -1.0), ("right", 1.0)):
        dx, dy, sc = jitter()
        ccx = cx + sign * lobe_off + dx
        ccy = 0.22 * s + dy
        span = 0.13 * s * sc
        arc_y = ccy + 0.18 * ((xx - ccx) / span) ** 2 * span
        in_span = _soft_mask(np.abs(xx - ccx) - span, 1.5)
        ridge = np.subtract(yy, arc_y, out=work)
        np.abs(ridge, out=ridge)
        ridge -= 0.011 * s
        _soft_mask(ridge, 1.0)
        ridge *= 0.22 * level()
        ridge *= in_span
        img += ridge
        tip_x = ccx + sign * span
        landmarks[f"{name}_clavicle_tip"] = (tip_x, ccy + 0.18 * span)

    # medial disc
    dx, dy, sc = jitter()
    dcx, dcy, dr = cx + dx, 0.74 * s + dy, 0.085 * s * sc
    disc = np.add((xx - dcx) ** 2, (yy - dcy) ** 2, out=work)
    np.sqrt(disc, out=disc)
    disc -= dr
    _soft_mask(disc, 1.5)
    disc *= 0.30 * level()
    disc *= texture(2.0, 5.0)
    img += disc
    landmarks["disc_center"] = (dcx, dcy)

    # apply the instance-wide illumination field and gain
    if spec.field_amp > 0:
        field = _grating(s, spec.field_amp, ffx, ffy, fpx, fpy, out=tex)
        field += 1.0
        img *= field
    img *= gain

    if spec.intensity_noise > 0:
        # normal(0, sigma) draws are 0.0 + sigma * standard_normal, the same stream
        noise = rng.standard_normal(out=tex)
        noise *= spec.intensity_noise
        img += noise

    np.clip(img, 0.0, 1.0, out=img)
    return Phantom(image=img, landmarks=landmarks, instance_id=instance_id, seed=seed)


# ---------------------------------------------------------------------------
# PGM (P5) reading and writing


def write_image(path, image: np.ndarray) -> None:
    """16-bit binary PGM; quantization error is at most 1/65535 per pixel."""
    h, w = image.shape
    q = np.round(np.clip(image, 0.0, 1.0) * 65535.0).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(q.tobytes())


def read_image(path) -> np.ndarray:
    """Read binary PGM (P5), 8- or 16-bit, into one float32 array in [0, 1].

    The codes are cast to float32 and divided in place, with no float64
    temporary; every pixel is the float64 quotient code / maxval rounded to
    float32 (true of all 256 8-bit and all 65,536 16-bit codes)."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise FormatError(f"{path}: not a P5 PGM (offset 0)")
    pos = 2
    fields, starts = [], []
    while len(fields) < 3:
        m = re.compile(rb"\s*(?:#[^\n]*\n)*\s*(\d+)").match(raw, pos)
        if not m:
            raise FormatError(f"{path}: malformed header near byte {pos}")
        fields.append(int(m.group(1)))
        starts.append(m.start(1))
        pos = m.end()
    w, h, maxval = fields
    for name, value, start in (("width", w, starts[0]), ("height", h, starts[1])):
        if value < 1:  # an empty image would load and pass on as a phantom
            raise FormatError(f"{path}: {name} {value} is below 1 (offset {start})")
    if maxval not in (255, 65535):
        raise FormatError(f"{path}: unsupported maxval {maxval} (offset {pos})")
    pos += 1  # single whitespace byte after maxval
    itemsize = 1 if maxval == 255 else 2
    need = w * h * itemsize
    if len(raw) < pos + need:
        raise FormatError(f"{path}: truncated payload at byte {len(raw)}, need {need} bytes")
    if len(raw) > pos + need:  # a corrupted width or height would read as another image
        raise FormatError(f"{path}: {len(raw) - pos - need} byte(s) past the payload, "
                          f"from byte {pos + need}")
    dtype = np.uint8 if maxval == 255 else ">u2"
    arr = np.frombuffer(raw, dtype=dtype, offset=pos).reshape(h, w).astype(np.float32)
    arr /= np.float32(maxval)
    return arr


# ---------------------------------------------------------------------------
# manifest: UTF-8, tab separated, paths relative to the manifest file

MANIFEST_NAME = "manifest.tsv"
_NUMERIC_COLUMNS = [f"{n}_{axis}" for n in LANDMARK_NAMES for axis in "xy"] + ["seed"]


def build_manifest(directory, phantoms: Iterable[Phantom]) -> Path:
    """Write every image (a reused directory keeps no old pixels) plus the
    manifest; returns the manifest path.  Each image is written as the
    iterable yields it, so a generator keeps one image alive at a time."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(["instance_id", "path", *_NUMERIC_COLUMNS])]
    for ph in phantoms:
        rel = f"{ph.instance_id}.pgm"
        write_image(directory / rel, ph.image)
        row = [ph.instance_id, rel]
        for name in LANDMARK_NAMES:
            x, y = ph.landmarks[name]
            row.append(repr(float(x)))
            row.append(repr(float(y)))
        row.append(str(ph.seed))
        lines.append("\t".join(row))
    manifest = directory / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_manifest(manifest_path) -> list[Phantom]:
    """Read the manifest and every image it names; each image is `read_image`'s
    float32 array."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    lines = read_utf8(manifest_path, FormatError).splitlines()
    phantoms = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 + len(_NUMERIC_COLUMNS):
            raise FormatError(f"{manifest_path}:{lineno}: wrong column count {len(parts)}")
        instance_id, rel = parts[0], parts[1]
        values = []
        for column, text in zip(_NUMERIC_COLUMNS, parts[2:]):
            try:
                value = int(text) if column == "seed" else float(text)
            except ValueError:
                raise FormatError(f"{manifest_path}:{lineno}: column {column!r} "
                                  f"is not a number: {text!r}") from None
            if not math.isfinite(value):  # a nan landmark would load and break the probes
                raise FormatError(f"{manifest_path}:{lineno}: column {column!r} "
                                  f"is not finite: {text!r}")
            values.append(value)
        *coords, seed = values
        landmarks = {name: (coords[2 * i], coords[2 * i + 1])
                     for i, name in enumerate(LANDMARK_NAMES)}
        img_path = base / rel
        if not img_path.exists():
            raise FormatError(
                f"{manifest_path}:{lineno}: record {instance_id!r} names missing file {rel}")
        phantoms.append(Phantom(image=read_image(img_path), landmarks=landmarks,
                                instance_id=instance_id, seed=seed))
    if not phantoms:  # an empty file or a header alone: nothing to train or probe on
        raise FormatError(f"{manifest_path}: no phantom records")
    return phantoms


def instance_rng(master_seed: int, index: int) -> tuple[np.random.Generator, int]:
    """Per-instance RNG stream derived deterministically from the master seed."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(index)))
    return np.random.default_rng(ss), index


def _ahead(pool: ThreadPoolExecutor, render, count: int, ahead: int):
    """Yield render(0), ..., render(count - 1) in order, with at most `ahead`
    indices submitted past the one yielded."""
    pending = deque()
    for i in range(count):
        pending.append(pool.submit(render, i))
        if len(pending) > ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def generate_dataset(directory, count: int, spec: PhantomSpec, master_seed: int) -> Path:
    """Generate `count` phantoms, write PGMs and the manifest; returns manifest path.

    Phantoms are rendered on min(2, usable CPUs) worker threads; the calling
    thread writes each PGM in index order, with at most two phantoms
    rendered or rendering ahead of the one it writes.  Each phantom comes
    from its own `instance_rng(master_seed, i)`, so the files are the same,
    byte for byte, as the serial path's.  On one CPU, or for one phantom,
    the serial path runs with no pool: each PGM is written before the next
    phantom is generated.  Keeps freed heap pages in one malloc arena for
    good (`heap.hold_freed_pages`), set before any worker starts.
    """
    if count < 1:
        raise ParameterError(f"count must be at least 1, got {count}")
    if master_seed < 0:
        raise ParameterError(f"master_seed must be non-negative, got {master_seed}")
    heap.hold_freed_pages()

    def render(i):
        return generate(instance_rng(master_seed, i)[0], spec, instance_id=f"phantom{i:05d}",
                        seed=i)

    workers = min(2, len(os.sched_getaffinity(0)), count)
    if workers == 1:
        return build_manifest(directory, map(render, range(count)))
    with ThreadPoolExecutor(workers, thread_name_prefix="ace-gen") as pool:
        return build_manifest(directory, _ahead(pool, render, count, workers))
