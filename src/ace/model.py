"""Toy student/teacher token-map encoders, composer/decomposer heads, EMA updates.

The encoder is a token-mixing MLP: images are cut into T x T pixel patches,
linearly embedded to K dims, then refined by `depth` blocks of
(pre-normalized token mixing + pre-normalized per-token MLP), each with a
residual connection.  It produces the same T x T x K spatial token-map
interface a transformer backbone would, which is all the loss graph needs.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as tz
from .errors import FormatError, ParameterError, ShapeError
from .tensor import Tensor

EMA_BASE = 0.996  # cosine-scheduled EMA rate runs from this value to 1


@dataclass(frozen=True)
class EncoderConfig:
    K: int = 32
    T: int = 8
    H0: int = 64
    depth: int = 2
    hidden: int = 64

    def __post_init__(self):
        if self.H0 % self.T != 0:
            raise ParameterError(f"H0 ({self.H0}) must be divisible by T ({self.T})")
        for name, least in (("K", 1), ("hidden", 1), ("depth", 0)):
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.T % 2 != 0:
            raise ParameterError(f"T must be even, got {self.T}")

    @property
    def patch(self) -> int:
        return self.H0 // self.T

    @property
    def n_tokens(self) -> int:
        return self.T * self.T


@dataclass
class EncoderState:
    """Student parameters, EMA teacher as constant tensors, center vector, step count."""

    config: EncoderConfig
    student: dict[str, Tensor]
    teacher: dict[str, Tensor]
    center: np.ndarray
    step: int = 0


def _param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    k, n, h = cfg.K, cfg.n_tokens, cfg.hidden
    p2 = cfg.patch * cfg.patch
    shapes: dict[str, tuple[int, ...]] = {"embed.w": (p2, k), "embed.b": (k,)}
    for i in range(cfg.depth):
        b = f"block{i}"
        shapes[f"{b}.norm1.g"] = (k,)
        shapes[f"{b}.norm1.b"] = (k,)
        shapes[f"{b}.mix.w"] = (n, n)
        shapes[f"{b}.norm2.g"] = (k,)
        shapes[f"{b}.norm2.b"] = (k,)
        shapes.update(_mlp_shapes(f"{b}.mlp", k, h, k))
    shapes.update(_mlp_shapes("comp", 4 * k, 4 * k, k))
    shapes.update(_mlp_shapes("decomp", k, 4 * k, 4 * k))
    shapes.update(_mlp_shapes("ghead", k, h, k))
    return shapes


def _mlp_shapes(name: str, d_in: int, hidden: int, d_out: int) -> dict[str, tuple[int, ...]]:
    """The four parameters of `_mlp(params, name, x)`, in init order."""
    return {f"{name}.w1": (d_in, hidden), f"{name}.b1": (hidden,),
            f"{name}.w2": (hidden, d_out), f"{name}.b2": (d_out,)}


def init(cfg: EncoderConfig, rng: np.random.Generator) -> EncoderState:
    """Fan-in scaled uniform init, drawn in float64 and held in float32; the
    teacher starts as an exact copy of the student."""
    student: dict[str, Tensor] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".g"):
            data = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2")):
            data = np.zeros(shape)
        else:
            fan_in = shape[0]
            bound = np.sqrt(3.0 / fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        student[name] = Tensor(data.astype(tz.DTYPE), requires_grad=True)
    teacher = {name: Tensor(t.data.copy()) for name, t in student.items()}
    return EncoderState(config=cfg, student=student, teacher=teacher,
                        center=np.zeros(cfg.K, dtype=tz.DTYPE), step=0)


def _image_to_patches(cfg: EncoderConfig, images: np.ndarray) -> np.ndarray:
    """(H0, H0) -> (N, P*P) patch rows, or (B, H0, H0) -> (B, N, P*P)."""
    if images.ndim not in (2, 3) or images.shape[-2:] != (cfg.H0, cfg.H0):
        raise ShapeError(f"encode: expected {cfg.H0}x{cfg.H0} images, got {images.shape}")
    p, t = cfg.patch, cfg.T
    lead = images.shape[:-2]
    patches = images.reshape(*lead, t, p, t, p).swapaxes(-3, -2)
    return patches.reshape(*lead, t * t, p * p)


def encode(cfg: EncoderConfig, params: dict[str, Tensor], images: np.ndarray) -> Tensor:
    """Embed H0 x H0 images into token matrices (row-major T x T layout).

    One (H0, H0) image gives an N x K tensor; a (B, H0, H0) stack gives
    (B, N, K), with every per-item product at the size of a single image.
    """
    x = tz.linear(Tensor(_image_to_patches(cfg, images)), params["embed.w"], params["embed.b"])
    for i in range(cfg.depth):
        b = f"block{i}"
        y = tz.layer_norm(x, params[f"{b}.norm1.g"], params[f"{b}.norm1.b"])
        y = tz.matmul(params[f"{b}.mix.w"], y)
        x = tz.add(x, y)
        y = tz.layer_norm(x, params[f"{b}.norm2.g"], params[f"{b}.norm2.b"])
        x = tz.add(x, _mlp(params, f"{b}.mlp", y))
    return x


def _mlp(params: dict[str, Tensor], name: str, x: Tensor) -> Tensor:
    """linear -> SiLU -> linear on `{name}.w1/.b1/.w2/.b2`: a block's MLP or a head."""
    y = tz.silu(tz.linear(x, params[f"{name}.w1"], params[f"{name}.b1"]))
    return tz.linear(y, params[f"{name}.w2"], params[f"{name}.b2"])


def encode_batch(cfg: EncoderConfig, params: dict[str, Tensor],
                 images: np.ndarray) -> np.ndarray:
    """`encode` as a plain array: (B, H0, H0) -> (B, N, K).

    A single (H0, H0) image is treated as a batch of one.  Nothing is taped
    for constant parameters (the teacher) or outside a tape (the probes).
    """
    return encode(cfg, params, images if images.ndim == 3 else images[None]).data


def group_blocks(x: Tensor) -> Tensor:
    """(..., N, K) on a T x T token grid -> (..., N/4, 4K): the 2x2 blocks in
    row-major order, each its members' concatenation in row-major sub-order."""
    *lead, n, k = x.data.shape
    t = int(np.sqrt(n))
    if t * t != n or t % 2 != 0:
        raise ShapeError(f"group_blocks: token count {n} is not an even square")
    blocks = tz.swapaxes(tz.reshape(x, (*lead, t // 2, 2, t // 2, 2, k)), -4, -3)
    return tz.reshape(blocks, (*lead, n // 4, 4 * k))


def ungroup_blocks(x: Tensor) -> Tensor:
    """(..., N, 4K) on a T x T token grid -> (..., 4N, K) on the 2T x 2T
    sub-cell grid: the inverse of `group_blocks` on that grid."""
    *lead, n, k4 = x.data.shape
    t = int(np.sqrt(n))
    if t * t != n:
        raise ShapeError(f"ungroup_blocks: token count {n} is not a square")
    cells = tz.swapaxes(tz.reshape(x, (*lead, t, t, 2, 2, k4 // 4)), -4, -3)
    return tz.reshape(cells, (*lead, 4 * n, k4 // 4))


def compose_head(params: dict[str, Tensor], tokens: Tensor) -> Tensor:
    """Merge each 2x2 token block (concatenated to 4K dims) through a 2-layer MLP.

    Input N x K with T x T layout; output (N/4) x K with (T/2) x (T/2) layout.
    A leading batch axis passes through.
    """
    return _mlp(params, "comp", group_blocks(tokens))


def decompose_head(params: dict[str, Tensor], tokens: Tensor) -> Tensor:
    """Expand each token to 4K dims through a 2-layer MLP, then chunk into 2x2 sub-tokens.

    Input N x K with T x T layout; output 4N x K with (2T) x (2T) layout.
    A leading batch axis passes through.
    """
    return ungroup_blocks(_mlp(params, "decomp", tokens))


def global_head(params: dict[str, Tensor], pooled: Tensor) -> Tensor:
    """Projection for the pooled global branch, keeping it off the token dims
    the positional matching losses compete for.  (R, K) -> (R, K), one pooled
    embedding per row."""
    return _mlp(params, "ghead", pooled)


def ema_lambda(step: int, total_steps: int) -> float:
    """Cosine schedule of the teacher EMA rate, from 0.996 at step 0 to 1 at the end."""
    if total_steps <= 0:
        raise ParameterError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ParameterError(f"step {step} outside [0, {total_steps}]")
    # a Python float: a numpy float64 scalar would promote float32 arrays
    return 1.0 - (1.0 - EMA_BASE) * (float(np.cos(np.pi * step / total_steps)) + 1.0) / 2.0


def ema_update(state: EncoderState, lam: float) -> None:
    """teacher <- lam * teacher + (1 - lam) * student, in place."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"EMA rate must lie in [0, 1], got {lam}")
    for name, t in state.teacher.items():
        t.data *= lam
        t.data += (1.0 - lam) * state.student[name].data


# ---------------------------------------------------------------------------
# checkpoint container: magic "ACE1", JSON header, float64 little-endian blobs;
# a float32 array is written exactly, and `load_state` reads every blob back
# in float32

_MAGIC = b"ACE1"
_VERSION = 1


def write_blob_file(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write atomically: a failed or interrupted save leaves `path` as it was."""
    header = dict(header)
    header["blobs"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<IQ", _VERSION, len(raw)))
            f.write(raw)
            for a in arrays.values():
                f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_blob_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        head = f.read(12)
        if len(head) != 12:
            raise FormatError(f"{path}: truncated header")
        version, hlen = struct.unpack("<IQ", head)
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        raw = f.read(hlen)
        if len(raw) != hlen:
            raise FormatError(f"{path}: truncated header payload")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt header: {exc}") from None
        if not isinstance(header, dict) or not isinstance(header.get("blobs"), list):
            raise FormatError(f"{path}: header is not an object with a 'blobs' list")
        arrays = {}
        for blob in header.pop("blobs"):
            name = _field(blob, "name", path, "a blob entry", str)
            shape = _field(blob, "shape", path, f"blob {name!r}", list)
            if not all(type(n) is int and n >= 0 for n in shape):
                raise FormatError(f"{path}: blob {name!r} has shape {shape}, expected sizes")
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(8 * count)
            if len(buf) != 8 * count:
                raise FormatError(f"{path}: truncated blob {name!r}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return header, arrays


def _field(record, key: str, path, what: str, kind: type | None = None):
    """record[key], or a FormatError naming the file and the key if it is
    missing or, with `kind` given, not of that type (an int passes as a float)."""
    try:
        value = record[key]
    except (KeyError, TypeError):
        raise FormatError(f"{path}: {what} has no {key!r}") from None
    if kind is not None and not (type(value) is kind or kind is float and type(value) is int):
        raise FormatError(f"{path}: {what} has {key!r} = {value!r}, expected {kind.__name__}")
    return value


def config_from_header(cls, values: dict, path):
    """Rebuild config dataclass `cls` from a checkpoint; unknown keys, values
    not of their field's type and values `cls` refuses are refused."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise FormatError(f"{path}: unknown {cls.__name__} key(s) "
                          + ", ".join(map(repr, unknown)))
    for key in values:
        _field(values, key, path, f"the {cls.__name__}", type(getattr(cls, key)))
    try:
        return cls(**values)
    except ParameterError as exc:  # its message names the key at fault
        raise FormatError(f"{path}: the {cls.__name__} is refused: {exc}") from None


def save_state(path, state: EncoderState, extra: dict | None = None,
               extra_arrays: dict[str, np.ndarray] | None = None) -> None:
    header = {"config": asdict(state.config), "step": state.step, "extra": extra or {}}
    arrays: dict[str, np.ndarray] = {"center": state.center}
    for name, t in state.student.items():
        arrays[f"student.{name}"] = t.data
    for name, t in state.teacher.items():
        arrays[f"teacher.{name}"] = t.data
    for name, a in (extra_arrays or {}).items():
        arrays[f"extra.{name}"] = a
    write_blob_file(path, header, arrays)


def _blob(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...], path,
          what: str = "the blob list") -> np.ndarray:
    """arrays[name], or a FormatError naming the file and the blob if it is
    missing or not of the given shape."""
    a = _field(arrays, name, path, what)
    if a.shape != shape:
        raise FormatError(f"{path}: blob {name!r} has shape {a.shape}, expected {shape}")
    return a


def load_state(path) -> tuple[EncoderState, dict, dict[str, np.ndarray]]:
    """The state, header extra and extra arrays of a checkpoint, every array in
    float32: a blob of a float64 run is rounded, one of a float32 run is exact."""
    header, arrays = read_blob_file(path)
    arrays = {name: a.astype(tz.DTYPE) for name, a in arrays.items()}
    cfg = config_from_header(EncoderConfig, _field(header, "config", path, "the header", dict),
                             path)
    center = _blob(arrays, "center", (cfg.K,), path)
    shapes = _param_shapes(cfg)
    stray = next((n for n in arrays if n.startswith(("student.", "teacher."))
                  and n.split(".", 1)[1] not in shapes), None)
    if stray is not None:
        raise FormatError(f"{path}: blob {stray!r} is not a parameter of the header's "
                          "encoder config")
    student = {n: Tensor(_blob(arrays, f"student.{n}", s, path), requires_grad=True)
               for n, s in shapes.items()}
    teacher = {n: Tensor(_blob(arrays, f"teacher.{n}", s, path)) for n, s in shapes.items()}
    extra_arrays = {name[len("extra."):]: a for name, a in arrays.items()
                    if name.startswith("extra.")}
    state = EncoderState(config=cfg, student=student, teacher=teacher,
                         center=center, step=_field(header, "step", path, "the header", int))
    return state, header.get("extra", {}), extra_arrays
