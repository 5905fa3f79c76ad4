"""Pretraining loop: crop-pair batching, photometric augmentation, one
batched student and one batched teacher forward pass per step, AdamW with
warmup/cosine schedules, gradient clipping, EMA teacher updates,
checkpointing and per-step metrics.

A run is bit deterministic: one RNG drives phantom order, crop sampling
and augmentation, and its state travels with the checkpoint so a resumed run
reproduces the uninterrupted metrics stream.  The loop runs on one OpenBLAS
thread (see `ace.blas`): a second thread saves no wall time at desk scale,
and with it the bits would depend on the thread count of the environment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import blas, cropgrid, heap, model, objective
from . import tensor as tz
from .config import RunConfig
from .errors import AceError, FormatError, ParameterError
from .synthgen import load_manifest
from .tensor import Tape, Tensor

METRICS_NAME = "metrics.jsonl"
CHECKPOINT_NAME = "checkpoint.ace"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class StepRecord:
    step: int
    epoch: int
    ema_lambda: float
    lr: float
    weight_decay: float
    loss_global: float
    loss_comp: float
    loss_decomp: float
    loss_total: float
    grad_norm: float


# ---------------------------------------------------------------------------
# schedules


def learning_rate(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr, then cosine decay to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ParameterError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    # Python floats, as every schedule returns: a numpy float64 scalar would
    # promote the float32 arrays it scales
    return base_lr * 0.5 * (1.0 + float(np.cos(np.pi * (step - warmup_steps) / span)))


def weight_decay(step: int, total_steps: int, start: float, end: float) -> float:
    """Cosine ramp from start at step 0 to end at total_steps."""
    if not 0 <= step <= total_steps:
        raise ParameterError(f"step {step} outside [0, {total_steps}]")
    return start + (end - start) * (1.0 - float(np.cos(np.pi * step / total_steps))) / 2.0


# ---------------------------------------------------------------------------
# augmentation


def augment(rng: np.random.Generator, image: np.ndarray, brightness: float,
            contrast: float, noise: float, blur_prob: float) -> np.ndarray:
    """Photometric-only transform; pixel positions never move.  The output
    keeps the image's dtype: the noise is drawn in float64, as the RNG
    stream has it, and then cast."""
    out = image
    c = 1.0 + rng.uniform(-contrast, contrast)
    out = (out - 0.5) * c + 0.5
    out = out + rng.uniform(-brightness, brightness)
    if noise > 0:
        out = out + rng.normal(0.0, noise, size=image.shape).astype(image.dtype)
    if rng.random() < blur_prob:
        # mild 3x3 blur, edge padding: centre weight 4, each of the 8 neighbours 1, over 12
        pad = np.pad(out, 1, mode="edge")
        out = (pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]
               + 4.0 * pad[1:-1, 1:-1] + pad[:-2, :-2] + pad[:-2, 2:]
               + pad[2:, :-2] + pad[2:, 2:]) / 12.0
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Adam with decoupled weight decay; state keyed like the parameter dict."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float, wd: float):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            # the operations of (m / bc1) / (sqrt(v / bc2) + eps) + wd * p,
            # in their order, with one scratch array besides the update
            s = np.multiply(g, 1 - b1)
            m *= b1
            m += s
            np.multiply(g, 1 - b2, out=s)
            s *= g
            v *= b2
            v += s
            update = m / bc1
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            update /= s
            # decay is skipped for norm gains/biases and other 1-d parameters
            if p.data.ndim > 1:
                update += np.multiply(p.data, wd, out=s)
            update *= lr
            p.data -= update

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int):
        self.t = t
        for name in self.params:
            self.m[name] = arrays[f"opt.m.{name}"].copy()
            self.v[name] = arrays[f"opt.v.{name}"].copy()


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Global-norm clipping; returns the pre-clip norm.

    A non-finite norm raises instead: the update would write NaN into
    every parameter.
    """
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(sq))
    if not np.isfinite(norm):
        bad = next((name for name, p in params.items()
                    if p.grad is not None and not np.isfinite(p.grad).all()), None)
        where = f"first in parameter {bad!r}" if bad else "the sum of squares overflows"
        raise AceError(f"non-finite gradient norm: {where}")
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor  # out of place: a gradient may be shared
    return norm


# ---------------------------------------------------------------------------
# the training step


def _batch_losses(state: model.EncoderState, batch: list[tuple[np.ndarray, cropgrid.CropPair]],
                  cfg: RunConfig, spec: cropgrid.GridSpec, rng: np.random.Generator):
    """Forward pass and the three loss terms for a batch of B crop pairs.

    Crops are cut and augmented pair by pair, C1 before C2, so the RNG
    stream does not depend on the batch size.  The student and the teacher
    then each encode all 2B crops in one call: items 0..B-1 are the C1
    crops and items B..2B-1 the C2 crops.  Returns the global, composition
    and decomposition terms, each a mean over the pairs, and the mean pooled
    teacher output that drives centering.
    """
    enc = state.config
    crops1, crops2 = [], []
    for image, pair in batch:
        for crops, anchor, side in ((crops1, pair.anchor1, spec.c1),
                                    (crops2, pair.anchor2, spec.c2)):
            crops.append(augment(rng, cropgrid.extract_and_resize(image, anchor, side, spec),
                                 cfg.aug_brightness, cfg.aug_contrast, cfg.aug_noise,
                                 cfg.aug_blur))
    b = len(batch)
    pairs = [pair for _, pair in batch]
    images = np.stack(crops1 + crops2)
    s = model.encode(enc, state.student, images)
    t = model.encode_batch(enc, state.teacher, images)

    # composition: C1 -> student -> composer vs C2 -> teacher; decomposition:
    # C2 -> student -> decomposer vs C1 -> teacher.  Each role's targets are
    # the pairs' cached float64 ones, stacked in the crops' dtype.
    matching = []
    for role, head, (lo, hi), teacher, alpha in (
            ("composition", model.compose_head, (0, b), t[b:], cfg.alpha_comp),
            ("decomposition", model.decompose_head, (b, 2 * b), t[:b], cfg.alpha_decomp)):
        z = objective.matching_logits(Tensor(teacher),
                                      head(state.student, tz.slice_batch(s, lo, hi)))
        target = np.stack([objective.build_target(p, spec, role, k=cfg.kernel_size,
                                                  sigma=cfg.kernel_sigma) for p in pairs],
                          dtype=images.dtype)
        matching.append(objective.matching_loss_logits(z, target, alpha))
    loss_comp, loss_decomp = matching

    # global: each crop's pooled overlap embedding against the teacher's for
    # the other crop of its pair (both orderings), through the projection heads
    masks = np.stack([p.O1 for p in pairs] + [p.O2 for p in pairs])
    loss_global, t_pooled = objective.global_loss(
        s, np.roll(t, b, axis=0), masks, np.roll(masks, b, axis=0),
        cfg.tau_student, cfg.tau_teacher, state.center,
        student_head=lambda pooled: model.global_head(state.student, pooled),
        teacher_head=lambda pooled: model.global_head(state.teacher, pooled))
    return loss_global, loss_comp, loss_decomp, t_pooled.mean(axis=0)


def train_step(state: model.EncoderState, opt: AdamW,
               batch: list[tuple[np.ndarray, cropgrid.CropPair]], cfg: RunConfig,
               spec: cropgrid.GridSpec, rng: np.random.Generator,
               total_steps: int, warmup_steps: int, epoch: int) -> StepRecord:
    with Tape():
        loss_global, loss_comp, loss_decomp, t_pooled = _batch_losses(
            state, batch, cfg, spec, rng)
        total = objective.total_loss(
            loss_global, loss_comp, loss_decomp,
            lambda1=cfg.lambda_global, lambda2=cfg.lambda_comp, lambda3=cfg.lambda_decomp)
        loss_total = total.item()
        if not np.isfinite(loss_total):
            anchors = [(p.anchor1, p.anchor2) for _, p in batch]
            raise AceError(f"non-finite loss at step {state.step}; pair anchors: {anchors}")
        tz.backward(total)

    try:
        grad_norm = clip_gradients(state.student, cfg.grad_clip_norm)
    except AceError as exc:
        raise AceError(f"at step {state.step}: {exc}") from None
    lr = learning_rate(state.step + 1, total_steps, warmup_steps, cfg.base_lr)
    wd = weight_decay(state.step, total_steps, cfg.weight_decay_start, cfg.weight_decay_end)
    opt.step(lr, wd)
    opt.zero_grad()

    lam = model.ema_lambda(min(state.step + 1, total_steps), total_steps)
    model.ema_update(state, lam)
    state.center = objective.update_center(state.center, t_pooled)
    state.step += 1
    return StepRecord(step=state.step, epoch=epoch, ema_lambda=lam, lr=lr,
                      weight_decay=wd, loss_global=loss_global.item(),
                      loss_comp=loss_comp.item(), loss_decomp=loss_decomp.item(),
                      loss_total=loss_total, grad_norm=grad_norm)


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, state: model.EncoderState, opt: AdamW,
                    rng: np.random.Generator, cfg: RunConfig) -> None:
    extra = {
        "rng_state": json.dumps(rng.bit_generator.state),
        "opt_t": opt.t,
        "run_config": asdict(cfg),
        "blas_threads": blas.pinned_threads(),
        "dtype": np.dtype(tz.DTYPE).name,
    }
    model.save_state(path, state, extra=extra, extra_arrays=opt.state_arrays())


def load_checkpoint(path):
    """Returns (state, optimizer, rng, run_config).

    A checkpoint whose header does not record the training dtype was
    written by a float64 run; its state loads only rounded to float32, so
    the run cannot be continued bit for bit and is refused.
    """
    state, extra, extra_arrays = model.load_state(path)
    what = "the header's extra"
    cfg = model.config_from_header(RunConfig, model._field(extra, "run_config", path, what, dict),
                                   path)
    opt = AdamW(state.student)
    moments = {name: model._blob(extra_arrays, name, a.shape, path, "the optimizer state")
               for name, a in opt.state_arrays().items()}
    opt.load_state_arrays(moments, model._field(extra, "opt_t", path, what, int))
    rng = np.random.default_rng(0)
    rng_state = model._field(extra, "rng_state", path, what, str)
    try:
        rng.bit_generator.state = json.loads(rng_state)
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: {what} has 'rng_state' that is not a PCG64 state "
                          f"({exc!r})") from None
    saved, dtype = extra.get("dtype"), np.dtype(tz.DTYPE).name
    if saved != dtype:
        found = "no 'dtype' (a float64 run)" if saved is None else f"'dtype' = {saved!r}"
        raise FormatError(f"{path}: {what} has {found}; training runs in {dtype}, so "
                          "the run cannot be continued bit for bit")
    return state, opt, rng, cfg


# ---------------------------------------------------------------------------
# the loop


def _truncate_metrics(path: Path, upto_step: int):
    """Keep the records up to the checkpoint's step.  Metrics are flushed before
    each checkpoint, so text after the last newline is a record torn after it."""
    if not path.exists():
        return
    kept = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n")[:-1], start=1):
        if not line.strip():
            continue
        try:
            step = json.loads(line)["step"]
        except (ValueError, KeyError, TypeError) as exc:
            raise AceError(f"{path}:{lineno}: unreadable metrics record ({exc})") from None
        if step <= upto_step:
            kept.append(line)
    path.write_text("".join(l + "\n" for l in kept), encoding="utf-8")


# keys that do not change the trajectory of a run
_RESUME_FREE_KEYS = ("checkpoint_every",)


def _check_resumable(cfg: RunConfig, saved: RunConfig, path) -> None:
    """Refuse a resume whose config would not reproduce the checkpointed run."""
    diffs = [f"{k} (checkpoint {v!r}, now {getattr(cfg, k)!r})"
             for k, v in asdict(saved).items()
             if k not in _RESUME_FREE_KEYS and getattr(cfg, k) != v]
    if diffs:
        raise AceError(f"cannot resume from {path}: the config differs in "
                       + ", ".join(diffs))


@blas.one_thread()
def train_loop(cfg: RunConfig, manifest_path, out_dir, resume_from=None,
               progress=None) -> Path:
    """Run pretraining; writes checkpoints and metrics, returns final checkpoint path.

    The call runs on one OpenBLAS thread and restores the count it found.  It
    also keeps freed heap pages in the process for good (`heap.hold_freed_pages`).
    """
    cfg.check()
    heap.hold_freed_pages()
    spec = cfg.grid_spec()
    images = [p.image for p in load_manifest(manifest_path)]  # float32, as read
    if cfg.batch_size > len(images):
        # a step would see fewer pairs than the batch size the checkpoint records
        raise AceError(f"batch_size {cfg.batch_size} exceeds the {len(images)} phantoms "
                       f"in manifest {manifest_path}")
    for img in images:
        if img.shape != (spec.side, spec.side):
            raise AceError(
                f"phantom shape {img.shape} does not match grid side {spec.side}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    steps_per_epoch = len(images) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    if resume_from is not None:
        state, opt, rng, saved_cfg = load_checkpoint(resume_from)
        _check_resumable(cfg, saved_cfg, resume_from)
    else:
        rng = np.random.default_rng(cfg.seed)
        state = model.init(cfg.encoder_config(), rng)
        opt = AdamW(state.student)

    metrics_path = out_dir / METRICS_NAME
    if resume_from is not None:
        _truncate_metrics(metrics_path, state.step)
    elif metrics_path.exists():
        metrics_path.unlink()

    ckpt_path = out_dir / CHECKPOINT_NAME
    start_epoch = state.step // steps_per_epoch
    with open(metrics_path, "a", encoding="utf-8") as mf:
        for epoch in range(start_epoch, cfg.epochs):
            order = rng.permutation(len(images))
            for b in range(steps_per_epoch):
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                batch = []
                for i in idx:
                    pair = cropgrid.sample_crop_pair(rng, spec)
                    batch.append((images[i], pair))
                rec = train_step(state, opt, batch, cfg, spec, rng,
                                 total_steps, warmup_steps, epoch)
                mf.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
            mf.flush()
            if (epoch + 1) % cfg.checkpoint_every == 0 or epoch + 1 == cfg.epochs:
                save_checkpoint(ckpt_path, state, opt, rng, cfg)
            if progress is not None:
                progress(epoch, state)
    if start_epoch >= cfg.epochs:  # a finished run resumed: no epoch saved it here
        save_checkpoint(ckpt_path, state, opt, rng, cfg)
    return ckpt_path
