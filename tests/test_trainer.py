"""Schedules, optimizer, clipping, augmentation and the training loop."""

import json
import re

import numpy as np
import pytest

import ace.model as model
import ace.objective as obj
import ace.tensor as tz
import ace.trainer as tr
from ace import blas
from ace.config import RunConfig, apply_overrides
from ace.cropgrid import extract_and_resize, sample_crop_pair
from ace.errors import AceError, FormatError, ParameterError
from ace.gradcases import float64_state, primitive_cases
from ace.model import init
from ace.synthgen import PhantomSpec, build_manifest, generate, load_manifest
from ace.tensor import Tape, Tensor
from ace.trainer import (AdamW, augment, clip_gradients, learning_rate,
                         load_checkpoint, save_checkpoint, train_loop, weight_decay)


def _tiny_run_cfg(**over):
    cfg = RunConfig()
    pairs = [f"{k}={v}" for k, v in {
        "phantom_count": 8, "grid_patches": 4, "patch_pixels": 16,
        "crop1_patches": 2, "resize_side": 16, "embed_dim": 8, "encoder_depth": 1,
        "encoder_hidden": 16, "epochs": 3, "warmup_epochs": 1,
        "batch_size": 4, "checkpoint_every": 1, **over}.items()]
    return apply_overrides(cfg, pairs)


def _tiny_dataset(tmp_path, count=8, side=64, seed=0):
    spec = PhantomSpec(side=side)
    phantoms = [generate(np.random.default_rng((seed, i)), spec,
                         instance_id=f"p{i:03d}", seed=i) for i in range(count)]
    return build_manifest(tmp_path / "data", phantoms)


# ---------------------------------------------------------------------------
# schedules


def test_learning_rate_schedule():
    assert learning_rate(0, 100, 10, 5e-4) == 0.0
    assert learning_rate(10, 100, 10, 5e-4) == pytest.approx(5e-4, abs=0)
    assert learning_rate(100, 100, 10, 5e-4) == pytest.approx(0.0, abs=1e-18)
    # linear during warmup, monotone decreasing after
    assert learning_rate(5, 100, 10, 5e-4) == pytest.approx(2.5e-4)
    vals = [learning_rate(s, 100, 10, 5e-4) for s in range(10, 101)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        learning_rate(101, 100, 10, 5e-4)


def test_weight_decay_schedule():
    assert weight_decay(0, 100, 0.04, 0.4) == pytest.approx(0.04, abs=0)
    assert weight_decay(100, 100, 0.04, 0.4) == pytest.approx(0.4, abs=1e-15)
    mid = weight_decay(50, 100, 0.04, 0.4)
    assert mid == pytest.approx(0.22)
    vals = [weight_decay(s, 100, 0.04, 0.4) for s in range(101)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# optimizer and clipping


def _reference_adamw(x, g_seq, lr, wd, b1=0.9, b2=0.999, eps=1e-8, decay=True):
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    x = x.copy()
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        upd = mh / (np.sqrt(vh) + eps)
        if decay:
            upd = upd + wd * x
        x = x - lr * upd
    return x


def test_adamw_matches_reference():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(5)]
    p = Tensor(x0.copy(), requires_grad=True)
    opt = AdamW({"w": p})
    for g in grads:
        p.grad = g.copy()
        opt.step(lr=1e-2, wd=0.1)
    expect = _reference_adamw(x0, grads, 1e-2, 0.1)
    assert np.allclose(p.data, expect, atol=1e-12)


def _previous_adamw_step(x, m, v, g, t, lr, wd):
    # AdamW.step's earlier expression, kept as the bit-level reference
    bc1 = 1.0 - tr.ADAM_BETA1 ** t
    bc2 = 1.0 - tr.ADAM_BETA2 ** t
    m *= tr.ADAM_BETA1
    m += (1 - tr.ADAM_BETA1) * g
    v *= tr.ADAM_BETA2
    v += (1 - tr.ADAM_BETA2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)
    if x.ndim > 1:
        update = update + wd * x
    x -= lr * update


def test_adamw_step_bit_identical_to_previous_form():
    rng = np.random.default_rng(3)
    shapes = {"w": (5, 7), "b": (7,)}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    ref = {n: [p.data.copy(), np.zeros(shapes[n]), np.zeros(shapes[n])]
           for n, p in params.items()}
    opt = AdamW(params)
    for t in range(1, 4):
        for n, p in params.items():
            g = rng.normal(scale=10.0 ** -t, size=shapes[n])
            g.reshape(-1)[:3] = (0.0, -0.0, 1e-300)
            p.grad = g
            _previous_adamw_step(*ref[n], g, t, lr=3e-3, wd=0.05)
        opt.step(lr=3e-3, wd=0.05)
        for n, p in params.items():
            x_ref, m_ref, v_ref = ref[n]
            assert np.array_equal(p.data, x_ref), (n, t)
            assert np.array_equal(opt.m[n], m_ref) and np.array_equal(opt.v[n], v_ref)


def test_adamw_skips_decay_on_1d_params():
    x0 = np.full(4, 2.0)
    p1 = Tensor(x0.copy(), requires_grad=True)              # 1-d: no decay
    p2 = Tensor(x0.copy().reshape(1, 4), requires_grad=True)  # 2-d: decayed
    opt = AdamW({"a": p1, "b": p2})
    g = np.zeros(4)
    p1.grad = g.copy()
    p2.grad = g.copy().reshape(1, 4)
    opt.step(lr=1e-2, wd=0.5)
    assert np.array_equal(p1.data, x0)
    assert np.allclose(p2.data.reshape(-1), x0 - 1e-2 * 0.5 * x0)


def test_adamw_state_roundtrip():
    rng = np.random.default_rng(1)
    p = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    opt = AdamW({"w": p})
    p.grad = rng.normal(size=(2, 2))
    opt.step(1e-3, 0.0)
    arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
    opt2 = AdamW({"w": Tensor(p.data.copy(), requires_grad=True)})
    opt2.load_state_arrays(arrays, opt.t)
    assert opt2.t == 1
    assert np.array_equal(opt2.m["w"], opt.m["w"])
    assert np.array_equal(opt2.v["w"], opt.v["w"])


def test_clip_gradients():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.array([3.0, 4.0, 0.0, 0.0])  # norm 5
    norm = clip_gradients({"w": p}, 0.8)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(0.8)
    p.grad = np.array([0.1, 0.0, 0.0, 0.0])
    norm = clip_gradients({"w": p}, 0.8)
    assert norm == pytest.approx(0.1)
    assert p.grad[0] == pytest.approx(0.1)  # untouched below the threshold


def test_clip_gradients_leaves_shared_arrays_alone():
    # backward may store one array as the gradient of several tensors
    shared = np.array([3.0, 4.0, 0.0, 0.0])
    a = Tensor(np.zeros(4), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    other = Tensor(np.zeros(4), requires_grad=True)
    a.grad = b.grad = other.grad = shared
    norm = clip_gradients({"a": a, "b": b}, 1.0)
    assert norm == pytest.approx(np.sqrt(50.0))
    assert np.array_equal(shared, [3.0, 4.0, 0.0, 0.0])
    assert other.grad is shared
    assert np.array_equal(a.grad, shared * (1.0 / norm))
    assert np.array_equal(b.grad, a.grad)


def test_clip_gradients_rejects_non_finite():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([1.0, 2.0])
    b.grad = np.array([np.nan, 0.0])
    with pytest.raises(AceError, match="'b'"):
        clip_gradients({"a": a, "b": b}, 0.8)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_is_photometric_only():
    rng = np.random.default_rng(2)
    img = rng.random((32, 32))
    out = augment(rng, img, brightness=0.1, contrast=0.1, noise=0.02, blur_prob=0.0)
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    # zero amplitudes reduce to the identity
    same = augment(rng, img, brightness=0.0, contrast=0.0, noise=0.0, blur_prob=0.0)
    assert np.allclose(same, np.clip(img, 0, 1))


def test_augment_blur_keeps_range():
    rng = np.random.default_rng(3)
    img = rng.random((16, 16))
    out = augment(rng, img, brightness=0, contrast=0, noise=0, blur_prob=1.0)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.allclose(out, img)


# ---------------------------------------------------------------------------
# loop, determinism, checkpoint resume


def test_train_loop_writes_artifacts(tmp_path):
    cfg = _tiny_run_cfg()
    manifest = _tiny_dataset(tmp_path)
    ckpt = train_loop(cfg, manifest, tmp_path / "run")
    assert ckpt.exists()
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == cfg.epochs * (cfg.phantom_count // cfg.batch_size)
    rec = json.loads(lines[0])
    for key in ("step", "epoch", "loss_global", "loss_comp", "loss_decomp",
                "loss_total", "lr", "weight_decay", "ema_lambda", "grad_norm"):
        assert key in rec
    assert all(np.isfinite(json.loads(l)["loss_total"]) for l in lines)


def test_equal_seeds_bit_identical(tmp_path):
    cfg = _tiny_run_cfg()
    manifest = _tiny_dataset(tmp_path)
    train_loop(cfg, manifest, tmp_path / "r1")
    train_loop(cfg, manifest, tmp_path / "r2")
    m1 = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    assert m1 == m2


def test_different_seeds_differ(tmp_path):
    manifest = _tiny_dataset(tmp_path)
    train_loop(_tiny_run_cfg(seed=0, epochs=1, warmup_epochs=0), manifest, tmp_path / "r1")
    train_loop(_tiny_run_cfg(seed=1, epochs=1, warmup_epochs=0), manifest, tmp_path / "r2")
    m1 = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    assert m1 != m2


class _Interrupt(Exception):
    pass


def test_resume_reproduces_uninterrupted_stream(tmp_path):
    manifest = _tiny_dataset(tmp_path)
    # uninterrupted 3-epoch run
    train_loop(_tiny_run_cfg(epochs=3), manifest, tmp_path / "full")
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()
    # same schedule, interrupted right after the epoch-2 checkpoint
    part = tmp_path / "part"

    def interrupt(epoch, state):
        if epoch == 1:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        train_loop(_tiny_run_cfg(epochs=3), manifest, part, progress=interrupt)
    train_loop(_tiny_run_cfg(epochs=3), manifest, part,
               resume_from=part / "checkpoint.ace")
    resumed = (part / "metrics.jsonl").read_bytes()
    assert resumed == full


def test_resume_drops_a_torn_last_metrics_line(tmp_path):
    """An interrupted write can leave part of a record after the checkpoint;
    resume drops it, and an unreadable complete line is refused by name."""
    manifest = _tiny_dataset(tmp_path)
    train_loop(_tiny_run_cfg(epochs=2), manifest, tmp_path / "full")
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()
    part = tmp_path / "part"

    def interrupt(epoch, state):
        if epoch == 0:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        train_loop(_tiny_run_cfg(epochs=2), manifest, part, progress=interrupt)
    metrics = part / "metrics.jsonl"
    kept = metrics.read_bytes()
    torn = full[len(kept):len(kept) + 30]
    assert b"\n" not in torn
    metrics.write_bytes(kept + torn)
    train_loop(_tiny_run_cfg(epochs=2), manifest, part, resume_from=part / "checkpoint.ace")
    assert metrics.read_bytes() == full

    # ended by a newline, the same piece is a complete line that does not parse
    metrics.write_bytes(kept + torn + b"\n")
    lineno = len(kept.splitlines()) + 1
    with pytest.raises(AceError, match=rf"metrics\.jsonl:{lineno}: "):
        train_loop(_tiny_run_cfg(epochs=2), manifest, part,
                   resume_from=part / "checkpoint.ace")


def test_checkpoint_carries_rng_and_optimizer(tmp_path):
    manifest = _tiny_dataset(tmp_path)
    cfg = _tiny_run_cfg(epochs=1, warmup_epochs=0)
    ckpt = train_loop(cfg, manifest, tmp_path / "run")
    state, opt, rng, cfg_back = load_checkpoint(ckpt)
    assert cfg_back == cfg
    assert opt.t == state.step > 0
    # saving again from loaded state is bit-identical
    save_checkpoint(tmp_path / "again.ace", state, opt, rng, cfg_back)
    assert (tmp_path / "again.ace").read_bytes() == ckpt.read_bytes()


def test_checkpoint_records_blas_threads_and_old_ones_resume(tmp_path):
    manifest = _tiny_dataset(tmp_path)
    train_loop(_tiny_run_cfg(epochs=2), manifest, tmp_path / "full")
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()
    part = tmp_path / "part"

    def interrupt(epoch, state):
        if epoch == 0:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        train_loop(_tiny_run_cfg(epochs=2), manifest, part, progress=interrupt)
    ckpt = part / "checkpoint.ace"
    state, extra, extra_arrays = model.load_state(ckpt)
    assert extra["blas_threads"] == (1 if blas.thread_functions() else None)
    # a checkpoint written before the key existed loads and resumes exactly
    del extra["blas_threads"]
    model.save_state(ckpt, state, extra=extra, extra_arrays=extra_arrays)
    assert "blas_threads" not in model.load_state(ckpt)[1]
    train_loop(_tiny_run_cfg(epochs=2), manifest, part, resume_from=ckpt)
    assert (part / "metrics.jsonl").read_bytes() == full


@pytest.mark.parametrize("dtype", [None, "float64"])
def test_checkpoint_records_dtype_and_resume_refuses_another(tmp_path, dtype):
    """A checkpoint records the training dtype; one without it (a float64
    run from before float32 training) or with another cannot be continued
    bit for bit, so `load_checkpoint` refuses it by file and key, while
    `model.load_state` still loads it."""
    cfg = _tiny_run_cfg()
    state = init(cfg.encoder_config(), np.random.default_rng(0))
    ckpt = tmp_path / "step.ace"
    save_checkpoint(ckpt, state, AdamW(state.student), np.random.default_rng(0), cfg)
    header, arrays = model.read_blob_file(ckpt)
    assert header["extra"]["dtype"] == "float32"
    assert load_checkpoint(ckpt)[0].step == 0
    if dtype is None:
        del header["extra"]["dtype"]
    else:
        header["extra"]["dtype"] = dtype
    model.write_blob_file(ckpt, header, arrays)
    found = r"no 'dtype' \(a float64 run\)" if dtype is None else "'dtype' = 'float64'"
    with pytest.raises(FormatError, match=rf"^{re.escape(str(ckpt))}: .* has {found}; "
                                          "training runs in float32"):
        load_checkpoint(ckpt)
    assert model.load_state(ckpt)[0].student["embed.w"].data.dtype == np.float32


def test_loss_decreases_on_tiny_run(tmp_path):
    cfg = _tiny_run_cfg(epochs=10)
    manifest = _tiny_dataset(tmp_path)
    train_loop(cfg, manifest, tmp_path / "run")
    lines = [json.loads(l) for l in
             (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    spe = cfg.phantom_count // cfg.batch_size
    first = np.mean([r["loss_total"] for r in lines[:spe]])
    last = np.mean([r["loss_total"] for r in lines[-spe:]])
    assert last < first


def test_mismatched_image_side_raises(tmp_path):
    manifest = _tiny_dataset(tmp_path, side=32)
    with pytest.raises(Exception) as exc:
        train_loop(_tiny_run_cfg(), manifest, tmp_path / "run")
    assert "grid side" in str(exc.value)


def test_train_loop_trains_on_the_loaded_pixels(tmp_path, monkeypatch):
    """Every batch image is the float32 array load_manifest returned, not a
    copy of it: the run holds one copy of the pixels."""
    loaded, seen = [], []

    def load_spy(path):
        loaded.extend(load_manifest(path))
        return loaded

    def step_spy(state, opt, batch, *args):
        seen.extend(image for image, _ in batch)
        return real_step(state, opt, batch, *args)

    real_step = tr.train_step
    monkeypatch.setattr(tr, "load_manifest", load_spy)
    monkeypatch.setattr(tr, "train_step", step_spy)
    cfg = _tiny_run_cfg(epochs=1, warmup_epochs=0)
    train_loop(cfg, _tiny_dataset(tmp_path), tmp_path / "run")
    assert len(seen) == cfg.phantom_count
    assert all(p.image.dtype == np.float32 for p in loaded)
    for image in seen:
        assert any(np.shares_memory(image, p.image) for p in loaded)


def _step_inputs(tmp_path, batch_size):
    cfg = _tiny_run_cfg(aug_blur=0.5)
    spec = cfg.grid_spec()
    images = [p.image for p in load_manifest(_tiny_dataset(tmp_path))]
    rng = np.random.default_rng(4)
    batch = [(images[i], sample_crop_pair(rng, spec)) for i in range(batch_size)]
    return cfg, spec, batch


def _reference_pair_losses(state, image, pair, cfg, spec, rng):
    """One pair's loss graph built from single-image calls: the per-pair form
    of the training step, kept as the reference for the batched pass."""
    enc = state.config
    c1, c2 = (augment(rng, extract_and_resize(image, anchor, side, spec), cfg.aug_brightness,
                      cfg.aug_contrast, cfg.aug_noise, cfg.aug_blur)
              for anchor, side in ((pair.anchor1, spec.c1), (pair.anchor2, spec.c2)))
    s1, s2 = (model.encode(enc, state.student, c) for c in (c1, c2))
    t1, t2 = (model.encode_batch(enc, state.teacher, c)[0] for c in (c1, c2))

    def match(teacher_tokens, head_out, role, alpha):
        target = obj.build_target(pair, spec, role, k=cfg.kernel_size, sigma=cfg.kernel_sigma)
        z = obj.matching_logits(Tensor(teacher_tokens), head_out)
        return obj.matching_loss_logits(z, target, alpha)

    comp = match(t2, model.compose_head(state.student, s1), "composition", cfg.alpha_comp)
    dec = match(t1, model.decompose_head(state.student, s2), "decomposition",
                cfg.alpha_decomp)

    def head(params):
        return lambda pooled: tz.reshape(
            model.global_head(params, tz.reshape(pooled, (1, enc.K))), (enc.K,))

    args = (cfg.tau_student, cfg.tau_teacher, state.center, head(state.student),
            head(state.teacher))
    g1, tp2 = obj.global_loss(s1, t2, pair.O1, pair.O2, *args)
    g2, tp1 = obj.global_loss(s2, t1, pair.O2, pair.O1, *args)
    return tz.scale(tz.add(g1, g2), 0.5), comp, dec, 0.5 * (tp1 + tp2)


def _batch_matches_single_pairs(cfg, spec, batch, state, rtol):
    """One batched pass over the pairs against the mean of single-pair passes
    and of the per-pair reference graphs, to a relative tolerance."""

    def run(losses):
        with Tape():
            terms = losses()
            tz.backward(tz.add(tz.add(terms[0], terms[1]), terms[2]))
        grads = {n: p.grad.copy() for n, p in state.student.items()}
        for p in state.student.values():
            p.grad = None
        return [t.item() for t in terms[:3]] + [terms[3]], grads

    def mean_of(runs):
        values = [np.mean([r[0][i] for r in runs], axis=0) for i in range(4)]
        return values, {n: np.mean([r[1][n] for r in runs], axis=0) for n in state.student}

    # the same seed gives the same crops: pairs draw from one stream in order
    batched = run(lambda: tr._batch_losses(state, batch, cfg, spec, np.random.default_rng(9)))
    rng = np.random.default_rng(9)
    singles = mean_of([run(lambda: tr._batch_losses(state, [item], cfg, spec, rng))
                       for item in batch])
    rng = np.random.default_rng(9)
    reference = mean_of([run(lambda: _reference_pair_losses(state, *item, cfg, spec, rng))
                         for item in batch])
    for expect in (singles, reference):
        for got, want in zip(batched[0], expect[0]):
            assert np.allclose(got, want, rtol=rtol, atol=0)
        for name, g in batched[1].items():
            want = expect[1][name]
            assert np.allclose(g, want, rtol=rtol, atol=rtol * np.abs(want).max()), name


def test_batch_losses_equal_mean_of_single_pairs(tmp_path):
    """One batched pass over B=4 pairs equals the mean of four B=1 passes and
    the mean of four per-pair reference graphs, in every loss term, the
    centering statistic and every parameter gradient.  The batching logic
    does not depend on the dtype, so it is checked in float64."""
    cfg, spec, batch = _step_inputs(tmp_path, 4)
    batch = [(image.astype(np.float64), pair) for image, pair in batch]
    state = float64_state(init(cfg.encoder_config(), np.random.default_rng(0)))
    state.center = np.random.default_rng(1).normal(size=cfg.embed_dim)
    _batch_matches_single_pairs(cfg, spec, batch, state, rtol=1e-12)


# the float64 check's rtol of 1e-12 allows about 4,500 float64 epsilons of
# reordering error; the float32 step is held to the same count of float32
# epsilons (about 5.4e-4), fixed from that ratio and not from a measured gap
_FLOAT32_RTOL = 1e-12 / np.finfo(np.float64).eps * np.finfo(np.float32).eps


def test_float32_batch_losses_equal_mean_of_single_pairs(tmp_path):
    """The same equality on the float32 path training runs: float32 crops,
    parameters and center."""
    cfg, spec, batch = _step_inputs(tmp_path, 4)
    batch = [(image.astype(np.float32), pair) for image, pair in batch]
    state = init(cfg.encoder_config(), np.random.default_rng(0))
    state.center = np.random.default_rng(1).normal(size=cfg.embed_dim).astype(np.float32)
    _batch_matches_single_pairs(cfg, spec, batch, state, rtol=_FLOAT32_RTOL)


def test_non_finite_gradient_stops_before_update(tmp_path, monkeypatch):
    cfg, spec, batch = _step_inputs(tmp_path, 2)
    state = init(cfg.encoder_config(), np.random.default_rng(0))
    opt = AdamW(state.student)
    before = {n: p.data.copy() for n, p in state.student.items()}
    real_backward = tz.backward

    def poisoned_backward(loss):
        real_backward(loss)
        state.student["block0.mix.w"].grad[0, 0] = np.nan

    monkeypatch.setattr(tz, "backward", poisoned_backward)
    with pytest.raises(AceError, match=r"step 0.*'block0\.mix\.w'"):
        tr.train_step(state, opt, batch, cfg, spec, np.random.default_rng(0),
                      total_steps=4, warmup_steps=1, epoch=0)
    assert opt.t == 0
    for name, p in state.student.items():
        assert np.array_equal(p.data, before[name]), name


def test_batch_larger_than_the_manifest_is_refused(tmp_path):
    """A batch larger than the dataset would train on smaller batches than the
    checkpoint records; the error names both counts and the manifest."""
    manifest = _tiny_dataset(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(AceError) as exc:
        train_loop(_tiny_run_cfg(batch_size=9), manifest, out)
    assert str(exc.value) == f"batch_size 9 exceeds the 8 phantoms in manifest {manifest}"
    assert not out.exists()
    # a batch of the whole dataset is one step per epoch
    train_loop(_tiny_run_cfg(batch_size=8, epochs=1, warmup_epochs=0), manifest, out)
    assert len((out / tr.METRICS_NAME).read_text().splitlines()) == 1


def test_resume_refuses_a_different_config(tmp_path):
    manifest = _tiny_dataset(tmp_path)
    ckpt = train_loop(_tiny_run_cfg(epochs=1, warmup_epochs=0), manifest, tmp_path / "run")
    with pytest.raises(AceError, match=r"batch_size \(checkpoint 4, now 2\)"):
        train_loop(_tiny_run_cfg(epochs=1, warmup_epochs=0, batch_size=2), manifest, tmp_path / "run",
                   resume_from=ckpt)
    # checkpoint cadence does not change the trajectory
    train_loop(_tiny_run_cfg(epochs=1, warmup_epochs=0, checkpoint_every=5), manifest, tmp_path / "run",
               resume_from=ckpt)


def test_resuming_a_finished_run_into_a_fresh_directory_writes_its_checkpoint(tmp_path):
    # no epoch is left to run, yet the returned path must name the final state
    manifest = _tiny_dataset(tmp_path)
    cfg = _tiny_run_cfg(epochs=2, warmup_epochs=0)
    done = train_loop(cfg, manifest, tmp_path / "run1")
    again = train_loop(cfg, manifest, tmp_path / "run2", resume_from=done)
    assert again == tmp_path / "run2" / tr.CHECKPOINT_NAME
    assert again.read_bytes() == done.read_bytes()
    assert (tmp_path / "run2" / tr.METRICS_NAME).read_bytes() == b""


# a checkpoint's run state with a value of the wrong type: what the error
# names, and the edit of the header's extra
_BAD_RUN_STATE = {
    "opt_t": ("'opt_t' = 'x'", lambda extra: extra.update(opt_t="x")),
    "rng_state": ("'rng_state' = 5", lambda extra: extra.update(rng_state=5)),
    "rng_not_pcg64": ("'rng_state' that is not a PCG64 state",
                      lambda extra: extra.update(rng_state='{"x": 1}')),
    "rng_no_state": ("'rng_state' that is not a PCG64 state",
                     lambda extra: extra.update(rng_state='{"bit_generator": "PCG64"}')),
    "run_config": ("RunConfig has 'epochs' = '1'",
                   lambda extra: extra["run_config"].update(epochs="1")),
}


@pytest.mark.parametrize("key", list(_BAD_RUN_STATE))
def test_resume_names_a_bad_run_state_value(tmp_path, key):
    manifest = _tiny_dataset(tmp_path)
    cfg = _tiny_run_cfg(epochs=1, warmup_epochs=0)
    ckpt = train_loop(cfg, manifest, tmp_path / "run")
    header, arrays = model.read_blob_file(ckpt)
    named, change = _BAD_RUN_STATE[key]
    change(header["extra"])
    model.write_blob_file(ckpt, header, arrays)
    with pytest.raises(FormatError) as exc:
        train_loop(cfg, manifest, tmp_path / "run", resume_from=ckpt)
    assert str(ckpt) in str(exc.value) and named in str(exc.value), str(exc.value)


def _assert_teacher_constant(state):
    student_arrays = [p.data for p in state.student.values()]
    for name, t in state.teacher.items():
        assert t.requires_grad is False and t.grad is None, name
        assert not any(np.shares_memory(t.data, a) for a in student_arrays), name


def test_teacher_stays_constant_through_a_step_and_a_checkpoint(tmp_path):
    """The teacher is constant tensors: no step gives it a gradient or ties
    it to student memory, and a checkpoint round trip keeps that."""
    cfg, spec, batch = _step_inputs(tmp_path, 2)
    state = init(cfg.encoder_config(), np.random.default_rng(0))
    opt = AdamW(state.student)
    _assert_teacher_constant(state)
    tr.train_step(state, opt, batch, cfg, spec, np.random.default_rng(0),
                  total_steps=4, warmup_steps=1, epoch=0)
    _assert_teacher_constant(state)
    save_checkpoint(tmp_path / "step.ace", state, opt, np.random.default_rng(0), cfg)
    loaded, _, _, _ = load_checkpoint(tmp_path / "step.ace")
    _assert_teacher_constant(loaded)
    for name, t in state.teacher.items():
        assert np.array_equal(loaded.teacher[name].data, t.data), name


def test_every_primitive_of_a_step_has_a_gradient_case(monkeypatch):
    """Each primitive behind a node of a desk step's tape is also recorded by
    a case of the gradient table, so none enters training unchecked."""
    recorded = []
    real = Tape.record

    def spy(self, out, parents, backward_fn):
        recorded.append(backward_fn.__qualname__)
        real(self, out, parents, backward_fn)

    monkeypatch.setattr(Tape, "record", spy)
    cfg = RunConfig()
    spec = cfg.grid_spec()
    rng = np.random.default_rng(0)
    state = init(cfg.encoder_config(), rng)
    batch = [(rng.random((spec.side, spec.side)), sample_crop_pair(rng, spec)) for _ in range(2)]
    with Tape():
        lg, lc, ld, _ = tr._batch_losses(state, batch, cfg, spec, rng)
        tz.backward(obj.total_loss(lg, lc, ld, cfg.lambda_global, cfg.lambda_comp,
                                   cfg.lambda_decomp))
    step = set(recorded)
    recorded.clear()
    for _, op, x in primitive_cases(np.random.default_rng(0)):
        with Tape():
            op(Tensor(x, requires_grad=True))
    assert "layer_norm.<locals>.bw" in step
    assert step <= set(recorded), f"no gradient case records {sorted(step - set(recorded))}"
