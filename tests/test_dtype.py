"""One arithmetic dtype: a desk training step and the probe features are
float32 throughout, and every case of the gradient gate runs in float64."""

import numpy as np

import ace.gradcases as gradcases
import ace.objective as obj
import ace.probes as pb
import ace.tensor as tz
import ace.trainer as tr
from ace.config import apply_overrides, RunConfig
from ace.cropgrid import box_mean, resize
from ace.model import ema_lambda, init
from ace.synthgen import PhantomSpec, build_manifest, generate


def _spy_dtypes(monkeypatch):
    """Record the dtype of every `_record` output and its parents, and of
    every gradient that `_accum` receives, as (what, dtype) pairs."""
    seen = []
    record, accum = tz._record, tz._accum

    def spy_record(out_data, parents, backward_fn):
        seen.extend(("parent", p.data.dtype) for p in parents)
        out = record(out_data, parents, backward_fn)
        seen.append(("output", out.data.dtype))
        return out

    def spy_accum(t, g):
        seen.append(("gradient", g.dtype))
        accum(t, g)

    monkeypatch.setattr(tz, "_record", spy_record)
    monkeypatch.setattr(tz, "_accum", spy_accum)
    return seen


def test_desk_step_runs_in_float32(tmp_path, monkeypatch):
    """In a desk `train_loop` step, every taped output and gradient, the
    crops, the matching targets, the parameters, the teacher, the AdamW moments and the center
    are float32: nothing in a step converts an array."""
    cfg = apply_overrides(RunConfig(), ["phantom_count=8", "epochs=2", "warmup_epochs=1"])
    spec = PhantomSpec(side=cfg.grid_spec().side)
    manifest = build_manifest(tmp_path / "data", [
        generate(np.random.default_rng((3, i)), spec, instance_id=f"p{i}", seed=i)
        for i in range(cfg.phantom_count)])
    seen = _spy_dtypes(monkeypatch)
    steps = []
    step = tr.train_step

    def spy_step(state, opt, batch, *args, **kwargs):
        steps.append((state, opt, [image.dtype for image, _ in batch]))
        return step(state, opt, batch, *args, **kwargs)

    monkeypatch.setattr(tr, "train_step", spy_step)
    loss = obj.matching_loss_logits

    def spy_loss(z, target, alpha):
        seen.append(("target", target.dtype))  # the op would cast a float64 one
        return loss(z, target, alpha)

    monkeypatch.setattr(obj, "matching_loss_logits", spy_loss)
    tr.train_loop(cfg, manifest, tmp_path / "run")
    assert len(steps) == 2
    assert {"output", "gradient", "target"} <= {what for what, _ in seen}
    assert {(what, dtype) for what, dtype in seen if dtype != np.float32} == set()
    state, opt, image_dtypes = steps[-1]
    assert image_dtypes == [np.float32] * cfg.batch_size
    arrays = {f"student.{n}": p.data for n, p in state.student.items()}
    arrays.update({f"teacher.{n}": t.data for n, t in state.teacher.items()})
    arrays.update({f"opt.m.{n}": m for n, m in opt.m.items()})
    arrays.update({f"opt.v.{n}": v for n, v in opt.v.items()})
    arrays["center"] = state.center
    assert {n: a.dtype for n, a in arrays.items() if a.dtype != np.float32} == {}


def test_embed_crops_returns_float32():
    state = init(RunConfig().encoder_config(), np.random.default_rng(0))
    image = generate(np.random.default_rng(0), PhantomSpec(side=256)).image
    h0 = state.config.H0
    pooled = box_mean(image, 2)[:2 * h0:2, :2 * h0:2]  # an H0-side view, stacked as is
    feats = pb.embed_crops(state, [image[:h0, :h0], image[:100, :100], pooled])
    assert feats.dtype == np.float32
    assert feats.shape == (3, state.config.K)


def test_gradient_cases_run_in_float64(monkeypatch):
    """Every primitive case and the loss-graph cases of the gradient gate:
    their leaves, every other operand, every output and every gradient are
    float64, although training runs in float32."""
    seen = _spy_dtypes(monkeypatch)
    names = [name for name, _ in gradcases.errors(0)]
    assert sum(name.startswith("loss_graph") for name in names) == 3
    assert {"parent", "output", "gradient"} <= {what for what, _ in seen}
    assert {(what, dtype) for what, dtype in seen if dtype != np.float64} == set()


def test_schedules_return_python_floats():
    """A numpy float64 scalar would promote the float32 arrays it scales in
    AdamW and the EMA update, outside any tape."""
    assert type(tr.learning_rate(7, 20, 4, 5e-4)) is float
    assert type(tr.weight_decay(7, 20, 0.04, 0.4)) is float
    assert type(ema_lambda(7, 20)) is float


def test_resize_keeps_float32():
    """Every branch of `cropgrid.resize` returns a float32 crop for a float32
    image (same side, box sums below and from 8 columns, bilinear), so a
    training config whose crops do not box-pool onto H0 converts nothing."""
    image = np.random.default_rng(0).random((128, 128)).astype(np.float32)
    for side in (128, 64, 16, 48):
        assert resize(image, side).dtype == np.float32, side
