"""The one table of finite-difference gradient checks, shared by the tier-1
gradient gate and ``ace gradcheck``: every autodiff primitive that training
calls, with its batched forms, then the full loss graph of a toy config.
Every case runs in float64, although training runs in float32: its inputs
are float64 arrays, and the toy state is a float64 copy."""

from dataclasses import replace

import numpy as np

from . import objective as obj
from . import tensor as tz
from . import trainer as tr
from .config import RunConfig, apply_overrides
from .cropgrid import sample_crop_pair
from .model import EncoderState, init
from .tensor import Tensor, grad_check


def weigh(t: Tensor, w: np.ndarray) -> Tensor:
    """sum(t * w) as a (1, 1) tensor, built from reshape and matmul only."""
    return tz.matmul(tz.reshape(t, (1, t.size)), Tensor(np.reshape(w, (t.size, 1))))


def primitive_cases(rng: np.random.Generator):
    """(name, op, input array) for every production primitive, with the
    batched forms of each primitive that takes a leading batch axis."""
    a, a3, sq = rng.normal(size=(4, 8)), rng.normal(size=(3, 4, 8)), rng.normal(size=(4, 4))
    w, w3, (v, u) = rng.normal(size=(8, 3)), rng.normal(size=(3, 8, 2)), rng.normal(size=(2, 8))
    p3 = np.exp(rng.normal(size=(3, 8)))
    p3 /= p3.sum(axis=1, keepdims=True)
    mask3 = (rng.random((3, 4)) < 0.5) | (np.arange(4) == rng.integers(4, size=(3, 1)))  # none empty
    t3 = (rng.random((3, 4, 8)) < 0.3) * rng.random((3, 4, 8))
    # the heads' T = 4 view keeps its shape under the swap: only values catch a skipped one
    blocks = rng.normal(size=(2, 2, 2, 2, 2, 3))
    ce, match = tz.cross_entropy_with_logits, tz.weighted_match_loss_logits
    per_item = [  # each runs on the matrix a and, as name_batch, on the batch a3
        ("matmul", lambda t: tz.matmul(t, Tensor(w))),
        ("linear", lambda t: tz.linear(t, Tensor(w), Tensor(v[:3]))),
        ("swapaxes", lambda t: tz.swapaxes(t, -1, -2)),
        ("layer_norm", lambda t: tz.layer_norm(t, Tensor(v), Tensor(u))),
    ]
    return [(name + suffix, op, x) for name, op in per_item
             for suffix, x in (("", a), ("_batch", a3))] + [
        ("add", lambda t: tz.add(t, Tensor(a3[0])), a),
        ("scale", lambda t: tz.scale(t, -1.7), a),
        ("silu", tz.silu, a),
        ("matmul_const_left", lambda t: tz.matmul(Tensor(sq), t), a),
        ("reshape", lambda t: tz.reshape(t, (8, 4)), a),
        ("masked_mean_pool", lambda t: tz.masked_mean_pool(t, mask3[0]), a),
        ("cross_entropy_with_logits", lambda t: ce(p3[0], t, 0.5), a[0]),
        ("match_loss", lambda t: match(t, t3[0], 0.9), a),
        ("matmul_shared_left", lambda t: tz.matmul(t, Tensor(a3)), sq),
        ("matmul_shared_right", lambda t: tz.matmul(Tensor(a3), t), w),
        ("matmul_batch_both", lambda t: tz.matmul(t, Tensor(w3)), a3),
        ("linear_batch_weight", lambda t: tz.linear(Tensor(a3), t, Tensor(v[:3])), w),
        ("linear_batch_bias", lambda t: tz.linear(Tensor(a3), Tensor(w), t), v[:3]),
        ("slice_batch", lambda t: tz.slice_batch(t, 1, 3), a3),
        ("swapaxes_blocks", lambda t: tz.swapaxes(t, -4, -3), blocks),
        ("layer_norm_batch_gain", lambda t: tz.layer_norm(Tensor(a3), t, Tensor(u)), v),
        ("layer_norm_batch_bias", lambda t: tz.layer_norm(Tensor(a3), Tensor(v), t), u),
        ("masked_mean_pool_batch", lambda t: tz.masked_mean_pool(t, mask3), a3),
        ("cross_entropy_with_logits_rows", lambda t: ce(p3, t, 0.5), a3[:, 0]),
        ("match_loss_batch", lambda t: match(t, t3, 0.9), a3),
    ]


def float64_state(state: EncoderState) -> EncoderState:
    """A float64 copy of a state: with float64 images, the graph it drives
    runs in float64."""
    def copy(params, requires_grad):
        return {n: Tensor(t.data.astype(np.float64), requires_grad) for n, t in params.items()}
    return replace(state, student=copy(state.student, True), teacher=copy(state.teacher, False),
                   center=state.center.astype(np.float64))


def _loss_graph_errors(rng: np.random.Generator):
    """The full training loss of a toy config on two crop pairs, end to end
    through the encoder, probed at one coordinate of each of three sampled
    student parameters."""
    cfg = apply_overrides(RunConfig(), [
        "grid_patches=8", "patch_pixels=8", "crop1_patches=4", "resize_side=16",
        "embed_dim=8", "encoder_depth=1", "encoder_hidden=16", "aug_brightness=0",
        "aug_contrast=0", "aug_noise=0", "aug_blur=0"])
    spec = cfg.grid_spec()
    state = float64_state(init(cfg.encoder_config(), rng))
    batch = [(rng.random((spec.side, spec.side)), sample_crop_pair(rng, spec)) for _ in range(2)]

    def total(name, t):
        probe = replace(state, student={**state.student, name: t})
        lg, lc, ld, _ = tr._batch_losses(probe, batch, cfg, spec, np.random.default_rng(0))
        return obj.total_loss(lg, lc, ld, cfg.lambda_global, cfg.lambda_comp, cfg.lambda_decomp)

    return [(f"loss_graph {name}", grad_check(lambda t: total(name, t), state.student[name],
                                              sample=1, rng=rng))
            for name in rng.choice(sorted(state.student), size=3)]


def errors(seed: int):
    """(case name, max relative error) of every case at one seed; each op's
    output is scalarised by a fixed random weighting."""
    rng = np.random.default_rng(seed)
    out = []
    for name, op, x in primitive_cases(rng):
        w = rng.normal(size=op(Tensor(x)).size)
        out.append((name, grad_check(lambda t: weigh(op(t), w), Tensor(x))))
    return out + _loss_graph_errors(rng)
