"""End-to-end release gates for the full package.

Fast property gates (gradient correctness, crop geometry, target values,
schedule endpoints, loss-form sanity, determinism) run in seconds.  The
desk-scale pretraining run and its probe gates are module-scoped and take a
few minutes in total.

Three desk-run probe gates (patch-to-image retrieval, excision
decomposition matching, and the composition-cosine margin) are currently
red: the pinned desk-scale recipe does not learn crop-readable instance
identity within its step budget, and the composition margin exceeds the
cosine ceiling for any encoder whose random-init baseline is above 0.9.
README.md ("Verification status") documents the measurements; the assertions
below state the intended gates honestly rather than masking them.
"""

import json
import math
import time

import numpy as np
import pytest

import ace.gradcases as gradcases
import ace.model as model
import ace.objective as obj
import ace.probes as pb
import ace.tensor as tz
import ace.trainer as tr
from ace.config import RunConfig, apply_overrides
from ace.cropgrid import GridSpec, compute_overlap, CropPair, sample_crop_pair
from ace.pixelcheck import verify_geometry
from ace.synthgen import PhantomSpec, build_manifest, generate, generate_dataset, load_manifest
from ace.tensor import Tape, Tensor, backward
from ace.trainer import train_loop, load_checkpoint

DESK = GridSpec(G=16, m=16, c1=8, c2=16, H0=64)
PAPER = GridSpec(G=32, m=32, c1=14, c2=28, H0=448)


# ---------------------------------------------------------------------------
# 1. gradient correctness: every primitive plus the full training loss graph


def test_gradients_every_primitive_and_full_loss_graph():
    """Every case of the shared table (every production primitive with its
    batched forms, full-coordinate central differences, then the full loss
    graph at sampled parameters) at 100 seeds."""
    t0 = time.monotonic()
    for seed in range(100):
        for name, err in gradcases.errors(seed):
            assert err < 1e-4, f"seed {seed} {name}: rel err {err:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient gate took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. crop geometry against the pixel-intersection oracle


def test_geometry_matches_pixel_oracle_at_both_scales():
    t0 = time.monotonic()
    for spec in (PAPER, DESK):
        report = verify_geometry(spec, samples=1000, seed=0)
        assert report.ok, report.failures[:5]
        assert report.samples == 1000
        rng = np.random.default_rng(1)
        for _ in range(50):
            pair = sample_crop_pair(rng, spec)
            assert pair.O1.sum() == 4 * pair.O2.sum()
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 3. matching-target values and shapes


def test_target_matrix_values_and_shapes():
    t0 = time.monotonic()
    O1, O2 = compute_overlap(DESK, (2, 4), (0, 0))
    pair = CropPair(anchor1=(2, 4), anchor2=(0, 0), O1=O1, O2=O2)
    n = DESK.T ** 2
    comp = obj.build_target(pair, DESK, "composition", k=3, sigma=1.0)
    dec = obj.build_target(pair, DESK, "decomposition", k=3, sigma=1.0)
    assert comp.shape == (n, n // 4)
    assert dec.shape == (n, 4 * n)
    expect = {1.0, math.exp(-0.5), math.exp(-1.0)}
    for m in (comp, dec):
        assert set(np.unique(m[m > 0])) == expect
    # interior composed-cell column sum: centre + 4 edge + 4 corner kernel taps
    interior = 1.0 + 4.0 * math.exp(-0.5) + 4.0 * math.exp(-1.0)
    fO1, fO2 = compute_overlap(DESK, (0, 0), (0, 0))
    full = CropPair(anchor1=(0, 0), anchor2=(0, 0), O1=fO1, O2=fO2)
    sums = obj.build_target(full, DESK, "composition").sum(axis=0)
    got = sums.reshape(4, 4)[1, 1]
    assert abs(got - interior) < 1e-9
    assert abs(got - 4.897640) < 1e-6  # six-decimal printed reference
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 4. schedule endpoints and clipping bound


def test_schedule_endpoints_and_clip_bound():
    total = 1920
    warmup = 192
    assert model.ema_lambda(0, total) == 0.996
    assert model.ema_lambda(total, total) == 1.0
    assert tr.learning_rate(warmup, total, warmup, 5e-4) == pytest.approx(5e-4)
    assert tr.weight_decay(0, total, 0.04, 0.4) == 0.04
    assert tr.weight_decay(total, total, 0.04, 0.4) == pytest.approx(0.4)
    rng = np.random.default_rng(0)
    params = {}
    for i in range(4):
        t = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        t.grad = rng.normal(size=(6, 5)) * 50.0
        params[f"p{i}"] = t
    tr.clip_gradients(params, 0.8)
    norm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values()))
    assert norm <= 0.8 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# 5/6. the desk-scale run and its probe gates


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """One full desk-scale pretraining run with default configuration."""
    cfg = RunConfig()
    root = tmp_path_factory.mktemp("desk")
    t0 = time.monotonic()
    manifest = generate_dataset(root / "data", cfg.phantom_count,
                                cfg.phantom_spec(), master_seed=cfg.seed)
    ckpt = train_loop(cfg, manifest, root / "run")
    wall = time.monotonic() - t0
    trained, _, _, _ = load_checkpoint(ckpt)
    baseline = model.init(cfg.encoder_config(), np.random.default_rng(cfg.seed))
    metrics = [json.loads(l) for l in
               (root / "run" / "metrics.jsonl").read_text().splitlines()]
    return {"cfg": cfg, "phantoms": load_manifest(manifest), "trained": trained,
            "baseline": baseline, "metrics": metrics, "wall": wall}


def _clean_eval_spec(**over):
    """Held-out evaluation phantoms at nominal appearance (no photometric
    instance variation), so probe comparisons isolate structural features."""
    return PhantomSpec(bg_jitter=0.0, gain_jitter=0.0, field_amp=0.0,
                       level_jitter=0.0, weave_amp=0.0, mosaic_contrast=0.0,
                       **over)


@pytest.fixture(scope="module")
def nominal_eval(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_nominal")
    man = generate_dataset(out, 20, _clean_eval_spec(), master_seed=99)
    return load_manifest(man)


@pytest.fixture(scope="module")
def varied_eval(tmp_path_factory):
    """Amplified anatomical jitter: landmark patches vary strongly between
    instances, so landmark classification rewards structure-aware features."""
    out = tmp_path_factory.mktemp("eval_varied")
    man = generate_dataset(out, 40,
                           _clean_eval_spec(jitter_translate=0.08,
                                            jitter_scale=0.25),
                           master_seed=7)
    return load_manifest(man)


def test_desk_run_fits_time_budget(desk):
    assert desk["wall"] < 45 * 60, f"desk run took {desk['wall']:.0f}s"


def test_desk_loss_halves_from_first_epoch(desk):
    by_epoch = {}
    for rec in desk["metrics"]:
        by_epoch.setdefault(rec["epoch"], []).append(rec["loss_total"])
    first = np.mean(by_epoch[min(by_epoch)])
    last = np.mean(by_epoch[max(by_epoch)])
    assert last <= 0.5 * first, f"epoch means {first:.4f} -> {last:.4f}"


def test_desk_retrieval_gate(desk):
    """RED: crop-to-image retrieval stays at chance level.

    The pinned recipe does not learn crop-readable instance identity in
    1920 steps; even supervised instance classification fails at this scale:
    the desk encoder trained with a 512-way instance head to train CE 0.28
    still scores retrieval 0.113 and decomposition 0.070 through the gates'
    pooled-cosine probes (see README.md, Verification status).
    """
    rep = pb.retrieval_probe(desk["trained"], desk["phantoms"],
                             np.random.default_rng(11), n_batches=8)
    acc = rep.summary["accuracy"]
    assert acc >= 0.80, f"retrieval accuracy {acc:.3f} (chance 0.031)"


def test_desk_decomposition_gate(desk):
    """RED: excision-difference matching stays at chance level (same cause
    as the retrieval gate, supervised training included; see README.md,
    Verification status)."""
    rep = pb.decompositionality_probe(desk["trained"], desk["phantoms"],
                                      np.random.default_rng(12), n_batches=8)
    acc = rep.summary["accuracy"]
    assert acc >= 0.50, f"decomposition accuracy {acc:.3f} (chance 0.031)"


def test_desk_composition_gate(desk):
    """RED: the +0.1 margin exceeds the cosine ceiling.

    The random-init baseline is ~0.98 because pooled features of any two
    overlapping regions share a large common component, so baseline + 0.1
    is above 1.0 and unreachable for any encoder (cosine <= 1).  The
    trained mean still moves in the claimed direction (up)."""
    rng_b = np.random.default_rng(13)
    rng_t = np.random.default_rng(13)
    base = pb.compositionality_probe(desk["baseline"], desk["phantoms"][:64],
                                     n_parts=4, samples=200, rng=rng_b)
    rep = pb.compositionality_probe(desk["trained"], desk["phantoms"][:64],
                                    n_parts=4, samples=200, rng=rng_t)
    b = base.summary["mean_cosine"]
    t = rep.summary["mean_cosine"]
    assert t >= b, f"trained composition cosine {t:.4f} below baseline {b:.4f}"
    assert t >= b + 0.1, (
        f"composition cosine {t:.4f} vs baseline {b:.4f} + 0.1 "
        f"(target {b + 0.1:.4f} exceeds the cosine ceiling of 1.0)")


def test_desk_separability_gate(desk, varied_eval):
    base = pb.landmark_separability(desk["baseline"], varied_eval,
                                    patch_frac=0.875).summary["accuracy"]
    acc = pb.landmark_separability(desk["trained"], varied_eval,
                                   patch_frac=0.875).summary["accuracy"]
    assert acc >= base + 0.15, f"separability {acc:.3f} vs baseline {base:.3f}"


def test_correspondence_error_halves_against_baseline(desk, nominal_eval):
    t0 = time.monotonic()
    queries, keys = nominal_eval[:5], nominal_eval[5:15]  # 50 image pairs
    window, stride = 192, 8
    trained = pb.correspondence_probe(desk["trained"], queries, keys,
                                      window=window, stride=stride)
    base = pb.correspondence_probe(desk["baseline"], queries, keys,
                                   window=window, stride=stride)
    te = trained.summary["mean_error_px"]
    be = base.summary["mean_error_px"]
    assert te < 0.5 * be, f"trained {te:.1f}px vs baseline {be:.1f}px"
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 7. determinism and exact resume


def _small_cfg(**over):
    cfg = RunConfig()
    pairs = [f"{k}={v}" for k, v in {
        "phantom_count": 16, "grid_patches": 8, "patch_pixels": 16,
        "crop1_patches": 4, "resize_side": 32, "embed_dim": 8, "encoder_depth": 1,
        "encoder_hidden": 16, "epochs": 3, "warmup_epochs": 1,
        "batch_size": 4, "checkpoint_every": 1, **over}.items()]
    return apply_overrides(cfg, pairs)


class _Interrupt(Exception):
    pass


def test_determinism_and_exact_resume(tmp_path):
    spec = PhantomSpec(side=128)
    phantoms = [generate(np.random.default_rng((5, i)), spec,
                         instance_id=f"p{i:03d}", seed=i) for i in range(16)]
    manifest = build_manifest(tmp_path / "data", phantoms)
    # equal seeds are bit-identical
    train_loop(_small_cfg(), manifest, tmp_path / "r1")
    train_loop(_small_cfg(), manifest, tmp_path / "r2")
    m1 = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    assert m1 == (tmp_path / "r2" / "metrics.jsonl").read_bytes()

    # interrupt after the epoch-2 checkpoint, resume, compare the stream
    part = tmp_path / "part"

    def interrupt(epoch, state):
        if epoch == 1:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        train_loop(_small_cfg(), manifest, part, progress=interrupt)
    train_loop(_small_cfg(), manifest, part,
               resume_from=part / "checkpoint.ace")
    assert (part / "metrics.jsonl").read_bytes() == m1


# ---------------------------------------------------------------------------
# 8. matching-loss form sanity


def test_two_sided_loss_converges_to_target():
    """With symmetric weighting the per-entry minimiser of the two-sided
    loss is exactly the target, so plain gradient descent on the logits
    must drive sigmoid(z) to T."""
    kern = [1.0, math.exp(-0.5), math.exp(-1.0), 0.0]
    target = np.array([[kern[(i + j) % 4] for j in range(4)] for i in range(4)])
    z = Tensor(np.zeros((4, 4)), requires_grad=True)
    lr = 10.0
    steps = 0
    for steps in range(1, 5001):
        with Tape():
            loss = tz.weighted_match_loss_logits(z, target, alpha=0.5)
            backward(loss)
        z.data -= lr * z.grad
        z.grad = None
        m = 1.0 / (1.0 + np.exp(-z.data))
        if np.max(np.abs(m - target)) < 1e-3:
            break
    m = 1.0 / (1.0 + np.exp(-z.data))
    assert np.max(np.abs(m - target)) < 1e-3, f"after {steps} steps"
    assert steps <= 5000


def test_positive_only_loss_drifts_upward_on_zero_targets():
    """The positive-only form (alpha = 1) has no repulsive term, so logits
    produced from shared embeddings drift upward even where the target is zero.

    Construction: identical teacher rows and an identity target.  Each
    diagonal (positive) entry pulls its student embedding toward the shared
    teacher direction, which monotonically raises every off-diagonal logit
    whose target is 0 — the documented pathology of the one-sided form."""
    rng = np.random.default_rng(3)
    teacher = np.tile(rng.normal(size=(1, 6)), (4, 1))
    student = Tensor(rng.normal(size=(4, 6)) * 0.1, requires_grad=True)
    target = np.eye(4)
    off = ~target.astype(bool)
    prev = None
    for _ in range(200):
        with Tape():
            z = tz.matmul(Tensor(teacher), tz.swapaxes(student, 0, 1))
            loss = tz.weighted_match_loss_logits(z, target, alpha=1.0)
            backward(loss)
        student.data -= 0.5 * student.grad
        student.grad = None
        logits = teacher @ student.data.T
        if prev is not None:
            assert np.all(logits[off] > prev[off]), "off-diagonal drift broke"
        prev = logits
