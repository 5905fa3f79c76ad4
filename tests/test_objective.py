"""Matching targets and losses against independently built references."""

import math

import numpy as np
import pytest

import reference

import ace.objective as obj
import ace.tensor as tz
from ace.cropgrid import compute_overlap, CropPair, sample_crop_pair
from ace.errors import ParameterError, ShapeError
from ace.tensor import Tape, Tensor, backward, grad_check


def _pair(spec, a1, a2):
    O1, O2 = compute_overlap(spec, a1, a2)
    return CropPair(anchor1=a1, anchor2=a2, O1=O1, O2=O2)


def _reference_target(spec, pair, role, k=3, sigma=1.0):
    """Independent oracle: values from squared distances in the shared frame."""
    t = spec.T
    half = (k - 1) // 2
    ox = (pair.anchor1[0] - pair.anchor2[0]) // 2
    oy = (pair.anchor1[1] - pair.anchor2[1]) // 2
    h = t // 2
    if role == "composition":
        out = np.zeros((t * t, h * h))
        for r in range(t):
            for c in range(t):
                if not (oy <= r < oy + h and ox <= c < ox + h):
                    continue
                for cr in range(h):
                    for cc in range(h):
                        dr, dc = r - (cr + oy), c - (cc + ox)
                        if abs(dr) <= half and abs(dc) <= half:
                            out[r * t + c, cr * h + cc] = math.exp(
                                -(dr * dr + dc * dc) / (2 * sigma * sigma))
        return out
    out = np.zeros((t * t, 4 * t * t))
    for r in range(t):
        for c in range(t):
            for rr in range(2 * t):
                for cc in range(2 * t):
                    if not (2 * oy <= rr < 2 * oy + t and 2 * ox <= cc < 2 * ox + t):
                        continue
                    dr, dc = r - (rr - 2 * oy), c - (cc - 2 * ox)
                    if abs(dr) <= half and abs(dc) <= half:
                        out[r * t + c, rr * 2 * t + cc] = math.exp(
                            -(dr * dr + dc * dc) / (2 * sigma * sigma))
    return out


def test_gaussian_kernel_values():
    k = obj.gaussian_kernel(3, 1.0)
    assert k[1, 1] == 1.0
    assert np.allclose(k[0, 1], math.exp(-0.5))
    assert np.allclose(k[0, 0], math.exp(-1.0))
    assert np.array_equal(k, k.T)
    with pytest.raises(ParameterError):
        obj.gaussian_kernel(4, 1.0)
    with pytest.raises(ParameterError):
        obj.gaussian_kernel(3, 0.0)


def test_targets_match_reference_exactly(desk_spec, paper_spec):
    rng = np.random.default_rng(0)
    cases = [(sample_crop_pair(rng, desk_spec), desk_spec, 3) for _ in range(10)]
    # every desk-scale crop offset, for three kernel sizes
    cases += [(_pair(desk_spec, (2 * ox, 2 * oy), (0, 0)), desk_spec, k)
              for ox in range(5) for oy in range(5) for k in (1, 3, 5)]
    # paper scale: the four corner offsets and the centre one
    cases += [(_pair(paper_spec, (4 + 2 * ox, 2 + 2 * oy), (4, 2)), paper_spec, 3)
              for ox, oy in ((0, 0), (7, 0), (0, 7), (7, 7), (3, 4))]
    for pair, spec, k in cases:
        for role in ("composition", "decomposition"):
            got = obj.build_target(pair, spec, role, k=k)
            expect = _reference_target(spec, pair, role, k=k)
            assert np.array_equal(got, expect), (pair.anchor1, pair.anchor2, role, k)


def test_target_shapes_and_value_set(desk_spec):
    pair = _pair(desk_spec, (2, 4), (0, 0))
    n = desk_spec.T ** 2
    comp = obj.build_target(pair, desk_spec, "composition")
    dec = obj.build_target(pair, desk_spec, "decomposition")
    assert comp.shape == (n, n // 4)
    assert dec.shape == (n, 4 * n)
    expect_vals = {1.0, math.exp(-0.5), math.exp(-1.0)}
    for m in (comp, dec):
        got_vals = set(np.unique(m[m > 0]))
        assert got_vals == expect_vals
        # every in-overlap column holds exactly one exact match
        nonempty = m.sum(axis=0) > 0
        assert np.all((m == 1.0).sum(axis=0)[nonempty] == 1)
    # composition columns are all in-overlap; decomposition keeps only the
    # overlap window of sub-cells
    assert np.all(comp.sum(axis=0) > 0)
    assert (dec.sum(axis=0) > 0).sum() == n


def test_target_column_sums(desk_spec):
    pair = _pair(desk_spec, (0, 0), (0, 0))
    comp = obj.build_target(pair, desk_spec, "composition")
    interior = 1.0 + 4.0 * math.exp(-0.5) + 4.0 * math.exp(-1.0)
    corner = 1.0 + 2.0 * math.exp(-0.5) + math.exp(-1.0)
    sums = comp.sum(axis=0).reshape(4, 4)
    assert abs(sums[1, 1] - interior) < 1e-12
    assert abs(sums[2, 2] - interior) < 1e-12
    assert abs(sums[0, 0] - corner) < 1e-12
    assert abs(sums[0, 3] - corner) < 1e-12


def test_build_target_rejects_bad_role(desk_spec):
    pair = _pair(desk_spec, (0, 0), (0, 0))
    with pytest.raises(ParameterError):
        obj.build_target(pair, desk_spec, "mixing")


def test_matching_matrix_range_and_shape():
    rng = np.random.default_rng(1)
    yt = Tensor(rng.normal(size=(6, 4)))
    ys = Tensor(rng.normal(size=(3, 4)))
    z = obj.matching_logits(yt, ys).data
    assert z.shape == (6, 3)
    assert np.allclose(z, yt.data @ ys.data.T)
    m = 1 / (1 + np.exp(-z))  # the matching matrix the logits stand for
    assert np.all((m > 0) & (m < 1))
    with pytest.raises(ShapeError):
        obj.matching_logits(Tensor(rng.normal(size=(6, 4))),
                            Tensor(rng.normal(size=(3, 5))))


def test_matching_loss_hand_value():
    # 1x2 case evaluated by hand with plain floats, at the logits of M
    m = np.array([[0.7, 0.2]])
    t = np.array([[1.0, 0.0]])
    z = Tensor(np.log(m / (1 - m)))
    for alpha in (0.9, 1.0):  # alpha = 1 is the positive-only form, -log 0.7
        got = obj.matching_loss_logits(z, t, alpha).item()
        expect = -(alpha * math.log(0.7) + (1 - alpha) * math.log(1 - 0.2))
        assert np.isclose(got, expect, rtol=1e-12)


def test_fused_loss_matches_composed_values_and_grads():
    """The logits form equals the probability-form loss at M = sigmoid(z),
    and its gradient matches central differences of itself."""
    rng = np.random.default_rng(2)
    for shape in ((4, 5), (3, 4, 5)):
        z0 = rng.normal(scale=3.0, size=shape)
        tmat = (rng.random(shape) < 0.3) * rng.random(shape)
        for alpha in (0.9, 1.0):
            fused = obj.matching_loss_logits(Tensor(z0), tmat, alpha).item()
            expect = reference.matching_loss(1 / (1 + np.exp(-z0)), tmat, alpha)
            assert np.isclose(fused, expect, rtol=1e-10)
            err = grad_check(lambda t: obj.matching_loss_logits(t, tmat, alpha), Tensor(z0))
            assert err < 1e-4


def test_teacher_distribution_properties():
    rng = np.random.default_rng(3)
    t = rng.normal(size=8)
    center = rng.normal(size=8)
    p = obj.teacher_distribution(t, center, 0.04)
    assert np.isclose(p.sum(), 1.0)
    assert np.all(p > 0)
    # invariant to adding a constant to the input
    p2 = obj.teacher_distribution(t + 3.7, center, 0.04)
    assert np.allclose(p, p2)
    # centering removes a shared offset
    p3 = obj.teacher_distribution(t + center, np.zeros(8), 0.04)
    p4 = obj.teacher_distribution(t, center, 0.04)
    assert np.allclose(p3, obj.teacher_distribution(t + center, np.zeros(8), 0.04))
    assert np.allclose(p4, obj.teacher_distribution(t, center, 0.04))
    with pytest.raises(ParameterError):
        obj.teacher_distribution(t, center, 0.0)


def test_global_loss_hand_value():
    """K=2, one token each side, unit temperatures, zero center."""
    y_s = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    y_t = np.array([[0.0, 1.0]])
    mask = np.ones((1, 1))
    with Tape():
        loss, t_pooled = obj.global_loss(y_s, y_t, mask, mask, 1.0, 1.0, np.zeros(2))
        backward(loss)
    # independent evaluation with plain floats
    p = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    q = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
    expect = -(p * np.log(q)).sum()
    assert np.isclose(loss.item(), expect, rtol=1e-12)
    assert np.array_equal(t_pooled, y_t[0])
    assert y_s.grad is not None


def test_global_loss_pools_only_overlap():
    rng = np.random.default_rng(4)
    y_s = Tensor(rng.normal(size=(4, 3)))
    y_t = rng.normal(size=(4, 3))
    o_s = np.array([1, 1, 0, 0])
    o_t = np.array([0, 0, 1, 1])
    loss, t_pooled = obj.global_loss(y_s, y_t, o_s, o_t, 0.1, 0.04, np.zeros(3))
    assert np.allclose(t_pooled, y_t[2:].mean(axis=0))
    p = obj.teacher_distribution(t_pooled, np.zeros(3), 0.04)
    s_pooled = y_s.data[:2].mean(axis=0)
    expect = tz.cross_entropy_with_logits(p, Tensor(s_pooled), 0.1).item()
    assert np.isclose(loss.item(), expect, rtol=1e-12)


def test_global_loss_gradient():
    rng = np.random.default_rng(5)
    y_t = rng.normal(size=(4, 3))
    o = np.array([1, 0, 1, 0])
    err = grad_check(
        lambda t: obj.global_loss(t, y_t, o, o, 0.1, 0.04, np.zeros(3))[0],
        Tensor(rng.normal(size=(4, 3))))
    assert err < 1e-4


def test_update_center_is_ema():
    c = np.array([1.0, -1.0])
    t = np.array([3.0, 1.0])
    out = obj.update_center(c, t)
    assert np.allclose(out, 0.9 * c + 0.1 * t)


def test_total_loss_weighting():
    g, c, d = Tensor(np.asarray(2.0)), Tensor(np.asarray(3.0)), Tensor(np.asarray(5.0))
    total = obj.total_loss(g, c, d, lambda1=0.1, lambda2=1.0, lambda3=1.0)
    assert np.isclose(total.item(), 0.1 * 2 + 3 + 5)
    # the step record reads the terms back after the sum: they stay as given
    assert g.item() == 2.0 and c.item() == 3.0 and d.item() == 5.0
