"""Autodiff engine: forward values against numpy, gradients against finite
differences, domain errors, and tape bookkeeping.  The per-primitive
gradient cases live in `ace.gradcases`, run at 100 seeds by the tier-1
gradient gate; `test_gradients_per_op` runs a subset of them one by one."""

import numpy as np
import pytest

import ace.tensor as tz
import reference
from ace.errors import EmptyOverlapError, ParameterError, ShapeError
from ace.gradcases import primitive_cases, weigh
from ace.tensor import Tape, Tensor, backward, grad_check

RNG = np.random.default_rng(42)
TOL = 1e-4


def _rand(*shape):
    return RNG.normal(size=shape)


# ---------------------------------------------------------------------------
# forward values against plain numpy


def test_forward_values_match_numpy():
    a, b = _rand(3, 4), _rand(3, 4)
    assert np.allclose(tz.add(Tensor(a), Tensor(b)).data, a + b)
    assert np.allclose(tz.scale(Tensor(a), 2.5).data, 2.5 * a)
    assert np.allclose(tz.silu(Tensor(a)).data, a / (1 + np.exp(-a)))
    m = _rand(4, 5)
    assert np.allclose(tz.matmul(Tensor(a), Tensor(m)).data, a @ m)
    assert np.allclose(tz.swapaxes(Tensor(a), 0, 1).data, a.T)
    assert np.allclose(tz.reshape(Tensor(a), (4, 3)).data, a.reshape(4, 3))
    v, u = _rand(4), _rand(4)
    rn = tz.layer_norm(Tensor(a), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
    assert np.allclose(rn.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(rn.std(axis=1), 1.0, atol=1e-3)
    assert np.allclose(tz.layer_norm(Tensor(a), Tensor(v), Tensor(u)).data, rn * v + u)


def test_sigmoid_extreme_values_finite():
    x = np.array([-1000.0, 1000.0])
    e, s = tz._sigmoid_parts(x)
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(s))
    assert np.isclose(s[0], 0.0) and np.isclose(s[1], 1.0)
    # tanh saturates: no overflow and no inf * 0, in either dtype
    for dtype in (np.float64, np.float32):
        for big in (1000.0, 3e38):
            with np.errstate(over="raise", invalid="raise"):
                y = tz.silu(Tensor(np.array([-big, big], dtype=dtype))).data
            assert y.dtype == dtype and np.array_equal(y, np.array([0.0, big], dtype=dtype))


def test_masked_mean_pool_value():
    x = _rand(6, 3)
    mask = np.array([1, 0, 1, 1, 0, 0])
    out = tz.masked_mean_pool(Tensor(x), mask).data
    assert np.allclose(out, x[[0, 2, 3]].mean(axis=0))


# ---------------------------------------------------------------------------
# gradients against central differences


def test_gradient_cross_entropy_with_logits():
    p = np.abs(_rand(5)) + 0.1
    p /= p.sum()
    z = Tensor(_rand(5))
    for tau in (1.0, 0.1):
        err = grad_check(lambda t: tz.cross_entropy_with_logits(p, t, tau), z)
        assert err < TOL


def test_gradient_weighted_match_loss():
    t = (RNG.random((4, 6)) < 0.3).astype(float) * RNG.random((4, 6))
    z = Tensor(_rand(4, 6))
    for alpha in (0.9, 1.0):
        err = grad_check(lambda x: tz.weighted_match_loss_logits(x, t, alpha), z)
        assert err < TOL


def test_fused_ce_matches_composed():
    p = np.abs(_rand(5)) + 0.1
    p /= p.sum()
    z = _rand(5)
    fused = tz.cross_entropy_with_logits(p, Tensor(z), 0.5).item()
    q = np.exp(z / 0.5 - (z / 0.5).max())
    q /= q.sum()
    assert np.isclose(fused, -(p * np.log(q)).sum(), rtol=1e-12)


# Test id -> `ace.gradcases` case; the ids are those of the per-op table
# these cases were folded from, so a failure keeps its historical name.
_PER_OP = {
    "add-<lambda>-shape0": "add",
    "scale-<lambda>-shape3": "scale",
    "silu-<lambda>-shape7": "silu",
    "matmul_a-<lambda>-shape8": "matmul",
    "matmul_b-<lambda>-shape9": "matmul_const_left",
    "transpose-<lambda>-shape10": "swapaxes",
    "reshape-<lambda>-shape11": "reshape",
    "add_rowvec-<lambda>-shape13": "layer_norm_batch_bias",
    "mul_rowvec_m-<lambda>-shape14": "layer_norm_batch",
    "mul_rowvec_v-<lambda>-shape15": "layer_norm_batch_gain",
    "row_norm-<lambda>-shape16": "layer_norm",
    "pool-<lambda>-shape19": "masked_mean_pool",
}


@pytest.mark.parametrize("case", list(_PER_OP.values()), ids=list(_PER_OP))
def test_gradients_per_op(case):
    rng = np.random.default_rng(0)
    op, x = next((op, x) for name, op, x in primitive_cases(rng) if name == case)
    w = rng.normal(size=op(Tensor(x)).size)
    err = grad_check(lambda t: weigh(op(t), w), Tensor(x))
    assert err < TOL, f"{case}: relative error {err}"


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_accumulates_and_clears_tape():
    w = _rand(3, 3)
    with Tape() as tape:
        x = Tensor(_rand(3, 3), requires_grad=True)
        y = tz.add(tz.matmul(x, x), x)  # x appears three times
        backward(weigh(y, w))
    assert np.allclose(x.grad, w @ x.data.T + x.data.T @ w + w)
    assert len(tape) == 0


def test_swapaxes_is_contiguous_and_names_the_shape_on_a_bad_axis():
    x = _rand(2, 3, 4)
    out = tz.swapaxes(Tensor(x), 0, -1).data
    assert np.array_equal(out, np.swapaxes(x, 0, -1)) and out.flags.c_contiguous
    for axes in ((0, 3), (-4, 1)):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\)"):
            tz.swapaxes(Tensor(x), *axes)


def test_constants_record_nothing():
    with Tape() as tape:
        a = Tensor(_rand(4, 4))
        b = tz.matmul(tz.silu(a), a)
        assert not b.requires_grad
    assert len(tape) == 0


def test_no_tape_means_no_tracking():
    x = Tensor(_rand(2, 2), requires_grad=True)
    y = tz.matmul(x, x)
    assert not y.requires_grad
    with pytest.raises(ParameterError):
        backward(weigh(y, np.ones(4)))


def test_backward_requires_scalar():
    with Tape():
        x = Tensor(_rand(2, 2), requires_grad=True)
        y = tz.matmul(x, x)
        with pytest.raises(ShapeError):
            backward(y)


def test_nested_tapes_are_independent():
    w = _rand(2, 2)
    with Tape():
        x = Tensor(_rand(2, 2), requires_grad=True)
        y = tz.matmul(x, x)
        with Tape():
            inner = Tensor(np.ones((2, 2)), requires_grad=True)
            backward(weigh(tz.scale(inner, 3.0), np.ones(4)))
        assert np.allclose(inner.grad, 3.0)
        backward(weigh(y, w))
    assert np.allclose(x.grad, w @ x.data.T + x.data.T @ w)


# ---------------------------------------------------------------------------
# domain and shape errors


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        tz.add(Tensor(_rand(2, 3)), Tensor(_rand(3, 2)))
    with pytest.raises(ShapeError):
        tz.matmul(Tensor(_rand(2, 3)), Tensor(_rand(2, 3)))
    for gain, bias in ((_rand(2), _rand(3)), (_rand(3), _rand(2))):
        with pytest.raises(ShapeError):
            tz.layer_norm(Tensor(_rand(2, 3)), Tensor(gain), Tensor(bias))


def test_empty_mask_raises():
    with pytest.raises(EmptyOverlapError):
        tz.masked_mean_pool(Tensor(_rand(3, 2)), np.zeros(3))


def test_softmax_temperature_must_be_positive():
    for tau in (0.0, -1.0):
        with pytest.raises(ParameterError):
            tz.cross_entropy_with_logits(np.full(3, 1 / 3), Tensor(_rand(3)), tau)


def test_item_on_nonscalar_raises():
    with pytest.raises(ShapeError):
        Tensor(_rand(2, 2)).item()


def test_grad_check_sampled_coordinates():
    x, w = Tensor(_rand(8, 8)), _rand(64)
    err = grad_check(lambda t: weigh(tz.silu(t), w), x, sample=5,
                     rng=np.random.default_rng(0))
    assert err < TOL


def test_grad_check_reports_a_nan_gradient():
    """A backward that writes NaN into the first coordinate only: the NaN is
    the result, not skipped by the max and not displaced by later errors."""
    def poisoned_silu(t):
        out = tz.silu(t)
        if out.requires_grad:  # the taped pass, not a finite-difference one
            tape = tz._active_tape()
            node, parents, bw = tape._nodes[-1]

            def nan_first(g):
                g = g.copy()
                g.flat[0] = np.nan
                return bw(g)
            tape._nodes[-1] = (node, parents, nan_first)
        return out

    x, w = Tensor(_rand(4, 8)), _rand(32)
    assert np.isnan(grad_check(lambda t: weigh(poisoned_silu(t), w), x))


# ---------------------------------------------------------------------------
# gradient ownership: no gradient is written in place, op outputs are freed


def test_diamond_graph_exact_and_no_gradient_written_in_place(monkeypatch):
    handed = []
    real = tz._accum

    def spy(t, g):
        handed.append((g, g.copy()))
        real(t, g)

    monkeypatch.setattr(tz, "_accum", spy)
    w = np.arange(-6.0, 6.0).reshape(3, 4)
    with Tape():
        x = Tensor(_rand(3, 4), requires_grad=True)
        a = tz.add(x, x)  # x reached twice, one g for both parents
        c1 = tz.scale(a, 3.0)
        c2 = tz.swapaxes(tz.swapaxes(tz.scale(a, 0.5), 0, 1), 0, 1)  # views of g flow back
        h = tz.add(c1, c2)  # a feeds two consumers, which share one g
        backward(weigh(h, w))
    assert np.array_equal(x.grad, 7.0 * w)
    for g, before in handed:
        assert np.array_equal(g, before)


def test_backward_frees_op_outputs_and_keeps_leaf_gradients():
    with Tape() as tape:
        x = Tensor(_rand(2, 3, 4), requires_grad=True)
        v = Tensor(_rand(4), requires_grad=True)
        b = Tensor(_rand(4), requires_grad=True)
        outs = [tz.layer_norm(x, v, b)]
        outs.append(tz.silu(outs[-1]))
        outs.append(tz.add(outs[-1], x))
        outs.append(tz.weighted_match_loss_logits(outs[-1], np.full((2, 3, 4), 0.5), 0.9))
        assert len(tape) == len(outs)
        backward(outs[-1])
    assert all(o.grad is None for o in outs)
    assert x.grad.shape == x.shape and v.grad.shape == v.shape and b.grad.shape == b.shape


def test_misshaped_gradient_raises():
    t = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(ShapeError, match=r"\(4,\).*\(3, 4\)"):
        tz._accum(t, np.ones(4))
    assert t.grad is None


# ---------------------------------------------------------------------------
# fused kernels against their plain expressions, bit for bit, and against
# float64 oracles in `reference`

# ±0, exp(-|x|) underflow (|x| >= 746), NaN, and ordinary values
_SPECIAL = np.array([0.0, -0.0, 745.5, -745.5, 746.0, -746.0, 800.0, -1e4, np.nan, 1.0, -1.0])


def _edge_values(shape, seed):
    x = np.random.default_rng(seed).normal(scale=4.0, size=shape)
    flat = x.reshape(-1)
    flat[:len(_SPECIAL)] = _SPECIAL
    return x


def _same_bits(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)])))


def _ref_sigmoid_parts(x):
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0, e)
    s /= 1.0 + e
    return e, s


def _ref_silu(x, g):
    s = 0.5 * np.tanh(0.5 * x) + 0.5
    return x * s, g * (s * (1.0 + x * (1.0 - s)))


def _ref_row_norm(x, g):
    avg = np.full(x.shape[-1], 1.0 / x.shape[-1], dtype=x.dtype)
    xc = x - (x @ avg)[..., None]
    inv = 1.0 / np.sqrt(np.square(xc) @ avg + 1e-6)[..., None]
    y = xc * inv
    gm = (g @ avg)[..., None]
    gy = ((g * y) @ avg)[..., None]
    return y, inv * (g - gm - y * gy)


def _ref_layer_norm(x, gain, bias, g):
    """row_norm, mul_rowvec by the gain and add_rowvec of the bias, as
    layer_norm used to be composed: the output and the gradients of x, gain
    and bias."""
    y, gx = _ref_row_norm(x, g * gain)
    return y * gain + bias, gx, (g * y).reshape(-1, x.shape[-1]).sum(axis=0), \
        g.reshape(-1, x.shape[-1]).sum(axis=0)


def _ref_match_loss(x, t, alpha, g):
    rows = x.size // x.shape[-1]
    e, sig = _ref_sigmoid_parts(x)
    softplus = np.maximum(x, 0.0) + np.log1p(e)
    pos = alpha * t
    w = pos + (1.0 - alpha) * (1.0 - t)
    out = (np.vdot(w, softplus) - np.vdot(pos, x)) / rows
    return out, (w * sig - pos) * (g / rows)


def _value_and_grads(op, inputs, upstream):
    """op(*inputs) and the gradients its backward sends to each input for an
    upstream gradient of exactly `upstream`, handed to the recorded node
    directly."""
    with Tape() as tape:
        leaves = [Tensor(x, requires_grad=True) for x in inputs]
        out = op(*leaves)
        (_, _, bw), = tape._nodes
        bw(upstream)
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("shape", [(4, 11), (2, 16, 130)])
def test_sigmoid_parts_bit_identical(shape):
    x = _edge_values(shape, 1)
    for got, ref in zip(tz._sigmoid_parts(x), _ref_sigmoid_parts(x)):
        assert _same_bits(got, ref)


@pytest.mark.parametrize("shape", [(4, 11), (2, 16, 130)])
def test_silu_bit_identical(shape):
    x, g = _edge_values(shape, 2), _edge_values(shape, 3)[::-1].copy()
    y, (gx,) = _value_and_grads(tz.silu, [x], g)
    y_ref, gx_ref = _ref_silu(x, g)
    assert _same_bits(y, y_ref) and _same_bits(gx, gx_ref)


@pytest.mark.parametrize("shape", [(4, 11), (2, 16, 130), (3, 64, 32)])
def test_row_norm_bit_identical(shape):
    """layer_norm gives the bits of the three primitives it fuses."""
    # the first row carries the special values; the rest stay finite
    x, g = _edge_values(shape, 4), _edge_values(shape, 5)
    gain, bias = np.random.default_rng(6).normal(size=(2, shape[-1]))
    y, grads = _value_and_grads(tz.layer_norm, [x, gain, bias], g)
    y_ref, *grads_ref = _ref_layer_norm(x, gain, bias, g)
    assert _same_bits(y, y_ref)
    assert all(_same_bits(got, ref) for got, ref in zip(grads, grads_ref))
    assert np.isfinite(grads[0].reshape(-1, shape[-1])[1:]).all()


@pytest.mark.parametrize("dtype, atol", [(np.float64, 3e-14), (np.float32, 4e-6)])
def test_silu_matches_float64_reference(dtype, atol):
    """The tanh form of the sigmoid stays within a few ulps of the float64
    exp form, on a dense grid over |x| <= 28 and on random values."""
    x = np.concatenate([np.linspace(-28.0, 28.0, 20001),
                        np.random.default_rng(8).normal(scale=6.0, size=4000).clip(-28, 28)])
    x = x.astype(dtype)
    y = tz.silu(Tensor(x)).data
    assert y.dtype == dtype
    assert np.abs(y - reference.silu(x)).max() <= atol


@pytest.mark.parametrize("dtype, atol", [(np.float64, 4e-15), (np.float32, 2e-6)])
@pytest.mark.parametrize("shape", [(4, 11), (2, 16, 130), (3, 64, 32)])
def test_layer_norm_matches_float64_reference(shape, dtype, atol):
    """Row statistics by GEMV standardize as accurately as numpy's mean and
    var, rows of offset and scale far from 0 and 1 included."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=shape) * rng.uniform(0.01, 10.0, size=shape[:-1] + (1,)) \
        + rng.uniform(-5.0, 5.0, size=shape[:-1] + (1,))
    x = x.astype(dtype)
    ones, zeros = np.ones(shape[-1], dtype), np.zeros(shape[-1], dtype)
    y = tz.layer_norm(Tensor(x), Tensor(ones), Tensor(zeros)).data
    assert y.dtype == dtype
    assert np.abs(y - reference.row_norm(x)).max() <= atol


@pytest.mark.parametrize("alpha", [0.9, 1.0])
@pytest.mark.parametrize("shape", [(5, 12), (3, 16, 64)])
def test_match_loss_bit_identical(shape, alpha):
    x = _edge_values(shape, 6)
    rng = np.random.default_rng(7)
    t = (rng.random(shape) < 0.3) * rng.random(shape)
    g = 0.37
    with Tape():
        leaf = Tensor(x, requires_grad=True)
        loss = tz.weighted_match_loss_logits(leaf, t, alpha)
        backward(tz.scale(loss, g))
    out_ref, gx_ref = _ref_match_loss(x, t, alpha, g)
    assert _same_bits(loss.data, out_ref) and _same_bits(leaf.grad, gx_ref)
    # without the NaN the loss is finite, and still bit-identical
    x[np.isnan(x)] = 0.5
    with Tape():
        leaf = Tensor(x, requires_grad=True)
        loss = tz.weighted_match_loss_logits(leaf, t, alpha)
        backward(tz.scale(loss, g))
    out_ref, gx_ref = _ref_match_loss(x, t, alpha, g)
    assert np.isfinite(out_ref)
    assert _same_bits(loss.data, out_ref) and _same_bits(leaf.grad, gx_ref)
