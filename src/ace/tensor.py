"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Everything is backed by numpy arrays, and a tensor follows its data: a
float32 array stays float32 (the dtype training and the probes compute in),
and any other input becomes float64 (the finite-difference gradient
checks).  An op's output takes its operands' dtype, so a graph built from
float32 leaves runs in float32 end to end.  Operations
record themselves on the currently active :class:`Tape`; calling
:func:`backward` on a scalar loss replays the tape in reverse and
populates ``grad`` on every tensor that requires gradients.  A tape lives
for one training step and is discarded afterwards.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EmptyOverlapError, ParameterError, ShapeError

DTYPE = np.float32  # the dtype of training and the probes


class Tensor:
    """Dense n-dimensional array, optionally tracked for reverse-mode AD."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        self.data = arr if arr.dtype == DTYPE else arr.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive ops, topological by construction."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self):
        return len(self._nodes)

    def record(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable):
        self._nodes.append((out, parents, backward_fn))

    def clear(self):
        self._nodes.clear()

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out_data, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Wrap a forward result, recording the node if grads are being traced."""
    tape = _active_tape()
    needs = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.record(out, tuple(parents), backward_fn)
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add one gradient contribution to ``t.grad``.

    The first contribution is stored as given, and a later one replaces the
    sum with a new array: no gradient is ever written in place.  That rule
    lets a backward pass hand one array to several parents (``add``) or a
    view of its own gradient (``reshape``, ``swapaxes``) without copying.
    """
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {t.data.shape}")
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    The active tape is consumed: its nodes are cleared after the sweep.  An
    op output's gradient is dropped once its node has run, so only leaf
    gradients outlive the sweep.
    """
    tape = _active_tape()
    if tape is None:
        raise ParameterError("backward() called with no active tape")
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    for out, parents, fn in reversed(tape._nodes):
        if out.grad is None:
            continue
        fn(out.grad)
        out.grad = None
    tape.clear()


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _record(a.data + b.data, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(g):
        _accum(a, g * s)

    return _record(a.data * s, (a,), bw)


def _sigmoid_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|x|) and sigmoid(x), free of overflow for large |x|, for the
    matching loss: the exponential is taken once and feeds its softplus."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # the numerator is 1 where x >= 0 and e elsewhere: e <= 1, so the max
    # picks it without a branch, and a NaN in e propagates
    s = np.maximum(e, x >= 0)
    s /= 1.0 + e
    return e, s


def silu(a: Tensor) -> Tensor:
    """Smooth gating activation x * sigmoid(x), with the sigmoid taken as
    0.5 * tanh(0.5 * x) + 0.5: one transcendental, and no overflow."""
    s = np.multiply(a.data, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5

    def bw(g):
        # g * (s * (1 + x * (1 - s))), built in one buffer
        f = 1.0 - s
        f *= a.data
        f += 1.0
        f *= s
        f *= g
        _accum(a, f)

    return _record(a.data * s, (a,), bw)


def _check_batched(a: Tensor, op: str):
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"{op}: expected a 2-d matrix or a 3-d batch of matrices, "
                         f"got {a.data.shape}")


def _sum_batch(g: np.ndarray, ndim: int) -> np.ndarray:
    """Fold the batch axis out of the gradient of an operand shared by the batch."""
    return g.sum(axis=0) if g.ndim > ndim else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; either operand may carry a leading batch axis.

    A 2-d operand is shared by every item of the batch.  Its gradient is a
    stacked product summed over the batch, so each GEMM keeps the size of one
    item rather than that of a folded (B*N) x P product.  A few desk-scale
    products still reach the size at which OpenBLAS starts threads; training
    runs them on one thread (see `ace.blas`), where a second would only spin.
    """
    _check_batched(a, "matmul")
    _check_batched(b, "matmul")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ for {a.data.shape} and {b.data.shape}")
    if a.data.ndim == b.data.ndim == 3 and a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"matmul: batch sizes differ for {a.data.shape} and {b.data.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_batch(g @ np.swapaxes(b.data, -1, -2), a.data.ndim))
        if b.requires_grad:
            _accum(b, _sum_batch(np.swapaxes(a.data, -1, -2) @ g, b.data.ndim))

    return _record(a.data @ b.data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for an N x P matrix or a (B, N, P) batch, a P x K weight and
    a length-K bias; fused so the layer is one tape node."""
    _check_batched(x, "linear")
    if w.data.ndim != 2 or b.data.shape != (w.data.shape[1],) \
            or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: shapes {x.data.shape}, {w.data.shape} and "
                         f"{b.data.shape} incompatible")
    out = x.data @ w.data
    out += b.data

    def bw(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, _sum_batch(np.swapaxes(x.data, -1, -2) @ g, 2))
        if b.requires_grad:
            _accum(b, _row_sum(g))

    return _record(out, (x, w, b), bw)


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes, as a contiguous copy; the backward pass makes the
    same swap on the gradient."""
    nd = a.data.ndim
    if not (-nd <= axis1 < nd and -nd <= axis2 < nd):
        raise ShapeError(f"swapaxes: axes {axis1}, {axis2} out of range for shape {a.data.shape}")

    def bw(g):
        _accum(a, np.swapaxes(g, axis1, axis2))

    return _record(np.swapaxes(a.data, axis1, axis2).copy(), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    in_shape = a.data.shape

    def bw(g):
        _accum(a, g.reshape(in_shape))

    return _record(a.data.reshape(shape).copy(), (a,), bw)


def slice_batch(a: Tensor, start: int, stop: int) -> Tensor:
    """Items start..stop-1 along the leading (batch) axis."""
    if not 0 <= start < stop <= a.data.shape[0]:
        raise ShapeError(f"slice_batch: [{start}:{stop}] outside a batch of {a.data.shape[0]}")

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[start:stop] = g
            _accum(a, ga)

    return _record(a.data[start:stop], (a,), bw)


def _row_sum(g: np.ndarray) -> np.ndarray:
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standardize each row (last axis) of an N x K matrix or a (B, N, K)
    batch to zero mean and unit variance, then scale by a length-K gain and
    shift by a length-K bias; fused so the layer is one tape node."""
    _check_batched(x, "layer_norm")
    k = x.data.shape[-1]
    if gain.data.shape != (k,) or bias.data.shape != (k,):
        raise ShapeError(f"layer_norm: shapes {x.data.shape}, {gain.data.shape} and "
                         f"{bias.data.shape} incompatible")
    # row means as GEMVs with a vector of 1/k: far faster than last-axis reductions
    avg = np.full(k, 1.0 / k, dtype=x.data.dtype)
    xc = x.data - (x.data @ avg)[..., None]
    y = np.square(xc)  # the squared deviations, then the standardized rows
    inv = (1.0 / np.sqrt(y @ avg + 1e-6))[..., None]
    np.multiply(xc, inv, out=y)
    out = y * gain.data
    out += bias.data

    def bw(g):
        if bias.requires_grad:
            _accum(bias, _row_sum(g))
        if gain.requires_grad:
            _accum(gain, _row_sum(g * y))
        if x.requires_grad:
            # inv * (gy - mean(gy) - y * mean(gy * y)) for gy = g * gain,
            # with xc as the scratch buffer
            gy = g * gain.data
            gm = (gy @ avg)[..., None]
            gyy = (np.multiply(gy, y, out=xc) @ avg)[..., None]
            np.multiply(y, gyy, out=xc)
            d = gy - gm
            d -= xc
            d *= inv
            _accum(x, d)

    return _record(out, (x, gain, bias), bw)


def masked_mean_pool(tokens: Tensor, mask) -> Tensor:
    """Mean over the rows selected by a binary mask.

    An N-by-K matrix with a length-N mask gives a length-K vector; a
    (B, N, K) batch with a (B, N) mask pools each item on its own row set
    and gives (B, K).
    """
    _check_batched(tokens, "masked_mean_pool")
    x = tokens.data
    m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    if m.size != int(np.prod(x.shape[:-1])):
        raise ShapeError(f"masked_mean_pool: tokens {x.shape} vs mask of shape {m.shape}")
    m = m.reshape(x.shape[:-1]).astype(bool)
    # in x's dtype: an integer count would promote a float32 pool to float64
    count = m.sum(axis=-1, keepdims=True, dtype=x.dtype)
    if not count.all():
        item = "" if x.ndim == 2 else f" for item {int(np.argmin(count[:, 0]))}"
        raise EmptyOverlapError(f"masked_mean_pool: mask selects no rows{item}")
    keep = m[..., None]

    def bw(g):
        if tokens.requires_grad:
            _accum(tokens, np.where(keep, (g / count)[..., None, :], 0.0))

    return _record(np.where(keep, x, 0.0).sum(axis=-2) / count, (tokens,), bw)


def cross_entropy_with_logits(p: np.ndarray, z: Tensor, tau: float) -> Tensor:
    """CE between a constant distribution p and softmax(z / tau), fused for stability.

    For a (B, K) batch of rows the result is the mean of the B per-row
    cross entropies.
    """
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    p = np.asarray(p, dtype=z.data.dtype)
    if p.shape != z.data.shape or z.data.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy_with_logits: shapes {p.shape} vs {z.data.shape}")
    rows = 1 if z.data.ndim == 1 else z.data.shape[0]
    s = z.data / tau
    s = s - s.max(axis=-1, keepdims=True)
    logq = s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    out = -(p * logq).sum() / rows
    q = np.exp(logq)

    def bw(g):
        _accum(z, float(g) * (q * p.sum(axis=-1, keepdims=True) - p) / (tau * rows))

    return _record(np.asarray(out), (z,), bw)


def weighted_match_loss_logits(z: Tensor, target: np.ndarray, alpha: float) -> Tensor:
    """Stable correspondence-matching loss on pre-sigmoid logits.

        L = mean over rows of sum_cols[ alpha*T*softplus(-z) + (1-alpha)*(1-T)*softplus(z) ]
    which equals -mean_rows sum_cols[ alpha*T*log(sigmoid z) + (1-alpha)*(1-T)*log(1-sigmoid z) ].
    alpha = 1 leaves the positive term alone.  A (B, R, C) batch of logit
    matrices with its stacked targets gives the mean of the B losses.
    """
    t = np.asarray(target, dtype=z.data.dtype)
    if t.shape != z.data.shape:
        raise ShapeError(f"weighted_match_loss_logits: shapes {t.shape} vs {z.data.shape}")
    _check_batched(z, "weighted_match_loss_logits")
    x = z.data
    rows = x.size // x.shape[-1]  # rows of every matrix in the batch
    e, sig = _sigmoid_parts(x)
    softplus = np.log1p(e, out=e)  # softplus(z) = -log(1 - sigmoid z)
    softplus += np.maximum(x, 0.0)
    # with softplus(-z) = softplus(z) - z, the weighted sum
    # pos*softplus(-z) + neg*softplus(z) is w*softplus(z) - pos*z for w = pos + neg
    pos = alpha * t
    w = 1.0 - t
    w *= 1.0 - alpha
    w += pos
    out = (np.vdot(w, softplus) - np.vdot(pos, x)) / rows

    def bw(g):
        d = w * sig
        d -= pos
        d *= float(g) / rows
        _accum(z, d)

    return _record(np.asarray(out), (z,), bw)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6,
               sample: int | None = None, rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map a tensor to a scalar tensor; the leaf it is given is
    float64.  With ``sample`` set, only
    that many randomly chosen coordinates are probed (the analytic gradient
    is still the full reverse-mode sweep).
    """
    if eps <= 0:
        raise ParameterError(f"grad_check epsilon must be positive, got {eps}")
    # float64 whatever x holds: a float32 difference quotient at eps would be noise
    x0 = x.data.astype(np.float64)
    leaf = Tensor(x0, requires_grad=True)
    with Tape():
        out = f(leaf)
        if not np.all(np.isfinite(out.data)):
            raise DomainError("grad_check: f(x) is not finite")
        backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x0)

    flat = x0.reshape(-1)
    coords = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        gen = rng or np.random.default_rng(0)
        coords = gen.choice(flat.size, size=sample, replace=False)

    max_err = 0.0
    for i in coords:
        pert = flat.copy()
        pert[i] += eps
        fp = f(Tensor(pert.reshape(x0.shape))).item()
        pert[i] -= 2 * eps
        fm = f(Tensor(pert.reshape(x0.shape))).item()
        numeric = (fp - fm) / (2 * eps)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        max_err = np.maximum(max_err, err)  # a NaN error stays the result
    return float(max_err)
