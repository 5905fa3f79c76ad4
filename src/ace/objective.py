"""Correspondence targets and the three-term pretraining loss.

Target matrices pair teacher tokens (rows) with student head outputs
(columns).  Composition: teacher C2 tokens vs composed student C1 cells,
both living on the 2m-block scale.  Decomposition: teacher C1 tokens vs
decomposed student C2 sub-cells, both on the m-patch scale.  Exact spatial
matches get value 1 and neighbors within the kernel radius get Gaussian
weights; kernel mass falling outside the overlap stays 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as tz
from .cropgrid import CropPair, GridSpec
from .errors import ParameterError, ShapeError
from .tensor import Tensor

CENTER_RATE = 0.9


def gaussian_kernel(k: int, sigma: float) -> np.ndarray:
    """Centered k x k evaluation of exp(-(x^2 + y^2) / (2 sigma^2)); center is 1."""
    if k <= 0 or k % 2 == 0:
        raise ParameterError(f"kernel size must be odd and positive, got {k}")
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    half = (k - 1) // 2
    ax = np.arange(-half, half + 1, dtype=float)
    xx, yy = np.meshgrid(ax, ax, indexing="xy")
    return np.exp(-(xx ** 2 + yy ** 2) / (2.0 * sigma ** 2))


def build_target(pair: CropPair, spec: GridSpec, role: str,
                 k: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Gaussian-smoothed correspondence target matrix for one crop pair.

    composition   -> shape (N, N/4): C2 teacher tokens x composed C1 cells.
    decomposition -> shape (N, 4N):  C1 teacher tokens x decomposed C2 sub-cells.

    The matrix depends on the pair only through the crop offset, so it is
    built once per offset and shared: it is read-only.
    """
    if role not in ("composition", "decomposition"):
        raise ParameterError(f"role must be composition or decomposition, got {role!r}")
    ox = (pair.anchor1[0] - pair.anchor2[0]) // 2
    oy = (pair.anchor1[1] - pair.anchor2[1]) // 2
    return _target_matrix(spec.T, role, ox, oy, k, sigma)


def _axis_weights(t: int, side: int, w: int, lo: int, shift: int, half: int):
    """One axis of the target rule: (t, side) kernel indices of teacher
    coordinate r against column a, whose exact match is r = a + shift, and
    whether the pair lies within the kernel radius and inside the overlap,
    the teacher coordinates lo..lo+w-1."""
    r = np.arange(t)[:, None]
    match = np.arange(side) + shift
    d = r - match
    ok = (np.abs(d) <= half) & (lo <= r) & (r < lo + w) & (lo <= match) & (match < lo + w)
    return np.clip(d + half, 0, 2 * half), ok


@lru_cache(maxsize=1024)
def _target_matrix(t: int, role: str, ox: int, oy: int, k: int, sigma: float) -> np.ndarray:
    if role == "composition":
        # composed C1 cells on a (T/2 x T/2) lattice vs C2 tokens; the overlap
        # is the T/2 x T/2 block of C2 tokens at (oy, ox)
        side, w, axes = t // 2, t // 2, [(o, o) for o in (oy, ox)]
    else:
        # decomposed C2 sub-cells on a (2T x 2T) m-patch lattice vs C1 tokens;
        # C1 lies inside C2, so all of C1 is overlap
        side, w, axes = 2 * t, t, [(0, -2 * o) for o in (oy, ox)]
    half = (k - 1) // 2
    (dy, oky), (dx, okx) = [_axis_weights(t, side, w, lo, shift, half) for lo, shift in axes]
    # entry (r, c, a, b) lands at row r*t + c, column a*side + b
    vals = gaussian_kernel(k, sigma)[dy[:, None, :, None], dx[None, :, None, :]]
    target = np.where(oky[:, None, :, None] & okx[None, :, None, :], vals, 0.0)
    target = target.reshape(t * t, side * side)
    target.flags.writeable = False
    return target


def matching_logits(y_teacher: Tensor, y_student_head: Tensor) -> Tensor:
    """Pre-sigmoid inner-product matrix: rows index teacher tokens.

    Batched (B, R, K) and (B, C, K) inputs give one (R, C) matrix per item.
    """
    if y_teacher.data.shape[-1] != y_student_head.data.shape[-1]:
        raise ShapeError(
            f"matching: embedding dims differ, {y_teacher.data.shape} vs {y_student_head.data.shape}")
    return tz.matmul(y_teacher, tz.swapaxes(y_student_head, -1, -2))


def matching_loss_logits(z: Tensor, target: np.ndarray, alpha: float) -> Tensor:
    """Numerically stable matching loss taken directly on pre-sigmoid logits.

    ``target`` is (R, C) for one crop pair or a (B, R, C) stack for a batch.
    """
    return tz.weighted_match_loss_logits(z, target, alpha)


def teacher_distribution(t_pooled: np.ndarray, center: np.ndarray, tau_t: float) -> np.ndarray:
    """Detached teacher softmax with the centering shift applied first.

    A (B, K) input gives one distribution per row.
    """
    if tau_t <= 0:
        raise ParameterError(f"teacher temperature must be positive, got {tau_t}")
    z = (t_pooled - center) / tau_t
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def global_loss(y_s: Tensor, y_t: np.ndarray, o_s: np.ndarray, o_t: np.ndarray,
                tau_s: float, tau_t: float, center: np.ndarray,
                student_head=None, teacher_head=None):
    """Cross-entropy between pooled-overlap teacher and student distributions.

    ``y_s`` is an N x K student token tensor and ``y_t`` the teacher tokens,
    each pooled over its overlap mask; with a leading batch axis on both,
    item i of the student is scored against item i of the teacher and the
    loss is the batch mean.  Optional head callables take and return tensors
    of pooled rows and project them before the temperature softmaxes.
    Returns (loss tensor, pooled teacher output); the caller owns the center
    vector and updates it from the latter.
    """
    s_pooled = tz.masked_mean_pool(y_s, o_s)
    if student_head is not None:
        s_pooled = student_head(s_pooled)
    t_pooled = tz.masked_mean_pool(Tensor(y_t), o_t)
    if teacher_head is not None:
        t_pooled = teacher_head(t_pooled)
    p_t = teacher_distribution(t_pooled.data, center, tau_t)
    loss = tz.cross_entropy_with_logits(p_t, s_pooled, tau_s)
    return loss, t_pooled.data


def update_center(center: np.ndarray, t_pooled_mean: np.ndarray) -> np.ndarray:
    """EMA of teacher pooled outputs, the collapse guard for the global branch."""
    return CENTER_RATE * center + (1.0 - CENTER_RATE) * t_pooled_mean


def total_loss(global_term: Tensor, comp_term: Tensor, decomp_term: Tensor,
               lambda1: float, lambda2: float, lambda3: float) -> Tensor:
    """Weighted sum of the three branches."""
    return tz.add(tz.add(tz.scale(global_term, lambda1), tz.scale(comp_term, lambda2)),
                  tz.scale(decomp_term, lambda3))
