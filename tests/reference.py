"""Plain-numpy reference forms that tests compare the package against.

None of these runs in training or in a probe: the matching loss on an
explicit probability matrix, the overlap-mask pooling between the C1 and
C2 token lattices, the grid footprint of a crop token, and the box average
of an integer downscale.
"""

import numpy as np


def matching_loss(m, t, alpha):
    """-mean over rows of sum_cols[alpha*T*log M + (1-alpha)*(1-T)*log(1-M)];
    alpha = 1 leaves the first term alone."""
    m, t = np.asarray(m, dtype=float), np.asarray(t, dtype=float)
    terms = alpha * t * np.log(m) + (1.0 - alpha) * (1.0 - t) * np.log1p(-m)
    return -terms.sum() / (m.size // m.shape[-1])


def pool_mask(o1):
    """2x2 max-pool: a composed cell is in the overlap iff any constituent is."""
    t = o1.shape[0]
    return o1.reshape(t // 2, 2, t // 2, 2).max(axis=(1, 3))


def upsample_mask(o2):
    """Nearest-neighbour 2x replication: each cell becomes a 2x2 block."""
    return np.repeat(np.repeat(o2, 2, axis=0), 2, axis=1)


def token_to_grid(crop_role, anchor, token):
    """((x, y) of the top-left grid patch, extent) covered by crop token
    (row, col): extent 1 for a C1 token, 2 for a C2 token."""
    extent = {"C1": 1, "C2": 2}[crop_role]
    r, c = token
    return (anchor[0] + extent * c, anchor[1] + extent * r), extent


def box_downscale(src, n):
    """Exact box average of a square image onto n x n: each output pixel is
    the mean of its f x f block, f = side / n, as numpy's two-axis mean."""
    f = src.shape[0] // n
    return src.reshape(n, f, n, f).mean(axis=(1, 3))
