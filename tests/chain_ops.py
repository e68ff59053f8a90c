"""Reference-chain ops for the tests.

The model's ops each replace a chain of smaller ops, and the tests keep
those chains as references: a fused op must give the chain's bits, forward
and backward. The chains' ops that no model code runs live here, each one
tape record under its own op name, built on ``tensor._record`` and
``tensor._accumulate`` as the package's ops are. ``sum_all`` and ``mul``
also make a scalar loss of an op's output against a fixed upstream
gradient.
"""

import math

import numpy as np
from scipy.special import erf

from gbst import tensor as T
from gbst.tensor import Tensor


def _reduce_to(g: np.ndarray, shape: tuple[int, ...], offsets: tuple[int, ...] | None = None) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape, segment by
    segment of the rows of ``g`` if they are packed at ``offsets``."""
    if g.shape == shape:
        return g
    if offsets is not None:
        return T._sum_segments(offsets, len(g), lambda r: _reduce_to(g[r], shape))
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of broadcastable operands (a row vector against a
    matrix, a 0-d tensor against anything). It keeps the offsets of ``a``."""
    out = a.data + b.data

    def _bw(g, sa=a.slot, sb=b.slot, a_shape=a.data.shape, b_shape=b.data.shape, offsets=a.offsets):
        T._accumulate(sa, _reduce_to(g, a_shape, offsets))
        T._accumulate(sb, _reduce_to(g, b_shape, offsets))

    return T._record("add", out, (a, b), _bw, a.offsets)


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise product, with the broadcasting of ``add``; a Python
    scalar ``b`` becomes the constant ``Tensor(float(b))``."""
    if not isinstance(b, Tensor):
        b = Tensor(float(b))
    out = a.data * b.data

    def _bw(g, ad=a.data, bd=b.data, sa=a.slot, sb=b.slot):
        T._accumulate(sa, _reduce_to(g * bd, ad.shape))
        T._accumulate(sb, _reduce_to(g * ad, bd.shape))

    return T._record("mul", out, (a, b), _bw)


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum()

    def _bw(g, sx=x.slot, shape=x.data.shape):
        T._accumulate(sx, np.full(shape, float(g)))

    return T._record("sum_all", np.asarray(out), (x,), _bw)


def transpose_2d(x: Tensor) -> Tensor:
    def _bw(g, sx=x.slot):
        T._accumulate(sx, g.T)

    return T._record("transpose_2d", x.data.T.copy(), (x,), _bw)


def softmax_last_axis(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis: the reference for the
    softmax inside ``block_scores`` and for attention's."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def _bw(g, sx=x.slot):
        T._accumulate(sx, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return T._record("softmax_last_axis", y, (x,), _bw)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    def _bw(g, sx=x.slot, shape=x.data.shape):
        full = np.zeros(shape)
        full[:, start:stop] = g
        T._accumulate(sx, full)

    return T._record("slice_cols", x.data[:, start:stop].copy(), (x,), _bw)


def concat_last_axis(parts: list[Tensor]) -> Tensor:
    widths = [p.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)

    def _bw(g, slots=tuple(p.slot for p in parts)):
        off = 0
        for sp, w in zip(slots, widths):
            T._accumulate(sp, g[..., off : off + w].copy())
            off += w

    return T._record("concat_last_axis", out, tuple(parts), _bw)


def mean_pool_1d(x: Tensor, window: int) -> Tensor:
    """Mean over consecutive groups of ``window`` rows, the remainder rows
    dropped: the reference for ``subword.downsample``."""
    n, d = x.shape
    n_out = n // window
    out = x.data[: n_out * window].reshape(n_out, window, d).mean(axis=1)

    def _bw(g, sx=x.slot):
        gx = np.zeros((n, d))
        gx[: n_out * window] = np.repeat(g / window, window, axis=0)
        T._accumulate(sx, gx)

    return T._record("mean_pool_1d", out, (x,), _bw)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit, the activation inside
    ``ffn``; it keeps the offsets of ``x``."""
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    out = x.data * cdf

    def _bw(g, xd=x.data, sx=x.slot):
        pdf = np.exp(-0.5 * xd * xd) / math.sqrt(2.0 * math.pi)
        T._accumulate(sx, g * (cdf + xd * pdf))

    return T._record("gelu", out, (x,), _bw, x.offsets)
