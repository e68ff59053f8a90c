import contextlib
import hashlib
import math
import multiprocessing
import queue
import threading
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from gbst import tensor as T
from gbst.errors import ConfigError, NonFiniteError, ShapeError, TapeError
from gbst.bytes_data import corrupt_spans, encode
from gbst.model import ModelState, StackConfig, causal_mask, teacher_forced_pass
from gbst.subword import GbstConfig, downsample
from gbst.tensor import Parameter, Tensor, backward, no_grad, reset_tape

from chain_ops import (
    add,
    concat_last_axis,
    gelu,
    mean_pool_1d,
    mul,
    slice_cols,
    softmax_last_axis,
    sum_all,
    transpose_2d,
)


def fd_grad(f, arr, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f()
        flat[i] = old - h
        down = f()
        flat[i] = old
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op_grad(build_loss, params, rtol=1e-6):
    """Analytic grads from one backward pass vs finite differences."""
    reset_tape()
    loss = build_loss()
    backward(loss)
    for p in params:
        analytic = p.grad.copy()

        def value():
            with no_grad():
                return float(build_loss().data)

        numeric = fd_grad(value, p.data)
        denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
        assert np.abs(numeric - analytic).max() / denom < rtol, p.name
    reset_tape()


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()


# --- matmul -----------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(T.matmul(a, b).data, b.data)


def test_matmul_orthogonal_rows():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0], [5.0]])
    npt.assert_array_equal(T.matmul(a, b).data, [[0.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(0)
    a = Parameter("a", rng.normal(size=(3, 4)))
    b = Parameter("b", rng.normal(size=(4, 2)))
    check_op_grad(lambda: sum_all(T.matmul(a, b)), [a, b])


def residual_hashes(fused, counts, k, d, seed, source="rows", frozen=False, taped=True):
    """SHA-256 of the output and of every gradient of ``residual + a @ b``,
    as one ``matmul`` with a residual (``fused``) or as the chain of a
    ``matmul`` and an ``add``, over rows packed at ``counts`` (unpacked for
    one count). ``source`` gives ``a``: fresh (n, k) rows, constant rows
    that require no gradient, the layer norm of the residual (the model's
    attention block, where k = d) or the residual itself. ``frozen`` makes
    ``b`` require no gradient. A second loss term over the residual, taped
    after the op, puts a gradient in its slot first, so the order in which
    the op's rule adds its terms shows in the bits. Untaped, only the output
    is hashed."""
    rng = np.random.default_rng(seed)
    b = Parameter("b", rng.normal(size=(k, d)))
    b.requires_grad = not frozen
    gain, bias = Parameter("gain", rng.normal(size=d)), Parameter("bias", rng.normal(size=d))
    rows = [[Tensor(rng.normal(size=(n, width)), requires_grad=True) for n in counts] for width in (d, k)]
    if source == "constant":
        for t in rows[1]:
            t.requires_grad = False
    ups = [Tensor(rng.normal(size=(sum(counts), d))) for _ in range(2)]
    with contextlib.nullcontext() if taped else no_grad():
        residual = T.pack(rows[0])
        a = {
            "rows": lambda: T.pack(rows[1]),
            "constant": lambda: T.pack(rows[1]),
            "layer_norm": lambda: T.layer_norm(residual, gain, bias),
            "residual": lambda: residual,
        }[source]()
        out = T.matmul(a, b, residual) if fused else add(residual, T.matmul(a, b))
        if not taped:
            assert len(T.active_tape()) == 0
            return [hashlib.sha256(out.data.tobytes()).hexdigest()]
        backward(add(sum_all(mul(out, ups[0])), sum_all(mul(residual, ups[1]))))
    grads = [t.grad for part in rows for t in part] + [p.grad for p in (b, gain, bias)]
    reset_tape()
    return [hashlib.sha256(out.data.tobytes()).hexdigest()] + [
        None if g is None else hashlib.sha256(g.tobytes()).hexdigest() for g in grads
    ]


@pytest.mark.parametrize(
    "counts, k, source, frozen",
    [
        ((9, 1, 30), 16, "rows", False),  # packed, one segment a single row
        ((9, 1, 30), 64, "layer_norm", False),
        ((17,), 8, "rows", False),  # unpacked
        ((17,), 64, "layer_norm", False),
        ((1,), 64, "residual", False),
        ((12, 1, 5), 64, "residual", False),
        ((12, 5), 16, "rows", True),  # a frozen b
        ((12, 1, 5), 64, "layer_norm", True),
        ((3, 8), 16, "constant", True),  # only the residual requires a gradient
    ],
)
def test_matmul_residual_bit_identical_to_add_chain(counts, k, source, frozen):
    for seed in range(3):
        chain = residual_hashes(False, counts, k, 64, seed, source, frozen)
        assert residual_hashes(True, counts, k, 64, seed, source, frozen) == chain
        assert (chain[-3] is None) == frozen
        untaped = residual_hashes(False, counts, k, 64, seed, source, frozen, taped=False)
        assert residual_hashes(True, counts, k, 64, seed, source, frozen, taped=False) == untaped
        assert untaped == chain[:1]


def test_matmul_residual_gradient_vs_fd():
    rng = np.random.default_rng(30)
    shapes = {"a": (4, 3), "b": (3, 5), "residual": (4, 5)}
    a, b, r = (Parameter(name, rng.normal(size=shape)) for name, shape in shapes.items())
    w = Tensor(rng.normal(size=(4, 5)))
    check_op_grad(lambda: sum_all(mul(T.matmul(a, b, r), w)), [a, b, r])


def test_matmul_residual_shape_errors():
    rng = np.random.default_rng(31)
    a = T.pack([Tensor(rng.normal(size=(n, 3))) for n in (1, 2)])
    b = Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        T.matmul(a, b, T.pack([Tensor(np.zeros((n, 3))) for n in (1, 2)]))  # (3, 3) for (3, 2)
    for other in (Tensor(np.zeros((3, 2))), T.pack([Tensor(np.zeros((n, 2))) for n in (2, 1)])):
        with pytest.raises(ShapeError, match="offsets"):
            T.matmul(a, b, other)


# --- conv1d_same ------------------------------------------------------------


def test_conv_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 3)))
    filters = Tensor(np.eye(3)[None, :, :])  # k=1 identity channel map
    out = T.conv1d_same(x, filters, Tensor(np.zeros(3)))
    npt.assert_allclose(out.data, x.data, atol=0)


def test_conv_constant_interior():
    # averaging kernel summing to 1 per output channel leaves a constant
    # signal unchanged away from the zero-padded edges
    d, k = 2, 3
    x = Tensor(np.full((7, d), 2.5))
    filters = np.zeros((k, d, d))
    for t in range(k):
        filters[t] = np.eye(d) / k
    out = T.conv1d_same(x, Tensor(filters), Tensor(np.zeros(d)))
    npt.assert_allclose(out.data[1:-1], 2.5, atol=1e-15)


def test_conv_matches_triple_loop():
    rng = np.random.default_rng(2)
    n, d, k = 9, 3, 5
    x = rng.normal(size=(n, d))
    filters = rng.normal(size=(k, d, d))
    bias = rng.normal(size=d)
    out = T.conv1d_same(Tensor(x), Tensor(filters), Tensor(bias))
    ref = np.zeros((n, d))
    half = (k - 1) // 2
    for i in range(n):
        for j in range(d):
            acc = bias[j]
            for t in range(k):
                src = i + t - half
                if 0 <= src < n:
                    for c in range(d):
                        acc += x[src, c] * filters[t, c, j]
            ref[i, j] = acc
    assert np.abs(out.data - ref).max() < 1e-12


def test_conv_even_kernel_rejected():
    with pytest.raises(ConfigError):
        T.conv1d_same(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))


def test_conv_gradient_vs_fd():
    rng = np.random.default_rng(3)
    x = Parameter("x", rng.normal(size=(6, 2)))
    f = Parameter("f", rng.normal(size=(3, 2, 2)))
    b = Parameter("b", rng.normal(size=2))
    w = Tensor(rng.normal(size=(6, 2)))

    def loss():
        return sum_all(mul(T.conv1d_same(x, f, b), w))

    check_op_grad(loss, [x, f, b])


# --- downsample: block_means of one stream over whole blocks ----------------


def test_pool_output_length():
    out = downsample(Tensor(np.arange(16.0).reshape(8, 2)), 2)
    assert out.shape == (4, 2)


def test_pool_constant():
    out = downsample(Tensor(np.full((9, 3), 1.7)), 3)
    npt.assert_allclose(out.data, 1.7, atol=0)


def test_pool_matches_loop():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 2))
    out = downsample(Tensor(x), 3)
    ref = np.zeros((3, 2))  # remainder row dropped (VALID)
    for j in range(3):
        ref[j] = x[3 * j : 3 * j + 3].mean(axis=0)
    assert np.abs(out.data - ref).max() < 1e-15


def test_pool_short_input_rejected():
    with pytest.raises(ShapeError, match="input rows 2 < window 3"):
        downsample(Tensor(np.zeros((2, 1))), 3)
    with pytest.raises(ConfigError, match="window must be >= 1, got 0"):
        downsample(Tensor(np.zeros((2, 1))), 0)


def test_pool_gradient_with_remainder_row():
    # 7 rows in windows of 3: the dropped remainder row gets a zero gradient
    rng = np.random.default_rng(5)
    x = Parameter("x", rng.normal(size=(7, 2)))
    w = Tensor(rng.normal(size=(2, 2)))
    check_op_grad(lambda: sum_all(mul(downsample(x, 3), w)), [x])
    reset_tape()
    backward(sum_all(mul(downsample(x, 3), w)))
    npt.assert_array_equal(x.grad[6], 0.0)


@pytest.mark.parametrize("rows", [12, 13], ids=["whole_blocks", "remainder"])
@pytest.mark.parametrize("rate", [1, 2, 3, 4])
def test_downsample_is_the_mean_pool_chain_bit_for_bit(rate, rows):
    rng = np.random.default_rng(10 * rate + rows)
    data, up = rng.normal(size=(rows, 5)), Tensor(rng.normal(size=(rows // rate, 5)))
    results = []
    for pool in (downsample, mean_pool_1d):
        reset_tape()
        x = Parameter("x", data.copy())
        out = pool(x, rate)
        backward(sum_all(mul(out, up)))
        results.append((out.data.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1]


# --- block_means / block_scores / block_mix -------------------------------


# length 5 throughout: one stream of b = 1; block sizes that do not divide 5;
# offsets at and beyond the length (all-zero streams)
STREAMS = {
    "single_b1": [(1, 0)],
    "remainders": [(1, 0), (2, 0), (2, 1), (3, 2)],
    "offset_past_end": [(2, 0), (4, 3), (4, 5), (4, 6)],
}


def table_rows(keys, n):
    return sum(-(-n // b) for b, _ in keys)


@pytest.mark.parametrize("keys", STREAMS.values(), ids=STREAMS.keys())
def test_block_means_match_loop(keys):
    x = np.random.default_rng(20).normal(size=(5, 3))
    # all rows, then the first 4 and 3 only: the (1, 0) streams and (2, 0) at
    # n = 4 are whole blocks, summed in place; (2, 0) at n = 5 is zero-filled
    for n in (5, 4, 3):
        table = T.block_means(Tensor(x), keys, n).data
        start = 0
        for b, o in keys:
            for j in range(-(-n // b)):
                block = np.zeros((b, 3))
                rows = x[o + j * b : min(o + (j + 1) * b, n)]
                block[: len(rows)] = rows
                npt.assert_allclose(table[start + j], block.sum(axis=0) / b, atol=1e-15)
            start += -(-n // b)
        assert len(table) == start


def test_block_means_refuses_rows_it_does_not_have():
    x = Tensor(np.ones((3, 2)))
    for n in (5, -1):
        with pytest.raises(ShapeError, match="block_means"):
            T.block_means(x, [(1, 0), (2, 0)], n)


@pytest.mark.parametrize("keys", STREAMS.values(), ids=STREAMS.keys())
def test_block_means_gradient_vs_fd(keys):
    rng = np.random.default_rng(21)
    x = Parameter("x", rng.normal(size=(5, 3)))
    for n in (None, 3):  # all 5 rows, then the first 3: rows 3 and 4 get none
        x.grad = None
        w = Tensor(rng.normal(size=(table_rows(keys, n or 5), 3)))
        check_op_grad(lambda: sum_all(mul(T.block_means(x, keys, n), w)), [x])
    npt.assert_array_equal(x.grad[3:], 0.0)


@pytest.mark.parametrize("keys", STREAMS.values(), ids=STREAMS.keys())
def test_block_scores_gradient_vs_fd(keys):
    # through the softmax inside the op
    rng = np.random.default_rng(22)
    table = Parameter("table", rng.normal(size=(table_rows(keys, 5), 3)))
    scorer = Parameter("scorer", rng.normal(size=(3, 1)))
    r = Tensor(rng.normal(size=(5, len(keys))))
    check_op_grad(
        lambda: sum_all(mul(T.block_scores(table, scorer, keys, 5)[1], r)),
        [table, scorer],
    )


@pytest.mark.parametrize("keys", STREAMS.values(), ids=STREAMS.keys())
def test_block_mix_gradient_vs_fd(keys):
    rng = np.random.default_rng(23)
    weights = Parameter("weights", rng.normal(size=(5, len(keys))))
    table = Parameter("table", rng.normal(size=(table_rows(keys, 5), 3)))
    r = Tensor(rng.normal(size=(5, 3)))
    check_op_grad(
        lambda: sum_all(mul(T.block_mix(weights, table, keys), r)),
        [weights, table],
    )


def test_block_ops_one_record_each():
    keys = [(1, 0), (2, 0), (2, 1)]
    x = Tensor(np.ones((5, 2)), requires_grad=True)
    table = T.block_means(x, keys)
    _, weights = T.block_scores(table, Tensor(np.ones((2, 1))), keys, 5)
    T.block_mix(weights, table, keys)
    assert [name for _, _, name in T.active_tape().records] == ["block_means", "block_scores", "block_mix"]


def test_block_ops_reject_mismatched_spans():
    keys = [(1, 0), (2, 0)]
    table = T.block_means(Tensor(np.ones((5, 2))), keys)
    with pytest.raises(ShapeError):
        T.block_scores(table, Tensor(np.ones((3, 1))), keys, 5)
    with pytest.raises(ShapeError):
        T.block_scores(table, Tensor(np.ones((2, 1))), keys, 6)
    with pytest.raises(ShapeError):
        T.block_mix(Tensor(np.ones((5, 3))), table, keys)
    with pytest.raises(ShapeError):
        T.block_mix(Tensor(np.ones((6, 2))), table, keys)


# --- the softmax of block_scores --------------------------------------------


def test_softmax_uniform():
    # a zero scorer scores every block 0
    table = T.block_means(Tensor(np.ones((1, 3))), STREAMS["remainders"])
    _, weights = T.block_scores(table, Tensor(np.zeros((3, 1))), STREAMS["remainders"], 1)
    npt.assert_allclose(weights.data, 0.25, atol=1e-15)


def test_softmax_extreme_logits_stable():
    # one block of 1000 against one of 0, at each position
    table = Tensor([[1000.0], [0.0]])
    raw, weights = T.block_scores(table, Tensor([[1.0]]), [(1, 0), (1, 1)], 1)
    npt.assert_array_equal(raw, [[1000.0, 0.0]])
    assert np.isfinite(weights.data).all()
    npt.assert_allclose(weights.data, [[1.0, 0.0]], atol=1e-300)


def test_softmax_gradient_vs_fd():
    # the scores of one b = 1 stream per column: the softmax alone, on (1, 4)
    rng = np.random.default_rng(6)
    table = Parameter("table", rng.normal(size=(4, 1)))
    w = Tensor(rng.normal(size=(1, 4)))
    keys = [(1, 0)] * 4
    check_op_grad(lambda: sum_all(mul(T.block_scores(table, Tensor([[1.0]]), keys, 1)[1], w)), [table])


@pytest.mark.parametrize("keys", STREAMS.values(), ids=STREAMS.keys())
def test_block_scores_weights_bit_equal_to_softmax_of_raw(keys):
    rng = np.random.default_rng(24)
    table = Tensor(rng.normal(scale=3.0, size=(table_rows(keys, 5), 3)))
    raw, weights = T.block_scores(table, Tensor(rng.normal(size=(3, 1))), keys, 5)
    assert weights.data.tobytes() == softmax_last_axis(Tensor(raw)).data.tobytes()


# --- multi_head_attention ---------------------------------------------------
# The per-head chain of ops that multi_head_attention replaced is the reference.


def unfused_attention(q, k, v, heads, mask=None):
    """The per-head op chain that multi_head_attention replaces."""
    hd = q.shape[1] // heads
    scale = 1.0 / math.sqrt(hd)
    outs = []
    for i in range(heads):
        qs = slice_cols(q, i * hd, (i + 1) * hd)
        ks = slice_cols(k, i * hd, (i + 1) * hd)
        vs = slice_cols(v, i * hd, (i + 1) * hd)
        scores = mul(T.matmul(qs, transpose_2d(ks)), scale)
        if mask is not None:
            scores = add(scores, Tensor(mask))
        outs.append(T.matmul(softmax_last_axis(scores), vs))
    return outs[0] if heads == 1 else concat_last_axis(outs)


def random_mask(rng, n, m):
    """Finite additive mask with about a third of the entries blocked."""
    return np.where(rng.random((n, m)) < 0.3, -1e9, rng.normal(size=(n, m)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 130),
    m=st.integers(1, 260),
    heads=st.sampled_from([1, 2, 4]),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# fixed shapes whose softmax spans many row blocks of T.BLOCK elements
@example(n=1024, m=1024, heads=4, masked=False, seed=1)  # the long_bytes encoder
@example(n=232, m=1024, heads=4, masked=False, seed=2)  # ragged last block
@example(n=300, m=300, heads=4, masked=True, seed=3)
@example(n=1, m=70000, heads=1, masked=False, seed=4)  # one row wider than a block
@example(n=5000, m=1, heads=1, masked=False, seed=5)
@example(n=5000, m=40, heads=1, masked=True, seed=6)
@example(n=1, m=299, heads=4, masked=True, seed=7)  # one decoded byte
@example(n=147, m=147, heads=4, masked=True, seed=8)  # head groups of 3 and 1
@example(n=1, m=512, heads=4, masked=False, seed=9)  # a decode step, one group
def test_attention_bit_identical_to_unfused_chain(n, m, heads, masked, seed):
    rng = np.random.default_rng(seed)
    width = heads * 16
    arrays = [rng.normal(size=shape) for shape in ((n, width), (m, width), (m, width))]
    w = Tensor(rng.normal(size=(n, width)))
    mask = random_mask(rng, n, m) if masked else None
    results = []
    for attend in (unfused_attention, T.multi_head_attention):
        reset_tape()
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = attend(q, k, v, heads, mask)
        backward(sum_all(mul(out, w)))
        outputs = (out.data, q.grad, k.grad, v.grad)
        results.append([hashlib.sha256(a.tobytes()).hexdigest() for a in outputs])
    assert results[1] == results[0]


def test_attention_backward_peak_below_one_probability_buffer():
    # the backward reuses one (n, m) scratch across heads and works in row
    # blocks, so it never holds a (heads, n, m) buffer of its own
    n = m = 512
    heads = 4
    rng = np.random.default_rng(17)
    q, k, v = (Tensor(rng.normal(size=(r, heads * 16)), requires_grad=True) for r in (n, m, m))
    w = Tensor(rng.normal(size=(n, heads * 16)))
    loss = sum_all(mul(T.multi_head_attention(q, k, v, heads), w))
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < heads * n * m * 8


def test_attention_forward_keeps_no_probabilities():
    # the record saves the head-split operands, and the forward holds one
    # head group's probabilities at a time, so what it keeps is far below
    # one head's (n, m) buffer
    n = m = 512
    heads = 4
    rng = np.random.default_rng(18)
    q, k, v = (Tensor(rng.normal(size=(r, heads * 16)), requires_grad=True) for r in (n, m, m))
    tracemalloc.start()
    try:
        out = T.multi_head_attention(q, k, v, heads)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < n * m * 8


def attention_hashes(n, m, heads, masked, seed, scale=None, shared=False):
    """SHA-256 of the output and the q, k and v gradients of one attention
    call on random operands; ``shared`` makes q = k = v one tensor, as GBST
    score calibration does."""
    reset_tape()
    rng = np.random.default_rng(seed)
    width = heads * 16
    q, k, v = (Tensor(rng.normal(size=(r, width)), requires_grad=True) for r in (n, m, m))
    if shared:
        k = v = q
    mask = random_mask(rng, n, m) if masked else None
    out = T.multi_head_attention(q, k, v, heads, mask, scale)
    backward(sum_all(mul(out, Tensor(rng.normal(size=(n, width))))))
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (out.data, q.grad, k.grad, v.grad)]


@pytest.mark.parametrize(
    "n, m, heads, masked, seed, scale, shared",
    [
        # the long shapes of test_attention_bit_identical_to_unfused_chain
        (1024, 1024, 4, False, 1, None, False),
        (232, 1024, 4, False, 2, None, False),
        (300, 300, 4, True, 3, None, False),
        (1, 70000, 1, False, 4, None, False),
        (5000, 1, 1, False, 5, None, False),
        (5000, 40, 1, True, 6, None, False),
        (300, 300, 3, True, 7, None, False),  # a pair of heads, then one alone
        (1024, 10, 1, False, 8, 1.0, True),  # GBST calibration at L = 1024
    ],
)
def test_attention_lane_on_and_off_give_the_same_bits(monkeypatch, n, m, heads, masked, seed, scale, shared):
    on = attention_hashes(n, m, heads, masked, seed, scale, shared)
    monkeypatch.setattr(T, "_get_lane", lambda: None)
    assert attention_hashes(n, m, heads, masked, seed, scale, shared) == on
    idle = IdleLane()
    monkeypatch.setattr(T, "_get_lane", lambda: idle)  # the caller takes every job back
    assert attention_hashes(n, m, heads, masked, seed, scale, shared) == on


class IdleLane:
    """A lane whose thread never starts a job, as when the second core is busy."""

    def __init__(self):
        self.thread = threading.Thread(target=lambda: None)
        self.jobs = queue.SimpleQueue()


def test_both_returns_both_results_and_raises_the_lanes_error(monkeypatch):
    assert T._both(lambda: 1, lambda: 2) == (1, 2)
    with pytest.raises(ZeroDivisionError):
        T._both(lambda: 1, lambda: 1 / 0)
    idle = IdleLane()
    monkeypatch.setattr(T, "_get_lane", lambda: idle)
    assert T._both(lambda: 1, lambda: 2) == (1, 2)
    assert idle.jobs.qsize() == 1  # handed out, then taken back


def child_attention_hashes_must_be(expected):
    if attention_hashes(880, 880, 4, False, 11) != expected:
        raise AssertionError("a forked child computed other bits")


def test_child_forked_after_the_lane_ran_finishes_a_long_attention_call():
    expected = attention_hashes(880, 880, 4, False, 11)  # the lane has run here
    child = multiprocessing.get_context("fork").Process(target=child_attention_hashes_must_be, args=(expected,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a child forked after the lane ran hung in attention")
    assert child.exitcode == 0


def test_attention_forward_holds_two_heads_buffers_at_most():
    # with the lane, head groups of one long head run two at a time; the
    # forward's peak above what it keeps is two heads' (n, m) probabilities
    # plus the (heads, n, hd) output, never all heads' probabilities
    n = m = 512
    heads = 4
    rng = np.random.default_rng(19)
    q, k, v = (Tensor(rng.normal(size=(r, heads * 16)), requires_grad=True) for r in (n, m, m))
    T.multi_head_attention(q, k, v, heads)  # the lane starts outside the trace
    reset_tape()
    tracemalloc.start()
    try:
        out = T.multi_head_attention(q, k, v, heads)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert peak - held < 2.25 * n * m * 8


@pytest.mark.parametrize("masked", [False, True])
def test_attention_gradient_vs_fd(masked):
    rng = np.random.default_rng(14)
    q = Parameter("q", rng.normal(size=(3, 6)))
    k = Parameter("k", rng.normal(size=(4, 6)))
    v = Parameter("v", rng.normal(size=(4, 6)))
    w = Tensor(rng.normal(size=(3, 6)))
    mask = np.triu(np.full((3, 4), -1e9), k=2) if masked else None
    check_op_grad(
        lambda: sum_all(mul(T.multi_head_attention(q, k, v, 2, mask), w)),
        [q, k, v],
    )


def test_attention_shared_operand_gradient_vs_fd():
    # q = k = v with unit scale: the form GBST score calibration takes
    rng = np.random.default_rng(16)
    p = Parameter("p", rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(5, 3)))
    check_op_grad(
        lambda: sum_all(mul(T.multi_head_attention(p, p, p, 1, scale=1.0), w)), [p]
    )


def test_attention_is_one_record():
    rng = np.random.default_rng(15)
    q, k, v = (Tensor(rng.normal(size=(r, 8)), requires_grad=True) for r in (3, 5, 5))
    T.multi_head_attention(q, k, v, 4)
    assert len(T.active_tape()) == 1


def test_attention_shape_errors():
    # both ops check their operands in the same place
    x = np.zeros((3, 8))
    cases = [
        (x, x, x, 3, None),  # width 8 does not split into 3 heads
        (x, np.zeros((3, 4)), x, 2, None),
        (x, x, np.zeros((4, 8)), 2, None),
        (x, np.zeros(8), x, 2, None),
        (x, x, x, 2, np.zeros((3, 4))),
        (x, np.zeros((0, 8)), np.zeros((0, 8)), 2, None),
    ]
    for q, k, v, heads, mask in cases:
        with pytest.raises(ShapeError):
            T.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), heads, mask)
        with no_grad(), pytest.raises(ShapeError):
            T.cached_attention(Tensor(q), k, v, heads, mask)


def cache_layout(k, v, spare):
    """``k`` and ``v`` as a ``KVCache`` holds them: views of the first rows
    of buffers with ``spare`` more rows, which are NaN, so that any read of
    them would surface."""
    views = []
    for rows in (k, v):
        buffer = np.full((len(rows) + spare, rows.shape[1]), np.nan)
        buffer[: len(rows)] = rows
        views.append(buffer[: len(rows)])
    return views


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 300),
    heads=st.sampled_from([1, 2, 4]),
    masked=st.booleans(),
    spare=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_attention_matches_multi_head_attention(n, m, heads, masked, spare, seed):
    assume(m >= n or not masked)
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(rows, heads * 16)) for rows in (n, m, m))
    mask = causal_mask(n, m - n) if masked else None
    with no_grad():
        ref = T.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), heads, mask)
        out = T.cached_attention(Tensor(q), *cache_layout(k, v, spare), heads, mask)
    assert np.abs(out.data - ref.data).max() <= 1e-10


def test_cached_attention_refuses_gradients():
    rows = np.zeros((3, 8))
    with pytest.raises(TapeError):
        T.cached_attention(Tensor(rows), rows, rows, 2)


# --- backward / tape --------------------------------------------------------


def test_parameter_is_a_named_tensor():
    p = Parameter("p", [1, 2])
    assert isinstance(p, Tensor) and p.name == "p" and p.requires_grad
    assert p.data.dtype == np.float64 and p.grad is None
    assert not hasattr(p, "tensor") and not hasattr(p, "frozen")


def test_backward_sum_gives_ones():
    p = Parameter("p", np.arange(6.0).reshape(2, 3))
    reset_tape()
    backward(sum_all(p))
    npt.assert_array_equal(p.grad, np.ones((2, 3)))


def test_backward_zero_product_gives_zeros():
    p = Parameter("p", np.arange(4.0).reshape(2, 2))
    reset_tape()
    backward(sum_all(mul(p, 0.0)))
    npt.assert_array_equal(p.grad, np.zeros((2, 2)))


def test_backward_requires_scalar():
    p = Parameter("p", np.ones((2, 2)))
    reset_tape()
    out = mul(p, 2.0)
    with pytest.raises(ShapeError):
        backward(out)


def test_backward_twice_raises():
    p = Parameter("p", np.ones(3))
    reset_tape()
    loss = sum_all(p)
    backward(loss)
    # only tombstones are left: the record's output and rule are released
    assert T.active_tape().records == [(None, None, "sum_all")]
    with pytest.raises(TapeError):
        backward(loss)


def small_graph():
    """p -> h = p @ w (held by the caller) -> g = gelu(h) (not held) ->
    loss = sum(g * g). The rule of ``mul`` reads g's array, so the tape
    holds it until backward; a Tensor has slots and takes no weak
    reference, so g is watched through that array."""
    rng = np.random.default_rng(21)
    p = Parameter("p", rng.normal(size=(4, 3)))
    h = T.matmul(p, Tensor(rng.normal(size=(3, 5))))
    g = gelu(h)
    return p, h, weakref.ref(g.data), sum_all(mul(g, g))


def test_backward_frees_an_intermediate_nobody_holds():
    _, _, g_data, loss = small_graph()
    assert g_data() is not None  # the tape holds it until backward
    backward(loss)
    assert g_data() is None


def test_forward_frees_outputs_no_rule_reads():
    # attention saves head-split copies of q, k and v, and the projections'
    # rules read their inputs, not their outputs: so once the caller drops
    # the projections, nothing holds their arrays, though the tape lives on
    rng = np.random.default_rng(22)
    x = Parameter("x", rng.normal(size=(6, 8)))
    weights = [Tensor(rng.normal(size=(8, 8))) for _ in range(3)]
    grads = []
    for keep in (True, False):
        reset_tape()
        x.grad = None
        q, k, v = (T.matmul(x, w) for w in weights)
        watched = [weakref.ref(t.data) for t in (q, k, v)]
        out = T.multi_head_attention(q, k, v, 2)
        if not keep:
            del q, k, v
            assert [w() for w in watched] == [None] * 3
        assert len(T.active_tape()) == 4
        backward(sum_all(out))
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_no_rule_of_a_packed_model_loss_keeps_a_tensor():
    # a rule keeps its inputs' slots and the arrays it reads, never a Tensor:
    # so it keeps alive no output that it does not read
    gbst = GbstConfig(embedding_dim=64, enable_offsets=True, enable_calibration=True)
    state = ModelState(StackConfig(), gbst, seed=0)
    batch = [corrupt_spans(encode("two examples packed " * k), 0.15, 3.0, rng_seed=k) for k in (1, 2)]
    reset_tape()
    _, logits, targets = teacher_forced_pass(state, batch)
    T.cross_entropy_with_logits(logits, targets)

    def tensors(obj):
        if isinstance(obj, (list, tuple)):
            return [t for item in obj for t in tensors(item)]
        return [obj] if isinstance(obj, Tensor) else []

    kept, names = [], set()
    for slot, fn, name in T.active_tape().records:
        assert isinstance(slot, T.GradSlot)
        names.add(name)
        kept += [name for _ in tensors([c.cell_contents for c in fn.__closure__ or ()])]
        kept += [name for _ in tensors(fn.__defaults__)]
    assert kept == []
    assert len(names) == 12  # every recording op of tensor.py but the untaped cached_attention


def test_backward_keeps_the_grad_of_a_held_intermediate():
    _, h, _, loss = small_graph()
    backward(loss)
    x = h.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    expected = 2.0 * x * cdf * (cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    npt.assert_allclose(h.grad, expected, rtol=1e-12)


def test_backward_keeps_the_tape_length_and_names():
    *_, loss = small_graph()
    names = [name for _, _, name in T.active_tape().records]
    backward(loss)
    assert [name for _, _, name in T.active_tape().records] == names == ["matmul", "gelu", "mul", "sum_all"]


def test_backward_empty_tape_raises():
    reset_tape()
    with pytest.raises(TapeError):
        backward(Tensor(np.asarray(0.0), requires_grad=True))


def test_multipath_accumulation():
    # y used twice: chain rule sums over paths
    p = Parameter("p", np.array([3.0]))
    reset_tape()
    y = mul(p, 2.0)
    backward(sum_all(add(y, y)))
    npt.assert_array_equal(p.grad, [4.0])


def test_frozen_parameter_gets_no_grad():
    p = Parameter("p", np.ones(3))
    q = Parameter("q", np.ones(3))
    p.requires_grad = False
    reset_tape()
    backward(sum_all(add(p, q)))
    assert p.grad is None
    npt.assert_array_equal(q.grad, np.ones(3))


def test_forward_nan_raises():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            mul(Tensor([np.inf]), 0.0)


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 3))

    def run():
        reset_tape()
        pa, pb = Parameter("a", a.copy()), Parameter("b", b.copy())
        loss = sum_all(gelu(T.matmul(pa, pb)))
        backward(loss)
        return float(loss.data), pa.grad.copy(), pb.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert (ga1 == ga2).all() and (gb1 == gb2).all()


# --- plumbing ops -----------------------------------------------------------


def test_add_row_broadcast_gradient():
    rng = np.random.default_rng(8)
    x = Parameter("x", rng.normal(size=(5, 3)))
    b = Parameter("b", rng.normal(size=3))
    w = Tensor(rng.normal(size=(5, 3)))
    check_op_grad(lambda: sum_all(mul(add(x, b), w)), [x, b])


def test_mul_column_broadcast_gradient():
    rng = np.random.default_rng(9)
    x = Parameter("x", rng.normal(size=(5, 3)))
    c = Parameter("c", rng.normal(size=(5, 1)))
    check_op_grad(lambda: sum_all(mul(x, c)), [x, c])


def test_add_positions_rows_and_grads():
    # each segment adds the table's rows from ``start`` on
    rng = np.random.default_rng(10)
    parts = [Parameter(f"x{i}", rng.normal(size=(n, 2))) for i, n in enumerate((2, 3))]
    table = Parameter("table", rng.normal(size=(5, 2)))
    out = T.add_positions(T.pack(parts), table, 1)
    assert out.offsets == (0, 2, 5)
    npt.assert_array_equal(out.data[:2], parts[0].data + table.data[1:3])
    npt.assert_array_equal(out.data[2:], parts[1].data + table.data[1:4])
    with pytest.raises(ShapeError):
        T.add_positions(parts[1], table, 3)
    w = Tensor(rng.normal(size=(5, 2)))
    check_op_grad(lambda: sum_all(mul(T.add_positions(T.pack(parts), table, 1), w)), [*parts, table])


def test_slice_cols_and_concat_inverse():
    rng = np.random.default_rng(11)
    x = Parameter("x", rng.normal(size=(3, 6)))
    parts = [slice_cols(x, i, i + 2) for i in (0, 2, 4)]
    merged = concat_last_axis(parts)
    npt.assert_array_equal(merged.data, x.data)
    w = Tensor(rng.normal(size=(3, 6)))
    check_op_grad(
        lambda: sum_all(
            mul(concat_last_axis([slice_cols(x, 0, 2), slice_cols(x, 2, 6)]), w)
        ),
        [x],
    )


def test_transpose_gradient():
    rng = np.random.default_rng(12)
    x = Parameter("x", rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(5, 3)))
    check_op_grad(lambda: sum_all(mul(transpose_2d(x), w)), [x])


def test_embedding_gather_counts():
    table = Parameter("table", np.random.default_rng(13).normal(size=(4, 3)))
    ids = [2, 0, 2, 2]
    reset_tape()
    backward(sum_all(T.embedding_gather(table, ids)))
    expected = np.zeros((4, 3))
    expected[2] = 3.0
    expected[0] = 1.0
    npt.assert_array_equal(table.grad, expected)


def test_embedding_gather_lookup_and_range():
    table = Tensor(np.eye(4))
    out = T.embedding_gather(table, [2])
    npt.assert_array_equal(out.data, [[0.0, 0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        T.embedding_gather(table, [4])


def test_layer_norm_gradient_vs_fd():
    rng = np.random.default_rng(14)
    x = Parameter("x", rng.normal(size=(4, 6)))
    g = Parameter("g", rng.normal(size=6))
    b = Parameter("b", rng.normal(size=6))
    w = Tensor(rng.normal(size=(4, 6)))
    check_op_grad(
        lambda: sum_all(mul(T.layer_norm(x, g, b), w)), [x, g, b], rtol=1e-5
    )


def test_gelu_gradient_vs_fd():
    rng = np.random.default_rng(15)
    x = Parameter("x", rng.normal(size=(5, 3)))
    check_op_grad(lambda: sum_all(gelu(x)), [x])


# --- ffn ---------------------------------------------------------------------


def ffn_chain(x, w1, b1, w2, b2, residual):
    """The chain of ops that ffn replaces."""
    hidden = gelu(add(T.matmul(x, w1), b1))
    return add(residual, add(T.matmul(hidden, w2), b2))


def ffn_hashes(op, counts, d, f, seed, frozen=(), shared=False):
    """SHA-256 of the output and of every gradient of ``op`` over rows packed
    at ``counts`` (unpacked for one count), against a random upstream
    gradient. ``frozen`` names weights that require no gradient; ``shared``
    takes x as the layer norm of the residual, as the model does, so the
    residual's gradient adds both paths."""
    rng = np.random.default_rng(seed)
    shapes = {"w1": (d, f), "b1": (f,), "w2": (f, d), "b2": (d,)}
    params = {name: Parameter(name, rng.normal(size=shape)) for name, shape in shapes.items()}
    for name in frozen:
        params[name].requires_grad = False
    rows = [[Tensor(rng.normal(size=(n, d)), requires_grad=True) for n in counts] for _ in range(2)]
    residual = T.pack(rows[0])
    x = T.layer_norm(residual, Tensor(np.ones(d)), Tensor(np.zeros(d))) if shared else T.pack(rows[1])
    out = op(x, *params.values(), residual)
    backward(sum_all(mul(out, Tensor(rng.normal(size=out.shape)))))
    grads = [t.grad for t in rows[0] + ([] if shared else rows[1])] + [p.grad for p in params.values()]
    reset_tape()
    return [hashlib.sha256(out.data.tobytes()).hexdigest()] + [
        None if g is None else hashlib.sha256(g.tobytes()).hexdigest() for g in grads
    ]


@pytest.mark.parametrize(
    "counts, frozen, shared",
    [
        ((9, 1, 30), (), False),  # packed, one segment a single row
        ((9, 1, 30), (), True),
        ((17,), (), False),  # unpacked
        ((1,), (), True),
        ((12, 5), ("w1",), False),  # a frozen weight
        ((12, 5), ("w2", "b1"), True),
    ],
)
def test_ffn_bit_identical_to_chain(counts, frozen, shared):
    for d, f in ((8, 32), (64, 256)):
        chain = ffn_hashes(ffn_chain, counts, d, f, 23, frozen, shared)
        assert ffn_hashes(T.ffn, counts, d, f, 23, frozen, shared) == chain
        assert [h is None for h in chain[-4:]] == [name in frozen for name in ("w1", "b1", "w2", "b2")]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    d=st.sampled_from([1, 8, 16, 64]),
    f=st.sampled_from([1, 24, 64, 256]),
    shared=st.booleans(),
)
def test_ffn_bit_identical_to_chain_over_shapes(counts, d, f, shared):
    fused, chain = (ffn_hashes(op, counts, d, f, 24, (), shared) for op in (T.ffn, ffn_chain))
    assert fused == chain


def ffn_operands(rng, n=4, d=3, f=5):
    x, residual = (Parameter(name, rng.normal(size=(n, d))) for name in ("x", "residual"))
    shapes = {"w1": (d, f), "b1": (f,), "w2": (f, d), "b2": (d,)}
    return [x, *(Parameter(name, rng.normal(size=shape)) for name, shape in shapes.items()), residual]


def test_ffn_gradient_vs_fd():
    rng = np.random.default_rng(25)
    operands = ffn_operands(rng)
    w = Tensor(rng.normal(size=(4, 3)))
    check_op_grad(lambda: sum_all(mul(T.ffn(*operands), w)), operands)


def test_ffn_nan_input_raises_naming_ffn():
    operands = ffn_operands(np.random.default_rng(26))
    operands[0].data[1, 2] = np.nan
    with pytest.raises(NonFiniteError, match="ffn"):
        T.ffn(*operands)


def test_ffn_rule_keeps_x_h_and_cdf_only():
    # besides the weights, the rule binds x, the pre-activation h and the
    # GELU cdf, and not the GELU output, which its backward computes again
    x, w1, b1, w2, b2, residual = ffn_operands(np.random.default_rng(27), n=6, d=4, f=7)
    T.ffn(x, w1, b1, w2, b2, residual)
    (_, fn, name), = T.active_tape().records
    assert name == "ffn"
    bound = [c.cell_contents for c in fn.__closure__ or ()] + list(fn.__defaults__)
    arrays = [a for a in bound if isinstance(a, np.ndarray) and a is not w1.data and a is not w2.data]
    h = x.data @ w1.data + b1.data
    cdf = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    assert [a.tobytes() for a in arrays[1:]] == [h.tobytes(), cdf.tobytes()]
    assert arrays[0] is x.data


def test_ffn_records_nothing_under_no_grad():
    operands = ffn_operands(np.random.default_rng(28))
    taped = T.ffn(*operands)
    reset_tape()
    with no_grad():
        out = T.ffn(*operands)
    assert len(T.active_tape()) == 0 and not out.requires_grad
    assert out.data.tobytes() == taped.data.tobytes()


def test_ffn_shape_errors():
    x, w1, b1, w2, b2, residual = ffn_operands(np.random.default_rng(29))
    with pytest.raises(ShapeError):
        T.ffn(x, w1, b1, w2, b2, Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        T.ffn(x, w2, b1, w2, b2, residual)
    with pytest.raises(ShapeError, match="offsets"):
        T.ffn(T.pack([Tensor(x.data[:1]), Tensor(x.data[1:])]), w1, b1, w2, b2, residual)


def test_cross_entropy_values_and_gradient():
    rng = np.random.default_rng(16)
    logits = Parameter("logits", rng.normal(size=(4, 7)))
    ids = [1, 0, 6, 3]
    reset_tape()
    loss = T.cross_entropy_with_logits(logits, ids)
    # direct logsumexp oracle
    z = logits.data
    ref = np.mean(
        [np.log(np.exp(z[i] - z[i].max()).sum()) + z[i].max() - z[i, t] for i, t in enumerate(ids)]
    )
    npt.assert_allclose(float(loss.data), ref, rtol=1e-12)
    check_op_grad(lambda: T.cross_entropy_with_logits(logits, ids), [logits])


def test_no_grad_suppresses_recording():
    p = Parameter("p", np.ones(3))
    reset_tape()
    with no_grad():
        out = mul(p, 2.0)
    assert not out.requires_grad
    assert len(T.active_tape()) == 0
