"""Packed batches keep the bits of one tape record per example.

``train_step`` packs the rows of every example of a batch into one tensor
with segment offsets and runs each op once over all rows. These tests pin the
facts that rest on: row-wise work over stacked rows rounds each row as the
example alone would; gradients that sum over rows, added segment by segment
in reverse order, equal the per-example tape's; attention and the loss work
segment by segment. Each compares SHA-256 digests, so "equal" means every bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbst import tensor as T
from gbst.bytes_data import ByteSequence, corrupt_spans, encode
from gbst.errors import ShapeError
from gbst.model import (
    BOS_ID,
    ModelState,
    StackConfig,
    causal_mask,
    decode_stack,
    encode_input,
    run_frontend,
    teacher_forced_pass,
)
from gbst.subword import GbstConfig
from gbst.tensor import Parameter, Tensor, backward, no_grad, reset_tape
from gbst.train import TrainConfig, make_batch, make_optimizer, train_step

from chain_ops import add, gelu, mul, sum_all

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
lengths = st.lists(st.integers(1, 80), min_size=1, max_size=8)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()


def digest(*arrays) -> list[str]:
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]


def per_example_and_packed(rows, op, params):
    """Digests of the output and of the input and parameter gradients of
    ``op(x, params)`` run once per example, as one record each with the
    examples' losses added in order, and run once over their packed rows.
    Each output row is weighted by a fixed random upstream gradient."""
    results = []
    for packed in (False, True):
        reset_tape()
        for p in params:
            p.grad = None
        xs = [Tensor(r.copy(), requires_grad=True) for r in rows]
        outs = [op(T.pack(xs), params)] if packed else [op(x, params) for x in xs]
        ups = np.random.default_rng(len(rows)).normal(size=(len(np.concatenate(rows)), outs[0].shape[1]))
        loss, first = None, 0
        for out in outs:
            term = sum_all(mul(out, Tensor(ups[first : first + len(out)])))
            loss = term if loss is None else add(loss, term)
            first += len(out)
        backward(loss)
        grads = np.concatenate([x.grad for x in xs])
        results.append(digest(np.concatenate([o.data for o in outs]), grads, *(p.grad for p in params)))
    return results


def random_rows(seed: int, counts: list[int], width: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, width)) for n in counts]


@SETTINGS
@given(counts=lengths, width=st.sampled_from([16, 64, 256]), seed=st.integers(0, 2**32 - 1))
def test_matmul_rows_and_weight_gradient(counts, width, seed):
    w = Parameter("w", np.random.default_rng(seed + 1).normal(size=(width, 64)))
    first, second = per_example_and_packed(
        random_rows(seed, counts, width), lambda x, ps: T.matmul(x, ps[0]), [w]
    )
    assert first == second


@SETTINGS
@given(counts=lengths, seed=st.integers(0, 2**32 - 1))
def test_bias_add_and_gelu(counts, seed):
    b = Parameter("b", np.random.default_rng(seed + 1).normal(size=64))
    first, second = per_example_and_packed(
        random_rows(seed, counts, 64), lambda x, ps: gelu(add(x, ps[0])), [b]
    )
    assert first == second


@SETTINGS
@given(counts=lengths, seed=st.integers(0, 2**32 - 1))
def test_layer_norm_rows_gain_and_bias(counts, seed):
    rng = np.random.default_rng(seed + 1)
    gain, bias = Parameter("gain", rng.normal(size=64)), Parameter("bias", rng.normal(size=64))
    first, second = per_example_and_packed(
        random_rows(seed, counts, 64), lambda x, ps: T.layer_norm(x, *ps), [gain, bias]
    )
    assert first == second


@SETTINGS
@given(counts=lengths, start=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_positions_rows_and_table_gradient(counts, start, seed):
    table = Parameter("table", np.random.default_rng(seed + 1).normal(size=(84, 64)))
    first, second = per_example_and_packed(
        random_rows(seed, counts, 64), lambda x, ps: T.add_positions(x, ps[0], start), [table]
    )
    assert first == second


def attention_case(q_counts, kv_counts, heads, causal, seed):
    """Digests of outputs and q/k/v gradients: per-example attention records,
    then one record over the packed segments."""
    rng = np.random.default_rng(seed)
    width = heads * 16
    arrays = [
        [rng.normal(size=(n, width)) for n in counts] for counts in (q_counts, kv_counts, kv_counts)
    ]
    ups = [rng.normal(size=(n, width)) for n in q_counts]
    results = []
    for packed in (False, True):
        reset_tape()
        q, k, v = ([Tensor(a.copy(), requires_grad=True) for a in part] for part in arrays)
        if packed:
            mask = causal_mask(max(q_counts), 0) if causal else None
            out = T.multi_head_attention(T.pack(q), T.pack(k), T.pack(v), heads, mask)
            loss = sum_all(mul(out, Tensor(np.concatenate(ups))))
            data = out.data
        else:
            loss, outs = None, []
            for qi, ki, vi, u in zip(q, k, v, ups):
                mask = causal_mask(len(qi), 0) if causal else None
                outs.append(T.multi_head_attention(qi, ki, vi, heads, mask))
                term = sum_all(mul(outs[-1], Tensor(u)))
                loss = term if loss is None else add(loss, term)
            data = np.concatenate([o.data for o in outs])
        backward(loss)
        grads = [np.concatenate([t.grad for t in part]) for part in (q, k, v)]
        results.append(digest(data, *grads))
    return results


@SETTINGS
@given(counts=lengths, heads=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**32 - 1))
def test_segmented_self_attention(counts, heads, seed):
    first, second = attention_case(counts, counts, heads, False, seed)
    assert first == second


@SETTINGS
@given(counts=lengths, heads=st.sampled_from([1, 4]), seed=st.integers(0, 2**32 - 1))
def test_segmented_causal_self_attention(counts, heads, seed):
    first, second = attention_case(counts, counts, heads, True, seed)
    assert first == second


@SETTINGS
@given(
    pairs=st.lists(st.tuples(st.integers(1, 80), st.integers(1, 80)), min_size=1, max_size=8),
    heads=st.sampled_from([1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_segmented_cross_attention(pairs, heads, seed):
    q_counts, kv_counts = zip(*pairs)
    first, second = attention_case(list(q_counts), list(kv_counts), heads, False, seed)
    assert first == second


def test_unmatched_segments_are_shape_errors():
    rows = [Tensor(np.zeros((n, 8))) for n in (2, 3, 4)]
    q, kv = T.pack(rows[:2]), T.pack(rows)
    with pytest.raises(ShapeError):
        T.multi_head_attention(q, kv, kv, 2)  # two query segments, three key segments
    with pytest.raises(ShapeError):
        T.multi_head_attention(q, q, q, 2, causal_mask(2, 0))  # the mask must cover 3 rows
    for parts in ([], [q], [rows[0], Tensor(np.zeros((0, 8)))], [rows[0], Tensor(np.zeros(8))]):
        with pytest.raises(ShapeError):
            T.pack(parts)


@SETTINGS
@given(counts=lengths, vocab=st.sampled_from([7, 256, 259]), seed=st.integers(0, 2**32 - 1))
def test_packed_cross_entropy_sums(counts, vocab, seed):
    rng = np.random.default_rng(seed)
    logits = [rng.normal(size=(n, vocab)) * 3 for n in counts]
    targets = [rng.integers(vocab, size=n).tolist() for n in counts]
    tokens = sum(counts)
    results = []
    for form in ("per example", "packed", "packed mean"):
        reset_tape()
        parts = [Tensor(a.copy(), requires_grad=True) for a in logits]
        if form == "packed mean":  # train_step's loss
            loss = T.cross_entropy_with_logits(T.pack(parts), sum(targets, []))
        elif form == "packed":
            loss = mul(T.cross_entropy_with_logits(T.pack(parts), sum(targets, []), reduction="sum"), 1.0 / tokens)
        else:  # the chain before packing: each example's sum, added in order, times 1/tokens
            total = None
            for part, target in zip(parts, targets):
                ce = T.cross_entropy_with_logits(part, target, reduction="sum")
                total = ce if total is None else add(total, ce)
            loss = mul(total, 1.0 / tokens)
        backward(loss)
        results.append(digest(loss.data, np.concatenate([p.grad for p in parts])))
    assert results[0] == results[1] == results[2]


def desk_state():
    stack = StackConfig()
    return ModelState(stack, GbstConfig(embedding_dim=stack.d_model), seed=0)


def mixed_batch():
    """Windows of 3 to 60 bytes: memories of 1 to 26 rows, targets of 3 to 11."""
    text = encode("every segment of a packed pass is the pass over its example alone. ").ids
    return [corrupt_spans(ByteSequence(text[:n]), rng_seed=n) for n in (3, 60, 4, 17, 9, 33)]


def test_packed_pass_gradients_equal_the_per_example_chain():
    batch = mixed_batch()
    grads = []
    for packed in (False, True):
        state = desk_state()
        reset_tape()
        if packed:
            _, logits, targets = teacher_forced_pass(state, batch)
            total = T.cross_entropy_with_logits(logits, targets, reduction="sum")
        else:
            total = None
            for ex in batch:
                _, logits, targets = teacher_forced_pass(state, [ex])
                ce = T.cross_entropy_with_logits(logits, targets, reduction="sum")
                total = ce if total is None else add(total, ce)
        tokens = sum(len(ex.decoder_target.ids) for ex in batch)
        backward(mul(total, 1.0 / tokens))
        grads.append({name: digest(p.grad)[0] for name, p in state.params.items()})
    assert grads[0] == grads[1]


def test_packed_pass_rows_equal_each_example():
    batch = mixed_batch()
    state = desk_state()
    with no_grad():
        memory, logits, targets = teacher_forced_pass(state, batch)
        assert len(T.segments(memory)) == len(T.segments(logits)) == len(batch)
        for ex, (m0, m1), (l0, l1) in zip(batch, T.segments(memory), T.segments(logits)):
            alone, _ = encode_input(state, ex.encoder_input.ids)
            assert digest(memory.data[m0:m1]) == digest(alone.data)
            ref = decode_stack(state, alone, [BOS_ID, *ex.decoder_target.ids[:-1]])
            assert digest(logits.data[l0:l1]) == digest(ref.data)
    assert targets == sum((ex.decoder_target.ids for ex in batch), [])


def test_records_per_step_grow_by_one_prelude_per_example():
    state = desk_state()
    ex = corrupt_spans(ByteSequence(encode("one example's prelude").ids), rng_seed=0)
    reset_tape()
    run_frontend(state, ex.encoder_input.ids)
    T.embedding_gather(state["embedding"], [BOS_ID, *ex.decoder_target.ids[:-1]])
    prelude = len(T.active_tape())
    docs = [encode("the records of a step depend on its batch size only through the prelude " * 3)]
    records = {}
    for batch_size in (8, 32):
        cfg = TrainConfig(batch_size=batch_size, window_len=32, seed=0)
        train_step(state, make_batch(docs, cfg, np.random.default_rng(0)), cfg, make_optimizer(cfg))
        records[batch_size] = len(T.active_tape())
    assert records[32] - records[8] == 24 * prelude
    assert records[8] < 200
