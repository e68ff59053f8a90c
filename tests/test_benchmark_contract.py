"""The traced benchmark wraps gbst attributes by name; keep those names alive.

``perfbench/tracing.py`` patches the functions listed in its ``_SPANS`` on
their modules, and the training hooks of ``gbst.train`` plus the optimizer's
``step``; its ``model.decode_stack_calls_per_byte`` counts the calls that
greedy decoding makes to ``gbst.model.decode_stack``. A rename, or a call
that bypasses the module attribute, would leave ``--trace 1`` reporting
nothing (or 0 ms) for that layer, GBST stage or hook.

The tape records of a training step and the ops of a cached greedy byte
depend on the model's configs and the batch size, not on the host, so they
are pinned here on the benchmark's configs.
"""

import importlib.util
import os

import numpy as np
import pytest

from gbst import model as M
from gbst import tensor as T
from gbst import train as TR
from gbst.bytes_data import corrupt_spans, encode, load_corpus
from gbst.cli import bundled_corpus_path
from gbst.model import ModelState, StackConfig, example_loss
from gbst.subword import GbstConfig
from gbst.tensor import no_grad, reset_tape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_state():
    stack = StackConfig(encoder_layers=1, decoder_layers=1, d_model=8, heads=2, head_dim=4,
                        ffn_dim=16, frontend="gbst", max_positions=64)
    return ModelState(stack, GbstConfig(embedding_dim=8, enable_calibration=True), seed=0)


@pytest.fixture(scope="module")
def tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_exist(tracing):
    for module, attr, _ in tracing._SPANS:
        assert module.__name__.startswith("gbst.")
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_spans_are_called_through_their_modules(tracing, monkeypatch):
    calls = {}
    for module, attr, key in tracing._SPANS:
        original = getattr(module, attr)

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    state = tiny_state()
    reset_tape()
    example_loss(state, corrupt_spans(encode("ABCDEFGHIJKLMNOP"), rng_seed=0))
    reset_tape()
    assert calls == {key: 1 for _, _, key in tracing._SPANS}


def test_training_hooks_are_called_through_gbst_train(monkeypatch):
    # the optimizer is built inside train_loop, so its step is patched on the class
    hooks = [(TR, "train_step"), (TR, "backward"), (TR, "clip_gradients"), (TR, "make_batch"),
             (TR.Adam, "step")]
    calls = {}
    for owner, attr in hooks:
        original = getattr(owner, attr)

        def counted(*args, _key=attr, _original=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    cfg = TR.TrainConfig(batch_size=1, steps=1, window_len=32)
    TR.train_loop(tiny_state(), [encode("the contract covers the training hooks too")], cfg)
    assert calls == {attr: 1 for _, attr in hooks}


def test_greedy_decode_calls_decode_stack_through_the_module_once_per_byte(monkeypatch):
    positions = []
    original = M.decode_stack

    def counted(state, memory, dec_input_ids, *args, **kwargs):
        positions.append(len(dec_input_ids))
        return original(state, memory, dec_input_ids, *args, **kwargs)

    monkeypatch.setattr(M, "decode_stack", counted)
    state = tiny_state()
    with no_grad():
        memory, _ = M.encode_input(state, list(range(65, 81)))
    emitted = M.greedy_decode(state, memory, max_len=12).ids
    assert len(emitted) == 12
    assert positions == [1] * 12


DESK_GBST = GbstConfig(embedding_dim=64)
# the benchmark's training configs and the records of one step of each:
# name -> (stack, gbst, batch size, window length, records)
RECORDS = {
    "desk_pretrain": (StackConfig(), DESK_GBST, 8, 128, 106),
    "desk_batch1": (StackConfig(), DESK_GBST, 1, 128, 55),
    "desk_batch32": (StackConfig(), DESK_GBST, 32, 128, 274),
    "long_gbst": (
        StackConfig(max_positions=512),
        GbstConfig(embedding_dim=64, downsample_rate=4, enable_offsets=True, enable_calibration=True),
        1, 1024, 56,
    ),
    "long_bytes": (StackConfig(frontend="identity", max_positions=1024), None, 1, 1024, 50),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_per_training_step_are_pinned(name):
    # a step's records are those of its taped forward and loss: backward adds none
    stack, gbst, batch_size, window, records = RECORDS[name]
    state = ModelState(stack, gbst, seed=0)
    cfg = TR.TrainConfig(batch_size=batch_size, window_len=window, seed=0)
    batch = TR.make_batch(load_corpus(bundled_corpus_path()), cfg, np.random.default_rng(0))
    reset_tape()
    logits, targets = M.teacher_forced_pass(state, batch)[1:]
    T.cross_entropy_with_logits(logits, targets)
    assert len(T.active_tape()) == records
    reset_tape()


def test_ops_per_cached_greedy_byte_are_pinned(monkeypatch):
    # every decode_stack step after the first, which also projects the
    # memory's keys and values, runs the same ops
    state = ModelState(StackConfig(), DESK_GBST, seed=0)
    record, ops = T._record, []

    def counted(*args, **kwargs):
        ops[-1] += 1
        return record(*args, **kwargs)

    with no_grad():
        memory, _ = M.encode_input(state, load_corpus(bundled_corpus_path())[0].ids[:512])
        monkeypatch.setattr(T, "_record", counted)
        cache, nxt = M.KVCache(), M.BOS_ID
        for _ in range(4):
            ops.append(0)
            nxt = int(np.argmax(M.decode_stack(state, memory, [nxt], cache=cache).data[-1]))
    assert ops[0] > ops[1]
    assert ops[1:] == [27] * 3
