"""The traced benchmark wraps gbst attributes by name; keep those names alive.

``perfbench/tracing.py`` patches the functions listed in its ``_SPANS`` on
their modules, and the training hooks of ``gbst.train`` plus the optimizer's
``step``; its ``model.decode_stack_calls_per_byte`` counts the calls that
greedy decoding makes to ``gbst.model.decode_stack``. A rename, or a call
that bypasses the module attribute, would leave ``--trace 1`` reporting
nothing (or 0 ms) for that layer, GBST stage or hook.
"""

import importlib.util
import os

import numpy as np
import pytest

from gbst import model as M
from gbst import train as TR
from gbst.bytes_data import corrupt_spans, encode
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
    cfg = TR.TrainConfig(batch_size=1, steps=1, window_len=32, optimizer="adam")
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
