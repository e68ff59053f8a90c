"""The traced benchmark wraps gbst attributes by name; keep those names alive.

``perfbench/tracing.py`` patches the functions listed in its ``_SPANS`` on
their modules. A rename, or a call that bypasses the module attribute, would
leave ``--trace 1`` reporting nothing for that layer or GBST stage.
"""

import importlib.util
import os

import numpy as np
import pytest

from gbst.model import ModelState, StackConfig, sequence_loss
from gbst.subword import GbstConfig
from gbst.tensor import reset_tape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    stack = StackConfig(encoder_layers=1, decoder_layers=1, d_model=8, heads=2, head_dim=4,
                        ffn_dim=16, frontend="gbst", max_positions=64)
    gbst = GbstConfig(embedding_dim=8, enable_calibration=True)
    state = ModelState(stack, gbst, seed=0)
    reset_tape()
    sequence_loss(state, list(range(65, 81)), [66, 67, 68])
    reset_tape()
    assert calls == {key: 1 for _, _, key in tracing._SPANS}
