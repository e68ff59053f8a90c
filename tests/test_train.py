import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gbst import train
from gbst.bytes_data import ByteSequence, corrupt_spans, encode, load_corpus
from gbst.cli import bundled_corpus_path
from gbst.errors import ConfigError, ShapeError
from gbst.model import ModelState, StackConfig
from gbst.subword import GbstConfig
from gbst.tensor import backward, reset_tape
from gbst.train import (
    EMA_WINDOW,
    Adam,
    TrainConfig,
    TrainingAborted,
    clip_gradients,
    evaluate,
    learning_rate_at,
    make_batch,
    make_optimizer,
    train_loop,
    train_step,
)


def desk_state(seed=0):
    return ModelState(StackConfig(), GbstConfig(embedding_dim=64), seed=seed)


def small_docs():
    return load_corpus(bundled_corpus_path())[:20]


def snapshot(state):
    return {n: p.data.copy() for n, p in state.params.items()}


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()


def test_zero_learning_rate_leaves_state_unchanged():
    state = desk_state()
    before = snapshot(state)
    cfg = TrainConfig(batch_size=2, learning_rate=0.0, schedule="constant", window_len=48)
    batch = make_batch(small_docs(), cfg, np.random.default_rng(0))
    loss = train_step(state, batch, cfg, make_optimizer(cfg))
    assert np.isfinite(loss)
    for name, arr in before.items():
        assert (state.params[name].data == arr).all(), name


def test_freeze_gbst_blocks_updates_and_grads():
    state = desk_state()
    cfg = TrainConfig(batch_size=2, freeze_gbst=True, window_len=48)
    before = {n: p.data.tobytes() for n, p in state.params.items()}
    opt = make_optimizer(cfg)
    docs = small_docs()
    rng = np.random.default_rng(1)
    for _ in range(3):
        train_step(state, make_batch(docs, cfg, rng), cfg, opt)
        for p in state.gbst_parameters():
            assert p.grad is None  # frozen parameters get no gradient
    for p in state.gbst_parameters():
        assert p.data.tobytes() == before[p.name]
    changed = [p.name for p in state.transformer_parameters()
               if p.data.tobytes() != before[p.name]]
    assert len(changed) == len(state.transformer_parameters())


def test_freezing_follows_the_config_of_each_step():
    state = desk_state()
    frozen = TrainConfig(batch_size=1, freeze_gbst=True, window_len=48)
    live = dataclasses.replace(frozen, freeze_gbst=False)
    opt = make_optimizer(frozen)
    docs = small_docs()
    rng = np.random.default_rng(4)
    before = snapshot(state)
    train_step(state, make_batch(docs, frozen, rng), frozen, opt)
    for p in state.gbst_parameters():
        assert (p.data == before[p.name]).all(), p.name
    train_step(state, make_batch(docs, live, rng), live, opt)
    for p in state.gbst_parameters():
        assert (p.data != before[p.name]).any(), p.name


def test_freezing_withholds_only_the_gbst_update():
    # one step only: after it the GBST weights, and so the forward pass, differ
    cfg = TrainConfig(batch_size=2, window_len=48, grad_clip=0.0)
    batch = make_batch(small_docs(), cfg, np.random.default_rng(6))
    before = snapshot(desk_state())
    after = {}
    for freeze in (False, True):
        state = desk_state()
        step_cfg = dataclasses.replace(cfg, freeze_gbst=freeze)
        train_step(state, batch, step_cfg, make_optimizer(step_cfg))
        after[freeze] = snapshot(state)
    for name, frozen in after[True].items():
        if name.startswith("gbst."):
            assert frozen.tobytes() == before[name].tobytes(), name
            assert frozen.tobytes() != after[False][name].tobytes(), name
        else:
            assert frozen.tobytes() == after[False][name].tobytes(), name


def test_training_is_deterministic():
    docs = small_docs()

    def run():
        state = desk_state(seed=5)
        cfg = TrainConfig(batch_size=2, steps=6, seed=5, window_len=48)
        return [r.loss for r in train_loop(state, docs, cfg)]

    assert run() == run()  # bit-for-bit identical loss curves


def test_learning_rate_schedules():
    c = TrainConfig(learning_rate=0.5, schedule="constant")
    assert learning_rate_at(c, 1) == learning_rate_at(c, 999) == 0.5
    s = TrainConfig(learning_rate=1.0, schedule="inverse_sqrt", warmup=100)
    assert learning_rate_at(s, 1) == 1.0 / 10.0  # clamped to warmup
    assert learning_rate_at(s, 400) == 1.0 / 20.0


def test_gradient_clipping_scales_to_max_norm():
    state = desk_state()
    cfg = TrainConfig(batch_size=1, window_len=48, grad_clip=0.0)  # no clipping
    batch = make_batch(small_docs(), cfg, np.random.default_rng(2))
    from gbst.tensor import backward
    from gbst.model import example_loss
    from gbst import tensor as T

    reset_tape()
    state.zero_grads()
    backward(example_loss(state, batch[0]))
    norm = clip_gradients(state.parameters(), 0.5)
    total = sum(float((p.grad ** 2).sum()) for p in state.parameters() if p.grad is not None)
    if norm > 0.5:
        assert abs(np.sqrt(total) - 0.5) < 1e-9


def test_nan_abort_carries_batch():
    state = desk_state()
    state["out_proj"].data[0, 0] = np.inf
    cfg = TrainConfig(batch_size=1, window_len=48)
    batch = make_batch(small_docs(), cfg, np.random.default_rng(3))
    with pytest.raises(TrainingAborted) as info:
        train_step(state, batch, cfg, make_optimizer(cfg))
    assert info.value.batch is batch


def test_empty_batch_rejected():
    with pytest.raises(ShapeError):
        train_step(desk_state(), [], TrainConfig(), Adam())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(schedule="linear")
    with pytest.raises(TypeError):  # Adam is the one optimizer: there is nothing to choose
        TrainConfig(optimizer="adam")
    for seed in (-1, 1.5, True):  # numpy's generators take only non-negative ints
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=seed)


def test_ema_declines_on_short_run():
    state = desk_state(seed=1)
    cfg = TrainConfig(
        batch_size=4, steps=40, seed=1, window_len=64,
        learning_rate=2e-3, schedule="constant",
    )
    records = train_loop(state, small_docs(), cfg)
    assert records[-1].ema < records[4].ema
    assert records[-1].step == 40


def test_evaluate_untrained_near_uniform_and_empty_error():
    state = desk_state(seed=9)
    cfg = TrainConfig(batch_size=4, window_len=64)
    dataset = make_batch(small_docs(), cfg, np.random.default_rng(4))
    metrics = evaluate(state, dataset)
    assert abs(metrics["nats_per_byte"] - np.log(256)) < 0.2
    assert metrics["exact_span_match_rate"] == 0.0
    with pytest.raises(ValueError):
        evaluate(state, [])


def test_evaluate_exact_match_after_tiny_overfit():
    # short target memorizes quickly; exercises the greedy stop-by-span-count
    ex = corrupt_spans(encode("abcdefghij"), corruption_rate=0.3, mean_span=3.0, rng_seed=0)
    state = desk_state(seed=2)
    cfg = TrainConfig(batch_size=1, learning_rate=3e-3, schedule="constant")
    opt = make_optimizer(cfg)
    for _ in range(400):
        if train_step(state, [ex], cfg, opt) < 0.005:
            break
    assert evaluate(state, [ex])["exact_span_match_rate"] == 1.0


@pytest.mark.parametrize(
    "stack, gbst, batch_size, window, forward_mb",
    [
        (StackConfig(), GbstConfig(embedding_dim=64), 2, 64, 2.6),
        (StackConfig(frontend="identity"), None, 1, 256, 7.5),
    ],
    ids=["desk", "identity_256"],
)
def test_backward_memory_stays_within_the_forward(stack, gbst, batch_size, window, forward_mb, monkeypatch):
    # the forward holds only the arrays that backward rules read (an op
    # output that no rule reads dies once its caller drops it); backward
    # frees each record once its rule has run, so its peak is about the
    # larger of those arrays and the gradients it makes; and train_step holds
    # no activation of its own through backward, so backward leaves little
    # more than the gradients
    state = ModelState(stack, gbst, seed=0)
    docs = [ByteSequence([i for doc in small_docs() for i in doc.ids])]
    cfg = TrainConfig(batch_size=batch_size, window_len=window)
    batch = make_batch(docs, cfg, np.random.default_rng(0))
    grads = sum(p.data.nbytes for p in state.parameters())
    opt = make_optimizer(cfg)
    # an untraced step first: the first step fills CPython's tuple and list
    # free lists and numpy's small-buffer cache, which tracemalloc counts as
    # held although nothing holds them
    train_step(state, batch, cfg, opt)
    state.zero_grads()
    seen = {}

    def traced_backward(loss):
        seen["forward"] = tracemalloc.get_traced_memory()[0] - seen["base"]
        tracemalloc.reset_peak()
        backward(loss)
        seen["held"], seen["peak"] = (m - seen["base"] for m in tracemalloc.get_traced_memory())

    monkeypatch.setattr(train, "backward", traced_backward)
    tracemalloc.start()
    try:
        seen["base"] = tracemalloc.get_traced_memory()[0]
        train_step(state, batch, cfg, opt)
    finally:
        tracemalloc.stop()
    assert seen["forward"] <= forward_mb * 1e6
    bound = max(seen["forward"], grads)
    assert seen["peak"] <= 1.25 * bound
    assert seen["held"] <= grads + 0.01 * bound


LONG_BYTES_STEP = """
import hashlib, os, sys, threading
if sys.argv[1] == "one_cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from gbst.bytes_data import ByteSequence, load_corpus
from gbst.cli import bundled_corpus_path
from gbst.model import ModelState, StackConfig
from gbst.train import TrainConfig, train_loop
ids = [b for doc in load_corpus(bundled_corpus_path()) for b in [10] + doc.ids]
state = ModelState(StackConfig(frontend="identity", max_positions=1024), None, seed=0)
train_loop(state, [ByteSequence(ids)], TrainConfig(batch_size=1, window_len=1024, steps=1, seed=0))
h = hashlib.sha256()
for name, p in state.params.items():
    h.update(name.encode() + p.data.tobytes())
print(h.hexdigest(), threading.active_count())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_long_bytes_step_bits_do_not_depend_on_blas_threads_or_cpus():
    # at L = 1024 attention's products are not round sizes, which OpenBLAS
    # splits differently at 2 threads; gbst sets one thread at import, and
    # its lane exists only with two CPUs and never splits a product
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    results = {}
    for case, threads in (("blas1", "1"), ("blas2", "2"), ("one_cpu", None)):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", LONG_BYTES_STEP, case], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        results[case] = proc.stdout.split()
    assert results["blas1"][0] == results["blas2"][0] == results["one_cpu"][0]
    assert results["one_cpu"][1] == "1"  # one CPU: no lane thread
