"""Span-corruption training loop with Adam, LR schedules, and freezing.

One optimizer step at a time, single tape, deterministic per seed: batches
are drawn from a generator seeded once per run, examples are processed in
order, and gradient accumulation order is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .bytes_data import ByteSequence, SpanCorruptionExample, corrupt_spans, format_example
from .errors import ConfigError, NonFiniteError, ShapeError, check_int_fields
from .model import ModelState, greedy_decode, teacher_forced_pass
from .tensor import Parameter, Tensor, backward, no_grad, reset_tape

EMA_WINDOW = 100


class TrainingAborted(RuntimeError):
    """Raised when a step produced NaN/Inf; carries the offending batch."""

    def __init__(self, message: str, batch: list[SpanCorruptionExample]):
        super().__init__(message)
        self.batch = batch


@dataclass
class TrainConfig:
    batch_size: int = 8
    steps: int = 500
    learning_rate: float = 0.1
    schedule: str = "inverse_sqrt"
    warmup: int = 100
    seed: int = 0
    freeze_gbst: bool = False
    grad_clip: float = 1.0
    corruption_rate: float = 0.15
    mean_span: float = 20.0
    window_len: int = 128
    checkpoint_every: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if self.schedule not in ("constant", "inverse_sqrt"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        rules = {
            "batch_size": (self.batch_size >= 1, ">= 1"),
            "steps": (self.steps >= 0, ">= 0"),
            "learning_rate": (0.0 <= self.learning_rate < math.inf, "finite and >= 0"),  # nan fails
            "warmup": (self.warmup >= 0, ">= 0"),
            "seed": (self.seed >= 0, ">= 0"),  # numpy's generators take no negative seed
            "grad_clip": (self.grad_clip >= 0, ">= 0"),
            "checkpoint_every": (self.checkpoint_every >= 0, ">= 0"),
            "window_len": (self.window_len >= 1, ">= 1"),
            "corruption_rate": (0.0 < self.corruption_rate < 1.0, "in (0, 1)"),
            "mean_span": (self.mean_span >= 1.0, ">= 1"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def learning_rate_at(cfg: TrainConfig, step: int) -> float:
    if cfg.schedule == "constant":
        return cfg.learning_rate
    return cfg.learning_rate / math.sqrt(max(step, cfg.warmup))


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: list[Parameter], lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in params:
            if p.grad is None:
                continue
            if p.name not in self.m:  # the moments are allocated on first use only
                self.m[p.name] = np.zeros_like(p.data)
                self.v[p.name] = np.zeros_like(p.data)
            m, v = self.m[p.name], self.v[p.name]
            m += (1.0 - self.beta1) * (p.grad - m)
            v += (1.0 - self.beta2) * (p.grad * p.grad - v)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def make_optimizer(cfg: TrainConfig) -> Adam:
    return Adam()


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                np.multiply(p.grad, scale, out=p.grad)
    return norm


def sample_example(
    docs: list[ByteSequence], cfg: TrainConfig, rng: np.random.Generator
) -> SpanCorruptionExample:
    """Random window of a random document, span-corrupted with a derived seed."""
    doc = docs[int(rng.integers(len(docs)))]
    ids = doc.ids
    if len(ids) > cfg.window_len:
        start = int(rng.integers(len(ids) - cfg.window_len + 1))
        ids = ids[start : start + cfg.window_len]
    seed = int(rng.integers(2 ** 31))
    return corrupt_spans(
        ByteSequence(list(ids)),
        corruption_rate=cfg.corruption_rate,
        mean_span=cfg.mean_span,
        rng_seed=seed,
    )


def make_batch(
    docs: list[ByteSequence], cfg: TrainConfig, rng: np.random.Generator
) -> list[SpanCorruptionExample]:
    return [sample_example(docs, cfg, rng) for _ in range(cfg.batch_size)]


def train_step(
    state: ModelState, batch: list[SpanCorruptionExample], cfg: TrainConfig, opt
) -> float:
    """One optimizer step on the mean per-token cross entropy of the batch.

    The batch runs as one packed ``teacher_forced_pass``: its encoder and
    decoder stacks and its loss run once over the rows of every example.
    The loss adds the examples' cross-entropy sums in batch order and its
    mean multiplies the total by 1/tokens, as its backward scales the
    gradient; each weight gradient adds its examples' terms in reverse
    order. So a step has the bits of a tape of one loss per example.
    """
    if not batch:
        raise ShapeError("batch must be non-empty")
    reset_tape()
    state.zero_grads()
    for p in state.gbst_parameters():
        p.requires_grad = not cfg.freeze_gbst
    lr = learning_rate_at(cfg, state.step + 1)
    try:
        logits, targets = teacher_forced_pass(state, batch)[1:]
        loss = T.cross_entropy_with_logits(logits, targets)
        del logits  # held by the tape alone, it and its gradient go once their rules have run
        backward(loss)
    except NonFiniteError as err:
        raise TrainingAborted(f"non-finite value during step {state.step + 1}: {err}", batch)
    clip_gradients(state.parameters(), cfg.grad_clip)
    opt.step(state.parameters(), lr)
    state.step += 1
    return float(loss.data)


@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    ema: float


def train_loop(
    state: ModelState,
    docs: list[ByteSequence],
    cfg: TrainConfig,
    log_fn=None,
    checkpoint_fn=None,
) -> list[StepRecord]:
    """Run cfg.steps optimizer steps; emits `step<TAB>loss<TAB>lr` records."""
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg)
    records: list[StepRecord] = []
    ema = None
    for _ in range(cfg.steps):
        batch = make_batch(docs, cfg, rng)
        lr = learning_rate_at(cfg, state.step + 1)
        loss = train_step(state, batch, cfg, opt)
        ema = loss if ema is None else ema + (loss - ema) / EMA_WINDOW
        rec = StepRecord(step=state.step, loss=loss, lr=lr, ema=ema)
        records.append(rec)
        if log_fn is not None:
            log_fn(f"{rec.step}\t{rec.loss:.10g}\t{rec.lr:.10g}")
        if checkpoint_fn is not None and cfg.checkpoint_every > 0 and state.step % cfg.checkpoint_every == 0:
            checkpoint_fn(state)
    return records


def dump_batch(batch: list[SpanCorruptionExample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in batch:
            fh.write(format_example(ex) + "\n")


def evaluate(state: ModelState, dataset: list[SpanCorruptionExample]) -> dict[str, float]:
    """Deterministic held-out metrics: teacher-forced nats per target byte,
    from one packed pass over the dataset, and the fraction of examples whose
    greedy decode, example by example, matches the target exactly."""
    if not dataset:
        raise ValueError("evaluate requires a non-empty dataset")
    hits = 0
    with no_grad():
        memory, logits, targets = teacher_forced_pass(state, dataset)
        # the examples' sums, added in order
        total_ce = float(T.cross_entropy_with_logits(logits, targets, reduction="sum").data)
        for ex, (start, stop) in zip(dataset, T.segments(memory)):
            tgt = ex.decoder_target.ids
            gen = greedy_decode(
                state, Tensor(memory.data[start:stop]), max_len=len(tgt) + 8, stop_after_spans=ex.span_count
            )
            if gen.ids == list(tgt):
                hits += 1
    return {
        "nats_per_byte": total_ce / len(targets),
        "exact_span_match_rate": hits / len(dataset),
    }
