"""Analytic forward-pass FLOP counts and measured training-step timing.

Convention: one multiply-add counts as 2 FLOPs. The closed-form formula of
every term is written out in ``count_flops``, one ``bd[...]`` line per term;
softmax and normalization are not counted separately. Absolute numbers are
convention-bound; only ratios between configurations of this artifact are
meaningful.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .bytes_data import ByteSequence
from .errors import ConfigError
from .model import ModelState, StackConfig, parameter_specs
from .subword import GbstConfig
from .train import TrainConfig, make_batch, make_optimizer, train_step


@dataclass
class CostReport:
    params: int
    flops_forward: int
    breakdown: dict[str, int]
    steps_per_second: float | None = None
    peak_alloc_bytes: int | None = None

    def machine_lines(self) -> str:
        lines = [f"{name}\t{flops}" for name, flops in self.breakdown.items()]
        lines.append(f"total\t{self.flops_forward}")
        return "\n".join(lines) + "\n"


def default_target_len(seq_len: int) -> int:
    """Target length of a span-corrupted ``seq_len`` window at TrainConfig's defaults."""
    corrupted = max(1, round(TrainConfig.corruption_rate * seq_len))
    spans = max(1, round(corrupted / TrainConfig.mean_span))
    return corrupted + spans + 1


def count_flops(
    stack: StackConfig,
    gbst: GbstConfig | None,
    seq_len: int,
    target_len: int | None = None,
) -> CostReport:
    """Closed-form forward FLOPs per example at byte length ``seq_len``.

    Encoder terms use the downsampled length L' = floor(L / d_s) when the
    gbst frontend is active. The decoder terms count one teacher-forced pass
    over the span-corruption target length, as in training. The formula of
    each term is its ``bd[...]`` assignment below.
    """
    d, f = stack.d_model, stack.ffn_dim
    L = seq_len
    bd: dict[str, int] = {}
    if stack.frontend == "gbst":
        if gbst is None:
            raise ConfigError("gbst frontend needs a GbstConfig")
        if L < gbst.downsample_rate:
            raise ConfigError("seq_len shorter than the downsample rate")
        C = len(gbst.stream_keys())
        if gbst.conv_kernel_size is not None:
            bd["gbst.conv"] = 2 * L * gbst.conv_kernel_size * d * d
        bd["gbst.pooling"] = C * L * d
        bd["gbst.scoring"] = 2 * C * L * d
        bd["gbst.mixing"] = 2 * L * C * d
        if gbst.enable_calibration:
            bd["gbst.calibration"] = 2 * L * L * C + L * L * C
        Lp = L // gbst.downsample_rate
    else:
        Lp = L
    T_len = default_target_len(seq_len) if target_len is None else target_len
    el, dl = stack.encoder_layers, stack.decoder_layers
    # the projection term is linear in L', the score/mix term quadratic;
    # kept separate so downsampling ratios can be read off per term
    bd["encoder.attention_linear"] = el * 8 * Lp * d * d
    bd["encoder.attention_quadratic"] = el * 4 * Lp * Lp * d
    bd["encoder.ffn"] = el * 4 * Lp * d * f
    bd["decoder.self_attention"] = dl * (8 * T_len * d * d + 4 * T_len * T_len * d)
    bd["decoder.cross_attention"] = dl * (8 * T_len * d * d + 4 * T_len * Lp * d)
    bd["decoder.ffn"] = dl * 4 * T_len * d * f
    bd = {name: flops for name, flops in bd.items() if flops}
    total = sum(bd.values())
    params = sum(
        int(np.prod(shape)) for shape, _, _ in parameter_specs(stack, gbst).values()
    )
    return CostReport(params=params, flops_forward=total, breakdown=bd)


def check_bench_steps(n_steps: int) -> None:
    """Refuse a timed step count too small for a stable median."""
    if n_steps < 10:
        raise ConfigError(f"benchmark needs n_steps >= 10, got {n_steps}")


def benchmark_steps(
    state: ModelState,
    cfg: TrainConfig,
    n_steps: int,
    seq_len: int | None = None,
) -> CostReport:
    """Median steps/s over ``n_steps`` timed training steps after 3 warmup
    steps, on deterministic synthetic byte data. Peak allocation is taken
    from one extra step traced separately so tracing never skews the timing.
    Needs exclusive CPU access for stable numbers.
    """
    check_bench_steps(n_steps)
    L = seq_len if seq_len is not None else cfg.window_len
    cfg_local = TrainConfig(**{**cfg.__dict__, "window_len": L, "steps": 0})
    rng = np.random.default_rng(1234)
    docs = [ByteSequence(list(rng.integers(0, 256, size=4 * L + 16)))]
    opt = make_optimizer(cfg_local)
    batch_rng = np.random.default_rng(cfg_local.seed)
    durations = []
    for i in range(3 + n_steps):
        batch = make_batch(docs, cfg_local, batch_rng)
        t0 = time.perf_counter()
        train_step(state, batch, cfg_local, opt)
        durations.append(time.perf_counter() - t0)
    median = statistics.median(durations[3:])
    tracemalloc.start()
    batch = make_batch(docs, cfg_local, batch_rng)
    train_step(state, batch, cfg_local, opt)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    analytic = count_flops(state.stack, state.gbst, L)
    return CostReport(
        params=analytic.params,
        flops_forward=analytic.flops_forward,
        breakdown=analytic.breakdown,
        steps_per_second=1.0 / median,
        peak_alloc_bytes=int(peak),
    )
