import statistics

import numpy as np
import pytest

from gbst.errors import ConfigError
from gbst.flops import CostReport, benchmark_steps, count_flops, default_target_len
from gbst.model import ModelState, StackConfig
from gbst.subword import GbstConfig
from gbst.train import TrainConfig

DESK = StackConfig()


def gbst_cfg(rate=2, **kw):
    return GbstConfig(embedding_dim=DESK.d_model, downsample_rate=rate, **kw)


def test_breakdown_sums_to_total():
    for frontend, cfg in (("gbst", gbst_cfg(enable_calibration=True)), ("identity", None)):
        stack = StackConfig(frontend=frontend)
        report = count_flops(stack, cfg, 256)
        assert sum(report.breakdown.values()) == report.flops_forward


def test_quadratic_attention_term_ratio_is_four():
    r1 = count_flops(DESK, gbst_cfg(rate=1), 4096)
    r2 = count_flops(DESK, gbst_cfg(rate=2), 4096)
    quad_ratio = r1.breakdown["encoder.attention_quadratic"] / r2.breakdown[
        "encoder.attention_quadratic"
    ]
    assert abs(quad_ratio - 4.0) < 1e-9
    enc_terms = ("encoder.attention_linear", "encoder.attention_quadratic", "encoder.ffn")
    enc1 = sum(r1.breakdown[t] for t in enc_terms)
    enc2 = sum(r2.breakdown[t] for t in enc_terms)
    assert 2.0 < enc1 / enc2 < 4.0


def test_zero_layer_stack_counts_gbst_only():
    stack = StackConfig(encoder_layers=0, decoder_layers=0)
    report = count_flops(stack, gbst_cfg(), 128)
    assert set(report.breakdown) <= {"gbst.conv", "gbst.pooling", "gbst.scoring", "gbst.mixing"}
    assert all(v == 0 for k, v in report.breakdown.items() if not k.startswith("gbst."))


def test_desk_ratio_downsample_two_vs_identity():
    identity = count_flops(StackConfig(frontend="identity"), None, 1024)
    downsampled = count_flops(DESK, gbst_cfg(rate=2), 1024)
    ratio = identity.flops_forward / downsampled.flops_forward
    assert 1.5 <= ratio <= 2.5


def test_monotonicity():
    base = count_flops(DESK, gbst_cfg(), 512).flops_forward
    assert count_flops(DESK, gbst_cfg(), 1024).flops_forward > base
    deeper = StackConfig(encoder_layers=4, decoder_layers=4)
    assert count_flops(deeper, gbst_cfg(), 512).flops_forward > base
    wider = StackConfig(d_model=128, head_dim=32)
    assert count_flops(wider, GbstConfig(embedding_dim=128), 512).flops_forward > base
    fatter = StackConfig(ffn_dim=512)
    assert count_flops(fatter, gbst_cfg(), 512).flops_forward > base
    # strictly decreasing in the downsample rate while floors differ
    totals = [count_flops(DESK, gbst_cfg(rate=r), 1024).flops_forward for r in (1, 2, 3, 4)]
    assert totals == sorted(totals, reverse=True)
    assert len(set(totals)) == 4


def test_param_count_matches_model():
    stack = StackConfig()
    cfg = gbst_cfg()
    report = count_flops(stack, cfg, 64)
    assert report.params == sum(p.data.size for p in ModelState(stack, cfg, seed=0).parameters())


def test_default_target_len():
    assert default_target_len(1024) == 154 + 8 + 1
    assert default_target_len(8) == 1 + 1 + 1


def test_machine_lines_format():
    report = count_flops(DESK, gbst_cfg(), 128)
    lines = report.machine_lines().strip().split("\n")
    assert lines[-1].startswith("total\t")
    for line in lines:
        name, flops = line.split("\t")
        assert flops.isdigit()


def test_benchmark_requires_ten_steps():
    state = ModelState(DESK, gbst_cfg(), seed=0)
    with pytest.raises(ConfigError):
        benchmark_steps(state, TrainConfig(batch_size=1), 5)


def test_benchmark_repeatable_and_reports_memory():
    # small sequence keeps this fast; the +-20% bound is on the median
    cfg = TrainConfig(batch_size=1, window_len=96)

    def run():
        state = ModelState(DESK, gbst_cfg(), seed=0)
        return benchmark_steps(state, cfg, 10, seq_len=96)

    run()  # prime allocator and BLAS before comparing timings
    # a's and b's runs alternate, so that both medians see the same phases of the host's speed
    a_runs, b_runs = [], []
    for _ in range(3):
        a_runs.append(run())
        b_runs.append(run())
    a, b = (statistics.median(r.steps_per_second for r in runs) for runs in (a_runs, b_runs))
    assert all(r.steps_per_second > 0 for r in a_runs + b_runs)
    assert abs(a - b) / a < 0.2
    assert a_runs[0].peak_alloc_bytes > 0
    assert a_runs[0].flops_forward == count_flops(DESK, gbst_cfg(), 96).flops_forward
