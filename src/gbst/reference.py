"""Naive loop-level reference for the soft tokenization layer.

Everything here is written with explicit per-position loops and shares no
code with the fast path in :mod:`gbst.subword`; the two are compared
element-by-element by the oracle test suite. Keep it slow and obvious.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .subword import GbstConfig


def conv1d_same_reference(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    n, d_in = x.shape
    k, _, d_out = filters.shape
    half = (k - 1) // 2
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = bias[j]
            for t in range(k):
                src = i + t - half
                if 0 <= src < n:
                    for c in range(d_in):
                        acc += x[src, c] * filters[t, c, j]
            out[i, j] = acc
    return out


def _softmax_row(row: list[float]) -> list[float]:
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def _stream_tables(x: np.ndarray, cfg: GbstConfig, scorer: np.ndarray):
    """Per-stream realigned embeddings and scores, built block by block."""
    n, d = x.shape
    realigned = []
    raw_scores = []
    for b, o in cfg.stream_keys():
        # shift left by o, zero-fill the tail, then zero-pad to a multiple of b
        shifted = np.zeros((n, d))
        for i in range(n):
            if i + o < n:
                shifted[i] = x[i + o]
        padded_len = int(math.ceil(n / b)) * b
        padded = np.zeros((padded_len, d))
        padded[:n] = shifted
        n_blocks = padded_len // b
        pooled = np.zeros((n_blocks, d))
        pooled_score = np.zeros(n_blocks)
        for j in range(n_blocks):
            for c in range(d):
                acc = 0.0
                for t in range(b):
                    acc += padded[j * b + t, c]
                pooled[j, c] = acc / b
            s = 0.0
            for c in range(d):
                s += pooled[j, c] * scorer[c, 0]
            pooled_score[j] = s
        stream_emb = np.zeros((n, d))
        stream_score = np.zeros(n)
        for i in range(n):
            stream_emb[i] = pooled[i // b]
            stream_score[i] = pooled_score[i // b]
        realigned.append(stream_emb)
        raw_scores.append(stream_score)
    return realigned, raw_scores


def gbst_forward_reference(
    x: np.ndarray,
    cfg: GbstConfig,
    scorer: np.ndarray,
    conv_filters: np.ndarray | None = None,
    conv_bias: np.ndarray | None = None,
) -> dict:
    """Run the whole layer with loops; returns every intermediate for comparison."""
    x = np.asarray(x, dtype=np.float64)
    if cfg.conv_kernel_size is not None:
        x = conv1d_same_reference(x, conv_filters, conv_bias)
    n, d = x.shape
    realigned, raw_scores = _stream_tables(x, cfg, scorer)
    n_streams = len(realigned)

    raw = np.zeros((n, n_streams))
    for i in range(n):
        for c in range(n_streams):
            raw[i, c] = raw_scores[c][i]
    weights = np.zeros_like(raw)
    for i in range(n):
        weights[i] = _softmax_row(list(raw[i]))

    calibrated = None
    mixing = weights
    if cfg.enable_calibration:
        sim = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for c in range(n_streams):
                    acc += weights[i, c] * weights[j, c]
                sim[i, j] = acc
        attn = np.zeros((n, n))
        for i in range(n):
            attn[i] = _softmax_row(list(sim[i]))
        calibrated = np.zeros_like(weights)
        for i in range(n):
            for c in range(n_streams):
                acc = 0.0
                for j in range(n):
                    acc += attn[i, j] * weights[j, c]
                calibrated[i, c] = acc
        mixing = calibrated

    latent = np.zeros((n, d))
    for i in range(n):
        for c in range(n_streams):
            for e in range(d):
                latent[i, e] += mixing[i, c] * realigned[c][i, e]

    rate = cfg.downsample_rate
    n_down = n // rate
    down = np.zeros((n_down, d))
    for j in range(n_down):
        for e in range(d):
            acc = 0.0
            for t in range(rate):
                acc += latent[j * rate + t, e]
            down[j, e] = acc / rate

    return {
        "raw": raw,
        "weights": weights,
        "calibrated": calibrated,
        "latent": latent,
        "downsampled": down,
    }


def run_oracle_suite(n_instances: int = 1000, seed: int = 0, tolerance: float = 1e-10) -> tuple[float, int]:
    """Compare the fast layer against this reference on random small instances
    (lengths 2..16, widths 1..4, block sizes 1..4), cycling through every
    conv/offsets/calibration combination.

    Returns (worst absolute difference, number of failing instances).
    """
    if n_instances < 1:  # zero instances would pass having compared nothing
        raise ConfigError(f"the oracle suite needs at least one instance, got {n_instances}")
    from .subword import gbst_forward
    from .tensor import Parameter, Tensor, no_grad

    rng = np.random.default_rng(seed)
    combos = [
        (conv, offsets, calibration)
        for conv in (None, 5)
        for offsets in (False, True)
        for calibration in (False, True)
    ]
    worst = 0.0
    failures = 0
    for i in range(n_instances):
        conv_k, offsets, calibration = combos[i % len(combos)]
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        rate = int(rng.integers(1, min(4, n) + 1))
        cfg = GbstConfig(
            embedding_dim=d,
            max_block_size=m,
            downsample_rate=rate,
            conv_kernel_size=conv_k,
            enable_offsets=offsets,
            enable_calibration=calibration,
        )
        x = rng.normal(size=(n, d))
        scorer = rng.normal(size=(d, 1))
        filters = rng.normal(size=(conv_k, d, d)) if conv_k else None
        bias = rng.normal(size=d) if conv_k else None
        params = {"gbst.scorer": Parameter("gbst.scorer", scorer)}
        if conv_k:
            params["gbst.conv_filters"] = Parameter("gbst.conv_filters", filters)
            params["gbst.conv_bias"] = Parameter("gbst.conv_bias", bias)
        with no_grad():
            out = gbst_forward(Tensor(x), cfg, params)
        ref = gbst_forward_reference(x, cfg, scorer, filters, bias)
        diff = max(
            np.abs(out.downsampled.data - ref["downsampled"]).max(),
            np.abs(out.latent.data - ref["latent"]).max(),
            np.abs(out.scores.weights.data - ref["weights"]).max(),
        )
        if cfg.enable_calibration:
            diff = max(diff, np.abs(out.scores.calibrated.data - ref["calibrated"]).max())
        worst = max(worst, float(diff))
        if diff > tolerance:
            failures += 1
    return worst, failures
