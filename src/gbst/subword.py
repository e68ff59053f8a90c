"""Gradient-based soft subword tokenization over byte embeddings.

The layer enumerates candidate blocks of every size up to a maximum, pools
each block to one embedding, scores candidates position-wise with a bias-free
linear map, mixes them under a per-position softmax, optionally lets the
score distributions attend to each other, and mean-pools the result down by
a fixed rate. Everything is differentiable end to end.

Pipeline per block size b (and per offset o when offsets are enabled):

    shift left by o -> pad rows to a multiple of b -> mean-pool(b, b)
    -> replicate each pooled row b times -> cut/zero-fill back to length L

Scores are computed on the pooled candidates and then replicated, which is
equivalent to scoring the replicated rows because the scorer is linear.
Trailing rows that exist only because of zero padding keep their padded
values and participate in the softmax like any other candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Parameter, Tensor


@dataclass
class GbstConfig:
    """Hyperparameters of the soft tokenization layer."""

    embedding_dim: int
    max_block_size: int = 4
    downsample_rate: int = 2
    conv_kernel_size: int | None = 5
    enable_offsets: bool = False
    enable_calibration: bool = False
    pooling: str = "mean"

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if self.max_block_size < 1:
            raise ConfigError("max_block_size must be >= 1")
        if self.downsample_rate < 1:
            raise ConfigError("downsample_rate must be >= 1")
        if self.conv_kernel_size is not None:
            if self.conv_kernel_size < 1 or self.conv_kernel_size % 2 == 0:
                raise ConfigError(
                    f"conv_kernel_size must be odd and >= 1, got {self.conv_kernel_size}"
                )
        if self.pooling != "mean":
            raise ConfigError(f"unsupported pooling {self.pooling!r}")

    def stream_keys(self) -> list[tuple[int, int]]:
        """(block size, offset) pairs in candidate order."""
        keys = []
        for b in range(1, self.max_block_size + 1):
            offsets = range(b) if self.enable_offsets else (0,)
            for o in offsets:
                keys.append((b, o))
        return keys

    def stream_count(self) -> int:
        return len(self.stream_keys())

    def stream_labels(self) -> list[str]:
        return [_label(b, o) for b, o in self.stream_keys()]


def _label(b: int, o: int) -> str:
    return f"b={b}" if o == 0 else f"b={b},o={o}"


@dataclass
class BlockCandidateSet:
    """One candidate stream: pooled blocks plus their length-L realignment."""

    block_size: int
    offset: int
    pooled: Tensor
    realigned: Tensor
    realigned_scores: Tensor | None = None

    @property
    def label(self) -> str:
        return _label(self.block_size, self.offset)


@dataclass
class ScoreMatrix:
    """Pre-softmax scores, softmax weights, and (optionally) calibrated weights."""

    raw: Tensor
    weights: Tensor
    labels: list[str]
    calibrated: Tensor | None = None

    def mixing_weights(self) -> Tensor:
        return self.calibrated if self.calibrated is not None else self.weights


@dataclass
class GbstOutput:
    latent: Tensor
    downsampled: Tensor
    scores: ScoreMatrix


@dataclass
class GbstParams:
    """Trainable pieces of the layer: optional conv, and the block scorer."""

    scorer: Parameter
    conv_filters: Parameter | None = None
    conv_bias: Parameter | None = None

    def parameters(self) -> list[Parameter]:
        out = [self.scorer]
        if self.conv_filters is not None:
            out.append(self.conv_filters)
        if self.conv_bias is not None:
            out.append(self.conv_bias)
        return out

    def set_frozen(self, flag: bool) -> None:
        for p in self.parameters():
            p.frozen = flag


def init_gbst_params(cfg: GbstConfig, rng: np.random.Generator, prefix: str = "gbst.") -> GbstParams:
    d = cfg.embedding_dim
    scorer = Parameter(prefix + "scorer", rng.normal(0.0, d ** -0.5, size=(d, 1)))
    filters = bias = None
    if cfg.conv_kernel_size is not None:
        k = cfg.conv_kernel_size
        filters = Parameter(
            prefix + "conv_filters", rng.normal(0.0, (k * d) ** -0.5, size=(k, d, d))
        )
        bias = Parameter(prefix + "conv_bias", np.zeros(d))
    return GbstParams(scorer=scorer, conv_filters=filters, conv_bias=bias)


def _tensor(x) -> Tensor:
    return x.tensor if isinstance(x, Parameter) else x


def pad_to_multiple(x: Tensor, b: int) -> Tensor:
    """Zero-pad rows so the length is the smallest multiple of b >= L."""
    if b < 1:
        raise ConfigError(f"block size must be >= 1, got {b}")
    n = x.shape[0]
    target = -(-n // b) * b
    if target == n:
        return x
    return T.pad_rows(x, 0, target - n)


def _fit_rows(x: Tensor, length: int) -> Tensor:
    """Zero-fill up to ``length`` if short, then cut back to exactly ``length``."""
    n = x.shape[0]
    if n < length:
        x = T.pad_rows(x, 0, length - n)
        n = length
    if n > length:
        x = T.slice_rows(x, 0, length)
    return x


def enumerate_blocks(x: Tensor, cfg: GbstConfig) -> list[BlockCandidateSet]:
    """Build every candidate stream for block sizes 1..M (and offsets if enabled).

    An offset-o stream drops the first o rows and zero-pads the tail before
    running the same pool/replicate pipeline, so each (b, o) pair enters the
    position-wise softmax as an independent candidate.
    """
    n = x.shape[0]
    if n < 1:
        raise ShapeError("input must have at least one row")
    out = []
    for b, o in cfg.stream_keys():
        # an offset at or beyond the length shifts everything out: zero stream
        cut = min(o, n)
        shifted = x if o == 0 else T.pad_rows(T.slice_rows(x, cut, n), 0, cut)
        padded = pad_to_multiple(shifted, b)
        pooled = T.mean_pool_1d(padded, b, b)
        realigned = _fit_rows(T.repeat_upsample(pooled, b), n)
        out.append(BlockCandidateSet(b, o, pooled, realigned))
    return out


def score_blocks(candidates: list[BlockCandidateSet], scorer) -> ScoreMatrix:
    """Score every candidate stream and softmax across streams per position.

    Scores are computed on the pooled (pre-replication) blocks and then
    replicated; for the linear scorer this equals scoring the replicated rows.
    """
    w = _tensor(scorer)
    d = candidates[0].pooled.shape[1]
    if w.shape != (d, 1):
        raise ShapeError(f"scorer must have shape ({d}, 1), got {w.shape}")
    n = candidates[0].realigned.shape[0]
    cols = []
    for c in candidates:
        if c.realigned.shape[0] != n:
            raise ShapeError("candidate streams disagree on sequence length")
        col = _fit_rows(T.repeat_upsample(T.matmul(c.pooled, w), c.block_size), n)
        c.realigned_scores = col
        cols.append(col)
    raw = cols[0] if len(cols) == 1 else T.concat_last_axis(cols)
    weights = T.softmax_last_axis(raw)
    return ScoreMatrix(raw=raw, weights=weights, labels=[c.label for c in candidates])


def calibrate_scores(weights: Tensor) -> Tensor:
    """Let positions' block distributions inform each other:
    projection-free self-attention over the score rows, softmax(P P^T) P."""
    rows = weights.data.sum(axis=-1)
    if rows.size and np.abs(rows - 1.0).max() > 1e-6:
        raise ShapeError("calibration input rows must sum to 1")
    attn = T.softmax_last_axis(T.matmul(weights, T.transpose_2d(weights)))
    return T.matmul(attn, weights)


def form_latent(candidates: list[BlockCandidateSet], weights: Tensor) -> Tensor:
    """Per-position convex mixture of the realigned candidate embeddings."""
    c_count = weights.shape[1]
    if c_count != len(candidates):
        raise ShapeError(
            f"weights have {c_count} streams but {len(candidates)} candidates given"
        )
    acc = None
    for i, cand in enumerate(candidates):
        col = T.slice_cols(weights, i, i + 1)
        term = T.mul(cand.realigned, col)
        acc = term if acc is None else T.add(acc, term)
    return acc


def downsample(latent: Tensor, rate: int) -> Tensor:
    """Fixed mean-pool by ``rate``; trailing remainder rows are dropped."""
    if rate < 1:
        raise ConfigError(f"downsample rate must be >= 1, got {rate}")
    if latent.shape[0] < rate:
        raise ShapeError(
            f"sequence length {latent.shape[0]} < downsample rate {rate}: empty output"
        )
    return T.mean_pool_1d(latent, rate, rate)


def gbst_forward(x: Tensor, cfg: GbstConfig, params: GbstParams) -> GbstOutput:
    """Full layer: optional conv, enumerate, score, optional calibration,
    mix, downsample. Retains the score matrix for visualization."""
    n, d = x.shape
    if d != cfg.embedding_dim:
        raise ShapeError(f"input dim {d} != configured embedding_dim {cfg.embedding_dim}")
    if n < cfg.downsample_rate:
        raise ShapeError(f"sequence length {n} < downsample rate {cfg.downsample_rate}")
    if cfg.conv_kernel_size is not None:
        x = T.conv1d_same(x, params.conv_filters.tensor, params.conv_bias.tensor)
    candidates = enumerate_blocks(x, cfg)
    scores = score_blocks(candidates, params.scorer)
    if cfg.enable_calibration:
        scores.calibrated = calibrate_scores(scores.weights)
    latent = form_latent(candidates, scores.mixing_weights())
    return GbstOutput(latent=latent, downsampled=downsample(latent, cfg.downsample_rate), scores=scores)


def serialize_scores(scores: ScoreMatrix, decimals: int = 6) -> str:
    """Tab-separated matrix, one row per candidate stream ("b=<size>[,o=<offset>]"),
    one column per byte position."""
    w = scores.mixing_weights().data
    lines = []
    for c, label in enumerate(scores.labels):
        cells = "\t".join(f"{w[i, c]:.{decimals}f}" for i in range(w.shape[0]))
        lines.append(f"{label}\t{cells}")
    return "\n".join(lines) + "\n"
